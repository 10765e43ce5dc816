/**
 * @file
 * Runtime-scaling microbench: measures what the deterministic
 * parallel runtime (`src/runtime/`) buys the characterization
 * harness on a zoo-wide sweep, and proves the determinism contract.
 *
 * The workload mirrors what the figure drivers actually do: profile
 * every suite model under both attention backends, several sweep
 * passes over (the way `serving_capacity` / the figure benches
 * re-profile the same configurations). The serial baseline runs it
 * exactly like the pre-runtime harness: one thread, no memoization.
 * Each `--jobs N` point runs the same work through `parallelMap` +
 * `ProfileCache` from a cold cache.
 *
 * Emits `BENCH_runtime.json` (path overridable via argv[1]) with
 * wall-clock per job count, cache hit rates, speedups, and whether
 * the rendered sweep report was byte-identical to the serial one at
 * every job count. Exits nonzero if any output differs — determinism
 * is a hard invariant, not a goal.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/suite.hh"
#include "models/model_suite.hh"
#include "profiler/engine.hh"
#include "runtime/parallel.hh"
#include "runtime/profile_cache.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace {

using namespace mmgen;

/** One unit of sweep work: profile one model under one backend. */
struct WorkItem
{
    models::ModelId id;
    graph::AttentionBackend backend;
};

std::vector<WorkItem>
buildSweep(int passes)
{
    std::vector<WorkItem> items;
    for (int pass = 0; pass < passes; ++pass) {
        for (models::ModelId id : models::allModels()) {
            items.push_back(
                {id, graph::AttentionBackend::Baseline});
            items.push_back({id, graph::AttentionBackend::Flash});
        }
    }
    return items;
}

profiler::ProfileOptions
optionsFor(const WorkItem& item)
{
    profiler::ProfileOptions opts;
    opts.backend = item.backend;
    return opts;
}

/** Render one sweep's results; byte-compared across job counts. */
std::string
renderReport(const std::vector<profiler::ProfileResult>& results)
{
    std::ostringstream oss;
    for (const profiler::ProfileResult& r : results) {
        oss << r.model << ","
            << graph::attentionBackendName(r.backend) << ","
            << formatFixed(r.totalSeconds * 1e3, 6) << ","
            << formatFixed(r.totalFlops, 0) << ","
            << formatFixed(r.totalHbmBytes, 0) << ","
            << r.totalLaunches << "\n";
    }
    return oss.str();
}

double
now_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

} // namespace

int
main(int argc, char** argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_runtime.json";
    constexpr int kPasses = 4;
    const std::vector<WorkItem> sweep = buildSweep(kPasses);
    const auto n = static_cast<std::int64_t>(sweep.size());

    std::cout << "=== Runtime scaling: zoo-wide sweep ("
              << sweep.size() << " profiles, " << kPasses
              << " passes over " << sweep.size() / kPasses
              << " configurations) ===\n\n";

    // Serial baseline: the pre-runtime harness. One thread, a fresh
    // Profiler per item, no cache.
    const double serial_start = now_seconds();
    std::vector<profiler::ProfileResult> serial_results;
    serial_results.reserve(sweep.size());
    for (const WorkItem& item : sweep) {
        serial_results.push_back(
            profiler::Profiler(optionsFor(item))
                .profile(models::buildModel(item.id)));
    }
    const double serial_s = now_seconds() - serial_start;
    const std::string serial_report = renderReport(serial_results);

    struct Point
    {
        int jobs = 1;
        double seconds = 0.0;
        double speedup = 0.0;
        std::int64_t hits = 0;
        std::int64_t misses = 0;
        double hitRate = 0.0;
        bool identical = false;
    };
    std::vector<Point> points;
    bool all_identical = true;

    for (const int jobs : {1, 2, 4, 8}) {
        runtime::setGlobalJobs(jobs);
        // Fresh, private cache per point so hit rates and timings are
        // cold-start comparable.
        runtime::ProfileCache cache(256);
        const runtime::ProfileCacheStats before = cache.stats();

        const double start = now_seconds();
        const std::vector<profiler::ProfileResult> results =
            runtime::parallelMap(n, [&](std::int64_t i) {
                const WorkItem& item =
                    sweep[static_cast<std::size_t>(i)];
                const graph::Pipeline p =
                    models::buildModel(item.id);
                const profiler::ProfileOptions opts =
                    optionsFor(item);
                return *cache.getOrCompute(
                    runtime::profileKey(p, opts), [&] {
                        return profiler::Profiler(opts).profile(p);
                    });
            });
        const double seconds = now_seconds() - start;

        const runtime::ProfileCacheStats stats = cache.stats();
        Point pt;
        pt.jobs = jobs;
        pt.seconds = seconds;
        pt.speedup = seconds > 0.0 ? serial_s / seconds : 0.0;
        pt.hits = stats.hits - before.hits;
        pt.misses = stats.misses - before.misses;
        pt.hitRate = stats.hitRate();
        pt.identical = renderReport(results) == serial_report;
        all_identical = all_identical && pt.identical;
        points.push_back(pt);
    }
    runtime::setGlobalJobs(0);

    TextTable table({"Jobs", "Wall", "Speedup", "Cache hits",
                     "Cache misses", "Hit rate", "Identical"});
    table.addRow({"serial", formatTime(serial_s), "1.00x", "-", "-",
                  "-", "-"});
    for (const Point& pt : points) {
        table.addRow({std::to_string(pt.jobs),
                      formatTime(pt.seconds),
                      formatFixed(pt.speedup, 2) + "x",
                      std::to_string(pt.hits),
                      std::to_string(pt.misses),
                      formatPercent(pt.hitRate),
                      pt.identical ? "yes" : "NO"});
    }
    std::cout << table.render() << "\n";
    std::cout
        << "(serial = pre-runtime harness: 1 thread, no memoization; "
           "each jobs point\n runs the identical sweep through "
           "parallelMap + a cold ProfileCache. The\n memo removes "
           "repeated-configuration work on any machine; extra jobs "
           "add\n thread-level speedup on multi-core hosts.)\n";

    std::ofstream out(out_path);
    if (out) {
        out << "{\n  \"bench\": \"runtime_scaling\",\n";
        out << "  \"work_items\": " << sweep.size() << ",\n";
        out << "  \"unique_configurations\": "
            << sweep.size() / kPasses << ",\n";
        out << "  \"serial_seconds\": "
            << formatFixed(serial_s, 6) << ",\n";
        out << "  \"points\": [\n";
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Point& pt = points[i];
            out << "    {\"jobs\": " << pt.jobs
                << ", \"seconds\": " << formatFixed(pt.seconds, 6)
                << ", \"speedup\": " << formatFixed(pt.speedup, 3)
                << ", \"cache_hits\": " << pt.hits
                << ", \"cache_misses\": " << pt.misses
                << ", \"hit_rate\": " << formatFixed(pt.hitRate, 4)
                << ", \"identical_output\": "
                << (pt.identical ? "true" : "false") << "}"
                << (i + 1 < points.size() ? "," : "") << "\n";
        }
        out << "  ],\n";
        double best = 0.0;
        for (const Point& pt : points)
            best = pt.speedup > best ? pt.speedup : best;
        out << "  \"max_speedup\": " << formatFixed(best, 3)
            << ",\n";
        out << "  \"identical_at_all_jobs\": "
            << (all_identical ? "true" : "false") << "\n}\n";
        std::cout << "(wrote " << out_path << ")\n";
    }

    if (!all_identical) {
        std::cerr << "FAIL: sweep output not byte-identical across "
                     "job counts\n";
        return 1;
    }
    return 0;
}
