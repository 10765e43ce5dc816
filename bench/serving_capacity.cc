/**
 * @file
 * Goodput-vs-tail-latency frontier: for each TTI model family, sweep
 * workload mixes and load points over a pool of simulated A100s and
 * compare greedy fixed-batch dispatch against continuous batching,
 * with both modes priced from the same exec-derived latency surface.
 * Connects the per-request characterization to the datacenter-scale
 * framing of the paper's introduction: the frontier says how much
 * goodput a pool sustains before the p99 knee, and how much of the
 * knee continuous batching buys back.
 *
 * Emits `BENCH_serving_capacity.json` (path overridable via a
 * non-flag argument); `--smoke` runs a reduced grid for CI. Exits
 * nonzero if either gate fails:
 *  - continuous batching must match or beat greedy goodput at every
 *    frontier point (same arrivals, same surface — continuous only
 *    changes when requests join and leave a batch), within a
 *    quantization allowance of one batch per horizon: at saturation
 *    the two modes serve at identical rates and differ only in which
 *    requests land before the horizon cut, where greedy completes in
 *    lumps of up to maxBatch (a real regression scales with the
 *    horizon; the allowance does not), and
 *  - the latency surface must agree with a direct exec-timeline
 *    profile to <= 1% at every grid node.
 *
 * Grid points are independent seeded simulations and run
 * data-parallel via `parallelMap` with byte-identical output at any
 * `--jobs`/`MMGEN_JOBS` setting; every simulation reprofiles its
 * surface through the profile memo, so the sweep performs one real
 * profile per (model, grid node) and the rest are cache hits.
 */

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "models/model_suite.hh"
#include "runtime/parallel.hh"
#include "runtime/profile_cache.hh"
#include "serving/latency_surface.hh"
#include "serving/simulator.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "workload/workload.hh"

namespace {

using namespace mmgen;

/** One (model, mix, load) frontier point. */
struct GridPoint
{
    models::ModelId id;
    std::string mix;
    /** Offered load as a fraction of full-batch pool capacity. */
    double load = 0.0;
};

/** Greedy and continuous reports for one frontier point. */
struct PointResult
{
    serving::ServingReport greedy;
    serving::ServingReport continuous;
    double rate = 0.0;
};

constexpr int kGpus = 8;
constexpr int kMaxBatch = 8;

serving::BatchLatencySurface
surfaceFor(models::ModelId id, const hw::GpuSpec& gpu)
{
    return serving::profileLatencySurface(
        models::buildModel(id), gpu, exec::ScheduleOptions(),
        {1, 2, 4, 8}, {0.5, 1.0, 2.0, 4.0});
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace mmgen;

    bool smoke = false;
    std::string out_path = "BENCH_serving_capacity.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else
            out_path = arg;
    }

    std::cout << "=== Serving frontier: goodput vs p99, greedy vs "
                 "continuous batching ===\n\n";

    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    const std::vector<models::ModelId> model_ids =
        smoke ? std::vector<models::ModelId>{
                    models::ModelId::StableDiffusion}
              : std::vector<models::ModelId>{
                    models::ModelId::StableDiffusion,
                    models::ModelId::Muse,
                    models::ModelId::ProdImage};
    const std::vector<std::string> mixes =
        smoke ? std::vector<std::string>{"poisson", "production"}
              : std::vector<std::string>{"poisson", "interactive",
                                         "production"};
    const std::vector<double> loads =
        smoke ? std::vector<double>{0.5, 1.1}
              : std::vector<double>{0.4, 0.7, 0.9, 1.1, 1.4};
    const double horizon = smoke ? 120.0 : 300.0;

    std::vector<GridPoint> grid;
    for (models::ModelId id : model_ids)
        for (const std::string& mix : mixes)
            for (double load : loads)
                grid.push_back({id, mix, load});

    // Each point reprofiles its surface (cache hits after the first
    // per model) and runs greedy + continuous on identical arrivals;
    // parallelMap keeps results in grid order.
    const std::vector<PointResult> results = runtime::parallelMap(
        static_cast<std::int64_t>(grid.size()),
        [&](std::int64_t i) {
            const GridPoint& pt = grid[static_cast<std::size_t>(i)];
            const serving::BatchLatencySurface surface =
                surfaceFor(pt.id, gpu);

            // Load is offered arrivals over full-batch pool
            // capacity; the deadline is generous (25x batch-1) so
            // goodput measures sustained completions, not SLO tuning.
            const double capacity =
                static_cast<double>(kMaxBatch) /
                surface.batchSeconds(kMaxBatch, 1.0) * kGpus;
            PointResult res;
            res.rate = pt.load * capacity;

            serving::ServingConfig cfg;
            cfg.arrivalRate = res.rate;
            cfg.numGpus = kGpus;
            cfg.maxBatch = kMaxBatch;
            cfg.horizonSeconds = horizon;
            cfg.workload = workload::namedWorkloadMix(pt.mix);
            serving::ResilienceConfig rc;
            rc.deadline.deadlineSeconds =
                25.0 * surface.batchSeconds(1, 1.0);
            rc.admission.maxQueueLength = 256;

            cfg.continuousBatching = false;
            res.greedy = serving::simulateServing(cfg, surface, rc);
            cfg.continuousBatching = true;
            res.continuous =
                serving::simulateServing(cfg, surface, rc);
            return res;
        });

    // One batch of completions per horizon: the noise floor from
    // greedy's lumpy completions at the horizon cut.
    const double goodput_quantum =
        static_cast<double>(kMaxBatch) / horizon;
    int regressions = 0;
    std::size_t row = 0;
    for (models::ModelId id : model_ids) {
        const graph::Pipeline p = models::buildModel(id);
        const serving::BatchLatencySurface surface =
            surfaceFor(id, gpu);
        std::cout << p.name << " (batch-1 "
                  << formatTime(surface.batchSeconds(1, 1.0))
                  << ", batch-" << kMaxBatch << " "
                  << formatTime(
                         surface.batchSeconds(kMaxBatch, 1.0))
                  << ", " << surface.iterations
                  << " iters/request):\n";
        TextTable table({"Mix", "Load", "req/s", "Goodput g/c",
                        "p99 g/c", "Mean batch g/c", "Winner"});
        for (const std::string& mix : mixes) {
            for (double load : loads) {
                (void)load;
                const GridPoint& pt = grid[row];
                const PointResult& r = results[row];
                ++row;
                const bool ok =
                    r.continuous.goodput + goodput_quantum + 1e-9 >=
                    r.greedy.goodput;
                if (!ok)
                    ++regressions;
                table.addRow(
                    {mix, formatFixed(pt.load, 2),
                     formatFixed(r.rate, 1),
                     formatFixed(r.greedy.goodput, 2) + " / " +
                         formatFixed(r.continuous.goodput, 2),
                     formatTime(r.greedy.p99Latency) + " / " +
                         formatTime(r.continuous.p99Latency),
                     formatFixed(r.greedy.meanBatch, 2) + " / " +
                         formatFixed(r.continuous.meanBatch, 2),
                     ok ? (r.continuous.goodput >
                                   r.greedy.goodput
                               ? "continuous"
                               : "tie")
                        : "GREEDY (regression)"});
            }
            table.addSeparator();
        }
        std::cout << table.render() << "\n";
    }
    std::cout << "(goodput g/c = greedy / continuous; continuous "
                 "batching must match or beat\n greedy at every "
                 "point, within one batch per horizon of horizon-"
                 "cut slack)\n\n";

    // Gate B: the surface must agree with a direct exec-timeline
    // profile at every grid node. Lookups at nodes return stored
    // values exactly, so this checks the storage/indexing contract
    // end to end through the profile cache.
    double worst_rel_err = 0.0;
    for (models::ModelId id : model_ids) {
        const graph::Pipeline p = models::buildModel(id);
        const serving::BatchLatencySurface surface =
            surfaceFor(id, gpu);
        profiler::ProfileOptions popts;
        popts.gpu = gpu;
        popts.backend = graph::AttentionBackend::Flash;
        for (std::size_t bi = 0; bi < surface.batchGrid.size();
             ++bi) {
            for (std::size_t si = 0; si < surface.sizeGrid.size();
                 ++si) {
                const double direct =
                    runtime::cachedProfile(
                        p.at({surface.batchGrid[bi],
                              surface.sizeGrid[si]}),
                        popts)
                        ->totalSeconds;
                const double stored = surface.batchSeconds(
                    surface.batchGrid[bi], surface.sizeGrid[si]);
                worst_rel_err =
                    std::max(worst_rel_err,
                             std::abs(stored - direct) / direct);
            }
        }
    }
    std::cout << "surface vs direct profile: worst relative error "
              << formatPercent(worst_rel_err) << " across "
              << model_ids.size() << " model(s) x 4x4 grid\n";

    const runtime::ProfileCacheStats cache =
        runtime::ProfileCache::global().stats();
    std::cout << "ProfileCache: " << cache.hits << " hits / "
              << cache.misses << " misses ("
              << formatPercent(cache.hitRate()) << " hit rate, "
              << cache.entries << " entries)\n\n";

    const bool frontierPass = regressions == 0;
    const bool surfacePass = worst_rel_err <= 0.01;

    std::ofstream out(out_path);
    if (out) {
        json::Writer w(out);
        w.beginObject();
        w.field("bench", "serving_capacity");
        w.field("smoke", smoke);
        w.field("gpus", static_cast<std::int64_t>(kGpus));
        w.field("max_batch", static_cast<std::int64_t>(kMaxBatch));
        w.key("horizon_seconds").rawValue(formatFixed(horizon, 1));
        w.key("frontier").beginArray();
        row = 0;
        for (models::ModelId id : model_ids) {
            const graph::Pipeline p = models::buildModel(id);
            for (const std::string& mix : mixes) {
                for (double load : loads) {
                    (void)load;
                    const GridPoint& pt = grid[row];
                    const PointResult& r = results[row];
                    ++row;
                    w.beginObject();
                    w.field("model", p.name);
                    w.field("mix", mix);
                    w.key("load").rawValue(formatFixed(pt.load, 2));
                    w.key("rate_rps").rawValue(
                        formatFixed(r.rate, 3));
                    w.key("goodput_greedy")
                        .rawValue(formatFixed(r.greedy.goodput, 4));
                    w.key("goodput_continuous")
                        .rawValue(
                            formatFixed(r.continuous.goodput, 4));
                    w.key("p99_greedy").rawValue(
                        formatFixed(r.greedy.p99Latency, 3));
                    w.key("p99_continuous")
                        .rawValue(
                            formatFixed(r.continuous.p99Latency, 3));
                    w.key("mean_batch_greedy")
                        .rawValue(formatFixed(r.greedy.meanBatch, 3));
                    w.key("mean_batch_continuous")
                        .rawValue(
                            formatFixed(r.continuous.meanBatch, 3));
                    w.field("iterations_dispatched",
                            r.continuous.iterationsDispatched);
                    w.field("dominated",
                            r.continuous.goodput + goodput_quantum +
                                    1e-9 >=
                                r.greedy.goodput);
                    w.endObject();
                }
            }
        }
        w.endArray();
        w.field("frontier_points",
                static_cast<std::int64_t>(grid.size()));
        w.field("frontier_regressions",
                static_cast<std::int64_t>(regressions));
        w.key("surface_worst_rel_err")
            .rawValue(formatFixed(worst_rel_err, 6));
        w.field("frontier_pass", frontierPass);
        w.field("surface_pass", surfacePass);
        w.endObject();
        std::cout << "wrote " << out_path << "\n";
    }

    if (!frontierPass) {
        std::cerr << "FAIL: continuous batching lost to greedy at "
                  << regressions << " frontier point(s)\n";
        return 1;
    }
    if (!surfacePass) {
        std::cerr << "FAIL: latency surface deviates "
                  << formatPercent(worst_rel_err)
                  << " from the direct exec-timeline profile "
                     "(gate: <= 1%)\n";
        return 1;
    }
    return 0;
}
