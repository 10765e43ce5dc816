/**
 * @file
 * Telemetry overhead microbench: the zero-cost-when-disabled and
 * bounded-cost-when-enabled contract, measured.
 *
 * A chaos-heavy cluster simulation (breakers, hedges, rolling kills)
 * runs repeatedly with telemetry off and with full telemetry (metric
 * publication, per-interval sampling, span tracing). The bench
 * asserts, in order of importance:
 *
 *   1. Correctness: the instrumented report equals the bare report
 *      field-for-field (`==` on doubles — recording must not perturb
 *      the simulation).
 *   2. Determinism: serialized exports (metrics JSON-lines +
 *      Prometheus + Chrome trace) are byte-identical when the
 *      instrumented sweep runs under --jobs 1, 2, and 8.
 *   3. Cost: the enabled/disabled wall-clock ratio stays under
 *      `kMaxSlowdown`. Timing uses the min over repetitions, the
 *      standard estimator for noisy shared machines.
 *
 * Emits `BENCH_telemetry.json` (path overridable via a non-flag
 * argument); `--smoke` shrinks the horizon for CI. Exits nonzero on
 * any violated bound.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "models/model_suite.hh"
#include "runtime/parallel.hh"
#include "serving/cluster.hh"
#include "telemetry/export.hh"
#include "telemetry/telemetry.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace {

/** Enabled/disabled wall-clock ratio the bench tolerates. */
constexpr double kMaxSlowdown = 5.0;

double
secondsOf(const std::function<void()>& fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Serialize every artifact of one instrumented run into a string. */
std::string
exportAll(const mmgen::telemetry::MetricsRegistry& registry,
          const mmgen::telemetry::TraceSink& sink)
{
    std::ostringstream out;
    mmgen::telemetry::writeMetricsJsonLines(out, registry);
    mmgen::telemetry::writePrometheus(out, registry);
    mmgen::telemetry::writeChromeTrace(out, sink);
    return out.str();
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace mmgen;

    bool smoke = false;
    std::string out_path = "BENCH_telemetry.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else
            out_path = arg;
    }

    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    const graph::Pipeline sd =
        models::buildModel(models::ModelId::StableDiffusion);
    const serving::LatencyModel latency =
        serving::profileLatencyModel(sd, gpu);

    const double horizon = smoke ? 300.0 : 1200.0;
    const int reps = smoke ? 3 : 5;
    const double sampleInterval = 1.0;

    serving::ClusterConfig cfg;
    cfg.maxBatch = 4;
    cfg.horizonSeconds = horizon;
    cfg.router = serving::RouterPolicy::LeastLoaded;
    cfg.replicas.clear();
    for (int r = 0; r < 3; ++r)
        cfg.replicas.push_back(serving::ReplicaSpec{latency, 2, r});
    cfg.arrivalRate = 0.8 * 4.0 / latency.batchSeconds(4) * 6.0;
    cfg.resilience.deadline.deadlineSeconds =
        10.0 * latency.baseSeconds;
    cfg.resilience.retry.maxRetries = 3;
    cfg.breaker.failureThreshold = 2;
    cfg.breaker.openSeconds = 15.0;
    cfg.hedge.delaySeconds =
        serving::hedgeDelayForQuantile(latency, cfg.maxBatch, 1.0);
    cfg.chaos = serving::namedChaosScenario("rolling-kill", 3, horizon);

    std::cout << "=== Telemetry overhead: 3-replica StableDiffusion "
                 "cluster, rolling-kill chaos, "
              << formatTime(horizon) << " horizon, " << reps
              << " reps ===\n\n";

    // -- timing: min over reps, telemetry off vs fully on ----------
    double bareSeconds = 1e300;
    serving::ClusterReport bareReport;
    for (int r = 0; r < reps; ++r) {
        const double s = secondsOf(
            [&] { bareReport = serving::simulateCluster(cfg); });
        bareSeconds = std::min(bareSeconds, s);
    }

    double instrumentedSeconds = 1e300;
    serving::ClusterReport instrumentedReport;
    std::int64_t traceEvents = 0;
    std::int64_t seriesPoints = 0;
    for (int r = 0; r < reps; ++r) {
        telemetry::MetricsRegistry registry;
        telemetry::TraceSink sink;
        telemetry::Telemetry tel;
        tel.metrics = &registry;
        tel.trace = &sink;
        tel.sampleIntervalSeconds = sampleInterval;
        const double s = secondsOf([&] {
            instrumentedReport = serving::simulateCluster(cfg, &tel);
        });
        instrumentedSeconds = std::min(instrumentedSeconds, s);
        traceEvents =
            static_cast<std::int64_t>(sink.events().size());
        seriesPoints = 0;
        for (const auto& [key, series] : registry.allSeries())
            seriesPoints +=
                static_cast<std::int64_t>(series.points().size());
    }

    const bool identical =
        bareReport.serving == instrumentedReport.serving;
    const double slowdown = instrumentedSeconds / bareSeconds;
    const double eventsPerSecond =
        static_cast<double>(traceEvents + seriesPoints) /
        instrumentedSeconds;

    // -- determinism: exports byte-identical across --jobs ---------
    // Run the instrumented simulation as a parallel 3-point sweep at
    // several job counts; every serialized artifact must match.
    auto sweepExports = [&](int jobs) {
        runtime::setGlobalJobs(jobs);
        const std::vector<std::string> parts = runtime::parallelMap(
            3, [&](std::int64_t i) {
                serving::ClusterConfig c = cfg;
                c.seed = cfg.seed + static_cast<std::uint64_t>(i);
                telemetry::MetricsRegistry registry;
                telemetry::TraceSink sink;
                telemetry::Telemetry tel;
                tel.metrics = &registry;
                tel.trace = &sink;
                tel.sampleIntervalSeconds = sampleInterval;
                serving::simulateCluster(c, &tel);
                return exportAll(registry, sink);
            });
        std::string all;
        for (const std::string& p : parts)
            all += p;
        return all;
    };
    const std::string exports1 = sweepExports(1);
    const std::string exports2 = sweepExports(2);
    const std::string exports8 = sweepExports(8);
    runtime::setGlobalJobs(0);
    const bool exportsStable =
        exports1 == exports2 && exports1 == exports8;

    TextTable table({"Metric", "Value"});
    table.addRow({"bare run", formatTime(bareSeconds)});
    table.addRow({"instrumented run",
                  formatTime(instrumentedSeconds)});
    table.addRow({"slowdown", formatFixed(slowdown, 3) + "x (max " +
                                  formatFixed(kMaxSlowdown, 1) +
                                  "x)"});
    table.addRow({"trace events", std::to_string(traceEvents)});
    table.addRow({"series points", std::to_string(seriesPoints)});
    table.addRow({"telemetry events/s",
                  formatCount(eventsPerSecond)});
    table.addRow({"report identical", identical ? "yes" : "NO"});
    table.addRow({"exports stable over jobs 1/2/8",
                  exportsStable ? "yes" : "NO"});
    std::cout << table.render() << "\n";

    const bool pass =
        identical && exportsStable && slowdown <= kMaxSlowdown;

    std::ofstream out(out_path);
    if (out) {
        json::Writer w(out);
        w.beginObject();
        w.field("bench", "telemetry_overhead");
        w.field("smoke", smoke);
        w.key("bare_seconds").rawValue(formatFixed(bareSeconds, 6));
        w.key("instrumented_seconds")
            .rawValue(formatFixed(instrumentedSeconds, 6));
        w.key("slowdown").rawValue(formatFixed(slowdown, 4));
        w.key("max_slowdown").rawValue(formatFixed(kMaxSlowdown, 1));
        w.field("trace_events", traceEvents);
        w.field("series_points", seriesPoints);
        w.key("events_per_second")
            .rawValue(formatFixed(eventsPerSecond, 1));
        w.field("report_identical", identical);
        w.field("exports_stable_across_jobs", exportsStable);
        w.field("pass", pass);
        w.endObject();
        out << "\n";
        std::cout << "(wrote " << out_path << ")\n";
    }

    if (!identical) {
        std::cerr << "FAIL: instrumented report differs from the "
                     "bare report\n";
        return 1;
    }
    if (!exportsStable) {
        std::cerr << "FAIL: exports differ across --jobs values\n";
        return 1;
    }
    if (slowdown > kMaxSlowdown) {
        std::cerr << "FAIL: telemetry slowdown "
                  << formatFixed(slowdown, 3) << "x exceeds "
                  << formatFixed(kMaxSlowdown, 1) << "x\n";
        return 1;
    }
    return 0;
}
