/**
 * @file
 * Cluster-resilience chaos study. Named chaos scenarios (replica
 * kills, domain degradation, straggler GPUs) run against a
 * multi-replica Stable Diffusion cluster twice per grid point: a bare
 * deployment (deadline only — a killed batch's requests are gone) and
 * a resilient one (adaptive routing, bounded retry, admission
 * control, circuit breakers,
 * hedged requests, checkpoint/restore). The invariant asserted here
 * is the PR's contract: the resilient stack achieves goodput >= bare
 * at every grid point, and on the long-TTV scenario — Make-A-Video
 * requests whose service time is minutes, the paper's headline
 * system pain — checkpoint/restore cuts wasted GPU-seconds by at
 * least 30% versus full-request retry.
 *
 * Emits `BENCH_serving_chaos.json` (path overridable via a non-flag
 * argument); `--smoke` runs a reduced grid for CI. Exits nonzero if
 * any invariant fails.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "models/model_suite.hh"
#include "runtime/parallel.hh"
#include "serving/cluster.hh"
#include "serving/telemetry_hooks.hh"
#include "telemetry/consistency.hh"
#include "telemetry/export.hh"
#include "telemetry/telemetry.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace {

struct GridPoint
{
    std::string scenario;
    double load = 0.0;
};

struct PointResult
{
    mmgen::serving::ClusterReport bare;
    mmgen::serving::ClusterReport resilient;
};

} // namespace

int
main(int argc, char** argv)
{
    using namespace mmgen;

    bool smoke = false;
    std::string out_path = "BENCH_serving_chaos.json";
    std::string metrics_path;
    std::string trace_path;
    double sample_interval = 5.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--metrics-out")
            metrics_path = next();
        else if (arg == "--trace-out")
            trace_path = next();
        else if (arg == "--sample-interval")
            sample_interval = std::stod(next());
        else
            out_path = arg;
    }

    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    const graph::Pipeline sd =
        models::buildModel(models::ModelId::StableDiffusion);
    const serving::LatencyModel latency =
        serving::profileLatencyModel(sd, gpu);

    std::cout << "=== Serving chaos: 4-replica StableDiffusion "
                 "cluster (2 GPUs/replica, 2 failure domains) ===\n\n";
    std::cout << "batch-1 latency " << formatTime(latency.baseSeconds)
              << (smoke ? "; smoke grid\n\n" : "\n\n");

    const int kReplicas = 4;
    const int kGpusPerReplica = 2;
    const double horizon = smoke ? 300.0 : 900.0;
    const double capacity =
        static_cast<double>(4) / latency.batchSeconds(4) *
        (kReplicas * kGpusPerReplica);

    auto makeCluster = [&](const GridPoint& pt) {
        serving::ClusterConfig c;
        c.arrivalRate = pt.load * capacity;
        c.maxBatch = 4;
        c.horizonSeconds = horizon;
        // Bare deployments spray round-robin; adaptive routing is
        // part of the resilience layer under study.
        c.router = serving::RouterPolicy::RoundRobin;
        c.replicas.clear();
        for (int r = 0; r < kReplicas; ++r)
            c.replicas.push_back(serving::ReplicaSpec{
                latency, kGpusPerReplica, r / 2});
        c.chaos = serving::namedChaosScenario(pt.scenario, kReplicas,
                                              horizon);
        c.resilience.deadline.deadlineSeconds =
            10.0 * latency.baseSeconds;
        return c;
    };

    // Memory-aware admission: the static liveness analyzer's batch
    // bound rides along with queue-length shedding, so the dispatcher
    // can never form a batch the GPU cannot hold.
    const serving::AdmissionPolicy memAdmission =
        serving::memoryAwareAdmission(sd, gpu, /*maxQueueLength=*/64);

    auto makeResilient = [&](serving::ClusterConfig c) {
        c.router = serving::RouterPolicy::LeastLoaded;
        c.resilience.retry.maxRetries = 3;
        c.resilience.retry.backoffBaseSeconds = 0.5;
        // Shed past the point where a queued request could still
        // meet its deadline, so retried work displaces nothing.
        c.resilience.admission = memAdmission;
        c.breaker.failureThreshold = 3;
        c.breaker.openSeconds = 30.0;
        c.probe.intervalSeconds = 2.0;
        c.hedge.delaySeconds =
            2.0 * serving::hedgeDelayForQuantile(latency, c.maxBatch,
                                                 1.0);
        c.checkpoint =
            serving::checkpointFromPipeline(sd, 10,
                                            0.002 *
                                                latency.baseSeconds);
        return c;
    };

    std::vector<GridPoint> grid;
    if (smoke) {
        grid = {{"kill-replica", 0.6}, {"straggle-gpu", 0.6}};
    } else {
        for (const char* scenario :
             {"kill-replica", "rolling-kill", "degrade-domain",
              "straggle-gpu"})
            for (double load : {0.5, 0.8})
                grid.push_back({scenario, load});
    }

    // Each grid point is an independent seeded simulation; the sweep
    // runs data-parallel with bit-identical reports at any --jobs
    // count.
    const std::vector<PointResult> results = runtime::parallelMap(
        static_cast<std::int64_t>(grid.size()),
        [&](std::int64_t i) {
            const GridPoint& pt = grid[static_cast<std::size_t>(i)];
            const serving::ClusterConfig bare = makeCluster(pt);
            return PointResult{
                serving::simulateCluster(bare),
                serving::simulateCluster(makeResilient(bare))};
        });

    TextTable table({"Scenario", "Load", "Goodput (bare)",
                     "Goodput (resilient)", "p95 (bare)",
                     "p95 (resilient)", "Hedges", "Breaker opens",
                     "Restored"});
    int dominated = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const serving::ServingReport& a = results[i].bare.serving;
        const serving::ServingReport& b =
            results[i].resilient.serving;
        if (b.goodput >= a.goodput)
            ++dominated;
        table.addRow({grid[i].scenario, formatFixed(grid[i].load, 1),
                      formatFixed(a.goodput, 2) + " req/s",
                      formatFixed(b.goodput, 2) + " req/s",
                      formatTime(a.p95Latency),
                      formatTime(b.p95Latency),
                      std::to_string(b.hedgesIssued),
                      std::to_string(b.breakerOpens),
                      formatTime(b.restoredGpuSeconds)});
    }
    std::cout << table.render() << "\n";
    std::cout << "resilient stack (adaptive routing + retry + "
                 "admission + breaker + hedge "
                 "+ checkpoint) achieved\n goodput >= bare at "
              << dominated << "/" << grid.size()
              << " chaos grid points\n\n";

    // OOM-safety gate: no resilient run may ever have dispatched a
    // batch above the static memory bound, under any chaos scenario.
    bool oomPass = true;
    std::int64_t maxDispatched = 0;
    for (const PointResult& r : results) {
        const serving::ServingReport& b = r.resilient.serving;
        maxDispatched = std::max(maxDispatched, b.maxBatchDispatched);
        if (b.maxBatchDispatched > memAdmission.memoryFeasibleBatch ||
            b.maxBatchDispatched > b.effectiveMaxBatch)
            oomPass = false;
    }
    std::cout << "memory-aware admission: max batch dispatched "
              << maxDispatched << " <= static feasible batch "
              << memAdmission.memoryFeasibleBatch
              << (oomPass ? "" : "  VIOLATED") << "\n\n";

    // -- telemetry identity gate + artifacts -----------------------
    // Re-run the first grid point's resilient config with full
    // telemetry (metrics, sampling, tracing). The instrumented report
    // must equal the uninstrumented one field-for-field, and the
    // sampled series must pass the P009 consistency check.
    bool telemetryPass = true;
    {
        const serving::ClusterConfig cfg =
            makeResilient(makeCluster(grid[0]));
        telemetry::MetricsRegistry registry;
        telemetry::TraceSink sink;
        telemetry::Telemetry tel;
        tel.metrics = &registry;
        tel.trace = &sink;
        tel.sampleIntervalSeconds = sample_interval;
        const serving::ClusterReport instrumented =
            serving::simulateCluster(cfg, &tel);

        if (!(instrumented.serving ==
              results[0].resilient.serving)) {
            std::cerr << "FAIL: telemetry-enabled report differs "
                         "from the telemetry-free run\n";
            telemetryPass = false;
        }
        const verify::DiagnosticReport check =
            telemetry::checkSeriesConsistency(
                registry,
                serving::seriesExpectations(cfg, instrumented.serving));
        if (check.hasErrors()) {
            std::cerr << check.render();
            telemetryPass = false;
        }
        std::cout << "telemetry identity gate ("
                  << grid[0].scenario << " @ load "
                  << formatFixed(grid[0].load, 1) << "): "
                  << (telemetryPass ? "reports identical, series "
                                      "consistent"
                                    : "FAILED")
                  << "\n\n";
        if (!metrics_path.empty()) {
            std::ofstream mout(metrics_path);
            if (mout) {
                telemetry::writeMetricsJsonLines(mout, registry);
                std::cout << "(wrote " << metrics_path << ")\n";
            }
        }
        if (!trace_path.empty()) {
            std::ofstream tout(trace_path);
            if (tout) {
                telemetry::writeChromeTrace(tout, sink);
                std::cout << "(wrote " << trace_path << ")\n";
            }
        }
    }

    // -- long-TTV checkpoint/restore study -------------------------
    // Make-A-Video requests run minutes; a mid-request kill without
    // checkpoints re-runs the whole request. Same fleet, same faults,
    // checkpointing off vs on.
    const graph::Pipeline ttv =
        models::buildModel(models::ModelId::MakeAVideo);
    const serving::LatencyModel ttvLatency =
        serving::profileLatencyModel(ttv, gpu);
    const double base = ttvLatency.baseSeconds;

    serving::ClusterConfig longCfg;
    longCfg.arrivalRate = 0.8 / base;
    longCfg.maxBatch = 1;
    longCfg.horizonSeconds = (smoke ? 12.0 : 30.0) * base;
    longCfg.router = serving::RouterPolicy::LeastLoaded;
    longCfg.replicas = {serving::ReplicaSpec{ttvLatency, 1, 0},
                        serving::ReplicaSpec{ttvLatency, 1, 1}};
    longCfg.chaos = serving::namedChaosScenario(
        "kill-replica", 2, longCfg.horizonSeconds);
    longCfg.resilience.faults.failureMtbfSeconds = 3.0 * base;
    longCfg.resilience.faults.failureMttrSeconds = 0.5 * base;
    longCfg.resilience.retry.maxRetries = 10;
    longCfg.resilience.retry.backoffBaseSeconds = 1.0;
    longCfg.resilience.admission =
        serving::memoryAwareAdmission(ttv, gpu);

    serving::ClusterConfig longCkpt = longCfg;
    longCkpt.checkpoint = serving::checkpointFromPipeline(
        ttv, /*everyIterations=*/5, /*costSeconds=*/0.002 * base);

    const serving::ClusterReport noCkpt =
        serving::simulateCluster(longCfg);
    const serving::ClusterReport withCkpt =
        serving::simulateCluster(longCkpt);
    const double wastedBare = noCkpt.serving.wastedGpuSeconds;
    const double wastedCkpt = withCkpt.serving.wastedGpuSeconds;
    const double reduction =
        wastedBare > 0.0 ? 1.0 - wastedCkpt / wastedBare : 0.0;

    std::cout << "=== Long-TTV checkpoint/restore (MakeAVideo, "
              << formatTime(base) << "/request, kill-replica + "
              << "MTBF " << formatTime(3.0 * base) << ") ===\n\n";
    TextTable ttvTable({"Config", "Completed", "Wasted GPU-s",
                        "Restored GPU-s", "Resumes", "Ckpt overhead"});
    ttvTable.addRow({"full retry",
                     std::to_string(noCkpt.serving.completed),
                     formatTime(wastedBare), formatTime(0.0), "0",
                     formatTime(0.0)});
    ttvTable.addRow(
        {"checkpoint/restore",
         std::to_string(withCkpt.serving.completed),
         formatTime(wastedCkpt),
         formatTime(withCkpt.serving.restoredGpuSeconds),
         std::to_string(withCkpt.serving.resumes),
         formatTime(withCkpt.serving.checkpointOverheadSeconds)});
    std::cout << ttvTable.render() << "\n";
    std::cout << "checkpointing cut wasted GPU-seconds by "
              << formatPercent(reduction) << " (target >= 30%)\n";

    const std::int64_t ttvBound =
        longCfg.resilience.admission.memoryFeasibleBatch;
    if (noCkpt.serving.maxBatchDispatched > ttvBound ||
        withCkpt.serving.maxBatchDispatched > ttvBound)
        oomPass = false;

    const bool gridPass =
        dominated == static_cast<int>(grid.size());
    const bool ckptPass = wastedBare > 0.0 && reduction >= 0.30 &&
                          withCkpt.serving.resumes > 0;

    std::ofstream out(out_path);
    if (out) {
        json::Writer w(out);
        w.beginObject();
        w.field("bench", "serving_chaos");
        w.field("smoke", smoke);
        w.key("grid").beginArray();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const serving::ServingReport& a = results[i].bare.serving;
            const serving::ServingReport& b =
                results[i].resilient.serving;
            w.beginObject();
            w.field("scenario", grid[i].scenario);
            w.key("load").rawValue(formatFixed(grid[i].load, 2));
            w.key("goodput_bare").rawValue(formatFixed(a.goodput, 4));
            w.key("goodput_resilient")
                .rawValue(formatFixed(b.goodput, 4));
            w.key("p95_bare").rawValue(formatFixed(a.p95Latency, 3));
            w.key("p95_resilient")
                .rawValue(formatFixed(b.p95Latency, 3));
            w.field("hedges_issued", b.hedgesIssued);
            w.field("hedges_won", b.hedgesWon);
            w.field("breaker_opens", b.breakerOpens);
            w.key("restored_gpu_seconds")
                .rawValue(formatFixed(b.restoredGpuSeconds, 3));
            w.field("dominated", b.goodput >= a.goodput);
            w.endObject();
        }
        w.endArray();
        w.field("grid_dominated",
                static_cast<std::int64_t>(dominated));
        w.field("grid_points",
                static_cast<std::int64_t>(grid.size()));
        w.field("telemetry_identical", telemetryPass);
        w.field("memory_feasible_batch",
                memAdmission.memoryFeasibleBatch);
        w.field("max_batch_dispatched", maxDispatched);
        w.field("memory_admission_safe", oomPass);
        w.key("long_ttv").beginObject();
        w.field("model", "MakeAVideo");
        w.key("request_seconds").rawValue(formatFixed(base, 3));
        w.key("wasted_gpu_seconds_full_retry")
            .rawValue(formatFixed(wastedBare, 3));
        w.key("wasted_gpu_seconds_checkpoint")
            .rawValue(formatFixed(wastedCkpt, 3));
        w.key("restored_gpu_seconds")
            .rawValue(
                formatFixed(withCkpt.serving.restoredGpuSeconds, 3));
        w.key("checkpoint_overhead_seconds")
            .rawValue(formatFixed(
                withCkpt.serving.checkpointOverheadSeconds, 3));
        w.field("resumes", withCkpt.serving.resumes);
        w.key("wasted_reduction").rawValue(formatFixed(reduction, 4));
        w.endObject();
        w.field("pass",
                gridPass && ckptPass && telemetryPass && oomPass);
        w.endObject();
        out << "\n";
        std::cout << "(wrote " << out_path << ")\n";
    }

    if (!telemetryPass)
        return 1;
    if (!oomPass) {
        std::cerr << "FAIL: a dispatched batch exceeded the static "
                     "memory-feasibility bound\n";
        return 1;
    }
    if (!gridPass) {
        std::cerr << "FAIL: resilient stack lost goodput on "
                  << (grid.size() - static_cast<std::size_t>(
                                        dominated))
                  << " grid point(s)\n";
        return 1;
    }
    if (!ckptPass) {
        std::cerr << "FAIL: checkpoint/restore cut wasted work by "
                  << formatPercent(reduction)
                  << " (< 30% target) or never resumed\n";
        return 1;
    }
    return 0;
}
