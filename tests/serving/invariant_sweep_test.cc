/**
 * @file
 * Seeded randomized-configuration sweep over the serving engine. A
 * fixed-seed generator draws several hundred cluster configurations —
 * replica counts, routers, mixes, greedy or continuous batching, model
 * or surface pricing, faults, chaos, hedging, breakers, checkpoints,
 * deadlines, timeouts, admission, degradation, memory bounds — and
 * every report must satisfy the invariants any run has to keep,
 * whatever the knobs: request conservation, ordered quantiles, goodput
 * within throughput, bounded utilization and batch size, non-negative
 * waste, and availabilities that are fractions. One digest over every
 * report pins the sweep bit-for-bit, so a refactor of the engine must
 * also keep the combinations no characterization golden reaches
 * (priority mixes with hedges, breakers and chaos) identical. Every
 * fifth config runs again with metrics, trace and sampling on: its
 * report must not move, its sampled series must pass P009, and one
 * more digest pins the exported metrics and trace bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "report_digest.hh"
#include "serving/cluster.hh"
#include "serving/latency_surface.hh"
#include "serving/telemetry_hooks.hh"
#include "telemetry/consistency.hh"
#include "telemetry/export.hh"
#include "telemetry/telemetry.hh"
#include "util/hash.hh"
#include "util/rng.hh"
#include "workload/workload.hh"

namespace mmgen::serving {
namespace {

constexpr int kConfigs = 500;
constexpr std::uint64_t kSweepSeed = 0x5eed'0012;
/** Digest of all kConfigs reports, in sweep order. */
constexpr const char* kSweepDigest = "fdaf7d016f2b36ec";
/** Every kTelemetryEvery-th config also runs with telemetry on. */
constexpr int kTelemetryEvery = 5;
/** Digest of those runs' JSON-lines metrics and Chrome traces. */
constexpr const char* kExportDigest = "e0567a7d22d39446";

bool
chance(Rng& rng, double p)
{
    return rng.uniform() < p;
}

/** A monotone batch x size grid with `iterations` steps per request. */
BatchLatencySurface
gridSurface(Rng& rng)
{
    BatchLatencySurface s;
    s.batchGrid = {1, 2, 4, 8};
    s.sizeGrid = {0.5, 1.0, 2.0, 4.0};
    const double base = rng.uniform(0.5, 3.0);
    for (int b : s.batchGrid)
        for (double size : s.sizeGrid)
            s.seconds.push_back(base * (0.2 + 0.8 * b) * size);
    s.iterations = rng.uniformInt(1, 30);
    return s;
}

ReplicaSpec
drawReplica(Rng& rng, int maxBatch)
{
    ReplicaSpec rep;
    rep.latency.baseSeconds = rng.uniform(0.5, 4.0);
    rep.latency.overheadFraction = rng.uniform(0.0, 0.5);
    rep.numGpus = static_cast<int>(rng.uniformInt(1, 4));
    rep.domain = static_cast<int>(rng.uniformInt(0, 1));
    const double pricing = rng.uniform();
    if (pricing < 0.3)
        rep.surface = gridSurface(rng);
    else if (pricing < 0.5)
        rep.surface = BatchLatencySurface::fromLatencyModel(
            rep.latency, maxBatch, rng.uniformInt(1, 50));
    return rep;
}

workload::WorkloadConfig
drawMix(Rng& rng)
{
    const std::vector<std::string> names = workload::workloadMixNames();
    const std::int64_t pick = rng.uniformInt(
        0, static_cast<std::int64_t>(names.size()) + 1);
    if (pick == 0)
        return {}; // legacy plain Poisson
    if (pick == 1) {
        // Unit-size split priorities.
        workload::ClientClass fg;
        fg.name = "fg";
        fg.weight = 0.5;
        workload::ClientClass bg = fg;
        bg.name = "bg";
        bg.priority = 1;
        workload::WorkloadConfig mix;
        mix.classes = {fg, bg};
        return mix;
    }
    return workload::namedWorkloadMix(
        names[static_cast<std::size_t>(pick - 2)]);
}

ClusterConfig
drawConfig(Rng& rng)
{
    ClusterConfig c;
    c.seed = rng.nextU64();
    c.horizonSeconds = rng.uniform(60.0, 200.0);
    c.maxBatch = static_cast<int>(rng.uniformInt(1, 8));
    c.continuousBatching = chance(rng, 0.5);
    c.workload = drawMix(rng);
    const int numReplicas = static_cast<int>(rng.uniformInt(1, 4));
    c.replicas.clear();
    double capacity = 0.0;
    for (int r = 0; r < numReplicas; ++r) {
        c.replicas.push_back(drawReplica(rng, c.maxBatch));
        const LatencyModel& m = c.replicas.back().latency;
        capacity += c.replicas.back().numGpus * c.maxBatch /
                    m.batchSeconds(c.maxBatch);
    }
    // From light load to overload, capped so a run stays small.
    c.arrivalRate =
        std::min(rng.uniform(0.2, 1.8) * capacity, 4.0);
    c.router = static_cast<RouterPolicy>(rng.uniformInt(0, 2));

    ResilienceConfig& res = c.resilience;
    if (chance(rng, 0.5)) {
        res.faults.failureMtbfSeconds = rng.uniform(50.0, 600.0);
        res.faults.failureMttrSeconds = rng.uniform(5.0, 60.0);
    }
    if (chance(rng, 0.3)) {
        res.faults.preemptionMtbfSeconds = rng.uniform(50.0, 400.0);
        res.faults.preemptionMeanSeconds = rng.uniform(1.0, 20.0);
    }
    if (chance(rng, 0.3)) {
        res.faults.stragglerFraction = rng.uniform(0.0, 0.5);
        res.faults.stragglerSlowdown = rng.uniform(1.0, 4.0);
    }
    if (chance(rng, 0.2)) {
        res.faults.domainMtbfSeconds = rng.uniform(100.0, 600.0);
        res.faults.domainMttrSeconds = rng.uniform(5.0, 40.0);
        if (chance(rng, 0.5))
            res.faults.domainSize = static_cast<int>(rng.uniformInt(1, 3));
    }
    res.retry.maxRetries = static_cast<int>(rng.uniformInt(0, 4));
    res.retry.backoffBaseSeconds = rng.uniform(0.0, 2.0);
    if (chance(rng, 0.4))
        res.deadline.deadlineSeconds = rng.uniform(2.0, 60.0);
    if (chance(rng, 0.3))
        res.deadline.batchTimeoutSeconds = rng.uniform(0.5, 10.0);
    if (chance(rng, 0.3))
        res.admission.maxQueueLength = rng.uniformInt(1, 64);
    if (chance(rng, 0.2))
        res.admission.memoryFeasibleBatch =
            rng.uniformInt(0, c.maxBatch);
    if (chance(rng, 0.3)) {
        res.degradation.queueThreshold = rng.uniformInt(1, 16);
        res.degradation.serviceScale = rng.uniform(0.2, 1.0);
    }

    if (chance(rng, 0.4)) {
        const char* scenarios[] = {"kill-replica", "kill-replica-at-zero",
                                   "rolling-kill", "degrade-domain",
                                   "straggle-gpu"};
        c.chaos = namedChaosScenario(scenarios[rng.uniformInt(0, 4)],
                                     numReplicas, c.horizonSeconds);
    }
    if (chance(rng, 0.4))
        c.hedge.delaySeconds = rng.uniform(0.5, 8.0);
    if (chance(rng, 0.3)) {
        c.breaker.failureThreshold = static_cast<int>(rng.uniformInt(1, 3));
        c.breaker.openSeconds = rng.uniform(5.0, 60.0);
        c.breaker.halfOpenSuccesses =
            static_cast<int>(rng.uniformInt(1, 2));
    }
    if (!c.continuousBatching && chance(rng, 0.3)) {
        c.checkpoint.iterations = rng.uniformInt(5, 100);
        c.checkpoint.intervalIterations =
            rng.uniformInt(1, c.checkpoint.iterations);
        c.checkpoint.costSeconds = rng.uniform(0.0, 0.05);
    }
    c.probe.intervalSeconds = rng.uniform(1.0, 10.0);
    return c;
}

void
expectInvariants(const ClusterReport& cr, int index)
{
    const ServingReport& r = cr.serving;
    SCOPED_TRACE("config " + std::to_string(index));
    EXPECT_EQ(r.arrived, r.completed + r.shed + r.expired + r.dropped +
                             r.backlog);
    EXPECT_LE(r.p50Latency, r.p95Latency);
    EXPECT_LE(r.p95Latency, r.p99Latency);
    EXPECT_LE(r.goodput, r.throughput);
    // Per-GPU busy intervals are disjoint inside the horizon; the
    // slack only absorbs summation rounding.
    EXPECT_LE(r.gpuUtilization, 1.0 + 1e-12);
    EXPECT_LE(r.maxBatchDispatched, r.effectiveMaxBatch);
    EXPECT_GE(r.wastedGpuSeconds, 0.0);
    EXPECT_GE(r.restoredGpuSeconds, 0.0);
    EXPECT_GE(r.hedgeWastedSeconds, 0.0);
    EXPECT_GE(r.meanAvailability, 0.0);
    EXPECT_LE(r.meanAvailability, 1.0);
    for (const ReplicaStats& rs : cr.replicas) {
        EXPECT_GE(rs.availability, 0.0);
        EXPECT_LE(rs.availability, 1.0);
    }
    for (double a : cr.domainAvailability) {
        EXPECT_GE(a, 0.0);
        EXPECT_LE(a, 1.0);
    }
}

/**
 * Run `cfg` again with metrics, trace and sampling (20 samples) on:
 * the report must equal the bare run's `bare`, the sampled series
 * must agree with it (P009), and both exports feed `exports`.
 */
void
expectTelemetryRun(const ClusterConfig& cfg, const ClusterReport& bare,
                   int index, HashBuilder& exports)
{
    SCOPED_TRACE("telemetry run of config " + std::to_string(index));
    telemetry::MetricsRegistry registry;
    telemetry::TraceSink sink;
    telemetry::Telemetry tel;
    tel.metrics = &registry;
    tel.trace = &sink;
    tel.sampleIntervalSeconds = cfg.horizonSeconds / 20.0;
    const ClusterReport r = simulateCluster(cfg, &tel);
    EXPECT_TRUE(r.serving == bare.serving);
    EXPECT_EQ(digest(r), digest(bare));
    const verify::DiagnosticReport check =
        telemetry::checkSeriesConsistency(
            registry, seriesExpectations(cfg, r.serving));
    EXPECT_FALSE(check.hasErrors()) << check.render();
    std::ostringstream out;
    telemetry::writeMetricsJsonLines(out, registry);
    telemetry::writeChromeTrace(out, sink);
    exports.mix(out.str());
}

TEST(InvariantSweep, RandomConfigsKeepReportInvariants)
{
    Rng rng(kSweepSeed);
    HashBuilder sweep;
    HashBuilder exports;
    int continuous = 0;
    int hedged = 0;
    for (int i = 0; i < kConfigs; ++i) {
        const ClusterConfig cfg = drawConfig(rng);
        const ClusterReport r = simulateCluster(cfg);
        expectInvariants(r, i);
        mixReport(sweep, r);
        if (i % kTelemetryEvery == 0)
            expectTelemetryRun(cfg, r, i, exports);
        continuous += cfg.continuousBatching ? 1 : 0;
        hedged += r.serving.hedgesIssued > 0 ? 1 : 0;
        if (HasFailure())
            break; // one broken config is enough to diagnose
    }
    // The sweep reaches both dispatchers and live hedging.
    EXPECT_GT(continuous, kConfigs / 4);
    EXPECT_GT(hedged, 0);
    EXPECT_EQ(hex(sweep.digest()), kSweepDigest);
    EXPECT_EQ(hex(exports.digest()), kExportDigest);
}

} // namespace
} // namespace mmgen::serving
