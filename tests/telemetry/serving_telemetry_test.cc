/**
 * @file
 * End-to-end telemetry tests against the serving simulators: the
 * zero-cost-disabled contract (reports bit-for-bit identical with
 * telemetry on or off, doubles compared exactly), sampling cadence,
 * chaos trace contents, the P009 consistency check, and byte-identical
 * exports across job counts.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "runtime/parallel.hh"
#include "serving/cluster.hh"
#include "serving/simulator.hh"
#include "serving/telemetry_hooks.hh"
#include "telemetry/consistency.hh"
#include "telemetry/export.hh"
#include "telemetry/telemetry.hh"

namespace mmgen::serving {
namespace {

LatencyModel
unitModel()
{
    LatencyModel m;
    m.baseSeconds = 1.0;
    m.overheadFraction = 0.0;
    return m;
}

/**
 * A deliberately hostile cluster: rolling replica kills, a
 * hair-trigger breaker, and aggressive hedging, so every
 * instrumentation site (breaker transitions, hedge spans, retries,
 * sheds) actually fires within a short horizon.
 */
ClusterConfig
chaosCluster()
{
    ClusterConfig c;
    c.arrivalRate = 1.6;
    c.maxBatch = 4;
    c.horizonSeconds = 240.0;
    c.seed = 17;
    c.replicas = {ReplicaSpec{unitModel(), 2, 0},
                  ReplicaSpec{unitModel(), 2, 1}};
    c.router = RouterPolicy::LeastLoaded;
    c.chaos = namedChaosScenario("rolling-kill", 2, c.horizonSeconds);
    c.breaker.failureThreshold = 1;
    c.breaker.openSeconds = 10.0;
    c.probe.intervalSeconds = 5.0;
    c.hedge.delaySeconds = 2.0;
    c.resilience.retry.maxRetries = 3;
    c.resilience.faults.failureMtbfSeconds = 200.0;
    c.resilience.faults.failureMttrSeconds = 40.0;
    return c;
}

std::string
exportAll(const telemetry::MetricsRegistry& registry,
          const telemetry::TraceSink& sink)
{
    std::ostringstream out;
    telemetry::writeMetricsJsonLines(out, registry);
    telemetry::writePrometheus(out, registry);
    telemetry::writeChromeTrace(out, sink);
    return out.str();
}

std::size_t
countEvents(const telemetry::TraceSink& sink, const std::string& name)
{
    std::size_t n = 0;
    for (const telemetry::TraceEvent& ev : sink.events())
        n += ev.name == name ? 1 : 0;
    return n;
}

TEST(ServingTelemetry, SinglePoolReportBitIdenticalWithTelemetryOn)
{
    ServingConfig cfg;
    cfg.arrivalRate = 1.4;
    cfg.numGpus = 2;
    cfg.maxBatch = 4;
    cfg.horizonSeconds = 400.0;
    cfg.seed = 11;
    ResilienceConfig res;
    res.faults.failureMtbfSeconds = 150.0;
    res.faults.failureMttrSeconds = 40.0;
    res.retry.maxRetries = 3;
    res.deadline.deadlineSeconds = 60.0;
    res.admission.maxQueueLength = 32;

    const ServingReport bare = simulateServing(cfg, unitModel(), res);

    telemetry::MetricsRegistry registry;
    telemetry::TraceSink sink;
    telemetry::Telemetry tel;
    tel.metrics = &registry;
    tel.trace = &sink;
    tel.sampleIntervalSeconds = 5.0;
    const ServingReport instrumented =
        simulateServing(cfg, unitModel(), res, &tel);

    // Exact double equality is the contract, not a tolerance.
    EXPECT_EQ(bare.throughput, instrumented.throughput);
    EXPECT_EQ(bare.p95Latency, instrumented.p95Latency);
    EXPECT_EQ(bare.gpuUtilization, instrumented.gpuUtilization);
    EXPECT_TRUE(bare == instrumented);

    // And telemetry actually recorded something.
    EXPECT_GT(registry.size(), 0u);
    EXPECT_FALSE(sink.empty());
    EXPECT_GT(countEvents(sink, "admit"), 0u);
}

TEST(ServingTelemetry, NullAndAllDisabledTelemetryAreEquivalent)
{
    ServingConfig cfg;
    cfg.arrivalRate = 1.0;
    cfg.numGpus = 2;
    cfg.horizonSeconds = 300.0;
    const ServingReport viaNull =
        simulateServing(cfg, unitModel(), ResilienceConfig{}, nullptr);
    const telemetry::Telemetry disabled; // no registry, no sink
    const ServingReport viaDisabled =
        simulateServing(cfg, unitModel(), ResilienceConfig{},
                        &disabled);
    EXPECT_TRUE(viaNull == viaDisabled);
}

TEST(ServingTelemetry, ClusterReportBitIdenticalUnderChaos)
{
    const ClusterConfig cfg = chaosCluster();
    const ClusterReport bare = simulateCluster(cfg);

    telemetry::MetricsRegistry registry;
    telemetry::TraceSink sink;
    telemetry::Telemetry tel;
    tel.metrics = &registry;
    tel.trace = &sink;
    tel.sampleIntervalSeconds = 2.0;
    const ClusterReport instrumented = simulateCluster(cfg, &tel);

    EXPECT_TRUE(bare.serving == instrumented.serving);
    ASSERT_EQ(bare.replicas.size(), instrumented.replicas.size());
    for (std::size_t i = 0; i < bare.replicas.size(); ++i) {
        EXPECT_EQ(bare.replicas[i].dispatchedBatches,
                  instrumented.replicas[i].dispatchedBatches);
        EXPECT_EQ(bare.replicas[i].busySeconds,
                  instrumented.replicas[i].busySeconds);
    }
}

TEST(ServingTelemetry, ChaosTraceContainsBreakerAndHedgeEvents)
{
    const ClusterConfig cfg = chaosCluster();
    telemetry::MetricsRegistry registry;
    telemetry::TraceSink sink;
    telemetry::Telemetry tel;
    tel.metrics = &registry;
    tel.trace = &sink;
    const ClusterReport r = simulateCluster(cfg, &tel);

    // The scenario is harsh enough that every machine actually runs.
    ASSERT_GT(r.serving.breakerOpens, 0);
    ASSERT_GT(r.serving.hedgesIssued, 0);

    // Instants mirror the report counters one-to-one.
    EXPECT_EQ(countEvents(sink, "breaker_open"),
              static_cast<std::size_t>(r.serving.breakerOpens));
    EXPECT_EQ(countEvents(sink, "breaker_close"),
              static_cast<std::size_t>(r.serving.breakerCloses));
    EXPECT_GT(countEvents(sink, "breaker_half_open"), 0u);
    EXPECT_EQ(countEvents(sink, "hedge_issue"),
              static_cast<std::size_t>(r.serving.hedgesIssued));
    // Hedge spans exist for resolved hedges (won or cancelled).
    const std::size_t hedgeSpans = countEvents(sink, "hedged request");
    EXPECT_GT(hedgeSpans, 0u);
    EXPECT_LE(hedgeSpans,
              static_cast<std::size_t>(r.serving.hedgesIssued));
}

TEST(ServingTelemetry, SamplesLandOnCadenceAndEndAtHorizon)
{
    ServingConfig cfg;
    cfg.arrivalRate = 1.0;
    cfg.numGpus = 2;
    cfg.horizonSeconds = 100.0;
    telemetry::MetricsRegistry registry;
    telemetry::Telemetry tel;
    tel.metrics = &registry;
    tel.sampleIntervalSeconds = 7.0;
    simulateServing(cfg, unitModel(), ResilienceConfig{}, &tel);

    const telemetry::TimeSeries* s =
        registry.findSeries("serving.queue_depth");
    ASSERT_NE(s, nullptr);
    // Sample k lands at exactly k * interval; the final sample is
    // clamped onto the horizon.
    ASSERT_EQ(s->points().size(), 15u);
    for (std::size_t i = 0; i + 1 < s->points().size(); ++i)
        EXPECT_EQ(s->points()[i].tSeconds,
                  7.0 * static_cast<double>(i + 1));
    EXPECT_EQ(s->points().back().tSeconds, 100.0);
}

TEST(ServingTelemetry, ConsistencyCheckPassesOnSampledChaosRun)
{
    const ClusterConfig cfg = chaosCluster();
    telemetry::MetricsRegistry registry;
    telemetry::Telemetry tel;
    tel.metrics = &registry;
    tel.sampleIntervalSeconds = 2.0;
    const ClusterReport r = simulateCluster(cfg, &tel);

    const telemetry::SeriesExpectations expect =
        seriesExpectations(cfg, r.serving);
    const verify::DiagnosticReport report =
        telemetry::checkSeriesConsistency(registry, expect);
    EXPECT_TRUE(report.diagnostics().empty()) << report.render();

    // The closing sample equals the report aggregate exactly.
    const telemetry::TimeSeries* completed =
        registry.findSeries("serving.completed_total");
    ASSERT_NE(completed, nullptr);
    EXPECT_EQ(completed->back().value,
              static_cast<double>(expect.inHorizonCompleted));
}

TEST(ServingTelemetry, ConsistencyCheckFiresOnCorruption)
{
    telemetry::SeriesExpectations expect;
    expect.horizonSeconds = 100.0;
    expect.totalGpus = 4;
    expect.arrived = 10;

    {
        // Cumulative series that decreases.
        telemetry::MetricsRegistry r;
        telemetry::TimeSeries& s = r.series("serving.arrived_total");
        s.record(10.0, 5.0);
        s.record(20.0, 3.0);
        EXPECT_TRUE(
            telemetry::checkSeriesConsistency(r, expect).hasErrors());
    }
    {
        // Final sample disagrees with the report aggregate.
        telemetry::MetricsRegistry r;
        r.series("serving.arrived_total").record(100.0, 9.0);
        EXPECT_TRUE(
            telemetry::checkSeriesConsistency(r, expect).hasErrors());
    }
    {
        // In-flight GPUs above the fleet size.
        telemetry::MetricsRegistry r;
        r.series("serving.in_flight_gpus").record(50.0, 5.0);
        EXPECT_TRUE(
            telemetry::checkSeriesConsistency(r, expect).hasErrors());
    }
    {
        // Breaker state outside {0, 1, 2}.
        telemetry::MetricsRegistry r;
        r.series("serving.replica.breaker_state",
                 telemetry::Labels{{"replica", "0"}})
            .record(50.0, 5.0);
        EXPECT_TRUE(
            telemetry::checkSeriesConsistency(r, expect).hasErrors());
    }
    {
        // Non-serving series are out of scope.
        telemetry::MetricsRegistry r;
        r.series("runtime.something").record(10.0, 5.0);
        r.series("runtime.something").record(20.0, 3.0);
        EXPECT_FALSE(
            telemetry::checkSeriesConsistency(r, expect).hasErrors());
    }
}

TEST(ServingTelemetry, ExportsByteIdenticalAcrossJobCounts)
{
    const ClusterConfig cfg = chaosCluster();
    std::string reference;
    for (int jobs : {1, 2, 8}) {
        runtime::setGlobalJobs(jobs);
        telemetry::MetricsRegistry registry;
        telemetry::TraceSink sink;
        telemetry::Telemetry tel;
        tel.metrics = &registry;
        tel.trace = &sink;
        tel.sampleIntervalSeconds = 5.0;
        simulateCluster(cfg, &tel);
        const std::string exported = exportAll(registry, sink);
        if (reference.empty())
            reference = exported;
        else
            EXPECT_EQ(exported, reference) << "jobs=" << jobs;
    }
    runtime::setGlobalJobs(0);
    EXPECT_FALSE(reference.empty());
}

} // namespace
} // namespace mmgen::serving
