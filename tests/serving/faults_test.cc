/**
 * @file
 * Tests for fault injection and resilience policies: plan
 * determinism, stream independence, retry/backoff math, admission
 * shedding, graceful degradation, and the bit-for-bit backward
 * compatibility of the extended simulator's default path.
 */

#include <gtest/gtest.h>

#include "models/stable_diffusion.hh"
#include "serving/faults.hh"
#include "serving/policies.hh"
#include "serving/simulator.hh"
#include "util/logging.hh"

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

FaultConfig
flakyFleet()
{
    FaultConfig f;
    f.failureMtbfSeconds = 200.0;
    f.failureMttrSeconds = 50.0;
    f.preemptionMtbfSeconds = 150.0;
    f.preemptionMeanSeconds = 10.0;
    return f;
}

TEST(FaultPlan, DeterministicAcrossRuns)
{
    const FleetFaultPlan a = planFaults(flakyFleet(), 4, 1000.0, 42);
    const FleetFaultPlan b = planFaults(flakyFleet(), 4, 1000.0, 42);
    ASSERT_EQ(a.gpus.size(), b.gpus.size());
    for (std::size_t g = 0; g < a.gpus.size(); ++g) {
        ASSERT_EQ(a.gpus[g].outages.size(), b.gpus[g].outages.size());
        for (std::size_t i = 0; i < a.gpus[g].outages.size(); ++i) {
            EXPECT_DOUBLE_EQ(a.gpus[g].outages[i].start,
                             b.gpus[g].outages[i].start);
            EXPECT_DOUBLE_EQ(a.gpus[g].outages[i].end,
                             b.gpus[g].outages[i].end);
        }
    }
}

TEST(FaultPlan, GpusHaveIndependentStreams)
{
    const FleetFaultPlan plan =
        planFaults(flakyFleet(), 2, 5000.0, 42);
    ASSERT_GE(plan.gpus[0].outages.size(), 1u);
    ASSERT_GE(plan.gpus[1].outages.size(), 1u);
    EXPECT_NE(plan.gpus[0].outages[0].start,
              plan.gpus[1].outages[0].start);
}

TEST(FaultPlan, OutagesDisjointSortedAndMtbfScales)
{
    const FleetFaultPlan plan =
        planFaults(flakyFleet(), 3, 20000.0, 7);
    for (const GpuFaultTimeline& g : plan.gpus) {
        for (std::size_t i = 0; i < g.outages.size(); ++i) {
            EXPECT_LT(g.outages[i].start, g.outages[i].end);
            if (i > 0) {
                EXPECT_GT(g.outages[i].start, g.outages[i - 1].end);
            }
        }
    }
    FaultConfig rare = flakyFleet();
    rare.failureMtbfSeconds *= 50.0;
    rare.preemptionMtbfSeconds *= 50.0;
    const FleetFaultPlan rare_plan = planFaults(rare, 3, 20000.0, 7);
    EXPECT_LT(rare_plan.totalOutages(), plan.totalOutages());
    EXPECT_GT(rare_plan.meanAvailability(20000.0),
              plan.meanAvailability(20000.0));
    EXPECT_GE(plan.meanAvailability(20000.0), 0.0);
    EXPECT_LE(plan.meanAvailability(20000.0), 1.0);
}

TEST(FaultPlan, StragglersAreSeededAndBounded)
{
    FaultConfig f;
    f.stragglerFraction = 0.5;
    f.stragglerSlowdown = 3.0;
    const FleetFaultPlan a = planFaults(f, 32, 100.0, 11);
    const FleetFaultPlan b = planFaults(f, 32, 100.0, 11);
    int stragglers = 0;
    for (std::size_t g = 0; g < a.gpus.size(); ++g) {
        EXPECT_DOUBLE_EQ(a.gpus[g].slowdown, b.gpus[g].slowdown);
        if (a.gpus[g].slowdown > 1.0)
            ++stragglers;
    }
    EXPECT_GT(stragglers, 0);
    EXPECT_LT(stragglers, 32);
}

TEST(FaultPlan, Validation)
{
    FaultConfig f;
    f.stragglerFraction = 1.5;
    EXPECT_THROW(planFaults(f, 1, 100.0, 0), FatalError);
    f = FaultConfig{};
    f.stragglerSlowdown = 0.5;
    f.stragglerFraction = 0.1;
    EXPECT_THROW(planFaults(f, 1, 100.0, 0), FatalError);
}

TEST(FaultPlan, ZeroMtbfDisablesEachProcess)
{
    // MTBF = 0 means "off", even with a zero MTTR alongside — the
    // MTTR checks only apply to enabled processes.
    FaultConfig f;
    f.failureMtbfSeconds = 0.0;
    f.failureMttrSeconds = 0.0;
    f.preemptionMtbfSeconds = 0.0;
    f.preemptionMeanSeconds = 0.0;
    f.domainMtbfSeconds = 0.0;
    f.domainMttrSeconds = 0.0;
    EXPECT_FALSE(f.any());
    const FleetFaultPlan plan = planFaults(f, 8, 1000.0, 3);
    EXPECT_EQ(plan.totalOutages(), 0);
    EXPECT_DOUBLE_EQ(plan.meanAvailability(1000.0), 1.0);
}

TEST(FaultPlan, ZeroMttrWithActiveProcessThrows)
{
    FaultConfig f;
    f.failureMtbfSeconds = 100.0;
    f.failureMttrSeconds = 0.0;
    EXPECT_THROW(planFaults(f, 1, 100.0, 0), FatalError);
    f = FaultConfig{};
    f.preemptionMtbfSeconds = 100.0;
    f.preemptionMeanSeconds = 0.0;
    EXPECT_THROW(planFaults(f, 1, 100.0, 0), FatalError);
    f = FaultConfig{};
    f.domainMtbfSeconds = 100.0;
    f.domainSize = 2;
    f.domainMttrSeconds = 0.0;
    EXPECT_THROW(planFaults(f, 4, 100.0, 0), FatalError);
}

TEST(FaultPlan, OverlappingOutagesOnOneGpuMerge)
{
    // Failure and preemption windows that interleave on one GPU must
    // merge into disjoint windows, with a hard failure subsuming any
    // preemption it overlaps.
    std::vector<Outage> raw = {
        {10.0, 20.0, OutageKind::Preemption},
        {15.0, 40.0, OutageKind::Failure},
        {5.0, 12.0, OutageKind::Preemption},
        {50.0, 60.0, OutageKind::Preemption},
        {60.0, 70.0, OutageKind::Preemption}, // adjacent: merges
    };
    const std::vector<Outage> merged = mergeOutages(raw);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_DOUBLE_EQ(merged[0].start, 5.0);
    EXPECT_DOUBLE_EQ(merged[0].end, 40.0);
    EXPECT_EQ(merged[0].kind, OutageKind::Failure);
    EXPECT_DOUBLE_EQ(merged[1].start, 50.0);
    EXPECT_DOUBLE_EQ(merged[1].end, 70.0);
    EXPECT_EQ(merged[1].kind, OutageKind::Preemption);
}

TEST(FaultPlan, OutageAtTimeZeroStartsMidOutage)
{
    GpuFaultTimeline tl;
    tl.outages = {{0.0, 10.0, OutageKind::Failure}};
    EXPECT_TRUE(tl.downAt(0.0));
    EXPECT_TRUE(tl.downAt(9.9));
    EXPECT_FALSE(tl.downAt(10.0));
    EXPECT_DOUBLE_EQ(tl.availability(100.0), 0.9);
    // An outage longer than the horizon cannot drive availability
    // negative.
    GpuFaultTimeline longOutage;
    longOutage.outages = {{0.0, 500.0, OutageKind::Failure}};
    EXPECT_DOUBLE_EQ(longOutage.availability(100.0), 0.0);
}

TEST(FaultPlan, DomainMembersShareCorrelatedOutages)
{
    FaultConfig f;
    f.domainMtbfSeconds = 150.0;
    f.domainMttrSeconds = 30.0;
    const std::vector<int> domainOf = {0, 0, 1, 1};
    const FleetFaultPlan plan = planFaults(f, domainOf, 2000.0, 17);
    ASSERT_EQ(plan.gpus.size(), 4u);
    ASSERT_GT(plan.totalOutages(), 0);
    // With only domain faults active, co-domain members have
    // identical timelines and the domains differ from each other.
    ASSERT_EQ(plan.gpus[0].outages.size(), plan.gpus[1].outages.size());
    for (std::size_t i = 0; i < plan.gpus[0].outages.size(); ++i) {
        EXPECT_DOUBLE_EQ(plan.gpus[0].outages[i].start,
                         plan.gpus[1].outages[i].start);
        EXPECT_DOUBLE_EQ(plan.gpus[0].outages[i].end,
                         plan.gpus[1].outages[i].end);
    }
    EXPECT_NE(plan.gpus[0].availability(2000.0),
              plan.gpus[2].availability(2000.0));
    const std::vector<double> avail = plan.domainAvailability(2000.0);
    ASSERT_EQ(avail.size(), 2u);
    EXPECT_DOUBLE_EQ(avail[0], plan.gpus[0].availability(2000.0));
}

TEST(FaultPlan, DomainSizePartitionsThePool)
{
    FaultConfig f;
    f.domainMtbfSeconds = 200.0;
    f.domainSize = 2;
    const FleetFaultPlan plan = planFaults(f, 6, 2000.0, 9);
    ASSERT_EQ(plan.domainOf.size(), 6u);
    EXPECT_EQ(plan.domainOf[0], 0);
    EXPECT_EQ(plan.domainOf[1], 0);
    EXPECT_EQ(plan.domainOf[5], 2);
    EXPECT_EQ(plan.domainAvailability(2000.0).size(), 3u);
    // Missing domainSize is rejected.
    f.domainSize = 0;
    EXPECT_THROW(planFaults(f, 6, 2000.0, 9), FatalError);
}

TEST(FaultPlan, DisabledDomainFaultsAreBitIdenticalToSeedPlan)
{
    // Adding domain membership without a domain fault process must
    // not change a single per-GPU draw.
    FaultConfig f = flakyFleet();
    const FleetFaultPlan pool = planFaults(f, 4, 1000.0, 21);
    const FleetFaultPlan withDomains =
        planFaults(f, {0, 0, 1, 1}, 1000.0, 21);
    ASSERT_EQ(pool.gpus.size(), withDomains.gpus.size());
    for (std::size_t g = 0; g < pool.gpus.size(); ++g) {
        ASSERT_EQ(pool.gpus[g].outages.size(),
                  withDomains.gpus[g].outages.size());
        for (std::size_t i = 0; i < pool.gpus[g].outages.size(); ++i) {
            EXPECT_EQ(pool.gpus[g].outages[i].start,
                      withDomains.gpus[g].outages[i].start);
            EXPECT_EQ(pool.gpus[g].outages[i].end,
                      withDomains.gpus[g].outages[i].end);
        }
        EXPECT_EQ(pool.gpus[g].slowdown, withDomains.gpus[g].slowdown);
    }
}

TEST(RetryPolicy, ExponentialBackoffWithCap)
{
    RetryPolicy r;
    r.maxRetries = 5;
    r.backoffBaseSeconds = 2.0;
    r.backoffMultiplier = 3.0;
    r.backoffCapSeconds = 25.0;
    EXPECT_DOUBLE_EQ(r.backoffSeconds(1), 2.0);
    EXPECT_DOUBLE_EQ(r.backoffSeconds(2), 6.0);
    EXPECT_DOUBLE_EQ(r.backoffSeconds(3), 18.0);
    EXPECT_DOUBLE_EQ(r.backoffSeconds(4), 25.0); // capped
    EXPECT_THROW(r.backoffSeconds(0), FatalError);
}

TEST(Resilience, DefaultPathBitForBitWithSeedSimulator)
{
    ServingConfig cfg;
    cfg.arrivalRate = 3.0;
    cfg.numGpus = 2;
    cfg.maxBatch = 4;
    cfg.horizonSeconds = 500.0;
    const ServingReport a = simulateServing(cfg, unitModel());
    const ServingReport b =
        simulateServing(cfg, unitModel(), ResilienceConfig{});
    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.drainCompleted, b.drainCompleted);
    EXPECT_EQ(a.backlog, b.backlog);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.meanLatency, b.meanLatency);
    EXPECT_EQ(a.p50Latency, b.p50Latency);
    EXPECT_EQ(a.p95Latency, b.p95Latency);
    EXPECT_EQ(a.meanBatch, b.meanBatch);
    EXPECT_EQ(a.gpuUtilization, b.gpuUtilization);
    EXPECT_EQ(a.goodput, b.goodput);
    EXPECT_EQ(a.drainGpuSeconds, b.drainGpuSeconds);
    // Resilience metrics are inert on the default path.
    EXPECT_EQ(b.retries, 0);
    EXPECT_EQ(b.shed, 0);
    EXPECT_EQ(b.expired, 0);
    EXPECT_EQ(b.dropped, 0);
    EXPECT_EQ(b.degraded, 0);
    EXPECT_DOUBLE_EQ(b.lostGpuSeconds, 0.0);
    EXPECT_DOUBLE_EQ(b.meanAvailability, 1.0);
    // With no deadline, goodput is in-horizon throughput.
    EXPECT_DOUBLE_EQ(b.goodput, b.throughput);
}

TEST(Resilience, FaultsDoNotPerturbArrivals)
{
    ServingConfig cfg;
    cfg.arrivalRate = 2.0;
    cfg.numGpus = 4;
    cfg.horizonSeconds = 800.0;
    ResilienceConfig res;
    res.faults = flakyFleet();
    const ServingReport clean = simulateServing(cfg, unitModel());
    const ServingReport faulty =
        simulateServing(cfg, unitModel(), res);
    EXPECT_EQ(clean.arrived, faulty.arrived);
    EXPECT_LT(faulty.meanAvailability, 1.0);
}

TEST(Resilience, FaultsDegradeServiceAndLoseWork)
{
    ServingConfig cfg;
    cfg.arrivalRate = 2.0;
    cfg.numGpus = 4;
    cfg.horizonSeconds = 800.0;
    ResilienceConfig res;
    res.faults = flakyFleet();
    const ServingReport clean = simulateServing(cfg, unitModel());
    const ServingReport faulty =
        simulateServing(cfg, unitModel(), res);
    // Killed batches drop their requests (no retry budget).
    EXPECT_GT(faulty.dropped, 0);
    EXPECT_GT(faulty.lostGpuSeconds, 0.0);
    EXPECT_LT(faulty.completed, clean.completed);
}

TEST(Resilience, RetriesRecoverFaultedWork)
{
    ServingConfig cfg;
    cfg.arrivalRate = 2.0;
    cfg.numGpus = 4;
    cfg.horizonSeconds = 800.0;
    ResilienceConfig no_retry;
    no_retry.faults = flakyFleet();
    ResilienceConfig with_retry = no_retry;
    with_retry.retry.maxRetries = 3;
    with_retry.retry.backoffBaseSeconds = 0.5;
    const ServingReport dropped =
        simulateServing(cfg, unitModel(), no_retry);
    const ServingReport retried =
        simulateServing(cfg, unitModel(), with_retry);
    EXPECT_GT(retried.retries, 0);
    EXPECT_GT(retried.completed, dropped.completed);
    EXPECT_LT(retried.dropped, dropped.dropped);
}

TEST(Resilience, StragglerTimeoutRescuesGoodput)
{
    // One of two GPUs runs 4x slow, so its completions always bust a
    // 2.5 s deadline. Batch timeouts + retry re-land that work on the
    // healthy GPU, where it can still beat the deadline.
    FaultConfig f;
    f.stragglerFraction = 0.5;
    f.stragglerSlowdown = 4.0;
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 64; ++s) {
        const FleetFaultPlan p = planFaults(f, 2, 100.0, s);
        const int stragglers = (p.gpus[0].slowdown > 1.0 ? 1 : 0) +
                               (p.gpus[1].slowdown > 1.0 ? 1 : 0);
        if (stragglers == 1) {
            seed = s;
            break;
        }
    }
    ASSERT_NE(seed, 0u) << "no asymmetric fleet in seed range";

    ServingConfig cfg;
    cfg.arrivalRate = 0.5;
    cfg.numGpus = 2;
    cfg.maxBatch = 1;
    cfg.horizonSeconds = 1000.0;
    cfg.seed = seed;
    ResilienceConfig slow;
    slow.faults = f;
    slow.deadline.deadlineSeconds = 2.5;
    ResilienceConfig rescued = slow;
    rescued.deadline.batchTimeoutSeconds = 1.2;
    rescued.retry.maxRetries = 3;
    rescued.retry.backoffBaseSeconds = 0.05;
    const ServingReport slow_r =
        simulateServing(cfg, unitModel(), slow);
    const ServingReport rescued_r =
        simulateServing(cfg, unitModel(), rescued);
    EXPECT_GT(slow_r.deadlineMissRate, 0.1); // straggler busts SLO
    EXPECT_GT(rescued_r.retries, 0);
    EXPECT_GT(rescued_r.goodput, slow_r.goodput);
    EXPECT_LT(rescued_r.deadlineMissRate, slow_r.deadlineMissRate);
}

TEST(Resilience, AdmissionControlBoundsQueue)
{
    ServingConfig cfg;
    cfg.arrivalRate = 3.0; // 3x capacity
    cfg.numGpus = 1;
    cfg.maxBatch = 1;
    cfg.horizonSeconds = 400.0;
    ResilienceConfig res;
    res.admission.maxQueueLength = 10;
    const ServingReport open = simulateServing(cfg, unitModel());
    const ServingReport shed =
        simulateServing(cfg, unitModel(), res);
    EXPECT_GT(shed.shed, 0);
    EXPECT_GT(shed.shedFraction, 0.3);
    EXPECT_LE(shed.backlog, 11); // queue bound + one in flight
    EXPECT_LT(shed.backlog, open.backlog);
    // Served requests see bounded waiting instead of a divergent
    // queue.
    EXPECT_LT(shed.p95Latency, open.p95Latency);
}

TEST(Resilience, DeadlinesExpireQueuedWork)
{
    ServingConfig cfg;
    cfg.arrivalRate = 3.0;
    cfg.numGpus = 1;
    cfg.maxBatch = 1;
    cfg.horizonSeconds = 400.0;
    ResilienceConfig res;
    res.deadline.deadlineSeconds = 5.0;
    const ServingReport r = simulateServing(cfg, unitModel(), res);
    EXPECT_GT(r.expired, 0);
    EXPECT_GE(r.deadlineMissRate, 0.0);
    EXPECT_LE(r.deadlineMissRate, 1.0);
    EXPECT_LE(r.goodput, r.throughput);
    // Every counted completion beat the deadline or is a miss.
    EXPECT_NEAR(r.goodput * cfg.horizonSeconds +
                    r.deadlineMissRate *
                        static_cast<double>(r.completed),
                static_cast<double>(r.completed - r.drainCompleted),
                static_cast<double>(r.drainCompleted) + 1.0);
}

TEST(Resilience, DegradationRaisesGoodputUnderOverload)
{
    ServingConfig cfg;
    cfg.arrivalRate = 1.6; // 1.6x nominal capacity
    cfg.numGpus = 1;
    cfg.maxBatch = 1;
    cfg.horizonSeconds = 600.0;
    ResilienceConfig plain;
    plain.deadline.deadlineSeconds = 20.0;
    ResilienceConfig degrade = plain;
    degrade.degradation.queueThreshold = 4;
    degrade.degradation.serviceScale = 0.5;
    const ServingReport base =
        simulateServing(cfg, unitModel(), plain);
    const ServingReport deg =
        simulateServing(cfg, unitModel(), degrade);
    EXPECT_GT(deg.degraded, 0);
    EXPECT_GT(deg.degradedFraction, 0.0);
    EXPECT_GE(deg.goodput, base.goodput);
    EXPECT_GT(deg.completed, base.completed);
}

TEST(Resilience, PoliciesNeverLoseGoodputAcrossSweep)
{
    // Miniature version of bench/serving_resilience: at every
    // (availability x load) point the policy bundle must recover at
    // least the no-policy goodput.
    for (double mtbf : {0.0, 400.0, 150.0}) {
        for (double rate : {0.5, 1.2, 2.0}) {
            ServingConfig cfg;
            cfg.arrivalRate = rate;
            cfg.numGpus = 2;
            cfg.maxBatch = 2;
            cfg.horizonSeconds = 500.0;
            ResilienceConfig bare;
            bare.faults.failureMtbfSeconds = mtbf;
            bare.faults.failureMttrSeconds = 60.0;
            bare.deadline.deadlineSeconds = 30.0;
            ResilienceConfig resilient = bare;
            resilient.retry.maxRetries = 3;
            resilient.retry.backoffBaseSeconds = 0.5;
            resilient.degradation.queueThreshold = 6;
            resilient.degradation.serviceScale = 0.6;
            const ServingReport a =
                simulateServing(cfg, unitModel(), bare);
            const ServingReport b =
                simulateServing(cfg, unitModel(), resilient);
            EXPECT_GE(b.goodput, a.goodput)
                << "mtbf " << mtbf << " rate " << rate;
        }
    }
}

TEST(Degradation, FromProfiledPipelines)
{
    models::StableDiffusionConfig full;
    models::StableDiffusionConfig cheap = full;
    cheap.denoiseSteps = full.denoiseSteps / 2;
    const DegradationPolicy policy = degradationFromPipelines(
        models::buildStableDiffusion(full),
        models::buildStableDiffusion(cheap),
        hw::GpuSpec::a100_80gb(), 0.5);
    EXPECT_GT(policy.serviceScale, 0.3);
    EXPECT_LT(policy.serviceScale, 0.8);
    EXPECT_DOUBLE_EQ(policy.qualityCost, 0.5);
    // Faster pipeline as "full" is rejected.
    EXPECT_THROW(degradationFromPipelines(
                     models::buildStableDiffusion(cheap),
                     models::buildStableDiffusion(full),
                     hw::GpuSpec::a100_80gb(), 0.0),
                 FatalError);
}

} // namespace
} // namespace mmgen::serving
