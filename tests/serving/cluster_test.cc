/**
 * @file
 * Tests for the cluster-resilience layer: bit-for-bit equivalence of
 * the single-pool trivial path with the base simulator, router
 * policies, circuit-breaker state machine, hedged requests,
 * checkpoint/restore wasted-work accounting, chaos scenarios,
 * continuous batching on replicas, and request conservation across
 * every exit path.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "exec/memory.hh"
#include "models/stable_diffusion.hh"
#include "serving/cluster.hh"
#include "serving/latency_surface.hh"
#include "serving/simulator.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

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

/** Every field the base simulator produces, compared exactly.
 *  EXPECT_EQ on doubles is deliberate: the trivial path must replay
 *  the identical floating-point operation sequence. */
void
expectReportsIdentical(const ServingReport& a, const ServingReport& b)
{
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
    EXPECT_EQ(a.offeredLoad, b.offeredLoad);
    EXPECT_EQ(a.drainGpuSeconds, b.drainGpuSeconds);
    EXPECT_EQ(a.goodput, b.goodput);
    EXPECT_EQ(a.deadlineMissRate, b.deadlineMissRate);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.shedFraction, b.shedFraction);
    EXPECT_EQ(a.expired, b.expired);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.degradedFraction, b.degradedFraction);
    EXPECT_EQ(a.lostGpuSeconds, b.lostGpuSeconds);
    EXPECT_EQ(a.meanAvailability, b.meanAvailability);
}

/** Every logical request ends in exactly one bucket. */
void
expectConservation(const ServingReport& r)
{
    EXPECT_EQ(r.arrived, r.completed + r.shed + r.expired + r.dropped +
                             r.backlog);
}

TEST(Cluster, SinglePoolBitForBitWithSimulator)
{
    ServingConfig cfg;
    cfg.arrivalRate = 1.4;
    cfg.numGpus = 2;
    cfg.maxBatch = 4;
    cfg.horizonSeconds = 400.0;
    cfg.seed = 11;
    const ServingReport base = simulateServing(cfg, unitModel());
    const ClusterReport cluster =
        simulateCluster(singlePoolCluster(cfg, unitModel()));
    expectReportsIdentical(base, cluster.serving);
    // Cluster-only machinery must not have run at all.
    EXPECT_EQ(cluster.serving.hedgesIssued, 0);
    EXPECT_EQ(cluster.serving.hedgesWon, 0);
    EXPECT_EQ(cluster.serving.hedgesCancelled, 0);
    EXPECT_EQ(cluster.serving.hedgeWastedSeconds, 0.0);
    EXPECT_EQ(cluster.serving.breakerOpens, 0);
    EXPECT_EQ(cluster.serving.breakerCloses, 0);
    EXPECT_EQ(cluster.serving.checkpointsTaken, 0);
    EXPECT_EQ(cluster.serving.resumes, 0);
    EXPECT_EQ(cluster.serving.checkpointOverheadSeconds, 0.0);
    EXPECT_EQ(cluster.serving.wastedGpuSeconds, 0.0);
    EXPECT_EQ(cluster.serving.restoredGpuSeconds, 0.0);
    ASSERT_EQ(cluster.replicas.size(), 1u);
    EXPECT_EQ(cluster.replicas[0].breakerOpens, 0);
    expectConservation(cluster.serving);
}

TEST(Cluster, SinglePoolBitForBitUnderResilience)
{
    // One replica, no breaker: the cluster loop schedules no probe,
    // hedge, or checkpoint events, so even with faults and every
    // single-pool policy active it must replay the fault-tolerant
    // simulator exactly.
    ServingConfig cfg;
    cfg.arrivalRate = 1.2;
    cfg.numGpus = 3;
    cfg.horizonSeconds = 500.0;
    cfg.seed = 23;
    ResilienceConfig res;
    res.faults.failureMtbfSeconds = 150.0;
    res.faults.failureMttrSeconds = 40.0;
    res.faults.preemptionMtbfSeconds = 120.0;
    res.faults.preemptionMeanSeconds = 8.0;
    res.faults.stragglerFraction = 0.3;
    res.faults.stragglerSlowdown = 2.0;
    res.retry.maxRetries = 3;
    res.retry.backoffBaseSeconds = 0.5;
    res.deadline.deadlineSeconds = 60.0;
    res.admission.maxQueueLength = 32;
    res.degradation.queueThreshold = 12;
    res.degradation.serviceScale = 0.5;
    const ServingReport base = simulateServing(cfg, unitModel(), res);
    ClusterConfig cc = singlePoolCluster(cfg, unitModel());
    cc.resilience = res;
    const ClusterReport cluster = simulateCluster(cc);
    expectReportsIdentical(base, cluster.serving);
    expectConservation(cluster.serving);
}

TEST(Cluster, OneReplicaMatchesSimulateServingUnderProductionMix)
{
    // Pricing parity: a one-replica cluster and the single-pool entry
    // point price every batch through the same surface, so under a
    // sized, multi-priority mix their reports agree to the last bit —
    // for linear-model and surface pricing, greedy and continuous.
    ServingConfig cfg;
    cfg.arrivalRate = 3.0;
    cfg.numGpus = 2;
    cfg.maxBatch = 4;
    cfg.horizonSeconds = 300.0;
    cfg.workload = workload::namedWorkloadMix("production");
    LatencyModel model;
    model.baseSeconds = 1.0;
    model.overheadFraction = 0.15;
    BatchLatencySurface surface;
    surface.batchGrid = {1, 2, 4};
    surface.sizeGrid = {0.5, 1.0, 2.0, 4.0};
    surface.seconds = {0.6, 1.0, 1.9, 3.7, 1.0, 1.7,
                       3.3, 6.4, 1.7, 3.0, 5.9, 11.6};
    surface.iterations = 20;
    for (bool continuous : {false, true}) {
        cfg.continuousBatching = continuous;
        const ClusterReport viaModel =
            simulateCluster(singlePoolCluster(cfg, model));
        EXPECT_TRUE(simulateServing(cfg, model) == viaModel.serving)
            << "model, continuous=" << continuous;
        ClusterConfig priced = singlePoolCluster(cfg, model);
        priced.replicas[0].surface = surface;
        const ClusterReport viaSurface = simulateCluster(priced);
        EXPECT_TRUE(simulateServing(cfg, surface) == viaSurface.serving)
            << "surface, continuous=" << continuous;
        EXPECT_GT(viaSurface.serving.completed, 0);
        EXPECT_NE(viaSurface.serving.meanRequestSize, 1.0);
    }
}

TEST(Cluster, ValidationRejectsBadKnobs)
{
    const ClusterConfig good;
    ASSERT_NO_THROW(good.validate());

    ClusterConfig c = good;
    c.arrivalRate = 0.0;
    EXPECT_THROW(c.validate(), FatalError);
    c = good;
    c.maxBatch = exec::kUnboundedBatch + 1;
    EXPECT_THROW(c.validate(), FatalError);
    c = good;
    c.replicas.clear();
    EXPECT_THROW(c.validate(), FatalError);
    c = good;
    c.replicas[0].numGpus = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c = good;
    c.replicas[0].domain = -1;
    EXPECT_THROW(c.validate(), FatalError);
    c = good;
    c.breaker.failureThreshold = 2;
    c.breaker.halfOpenSuccesses = 0;
    EXPECT_THROW(c.validate(), FatalError);
    c = good;
    c.hedge.delaySeconds = -1.0;
    EXPECT_THROW(c.validate(), FatalError);
    c = good;
    c.checkpoint.iterations = 10;
    c.checkpoint.intervalIterations = 20;
    EXPECT_THROW(c.validate(), FatalError);
    c = good;
    c.probe.intervalSeconds = 0.0;
    EXPECT_THROW(c.validate(), FatalError);
    c = good;
    c.replicas[0].surface.batchGrid = {1, 2};
    c.replicas[0].surface.sizeGrid = {1.0};
    c.replicas[0].surface.seconds = {1.0}; // wrong shape
    EXPECT_THROW(c.validate(), FatalError);
    c = good;
    c.continuousBatching = true;
    c.checkpoint.iterations = 10;
    c.checkpoint.intervalIterations = 5;
    EXPECT_THROW(c.validate(), FatalError);
    c.checkpoint.intervalIterations = 0; // checkpointing off
    EXPECT_NO_THROW(c.validate());
    c = good;
    c.chaos.events.push_back(
        {10.0, ChaosEventKind::KillReplica, 5, 0.0, 1.0});
    EXPECT_THROW(c.validate(), FatalError);
    c = good;
    c.chaos.events.push_back(
        {10.0, ChaosEventKind::StraggleGpu, 0, 10.0, 0.5});
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Cluster, ValidationCapsExpectedProbes)
{
    ClusterConfig c;
    c.arrivalRate = 1e-3;
    c.replicas = {ReplicaSpec{unitModel(), 1, 0},
                  ReplicaSpec{unitModel(), 1, 1}};
    c.probe.intervalSeconds = 0.5;
    // 2 replicas x horizon / 0.5 s lands exactly on the cap.
    c.horizonSeconds = ProbeModel::kMaxExpectedProbes / 4.0;
    EXPECT_NO_THROW(c.validate());
    c.horizonSeconds += 1.0;
    EXPECT_THROW(c.validate(), FatalError);
    // One replica without breakers schedules no probes; a breaker
    // needs the probe clock again.
    c.replicas.pop_back();
    c.horizonSeconds = ProbeModel::kMaxExpectedProbes;
    EXPECT_NO_THROW(c.validate());
    c.breaker.failureThreshold = 1;
    EXPECT_THROW(c.validate(), FatalError);
}

TEST(Cluster, ValidationCapsExpectedOutagesPerFaultProcess)
{
    ClusterConfig base;
    base.arrivalRate = 1e-3;
    base.replicas = {ReplicaSpec{unitModel(), 4, 0}};
    base.horizonSeconds = FaultConfig::kMaxExpectedOutages;
    // 4 GPUs x horizon / (3 s + 1 s) lands exactly on the cap; a
    // shorter MTBF goes past it. Each process is capped on its own.
    using Knob = double FaultConfig::*;
    const std::pair<Knob, Knob> processes[] = {
        {&FaultConfig::failureMtbfSeconds, &FaultConfig::failureMttrSeconds},
        {&FaultConfig::preemptionMtbfSeconds,
         &FaultConfig::preemptionMeanSeconds},
        {&FaultConfig::domainMtbfSeconds, &FaultConfig::domainMttrSeconds}};
    for (const auto& [mtbf, mttr] : processes) {
        ClusterConfig c = base;
        FaultConfig& f = c.resilience.faults;
        f.*mtbf = 3.0;
        f.*mttr = 1.0;
        EXPECT_NO_THROW(c.validate());
        f.*mtbf = 2.5;
        EXPECT_THROW(c.validate(), FatalError);
    }
}

ClusterConfig
twoReplicaCluster(double rate = 1.5)
{
    ClusterConfig c;
    c.arrivalRate = rate;
    c.maxBatch = 4;
    c.horizonSeconds = 400.0;
    c.seed = 5;
    c.replicas = {ReplicaSpec{unitModel(), 2, 0},
                  ReplicaSpec{unitModel(), 2, 1}};
    return c;
}

TEST(Cluster, RoundRobinSpreadsLoadAcrossReplicas)
{
    ClusterConfig c = twoReplicaCluster();
    const ClusterReport r = simulateCluster(c);
    ASSERT_EQ(r.replicas.size(), 2u);
    EXPECT_GT(r.replicas[0].dispatchedBatches, 0);
    EXPECT_GT(r.replicas[1].dispatchedBatches, 0);
    EXPECT_GT(r.replicas[0].completedRequests, 0);
    EXPECT_GT(r.replicas[1].completedRequests, 0);
    expectConservation(r.serving);
}

TEST(Cluster, ContinuousBatchingRunsOnEveryReplica)
{
    // Continuous batching is a traffic knob, so a multi-replica pool
    // gets it with no extra configuration: requests join and leave at
    // iteration boundaries on every replica, hedges and breakers
    // included, and every request is still accounted for once.
    ClusterConfig c = twoReplicaCluster(2.0);
    c.workload = workload::namedWorkloadMix("production");
    c.chaos = namedChaosScenario("kill-replica", 2, c.horizonSeconds);
    c.hedge.delaySeconds = 3.0;
    c.breaker.failureThreshold = 2;
    c.resilience.retry.maxRetries = 3;
    c.replicas[0].surface = BatchLatencySurface::fromLatencyModel(
        unitModel(), c.maxBatch, 10);
    c.replicas[1].surface = c.replicas[0].surface;
    const ClusterReport greedy = simulateCluster(c);
    c.continuousBatching = true;
    const ClusterReport cont = simulateCluster(c);
    EXPECT_EQ(greedy.serving.iterationsDispatched, 0);
    EXPECT_GT(cont.serving.iterationsDispatched, 0);
    for (const ReplicaStats& rs : cont.replicas)
        EXPECT_GT(rs.completedRequests, 0);
    EXPECT_GT(cont.serving.hedgesIssued, 0);
    EXPECT_LE(cont.serving.maxBatchDispatched, c.maxBatch);
    expectConservation(cont.serving);
}

TEST(Cluster, LeastLoadedAvoidsSlowReplica)
{
    // Replica 1 is 4x slower; least-loaded routing should send it
    // less work than round-robin does.
    ClusterConfig c = twoReplicaCluster(1.0);
    c.replicas[1].latency.baseSeconds = 4.0;
    c.router = RouterPolicy::RoundRobin;
    const ClusterReport rr = simulateCluster(c);
    c.router = RouterPolicy::LeastLoaded;
    const ClusterReport ll = simulateCluster(c);
    EXPECT_LT(ll.replicas[1].completedRequests,
              rr.replicas[1].completedRequests);
    EXPECT_GE(ll.serving.goodput, rr.serving.goodput);
}

TEST(Cluster, FailureDomainAwareRoutesAroundDeadDomain)
{
    // Replicas 0 and 1 share domain 0; replica 2 is alone in domain
    // 1. Kill replica 0 mid-run: the domain-aware router should move
    // strictly more work to the clean domain than least-loaded does.
    auto build = [](RouterPolicy policy) {
        ClusterConfig c;
        c.arrivalRate = 1.2;
        c.horizonSeconds = 400.0;
        c.replicas = {ReplicaSpec{unitModel(), 1, 0},
                      ReplicaSpec{unitModel(), 1, 0},
                      ReplicaSpec{unitModel(), 1, 1}};
        c.router = policy;
        c.chaos.events.push_back(
            {100.0, ChaosEventKind::KillReplica, 0, 200.0, 1.0});
        c.resilience.retry.maxRetries = 2;
        return c;
    };
    const ClusterReport ll =
        simulateCluster(build(RouterPolicy::LeastLoaded));
    const ClusterReport fda =
        simulateCluster(build(RouterPolicy::FailureDomainAware));
    EXPECT_GE(fda.replicas[2].completedRequests,
              ll.replicas[2].completedRequests);
    expectConservation(fda.serving);
}

TEST(Cluster, BreakerOpensOnFailuresAndRecovers)
{
    ClusterConfig c = twoReplicaCluster(1.0);
    c.horizonSeconds = 600.0;
    c.chaos.events.push_back(
        {100.0, ChaosEventKind::KillReplica, 1, 100.0, 1.0});
    c.breaker.failureThreshold = 1;
    c.breaker.openSeconds = 30.0;
    c.resilience.retry.maxRetries = 3;
    c.probe.intervalSeconds = 5.0;
    const ClusterReport r = simulateCluster(c);
    // The kill aborts in-flight work -> breaker opens; after the
    // outage the half-open trial succeeds -> breaker closes again.
    EXPECT_GE(r.serving.breakerOpens, 1);
    EXPECT_GE(r.serving.breakerCloses, 1);
    EXPECT_GE(r.replicas[1].breakerOpens, 1);
    EXPECT_GT(r.replicas[1].abortedBatches, 0);
    EXPECT_LT(r.replicas[1].availability, 1.0);
    EXPECT_EQ(r.replicas[0].availability, 1.0);
    expectConservation(r.serving);
}

TEST(Cluster, BreakerImprovesGoodputUnderReplicaKill)
{
    ClusterConfig c = twoReplicaCluster(1.5);
    c.horizonSeconds = 600.0;
    c.chaos.events.push_back(
        {100.0, ChaosEventKind::KillReplica, 1, 200.0, 1.0});
    c.resilience.retry.maxRetries = 3;
    const ClusterReport bare = simulateCluster(c);
    c.breaker.failureThreshold = 1;
    c.probe.intervalSeconds = 2.0;
    const ClusterReport guarded = simulateCluster(c);
    EXPECT_GE(guarded.serving.goodput, bare.serving.goodput);
}

TEST(Cluster, HedgingRescuesStragglerTail)
{
    // Replica 0's only GPU straggles 6x for the whole run, and load
    // is light enough that queueing is negligible — the tail is pure
    // service time. Hedges fire shortly after dispatch, re-issue the
    // stuck request on replica 1, and win.
    ClusterConfig c;
    c.arrivalRate = 0.2;
    c.maxBatch = 1;
    c.horizonSeconds = 1000.0;
    c.replicas = {ReplicaSpec{unitModel(), 1, 0},
                  ReplicaSpec{unitModel(), 1, 1}};
    c.chaos.events.push_back(
        {0.0, ChaosEventKind::StraggleGpu, 0, 0.0, 6.0});
    const ClusterReport bare = simulateCluster(c);
    c.hedge.delaySeconds =
        1.2 * hedgeDelayForQuantile(unitModel(), c.maxBatch, 1.0);
    const ClusterReport hedged = simulateCluster(c);
    EXPECT_GT(hedged.serving.hedgesIssued, 0);
    EXPECT_GT(hedged.serving.hedgesWon, 0);
    EXPECT_GT(hedged.serving.hedgeWastedSeconds, 0.0);
    EXPECT_LE(hedged.serving.hedgesWon,
              hedged.serving.hedgesIssued);
    EXPECT_LT(hedged.serving.p95Latency, bare.serving.p95Latency);
    // No double counting: each logical request completes once.
    EXPECT_LE(hedged.serving.completed, hedged.serving.arrived);
    expectConservation(hedged.serving);
}

TEST(Cluster, BacklogCountsHedgedRequestsOnce)
{
    // Service far outlasts the horizon and every copy finds an idle
    // GPU, so each request's primary and (one second later) its hedge
    // are both running when the run is cut off. The backlog counts
    // requests, not copies.
    ClusterConfig c;
    c.arrivalRate = 0.5;
    c.maxBatch = 1;
    c.horizonSeconds = 20.0;
    LatencyModel slow = unitModel();
    slow.baseSeconds = 1000.0;
    c.replicas = {ReplicaSpec{slow, 16, 0}, ReplicaSpec{slow, 16, 1}};
    c.hedge.delaySeconds = 1.0;
    const ClusterReport r = simulateCluster(c);
    ASSERT_GT(r.serving.hedgesIssued, 0);
    EXPECT_EQ(r.serving.completed, 0);
    EXPECT_EQ(r.serving.backlog, r.serving.arrived);
    expectConservation(r.serving);
}

TEST(Cluster, HedgeDelayQuantileIsMonotone)
{
    const LatencyModel m = unitModel();
    const double lo = hedgeDelayForQuantile(m, 8, 0.5);
    const double hi = hedgeDelayForQuantile(m, 8, 1.0);
    EXPECT_LE(lo, hi);
    EXPECT_DOUBLE_EQ(hi, m.batchSeconds(8));
    EXPECT_THROW(hedgeDelayForQuantile(m, 8, 0.0), FatalError);
    EXPECT_THROW(hedgeDelayForQuantile(m, 8, 1.5), FatalError);
}

TEST(Cluster, HedgeDelayOfLinearModelMatchesItsSurface)
{
    // The linear form prices through the model's exact surface, the
    // one its replicas run on, so both forms agree bit for bit.
    LatencyModel m;
    m.baseSeconds = 3.1627;
    m.overheadFraction = 0.137;
    const BatchLatencySurface surface =
        BatchLatencySurface::fromLatencyModel(m, 7);
    for (const double q : {0.25, 0.5, 0.95, 1.0}) {
        EXPECT_EQ(hedgeDelayForQuantile(m, 7, q),
                  hedgeDelayForQuantile(surface, 7, q))
            << q;
        EXPECT_EQ(hedgeDelayForQuantile(surface, 7, q),
                  m.batchSeconds(static_cast<int>(std::ceil(q * 7))))
            << q;
    }
}

TEST(Cluster, CheckpointAddsOverheadWhenFaultFree)
{
    ClusterConfig c = twoReplicaCluster(0.8);
    c.checkpoint.iterations = 50;
    c.checkpoint.intervalIterations = 10;
    c.checkpoint.costSeconds = 0.01;
    const ClusterReport r = simulateCluster(c);
    EXPECT_GT(r.serving.checkpointsTaken, 0);
    EXPECT_GT(r.serving.checkpointOverheadSeconds, 0.0);
    // Nothing faulted, so nothing was wasted or restored.
    EXPECT_EQ(r.serving.wastedGpuSeconds, 0.0);
    EXPECT_EQ(r.serving.restoredGpuSeconds, 0.0);
    EXPECT_EQ(r.serving.resumes, 0);
    expectConservation(r.serving);
}

TEST(Cluster, CheckpointReducesWastedWorkUnderKills)
{
    // Long requests (100 s service) on a flaky fleet: without
    // checkpoints every fault re-runs the request from scratch; with
    // them only the tail past the last checkpoint is lost.
    ClusterConfig c;
    c.arrivalRate = 0.02;
    c.maxBatch = 1;
    c.horizonSeconds = 2000.0;
    LatencyModel longModel;
    longModel.baseSeconds = 100.0;
    longModel.overheadFraction = 0.0;
    c.replicas = {ReplicaSpec{longModel, 1, 0},
                  ReplicaSpec{longModel, 1, 1}};
    c.resilience.faults.failureMtbfSeconds = 300.0;
    c.resilience.faults.failureMttrSeconds = 60.0;
    c.resilience.retry.maxRetries = 8;
    const ClusterReport bare = simulateCluster(c);
    c.checkpoint.iterations = 50;
    c.checkpoint.intervalIterations = 5;
    c.checkpoint.costSeconds = 0.05;
    const ClusterReport ckpt = simulateCluster(c);
    ASSERT_GT(bare.serving.wastedGpuSeconds, 0.0);
    EXPECT_GT(ckpt.serving.resumes, 0);
    EXPECT_GT(ckpt.serving.restoredGpuSeconds, 0.0);
    EXPECT_LT(ckpt.serving.wastedGpuSeconds,
              bare.serving.wastedGpuSeconds);
    expectConservation(ckpt.serving);
}

TEST(Cluster, CheckpointFromPipelineUsesDominantStage)
{
    const CheckpointPolicy p = checkpointFromPipeline(
        models::buildStableDiffusion(), 5, 0.02);
    EXPECT_GT(p.iterations, 1);
    EXPECT_EQ(p.intervalIterations, 5);
    EXPECT_TRUE(p.enabled());
    EXPECT_THROW(checkpointFromPipeline(
                     models::buildStableDiffusion(), 0, 0.02),
                 FatalError);
}

TEST(Cluster, NamedChaosScenariosCompile)
{
    for (const char* name :
         {"none", "kill-replica", "kill-replica-at-zero",
          "rolling-kill", "degrade-domain", "straggle-gpu"}) {
        const ChaosScenario s = namedChaosScenario(name, 2, 600.0);
        ClusterConfig c = twoReplicaCluster(0.8);
        c.horizonSeconds = 600.0;
        c.chaos = s;
        c.resilience.retry.maxRetries = 3;
        const ClusterReport r = simulateCluster(c);
        EXPECT_GT(r.serving.completed, 0) << name;
        expectConservation(r.serving);
    }
    EXPECT_THROW(namedChaosScenario("no-such-scenario", 2, 600.0),
                 FatalError);
}

TEST(Cluster, KillAtTimeZeroStartsMidOutage)
{
    ClusterConfig c = twoReplicaCluster(1.0);
    c.horizonSeconds = 600.0;
    c.chaos = namedChaosScenario("kill-replica-at-zero", 2, 600.0);
    c.resilience.retry.maxRetries = 2;
    const ClusterReport r = simulateCluster(c);
    // The target replica is dark from t=0; all early work lands on
    // the survivor, and the fleet still makes progress.
    EXPECT_LT(r.replicas[1].availability, 1.0);
    EXPECT_GT(r.serving.completed, 0);
    EXPECT_LT(r.serving.meanAvailability, 1.0);
    expectConservation(r.serving);
}

TEST(Cluster, DegradeDomainSlowsOnlyThatDomain)
{
    ClusterConfig c = twoReplicaCluster(1.0);
    const ClusterReport clean = simulateCluster(c);
    c.chaos.events.push_back(
        {0.0, ChaosEventKind::DegradeDomain, 0, 0.0, 3.0});
    const ClusterReport degraded = simulateCluster(c);
    // Same arrivals (chaos never touches the arrival stream), worse
    // latency.
    EXPECT_EQ(clean.serving.arrived, degraded.serving.arrived);
    EXPECT_GT(degraded.serving.p95Latency,
              clean.serving.p95Latency);
    // Slowdowns are not downtime: availability is unchanged.
    EXPECT_EQ(degraded.serving.meanAvailability, 1.0);
}

TEST(Cluster, ReportIsDeterministicAcrossRuns)
{
    ClusterConfig c = twoReplicaCluster(1.3);
    c.horizonSeconds = 500.0;
    c.chaos = namedChaosScenario("rolling-kill", 2, 500.0);
    c.breaker.failureThreshold = 2;
    c.hedge.delaySeconds = 6.0;
    c.checkpoint.iterations = 40;
    c.checkpoint.intervalIterations = 8;
    c.checkpoint.costSeconds = 0.02;
    c.resilience.retry.maxRetries = 4;
    c.resilience.deadline.deadlineSeconds = 90.0;
    const ClusterReport a = simulateCluster(c);
    const ClusterReport b = simulateCluster(c);
    EXPECT_EQ(a.serving.arrived, b.serving.arrived);
    EXPECT_EQ(a.serving.completed, b.serving.completed);
    EXPECT_EQ(a.serving.goodput, b.serving.goodput);
    EXPECT_EQ(a.serving.p95Latency, b.serving.p95Latency);
    EXPECT_EQ(a.serving.hedgesIssued, b.serving.hedgesIssued);
    EXPECT_EQ(a.serving.hedgesWon, b.serving.hedgesWon);
    EXPECT_EQ(a.serving.breakerOpens, b.serving.breakerOpens);
    EXPECT_EQ(a.serving.checkpointsTaken, b.serving.checkpointsTaken);
    EXPECT_EQ(a.serving.wastedGpuSeconds, b.serving.wastedGpuSeconds);
    EXPECT_EQ(a.serving.restoredGpuSeconds,
              b.serving.restoredGpuSeconds);
    EXPECT_EQ(a.serving.hedgeWastedSeconds,
              b.serving.hedgeWastedSeconds);
    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    for (std::size_t i = 0; i < a.replicas.size(); ++i) {
        EXPECT_EQ(a.replicas[i].dispatchedBatches,
                  b.replicas[i].dispatchedBatches);
        EXPECT_EQ(a.replicas[i].busySeconds,
                  b.replicas[i].busySeconds);
    }
    ASSERT_EQ(a.domainAvailability.size(),
              b.domainAvailability.size());
    for (std::size_t d = 0; d < a.domainAvailability.size(); ++d)
        EXPECT_EQ(a.domainAvailability[d], b.domainAvailability[d]);
}

TEST(Cluster, HeterogeneousReplicasReportPerReplicaStats)
{
    ClusterConfig c;
    c.arrivalRate = 1.0;
    c.horizonSeconds = 300.0;
    LatencyModel fast = unitModel();
    LatencyModel slow = unitModel();
    slow.baseSeconds = 2.0;
    c.replicas = {ReplicaSpec{fast, 2, 0}, ReplicaSpec{slow, 1, 1}};
    c.router = RouterPolicy::LeastLoaded;
    const ClusterReport r = simulateCluster(c);
    ASSERT_EQ(r.replicas.size(), 2u);
    EXPECT_GT(r.replicas[0].busySeconds, 0.0);
    EXPECT_EQ(r.serving.arrived,
              r.serving.completed + r.serving.backlog);
    ASSERT_EQ(r.domainAvailability.size(), 2u);
    EXPECT_EQ(r.domainAvailability[0], 1.0);
}

} // namespace
} // namespace mmgen::serving
