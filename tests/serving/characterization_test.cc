/**
 * @file
 * Characterization goldens for the serving engine: one digest of every
 * `ServingReport` field (plus every `ReplicaStats` field and the
 * per-domain availabilities for cluster runs) per configuration, over
 * single pools and clusters that together reach every pricing mode,
 * batching mode, mix, policy, router, and chaos scenario. The digests
 * pin the engine's exact floating-point behaviour: a refactor that
 * keeps every report bit-identical keeps every digest.
 *
 * Re-recording a digest is only legitimate for a deliberate behaviour
 * change; a failure prints the digest the run produced.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "report_digest.hh"
#include "serving/cluster.hh"
#include "serving/latency_surface.hh"
#include "serving/simulator.hh"
#include "telemetry/telemetry.hh"
#include "workload/workload.hh"

namespace mmgen::serving {
namespace {

/** One golden: a run and the digest it must reproduce. */
struct Golden
{
    std::string name;
    const char* digest;
    std::function<std::string()> run;
};

void
expectGoldens(const std::vector<Golden>& goldens)
{
    for (const Golden& g : goldens)
        EXPECT_EQ(g.run(), g.digest) << g.name;
}

LatencyModel
testModel()
{
    LatencyModel m;
    m.baseSeconds = 1.0;
    m.overheadFraction = 0.15;
    return m;
}

LatencyModel
unitModel()
{
    LatencyModel m;
    m.baseSeconds = 1.0;
    m.overheadFraction = 0.0;
    return m;
}

/** A hand-written 4x4 batch x size grid, 20 iterations per request. */
BatchLatencySurface
grid4x4()
{
    BatchLatencySurface s;
    s.batchGrid = {1, 2, 4, 8};
    s.sizeGrid = {0.5, 1.0, 2.0, 4.0};
    s.seconds = {0.6, 1.0, 1.9, 3.7,  //
                 1.0, 1.7, 3.3, 6.4,  //
                 1.7, 3.0, 5.9, 11.6, //
                 3.1, 5.6, 11.0, 21.8};
    s.iterations = 20;
    return s;
}

/** Two equal-weight unit-size Poisson classes, priorities 0 and 1. */
workload::WorkloadConfig
splitPriorityMix()
{
    workload::ClientClass fg;
    fg.name = "fg";
    fg.weight = 0.5;
    workload::ClientClass bg;
    bg.name = "bg";
    bg.weight = 0.5;
    bg.priority = 1;
    workload::WorkloadConfig mix;
    mix.classes = {fg, bg};
    return mix;
}

enum class Mix
{
    Legacy,
    Production,
    Split,
    Interactive,
};

ServingConfig
pool(Mix mix, bool continuous)
{
    ServingConfig cfg;
    cfg.arrivalRate = 2.0;
    cfg.numGpus = 2;
    cfg.maxBatch = 8;
    cfg.horizonSeconds = 300.0;
    cfg.seed = 7;
    cfg.continuousBatching = continuous;
    switch (mix) {
    case Mix::Legacy:
        break;
    case Mix::Production:
        cfg.workload = workload::namedWorkloadMix("production");
        break;
    case Mix::Split:
        cfg.numGpus = 1;
        cfg.workload = splitPriorityMix();
        break;
    case Mix::Interactive:
        cfg.workload = workload::namedWorkloadMix("interactive");
        break;
    }
    return cfg;
}

ResilienceConfig
faultsWithRetries()
{
    ResilienceConfig res;
    res.faults.failureMtbfSeconds = 150.0;
    res.faults.failureMttrSeconds = 40.0;
    res.faults.preemptionMtbfSeconds = 120.0;
    res.faults.preemptionMeanSeconds = 8.0;
    res.faults.stragglerFraction = 0.3;
    res.faults.stragglerSlowdown = 2.0;
    res.retry.maxRetries = 3;
    res.retry.backoffBaseSeconds = 0.5;
    return res;
}

/** Correlated rack outages over racks of two GPUs, with retries. */
ResilienceConfig
rackFaults()
{
    ResilienceConfig res;
    res.faults.domainSize = 2;
    res.faults.domainMtbfSeconds = 150.0;
    res.faults.domainMttrSeconds = 30.0;
    res.retry.maxRetries = 3;
    return res;
}

ResilienceConfig
deadlineAndTimeout()
{
    ResilienceConfig res;
    res.faults.stragglerFraction = 0.5;
    res.faults.stragglerSlowdown = 4.0;
    res.deadline.deadlineSeconds = 12.0;
    res.deadline.batchTimeoutSeconds = 6.0;
    res.retry.maxRetries = 2;
    res.retry.backoffBaseSeconds = 0.05;
    return res;
}

ResilienceConfig
admissionAndDegradation()
{
    ResilienceConfig res;
    res.deadline.deadlineSeconds = 20.0;
    res.admission.maxQueueLength = 24;
    res.degradation.queueThreshold = 6;
    res.degradation.serviceScale = 0.5;
    return res;
}

ResilienceConfig
memoryBound(std::int64_t batch)
{
    ResilienceConfig res;
    res.admission.maxQueueLength = 64;
    res.admission.memoryFeasibleBatch = batch;
    return res;
}

/** Run a single pool priced by a linear model. */
std::function<std::string()>
modelRun(ServingConfig cfg, ResilienceConfig res = ResilienceConfig())
{
    return [=] { return digest(simulateServing(cfg, testModel(), res)); };
}

/** Run a single pool priced by a surface. */
std::function<std::string()>
surfaceRun(ServingConfig cfg, BatchLatencySurface surface,
           ResilienceConfig res = ResilienceConfig())
{
    return [=] { return digest(simulateServing(cfg, surface, res)); };
}

BatchLatencySurface
surface50(const ServingConfig& cfg)
{
    return BatchLatencySurface::fromLatencyModel(testModel(),
                                                 cfg.maxBatch, 50);
}

/** Run a single pool with metrics, trace, and sampling all on. */
template <typename Pricing>
std::string
runWithTelemetry(const ServingConfig& cfg, const Pricing& pricing,
                 const ResilienceConfig& res)
{
    telemetry::MetricsRegistry registry;
    telemetry::TraceSink sink;
    telemetry::Telemetry tel;
    tel.metrics = &registry;
    tel.trace = &sink;
    tel.sampleIntervalSeconds = 5.0;
    return digest(simulateServing(cfg, pricing, res, &tel));
}

TEST(Characterization, SinglePoolDigests)
{
    using M = Mix;
    const ServingConfig legacy = pool(M::Legacy, false);
    const ServingConfig production = pool(M::Production, false);
    const ServingConfig split = pool(M::Split, false);
    const ServingConfig legacyC = pool(M::Legacy, true);
    const ServingConfig productionC = pool(M::Production, true);
    const ServingConfig splitC = pool(M::Split, true);
    const ServingConfig interactiveC = pool(M::Interactive, true);
    ServingConfig overload = pool(M::Legacy, false);
    overload.arrivalRate = 6.0;
    overload.maxBatch = 4;
    ServingConfig overloadC = overload;
    overloadC.continuousBatching = true;
    ServingConfig racks = pool(M::Legacy, false);
    racks.numGpus = 4;
    racks.arrivalRate = 4.0;
    ServingConfig productionHot = pool(M::Production, false);
    productionHot.arrivalRate = 5.0;
    productionHot.maxBatch = 4;
    ServingConfig productionHotC = productionHot;
    productionHotC.continuousBatching = true;

    const std::vector<Golden> goldens = {
        {"model/greedy/legacy", "42745f0a8048c73c", modelRun(legacy)},
        {"model/greedy/production", "fd68e3eb2bb4e7b9", modelRun(production)},
        {"model/greedy/split", "14f5a2dc008a20cb", modelRun(split)},
        {"model/continuous/legacy", "6470684b30cc0c78", modelRun(legacyC)},
        {"model/continuous/production", "d306b6d2a3e385fa",
         modelRun(productionC)},
        {"model/continuous/split", "c78baf63e78bc781", modelRun(splitC)},
        {"surface50/greedy/legacy", "42745f0a8048c73c",
         surfaceRun(legacy, surface50(legacy))},
        {"surface50/greedy/production", "fd68e3eb2bb4e7b9",
         surfaceRun(production, surface50(production))},
        {"surface50/continuous/legacy", "8320655462191de0",
         surfaceRun(legacyC, surface50(legacyC))},
        {"surface50/continuous/production", "441e02a0bd533712",
         surfaceRun(productionC, surface50(productionC))},
        {"surface50/continuous/split", "0bc3cc5dd92aa4e0",
         surfaceRun(splitC, surface50(splitC))},
        {"grid4x4/greedy/production", "d6aae1937047e9f4",
         surfaceRun(production, grid4x4())},
        {"grid4x4/continuous/production", "0eea32b7fc55a69e",
         surfaceRun(productionC, grid4x4())},
        {"grid4x4/continuous/interactive", "12b8c2e4c5c51a36",
         surfaceRun(interactiveC, grid4x4())},
        {"model/greedy/faults-retries", "e252b7e40d9ae315",
         modelRun(legacy, faultsWithRetries())},
        {"model/continuous/faults-retries", "f4d84ab5031ded54",
         modelRun(legacyC, faultsWithRetries())},
        {"surface50/continuous/production/faults-retries", "6077a53335770dad",
         surfaceRun(productionC, surface50(productionC),
                    faultsWithRetries())},
        {"model/greedy/rack-faults", "feb289000bfd92d5",
         modelRun(racks, rackFaults())},
        {"model/greedy/deadline-timeout", "ed94a99237af180e",
         modelRun(legacy, deadlineAndTimeout())},
        {"model/continuous/deadline-timeout", "cbf40c3bdb71b930",
         modelRun(legacyC, deadlineAndTimeout())},
        {"grid4x4/continuous/production/deadline-timeout", "008a6c20d8e0da62",
         surfaceRun(productionC, grid4x4(), deadlineAndTimeout())},
        {"model/greedy/admission-degradation", "6d52b03f88d84b86",
         modelRun(overload, admissionAndDegradation())},
        {"surface50/continuous/admission-degradation", "2e92b861769d8de9",
         surfaceRun(overloadC, surface50(overloadC),
                    admissionAndDegradation())},
        {"grid4x4/continuous/production/admission-degradation",
         "8cf63b932d236b0f",
         surfaceRun(productionHotC, grid4x4(),
                    admissionAndDegradation())},
        {"model/greedy/memory0", "64985b058efcc3ba",
         modelRun(legacy, memoryBound(0))},
        {"surface50/continuous/memory0", "64985b058efcc3ba",
         surfaceRun(legacyC, surface50(legacyC), memoryBound(0))},
        {"model/greedy/memory2", "298c09db28ab6ac8",
         modelRun(overload, memoryBound(2))},
        {"grid4x4/greedy/production/memory2", "bd826be3b7db22f2",
         surfaceRun(productionHot, grid4x4(), memoryBound(2))},
        {"grid4x4/continuous/production/memory2", "f9f26c8817abb937",
         surfaceRun(productionHotC, grid4x4(), memoryBound(2))},
        {"model/greedy/faults/telemetry", "e252b7e40d9ae315",
         [=] {
             return runWithTelemetry(legacy, testModel(),
                                     faultsWithRetries());
         }},
        {"grid4x4/continuous/production/telemetry", "97433d646269ea97",
         [=] {
             return runWithTelemetry(productionC, grid4x4(),
                                     admissionAndDegradation());
         }},
    };
    expectGoldens(goldens);
}

ClusterConfig
twoReplicas(double rate)
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

std::function<std::string()>
clusterRun(ClusterConfig cfg)
{
    return [=] { return digest(simulateCluster(cfg)); };
}

TEST(Characterization, ClusterDigests)
{
    std::vector<Golden> goldens;
    auto add = [&](const char* name, const char* digest,
                   const ClusterConfig& cfg) {
        goldens.push_back({name, digest, clusterRun(cfg)});
    };

    {
        ServingConfig cfg;
        cfg.arrivalRate = 1.4;
        cfg.numGpus = 2;
        cfg.maxBatch = 4;
        cfg.horizonSeconds = 400.0;
        cfg.seed = 11;
        add("single-pool", "22f520a56558bc3c",
            singlePoolCluster(cfg, unitModel()));
        ClusterConfig c = singlePoolCluster(cfg, unitModel());
        c.resilience = faultsWithRetries();
        c.resilience.deadline.deadlineSeconds = 60.0;
        c.resilience.admission.maxQueueLength = 32;
        c.resilience.degradation.queueThreshold = 12;
        c.resilience.degradation.serviceScale = 0.5;
        add("single-pool/resilience", "dfd0b62aef343446", c);
    }
    add("round-robin", "279511a3d25ead4e", twoReplicas(1.5));
    {
        ClusterConfig c = twoReplicas(1.0);
        c.replicas[1].latency.baseSeconds = 4.0;
        c.router = RouterPolicy::LeastLoaded;
        add("least-loaded/slow-replica", "eac278a9bbde5962", c);
    }
    {
        ClusterConfig c;
        c.arrivalRate = 1.2;
        c.horizonSeconds = 400.0;
        c.replicas = {ReplicaSpec{unitModel(), 1, 0},
                      ReplicaSpec{unitModel(), 1, 0},
                      ReplicaSpec{unitModel(), 1, 1}};
        c.router = RouterPolicy::FailureDomainAware;
        c.chaos.events.push_back(
            {100.0, ChaosEventKind::KillReplica, 0, 200.0, 1.0});
        c.resilience.retry.maxRetries = 2;
        add("domain-aware/kill", "9f5ddebe5484e6c4", c);
    }
    {
        ClusterConfig c = twoReplicas(1.0);
        c.horizonSeconds = 600.0;
        c.chaos.events.push_back(
            {100.0, ChaosEventKind::KillReplica, 1, 100.0, 1.0});
        c.breaker.failureThreshold = 1;
        c.breaker.openSeconds = 30.0;
        c.resilience.retry.maxRetries = 3;
        c.probe.intervalSeconds = 5.0;
        add("breaker/kill", "60b6961e3137dc8e", c);
    }
    {
        ClusterConfig c;
        c.arrivalRate = 0.2;
        c.maxBatch = 1;
        c.horizonSeconds = 1000.0;
        c.replicas = {ReplicaSpec{unitModel(), 1, 0},
                      ReplicaSpec{unitModel(), 1, 1}};
        c.chaos.events.push_back(
            {0.0, ChaosEventKind::StraggleGpu, 0, 0.0, 6.0});
        c.hedge.delaySeconds =
            1.2 * hedgeDelayForQuantile(unitModel(), c.maxBatch, 1.0);
        add("hedge/straggler", "eebe2dbce1fd3efb", c);
    }
    {
        ClusterConfig c = twoReplicas(0.8);
        c.checkpoint.iterations = 50;
        c.checkpoint.intervalIterations = 10;
        c.checkpoint.costSeconds = 0.01;
        add("checkpoint/fault-free", "13ae6ec03d2284aa", c);
    }
    {
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
        add("no-checkpoint/kills", "fd0b2ad43e047cc9", c);
        c.checkpoint.iterations = 50;
        c.checkpoint.intervalIterations = 5;
        c.checkpoint.costSeconds = 0.05;
        add("checkpoint/kills", "de8f647859f10b19", c);
    }
    const std::vector<std::pair<const char*, const char*>> chaos = {
        {"none", "e5bb12104d1a357c"},
        {"kill-replica", "8286425bef6b338c"},
        {"kill-replica-at-zero", "4397c824b60f43a7"},
        {"rolling-kill", "5e342eadf04352b4"},
        {"degrade-domain", "4a9bea44ec937777"},
        {"straggle-gpu", "3a1699641edfc235"},
    };
    for (const auto& [scenario, dig] : chaos) {
        ClusterConfig c = twoReplicas(0.8);
        c.horizonSeconds = 600.0;
        c.chaos = namedChaosScenario(scenario, 2, 600.0);
        c.resilience.retry.maxRetries = 3;
        goldens.push_back(
            {std::string("chaos/") + scenario, dig, clusterRun(c)});
    }
    {
        ClusterConfig c = twoReplicas(1.3);
        c.horizonSeconds = 500.0;
        c.chaos = namedChaosScenario("rolling-kill", 2, 500.0);
        c.breaker.failureThreshold = 2;
        c.hedge.delaySeconds = 6.0;
        c.checkpoint.iterations = 40;
        c.checkpoint.intervalIterations = 8;
        c.checkpoint.costSeconds = 0.02;
        c.resilience.retry.maxRetries = 4;
        c.resilience.deadline.deadlineSeconds = 90.0;
        add("every-policy/rolling-kill", "aeb43586cef199dd", c);
    }
    {
        ClusterConfig c;
        c.arrivalRate = 1.0;
        c.horizonSeconds = 300.0;
        LatencyModel slow = unitModel();
        slow.baseSeconds = 2.0;
        c.replicas = {ReplicaSpec{unitModel(), 2, 0},
                      ReplicaSpec{slow, 1, 1}};
        c.router = RouterPolicy::LeastLoaded;
        add("heterogeneous", "1d2750297f1188c8", c);
    }
    {
        ClusterConfig c;
        c.arrivalRate = 1.6;
        c.maxBatch = 4;
        c.horizonSeconds = 240.0;
        c.seed = 17;
        c.replicas = {ReplicaSpec{unitModel(), 2, 0},
                      ReplicaSpec{unitModel(), 2, 1}};
        c.router = RouterPolicy::LeastLoaded;
        c.chaos = namedChaosScenario("rolling-kill", 2,
                                     c.horizonSeconds);
        c.breaker.failureThreshold = 1;
        c.breaker.openSeconds = 10.0;
        c.probe.intervalSeconds = 5.0;
        c.hedge.delaySeconds = 2.0;
        c.resilience.retry.maxRetries = 3;
        c.resilience.faults.failureMtbfSeconds = 200.0;
        c.resilience.faults.failureMttrSeconds = 40.0;
        add("hostile/least-loaded", "626b47d02309bb77", c);
        goldens.push_back({"hostile/least-loaded/telemetry",
                           "626b47d02309bb77", [c] {
                               telemetry::MetricsRegistry registry;
                               telemetry::TraceSink sink;
                               telemetry::Telemetry tel;
                               tel.metrics = &registry;
                               tel.trace = &sink;
                               tel.sampleIntervalSeconds = 2.0;
                               return digest(simulateCluster(c, &tel));
                           }});
    }
    {
        ClusterConfig c;
        c.arrivalRate = 0.5;
        c.horizonSeconds = 200.0;
        c.replicas = {ReplicaSpec{unitModel(), 1, 0}};
        c.resilience.admission.memoryFeasibleBatch = 0;
        add("memory0", "042a580be7286572", c);
        c = ClusterConfig();
        c.arrivalRate = 3.0;
        c.maxBatch = 4;
        c.horizonSeconds = 300.0;
        c.replicas = {ReplicaSpec{unitModel(), 1, 0}};
        c.resilience.admission.memoryFeasibleBatch = 2;
        add("memory2", "a55b5fc738404682", c);
    }
    {
        ClusterConfig c = twoReplicas(3.0);
        c.workload = splitPriorityMix();
        c.router = RouterPolicy::LeastLoaded;
        add("split-priority", "66363a6830292cdb", c);
        c = twoReplicas(1.5);
        c.workload = workload::namedWorkloadMix("poisson");
        add("poisson-mix", "279511a3d25ead4e", c);
    }
    {
        ClusterConfig c = twoReplicas(5.0);
        c.resilience = deadlineAndTimeout();
        c.resilience.admission.maxQueueLength = 24;
        c.resilience.degradation.queueThreshold = 6;
        c.resilience.degradation.serviceScale = 0.5;
        add("deadline-timeout-admission-degradation", "cee503de1a1b440a", c);
    }
    {
        ClusterConfig c;
        c.arrivalRate = 2.0;
        c.horizonSeconds = 600.0;
        c.replicas = {ReplicaSpec{unitModel(), 2, 0},
                      ReplicaSpec{unitModel(), 2, 0},
                      ReplicaSpec{unitModel(), 2, 1}};
        c.router = RouterPolicy::FailureDomainAware;
        c.resilience.faults.domainMtbfSeconds = 150.0;
        c.resilience.faults.domainMttrSeconds = 30.0;
        c.resilience.retry.maxRetries = 3;
        c.breaker.failureThreshold = 2;
        c.hedge.delaySeconds = 3.0;
        add("domain-faults/breaker/hedge", "78af45f1ec613ad5", c);
    }
    expectGoldens(goldens);
}

} // namespace
} // namespace mmgen::serving
