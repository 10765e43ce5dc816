/**
 * @file
 * Tests for continuous batching and the surface-priced simulator
 * path: bit-identity of the `fromLatencyModel` bridge with the legacy
 * linear-model overload, legacy-vs-degenerate-mix identity, goodput
 * dominance over greedy dispatch, priority-class scheduling, and
 * byte-identical reports at any `--jobs` setting.
 */

#include <gtest/gtest.h>

#include <vector>

#include "runtime/parallel.hh"
#include "serving/latency_surface.hh"
#include "serving/simulator.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

namespace mmgen::serving {
namespace {

LatencyModel
testModel()
{
    LatencyModel m;
    m.baseSeconds = 1.0;
    m.overheadFraction = 0.15;
    return m;
}

/** Two equal-weight Poisson classes; `split` gives them distinct
    dispatch priorities, otherwise they are uniform. */
workload::WorkloadConfig
twoTierMix(bool split)
{
    workload::ClientClass fg;
    fg.name = "fg";
    fg.weight = 0.5;
    workload::ClientClass bg;
    bg.name = "bg";
    bg.weight = 0.5;
    bg.priority = split ? 1 : 0;
    workload::WorkloadConfig mix;
    mix.classes = {fg, bg};
    return mix;
}

TEST(SurfaceBridge, GreedySurfaceMatchesModelBitForBit)
{
    // fromLatencyModel stores the model's exact doubles, and the two
    // overloads share one event loop: the reports must be identical
    // down to the last bit, not merely close.
    ServingConfig cfg;
    cfg.arrivalRate = 1.5;
    cfg.numGpus = 2;
    cfg.maxBatch = 4;
    cfg.horizonSeconds = 400.0;
    const LatencyModel model = testModel();
    const BatchLatencySurface surface =
        BatchLatencySurface::fromLatencyModel(model, cfg.maxBatch);
    EXPECT_TRUE(simulateServing(cfg, model) ==
                simulateServing(cfg, surface));
}

TEST(SurfaceBridge, GreedySurfaceMatchesModelUnderPolicies)
{
    // Same identity with deadlines, admission shedding, and
    // degradation active: policy machinery prices through the same
    // pricer calls on both paths.
    ServingConfig cfg;
    cfg.arrivalRate = 3.0;
    cfg.numGpus = 1;
    cfg.maxBatch = 4;
    cfg.horizonSeconds = 300.0;
    ResilienceConfig rc;
    rc.deadline.deadlineSeconds = 8.0;
    rc.admission.maxQueueLength = 32;
    rc.degradation.queueThreshold = 8;
    rc.degradation.serviceScale = 0.5;
    const LatencyModel model = testModel();
    const BatchLatencySurface surface =
        BatchLatencySurface::fromLatencyModel(model, cfg.maxBatch);
    const ServingReport a = simulateServing(cfg, model, rc);
    const ServingReport b = simulateServing(cfg, surface, rc);
    EXPECT_TRUE(a == b);
    EXPECT_GT(a.shed, 0); // the run actually exercised the policies
    EXPECT_GT(a.degraded, 0);
}

TEST(SurfaceBridge, DegenerateMixMatchesLegacyBitForBit)
{
    // A mix that collapses to plain Poisson must reproduce the
    // pre-workload arrival trace byte-for-byte.
    ServingConfig legacy;
    legacy.arrivalRate = 2.0;
    legacy.numGpus = 2;
    legacy.maxBatch = 4;
    legacy.horizonSeconds = 400.0;
    ServingConfig mixed = legacy;
    mixed.workload = workload::namedWorkloadMix("poisson");
    const LatencyModel model = testModel();
    EXPECT_TRUE(simulateServing(legacy, model) ==
                simulateServing(mixed, model));
}

TEST(Continuous, DeterministicAcrossRuns)
{
    ServingConfig cfg;
    cfg.arrivalRate = 2.0;
    cfg.numGpus = 2;
    cfg.maxBatch = 8;
    cfg.horizonSeconds = 300.0;
    cfg.workload = workload::namedWorkloadMix("production");
    cfg.continuousBatching = true;
    const BatchLatencySurface surface =
        BatchLatencySurface::fromLatencyModel(testModel(),
                                              cfg.maxBatch, 50);
    const ServingReport a = simulateServing(cfg, surface);
    const ServingReport b = simulateServing(cfg, surface);
    EXPECT_TRUE(a == b);
    EXPECT_GT(a.completed, 0);
}

TEST(Continuous, ReportsIterationActivity)
{
    ServingConfig cfg;
    cfg.arrivalRate = 2.0;
    cfg.numGpus = 2;
    cfg.maxBatch = 8;
    cfg.horizonSeconds = 200.0;
    cfg.workload = workload::namedWorkloadMix("production");
    const BatchLatencySurface surface =
        BatchLatencySurface::fromLatencyModel(testModel(),
                                              cfg.maxBatch, 50);

    const ServingReport greedy = simulateServing(cfg, surface);
    cfg.continuousBatching = true;
    const ServingReport cont = simulateServing(cfg, surface);

    // Iteration accounting is a continuous-mode concept.
    EXPECT_EQ(greedy.iterationsDispatched, 0);
    EXPECT_GT(cont.iterationsDispatched, 0);
    // Each completed request spends `iterations` member-iterations,
    // and one dispatched iteration serves at most maxBatch members.
    EXPECT_GE(cont.iterationsDispatched,
              50 * cont.completed / cfg.maxBatch);
    // The heavy-tailed mix records non-unit request sizes.
    EXPECT_GT(cont.meanRequestSize, 0.0);
    EXPECT_NE(cont.meanRequestSize, 1.0);
    EXPECT_LE(cont.meanBatch,
              static_cast<double>(cfg.maxBatch) + 1e-12);
}

TEST(Continuous, GoodputMatchesOrBeatsGreedy)
{
    // The capacity bench's Gate A in miniature: on identical arrivals
    // and one pricing surface, letting requests join and leave at
    // iteration boundaries must not lose goodput to greedy batches.
    // At saturation the two modes serve at identical rates and differ
    // only in which requests land before the horizon cut — greedy
    // completes in lumps of up to maxBatch — so the gate allows one
    // batch per horizon of quantization slack. A real regression
    // scales with the horizon; the slack does not.
    const LatencyModel model = testModel();
    for (double load : {0.7, 1.2}) {
        ServingConfig cfg;
        cfg.numGpus = 2;
        cfg.maxBatch = 8;
        cfg.horizonSeconds = 300.0;
        const BatchLatencySurface surface =
            BatchLatencySurface::fromLatencyModel(model, cfg.maxBatch,
                                                  50);
        const double capacity =
            static_cast<double>(cfg.maxBatch) /
            surface.batchSeconds(cfg.maxBatch) * cfg.numGpus;
        cfg.arrivalRate = load * capacity;
        ResilienceConfig rc;
        rc.deadline.deadlineSeconds = 25.0 * surface.batchSeconds(1);
        rc.admission.maxQueueLength = 256;

        const ServingReport greedy = simulateServing(cfg, surface, rc);
        cfg.continuousBatching = true;
        const ServingReport cont = simulateServing(cfg, surface, rc);
        const double quantum = static_cast<double>(cfg.maxBatch) /
                               cfg.horizonSeconds;
        EXPECT_GE(cont.goodput + quantum + 1e-9, greedy.goodput)
            << "load " << load;
        EXPECT_GT(cont.completed, 0) << "load " << load;
    }
}

TEST(Continuous, PriorityClassesLowerP50UnderOverload)
{
    // Two identical Poisson classes, 2x overload, single batch-1
    // server. With split priorities the foreground class is served
    // promptly while the background class queues; completed-request
    // p50 must beat the FCFS run, whose every completion carries the
    // whole backlog's wait. Arrival times and sizes are identical in
    // both runs (priority never touches the workload streams).
    LatencyModel unit;
    unit.overheadFraction = 0.0;
    ServingConfig cfg;
    cfg.arrivalRate = 2.0;
    cfg.numGpus = 1;
    cfg.maxBatch = 1;
    cfg.horizonSeconds = 300.0;
    cfg.workload = twoTierMix(false);
    const ServingReport fcfs = simulateServing(cfg, unit);
    cfg.workload = twoTierMix(true);
    const ServingReport prio = simulateServing(cfg, unit);
    EXPECT_EQ(prio.arrived, fcfs.arrived);
    EXPECT_LT(prio.p50Latency, fcfs.p50Latency);
}

TEST(Continuous, MemoryInfeasibleBatchShedsEverything)
{
    // memoryFeasibleBatch == 0: not one request fits the GPU, so the
    // continuous scheduler must shed every arrival at admission and
    // never start an iteration (and must not spin doing so).
    ServingConfig cfg;
    cfg.arrivalRate = 2.0;
    cfg.horizonSeconds = 100.0;
    cfg.continuousBatching = true;
    ResilienceConfig rc;
    rc.admission.maxQueueLength = 16;
    rc.admission.memoryFeasibleBatch = 0;
    const BatchLatencySurface surface =
        BatchLatencySurface::fromLatencyModel(testModel(),
                                              cfg.maxBatch, 50);
    const ServingReport r = simulateServing(cfg, surface, rc);
    EXPECT_GT(r.arrived, 0);
    EXPECT_EQ(r.completed, 0);
    EXPECT_EQ(r.iterationsDispatched, 0);
    EXPECT_EQ(r.memoryShed, r.arrived);
    EXPECT_EQ(r.effectiveMaxBatch, 0);
}

TEST(Continuous, ReportsAreByteIdenticalAtAnyJobsCount)
{
    // The sweep-level determinism contract: fanning simulations out
    // through parallelMap at --jobs 1/2/8 must produce identical
    // reports in identical order.
    const BatchLatencySurface surface =
        BatchLatencySurface::fromLatencyModel(testModel(), 8, 50);
    const std::vector<double> rates = {0.5, 1.0, 2.0, 3.0};
    auto sweep = [&] {
        return runtime::parallelMap(
            static_cast<std::int64_t>(rates.size()),
            [&](std::int64_t i) {
                ServingConfig cfg;
                cfg.arrivalRate = rates[static_cast<std::size_t>(i)];
                cfg.numGpus = 2;
                cfg.maxBatch = 8;
                cfg.horizonSeconds = 150.0;
                cfg.workload =
                    workload::namedWorkloadMix("production");
                cfg.continuousBatching = true;
                return simulateServing(cfg, surface);
            });
    };

    runtime::setGlobalJobs(1);
    const std::vector<ServingReport> base = sweep();
    for (int jobs : {2, 8}) {
        runtime::setGlobalJobs(jobs);
        const std::vector<ServingReport> again = sweep();
        ASSERT_EQ(again.size(), base.size());
        for (std::size_t i = 0; i < base.size(); ++i)
            EXPECT_TRUE(base[i] == again[i])
                << "jobs " << jobs << ", point " << i;
    }
    runtime::setGlobalJobs(0); // restore auto
}

TEST(Continuous, InvalidSurfaceRejectedBeforeSimulation)
{
    ServingConfig cfg;
    BatchLatencySurface bad;
    bad.batchGrid = {1, 2};
    bad.sizeGrid = {1.0};
    bad.seconds = {1.0}; // wrong shape
    EXPECT_THROW(simulateServing(cfg, bad), FatalError);
}

TEST(Continuous, MalformedMixRejectedByServingValidate)
{
    ServingConfig cfg;
    cfg.workload = twoTierMix(true);
    cfg.workload.classes[0].weight = 0.9; // weights sum to 1.4
    EXPECT_THROW(cfg.validate(), FatalError);
}

} // namespace
} // namespace mmgen::serving
