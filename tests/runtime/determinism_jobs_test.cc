/**
 * @file
 * End-to-end determinism of the parallel runtime: the harness outputs
 * that the bench drivers render — ProfileResults and ServingReports —
 * must be bit-identical at --jobs 1, 2, and 8. This is the test-suite
 * form of the contract the runtime_scaling bench enforces at the
 * report level.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/suite.hh"
#include "runtime/parallel.hh"
#include "serving/cluster.hh"
#include "serving/simulator.hh"

namespace mmgen::runtime {
namespace {

std::vector<profiler::ProfileResult>
profileZoo()
{
    const std::vector<models::ModelId> ids = models::allModels();
    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    return parallelMap(
        static_cast<std::int64_t>(ids.size()), [&](std::int64_t i) {
            profiler::ProfileOptions opts;
            opts.gpu = gpu;
            return profiler::Profiler(opts).profile(
                models::buildModel(ids[static_cast<std::size_t>(i)]));
        });
}

TEST(DeterminismAcrossJobs, ZooProfilesBitIdentical)
{
    setGlobalJobs(1);
    const std::vector<profiler::ProfileResult> serial = profileZoo();
    for (const int jobs : {2, 8}) {
        setGlobalJobs(jobs);
        const std::vector<profiler::ProfileResult> parallel =
            profileZoo();
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            // Bitwise equality, not NEAR: determinism is the contract.
            EXPECT_EQ(parallel[i].totalSeconds,
                      serial[i].totalSeconds)
                << "jobs=" << jobs << " " << serial[i].model;
            EXPECT_EQ(parallel[i].totalFlops, serial[i].totalFlops);
            EXPECT_EQ(parallel[i].totalHbmBytes,
                      serial[i].totalHbmBytes);
            EXPECT_EQ(parallel[i].totalLaunches,
                      serial[i].totalLaunches);
        }
    }
    setGlobalJobs(0);
}

std::vector<serving::ServingReport>
sweepServing(const serving::LatencyModel& latency)
{
    const std::vector<double> rates = {2.0, 8.0, 16.0, 24.0};
    return parallelMap(
        static_cast<std::int64_t>(rates.size()),
        [&](std::int64_t i) {
            serving::ServingConfig cfg;
            cfg.arrivalRate = rates[static_cast<std::size_t>(i)];
            cfg.numGpus = 4;
            cfg.maxBatch = 4;
            cfg.horizonSeconds = 120.0;
            return serving::simulateServing(cfg, latency);
        });
}

TEST(DeterminismAcrossJobs, ServingReportsBitIdentical)
{
    const serving::LatencyModel latency =
        serving::profileLatencyModel(
            models::buildModel(models::ModelId::Muse),
            hw::GpuSpec::a100_80gb());

    setGlobalJobs(1);
    const std::vector<serving::ServingReport> serial =
        sweepServing(latency);
    for (const int jobs : {2, 8}) {
        setGlobalJobs(jobs);
        const std::vector<serving::ServingReport> parallel =
            sweepServing(latency);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            EXPECT_EQ(parallel[i].p50Latency, serial[i].p50Latency)
                << "jobs=" << jobs << " point=" << i;
            EXPECT_EQ(parallel[i].p95Latency, serial[i].p95Latency);
            EXPECT_EQ(parallel[i].goodput, serial[i].goodput);
            EXPECT_EQ(parallel[i].meanBatch, serial[i].meanBatch);
            EXPECT_EQ(parallel[i].gpuUtilization,
                      serial[i].gpuUtilization);
            EXPECT_EQ(parallel[i].backlog, serial[i].backlog);
        }
    }
    setGlobalJobs(0);
}

std::vector<serving::ClusterReport>
sweepCluster(const serving::LatencyModel& latency)
{
    const std::vector<double> rates = {1.0, 2.0, 4.0};
    return parallelMap(
        static_cast<std::int64_t>(rates.size()),
        [&](std::int64_t i) {
            serving::ClusterConfig cfg;
            cfg.arrivalRate = rates[static_cast<std::size_t>(i)];
            cfg.maxBatch = 4;
            cfg.horizonSeconds = 200.0;
            cfg.replicas = {serving::ReplicaSpec{latency, 2, 0},
                            serving::ReplicaSpec{latency, 2, 1}};
            cfg.chaos = serving::namedChaosScenario("kill-replica", 2,
                                                    200.0);
            cfg.breaker.failureThreshold = 2;
            cfg.hedge.delaySeconds = serving::hedgeDelayForQuantile(
                latency, cfg.maxBatch, 0.95);
            cfg.checkpoint.iterations = 40;
            cfg.checkpoint.intervalIterations = 8;
            cfg.checkpoint.costSeconds = 0.01;
            cfg.resilience.retry.maxRetries = 3;
            return serving::simulateCluster(cfg);
        });
}

TEST(DeterminismAcrossJobs, ClusterReportsBitIdentical)
{
    const serving::LatencyModel latency =
        serving::profileLatencyModel(
            models::buildModel(models::ModelId::StableDiffusion),
            hw::GpuSpec::a100_80gb());

    setGlobalJobs(1);
    const std::vector<serving::ClusterReport> serial =
        sweepCluster(latency);
    for (const int jobs : {2, 8}) {
        setGlobalJobs(jobs);
        const std::vector<serving::ClusterReport> parallel =
            sweepCluster(latency);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            const serving::ServingReport& a = parallel[i].serving;
            const serving::ServingReport& b = serial[i].serving;
            EXPECT_EQ(a.goodput, b.goodput)
                << "jobs=" << jobs << " point=" << i;
            EXPECT_EQ(a.p95Latency, b.p95Latency);
            EXPECT_EQ(a.hedgesIssued, b.hedgesIssued);
            EXPECT_EQ(a.hedgeWastedSeconds, b.hedgeWastedSeconds);
            EXPECT_EQ(a.breakerOpens, b.breakerOpens);
            EXPECT_EQ(a.wastedGpuSeconds, b.wastedGpuSeconds);
            EXPECT_EQ(a.restoredGpuSeconds, b.restoredGpuSeconds);
            EXPECT_EQ(a.checkpointsTaken, b.checkpointsTaken);
            ASSERT_EQ(parallel[i].replicas.size(),
                      serial[i].replicas.size());
            for (std::size_t r = 0; r < serial[i].replicas.size();
                 ++r) {
                EXPECT_EQ(parallel[i].replicas[r].busySeconds,
                          serial[i].replicas[r].busySeconds);
                EXPECT_EQ(parallel[i].replicas[r].completedRequests,
                          serial[i].replicas[r].completedRequests);
            }
        }
    }
    setGlobalJobs(0);
}

TEST(DeterminismAcrossJobs, SuiteRunAllMatchesSerialBaseline)
{
    core::CharacterizationSuite suite;
    const std::vector<models::ModelId> ids = {
        models::ModelId::StableDiffusion, models::ModelId::Muse,
        models::ModelId::LLaMA};

    setGlobalJobs(1);
    const std::vector<core::ModelRunResult> serial =
        suite.runAll(ids);
    setGlobalJobs(8);
    const std::vector<core::ModelRunResult> parallel =
        suite.runAll(ids);
    setGlobalJobs(0);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].id, serial[i].id);
        EXPECT_EQ(parallel[i].baseline.totalSeconds,
                  serial[i].baseline.totalSeconds);
        EXPECT_EQ(parallel[i].flash.totalSeconds,
                  serial[i].flash.totalSeconds);
        EXPECT_EQ(parallel[i].endToEndSpeedup(),
                  serial[i].endToEndSpeedup());
    }
}

} // namespace
} // namespace mmgen::runtime
