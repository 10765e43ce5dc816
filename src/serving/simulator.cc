#include "simulator.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/memory.hh"
#include "profiler/engine.hh"
#include "runtime/profile_cache.hh"
#include "serving/cluster.hh"
#include "util/logging.hh"
#include "verify/verify.hh"

namespace mmgen::serving {

double
LatencyModel::batchSeconds(int batch) const
{
    MMGEN_CHECK(batch >= 1, "batch must be positive");
    MMGEN_CHECK(baseSeconds > 0.0, "base latency must be positive");
    MMGEN_CHECK(overheadFraction >= 0.0 && overheadFraction <= 1.0,
                "overhead fraction out of [0, 1]");
    return baseSeconds * (overheadFraction +
                          (1.0 - overheadFraction) *
                              static_cast<double>(batch));
}

LatencyModel
profileLatencyModel(const graph::Pipeline& pipeline,
                    const hw::GpuSpec& gpu)
{
    if (verify::runtimeChecksEnabled())
        verify::verifyPipelineOrThrow(pipeline);
    profiler::ProfileOptions opts;
    opts.gpu = gpu;
    opts.backend = graph::AttentionBackend::Flash;
    // Serving sweeps rebuild their latency model per grid point; the
    // profile memo makes every repeated setup O(1).
    const std::shared_ptr<const profiler::ProfileResult> res =
        runtime::cachedProfile(pipeline, opts);

    LatencyModel model;
    model.baseSeconds = res->totalSeconds;
    // Launch overhead and small-kernel ramp time do not scale with
    // batch; the non-scaling share is what the serial schedule paid
    // in launches.
    const double overhead_s =
        static_cast<double>(res->totalLaunches) *
        gpu.kernelLaunchOverhead;
    model.overheadFraction =
        std::clamp(overhead_s / res->totalSeconds, 0.02, 0.5);
    return model;
}

void
TrafficConfig::validate() const
{
    MMGEN_CHECK(std::isfinite(arrivalRate) && arrivalRate > 0.0,
                "arrival rate must be positive and finite, got "
                    << arrivalRate);
    MMGEN_CHECK(maxBatch >= 1,
                "need max batch >= 1, got " << maxBatch);
    // A model-priced replica stores one surface node per batch size,
    // so the cap bounds that array; no memory analysis reports more.
    MMGEN_CHECK(maxBatch <= exec::kUnboundedBatch,
                "max batch must be <= " << exec::kUnboundedBatch
                                        << ", got " << maxBatch);
    MMGEN_CHECK(std::isfinite(horizonSeconds) && horizonSeconds > 0.0,
                "horizon must be positive and finite, got "
                    << horizonSeconds);
    MMGEN_CHECK(arrivalRate * horizonSeconds <= kMaxExpectedArrivals,
                "arrival rate x horizon = "
                    << arrivalRate * horizonSeconds
                    << " expected arrivals, above the "
                    << kMaxExpectedArrivals << " one run may simulate");
    if (workload.enabled())
        workload.validate();
}

void
ServingConfig::validate() const
{
    TrafficConfig::validate();
    MMGEN_CHECK(numGpus >= 1,
                "need at least one GPU, got " << numGpus);
}

namespace {

/** Run a one-replica cluster and return its report as a single pool's. */
ServingReport
simulatePool(ClusterConfig cluster, const ResilienceConfig& resilience,
             const telemetry::Telemetry* tele)
{
    cluster.resilience = resilience;
    ServingReport report = simulateCluster(cluster, tele).serving;
    // Single-pool reports keep the cluster-only metrics at zero. The
    // only one a one-replica run books is the progress fault kills
    // destroy, which `lostGpuSeconds` already reports.
    report.wastedGpuSeconds = 0.0;
    return report;
}

} // namespace

ServingReport
simulateServing(const ServingConfig& cfg, const LatencyModel& latency,
                const ResilienceConfig& resilience,
                const telemetry::Telemetry* tele)
{
    cfg.validate();
    return simulatePool(singlePoolCluster(cfg, latency), resilience,
                        tele);
}

ServingReport
simulateServing(const ServingConfig& cfg,
                const BatchLatencySurface& surface,
                const ResilienceConfig& resilience,
                const telemetry::Telemetry* tele)
{
    cfg.validate();
    ClusterConfig cluster = singlePoolCluster(cfg, LatencyModel());
    cluster.replicas.front().surface = surface;
    return simulatePool(std::move(cluster), resilience, tele);
}

} // namespace mmgen::serving
