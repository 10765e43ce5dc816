#include "serving/telemetry_hooks.hh"

namespace mmgen::serving {

telemetry::HistogramSpec
latencyHistogramSpec()
{
    // Request latencies span milliseconds (image batch on a fast GPU)
    // to hours (long-video TTV under chaos); log buckets keep the
    // relative quantile error below one growth factor everywhere.
    return telemetry::HistogramSpec::exponential(1e-3, 1e4, 60);
}

telemetry::HistogramSpec
batchHistogramSpec()
{
    // Unit-width bins: batch sizes are small integers, so quantiles
    // are exact up to the bucket midpoint convention.
    return telemetry::HistogramSpec::linear(0.0, 65.0, 65);
}

void
publishServingMetrics(telemetry::MetricsRegistry& registry,
                      const ServingReport& report,
                      std::span<const double> latencySeconds,
                      std::span<const double> batchSizes,
                      const telemetry::Labels& labels)
{
    auto count = [&](const char* name, std::int64_t v) {
        registry.counter(name, labels).add(v);
    };
    auto gauge = [&](const char* name, double v) {
        registry.gauge(name, labels).set(v);
    };

    count("serving.requests_arrived", report.arrived);
    count("serving.requests_completed", report.completed);
    count("serving.requests_shed", report.shed);
    count("serving.requests_expired", report.expired);
    count("serving.requests_dropped", report.dropped);
    count("serving.requests_degraded", report.degraded);
    count("serving.requests_shed_memory", report.memoryShed);
    count("serving.retries", report.retries);
    count("serving.drain_completed", report.drainCompleted);
    count("serving.hedges_issued", report.hedgesIssued);
    count("serving.hedges_won", report.hedgesWon);
    count("serving.hedges_cancelled", report.hedgesCancelled);
    count("serving.breaker_opens", report.breakerOpens);
    count("serving.breaker_closes", report.breakerCloses);
    count("serving.checkpoints_taken", report.checkpointsTaken);
    count("serving.resumes", report.resumes);
    count("serving.iterations_dispatched",
          report.iterationsDispatched);

    gauge("serving.throughput_rps", report.throughput);
    gauge("serving.goodput_rps", report.goodput);
    gauge("serving.gpu_utilization", report.gpuUtilization);
    gauge("serving.offered_load", report.offeredLoad);
    gauge("serving.mean_availability", report.meanAvailability);
    gauge("serving.backlog", static_cast<double>(report.backlog));
    gauge("serving.deadline_miss_rate", report.deadlineMissRate);
    gauge("serving.shed_fraction", report.shedFraction);
    gauge("serving.effective_max_batch",
          static_cast<double>(report.effectiveMaxBatch));
    gauge("serving.max_batch_dispatched",
          static_cast<double>(report.maxBatchDispatched));
    gauge("serving.mean_latency_seconds", report.meanLatency);
    gauge("serving.p95_latency_seconds", report.p95Latency);
    gauge("serving.p99_latency_seconds", report.p99Latency);
    gauge("serving.mean_request_size", report.meanRequestSize);
    gauge("serving.hedge_wasted_seconds", report.hedgeWastedSeconds);
    gauge("serving.lost_gpu_seconds", report.lostGpuSeconds);
    gauge("serving.wasted_gpu_seconds", report.wastedGpuSeconds);
    gauge("serving.restored_gpu_seconds", report.restoredGpuSeconds);
    gauge("serving.checkpoint_overhead_seconds",
          report.checkpointOverheadSeconds);

    auto& latency_hist = registry.histogram(
        "serving.request_latency_seconds", latencyHistogramSpec(),
        labels);
    for (double v : latencySeconds)
        latency_hist.observe(v);
    auto& batch_hist = registry.histogram("serving.batch_size",
                                          batchHistogramSpec(), labels);
    for (double v : batchSizes)
        batch_hist.observe(v);
}

telemetry::SeriesExpectations
seriesExpectations(const ClusterConfig& cfg, const ServingReport& report)
{
    return {.horizonSeconds = cfg.horizonSeconds,
            .totalGpus = cfg.totalGpus(),
            .arrived = report.arrived,
            .shed = report.shed,
            .inHorizonCompleted = report.completed - report.drainCompleted,
            .retries = report.retries - report.drainRetries,
            .hedgesIssued = report.hedgesIssued - report.drainHedgesIssued};
}

} // namespace mmgen::serving
