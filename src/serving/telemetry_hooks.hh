/**
 * @file
 * Shared telemetry publication for serving reports.
 *
 * The serving engine (`simulateCluster`, which `simulateServing`
 * runs as a one-replica cluster) finishes by folding its run into a
 * ServingReport; this helper publishes that report into a
 * MetricsRegistry under one canonical naming scheme, so exporters,
 * `mmgen stats`, and the P009 consistency check see the same metric
 * names for every run; `seriesExpectations` states what that check
 * holds the sampled series to.
 */

#ifndef MMGEN_SERVING_TELEMETRY_HOOKS_HH
#define MMGEN_SERVING_TELEMETRY_HOOKS_HH

#include <span>

#include "serving/cluster.hh"
#include "serving/simulator.hh"
#include "telemetry/consistency.hh"
#include "telemetry/metrics.hh"

namespace mmgen::serving {

/**
 * Publish a finished run into the registry: lifecycle counters
 * (arrived / completed / shed / expired / dropped / retries, hedge
 * and breaker and checkpoint counts), outcome gauges (throughput,
 * goodput, utilization, offered load, availability), and latency /
 * batch-size histograms built from the raw per-request samples.
 *
 * `labels` is attached to every metric (e.g. model or replica
 * dimensions). Counters accumulate across calls on a shared registry,
 * matching counter semantics for sweep-style callers.
 */
void publishServingMetrics(telemetry::MetricsRegistry& registry,
                           const ServingReport& report,
                           std::span<const double> latencySeconds,
                           std::span<const double> batchSizes,
                           const telemetry::Labels& labels = {});

/**
 * The aggregates a sampled run of `cfg` that produced `report` must
 * end its cumulative series at (P009): the closing sample sits at the
 * horizon, so completions, retries and hedges of the drain window
 * after it are left out.
 */
telemetry::SeriesExpectations seriesExpectations(const ClusterConfig& cfg,
                                                 const ServingReport& report);

/** Bucket layout used for serving.request_latency_seconds. */
telemetry::HistogramSpec latencyHistogramSpec();

/** Bucket layout used for serving.batch_size. */
telemetry::HistogramSpec batchHistogramSpec();

} // namespace mmgen::serving

#endif // MMGEN_SERVING_TELEMETRY_HOOKS_HH
