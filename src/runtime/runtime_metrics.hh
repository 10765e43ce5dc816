/**
 * @file
 * Runtime-layer observability: publish the global profile and plan
 * cache counters and the parallel-loop counters into a
 * telemetry::MetricsRegistry, and render them as the `mmgen stats`
 * summary table.
 *
 * Every counter here is schedule-independent: the single-flight
 * caches count a waiter as a hit, and the loop counters count work
 * done, not how it was scheduled. They land in deterministic exports
 * safely.
 */

#ifndef MMGEN_RUNTIME_RUNTIME_METRICS_HH
#define MMGEN_RUNTIME_RUNTIME_METRICS_HH

#include <string>

#include "telemetry/metrics.hh"

namespace mmgen::runtime {

/**
 * Record the process-global counters into `registry`:
 * `runtime.{profile,plan}_cache.{hits,misses,evictions,entries}`
 * counters and `hit_rate` gauges, the profile cache's disk-tier
 * `runtime.profile_cache.disk_{hits,misses,writes,corrupt}` counters
 * (zero when no disk tier is attached), and the
 * `runtime.pool.{loops_run,indices_executed}` counters plus the
 * `runtime.pool.threads` gauge.
 */
void publishRuntimeMetrics(telemetry::MetricsRegistry& registry);

/**
 * Human-readable run summary of the global cache and loop counters —
 * the body of `mmgen stats`.
 */
std::string runtimeStatsTable();

} // namespace mmgen::runtime

#endif // MMGEN_RUNTIME_RUNTIME_METRICS_HH
