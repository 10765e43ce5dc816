/**
 * @file
 * P009 TelemetryConsistency: cross-check sampled series against the
 * final report aggregates.
 *
 * Sampling runs as an extra event source inside the serving loops; a
 * bug there (missed sample, wrong tie priority, double-counting)
 * would silently corrupt every time series while leaving the report
 * untouched. This check closes the loop: the *last* sample of each
 * cumulative series must equal the corresponding report aggregate,
 * timestamps must march strictly forward to the horizon, cumulative
 * series must be monotone, and instantaneous series must stay inside
 * physical ranges (queue depth >= 0, in-flight <= fleet GPUs,
 * breaker state in {0,1,2}).
 */

#ifndef MMGEN_TELEMETRY_CONSISTENCY_HH
#define MMGEN_TELEMETRY_CONSISTENCY_HH

#include <cstdint>

#include "telemetry/metrics.hh"
#include "verify/diagnostic.hh"

namespace mmgen::telemetry {

/** Report aggregates the sampled series must agree with. */
struct SeriesExpectations
{
    double horizonSeconds = 0.0;
    /** Total GPUs across the fleet (bounds in-flight). */
    int totalGpus = 0;
    std::int64_t arrived = 0;
    std::int64_t shed = 0;
    /** Completions inside the horizon (report completed - drain). */
    std::int64_t inHorizonCompleted = 0;
    std::int64_t retries = 0;
    /** Hedges issued inside the horizon (report issued - drain). */
    std::int64_t hedgesIssued = 0;
};

/**
 * Verify the sampled serving series in `registry` against the final
 * aggregates. Emits rule P009 findings; an empty report means the
 * series are consistent. Series absent from the registry (sampling
 * disabled, or single-pool runs without replica series) are skipped.
 */
verify::DiagnosticReport
checkSeriesConsistency(const MetricsRegistry& registry,
                       const SeriesExpectations& expect);

} // namespace mmgen::telemetry

#endif // MMGEN_TELEMETRY_CONSISTENCY_HH
