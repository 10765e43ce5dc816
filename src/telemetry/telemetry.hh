/**
 * @file
 * The Telemetry bundle: the nullable handle instrumented code takes.
 *
 * Simulators accept a `const Telemetry*`; nullptr (the default on
 * every pre-existing overload) means telemetry is off and the
 * instrumented code takes the exact same arithmetic path as before —
 * the guards only ever wrap *recording*, never simulation state, so
 * the disabled path stays bit-for-bit identical to the
 * un-instrumented build (asserted in tests with exact floating-point
 * equality).
 *
 * Determinism rules for instrumentation sites:
 *  - record only simulation time, never wall clock;
 *  - never read the RNG, advance an event clock, or round a value
 *    differently because telemetry is on;
 *  - sampling is an explicit event source in the simulator loop with
 *    the lowest tie priority, so sample timestamps are pure functions
 *    of the configured cadence.
 */

#ifndef MMGEN_TELEMETRY_TELEMETRY_HH
#define MMGEN_TELEMETRY_TELEMETRY_HH

#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"

namespace mmgen::telemetry {

/** Everything a simulator needs to emit telemetry. All optional. */
struct Telemetry
{
    /** Counters / gauges / histograms / sampled series; may be null. */
    MetricsRegistry* metrics = nullptr;

    /** Structured span/instant sink; may be null. */
    TraceSink* trace = nullptr;

    /**
     * Sim-time cadence for periodic state sampling (queue depth,
     * in-flight, utilization, breaker state). 0 disables sampling.
     * Requires `metrics` to be set to have any effect.
     */
    double sampleIntervalSeconds = 0.0;

    /**
     * Most samples one run may take (horizon / sample interval). A
     * sample appends a 16-byte point to each of 8 fleet series and 4
     * series per replica, 192 bytes at one replica, so a Release run
     * at this cap peaks at ~0.2 GB (~0.6 GB at 8 replicas). It sits
     * 800x above every test, bench, example and hostbench run (at most
     * 1,200).
     */
    static constexpr double kMaxSamples = 1e6;

    bool wantsMetrics() const { return metrics != nullptr; }
    bool wantsTrace() const { return trace != nullptr; }
    bool wantsSampling() const
    {
        return metrics != nullptr && sampleIntervalSeconds > 0.0;
    }

    /**
     * Throw `FatalError` if sampling a run of `horizonSeconds` would
     * take more than `kMaxSamples` samples.
     */
    void
    validate(double horizonSeconds) const
    {
        if (!wantsSampling())
            return;
        const double samples = horizonSeconds / sampleIntervalSeconds;
        MMGEN_CHECK(samples <= kMaxSamples,
                    "horizon / sample interval = "
                        << samples << " samples, above the " << kMaxSamples
                        << " one run may take");
    }
};

} // namespace mmgen::telemetry

#endif // MMGEN_TELEMETRY_TELEMETRY_HH
