/**
 * @file
 * One 64-bit digest over every field of a serving report, shared by
 * the characterization goldens and the invariant sweep, except the
 * two drain counters `drainHedgesIssued` and `drainRetries`. Each is a
 * share of a mixed counter (`hedgesIssued`, `retries`) that only the
 * P009 telemetry check reads, and mixing them in would move every
 * pinned digest although no simulated result changed. Two reports
 * share a digest only if they are bit-identical in every mixed field,
 * so a digest pinned in a test catches any change to the engine's
 * floating-point behaviour.
 */

#ifndef MMGEN_TESTS_SERVING_REPORT_DIGEST_HH
#define MMGEN_TESTS_SERVING_REPORT_DIGEST_HH

#include <cinttypes>
#include <cstdio>
#include <string>

#include "serving/cluster.hh"
#include "serving/simulator.hh"
#include "util/hash.hh"

namespace mmgen::serving {

inline void
mixReport(HashBuilder& h, const ServingReport& r)
{
    h.mix(r.arrived)
        .mix(r.completed)
        .mix(r.throughput)
        .mix(r.meanLatency)
        .mix(r.p50Latency)
        .mix(r.p95Latency)
        .mix(r.p99Latency)
        .mix(r.meanBatch)
        .mix(r.gpuUtilization)
        .mix(r.backlog)
        .mix(r.offeredLoad)
        .mix(r.drainCompleted)
        .mix(r.drainGpuSeconds)
        .mix(r.goodput)
        .mix(r.deadlineMissRate)
        .mix(r.retries)
        .mix(r.shed)
        .mix(r.shedFraction)
        .mix(r.expired)
        .mix(r.dropped)
        .mix(r.degraded)
        .mix(r.degradedFraction)
        .mix(r.memoryShed)
        .mix(r.effectiveMaxBatch)
        .mix(r.maxBatchDispatched)
        .mix(r.lostGpuSeconds)
        .mix(r.meanAvailability)
        .mix(r.meanRequestSize)
        .mix(r.iterationsDispatched)
        .mix(r.hedgesIssued)
        .mix(r.hedgesWon)
        .mix(r.hedgesCancelled)
        .mix(r.hedgeWastedSeconds)
        .mix(r.breakerOpens)
        .mix(r.breakerCloses)
        .mix(r.checkpointsTaken)
        .mix(r.resumes)
        .mix(r.checkpointOverheadSeconds)
        .mix(r.wastedGpuSeconds)
        .mix(r.restoredGpuSeconds);
}

/** The fleet report, every replica's stats and the domain availabilities. */
inline void
mixReport(HashBuilder& h, const ClusterReport& r)
{
    mixReport(h, r.serving);
    for (const ReplicaStats& rs : r.replicas)
        h.mix(rs.dispatchedBatches)
            .mix(rs.completedRequests)
            .mix(rs.abortedBatches)
            .mix(rs.breakerOpens)
            .mix(rs.busySeconds)
            .mix(rs.availability);
    for (double a : r.domainAvailability)
        h.mix(a);
}

inline std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

template <typename Report>
std::string
digest(const Report& r)
{
    HashBuilder h;
    mixReport(h, r);
    return hex(h.digest());
}

} // namespace mmgen::serving

#endif // MMGEN_TESTS_SERVING_REPORT_DIGEST_HH
