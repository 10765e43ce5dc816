/**
 * @file
 * Rule registry for the verifier.
 *
 * Every check the verifier can perform has a stable id. Structural
 * rules (S...) run over operator graphs without executing anything;
 * physics rules (P...) run over simulated results and enforce that the
 * cost model never claims something the hardware could not do. The
 * registry is what `mmgen lint --rules`, the docs table and the golden
 * diagnostic tests key off.
 */

#ifndef MMGEN_VERIFY_RULES_HH
#define MMGEN_VERIFY_RULES_HH

#include <string>
#include <vector>

#include "verify/diagnostic.hh"

namespace mmgen::verify {

namespace rules {

// ----- structural rules (graph-level, no execution) -------------------

/** A dimension that must be positive is zero or negative. */
inline constexpr const char* NonPositiveDim = "S001";
/** A shape product risks exceeding exact int64/double arithmetic. */
inline constexpr const char* OverflowRisk = "S002";
/** Conv spatial extent not divisible by stride, or bad grouping. */
inline constexpr const char* ConvStrideDivisibility = "S003";
/** Channel/feature-map continuity broken between adjacent ops. */
inline constexpr const char* ChannelContinuity = "S004";
/** Spatial self-attention invariants (seqQ == H*W, square, acausal). */
inline constexpr const char* SpatialAttention = "S005";
/** Cross-attention invariants (seqKv == encoded prompt length). */
inline constexpr const char* CrossAttention = "S006";
/** Temporal attention invariants (seqQ == frames, stride layout). */
inline constexpr const char* TemporalAttention = "S007";
/** Op dtype differs from the pipeline element type. */
inline constexpr const char* DtypeConsistency = "S008";
/** Non-positive repeat/iteration counts, or absurd magnitudes. */
inline constexpr const char* RepeatSanity = "S009";
/** Independent parameter recount disagrees with Pipeline::totalParams. */
inline constexpr const char* ParamCount = "S010";
/** Causal self-attention invariants (mask set, seqKv >= seqQ). */
inline constexpr const char* CausalAttention = "S011";
/** A stage emitter threw while tracing. */
inline constexpr const char* TraceFailure = "S012";
/**
 * Plan dataflow broken: op ranges do not tile the nodes, the executed
 * sequence names no stored op or miscounts its kernels, or a weight
 * stream feeds no compute kernel of its op.
 */
inline constexpr const char* DanglingDefUse = "S013";

// ----- physics rules (simulated-result-level) -------------------------

/** Achieved FLOP/s exceeds the dtype peak of the simulated GPU. */
inline constexpr const char* AbovePeakFlops = "P001";
/** Modeled HBM traffic below the compulsory (cold-cache) minimum. */
inline constexpr const char* BelowCompulsoryBytes = "P002";
/** Achieved bytes/s exceeds the HBM bandwidth of the simulated GPU. */
inline constexpr const char* AbovePeakBandwidth = "P003";
/** A cache hit rate falls outside [0, 1]. */
inline constexpr const char* HitRateRange = "P004";
/** Latency not monotone in steps/resolution/iterations. */
inline constexpr const char* LatencyMonotonicity = "P005";
/** A simulated quantity is negative, NaN or infinite. */
inline constexpr const char* FiniteResult = "P006";
/** Scheduled timeline events overlap, run backwards, or break deps. */
inline constexpr const char* TimelineConsistency = "P007";
/** Makespan below its critical path or above total serialized work. */
inline constexpr const char* MakespanBound = "P008";
/** Sampled telemetry series inconsistent with final report aggregates. */
inline constexpr const char* TelemetryConsistency = "P009";
/** Static peak memory exceeds the VRAM of the simulated GPU. */
inline constexpr const char* CapacityFeasible = "P010";
/** Liveness byte accounting inconsistent with cost-model traffic. */
inline constexpr const char* MemoryConservation = "P011";

} // namespace rules

/** Registry entry describing one rule. */
struct RuleInfo
{
    const char* id;
    Severity severity = Severity::Error;
    /** "structural" or "physics". */
    const char* family;
    const char* summary;
};

/** All registered rules in id order. */
const std::vector<RuleInfo>& allRules();

/** Registry entry for an id; throws FatalError on unknown ids. */
const RuleInfo& ruleInfo(const std::string& id);

} // namespace mmgen::verify

#endif // MMGEN_VERIFY_RULES_HH
