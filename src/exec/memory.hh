/**
 * @file
 * Static memory analysis over lowered ExecutionPlans.
 *
 * Sweeps the liveness intervals of a plan into a MemoryProfile: the
 * peak resident bytes in program order (equivalently the interval-
 * graph reuse lower bound — interval graphs are perfect, so a
 * first-fit allocator achieves exactly the maximum clique), the peak
 * under the *scheduled* timeline (stream overlap widens lifetimes, so
 * this is never below the program-order peak), the no-reuse upper
 * bound (every buffer distinct and never freed), the node set forming
 * the scheduled peak, and a per-stage residency curve.
 *
 * The sweep streams the buffers `BufferEnumerator` yields, op by op in
 * executed order, and keeps no array per buffer or per executed
 * kernel. The program-order side keeps the current op's per-kernel
 * sums; the scheduled side holds pending allocations and frees in two
 * min-heaps and sweeps each once no buffer still to come can precede
 * it. That bound, the smallest start among the kernels still to come,
 * is kept per block of `kSweepBoundBlock` kernels, with only the block
 * being read expanded per kernel. Every field is bit-identical to
 * sorting all endpoints at once, on any timeline.
 *
 * `maxFeasibleBatch` turns the batch-1 profile into the static
 * admission bound ROADMAP item 2 calls for: weights are shared across
 * a batch while dynamic (activation/workspace) memory scales
 * per-request, so the largest batch a GPU can hold is
 * floor((VRAM - weights) / dynamicPeak).
 */

#ifndef MMGEN_EXEC_MEMORY_HH
#define MMGEN_EXEC_MEMORY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/liveness.hh"
#include "exec/plan.hh"
#include "exec/schedule.hh"
#include "graph/pipeline.hh"
#include "hw/gpu_spec.hh"

namespace mmgen::exec {

/** Peak resident bytes while one stage's kernels execute. */
struct StageResidency
{
    std::string stage;
    /** Program-order peak live bytes across the stage's nodes. */
    double peakBytes = 0.0;
};

/** Result of sweeping a plan's liveness intervals. */
struct MemoryProfile
{
    /** Parameter bytes resident for the whole run. */
    double weightBytes = 0.0;

    /**
     * Peak live bytes in program order: the greedy interval-graph
     * reuse lower bound (no allocator can do better; first-fit on the
     * interval graph achieves it).
     */
    double programPeakBytes = 0.0;

    /** Peak live bytes under the scheduled timeline. */
    double scheduledPeakBytes = 0.0;
    /** Sim time at which the scheduled peak is first reached. */
    double scheduledPeakSeconds = 0.0;

    /** Upper bound: weights plus every buffer, never freed. */
    double noReuseBytes = 0.0;

    /**
     * Def kernels (executed-kernel indices) of the dynamic buffers
     * live at the scheduled peak.
     */
    std::vector<std::size_t> peakNodes;

    /** Per-stage residency curve, in pipeline stage order. */
    std::vector<StageResidency> stageResidency;

    /** Dynamic buffers the analysis tracked. */
    std::size_t bufferCount = 0;

    /** Bytes an interval-reusing allocator saves vs. no reuse. */
    double reuseSavingsBytes() const
    {
        return noReuseBytes - scheduledPeakBytes;
    }
};

/**
 * Sweep a plan's liveness through its scheduled timeline, which must
 * hold one event per executed kernel (a FatalError otherwise, e.g. on
 * a TimelineScheduler::scheduleTotals timeline).
 * Deterministic: equal inputs produce byte-identical profiles.
 */
MemoryProfile analyzeMemory(const ExecutionPlan& plan,
                            const Timeline& timeline);

/**
 * Executed kernels per block of analyzeMemory's release bound: it
 * keeps one bound per block boundary plus one per kernel of the block
 * it is reading.
 */
inline constexpr std::size_t kSweepBoundBlock = 4096;

/** Static memory feasibility of one pipeline on one GPU. */
struct FeasibilityReport
{
    /** Shared (batch-invariant) parameter bytes. */
    double weightBytes = 0.0;
    /** Per-request dynamic peak (activations + workspace), bytes. */
    double dynamicBytes = 0.0;
    /** Device capacity, bytes. */
    double capacityBytes = 0.0;
    /** Largest batch that fits (0 = not even one request fits). */
    std::int64_t maxBatch = 0;
    /** The batch-1 profile the bound was derived from. */
    MemoryProfile profile;
};

/** Batch ceiling when the per-request dynamic demand rounds to zero. */
inline constexpr std::int64_t kUnboundedBatch = 1 << 20;

/**
 * Analyze a pipeline's default (serial) plan on a GPU and derive the
 * largest memory-feasible batch. Monotonically non-increasing in any
 * knob that grows activations (image extent, sequence length, frame
 * count) since weights are batch-invariant.
 */
FeasibilityReport
analyzeFeasibility(const graph::Pipeline& pipeline,
                   const hw::GpuSpec& gpu,
                   graph::AttentionBackend backend =
                       graph::AttentionBackend::Flash);

/** Just the batch bound of `analyzeFeasibility`. */
std::int64_t maxFeasibleBatch(const graph::Pipeline& pipeline,
                              const hw::GpuSpec& gpu,
                              graph::AttentionBackend backend =
                                  graph::AttentionBackend::Flash);

} // namespace mmgen::exec

#endif // MMGEN_EXEC_MEMORY_HH
