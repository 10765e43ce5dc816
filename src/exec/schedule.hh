/**
 * @file
 * TimelineScheduler: a deterministic discrete-event scheduler that
 * plays an ExecutionPlan onto a GpuSpec.
 *
 * This is the second half of the profiler split. The scheduler walks
 * the plan's executed kernels in program order and assigns each a real
 * [start, end) interval on a stream, modeling:
 *
 *  - per-stream in-order (FIFO) execution,
 *  - compute/copy overlap when `streams >= 2` routes the Copy lane
 *    onto its own stream,
 *  - host launch-queue depth: with `launchQueueDepth == 0` every
 *    launch is synchronous and its overhead serializes with execution
 *    (the seed profiler's semantics); with depth q >= 1 the host runs
 *    up to q launches ahead so overhead hides under execution,
 *  - CUDA-graph-style launch amortization: a folded node with repeat r
 *    pays full launch overhead once plus a replay fraction for the
 *    remaining r - 1 iterations.
 *
 * With every option at its default the schedule is one back-to-back
 * stream and the makespan reproduces the seed profiler's summed
 * `totalSeconds` bit for bit: per op the scheduler sums the roofline
 * seconds of its kernels in part order and multiplies by the repeat
 * count — the exact arithmetic `CostModel::time` performed.
 *
 * The timeline is stored structure-of-arrays: one event per executed
 * kernel in program order, split into parallel start/end/stream
 * columns. Event `i` always describes executed kernel `i` (walk
 * `plan.executed()` to find its stored record), so the scheduler's
 * inner loop and every consumer stream through flat double arrays.
 * When the plan carries a `NodeCostTable` for the scheduler's GPU (the
 * lowering GPU fingerprint matches), per-kernel roofline estimates are
 * read from the table — the identical doubles `hw::estimateTime` would
 * produce — instead of recomputed.
 */

#ifndef MMGEN_EXEC_SCHEDULE_HH
#define MMGEN_EXEC_SCHEDULE_HH

#include <cstdint>
#include <vector>

#include "exec/plan.hh"
#include "hw/gpu_spec.hh"

namespace mmgen::exec {

/** Scheduler knobs. Defaults reproduce the seed profiler exactly. */
struct ScheduleOptions
{
    /**
     * Concurrent hardware streams. 1 serializes every lane onto one
     * stream; >= 2 gives the Copy lane its own stream so weight
     * streaming overlaps compute.
     */
    int streams = 1;

    /**
     * Host launch-queue depth. 0 means synchronous launches: each
     * kernel's launch overhead is paid inline before it executes
     * (exactly the seed cost model). Depth q >= 1 lets the host queue
     * up to q launches ahead of device execution, hiding overhead
     * under running kernels.
     */
    int launchQueueDepth = 0;

    /** Replay repeated iterations as a captured CUDA graph. */
    bool graphLaunch = false;

    /**
     * Fraction of a node's per-iteration launch overhead each graph
     * replay still pays (0 = replays are free, 1 = no amortization).
     * Only meaningful when graphLaunch is set.
     */
    double graphReplayOverheadFraction = 0.0;

    /** True when every knob has its seed-reproducing default. */
    bool isDefault() const;
};

/**
 * One scheduled kernel occurrence, materialized from the timeline's
 * SoA columns by Timeline::event(). The executed-kernel index doubles
 * as the event index.
 */
struct TimelineEvent
{
    /** Executed-kernel index (== the event index). */
    std::size_t node = 0;
    /** Stream the node ran on (0 = compute, 1 = copy). */
    int stream = 0;
    double startSeconds = 0.0;
    double endSeconds = 0.0;

    double durationSeconds() const { return endSeconds - startSeconds; }
};

/** The scheduled timeline of one plan (structure-of-arrays). */
struct Timeline
{
    /** Event start times, one per executed kernel in program order. */
    std::vector<double> eventStart;

    /** Event end times, aligned with eventStart. */
    std::vector<double> eventEnd;

    /** Stream ids, aligned with eventStart. */
    std::vector<std::int32_t> eventStream;

    /** End-to-end latency: the last event end. */
    double makespan = 0.0;

    /** Busy seconds per stream (indexed by stream id). */
    std::vector<double> streamBusySeconds;

    /**
     * Roofline busy seconds per executed kernel (repeats applied), in
     * program order. This is the per-kernel attribution quantity (what
     * kernel-class breakdowns sum); it matches each event's duration
     * up to the last ulp of the op-level grouping arithmetic.
     */
    std::vector<double> nodeSeconds;

    /**
     * Busy seconds per executed op (sum of its kernels' durations), in
     * program order: indexed by ExecutedOp::index. Under overlap these
     * can sum to more than the makespan, like GPU-busy time in a real
     * profile.
     */
    std::vector<double> opSeconds;

    /** Total host launch overhead (seconds, repeats applied). */
    double launchOverheadSeconds = 0.0;

    /** Number of scheduled events (== executed kernel count). */
    std::size_t eventCount() const { return eventStart.size(); }

    /** Materialize one event from the SoA columns. */
    TimelineEvent
    event(std::size_t i) const
    {
        return {i, static_cast<int>(eventStream[i]), eventStart[i],
                eventEnd[i]};
    }

    /** Duration of event `i` in seconds. */
    double eventDuration(std::size_t i) const
    {
        return eventEnd[i] - eventStart[i];
    }
};

/**
 * Plays ExecutionPlans onto a GPU under fixed scheduling options.
 */
class TimelineScheduler
{
  public:
    explicit TimelineScheduler(hw::GpuSpec gpu,
                               ScheduleOptions options =
                                   ScheduleOptions());

    /** Schedule one plan; deterministic for equal inputs. */
    Timeline schedule(const ExecutionPlan& plan) const;

    /**
     * Schedule into an existing timeline, reusing its vector capacity.
     * Repeated scheduling through one Timeline does no steady-state
     * allocation; the result is identical to schedule().
     */
    void scheduleInto(const ExecutionPlan& plan, Timeline& tl) const;

    const ScheduleOptions& options() const { return opts; }

  private:
    hw::GpuSpec gpu_;
    std::uint64_t gpuKey_;
    ScheduleOptions opts;
};

} // namespace mmgen::exec

#endif // MMGEN_EXEC_SCHEDULE_HH
