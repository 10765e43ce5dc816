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
 * The timeline stores per executed kernel only what changes from one
 * kernel to the next: the start and end columns, one event per
 * executed kernel in program order. Event `i` always describes
 * executed kernel `i` (walk `plan.executed()` to find its stored
 * record). Everything else is a function of the stored record: the
 * per-kernel and per-op seconds are stored once per stored node and
 * op, and a kernel's stream follows from its lane. Parti's decode
 * executes ~17 kernels per stored one, so its timeline costs about
 * 17 heap bytes per executed kernel, 16 of them the two columns. The
 * scheduler writes a stored record's seconds at each of its
 * executions, in the pass that places the events: a separate pass
 * over the stored records slowed plans that execute each record once,
 * like the folded diffusion plans.
 *
 * `scheduleTotals` returns the same timeline without its columns, for
 * a caller that reads only the makespan and per-stored seconds (the
 * profiler's aggregation). The serial loop then compiles its column
 * stores out. The overlap loop reads earlier kernels' starts and ends
 * back (the launch window, the lane dependencies), so it fills the
 * columns as `schedule` does and drops them before returning.
 *
 * Per-kernel roofline estimates are read from the plan's
 * `NodeCostTable`, the identical doubles `hw::estimateTime` produced
 * at lowering. The table is costed for one GPU, so scheduling a plan
 * on a GPU whose fingerprint differs from `costs.gpuKey` (or a plan
 * whose cost rows do not cover its stored nodes) is a FatalError:
 * lower the pipeline for the GPU it runs on.
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
 * One scheduled kernel occurrence, materialized by Timeline::event()
 * from the start and end columns and its stored node's lane. The
 * executed-kernel index doubles as the event index.
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

/**
 * The scheduled timeline of one plan: the start and end of every
 * executed kernel, plus what a stored record determines, stored once
 * per stored node or op.
 */
struct Timeline
{
    /**
     * Event start times, one per executed kernel in program order
     * (none in a TimelineScheduler::scheduleTotals timeline).
     */
    std::vector<double> eventStart;

    /** Event end times, aligned with eventStart. */
    std::vector<double> eventEnd;

    /**
     * True when the schedule gave the Copy lane its own stream: its
     * kernels ran on stream 1, every other kernel on stream 0.
     */
    bool copyStream = false;

    /** End-to-end latency: the last event end. */
    double makespan = 0.0;

    /** Busy seconds per stream (indexed by stream id). */
    std::vector<double> streamBusySeconds;

    /**
     * Roofline busy seconds of one executed instance of each stored
     * node (repeats applied), indexed like ExecutionPlan::nodes:
     * executed kernel `e.firstNode + p` is charged
     * `nodeSeconds[e.op.firstNode + p]`. This is the per-kernel
     * attribution quantity (what kernel-class breakdowns sum); it
     * matches each event's duration up to the last ulp of the
     * op-level grouping arithmetic. Every execution of a stored
     * record writes the same value to its entry; the entry of a
     * record the plan never executes is not written (lowering stores
     * none).
     */
    std::vector<double> nodeSeconds;

    /**
     * Busy seconds of one executed instance of each stored op (sum of
     * its kernels' durations), indexed like ExecutionPlan::ops, i.e.
     * by ExecutedOp::opIndex, and written like nodeSeconds. Under
     * overlap the executed ops' seconds can sum to more than the
     * makespan, like GPU-busy time in a real profile.
     */
    std::vector<double> opSeconds;

    /** Total host launch overhead (seconds, repeats applied). */
    double launchOverheadSeconds = 0.0;

    /**
     * Number of scheduled events: the executed kernel count, or 0 for
     * a totals-only timeline.
     */
    std::size_t eventCount() const { return eventStart.size(); }

    /** Stream a kernel on `lane` ran on (0 = compute, 1 = copy). */
    int stream(Lane lane) const
    {
        return copyStream && lane == Lane::Copy ? 1 : 0;
    }

    /** Materialize event `i`, whose stored node runs on `lane`. */
    TimelineEvent
    event(std::size_t i, Lane lane) const
    {
        return {i, stream(lane), eventStart[i], eventEnd[i]};
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

    /**
     * Schedule one plan lowered for this scheduler's GPU;
     * deterministic for equal inputs.
     */
    Timeline schedule(const ExecutionPlan& plan) const;

    /**
     * Schedule one plan for its totals: `eventStart` and `eventEnd`
     * are empty (`eventCount() == 0`), and every other field equals
     * schedule()'s bit for bit. The result is no timeline of the plan
     * for readers of events: P007 rejects it and `analyzeMemory`
     * throws on it.
     */
    Timeline scheduleTotals(const ExecutionPlan& plan) const;

    /**
     * Schedule into an existing timeline, reusing its vector capacity.
     * Repeated scheduling through one Timeline does no steady-state
     * allocation; the result is identical to schedule().
     */
    void scheduleInto(const ExecutionPlan& plan, Timeline& tl) const;

    const ScheduleOptions& options() const { return opts; }

  private:
    /** Check the plan's cost table, then schedule with or without events. */
    void play(const ExecutionPlan& plan, Timeline& tl, bool events) const;

    hw::GpuSpec gpu_;
    std::uint64_t gpuKey_;
    ScheduleOptions opts;
};

} // namespace mmgen::exec

#endif // MMGEN_EXEC_SCHEDULE_HH
