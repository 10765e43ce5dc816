#include "schedule.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mmgen::exec {

bool
ScheduleOptions::isDefault() const
{
    return streams == 1 && launchQueueDepth == 0 && !graphLaunch &&
           graphReplayOverheadFraction == 0.0;
}

TimelineScheduler::TimelineScheduler(hw::GpuSpec gpu,
                                     ScheduleOptions options)
    : gpu_(std::move(gpu)), gpuKey_(gpu_.fingerprint()), opts(options)
{
    MMGEN_CHECK(opts.streams >= 1, "need at least one stream, got "
                                       << opts.streams);
    MMGEN_CHECK(opts.launchQueueDepth >= 0,
                "launch queue depth must be non-negative");
    MMGEN_CHECK(opts.graphReplayOverheadFraction >= 0.0 &&
                    opts.graphReplayOverheadFraction <= 1.0,
                "graph replay fraction out of [0, 1]");
}

namespace {

/**
 * Serial back-to-back schedule. Every kernel runs on stream 0 in
 * program order; per op the duration is (sum of part roofline
 * seconds) * repeat — the exact arithmetic the seed profiler used, so
 * the makespan is bit-identical to the old summed totalSeconds. A
 * part's roofline seconds are `exec_sec + ovh`, the addition
 * `hw::estimateTime` performs. Events subdivide each op's span at the
 * running part sum, so the last one ends exactly at the op's end.
 * Without `kEvents` the event stores compile out and the columns stay
 * empty; no other value depends on them.
 */
template <bool kEvents>
void
scheduleSerialInto(const ExecutionPlan& plan, const double* exec_sec,
                   const double* ovh, Timeline& tl)
{
    const std::size_t num_nodes = kEvents ? plan.executedNodeCount() : 0;
    tl.eventStart.resize(num_nodes);
    tl.eventEnd.resize(num_nodes);
    tl.copyStream = false;
    tl.nodeSeconds.resize(plan.nodes.size());
    tl.opSeconds.resize(plan.ops.size());
    tl.streamBusySeconds.assign(1, 0.0);
    tl.makespan = 0.0;

    double clock = 0.0;
    double overhead_total = 0.0;
    double busy = 0.0;
    for (const ExecutedOp e : plan.executed()) {
        const double r = static_cast<double>(e.op.repeat);
        const std::size_t first = e.firstNode;
        const double* op_exec = exec_sec + e.op.firstNode;
        const double* op_ovh = ovh + e.op.firstNode;
        double* node_sec = tl.nodeSeconds.data() + e.op.firstNode;

        double block_sum = 0.0;
        for (std::size_t p = 0; p < e.op.nodeCount; ++p) {
            const double s = op_exec[p] + op_ovh[p];
            if constexpr (kEvents)
                tl.eventStart[first + p] = clock + block_sum * r;
            block_sum += s;
            if constexpr (kEvents)
                tl.eventEnd[first + p] = clock + block_sum * r;
            node_sec[p] = s * r;
            overhead_total += op_ovh[p] * r;
        }
        const double block_dur = block_sum * r;
        clock += block_dur;
        tl.opSeconds[e.opIndex] = block_dur;
        busy += block_dur;
    }
    tl.makespan = clock;
    tl.streamBusySeconds[0] = busy;
    tl.launchOverheadSeconds = overhead_total;
}

/**
 * Overlap schedule: multi-stream, launch-queued, graph-amortized. One
 * pass in program order; the q-deep host launch window reads issue
 * times straight from the start column (event i's start IS the i-th
 * issue target), so no side bookkeeping survives the loop.
 *
 * The pass walks the executed sequence one kernel at a time, moving
 * to the next executed op when a kernel crosses the current op's end.
 * Nesting a loop per kernel in a loop per op ran it ~40% slower on the
 * Stable Diffusion plan, whose ops lower to one or a few kernels.
 */
void
scheduleOverlapInto(const ExecutionPlan& plan, const double* exec_sec,
                    const double* ovh, bool copy_stream,
                    const ScheduleOptions& opts, Timeline& tl)
{
    const std::size_t num_nodes = plan.executedNodeCount();
    const int num_streams = copy_stream ? 2 : 1;
    const int q = opts.launchQueueDepth;
    const double replay_frac = opts.graphReplayOverheadFraction;

    tl.eventStart.resize(num_nodes);
    tl.eventEnd.resize(num_nodes);
    tl.copyStream = copy_stream;
    tl.nodeSeconds.resize(plan.nodes.size());
    tl.opSeconds.resize(plan.ops.size());
    tl.streamBusySeconds.assign(
        static_cast<std::size_t>(num_streams), 0.0);

    // The running sums live in locals: a store through a column could
    // alias a Timeline member, which would pin them to memory.
    double* start_col = tl.eventStart.data();
    double* end_col = tl.eventEnd.data();
    double* node_sec = tl.nodeSeconds.data();
    double cursor[2] = {0.0, 0.0};
    double busy[2] = {0.0, 0.0};
    double makespan = 0.0;
    double launch_overhead = 0.0;
    // Host launch pipeline: the host may run at most q unstarted
    // launches ahead of the device.
    double host_clock = 0.0;

    // Kernel n instantiates stored node `stored` of executed op
    // `next_op - 1`, which repeats `r` times and whose kernels end
    // before kernel `op_end` and sum into `*op_sec`.
    std::size_t next_op = 0;
    std::size_t op_end = 0;
    std::size_t stored = 0;
    double r = 1.0;
    double* op_sec = nullptr;
    KernelDeps deps;
    for (std::size_t n = 0; n < num_nodes; ++n, ++stored) {
        const bool op_start = n == op_end;
        while (n == op_end) {
            const std::uint32_t oi = plan.opSequence[next_op++];
            const PlanOp& op = plan.ops[oi];
            stored = op.firstNode;
            op_end = n + op.nodeCount;
            r = static_cast<double>(op.repeat);
            op_sec = &tl.opSeconds[oi];
            *op_sec = 0.0;
        }
        const PlanNode& node = plan.nodes[stored];
        const double exec = exec_sec[stored] * r;
        const double overhead =
            opts.graphLaunch
                ? ovh[stored] * (1.0 + (r - 1.0) * replay_frac)
                : ovh[stored] * r;
        launch_overhead += overhead;

        double launched = 0.0;
        double duration = exec;
        if (q == 0) {
            // Synchronous launches: overhead serializes inline.
            duration += overhead;
        } else {
            // The host issues launches in program order, stalling when
            // the queue already holds q kernels the device has not
            // started. Start times of issued kernels are already in
            // the start column.
            double issue = host_clock;
            if (n >= static_cast<std::size_t>(q))
                issue = std::max(
                    issue, start_col[n - static_cast<std::size_t>(q)]);
            host_clock = issue + overhead;
            launched = host_clock;
        }

        const int stream = tl.stream(node.lane);
        double start = std::max(cursor[stream], launched);
        deps.next(node.lane, op_start, [&](KernelDeps::Dep dep) {
            start = std::max(start, end_col[dep.kernel]);
        });

        const double end = start + duration;
        start_col[n] = start;
        end_col[n] = end;
        cursor[stream] = end;
        busy[stream] += duration;
        node_sec[stored] = duration;
        *op_sec += duration;
        makespan = std::max(makespan, end);
    }
    for (int s = 0; s < num_streams; ++s)
        tl.streamBusySeconds[static_cast<std::size_t>(s)] = busy[s];
    tl.makespan = makespan;
    tl.launchOverheadSeconds = launch_overhead;
}

} // namespace

void
TimelineScheduler::play(const ExecutionPlan& plan, Timeline& tl,
                        bool events) const
{
    MMGEN_CHECK(plan.costs.gpuKey == gpuKey_,
                "plan of " << plan.model << " was lowered for another "
                           << "GPU than " << gpu_.name
                           << "; lower it for the GPU it runs on");
    MMGEN_CHECK(plan.costs.execSeconds.size() == plan.nodes.size() &&
                    plan.costs.overheadSeconds.size() ==
                        plan.nodes.size(),
                "plan of " << plan.model << " has cost rows for "
                           << plan.costs.execSeconds.size() << " and "
                           << plan.costs.overheadSeconds.size()
                           << " of its " << plan.nodes.size()
                           << " stored nodes");
    const double* exec_sec = plan.costs.execSeconds.data();
    const double* ovh = plan.costs.overheadSeconds.data();

    const bool copy_stream =
        opts.streams >= 2 && plan.hasWeightStreams;
    if (!copy_stream && opts.launchQueueDepth == 0 &&
        !opts.graphLaunch) {
        if (events)
            scheduleSerialInto<true>(plan, exec_sec, ovh, tl);
        else
            scheduleSerialInto<false>(plan, exec_sec, ovh, tl);
        return;
    }
    scheduleOverlapInto(plan, exec_sec, ovh, copy_stream, opts, tl);
    if (!events) {
        // Assigning a fresh vector releases the columns' storage.
        tl.eventStart = std::vector<double>();
        tl.eventEnd = std::vector<double>();
    }
}

void
TimelineScheduler::scheduleInto(const ExecutionPlan& plan,
                                Timeline& tl) const
{
    play(plan, tl, true);
}

Timeline
TimelineScheduler::schedule(const ExecutionPlan& plan) const
{
    Timeline tl;
    scheduleInto(plan, tl);
    return tl;
}

Timeline
TimelineScheduler::scheduleTotals(const ExecutionPlan& plan) const
{
    Timeline tl;
    play(plan, tl, false);
    return tl;
}

} // namespace mmgen::exec
