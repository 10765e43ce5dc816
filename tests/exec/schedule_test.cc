/**
 * @file
 * Tests for the event-timeline scheduler: serial bit-equivalence with
 * summed roofline time, compute/copy overlap, launch-queue overhead
 * hiding, CUDA-graph amortization, determinism, and totals-only
 * schedules that match full ones bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "exec/memory.hh"
#include "exec/plan.hh"
#include "exec/schedule.hh"
#include "graph/builder.hh"
#include "hw/gpu_spec.hh"
#include "hw/roofline.hh"
#include "models/model_suite.hh"
#include "util/logging.hh"

namespace mmgen::exec {
namespace {

using graph::AttentionBackend;
using graph::GraphBuilder;
using graph::Pipeline;
using graph::Stage;

const hw::GpuSpec&
gpu()
{
    static const hw::GpuSpec g = hw::GpuSpec::a100_80gb();
    return g;
}

kernels::CostModel
costModel(AttentionBackend backend = AttentionBackend::Flash)
{
    return kernels::CostModel(gpu(), backend);
}

Pipeline
toyPipeline(std::int64_t steps)
{
    Pipeline p;
    p.name = "toy";
    Stage s;
    s.name = "unet";
    s.iterations = steps;
    s.emit = [](GraphBuilder& b, std::int64_t) {
        b.conv2d(TensorDesc({1, 8, 16, 16}, DType::F16), 8);
        b.attention(graph::AttentionKind::SelfSpatial, 1, 2, 256, 256,
                    16);
    };
    p.stages.push_back(std::move(s));
    return p;
}

Pipeline
mlpPipeline()
{
    Pipeline p;
    p.name = "mlp";
    Stage s;
    s.name = "ffn";
    s.iterations = 8;
    s.emit = [](GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({1, 1, 4096}, DType::F16), 4096);
        b.linear(TensorDesc({1, 1, 4096}, DType::F16), 4096);
    };
    p.stages.push_back(std::move(s));
    return p;
}

ExecutionPlan
splitPlan(const Pipeline& p)
{
    LoweringOptions split;
    split.splitWeightStreams = true;
    return lowerPipeline(p, costModel(), split);
}

/** Roofline seconds of one stored node of `op`. */
double
nodeRooflineSeconds(const PlanNode& node, const PlanOp& op)
{
    hw::TimeEstimateInputs in;
    in.flops = node.flops;
    in.hbmBytes = node.hbmBytes;
    in.computeEfficiency = node.computeEff;
    in.memoryEfficiency = node.memEff;
    in.launches = node.launches;
    in.dtype = op.dtype;
    return hw::estimateTime(gpu(), in).seconds;
}

/**
 * A timeline with every column per executed kernel or op: the
 * reference TimelineScheduler must match bit for bit.
 */
struct PerKernelTimeline
{
    std::vector<double> start;
    std::vector<double> end;
    std::vector<int> stream;
    /** Busy seconds per executed kernel and per executed op. */
    std::vector<double> nodeSeconds;
    std::vector<double> opSeconds;
    std::vector<double> streamBusySeconds;
    double makespan = 0.0;
    double launchOverheadSeconds = 0.0;
};

/**
 * Schedule `plan` with every duration computed per executed kernel,
 * in program order, by the same expressions TimelineScheduler uses.
 */
PerKernelTimeline
referenceSchedule(const ExecutionPlan& plan, const ScheduleOptions& opts)
{
    MMGEN_ASSERT(plan.costs.gpuKey == gpu().fingerprint() &&
                     plan.costs.execSeconds.size() == plan.nodes.size(),
                 "plan lowered for another GPU");
    const double* exec_sec = plan.costs.execSeconds.data();
    const double* ovh = plan.costs.overheadSeconds.data();
    const std::size_t num_nodes = plan.executedNodeCount();
    PerKernelTimeline tl;
    tl.start.resize(num_nodes);
    tl.end.resize(num_nodes);
    tl.stream.assign(num_nodes, 0);
    tl.nodeSeconds.resize(num_nodes);
    tl.opSeconds.assign(plan.executedOpCount(), 0.0);

    const bool copy_stream = opts.streams >= 2 && plan.hasWeightStreams;
    const int q = opts.launchQueueDepth;
    if (!copy_stream && q == 0 && !opts.graphLaunch) {
        double clock = 0.0;
        double busy = 0.0;
        for (const ExecutedOp e : plan.executed()) {
            const double r = static_cast<double>(e.op.repeat);
            const double* op_exec = exec_sec + e.op.firstNode;
            const double* op_ovh = ovh + e.op.firstNode;
            double block_sum = 0.0;
            for (std::size_t p = 0; p < e.op.nodeCount; ++p) {
                block_sum += op_exec[p] + op_ovh[p];
                tl.nodeSeconds[e.firstNode + p] =
                    (op_exec[p] + op_ovh[p]) * r;
                tl.launchOverheadSeconds += op_ovh[p] * r;
            }
            const double block_dur = block_sum * r;
            double prefix = 0.0;
            for (std::size_t p = 0; p < e.op.nodeCount; ++p) {
                tl.start[e.firstNode + p] = clock + prefix * r;
                prefix += op_exec[p] + op_ovh[p];
                tl.end[e.firstNode + p] = p + 1 == e.op.nodeCount
                                              ? clock + block_dur
                                              : clock + prefix * r;
            }
            clock += block_dur;
            tl.opSeconds[e.index] = block_dur;
            busy += block_dur;
        }
        tl.makespan = clock;
        tl.streamBusySeconds = {busy};
        return tl;
    }

    tl.streamBusySeconds.assign(copy_stream ? 2 : 1, 0.0);
    double cursor[2] = {0.0, 0.0};
    double host_clock = 0.0;
    KernelDeps deps;
    for (const ExecutedOp e : plan.executed()) {
        const double r = static_cast<double>(e.op.repeat);
        for (std::size_t p = 0; p < e.op.nodeCount; ++p) {
            const std::size_t n = e.firstNode + p;
            const std::size_t stored = e.op.firstNode + p;
            const PlanNode& node = plan.nodes[stored];
            const double overhead =
                opts.graphLaunch
                    ? ovh[stored] *
                          (1.0 + (r - 1.0) *
                                     opts.graphReplayOverheadFraction)
                    : ovh[stored] * r;
            tl.launchOverheadSeconds += overhead;
            double launched = 0.0;
            double duration = exec_sec[stored] * r;
            if (q == 0) {
                duration += overhead;
            } else {
                double issue = host_clock;
                if (n >= static_cast<std::size_t>(q))
                    issue = std::max(
                        issue, tl.start[n - static_cast<std::size_t>(q)]);
                host_clock = issue + overhead;
                launched = host_clock;
            }
            const int stream =
                copy_stream && node.lane == Lane::Copy ? 1 : 0;
            double start = std::max(cursor[stream], launched);
            deps.next(node.lane, p == 0, [&](KernelDeps::Dep dep) {
                start = std::max(start, tl.end[dep.kernel]);
            });
            tl.start[n] = start;
            tl.end[n] = start + duration;
            tl.stream[n] = stream;
            cursor[stream] = tl.end[n];
            tl.streamBusySeconds[static_cast<std::size_t>(stream)] +=
                duration;
            tl.nodeSeconds[n] = duration;
            tl.opSeconds[e.index] += duration;
            tl.makespan = std::max(tl.makespan, tl.end[n]);
        }
    }
    return tl;
}

TEST(ScheduleOptions, DefaultDetection)
{
    EXPECT_TRUE(ScheduleOptions().isDefault());
    ScheduleOptions o;
    o.streams = 2;
    EXPECT_FALSE(o.isDefault());
    o = ScheduleOptions();
    o.launchQueueDepth = 1;
    EXPECT_FALSE(o.isDefault());
    o = ScheduleOptions();
    o.graphLaunch = true;
    EXPECT_FALSE(o.isDefault());
    o = ScheduleOptions();
    o.graphReplayOverheadFraction = 0.5;
    EXPECT_FALSE(o.isDefault());
}

TEST(TimelineScheduler, RejectsInvalidOptions)
{
    ScheduleOptions bad;
    bad.streams = 0;
    EXPECT_THROW(TimelineScheduler(gpu(), bad), FatalError);
    bad = ScheduleOptions();
    bad.launchQueueDepth = -1;
    EXPECT_THROW(TimelineScheduler(gpu(), bad), FatalError);
    bad = ScheduleOptions();
    bad.graphReplayOverheadFraction = 1.5;
    EXPECT_THROW(TimelineScheduler(gpu(), bad), FatalError);
}

TEST(TimelineScheduler, SerialScheduleMatchesSummedRoofline)
{
    const ExecutionPlan plan =
        lowerPipeline(toyPipeline(5), costModel());
    const Timeline tl = TimelineScheduler(gpu()).schedule(plan);

    ASSERT_EQ(tl.eventCount(), plan.nodes.size());
    ASSERT_EQ(tl.nodeSeconds.size(), plan.nodes.size());
    ASSERT_EQ(tl.opSeconds.size(), plan.ops.size());
    ASSERT_EQ(tl.streamBusySeconds.size(), 1u);

    // Per op the makespan contribution is (sum of part seconds) *
    // repeat — the seed profiler's exact arithmetic.
    double expected = 0.0;
    for (const PlanOp& op : plan.ops) {
        double block = 0.0;
        for (std::size_t n = op.firstNode;
             n < op.firstNode + op.nodeCount; ++n)
            block += nodeRooflineSeconds(plan.nodes[n], op);
        expected += block * static_cast<double>(op.repeat);
    }
    EXPECT_EQ(tl.makespan, expected); // bitwise
    EXPECT_EQ(tl.streamBusySeconds[0], expected);

    // Events tile [0, makespan) back to back on stream 0.
    double clock = 0.0;
    EXPECT_FALSE(tl.copyStream);
    for (std::size_t i = 0; i < tl.eventCount(); ++i) {
        // A folded plan executes each stored node once, in order.
        const TimelineEvent ev = tl.event(i, plan.nodes[i].lane);
        EXPECT_EQ(ev.node, i);
        EXPECT_EQ(ev.stream, 0);
        EXPECT_EQ(ev.startSeconds, clock) << "event " << i;
        EXPECT_GT(ev.endSeconds, ev.startSeconds);
        clock = ev.endSeconds;
    }
    EXPECT_EQ(clock, tl.makespan);
    // Per-node attribution applies its op's repeats.
    for (const PlanOp& op : plan.ops) {
        for (std::size_t n = op.firstNode;
             n < op.firstNode + op.nodeCount; ++n) {
            EXPECT_EQ(tl.nodeSeconds[n],
                      nodeRooflineSeconds(plan.nodes[n], op) *
                          static_cast<double>(op.repeat));
        }
    }
}

TEST(TimelineScheduler, RejectsPlanLoweredForAnotherGpu)
{
    // The plan's cost table holds A100 roofline times; an H100
    // scheduler must refuse them rather than replay A100 times.
    const ExecutionPlan plan = lowerPipeline(
        models::buildModel(models::ModelId::StableDiffusion), costModel());
    EXPECT_THROW(TimelineScheduler(hw::GpuSpec::h100_80gb()).schedule(plan),
                 FatalError);
    ScheduleOptions overlap;
    overlap.streams = 2;
    overlap.launchQueueDepth = 8;
    EXPECT_THROW(
        TimelineScheduler(hw::GpuSpec::h100_80gb(), overlap).schedule(plan),
        FatalError);
    EXPECT_NO_THROW(TimelineScheduler(gpu()).schedule(plan));

    // Cost rows that do not cover the stored nodes are refused too.
    ExecutionPlan short_costs = plan;
    short_costs.costs.overheadSeconds.pop_back();
    EXPECT_THROW(TimelineScheduler(gpu()).schedule(short_costs),
                 FatalError);
}

TEST(TimelineScheduler, DeterministicAcrossRuns)
{
    const ExecutionPlan plan = splitPlan(mlpPipeline());
    ScheduleOptions o;
    o.streams = 2;
    o.launchQueueDepth = 2;
    const TimelineScheduler sched(gpu(), o);
    const Timeline a = sched.schedule(plan);
    const Timeline b = sched.schedule(plan);
    ASSERT_EQ(a.eventCount(), b.eventCount());
    EXPECT_EQ(a.makespan, b.makespan);
    for (std::size_t i = 0; i < a.eventCount(); ++i) {
        EXPECT_EQ(a.eventStart[i], b.eventStart[i]);
        EXPECT_EQ(a.eventEnd[i], b.eventEnd[i]);
    }
    // The stream derives from the lane and this flag.
    EXPECT_EQ(a.copyStream, b.copyStream);
    EXPECT_EQ(a.nodeSeconds, b.nodeSeconds);
    EXPECT_EQ(a.opSeconds, b.opSeconds);
}

TEST(TimelineScheduler, CopyStreamOverlapsComputeAndNeverHurts)
{
    const ExecutionPlan plan = splitPlan(mlpPipeline());
    ASSERT_TRUE(plan.hasWeightStreams);

    const Timeline serial = TimelineScheduler(gpu()).schedule(plan);
    ScheduleOptions o;
    o.streams = 2;
    const Timeline overlapped =
        TimelineScheduler(gpu(), o).schedule(plan);

    ASSERT_EQ(overlapped.streamBusySeconds.size(), 2u);
    EXPECT_GT(overlapped.streamBusySeconds[1], 0.0);
    EXPECT_FALSE(serial.copyStream);
    EXPECT_TRUE(overlapped.copyStream);
    bool copy_stream_used = false;
    for (const ExecutedOp e : plan.executed()) {
        for (std::size_t p = 0; p < e.op.nodeCount; ++p) {
            const Lane lane = plan.nodes[e.op.firstNode + p].lane;
            copy_stream_used |=
                overlapped.event(e.firstNode + p, lane).stream == 1;
        }
    }
    EXPECT_TRUE(copy_stream_used);

    // Prefetching weights under compute strictly shortens this plan
    // (the peeled kernels were memory-bound), and can never lengthen
    // it.
    EXPECT_LT(overlapped.makespan, serial.makespan);
    // The makespan still covers both streams' busy time.
    EXPECT_GE(overlapped.makespan, overlapped.streamBusySeconds[0]);
    EXPECT_GE(overlapped.makespan, overlapped.streamBusySeconds[1]);
}

TEST(TimelineScheduler, WithoutCopyNodesMultiStreamIsBitIdentical)
{
    // streams=2 on a plan with no weight streams routes everything to
    // stream 0 through the serial path: bit-identical to default.
    const ExecutionPlan plan =
        lowerPipeline(toyPipeline(5), costModel());
    ScheduleOptions o;
    o.streams = 2;
    const Timeline serial = TimelineScheduler(gpu()).schedule(plan);
    const Timeline multi = TimelineScheduler(gpu(), o).schedule(plan);
    EXPECT_EQ(multi.makespan, serial.makespan);
    ASSERT_EQ(multi.streamBusySeconds.size(), 1u);
}

TEST(TimelineScheduler, LaunchQueueHidesOverhead)
{
    const ExecutionPlan plan =
        lowerPipeline(toyPipeline(50), costModel());
    const Timeline sync = TimelineScheduler(gpu()).schedule(plan);

    ScheduleOptions queued;
    queued.launchQueueDepth = 2;
    const Timeline deep =
        TimelineScheduler(gpu(), queued).schedule(plan);

    // Same host overhead is paid either way...
    EXPECT_DOUBLE_EQ(deep.launchOverheadSeconds,
                     sync.launchOverheadSeconds);
    EXPECT_GT(sync.launchOverheadSeconds, 0.0);
    // ...but the queue hides (some of) it under device execution.
    EXPECT_LT(deep.makespan, sync.makespan);

    // Lower bound: pure device time with every launch hidden.
    double device = 0.0;
    for (std::size_t i = 0; i < deep.eventCount(); ++i)
        device += deep.eventDuration(i);
    EXPECT_GE(deep.makespan, device);
    EXPECT_LE(deep.makespan, sync.makespan);
}

TEST(TimelineScheduler, GraphLaunchAmortizesRepeatOverhead)
{
    const ExecutionPlan plan =
        lowerPipeline(toyPipeline(50), costModel());
    const Timeline sync = TimelineScheduler(gpu()).schedule(plan);

    ScheduleOptions graphed;
    graphed.launchQueueDepth = 2;
    graphed.graphLaunch = true;
    graphed.graphReplayOverheadFraction = 0.1;
    const Timeline amortized =
        TimelineScheduler(gpu(), graphed).schedule(plan);

    // 50 folded iterations pay 1 + 49 * 0.1 launches instead of 50.
    EXPECT_LT(amortized.launchOverheadSeconds,
              0.2 * sync.launchOverheadSeconds);
    EXPECT_GT(amortized.launchOverheadSeconds, 0.0);
    EXPECT_LE(amortized.makespan, sync.makespan);

    // Free replays collapse overhead to one launch per node.
    ScheduleOptions free_replay = graphed;
    free_replay.graphReplayOverheadFraction = 0.0;
    const Timeline free_tl =
        TimelineScheduler(gpu(), free_replay).schedule(plan);
    EXPECT_DOUBLE_EQ(free_tl.launchOverheadSeconds,
                     sync.launchOverheadSeconds / 50.0);
}

TEST(TimelineScheduler, DependenciesAlwaysHonored)
{
    for (const Pipeline& p :
         {mlpPipeline(),
          models::buildModel(models::ModelId::StableDiffusion),
          models::buildModel(models::ModelId::Parti)}) {
        const ExecutionPlan plan = splitPlan(p);
        ASSERT_TRUE(plan.hasWeightStreams) << p.name;
        for (const int q : {0, 1, 4}) {
            ScheduleOptions o;
            o.streams = 2;
            o.launchQueueDepth = q;
            const Timeline tl =
                TimelineScheduler(gpu(), o).schedule(plan);
            KernelDeps deps;
            std::size_t cross_lane = 0;
            for (const ExecutedOp e : plan.executed()) {
                for (std::size_t i = 0; i < e.op.nodeCount; ++i) {
                    const std::size_t n = e.firstNode + i;
                    const Lane lane = plan.nodes[e.op.firstNode + i].lane;
                    deps.next(lane, i == 0, [&](KernelDeps::Dep dep) {
                        cross_lane += dep.lane != lane;
                        EXPECT_GE(tl.eventStart[n], tl.eventEnd[dep.kernel])
                            << p.name << " node " << n << " dep "
                            << dep.kernel << " depth " << q;
                    });
                }
            }
            // Each weight stream feeds its op's first compute kernel.
            EXPECT_GT(cross_lane, 0u) << p.name;
        }
    }
}

TEST(TimelineScheduler, MatchesPerKernelReferenceBitwise)
{
    std::vector<ScheduleOptions> configs(3);
    configs[1].streams = 2;
    configs[1].launchQueueDepth = 8;
    configs[2].graphLaunch = true;
    configs[2].graphReplayOverheadFraction = 0.25;
    const ExecutionPlan plans[] = {
        lowerPipeline(models::buildModel(models::ModelId::Parti),
                      costModel()),
        splitPlan(models::buildModel(models::ModelId::StableDiffusion)),
    };
    // Parti's decode executes most stored records many times, so the
    // per-stored columns are exercised where they differ most.
    ASSERT_LT(plans[0].nodes.size(), plans[0].executedNodeCount());
    ASSERT_TRUE(plans[1].hasWeightStreams);
    for (const ExecutionPlan& plan : plans) {
        for (const ScheduleOptions& opts : configs) {
            const PerKernelTimeline ref = referenceSchedule(plan, opts);
            const Timeline tl = TimelineScheduler(gpu(), opts).schedule(plan);
            const std::string what =
                plan.model + " streams " + std::to_string(opts.streams) +
                " depth " + std::to_string(opts.launchQueueDepth) +
                " graph " + std::to_string(opts.graphLaunch);
            ASSERT_EQ(tl.eventCount(), plan.executedNodeCount()) << what;
            ASSERT_EQ(tl.nodeSeconds.size(), plan.nodes.size()) << what;
            ASSERT_EQ(tl.opSeconds.size(), plan.ops.size()) << what;
            // Whole-column compares; a failure prints no 1.4M doubles.
            EXPECT_TRUE(tl.eventStart == ref.start) << what;
            EXPECT_TRUE(tl.eventEnd == ref.end) << what;
            EXPECT_EQ(tl.makespan, ref.makespan) << what;
            EXPECT_EQ(tl.streamBusySeconds, ref.streamBusySeconds)
                << what;
            EXPECT_EQ(tl.launchOverheadSeconds, ref.launchOverheadSeconds)
                << what;

            // Per executed kernel and op, the stored record's entry.
            std::size_t mismatches = 0;
            for (const ExecutedOp e : plan.executed()) {
                mismatches += tl.opSeconds[e.opIndex] != ref.opSeconds[e.index];
                for (std::size_t p = 0; p < e.op.nodeCount; ++p) {
                    const std::size_t n = e.firstNode + p;
                    const std::size_t stored = e.op.firstNode + p;
                    mismatches +=
                        tl.nodeSeconds[stored] != ref.nodeSeconds[n];
                    mismatches += tl.event(n, plan.nodes[stored].lane)
                                      .stream != ref.stream[n];
                }
            }
            EXPECT_EQ(mismatches, 0u) << what;
        }
    }
}

TEST(TimelineScheduler, TotalsMatchScheduleBitwise)
{
    std::vector<ScheduleOptions> configs(5);
    configs[1].streams = 2;
    configs[1].launchQueueDepth = 8;
    configs[2].launchQueueDepth = 1;
    configs[3].graphLaunch = true;
    configs[3].graphReplayOverheadFraction = 0.25;
    // The launch window never fills: no start is read back for it.
    configs[4].launchQueueDepth = std::numeric_limits<int>::max();
    const ExecutionPlan plans[] = {
        lowerPipeline(models::buildModel(models::ModelId::Parti),
                      costModel()),
        splitPlan(models::buildModel(models::ModelId::StableDiffusion)),
    };
    ASSERT_TRUE(plans[1].hasWeightStreams);
    for (const ExecutionPlan& plan : plans) {
        for (const ScheduleOptions& opts : configs) {
            const TimelineScheduler scheduler(gpu(), opts);
            const Timeline full = scheduler.schedule(plan);
            const Timeline totals = scheduler.scheduleTotals(plan);
            const std::string what =
                plan.model + " streams " + std::to_string(opts.streams) +
                " depth " + std::to_string(opts.launchQueueDepth) +
                " graph " + std::to_string(opts.graphLaunch);
            EXPECT_EQ(totals.eventCount(), 0u) << what;
            // The overlap loop's columns are released, not just emptied.
            EXPECT_EQ(totals.eventStart.capacity(), 0u) << what;
            EXPECT_EQ(totals.eventEnd.capacity(), 0u) << what;
            EXPECT_EQ(totals.copyStream, full.copyStream) << what;
            EXPECT_EQ(totals.makespan, full.makespan) << what;
            EXPECT_EQ(totals.streamBusySeconds, full.streamBusySeconds)
                << what;
            EXPECT_EQ(totals.launchOverheadSeconds,
                      full.launchOverheadSeconds)
                << what;
            // Whole-column compares; a failure prints no 83k doubles.
            EXPECT_TRUE(totals.nodeSeconds == full.nodeSeconds) << what;
            EXPECT_TRUE(totals.opSeconds == full.opSeconds) << what;
            // No reader of events accepts it.
            EXPECT_THROW(analyzeMemory(plan, totals), FatalError) << what;
        }
    }
}

TEST(TimelineScheduler, OverlapNeverSlowerOnSuiteModels)
{
    // The bench gate's property, spot-checked in-tree on two models.
    ScheduleOptions o;
    o.streams = 2;
    o.launchQueueDepth = 2;
    const TimelineScheduler overlap(gpu(), o);
    const TimelineScheduler serial(gpu());
    for (const models::ModelId id :
         {models::ModelId::StableDiffusion, models::ModelId::Muse}) {
        const Pipeline p = models::buildModel(id);
        const ExecutionPlan plain = lowerPipeline(p, costModel());
        const ExecutionPlan split = splitPlan(p);
        const double base = serial.schedule(plain).makespan;
        const double fast = overlap.schedule(split).makespan;
        EXPECT_LE(fast, base * (1.0 + 1e-9)) << p.name;
    }
}

} // namespace
} // namespace mmgen::exec
