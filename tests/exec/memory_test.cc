/**
 * @file
 * Static memory analysis over lowered plans: liveness interval
 * sanity, the reuse-bound ordering weights <= programPeak <=
 * scheduledPeak <= noReuse across the whole zoo and every attention
 * backend, byte-identical profiles at any --jobs count, every profile
 * field against a full-endpoint reference sort (zoo timelines, plus
 * orders the scheduler never produces: an allocation and a free at one
 * instant, a free before its def, a mirrored Parti timeline, jittered
 * toy timelines around the release bound's block edges), and the
 * monotonicity + capacity contracts of the feasibility bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "exec/liveness.hh"
#include "exec/memory.hh"
#include "exec/schedule.hh"
#include "kernels/cost_model.hh"
#include "models/model_suite.hh"
#include "models/stable_diffusion.hh"
#include "runtime/parallel.hh"
#include "util/rng.hh"

namespace mmgen::exec {
namespace {

MemoryProfile
profileModel(models::ModelId id, graph::AttentionBackend backend)
{
    const graph::Pipeline p = models::buildModel(id);
    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    const kernels::CostModel model(gpu, backend,
                                   kernels::EfficiencyParams::defaults());
    const ExecutionPlan plan = lowerPipeline(p, model);
    const Timeline timeline = TimelineScheduler(gpu).schedule(plan);
    return analyzeMemory(plan, timeline);
}

/**
 * Reference sweep: every endpoint of every buffer is materialized and
 * sorted by time, allocations before frees at equal time, buffer index
 * last. The program-order sweep adds per-kernel sums from full
 * per-kernel arrays. Both are the oracle analyzeMemory's streaming
 * sweeps must match bit for bit.
 */
MemoryProfile
referenceSweep(const ExecutionPlan& plan, const Timeline& timeline)
{
    struct SweepEvent
    {
        double time = 0.0;
        double delta = 0.0;
        std::size_t buffer = 0;
        bool isAlloc = false;
    };
    const Liveness lv = deriveLiveness(plan);
    MemoryProfile ref;
    ref.weightBytes = lv.weightBytes;
    ref.bufferCount = lv.buffers.size();
    ref.noReuseBytes = lv.weightBytes;
    for (const LiveBuffer& b : lv.buffers)
        ref.noReuseBytes += b.bytes;

    const std::size_t num_nodes = plan.executedNodeCount();
    std::vector<double> alloc_at(num_nodes, 0.0);
    std::vector<double> free_after(num_nodes, 0.0);
    for (const LiveBuffer& b : lv.buffers) {
        alloc_at[b.defNode] += b.bytes;
        free_after[b.lastUseNode] += b.bytes;
    }
    for (const std::string& name : plan.stageNames)
        ref.stageResidency.push_back({name, 0.0});
    double cur = lv.weightBytes;
    ref.programPeakBytes = lv.weightBytes;
    for (const ExecutedOp e : plan.executed()) {
        StageResidency& sr = ref.stageResidency[e.op.stageIndex];
        for (std::size_t k = e.firstNode;
             k < e.firstNode + e.op.nodeCount; ++k) {
            cur += alloc_at[k];
            ref.programPeakBytes = std::max(ref.programPeakBytes, cur);
            sr.peakBytes = std::max(sr.peakBytes, cur);
            cur -= free_after[k];
        }
    }

    std::vector<SweepEvent> events;
    for (std::size_t bi = 0; bi < lv.buffers.size(); ++bi) {
        const LiveBuffer& b = lv.buffers[bi];
        events.push_back({timeline.eventStart[b.defNode], b.bytes, bi,
                          true});
        events.push_back({timeline.eventEnd[b.lastUseNode], -b.bytes,
                          bi, false});
    }
    std::sort(events.begin(), events.end(),
              [](const SweepEvent& a, const SweepEvent& b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  if (a.isAlloc != b.isAlloc)
                      return a.isAlloc;
                  return a.buffer < b.buffer;
              });
    ref.scheduledPeakBytes = lv.weightBytes;
    cur = lv.weightBytes;
    std::size_t peak_event = events.size();
    for (std::size_t ei = 0; ei < events.size(); ++ei) {
        cur += events[ei].delta;
        if (cur > ref.scheduledPeakBytes) {
            ref.scheduledPeakBytes = cur;
            ref.scheduledPeakSeconds = events[ei].time;
            peak_event = ei;
        }
    }
    if (peak_event < events.size()) {
        std::vector<bool> live(lv.buffers.size(), false);
        for (std::size_t ei = 0; ei <= peak_event; ++ei)
            live[events[ei].buffer] = events[ei].isAlloc;
        for (std::size_t bi = 0; bi < lv.buffers.size(); ++bi) {
            if (live[bi])
                ref.peakNodes.push_back(lv.buffers[bi].defNode);
        }
        std::sort(ref.peakNodes.begin(), ref.peakNodes.end());
        ref.peakNodes.erase(
            std::unique(ref.peakNodes.begin(), ref.peakNodes.end()),
            ref.peakNodes.end());
    }
    return ref;
}

/** Bitwise equality of every MemoryProfile field. */
void
expectSameProfile(const MemoryProfile& got, const MemoryProfile& want,
                  const std::string& what)
{
    EXPECT_EQ(got.weightBytes, want.weightBytes) << what;
    EXPECT_EQ(got.programPeakBytes, want.programPeakBytes) << what;
    EXPECT_EQ(got.scheduledPeakBytes, want.scheduledPeakBytes) << what;
    EXPECT_EQ(got.scheduledPeakSeconds, want.scheduledPeakSeconds)
        << what;
    EXPECT_EQ(got.noReuseBytes, want.noReuseBytes) << what;
    EXPECT_EQ(got.peakNodes, want.peakNodes) << what;
    ASSERT_EQ(got.stageResidency.size(), want.stageResidency.size())
        << what;
    for (std::size_t s = 0; s < want.stageResidency.size(); ++s) {
        EXPECT_EQ(got.stageResidency[s].stage,
                  want.stageResidency[s].stage)
            << what;
        EXPECT_EQ(got.stageResidency[s].peakBytes,
                  want.stageResidency[s].peakBytes)
            << what << " stage " << want.stageResidency[s].stage;
    }
    EXPECT_EQ(got.bufferCount, want.bufferCount) << what;
}

/** One single-kernel op of a toy plan. */
struct ToyOp
{
    double outputBytes = 0.0;
    double workspaceBytes = 0.0;
    double start = 0.0;
    double end = 0.0;
};

/**
 * A one-stage plan of single-kernel ops with 1,000 f16 parameters, and
 * a hand-built timeline placing each kernel at [start, end).
 */
std::pair<ExecutionPlan, Timeline>
toyPlan(const std::vector<ToyOp>& toy)
{
    ExecutionPlan plan;
    plan.stageNames = {"toy"};
    plan.totalParams = 1000;
    Timeline timeline;
    for (std::size_t i = 0; i < toy.size(); ++i) {
        PlanOp op;
        op.outputBytes = toy[i].outputBytes;
        op.workspaceBytes = toy[i].workspaceBytes;
        op.firstNode = i;
        op.nodeCount = 1;
        plan.ops.push_back(op);
        plan.nodes.emplace_back();
        plan.opSequence.push_back(static_cast<std::uint32_t>(i));
        ++plan.executedNodes;
        timeline.eventStart.push_back(toy[i].start);
        timeline.eventEnd.push_back(toy[i].end);
        timeline.makespan = std::max(timeline.makespan, toy[i].end);
    }
    return {std::move(plan), std::move(timeline)};
}

TEST(Liveness, IntervalsAreClosedAndOrdered)
{
    const graph::Pipeline p =
        models::buildModel(models::ModelId::StableDiffusion);
    const kernels::CostModel model(
        hw::GpuSpec::a100_80gb(), graph::AttentionBackend::Flash,
        kernels::EfficiencyParams::defaults());
    const ExecutionPlan plan = lowerPipeline(p, model);
    const Liveness live = deriveLiveness(plan);

    EXPECT_GT(live.weightBytes, 0.0);
    EXPECT_FALSE(live.buffers.empty());
    std::size_t prev_def = 0;
    for (const LiveBuffer& b : live.buffers) {
        EXPECT_LE(b.defNode, b.lastUseNode);
        EXPECT_LT(b.lastUseNode, plan.executedNodeCount());
        EXPECT_LT(b.opIndex, plan.ops.size());
        EXPECT_GE(b.bytes, 0.0);
        EXPECT_GE(b.defNode, prev_def) << "buffers not in def order";
        prev_def = b.defNode;
    }
}

TEST(MemoryProfile, BoundsOrderedForWholeZooEveryBackend)
{
    for (models::ModelId id : models::allModels()) {
        for (graph::AttentionBackend backend :
             {graph::AttentionBackend::Baseline,
              graph::AttentionBackend::Flash,
              graph::AttentionBackend::FlashDecode}) {
            const MemoryProfile m = profileModel(id, backend);
            const graph::Pipeline p = models::buildModel(id);
            const std::string what =
                p.name + "/" + graph::attentionBackendName(backend);
            EXPECT_GT(m.weightBytes, 0.0) << what;
            // Resident weights are exactly every parameter at the
            // pipeline's dtype, whatever the backend.
            EXPECT_EQ(m.weightBytes,
                      static_cast<double>(p.totalParams()) *
                          static_cast<double>(dtypeBytes(p.dtype)))
                << what;
            EXPECT_LE(m.weightBytes, m.programPeakBytes) << what;
            EXPECT_LE(m.programPeakBytes, m.scheduledPeakBytes)
                << what;
            EXPECT_LE(m.scheduledPeakBytes, m.noReuseBytes) << what;
            EXPECT_GE(m.scheduledPeakSeconds, 0.0) << what;
            EXPECT_FALSE(m.peakNodes.empty()) << what;
            EXPECT_FALSE(m.stageResidency.empty()) << what;
            // Stage residency peaks are bounded by the global
            // program-order peak, and every stage holds the weights.
            for (const StageResidency& s : m.stageResidency) {
                EXPECT_GE(s.peakBytes, m.weightBytes) << what;
                EXPECT_LE(s.peakBytes, m.programPeakBytes) << what;
            }
        }
    }
}

std::vector<MemoryProfile>
sweepZoo()
{
    const std::vector<models::ModelId> ids = models::allModels();
    return runtime::parallelMap(
        static_cast<std::int64_t>(ids.size()), [&](std::int64_t i) {
            return profileModel(ids[static_cast<std::size_t>(i)],
                                graph::AttentionBackend::Flash);
        });
}

TEST(MemoryProfile, BitIdenticalAcrossJobs)
{
    runtime::setGlobalJobs(1);
    const std::vector<MemoryProfile> serial = sweepZoo();
    for (const int jobs : {2, 8}) {
        runtime::setGlobalJobs(jobs);
        const std::vector<MemoryProfile> parallel = sweepZoo();
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            // Bitwise equality, not NEAR: determinism is the contract.
            EXPECT_EQ(parallel[i].weightBytes, serial[i].weightBytes);
            EXPECT_EQ(parallel[i].programPeakBytes,
                      serial[i].programPeakBytes);
            EXPECT_EQ(parallel[i].scheduledPeakBytes,
                      serial[i].scheduledPeakBytes);
            EXPECT_EQ(parallel[i].scheduledPeakSeconds,
                      serial[i].scheduledPeakSeconds);
            EXPECT_EQ(parallel[i].noReuseBytes,
                      serial[i].noReuseBytes);
            EXPECT_EQ(parallel[i].peakNodes, serial[i].peakNodes);
            EXPECT_EQ(parallel[i].bufferCount,
                      serial[i].bufferCount);
        }
    }
    runtime::setGlobalJobs(0);
}

TEST(MemoryProfile, SweepMatchesReferenceSort)
{
    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    // The overlapped timeline lets the copy lane run ahead: an op with
    // a weight stream allocates its buffers when the prefetch starts,
    // before buffers with lower indices, so the pending-allocation heap
    // must reorder them.
    LoweringOptions streamed;
    streamed.splitWeightStreams = true;
    ScheduleOptions overlapped;
    overlapped.streams = 2;
    overlapped.launchQueueDepth = 8;
    int unsorted_timelines = 0;
    for (models::ModelId id : models::allModels()) {
        const graph::Pipeline p = models::buildModel(id);
        const kernels::CostModel model(
            gpu, graph::AttentionBackend::Flash,
            kernels::EfficiencyParams::defaults());
        for (const bool overlap : {false, true}) {
            const ExecutionPlan plan =
                overlap ? lowerPipeline(p, model, streamed)
                        : lowerPipeline(p, model);
            const Timeline timeline =
                TimelineScheduler(gpu, overlap ? overlapped
                                               : ScheduleOptions())
                    .schedule(plan);
            const std::string what =
                p.name + (overlap ? "/overlapped" : "/serial");

            // Bitwise equality: the streaming sweep visits the
            // reference order.
            expectSameProfile(analyzeMemory(plan, timeline),
                              referenceSweep(plan, timeline), what);

            const Liveness lv = deriveLiveness(plan);
            const bool allocs_sorted = std::is_sorted(
                lv.buffers.begin(), lv.buffers.end(),
                [&](const LiveBuffer& a, const LiveBuffer& b) {
                    return timeline.eventStart[a.defNode] <
                           timeline.eventStart[b.defNode];
                });
            unsorted_timelines += !allocs_sorted;
        }
    }
    EXPECT_GT(unsorted_timelines, 0)
        << "no timeline allocates out of buffer order";
}

TEST(MemoryProfile, SweepAllocatesBeforeFreeAtEqualTime)
{
    // A's activation [0, 1] and B's workspace free at t = 2, the
    // instant C's workspace allocates. Closed intervals coexist, so
    // the allocation sweeps first and all three form the peak.
    const auto [plan, timeline] = toyPlan({{100.0, 0.0, 0.0, 1.0},
                                           {0.0, 10.0, 1.0, 2.0},
                                           {0.0, 1000.0, 2.0, 3.0}});
    const MemoryProfile got = analyzeMemory(plan, timeline);
    expectSameProfile(got, referenceSweep(plan, timeline), "toy");
    EXPECT_EQ(got.scheduledPeakBytes, 2000.0 + 100.0 + 10.0 + 1000.0);
    EXPECT_EQ(got.scheduledPeakSeconds, 2.0);
    EXPECT_EQ(got.peakNodes, (std::vector<std::size_t>{0, 1, 2}));
    EXPECT_EQ(got.programPeakBytes, 2000.0 + 1000.0);
}

TEST(MemoryProfile, SweepKeepsBufferFreedBeforeItsDef)
{
    // A runs at [5, 6) but its consumer B at [0, 1): A's activation is
    // freed at t = 1, before its allocation at t = 5. It then stays
    // live, so it is part of the peak C reaches at t = 6.
    const auto [plan, timeline] = toyPlan({{100.0, 0.0, 5.0, 6.0},
                                           {0.0, 10.0, 0.0, 1.0},
                                           {0.0, 50.0, 6.0, 7.0}});
    const MemoryProfile got = analyzeMemory(plan, timeline);
    expectSameProfile(got, referenceSweep(plan, timeline), "toy");
    EXPECT_EQ(got.scheduledPeakBytes, 2000.0 + 50.0);
    EXPECT_EQ(got.scheduledPeakSeconds, 6.0);
    EXPECT_EQ(got.peakNodes, (std::vector<std::size_t>{0, 2}));
}

TEST(MemoryProfile, SweepMatchesReferenceOnMirroredTimeline)
{
    // Mirroring Parti's serial timeline, [s, e) -> [M - e, M - s), runs
    // it backwards: the last kernel starts first, so no endpoint can
    // sweep before the last op is enumerated and all ~1.8M buffers are
    // pending at once. A pending list with linear-time insertion would
    // take minutes here.
    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    const kernels::CostModel model(gpu, graph::AttentionBackend::Flash,
                                   kernels::EfficiencyParams::defaults());
    const ExecutionPlan plan =
        lowerPipeline(models::buildModel(models::ModelId::Parti), model);
    const Timeline serial = TimelineScheduler(gpu).schedule(plan);
    Timeline mirrored = serial;
    for (std::size_t k = 0; k < serial.eventCount(); ++k) {
        mirrored.eventStart[k] = serial.makespan - serial.eventEnd[k];
        mirrored.eventEnd[k] = serial.makespan - serial.eventStart[k];
    }
    expectSameProfile(analyzeMemory(plan, mirrored),
                      referenceSweep(plan, mirrored), "Parti/mirrored");
}

TEST(MemoryProfile, SweepMatchesReferenceAtBoundBlockEdges)
{
    // The release bound is kept per block of kSweepBoundBlock kernels.
    // Each toy op is one kernel, so the bound is read after every
    // kernel, on plans ending one kernel before, at and one kernel
    // after a block edge. Kernels run [i, i + 1) plus a seeded jitter,
    // except one "dip" kernel j near an edge, which starts 2.5 earlier
    // and allocates a huge workspace. The true bound read after
    // kernels j - 2 and j - 1 is j's start, which holds back the free
    // of kernel j - 3's workspace (at about j - 2) until j allocates,
    // so the peak holds both. A bound that misses j's start frees it
    // first, and the peak comes out smaller.
    constexpr std::size_t kBlock = kSweepBoundBlock;
    int plans = 0;
    for (const std::size_t n :
         {kBlock - 1, kBlock, kBlock + 1, 2 * kBlock - 1, 2 * kBlock,
          2 * kBlock + 1}) {
        for (std::size_t edge = kBlock; edge <= n + 1; edge += kBlock) {
            for (std::size_t dip = edge - 2; dip <= edge + 1 && dip < n;
                 ++dip) {
                Rng rng(n * 31 + dip);
                std::vector<ToyOp> toy(n);
                for (std::size_t i = 0; i < n; ++i) {
                    toy[i].outputBytes = rng.uniform(0.0, 1.0);
                    toy[i].workspaceBytes = rng.uniform(0.0, 1.0);
                    toy[i].start =
                        static_cast<double>(i) + rng.uniform(0.0, 0.25);
                    toy[i].end = toy[i].start + 1.0;
                }
                toy[dip].start = static_cast<double>(dip) - 2.5;
                toy[dip].end = static_cast<double>(dip) + 1.0;
                toy[dip].workspaceBytes = 1e6;
                toy[dip - 3].workspaceBytes = 1e3;
                const auto [plan, timeline] = toyPlan(toy);
                const MemoryProfile got = analyzeMemory(plan, timeline);
                expectSameProfile(got, referenceSweep(plan, timeline),
                                  "toy of " + std::to_string(n) +
                                      " kernels, dip at " +
                                      std::to_string(dip));
                EXPECT_GT(got.scheduledPeakBytes, 2000.0 + 1e6 + 1e3);
                ++plans;
            }
        }
    }
    EXPECT_EQ(plans, 24);
}

TEST(Feasibility, BatchBoundMonotoneInImageSize)
{
    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    std::int64_t prev = -1;
    for (std::int64_t image : {256, 512, 768}) {
        models::StableDiffusionConfig cfg;
        cfg.imageSize = image;
        const std::int64_t batch =
            maxFeasibleBatch(models::buildStableDiffusion(cfg), gpu);
        EXPECT_GT(batch, 0) << "image " << image;
        if (prev >= 0) {
            EXPECT_LE(batch, prev)
                << "batch bound grew with image size " << image;
        }
        prev = batch;
    }
}

TEST(Feasibility, PartiDoesNotFitV100)
{
    const graph::Pipeline parti =
        models::buildModel(models::ModelId::Parti);
    // 20B f16 parameters are ~41 GiB: infeasible at any batch on a
    // 32 GB V100, comfortably feasible on an 80 GB A100.
    EXPECT_EQ(maxFeasibleBatch(parti, hw::GpuSpec::v100_32gb()), 0);
    EXPECT_GE(maxFeasibleBatch(parti, hw::GpuSpec::a100_80gb()), 1);
}

TEST(Feasibility, BaselineBackendRaisesActivationPeak)
{
    const graph::Pipeline sd =
        models::buildModel(models::ModelId::StableDiffusion);
    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    const double flash =
        analyzeFeasibility(sd, gpu, graph::AttentionBackend::Flash)
            .dynamicBytes;
    const double baseline =
        analyzeFeasibility(sd, gpu, graph::AttentionBackend::Baseline)
            .dynamicBytes;
    // The materialized similarity matrix (8 heads x 4096^2 fp16 =
    // 256 MiB) pushes the baseline per-request peak above the flash
    // peak, which is set by the VAE's full-resolution convolutions.
    EXPECT_GT(baseline, flash);
    EXPECT_GT(baseline, 256.0 * 1024 * 1024);
}

TEST(Feasibility, ReportIsInternallyConsistent)
{
    const FeasibilityReport rep = analyzeFeasibility(
        models::buildModel(models::ModelId::StableDiffusion),
        hw::GpuSpec::a100_80gb());
    EXPECT_EQ(rep.weightBytes, rep.profile.weightBytes);
    EXPECT_GT(rep.dynamicBytes, 0.0);
    EXPECT_EQ(rep.capacityBytes, hw::GpuSpec::a100_80gb().hbmBytes);
    // The bound is exactly the floor of remaining capacity over the
    // per-request dynamic demand.
    const double room = rep.capacityBytes - rep.weightBytes;
    EXPECT_LE(static_cast<double>(rep.maxBatch) * rep.dynamicBytes,
              room);
    EXPECT_GT(static_cast<double>(rep.maxBatch + 1) *
                  rep.dynamicBytes,
              room);
}

} // namespace
} // namespace mmgen::exec
