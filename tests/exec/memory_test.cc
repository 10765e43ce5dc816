/**
 * @file
 * Static memory analysis over lowered plans: liveness interval
 * sanity, the reuse-bound ordering weights <= programPeak <=
 * scheduledPeak <= noReuse across the whole zoo and every attention
 * backend, byte-identical profiles at any --jobs count, the scheduled
 * sweep against a full-endpoint reference sort, and the monotonicity +
 * capacity contracts of the feasibility bound.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/liveness.hh"
#include "exec/memory.hh"
#include "exec/schedule.hh"
#include "kernels/cost_model.hh"
#include "models/model_suite.hh"
#include "models/stable_diffusion.hh"
#include "runtime/parallel.hh"

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
 * Reference sweep: the full-endpoint sort analyzeMemory used before it
 * merged sorted index lists. Both endpoints of every buffer are
 * materialized and sorted by time, allocations before frees at equal
 * time, buffer index last.
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
    ref.noReuseBytes = lv.weightBytes;
    for (const LiveBuffer& b : lv.buffers)
        ref.noReuseBytes += b.bytes;

    std::vector<double> alloc_at(plan.nodes.size(), 0.0);
    std::vector<double> free_after(plan.nodes.size(), 0.0);
    for (const LiveBuffer& b : lv.buffers) {
        alloc_at[b.defNode] += b.bytes;
        free_after[b.lastUseNode] += b.bytes;
    }
    double cur = lv.weightBytes;
    ref.programPeakBytes = lv.weightBytes;
    for (std::size_t k = 0; k < plan.nodes.size(); ++k) {
        cur += alloc_at[k];
        ref.programPeakBytes = std::max(ref.programPeakBytes, cur);
        cur -= free_after[k];
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
        EXPECT_LT(b.lastUseNode, plan.nodes.size());
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
    // before buffers with lower indices, so the allocation list needs
    // its sort.
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

            const MemoryProfile got = analyzeMemory(plan, timeline);
            const MemoryProfile want = referenceSweep(plan, timeline);
            // Bitwise equality: the merge visits the reference order.
            EXPECT_EQ(got.scheduledPeakBytes, want.scheduledPeakBytes)
                << what;
            EXPECT_EQ(got.scheduledPeakSeconds,
                      want.scheduledPeakSeconds)
                << what;
            EXPECT_EQ(got.peakNodes, want.peakNodes) << what;
            EXPECT_EQ(got.programPeakBytes, want.programPeakBytes)
                << what;
            EXPECT_EQ(got.noReuseBytes, want.noReuseBytes) << what;

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
        if (prev >= 0)
            EXPECT_LE(batch, prev)
                << "batch bound grew with image size " << image;
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
