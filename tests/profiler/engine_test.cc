/**
 * @file
 * Tests for the profiling engine and its reports.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "models/model_suite.hh"
#include "models/stable_diffusion.hh"
#include "profiler/engine.hh"
#include "util/logging.hh"
#include "verify/verify.hh"

namespace mmgen::profiler {
namespace {

using graph::AttentionBackend;
using graph::GraphBuilder;
using graph::Pipeline;
using graph::Stage;

Pipeline
toyDiffusion(std::int64_t steps)
{
    Pipeline p;
    p.name = "toy";
    p.klass = graph::ModelClass::DiffusionLatent;
    Stage s;
    s.name = "unet";
    s.iterations = steps;
    s.emit = [](GraphBuilder& b, std::int64_t) {
        const TensorDesc x({1, 8, 16, 16}, DType::F16);
        b.conv2d(x, 8);
        b.attention(graph::AttentionKind::SelfSpatial, 1, 2, 256, 256,
                    16);
    };
    p.stages.push_back(std::move(s));
    return p;
}

TEST(Profiler, IterationFoldingScalesLinearly)
{
    Profiler prof;
    const ProfileResult one = prof.profile(toyDiffusion(1));
    const ProfileResult fifty = prof.profile(toyDiffusion(50));
    EXPECT_NEAR(fifty.totalSeconds, 50.0 * one.totalSeconds, 1e-12);
    EXPECT_NEAR(fifty.totalFlops, 50.0 * one.totalFlops, 1e-3);
    // The traced series is one fundamental period either way...
    EXPECT_EQ(one.seqLens.series().size(),
              fifty.seqLens.series().size());
    // ...but the histogram weights by executed iterations (Fig. 8).
    EXPECT_EQ(fifty.seqLens.histogram().totalWeight(),
              50 * one.seqLens.histogram().totalWeight());
}

TEST(Profiler, PerIterationStagesTraceEveryStep)
{
    Pipeline p;
    p.name = "ar";
    Stage s;
    s.name = "decode";
    s.iterations = 10;
    s.perIterationShapes = true;
    s.emit = [](GraphBuilder& b, std::int64_t iter) {
        b.attention(graph::AttentionKind::CausalSelf, 1, 2, 1, iter + 1,
                    16);
    };
    p.stages.push_back(std::move(s));
    const ProfileResult res = Profiler().profile(p);
    ASSERT_EQ(res.seqLens.series().size(), 10u);
    EXPECT_EQ(res.seqLens.series().front(), 1);
    EXPECT_EQ(res.seqLens.series().back(), 10);
}

TEST(Profiler, BackendChangesAttentionTimeOnly)
{
    ProfileOptions base_opts;
    base_opts.backend = AttentionBackend::Baseline;
    const ProfileResult base =
        Profiler(base_opts).profile(toyDiffusion(4));
    const ProfileResult flash = Profiler().profile(toyDiffusion(4));
    EXPECT_GT(base.attentionSeconds(), flash.attentionSeconds());
    EXPECT_DOUBLE_EQ(base.breakdown.categorySeconds(
                         graph::OpCategory::Convolution),
                     flash.breakdown.categorySeconds(
                         graph::OpCategory::Convolution));
}

TEST(Profiler, StageBreakdownsPartitionTheTotal)
{
    const ProfileResult res =
        Profiler().profile(models::buildStableDiffusion());
    ASSERT_EQ(res.stageBreakdowns.size(), 3u);
    for (graph::OpCategory c : graph::allCategories()) {
        double sum = 0.0;
        for (const auto& [name, bd] : res.stageBreakdowns)
            sum += bd.categorySeconds(c);
        EXPECT_NEAR(sum, res.breakdown.categorySeconds(c),
                    1e-9 * (res.breakdown.categorySeconds(c) + 1e-12))
            << graph::opCategoryName(c);
    }
    // The VAE stage is convolution-dominated, with only the single
    // bottleneck attention block.
    const BreakdownReport& vae = res.stageBreakdowns[2].second;
    EXPECT_GT(vae.categorySeconds(graph::OpCategory::Convolution),
              3.0 * vae.categorySeconds(graph::OpCategory::Attention));
    EXPECT_GT(vae.categorySeconds(graph::OpCategory::Attention), 0.0);
}

TEST(Profiler, StageSecondsSumToTotal)
{
    const ProfileResult res =
        Profiler().profile(models::buildStableDiffusion());
    double sum = 0.0;
    for (const auto& [name, breakdown] : res.stageBreakdowns)
        sum += breakdown.totalSeconds();
    EXPECT_NEAR(sum, res.totalSeconds, 1e-9 * res.totalSeconds);
    ASSERT_EQ(res.stageBreakdowns.size(), 3u);
    EXPECT_EQ(res.stageBreakdowns[1].first, "unet");
}

TEST(Profiler, KernelClassSecondsSumToTotal)
{
    ProfileOptions opts;
    opts.backend = AttentionBackend::Baseline;
    const ProfileResult res =
        Profiler(opts).profile(models::buildStableDiffusion());
    double sum = 0.0;
    for (const auto& [klass, seconds] : res.kernelClassSeconds)
        sum += seconds;
    EXPECT_NEAR(sum, res.totalSeconds, 1e-9 * res.totalSeconds);
    // Baseline attention splits across gemm, softmax and elementwise.
    EXPECT_GT(res.kernelClassSeconds.at(kernels::KernelClass::Softmax),
              0.0);
    EXPECT_GT(res.kernelClassSeconds.at(kernels::KernelClass::Conv),
              0.0);
}

TEST(Profiler, BreakdownFractionsSumToOne)
{
    const ProfileResult res =
        Profiler().profile(models::buildStableDiffusion());
    double total = 0.0;
    for (graph::OpCategory c : graph::allCategories())
        total += res.breakdown.categoryFraction(c);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Profiler, LowerFoldsRepeatsAndScheduleSizesPerStoredRecord)
{
    const Profiler prof;
    const exec::ExecutionPlan plan = prof.lower(toyDiffusion(2));
    ASSERT_EQ(plan.ops.size(), 2u);
    EXPECT_EQ(plan.stageNames[plan.ops[0].stageIndex], "unet");
    EXPECT_EQ(plan.ops[0].repeat, 2);
    EXPECT_EQ(plan.ops[1].seqQ, 256);
    EXPECT_EQ(plan.ops[1].seqKv, 256);
    const exec::Timeline timeline =
        exec::TimelineScheduler(prof.options().gpu).schedule(plan);
    EXPECT_EQ(timeline.opSeconds.size(), plan.ops.size());
    EXPECT_EQ(timeline.nodeSeconds.size(), plan.nodes.size());
}

/**
 * The aggregation with every sum taken per executed kernel and op, in
 * program order, into the result's maps: the oracle profileWithPlan's
 * per-stored sums and enum-indexed arrays must match bit for bit.
 */
ProfileResult
referenceAggregate(const exec::ExecutionPlan& plan,
                   const exec::Timeline& timeline)
{
    ProfileResult ref;
    ref.totalSeconds = timeline.makespan;
    ref.launchOverheadSeconds = timeline.launchOverheadSeconds;
    ref.params = plan.totalParams;
    std::vector<BreakdownReport> stages(plan.stageNames.size());
    for (const exec::ExecutedOp e : plan.executed()) {
        const exec::PlanOp& op = e.op;
        const double r = static_cast<double>(op.repeat);
        double flops = 0.0;
        double bytes = 0.0;
        std::int64_t launches = 0;
        for (std::size_t p = 0; p < op.nodeCount; ++p) {
            const exec::PlanNode& node = plan.nodes[op.firstNode + p];
            flops += node.flops;
            bytes += node.hbmBytes;
            launches += node.launches;
            ref.kernelClassSeconds[node.klass] +=
                timeline.nodeSeconds[op.firstNode + p];
        }
        const double seconds = timeline.opSeconds[e.opIndex];
        if (op.kind == graph::OpKind::Attention) {
            ref.attention.add(op.attnKind, seconds, flops * r, op.repeat);
            if (op.attnKind != graph::AttentionKind::CrossText)
                ref.seqLens.record(op.seqKv,
                                   static_cast<std::uint64_t>(op.repeat));
        }
        ref.breakdown.add(op.category, seconds);
        stages[op.stageIndex].add(op.category, seconds);
        ref.totalFlops += flops * r;
        ref.totalHbmBytes += bytes * r;
        ref.totalLaunches += launches * op.repeat;
        ref.weightBytesRead += static_cast<double>(op.paramCount) *
                               static_cast<double>(dtypeBytes(op.dtype)) *
                               r;
    }
    for (std::size_t si = 0; si < stages.size(); ++si)
        ref.stageBreakdowns.emplace_back(plan.stageNames[si],
                                         std::move(stages[si]));
    return ref;
}

/** Bitwise equality of every aggregate a ProfileResult reports. */
void
expectSameAggregates(const ProfileResult& got, const ProfileResult& want,
                     const std::string& what)
{
    EXPECT_EQ(got.totalSeconds, want.totalSeconds) << what;
    EXPECT_EQ(got.totalFlops, want.totalFlops) << what;
    EXPECT_EQ(got.totalHbmBytes, want.totalHbmBytes) << what;
    EXPECT_EQ(got.totalLaunches, want.totalLaunches) << what;
    EXPECT_EQ(got.launchOverheadSeconds, want.launchOverheadSeconds)
        << what;
    EXPECT_EQ(got.weightBytesRead, want.weightBytesRead) << what;
    EXPECT_EQ(got.params, want.params) << what;
    EXPECT_EQ(got.breakdown.rawCategories(),
              want.breakdown.rawCategories())
        << what;
    EXPECT_EQ(got.breakdown.totalSeconds(), want.breakdown.totalSeconds())
        << what;
    EXPECT_EQ(got.kernelClassSeconds, want.kernelClassSeconds) << what;
    ASSERT_EQ(got.attention.byKind.size(), want.attention.byKind.size())
        << what;
    for (auto g = got.attention.byKind.begin(),
              w = want.attention.byKind.begin();
         w != want.attention.byKind.end(); ++g, ++w) {
        EXPECT_EQ(g->first, w->first) << what;
        EXPECT_EQ(g->second.seconds, w->second.seconds) << what;
        EXPECT_EQ(g->second.flops, w->second.flops) << what;
        EXPECT_EQ(g->second.calls, w->second.calls) << what;
    }
    EXPECT_TRUE(got.seqLens.series() == want.seqLens.series()) << what;
    EXPECT_EQ(got.seqLens.histogram().buckets(),
              want.seqLens.histogram().buckets())
        << what;
    ASSERT_EQ(got.stageBreakdowns.size(), want.stageBreakdowns.size())
        << what;
    for (std::size_t s = 0; s < want.stageBreakdowns.size(); ++s) {
        EXPECT_EQ(got.stageBreakdowns[s].first,
                  want.stageBreakdowns[s].first)
            << what;
        EXPECT_EQ(got.stageBreakdowns[s].second.rawCategories(),
                  want.stageBreakdowns[s].second.rawCategories())
            << what;
        EXPECT_EQ(got.stageBreakdowns[s].second.totalSeconds(),
                  want.stageBreakdowns[s].second.totalSeconds())
            << what;
    }
}

TEST(Profiler, AggregatesIndependentOfChecks)
{
    // Without runtime checks the profile schedules totals only; the
    // checks schedule every event. Both must report the same bits as a
    // per-kernel aggregation of the full schedule.
    ProfileOptions overlapped;
    overlapped.lowering.splitWeightStreams = true;
    overlapped.schedule.streams = 2;
    overlapped.schedule.launchQueueDepth = 8;
    for (const models::ModelId id : models::allModels()) {
        const Pipeline pipeline = models::buildModel(id);
        for (ProfileOptions opts : {ProfileOptions(), overlapped}) {
            const std::string what =
                pipeline.name +
                (opts.lowering.splitWeightStreams ? "/overlapped"
                                                  : "/serial");
            const auto plan = std::make_shared<const exec::ExecutionPlan>(
                Profiler(opts).lower(pipeline));
            const bool saved = verify::setRuntimeChecks(false);
            const ProfileResult totals =
                Profiler(opts).profileWithPlan(pipeline, plan);
            verify::setRuntimeChecks(true);
            const ProfileResult checked =
                Profiler(opts).profileWithPlan(pipeline, plan);
            verify::setRuntimeChecks(saved);

            const exec::Timeline events =
                exec::TimelineScheduler(opts.gpu, opts.schedule)
                    .schedule(*plan);
            ASSERT_EQ(events.eventCount(), plan->executedNodeCount())
                << what;
            const ProfileResult ref = referenceAggregate(*plan, events);
            expectSameAggregates(totals, ref, what + " totals");
            expectSameAggregates(checked, ref, what + " checked");
        }
    }
}

TEST(Profiler, CrossAttentionExcludedFromSeqSeries)
{
    Pipeline p;
    p.name = "x";
    Stage s;
    s.name = "s";
    s.iterations = 1;
    s.emit = [](GraphBuilder& b, std::int64_t) {
        b.attention(graph::AttentionKind::CrossText, 1, 2, 256, 77, 16);
        b.attention(graph::AttentionKind::SelfSpatial, 1, 2, 256, 256,
                    16);
    };
    p.stages.push_back(std::move(s));
    const ProfileResult res = Profiler().profile(p);
    ASSERT_EQ(res.seqLens.series().size(), 1u);
    EXPECT_EQ(res.seqLens.series()[0], 256);
    // Both still appear in the per-kind stats.
    EXPECT_EQ(res.attention
                  .entryFor(graph::AttentionKind::CrossText)
                  .calls,
              1);
}

TEST(ProfileResult, ArithmeticIntensityNeedsWeights)
{
    Pipeline p;
    p.name = "weightless";
    Stage s;
    s.name = "s";
    s.iterations = 1;
    s.emit = [](GraphBuilder& b, std::int64_t) {
        b.matmul(1, 8, 8, 8);
    };
    p.stages.push_back(std::move(s));
    const ProfileResult res = Profiler().profile(p);
    EXPECT_THROW(res.modelArithmeticIntensity(), FatalError);
}

TEST(SequenceLengthTrace, MinMaxAndValidation)
{
    SequenceLengthTrace trace;
    EXPECT_EQ(trace.maxSeqLen(), 0);
    trace.record(256);
    trace.record(4096, 10);
    EXPECT_EQ(trace.minSeqLen(), 256);
    EXPECT_EQ(trace.maxSeqLen(), 4096);
    EXPECT_EQ(trace.histogram().totalWeight(), 11u);
    EXPECT_THROW(trace.record(0), FatalError);
}

TEST(Profiler, RuntimeChecksDoNotPerturbResults)
{
    // The verify passes (timeline, dataflow, memory) only ever read
    // the profile; toggling them must leave every reported number
    // bit-identical, and a capacity-infeasible model must still
    // profile (P010 is a warning inside the profiler, not a gate).
    ProfileOptions opts;
    opts.gpu = hw::GpuSpec::v100_32gb(); // SD fits; checks all run
    const Pipeline sd = models::buildStableDiffusion();

    const bool saved = verify::setRuntimeChecks(true);
    const ProfileResult checked = Profiler(opts).profile(sd);
    verify::setRuntimeChecks(false);
    const ProfileResult unchecked = Profiler(opts).profile(sd);
    verify::setRuntimeChecks(saved);

    // Exact double equality: the memory pass must be observation-only.
    EXPECT_EQ(checked.totalSeconds, unchecked.totalSeconds);
    EXPECT_EQ(checked.totalFlops, unchecked.totalFlops);
    EXPECT_EQ(checked.totalHbmBytes, unchecked.totalHbmBytes);
    EXPECT_EQ(checked.totalLaunches, unchecked.totalLaunches);
    EXPECT_EQ(checked.launchOverheadSeconds,
              unchecked.launchOverheadSeconds);
    EXPECT_EQ(checked.weightBytesRead, unchecked.weightBytesRead);
    EXPECT_EQ(checked.params, unchecked.params);
}

TEST(Profiler, CapacityInfeasibleModelStillProfiles)
{
    // Shrink the GPU until SD's ~2.2 GiB scheduled peak cannot fit
    // (the paper-scale analogue: Parti's 41 GiB of f16 weights on a
    // 32 GB V100). The memory pass reports P010 at Warn severity, so
    // profiling must succeed rather than throw.
    ProfileOptions opts;
    opts.gpu = hw::GpuSpec::a100_80gb();
    opts.gpu.name = "tiny-1GB";
    opts.gpu.hbmBytes = 1e9;
    const bool saved = verify::setRuntimeChecks(true);
    ProfileResult r;
    EXPECT_NO_THROW(
        r = Profiler(opts).profile(models::buildStableDiffusion()));
    verify::setRuntimeChecks(saved);
    EXPECT_GT(r.totalSeconds, 0.0);
}

TEST(AttentionKindStats, AccumulatesPerKind)
{
    AttentionKindStats stats;
    stats.add(graph::AttentionKind::Temporal, 1.0, 10.0, 2);
    stats.add(graph::AttentionKind::Temporal, 0.5, 5.0, 1);
    const auto e = stats.entryFor(graph::AttentionKind::Temporal);
    EXPECT_DOUBLE_EQ(e.seconds, 1.5);
    EXPECT_DOUBLE_EQ(e.flops, 15.0);
    EXPECT_EQ(e.calls, 3);
    EXPECT_EQ(stats.entryFor(graph::AttentionKind::CrossText).calls, 0);
}

} // namespace
} // namespace mmgen::profiler
