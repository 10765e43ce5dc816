/**
 * @file
 * Stored-plan equivalence: lowering stores an op that is unchanged
 * since the previous decode step once and executes it again, and the
 * executed view of that plan must equal lowering every op of every
 * traced iteration on its own.
 *
 * The reference below is that per-iteration lowering, written out
 * independently of exec/plan.cc: it traces each stage, costs every op,
 * splits weight streams and chains dependencies exactly as lowering
 * did before it stored repeated ops once. The test walks the plan's
 * executed sequence alongside it and compares every executed op field,
 * kernel field and cost-table row bit for bit, and every kernel's
 * dependency list as KernelDeps derives it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "exec/plan.hh"
#include "hw/roofline.hh"
#include "models/model_suite.hh"

namespace mmgen::exec {
namespace {

using graph::AttentionBackend;

/** One kernel of the reference lowering. */
struct RefNode
{
    kernels::KernelClass klass = kernels::KernelClass::Elementwise;
    std::string label;
    Lane lane = Lane::Compute;
    bool weightStream = false;
    double flops = 0.0;
    double hbmBytes = 0.0;
    int launches = 1;
    double computeEff = 1.0;
    double memEff = 1.0;
    std::vector<std::int32_t> deps;
};

hw::TimeEstimate
referenceEstimate(const hw::GpuSpec& gpu, const RefNode& node,
                  DType dtype)
{
    hw::TimeEstimateInputs in;
    in.flops = node.flops;
    in.hbmBytes = node.hbmBytes;
    in.computeEfficiency = node.computeEff;
    in.memoryEfficiency = node.memEff;
    in.launches = node.launches;
    in.dtype = dtype;
    return hw::estimateTime(gpu, in);
}

/**
 * Whether the reference peels this part's weights onto the copy lane:
 * a memory-bound kernel reading at least 1 MiB of weights.
 */
bool
referenceStreams(const hw::GpuSpec& gpu,
                 const kernels::SubKernelCost& part, DType dtype,
                 const LoweringOptions& options)
{
    if (!options.splitWeightStreams || part.weightBytes < 1 << 20 ||
        part.weightBytes >= part.hbmBytes)
        return false;
    hw::TimeEstimateInputs in;
    in.flops = part.flops;
    in.hbmBytes = part.hbmBytes;
    in.computeEfficiency = part.computeEff;
    in.memoryEfficiency = part.memEff;
    in.launches = part.launches;
    in.dtype = dtype;
    const hw::TimeEstimate est = hw::estimateTime(gpu, in);
    return est.memorySeconds >= est.computeSeconds;
}

/**
 * Walk `plan`'s executed ops against the per-iteration reference
 * lowering of `pipeline`. Stops at the first op that differs.
 */
void
expectMatchesReference(const graph::Pipeline& pipeline,
                       const kernels::CostModel& model,
                       const LoweringOptions& options,
                       const ExecutionPlan& plan)
{
    const hw::GpuSpec& gpu = model.gpu();
    EXPECT_EQ(plan.model, pipeline.name);
    EXPECT_EQ(plan.backend, model.backend());
    EXPECT_EQ(plan.dtype, pipeline.dtype);
    EXPECT_EQ(plan.totalParams, pipeline.totalParams());
    EXPECT_EQ(plan.costs.gpuKey, gpu.fingerprint());
    ASSERT_EQ(plan.stageNames.size(), pipeline.stages.size());

    ExecutedOps::iterator walk = plan.executed().begin();
    const ExecutedOps::iterator end = plan.executed().end();
    std::size_t executed_ops = 0;
    std::size_t next_node = 0;
    std::int32_t last_compute = -1;
    std::int32_t last_copy = -1;
    bool weight_streams = false;
    KernelDeps derived;

    for (std::size_t si = 0; si < pipeline.stages.size(); ++si) {
        const graph::Stage& stage = pipeline.stages[si];
        EXPECT_EQ(plan.stageNames[si], stage.name);
        const std::int64_t traces =
            stage.perIterationShapes ? stage.iterations : 1;
        const std::int64_t repeat =
            stage.perIterationShapes ? 1 : stage.iterations;
        for (std::int64_t iter = 0; iter < traces; ++iter) {
            const graph::Trace trace = pipeline.traceStage(si, iter);
            for (const graph::Op& op : trace.ops()) {
                ASSERT_TRUE(walk != end)
                    << "plan executes only " << executed_ops << " ops";
                const ExecutedOp e = *walk;
                ++walk;
                const auto where = [&] {
                    return pipeline.name + " stage " + stage.name +
                           " iteration " + std::to_string(iter) +
                           " op " + op.scope + " (executed op " +
                           std::to_string(e.index) + ")";
                };
                const PlanOp& got = e.op;
                EXPECT_EQ(e.index, executed_ops) << where();
                EXPECT_EQ(e.firstNode, next_node) << where();
                EXPECT_EQ(got.stageIndex, si) << where();
                EXPECT_EQ(got.kind, op.kind) << where();
                EXPECT_EQ(got.category, graph::opCategory(op)) << where();
                EXPECT_EQ(plan.str(got.scope), op.scope) << where();
                EXPECT_EQ(got.dtype, op.dtype) << where();
                EXPECT_EQ(got.repeat, repeat) << where();
                EXPECT_EQ(got.paramCount, graph::opParamCount(op))
                    << where();
                std::int64_t seq_q = -1;
                std::int64_t seq_kv = -1;
                graph::AttentionKind attn_kind =
                    graph::AttentionKind::SelfSpatial;
                if (op.kind == graph::OpKind::Attention) {
                    const auto& a = op.as<graph::AttentionAttrs>();
                    seq_q = a.seqQ;
                    seq_kv = a.seqKv;
                    attn_kind = a.kind;
                }
                EXPECT_EQ(got.seqQ, seq_q) << where();
                EXPECT_EQ(got.seqKv, seq_kv) << where();
                EXPECT_EQ(got.attnKind, attn_kind) << where();
                const kernels::OpMemoryDemand dem =
                    model.memoryDemand(op);
                EXPECT_EQ(got.inputBytes, dem.inputBytes) << where();
                EXPECT_EQ(got.outputBytes, dem.outputBytes) << where();
                EXPECT_EQ(got.weightResidentBytes,
                          dem.weightResidentBytes)
                    << where();
                EXPECT_EQ(got.weightReadBytes, dem.weightReadBytes)
                    << where();
                EXPECT_EQ(got.workspaceBytes, dem.workspaceBytes)
                    << where();

                // The op's kernels: weight stream first, then every
                // part on the compute chain.
                const kernels::OpCost cost = model.cost(op);
                std::vector<RefNode> ref;
                std::int32_t weight_node = -1;
                for (const auto& part : cost.parts) {
                    if (!referenceStreams(gpu, part, op.dtype, options))
                        continue;
                    RefNode w;
                    w.klass = kernels::KernelClass::Memory;
                    w.label = part.label + ".weight_stream";
                    w.lane = Lane::Copy;
                    w.weightStream = true;
                    w.flops = 0.0;
                    w.hbmBytes = part.weightBytes;
                    w.launches = 0;
                    w.computeEff = 1.0;
                    w.memEff = part.memEff;
                    if (last_copy >= 0)
                        w.deps.push_back(last_copy);
                    weight_node = static_cast<std::int32_t>(next_node);
                    last_copy = weight_node;
                    ref.push_back(std::move(w));
                    weight_streams = true;
                    break;
                }
                bool first_compute = true;
                for (const auto& part : cost.parts) {
                    RefNode k;
                    k.klass = part.klass;
                    k.label = part.label;
                    k.flops = part.flops;
                    k.hbmBytes = weight_node >= 0
                                     ? part.hbmBytes - part.weightBytes
                                     : part.hbmBytes;
                    k.launches = part.launches;
                    k.computeEff = part.computeEff;
                    k.memEff = part.memEff;
                    if (first_compute) {
                        if (last_compute >= 0)
                            k.deps.push_back(last_compute);
                        if (weight_node >= 0)
                            k.deps.push_back(weight_node);
                    } else {
                        k.deps.push_back(last_compute);
                    }
                    last_compute =
                        static_cast<std::int32_t>(next_node + ref.size());
                    ref.push_back(std::move(k));
                    first_compute = false;
                }

                ASSERT_EQ(got.nodeCount, ref.size()) << where();
                for (std::size_t p = 0; p < ref.size(); ++p) {
                    const std::size_t stored = got.firstNode + p;
                    ASSERT_LT(stored, plan.nodes.size()) << where();
                    const PlanNode& node = plan.nodes[stored];
                    const RefNode& want = ref[p];
                    EXPECT_EQ(node.klass, want.klass) << where();
                    EXPECT_EQ(plan.str(node.label), want.label)
                        << where();
                    EXPECT_EQ(node.lane, want.lane) << where();
                    EXPECT_EQ(node.weightStream, want.weightStream)
                        << where();
                    EXPECT_EQ(node.flops, want.flops) << where();
                    EXPECT_EQ(node.hbmBytes, want.hbmBytes) << where();
                    EXPECT_EQ(node.launches, want.launches) << where();
                    EXPECT_EQ(node.computeEff, want.computeEff)
                        << where();
                    EXPECT_EQ(node.memEff, want.memEff) << where();

                    // The scheduler's full kernel time is the sum of
                    // the two columns: it must be estimateTime's.
                    const hw::TimeEstimate est =
                        referenceEstimate(gpu, want, op.dtype);
                    EXPECT_EQ(plan.costs.execSeconds[stored] +
                                  plan.costs.overheadSeconds[stored],
                              est.seconds)
                        << where();
                    EXPECT_EQ(plan.costs.execSeconds[stored],
                              std::max(est.computeSeconds,
                                       est.memorySeconds))
                        << where();
                    EXPECT_EQ(plan.costs.overheadSeconds[stored],
                              est.overheadSeconds)
                        << where();

                    std::vector<std::int32_t> deps;
                    derived.next(node.lane, p == 0, [&](KernelDeps::Dep d) {
                        deps.push_back(static_cast<std::int32_t>(d.kernel));
                    });
                    EXPECT_EQ(deps, want.deps) << where() << " kernel " << p;
                }
                next_node += ref.size();
                ++executed_ops;
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
    EXPECT_TRUE(walk == end) << "plan executes more than the "
                             << executed_ops << " reference ops";
    EXPECT_EQ(plan.executedOpCount(), executed_ops);
    EXPECT_EQ(plan.executedNodeCount(), next_node);
    EXPECT_EQ(plan.hasWeightStreams, weight_streams);
}

/** Lower under default and weight-split options; compare both. */
void
expectBothLoweringsMatch(const graph::Pipeline& pipeline,
                         AttentionBackend backend)
{
    const kernels::CostModel model(hw::GpuSpec::a100_80gb(), backend);
    for (const bool split : {false, true}) {
        SCOPED_TRACE(split ? "splitWeightStreams" : "default lowering");
        LoweringOptions options;
        options.splitWeightStreams = split;
        expectMatchesReference(pipeline, model, options,
                               lowerPipeline(pipeline, model, options));
        if (::testing::Test::HasFailure())
            return;
    }
}

class StoredPlanEquivalence
    : public ::testing::TestWithParam<
          std::tuple<models::ModelId, AttentionBackend>>
{};

TEST_P(StoredPlanEquivalence, MatchesPerIterationLowering)
{
    const auto [id, backend] = GetParam();
    expectBothLoweringsMatch(models::buildModel(id), backend);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, StoredPlanEquivalence,
    ::testing::Combine(::testing::ValuesIn(models::allModels()),
                       ::testing::Values(AttentionBackend::Baseline,
                                         AttentionBackend::Flash,
                                         AttentionBackend::FlashDecode)),
    [](const auto& info) {
        return models::buildModel(std::get<0>(info.param)).name + "_" +
               graph::attentionBackendName(std::get<1>(info.param));
    });

/** Attention ops the plan executes, and how many records they share. */
std::pair<std::size_t, std::size_t>
attentionCounts(const ExecutionPlan& plan)
{
    std::size_t executed = 0;
    for (const ExecutedOp e : plan.executed())
        executed += e.op.kind == graph::OpKind::Attention;
    const std::size_t stored = static_cast<std::size_t>(std::count_if(
        plan.ops.begin(), plan.ops.end(), [](const PlanOp& op) {
            return op.kind == graph::OpKind::Attention;
        }));
    return {executed, stored};
}

TEST(StoredPlanEquivalence, ShrinkingAndRegrowingTraceMatches)
{
    // A decode stage whose op count alternates with iteration parity:
    // odd iterations drop an op mid-trace and the last op. The wide
    // projection moves to position iter % 4, the attention's KV length
    // grows every other iteration, its scope is renamed every third
    // iteration and the residual's label changes from iteration 5 on,
    // so ops change at varying positions; at iteration 5 the attention
    // itself is unchanged. The 32 MiB projections are memory-bound, so
    // the split lowering streams their weights.
    graph::Pipeline p;
    p.name = "shifting";
    graph::Stage prefill;
    prefill.name = "prefill";
    prefill.iterations = 2;
    prefill.emit = [](graph::GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({1, 16, 4096}, b.dtype()), 4096, false);
    };
    p.stages.push_back(std::move(prefill));
    graph::Stage decode;
    decode.name = "decode";
    decode.iterations = 11;
    decode.perIterationShapes = true;
    decode.emit = [](graph::GraphBuilder& b, std::int64_t iter) {
        const TensorDesc x({1, 1, 4096}, b.dtype());
        for (std::int64_t i = 0; i < 4; ++i)
            b.linear(x, i == iter % 4 ? 8192 : 4096, false);
        {
            auto s = b.scope(iter % 3 == 0 ? "attn" : "self_attn");
            b.attention(graph::AttentionKind::CausalSelf, 1, 32, 1,
                        iter / 2 + 1, 128);
        }
        if (iter % 2 == 0)
            b.layerNorm(x);
        b.binary(x, iter < 5 ? "residual_add" : "add");
        if (iter % 2 == 0)
            b.gelu(x);
    };
    p.stages.push_back(std::move(decode));

    expectBothLoweringsMatch(p, AttentionBackend::Flash);

    const kernels::CostModel model(hw::GpuSpec::a100_80gb(),
                                   AttentionBackend::Flash);
    const ExecutionPlan plan = lowerPipeline(p, model);
    EXPECT_LT(plan.ops.size(), plan.executedOpCount());
    // Even an attention op is executed again from a stored record.
    const auto [executed, stored] = attentionCounts(plan);
    EXPECT_LT(stored, executed);
    LoweringOptions split;
    split.splitWeightStreams = true;
    EXPECT_TRUE(lowerPipeline(p, model, split).hasWeightStreams);
}

TEST(StoredPlanEquivalence, ScaledLLaMAMatches)
{
    expectBothLoweringsMatch(
        models::buildModel(models::ModelId::LLaMA, {2, 1.5}),
        AttentionBackend::Flash);
}

} // namespace
} // namespace mmgen::exec
