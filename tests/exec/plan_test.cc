/**
 * @file
 * Tests for pipeline lowering: plan structure, op/stage provenance,
 * the dependency edges KernelDeps derives, lane assignment and
 * weight-stream splitting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exec/plan.hh"
#include "graph/builder.hh"
#include "hw/gpu_spec.hh"
#include "models/model_suite.hh"
#include "util/logging.hh"

namespace mmgen::exec {
namespace {

using graph::AttentionBackend;
using graph::GraphBuilder;
using graph::Pipeline;
using graph::Stage;

kernels::CostModel
costModel(AttentionBackend backend = AttentionBackend::Flash)
{
    return kernels::CostModel(hw::GpuSpec::a100_80gb(), backend);
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

/** Each executed kernel's derived dependencies, in program order. */
std::vector<std::vector<std::size_t>>
depsOf(const ExecutionPlan& plan)
{
    std::vector<std::vector<std::size_t>> out;
    KernelDeps deps;
    for (const ExecutedOp e : plan.executed()) {
        for (std::size_t p = 0; p < e.op.nodeCount; ++p) {
            std::vector<std::size_t>& kernel = out.emplace_back();
            deps.next(plan.nodes[e.op.firstNode + p].lane, p == 0,
                      [&](KernelDeps::Dep d) { kernel.push_back(d.kernel); });
        }
    }
    return out;
}

/** One stage of two big memory-bound linears (32 MiB f16 weights). */
Pipeline
mlpPipeline()
{
    Pipeline p;
    p.name = "mlp";
    Stage s;
    s.name = "ffn";
    s.iterations = 3;
    s.emit = [](GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({1, 1, 4096}, DType::F16), 4096);
        b.linear(TensorDesc({1, 1, 4096}, DType::F16), 4096);
    };
    p.stages.push_back(std::move(s));
    return p;
}

TEST(LowerPipeline, FoldedStageKeepsProvenance)
{
    const kernels::CostModel model = costModel();
    const ExecutionPlan plan = lowerPipeline(toyPipeline(5), model);

    EXPECT_EQ(plan.model, "toy");
    EXPECT_EQ(plan.backend, AttentionBackend::Flash);
    ASSERT_EQ(plan.stageNames.size(), 1u);
    EXPECT_EQ(plan.stageNames[0], "unet");

    // Flash lowers attention to one fused kernel: 2 ops, 2 nodes.
    ASSERT_EQ(plan.ops.size(), 2u);
    ASSERT_EQ(plan.nodes.size(), 2u);
    EXPECT_FALSE(plan.hasWeightStreams);

    const PlanOp& conv = plan.ops[0];
    EXPECT_EQ(conv.kind, graph::OpKind::Conv2D);
    EXPECT_EQ(conv.stageIndex, 0u);
    EXPECT_EQ(conv.repeat, 5);
    EXPECT_GT(conv.paramCount, 0);
    EXPECT_EQ(conv.firstNode, 0u);
    EXPECT_EQ(conv.nodeCount, 1u);

    const PlanOp& attn = plan.ops[1];
    EXPECT_EQ(attn.kind, graph::OpKind::Attention);
    EXPECT_EQ(attn.seqQ, 256);
    EXPECT_EQ(attn.seqKv, 256);
    EXPECT_EQ(attn.attnKind, graph::AttentionKind::SelfSpatial);
    EXPECT_EQ(attn.repeat, 5);
    EXPECT_EQ(attn.firstNode, 1u);
    EXPECT_EQ(attn.nodeCount, 1u);

    EXPECT_EQ(plan.str(plan.nodes[0].label), "conv2d");
    EXPECT_EQ(plan.str(plan.nodes[1].label), "flash_fused");
    for (const PlanNode& node : plan.nodes) {
        EXPECT_EQ(node.lane, Lane::Compute);
        EXPECT_FALSE(node.weightStream);
        EXPECT_GT(node.flops, 0.0);
        EXPECT_GT(node.hbmBytes, 0.0);
    }
    // Program-order chain: the first node has no predecessor, each
    // later one depends on the previous compute node.
    const auto deps = depsOf(plan);
    ASSERT_EQ(deps.size(), 2u);
    EXPECT_TRUE(deps[0].empty());
    ASSERT_EQ(deps[1].size(), 1u);
    EXPECT_EQ(deps[1][0], 0u);
}

TEST(LowerPipeline, BaselineAttentionLowersToKernelChain)
{
    const kernels::CostModel model =
        costModel(AttentionBackend::Baseline);
    const ExecutionPlan plan = lowerPipeline(toyPipeline(1), model);

    ASSERT_EQ(plan.ops.size(), 2u);
    const PlanOp& attn = plan.ops[1];
    // qk_gemm, scale, softmax, av_gemm (no causal mask here).
    ASSERT_EQ(attn.nodeCount, 4u);
    EXPECT_EQ(plan.str(plan.nodes[attn.firstNode].label), "qk_gemm");
    EXPECT_EQ(plan.str(plan.nodes[attn.firstNode + 3].label),
              "av_gemm");
    // The chain is dependency-linked node to node.
    const auto deps = depsOf(plan);
    for (std::size_t n = attn.firstNode + 1;
         n < attn.firstNode + attn.nodeCount; ++n) {
        ASSERT_EQ(deps[n].size(), 1u);
        EXPECT_EQ(deps[n][0], n - 1);
    }
}

TEST(LowerPipeline, PerIterationStagesTraceEveryStep)
{
    Pipeline p;
    p.name = "ar";
    Stage s;
    s.name = "decode";
    s.iterations = 4;
    s.perIterationShapes = true;
    s.emit = [](GraphBuilder& b, std::int64_t iter) {
        b.attention(graph::AttentionKind::CausalSelf, 1, 2, 1, iter + 1,
                    16);
    };
    p.stages.push_back(std::move(s));
    const ExecutionPlan plan = lowerPipeline(p, costModel());

    ASSERT_EQ(plan.ops.size(), 4u);
    for (std::size_t oi = 0; oi < plan.ops.size(); ++oi) {
        EXPECT_EQ(plan.ops[oi].repeat, 1);
        EXPECT_EQ(plan.ops[oi].seqKv,
                  static_cast<std::int64_t>(oi) + 1);
    }
}

TEST(LowerPipeline, UnchangedDecodeOpsReuseStoredRecords)
{
    // Each step runs the same projection and attends one more cached
    // token: the projection is stored once, every attention anew.
    Pipeline p;
    p.name = "ar";
    Stage s;
    s.name = "decode";
    s.iterations = 4;
    s.perIterationShapes = true;
    s.emit = [](GraphBuilder& b, std::int64_t iter) {
        b.linear(TensorDesc({1, 1, 32}, DType::F16), 32);
        b.attention(graph::AttentionKind::CausalSelf, 1, 2, 1, iter + 1,
                    16);
    };
    p.stages.push_back(std::move(s));
    const ExecutionPlan plan = lowerPipeline(p, costModel());

    ASSERT_EQ(plan.ops.size(), 5u);
    ASSERT_EQ(plan.nodes.size(), 5u);
    EXPECT_EQ(plan.opSequence,
              (std::vector<std::uint32_t>{0, 1, 0, 2, 0, 3, 0, 4}));
    ASSERT_EQ(plan.executedNodeCount(), 8u);
    // Dependencies chain the executed kernels, not the stored ones.
    const auto deps = depsOf(plan);
    ASSERT_EQ(deps.size(), plan.executedNodeCount());
    EXPECT_TRUE(deps[0].empty());
    for (std::size_t k = 1; k < plan.executedNodeCount(); ++k) {
        ASSERT_EQ(deps[k].size(), 1u) << "kernel " << k;
        EXPECT_EQ(deps[k][0], k - 1);
    }
    std::size_t next = 0;
    for (const ExecutedOp e : plan.executed()) {
        EXPECT_EQ(e.opIndex, plan.opSequence[e.index]);
        EXPECT_EQ(e.firstNode, next);
        next += e.op.nodeCount;
    }
    EXPECT_EQ(next, plan.executedNodeCount());
}

TEST(LowerPipeline, DecodeStoresChangedOpsOnce)
{
    // Parti decodes 1,024 tokens of 1,363 ops. After the first token
    // only its 80 self-attention ops change (the KV cache grows), so
    // 1,363 + 1,023 x 80 decode ops plus 255 others are stored.
    const ExecutionPlan plan = lowerPipeline(
        models::buildModel(models::ModelId::Parti), costModel());
    EXPECT_EQ(plan.executedOpCount(), 1395967u);
    EXPECT_EQ(plan.ops.size(), 83458u);
    EXPECT_EQ(plan.executedNodeCount(), 1395967u);
    EXPECT_EQ(plan.nodes.size(), 83458u);
}

TEST(LowerPipeline, DepsAlwaysPointBackward)
{
    LoweringOptions split;
    split.splitWeightStreams = true;
    for (const ExecutionPlan& plan :
         {lowerPipeline(models::buildModel(models::ModelId::
                                               StableDiffusion),
                        costModel()),
          lowerPipeline(mlpPipeline(), costModel(), split)}) {
        // Node ownership partitions [0, nodes) in order.
        std::size_t next = 0;
        for (const PlanOp& op : plan.ops) {
            EXPECT_EQ(op.firstNode, next);
            EXPECT_GE(op.nodeCount, 1u);
            next += op.nodeCount;
        }
        EXPECT_EQ(next, plan.nodes.size());
    }
}

TEST(LowerPipeline, WeightSplittingPeelsCopyNodes)
{
    const kernels::CostModel model = costModel();
    const ExecutionPlan plain = lowerPipeline(mlpPipeline(), model);
    LoweringOptions split;
    split.splitWeightStreams = true;
    const ExecutionPlan streamed =
        lowerPipeline(mlpPipeline(), model, split);

    ASSERT_EQ(plain.ops.size(), 2u);
    EXPECT_FALSE(plain.hasWeightStreams);
    EXPECT_TRUE(streamed.hasWeightStreams);
    ASSERT_EQ(streamed.ops.size(), 2u);
    // Each linear gains one weight-stream node ahead of its kernel.
    ASSERT_EQ(streamed.nodes.size(), plain.nodes.size() + 2);
    const auto deps = depsOf(streamed);
    ASSERT_EQ(deps.size(), streamed.nodes.size());

    for (std::size_t oi = 0; oi < streamed.ops.size(); ++oi) {
        const PlanOp& op = streamed.ops[oi];
        ASSERT_EQ(op.nodeCount, 2u);
        const PlanNode& w = streamed.nodes[op.firstNode];
        const PlanNode& k = streamed.nodes[op.firstNode + 1];
        EXPECT_TRUE(w.weightStream);
        EXPECT_EQ(w.lane, Lane::Copy);
        EXPECT_EQ(w.klass, kernels::KernelClass::Memory);
        EXPECT_EQ(streamed.str(w.label), "linear.weight_stream");
        EXPECT_EQ(w.flops, 0.0);
        EXPECT_EQ(w.launches, 0);
        EXPECT_GT(w.hbmBytes, static_cast<double>(1 << 20));

        EXPECT_FALSE(k.weightStream);
        EXPECT_EQ(k.lane, Lane::Compute);
        // The compute kernel depends on its weight prefetch, and
        // traffic is conserved: split bytes sum to the fused bytes. A
        // folded stage executes its stored kernels once each, in
        // order, so stored node n is executed kernel n.
        const std::vector<std::size_t>& k_deps = deps[op.firstNode + 1];
        EXPECT_NE(std::find(k_deps.begin(), k_deps.end(), op.firstNode),
                  k_deps.end());
        const PlanNode& fused = plain.nodes[plain.ops[oi].firstNode];
        EXPECT_DOUBLE_EQ(w.hbmBytes + k.hbmBytes, fused.hbmBytes);
        EXPECT_DOUBLE_EQ(k.flops, fused.flops);
        EXPECT_EQ(k.launches, fused.launches);
    }
    // The two copy nodes serialize against each other on their lane.
    const std::vector<std::size_t>& second_w_deps =
        deps[streamed.ops[1].firstNode];
    ASSERT_EQ(second_w_deps.size(), 1u);
    EXPECT_EQ(second_w_deps[0], streamed.ops[0].firstNode);
    // Splitting adds no device launches.
    EXPECT_EQ(streamed.totalLaunches(), plain.totalLaunches());
}

TEST(LowerPipeline, SplitThresholdKeepsSmallWeightsFused)
{
    // A 256x256 f16 linear is memory-bound like the big ones, but its
    // 128 KiB of weights stay under the 1 MiB stream threshold.
    Pipeline p;
    p.name = "small";
    Stage s;
    s.name = "s";
    s.iterations = 3;
    s.emit = [](GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({1, 1, 256}, DType::F16), 256);
    };
    p.stages.push_back(std::move(s));
    LoweringOptions split;
    split.splitWeightStreams = true;
    const ExecutionPlan plan = lowerPipeline(p, costModel(), split);
    ASSERT_EQ(plan.ops.size(), 1u);
    ASSERT_EQ(plan.nodes.size(), 1u);
    EXPECT_LT(plan.ops[0].weightReadBytes, 1 << 20);
    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    const PlanNode& node = plan.nodes[0];
    EXPECT_GT(node.hbmBytes / (gpu.hbmBandwidth * node.memEff),
              node.flops / (gpu.peakFlops(DType::F16) * node.computeEff));
    EXPECT_FALSE(plan.hasWeightStreams);
    EXPECT_FALSE(node.weightStream);
}

TEST(LowerPipeline, ComputeBoundWeightsStayFused)
{
    // A large-batch linear is compute-bound: streaming its weights
    // cannot shorten the critical path, so lowering leaves it alone.
    Pipeline p;
    p.name = "dense";
    Stage s;
    s.name = "s";
    s.iterations = 1;
    s.emit = [](GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({64, 4096, 4096}, DType::F16), 4096);
    };
    p.stages.push_back(std::move(s));
    LoweringOptions split;
    split.splitWeightStreams = true;
    const ExecutionPlan plan = lowerPipeline(p, costModel(), split);
    EXPECT_FALSE(plan.hasWeightStreams);
}

TEST(LowerPipeline, TotalLaunchesAppliesRepeats)
{
    const ExecutionPlan one = lowerPipeline(toyPipeline(1), costModel());
    const ExecutionPlan ten = lowerPipeline(toyPipeline(10), costModel());
    EXPECT_GT(one.totalLaunches(), 0);
    EXPECT_EQ(ten.totalLaunches(), 10 * one.totalLaunches());
}

TEST(Lane, Names)
{
    EXPECT_EQ(laneName(Lane::Compute), "compute");
    EXPECT_EQ(laneName(Lane::Copy), "copy");
}

} // namespace
} // namespace mmgen::exec
