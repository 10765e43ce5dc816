/**
 * @file
 * Tests for pipelines and traces: stage tracing, parameter counting,
 * and re-emission into a used trace.
 */

#include <gtest/gtest.h>

#include <vector>

#include "graph/pipeline.hh"
#include "util/logging.hh"

namespace mmgen::graph {
namespace {

Pipeline
twoStagePipeline()
{
    Pipeline p;
    p.name = "toy";
    p.klass = ModelClass::DiffusionLatent;

    Stage enc;
    enc.name = "encoder";
    enc.iterations = 1;
    enc.emit = [](GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({1, 8, 16}, DType::F16), 32);
    };
    p.stages.push_back(std::move(enc));

    Stage loop;
    loop.name = "loop";
    loop.iterations = 10;
    loop.perIterationShapes = true;
    loop.emit = [](GraphBuilder& b, std::int64_t iter) {
        // Shape depends on the iteration (KV growth).
        b.attention(AttentionKind::CausalSelf, 1, 4, 1, iter + 1, 16);
    };
    p.stages.push_back(std::move(loop));
    return p;
}

TEST(Pipeline, TraceStageScopesUnderStageName)
{
    const Pipeline p = twoStagePipeline();
    const Trace t = p.traceStage(0, 0);
    ASSERT_EQ(t.size(), 1u);
    EXPECT_EQ(t.ops()[0].scope, "encoder");
}

TEST(Pipeline, TraceStageHonorsIteration)
{
    const Pipeline p = twoStagePipeline();
    const Trace t = p.traceStage(1, 7);
    const auto& a = t.ops()[0].as<AttentionAttrs>();
    EXPECT_EQ(a.seqKv, 8);
}

TEST(Pipeline, TraceStageValidates)
{
    const Pipeline p = twoStagePipeline();
    EXPECT_THROW(p.traceStage(2, 0), FatalError);
    EXPECT_THROW(p.traceStage(1, 10), FatalError);
    EXPECT_THROW(p.traceStage(1, -1), FatalError);
}

TEST(Pipeline, TotalParamsCountsEachStageOnce)
{
    const Pipeline p = twoStagePipeline();
    // encoder: 16*32 weights + 32 bias; the attention loop is
    // weightless.
    EXPECT_EQ(p.totalParams(), 16 * 32 + 32);
}

TEST(Pipeline, WeightSharingStagesNotDoubleCounted)
{
    Pipeline p;
    p.name = "shared";
    for (int i = 0; i < 2; ++i) {
        Stage s;
        s.name = i == 0 ? "prefill" : "decode";
        s.iterations = 1;
        s.reusesWeights = i == 1; // same weights as the first stage
        s.emit = [](GraphBuilder& b, std::int64_t) {
            b.linear(TensorDesc({1, 4}, DType::F16), 4, false);
        };
        p.stages.push_back(std::move(s));
    }
    EXPECT_EQ(p.totalParams(), 16);
}

TEST(Pipeline, DtypePropagatesToTracedOps)
{
    Pipeline p = twoStagePipeline();
    p.dtype = DType::I8;
    const Trace t = p.traceStage(0, 0);
    EXPECT_EQ(t.ops()[0].dtype, DType::I8);
}

TEST(ModelClass, Predicates)
{
    EXPECT_TRUE(isDiffusionClass(ModelClass::DiffusionPixel));
    EXPECT_TRUE(isDiffusionClass(ModelClass::DiffusionLatent));
    EXPECT_TRUE(isDiffusionClass(ModelClass::DiffusionTTV));
    EXPECT_FALSE(isDiffusionClass(ModelClass::TransformerTTI));
    EXPECT_TRUE(isVideoClass(ModelClass::DiffusionTTV));
    EXPECT_TRUE(isVideoClass(ModelClass::TransformerTTV));
    EXPECT_FALSE(isVideoClass(ModelClass::LLM));
    EXPECT_EQ(modelClassName(ModelClass::DiffusionLatent),
              "Diffusion (Latent)");
}

TEST(Trace, ClearAndAccumulate)
{
    Trace t;
    EXPECT_TRUE(t.empty());
    GraphBuilder b(t);
    b.linear(TensorDesc({1, 4}, DType::F16), 4, false);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(t.totalParams(), 16);
    t.clear();
    EXPECT_TRUE(t.empty());
}

/**
 * One decode-like step whose ops move between iterations: the wide
 * projection sits at position iter % 4, odd iterations drop an op
 * mid-trace and the last op, the attention's KV length grows every
 * other iteration, its scope is renamed every third iteration, and the
 * residual's label changes from iteration 4 on.
 */
void
emitShiftingStep(GraphBuilder& b, std::int64_t iter)
{
    const TensorDesc x({1, 1, 64}, b.dtype());
    for (std::int64_t i = 0; i < 4; ++i)
        b.linear(x, i == iter % 4 ? 128 : 64, false);
    if (iter % 2 == 0)
        b.layerNorm(x);
    {
        auto s = b.scope(iter % 3 == 0 ? "attn" : "self_attn");
        b.attention(AttentionKind::CausalSelf, 1, 4, 1, iter / 2 + 1, 16);
    }
    b.binary(x, iter < 4 ? "residual_add" : "add");
    if (iter % 2 == 0)
        b.gelu(x);
}

Pipeline
shiftingPipeline()
{
    Pipeline p;
    p.name = "shifting";
    Stage s;
    s.name = "decode";
    s.iterations = 9;
    s.perIterationShapes = true;
    s.emit = emitShiftingStep;
    p.stages.push_back(std::move(s));
    return p;
}

TEST(Trace, ReEmissionMatchesFreshTraceAndFlagsChanges)
{
    const Pipeline p = shiftingPipeline();
    Trace reused;
    std::size_t unchanged = 0;
    for (std::int64_t it = 0; it < p.stages[0].iterations; ++it) {
        const Trace previous = reused;
        p.traceStage(0, it, reused);
        const Trace fresh = p.traceStage(0, it);
        ASSERT_EQ(reused.size(), fresh.size()) << "iteration " << it;
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            const Op& op = fresh.ops()[i];
            EXPECT_TRUE(reused.ops()[i] == op)
                << "iteration " << it << " op " << i;
            const bool same =
                i < previous.size() && previous.ops()[i] == op;
            EXPECT_EQ(reused.changed(i), !same)
                << "iteration " << it << " op " << i;
            EXPECT_TRUE(fresh.changed(i));
            unchanged += same;
        }
    }
    // Both outcomes occur, so the comparison above is not vacuous.
    EXPECT_GT(unchanged, 0u);
}

TEST(Trace, ShrinkThenGrowMarksRegrownPositionsChanged)
{
    const Pipeline p = shiftingPipeline();
    Trace t;
    p.traceStage(0, 0, t);
    const Trace first = t;
    ASSERT_EQ(first.size(), 8u);
    p.traceStage(0, 1, t);
    ASSERT_EQ(t.size(), 6u);
    EXPECT_TRUE(t.changed(0));  // the wide projection moved on
    EXPECT_TRUE(t.changed(1));  // to here
    EXPECT_FALSE(t.changed(2));
    EXPECT_FALSE(t.changed(3));
    EXPECT_TRUE(t.changed(4));  // the attention moved up a position

    // Iteration 2 re-grows positions 6 and 7 with the ops they held
    // two emissions ago; their slots are stale, so they count as new.
    p.traceStage(0, 2, t);
    ASSERT_EQ(t.size(), 8u);
    for (std::size_t i = 6; i < 8; ++i) {
        EXPECT_TRUE(t.ops()[i] == first.ops()[i]) << i;
        EXPECT_TRUE(t.changed(i)) << i;
    }
    EXPECT_THROW(t.changed(8), FatalError);
}

TEST(Trace, ChangedComparesEveryField)
{
    Trace t;
    GraphBuilder f16(t);
    f16.silu(TensorDesc({4}, DType::F16));
    Op twice = t.ops()[0];
    twice.repeat = 2;
    t.append(twice);
    EXPECT_TRUE(t.changed(0));
    EXPECT_TRUE(t.changed(1));

    // Re-emitted: the built op is unchanged; the appended one now has
    // repeat 1 where its slot held 2.
    t.clear();
    EXPECT_TRUE(t.empty());
    f16.silu(TensorDesc({4}, DType::F16));
    t.append(t.ops()[0]);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_FALSE(t.changed(0));
    EXPECT_TRUE(t.changed(1));
    EXPECT_EQ(t.ops()[1].repeat, 1);

    // A built op whose slot held it with repeat 2.
    t.clear();
    t.append(twice);
    t.clear();
    f16.silu(TensorDesc({4}, DType::F16));
    EXPECT_TRUE(t.changed(0));
    EXPECT_EQ(t.ops()[0].repeat, 1);

    // Only the dtype differs.
    t.clear();
    GraphBuilder bf16(t, DType::BF16);
    bf16.silu(TensorDesc({4}, DType::F16));
    ASSERT_EQ(t.size(), 1u);
    EXPECT_TRUE(t.changed(0));
    EXPECT_EQ(t.ops()[0].dtype, DType::BF16);
}

} // namespace
} // namespace mmgen::graph
