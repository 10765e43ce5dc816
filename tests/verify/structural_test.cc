/**
 * @file
 * Golden-diagnostic tests: each hand-corrupted graph must trigger
 * exactly its expected rule id, and clean zoo pipelines none.
 */

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "models/model_suite.hh"
#include "util/logging.hh"
#include "verify/verify.hh"

namespace mmgen::verify {
namespace {

graph::Op
convOp(std::int64_t in_c, std::int64_t out_c, std::int64_t h,
       std::int64_t w, std::int64_t batch = 1, std::int64_t stride = 1)
{
    graph::ConvAttrs a;
    a.batch = batch;
    a.inChannels = in_c;
    a.outChannels = out_c;
    a.inH = h;
    a.inW = w;
    a.strideH = stride;
    a.strideW = stride;
    graph::Op op;
    op.kind = graph::OpKind::Conv2D;
    op.scope = "test.conv";
    op.attrs = a;
    return op;
}

graph::Op
attentionOp(graph::AttentionKind kind, std::int64_t batch,
            std::int64_t seq_q, std::int64_t seq_kv,
            std::int64_t seq_stride, std::int64_t feature_stride,
            bool causal = false)
{
    graph::AttentionAttrs a;
    a.kind = kind;
    a.batch = batch;
    a.heads = 8;
    a.seqQ = seq_q;
    a.seqKv = seq_kv;
    a.headDim = 64;
    a.causal = causal;
    a.seqStrideElems = seq_stride;
    a.featureStrideElems = feature_stride;
    graph::Op op;
    op.kind = graph::OpKind::Attention;
    op.scope = "test.attn";
    op.attrs = a;
    return op;
}

TraceContext
ctxF16()
{
    TraceContext ctx;
    ctx.model = "test";
    ctx.stage = "stage";
    ctx.dtype = DType::F16;
    return ctx;
}

/** The report must carry errors, all firing exactly `rule`. */
void
expectOnlyRule(const DiagnosticReport& report, const char* rule)
{
    EXPECT_TRUE(report.hasErrors()) << report.render();
    const std::vector<std::string> fired = report.firedRules();
    ASSERT_EQ(fired.size(), 1u) << report.render();
    EXPECT_EQ(fired[0], rule) << report.render();
}

TEST(StructuralVerifier, BadConvChainFiresChannelContinuity)
{
    graph::Trace t;
    t.append(convOp(64, 128, 32, 32));
    t.append(convOp(99, 128, 32, 32)); // producer emitted 128
    expectOnlyRule(verifyTrace(t, ctxF16()),
                   rules::ChannelContinuity);
}

TEST(StructuralVerifier, ResolutionJumpFiresChannelContinuity)
{
    graph::Trace t;
    t.append(convOp(64, 128, 32, 32));
    t.append(convOp(128, 128, 16, 16)); // no downsample in between
    expectOnlyRule(verifyTrace(t, ctxF16()),
                   rules::ChannelContinuity);
}

TEST(StructuralVerifier, SkipConcatIsNotAViolation)
{
    graph::Trace t;
    t.append(convOp(64, 128, 32, 32));
    t.append(convOp(128, 256, 32, 32));
    // UNet decoder concat: 256 live + 128 skip.
    t.append(convOp(256 + 128, 256, 32, 32));
    const DiagnosticReport report = verifyTrace(t, ctxF16());
    EXPECT_FALSE(report.hasErrors()) << report.render();
}

TEST(StructuralVerifier, WrongTemporalStrideFiresTemporalRule)
{
    graph::Trace t;
    // 16 frames of 24x24 positions; feature stride should be F*H*W.
    t.append(attentionOp(graph::AttentionKind::Temporal, 576, 16, 16,
                         /*seq_stride=*/576,
                         /*feature_stride=*/576));
    expectOnlyRule(verifyTrace(t, ctxF16()),
                   rules::TemporalAttention);
}

TEST(StructuralVerifier, TemporalFrameMismatchAgainstConvState)
{
    graph::Trace t;
    graph::Op conv = convOp(64, 64, 24, 24);
    std::get<graph::ConvAttrs>(conv.attrs).inD = 16;
    conv.kind = graph::OpKind::Conv3D;
    t.append(conv);
    // Attends 8 frames while the feature map carries 16.
    t.append(attentionOp(graph::AttentionKind::Temporal, 576, 8, 8,
                         576, 8 * 576));
    expectOnlyRule(verifyTrace(t, ctxF16()),
                   rules::TemporalAttention);
}

TEST(StructuralVerifier, MismatchedDtypeFiresDtypeRule)
{
    graph::Trace t;
    graph::Op op = convOp(64, 64, 32, 32);
    op.dtype = DType::F32;
    t.append(op);
    expectOnlyRule(verifyTrace(t, ctxF16()),
                   rules::DtypeConsistency);
}

TEST(StructuralVerifier, NonPositiveDimFiresS001)
{
    graph::Trace t;
    graph::Op op;
    op.kind = graph::OpKind::Linear;
    op.scope = "test.linear";
    graph::LinearAttrs a;
    a.rows = 128;
    a.inFeatures = 512;
    a.outFeatures = 0;
    op.attrs = a;
    t.append(op);
    expectOnlyRule(verifyTrace(t, ctxF16()), rules::NonPositiveDim);
}

TEST(StructuralVerifier, IndivisibleStrideFiresS003)
{
    graph::Trace t;
    t.append(convOp(64, 64, 33, 33, 1, /*stride=*/2));
    expectOnlyRule(verifyTrace(t, ctxF16()),
                   rules::ConvStrideDivisibility);
}

TEST(StructuralVerifier, ZeroRepeatFiresRepeatSanity)
{
    graph::Trace t;
    graph::Op op = convOp(64, 64, 32, 32);
    op.repeat = 0;
    t.append(op);
    expectOnlyRule(verifyTrace(t, ctxF16()), rules::RepeatSanity);
}

TEST(StructuralVerifier, UnmaskedPrefillFiresCausalRule)
{
    graph::Trace t;
    t.append(attentionOp(graph::AttentionKind::CausalSelf, 1, 128, 128,
                         512, 1, /*causal=*/false));
    expectOnlyRule(verifyTrace(t, ctxF16()), rules::CausalAttention);
}

TEST(StructuralVerifier, DecodeStepWithoutMaskIsLegal)
{
    graph::Trace t;
    t.append(attentionOp(graph::AttentionKind::CausalSelf, 1, 1, 512,
                         512, 1, /*causal=*/false));
    const DiagnosticReport report = verifyTrace(t, ctxF16());
    EXPECT_FALSE(report.hasErrors()) << report.render();
}

TEST(StructuralVerifier, WrongPromptLengthFiresCrossRule)
{
    TraceContext ctx = ctxF16();
    ctx.promptLen = 77;
    graph::Trace t;
    t.append(attentionOp(graph::AttentionKind::CrossText, 2, 4096, 64,
                         512, 1));
    expectOnlyRule(verifyTrace(t, ctx), rules::CrossAttention);
}

/** Two prompts encoded together, then cross-attention onto `kv_len`. */
graph::Pipeline
twoPromptPipeline(std::int64_t kv_len)
{
    graph::Pipeline p;
    p.name = "two_prompts";
    graph::Stage text;
    text.name = "text_encoder";
    text.emit = [](graph::GraphBuilder& b, std::int64_t) {
        b.embedding(2 * 77, 768, 49408); // both prompts' tokens
        b.attention(graph::AttentionKind::SelfSpatial, 2, 12, 77, 77, 64);
    };
    p.stages.push_back(std::move(text));
    graph::Stage gen;
    gen.name = "generator";
    gen.emit = [kv_len](graph::GraphBuilder& b, std::int64_t) {
        b.attention(graph::AttentionKind::CrossText, 2, 8, 256, kv_len,
                    64);
    };
    p.stages.push_back(std::move(gen));
    return p;
}

TEST(StructuralVerifier, PromptLengthIsPerRequestAtBatchTwo)
{
    // Each prompt is 77 tokens though the embedding looks up 154.
    const DiagnosticReport clean = verifyPipeline(twoPromptPipeline(77));
    EXPECT_FALSE(clean.hasErrors()) << clean.render();
    expectOnlyRule(verifyPipeline(twoPromptPipeline(154)),
                   rules::CrossAttention);

    const DiagnosticReport sd = verifyPipeline(models::buildModel(
        models::ModelId::StableDiffusion, {2, 1.0}));
    EXPECT_FALSE(sd.hasErrors()) << sd.render();
}

TEST(StructuralVerifier, SpatialSeqMismatchAgainstConvState)
{
    graph::Trace t;
    t.append(convOp(4, 320, 64, 64, 2));
    // 64x64 feature map has 4096 positions, not 1024.
    t.append(attentionOp(graph::AttentionKind::SelfSpatial, 2, 1024,
                         1024, 512, 1));
    expectOnlyRule(verifyTrace(t, ctxF16()),
                   rules::SpatialAttention);
}

TEST(StructuralVerifier, CausalSpatialAttentionFiresS005)
{
    graph::Trace t;
    t.append(attentionOp(graph::AttentionKind::SelfSpatial, 2, 4096,
                         4096, 512, 1, /*causal=*/true));
    expectOnlyRule(verifyTrace(t, ctxF16()),
                   rules::SpatialAttention);
}

TEST(StructuralVerifier, OverflowProductFiresS002)
{
    graph::Trace t;
    graph::Op op;
    op.kind = graph::OpKind::Matmul;
    op.scope = "test.matmul";
    graph::MatmulAttrs a;
    a.batch = 1 << 20;
    a.m = 1 << 20;
    a.n = 1 << 20;
    a.k = 1 << 20;
    op.attrs = a;
    t.append(op);
    expectOnlyRule(verifyTrace(t, ctxF16()), rules::OverflowRisk);
}

TEST(StructuralVerifier, ConvOutDimsRoundUp)
{
    graph::ConvAttrs a;
    a.inH = 33;
    a.inW = 66;
    a.strideH = 2;
    a.strideW = 4;
    EXPECT_EQ(a.outH(), 17); // ceil(33/2), not 16
    EXPECT_EQ(a.outW(), 17); // ceil(66/4), not 16
}

TEST(StructuralVerifier, PerIterationParamDriftFiresParamCount)
{
    graph::Pipeline p;
    p.name = "drift";
    p.klass = graph::ModelClass::LLM;
    graph::Stage st;
    st.name = "decode";
    st.iterations = 4;
    st.perIterationShapes = true;
    st.emit = [](graph::GraphBuilder& b, std::int64_t iter) {
        // Weight size depends on the iteration index: illegal.
        const TensorDesc x({1, 64}, b.dtype());
        b.linear(x, 64 * (iter + 1));
    };
    p.stages.push_back(st);
    const DiagnosticReport report = verifyPipeline(p);
    EXPECT_TRUE(report.fired(rules::ParamCount)) << report.render();
}

TEST(StructuralVerifier, ThrowingEmitterFiresTraceFailure)
{
    graph::Pipeline p;
    p.name = "broken";
    graph::Stage st;
    st.name = "bad";
    st.iterations = 1;
    st.emit = [](graph::GraphBuilder& b, std::int64_t) {
        const TensorDesc x({1, 64, 33, 33}, b.dtype());
        b.conv2d(x, 64, 3, /*stride=*/2); // builder rejects 33 % 2
    };
    p.stages.push_back(st);
    const DiagnosticReport report = verifyPipeline(p);
    expectOnlyRule(report, rules::TraceFailure);
}

TEST(StructuralVerifier, CleanZooPipelinesProduceNoErrors)
{
    for (models::ModelId id : models::allModels()) {
        const graph::Pipeline p = models::buildModel(id);
        const DiagnosticReport report = verifyPipeline(p);
        EXPECT_FALSE(report.hasErrors())
            << models::modelName(id) << ":\n"
            << report.render();
    }
}

TEST(StructuralVerifier, VerifyOrThrowThrowsOnCorruptPipeline)
{
    graph::Pipeline p;
    p.name = "empty-emitter";
    graph::Stage st;
    st.name = "none";
    st.iterations = 0;
    p.stages.push_back(st);
    EXPECT_THROW(verifyPipelineOrThrow(p), FatalError);
}

TEST(StructuralVerifier, RuntimeToggleRoundTrips)
{
    const bool initial = runtimeChecksEnabled();
    const bool previous = setRuntimeChecks(!initial);
    EXPECT_EQ(previous, initial);
    EXPECT_EQ(runtimeChecksEnabled(), !initial);
    setRuntimeChecks(initial);
    EXPECT_EQ(runtimeChecksEnabled(), initial);
}

TEST(StructuralVerifier, RuleRegistryIsConsistent)
{
    EXPECT_GE(allRules().size(), 17u);
    for (const RuleInfo& r : allRules()) {
        EXPECT_EQ(&ruleInfo(r.id), &r);
        EXPECT_TRUE(std::string(r.family) == "structural" ||
                    std::string(r.family) == "physics")
            << r.id;
    }
    EXPECT_THROW(ruleInfo("S999"), FatalError);
}

TEST(DiagnosticReport, SuppressionCapsPerRuleNoise)
{
    DiagnosticReport report;
    for (int i = 0; i < 20; ++i)
        report.add(Diagnostic{Severity::Error, rules::NonPositiveDim,
                              "m", "s", "op", "boom", ""});
    EXPECT_EQ(report.errorCount(), 20);
    EXPECT_EQ(static_cast<int>(report.diagnostics().size()),
              DiagnosticReport::kMaxPerRulePerStage);
    EXPECT_EQ(report.suppressedCount(),
              20 - DiagnosticReport::kMaxPerRulePerStage);
}

TEST(DiagnosticReport, JsonEscapesAndListsFindings)
{
    DiagnosticReport report;
    report.add(Diagnostic{Severity::Warn, "S001", "m\"x", "s", "op",
                          "line\nbreak", "hint"});
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"severity\":\"warn\""), std::string::npos);
    EXPECT_NE(json.find("m\\\"x"), std::string::npos);
    EXPECT_NE(json.find("line\\nbreak"), std::string::npos);
}

} // namespace
} // namespace mmgen::verify
