/**
 * @file
 * Structural tests over the eight-model suite: every model builds,
 * parameter counts land near the published sizes (paper Table I), and
 * pipeline structure matches the paper's Fig. 2 decomposition.
 */

#include <gtest/gtest.h>

#include <set>

#include "models/imagen.hh"
#include "models/llama.hh"
#include "models/make_a_video.hh"
#include "models/model_suite.hh"
#include "models/muse.hh"
#include "models/parti.hh"
#include "models/phenaki.hh"
#include "models/stable_diffusion.hh"
#include "util/logging.hh"
#include "verify/verify.hh"

namespace mmgen::models {
namespace {

TEST(ModelSuite, EnumeratesEightModels)
{
    EXPECT_EQ(allModels().size(), 8u);
    EXPECT_EQ(imageVideoModels().size(), 7u);
    EXPECT_EQ(modelName(ModelId::StableDiffusion), "StableDiffusion");
}

/** Every model builds and produces a consistent pipeline. */
class BuildsAndTraces : public ::testing::TestWithParam<ModelId>
{};

TEST_P(BuildsAndTraces, AllStagesTraceable)
{
    const graph::Pipeline p = buildModel(GetParam());
    EXPECT_EQ(p.name, modelName(GetParam()));
    EXPECT_FALSE(p.stages.empty());
    for (std::size_t si = 0; si < p.stages.size(); ++si) {
        const graph::Trace t = p.traceStage(si, 0);
        EXPECT_FALSE(t.empty()) << p.stages[si].name;
        const graph::Trace last =
            p.traceStage(si, p.stages[si].iterations - 1);
        EXPECT_FALSE(last.empty());
    }
    EXPECT_GT(p.totalParams(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, BuildsAndTraces, ::testing::ValuesIn(allModels()),
    [](const ::testing::TestParamInfo<ModelId>& info) {
        return modelName(info.param);
    });

/**
 * Every model builds each node of a batch-latency surface as a graph
 * the verifier accepts, at sizes it realizes in ascending order.
 */
class RequestShapes : public ::testing::TestWithParam<ModelId>
{};

TEST_P(RequestShapes, EveryNodeVerifiesClean)
{
    const ModelId id = GetParam();
    const std::uint64_t unit = buildModel(id).fingerprint();
    std::set<std::uint64_t> fingerprints;
    for (const int batch : {1, 2, 4}) {
        double previous = 0.0;
        for (const double size : {0.5, 1.0, 2.0, 4.0}) {
            const graph::Pipeline p = buildModel(id, {batch, size});
            SCOPED_TRACE(p.name);
            EXPECT_EQ(p.shape.batch, batch);
            EXPECT_GT(p.shape.size, previous);
            previous = p.shape.size;
            const verify::DiagnosticReport report =
                verify::verifyPipeline(p);
            EXPECT_EQ(report.errorCount(), 0) << report.render();

            const std::uint64_t fp = p.fingerprint();
            EXPECT_TRUE(fingerprints.insert(fp).second);
            EXPECT_EQ(fp == unit, batch == 1 && size == 1.0);
            // Asking for the realized size builds the same graph.
            EXPECT_EQ(buildModel(id, p.shape).fingerprint(), fp);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, RequestShapes, ::testing::ValuesIn(allModels()),
    [](const ::testing::TestParamInfo<ModelId>& info) {
        return modelName(info.param);
    });

TEST(ModelParams, LandNearPublishedSizes)
{
    // Paper Table I: SD 1.45B, Imagen 3B, Muse 3B, Parti 20B.
    // Our reproductions must land in the right ballpark (±50%).
    auto params_b = [](ModelId id) {
        return static_cast<double>(buildModel(id).totalParams()) / 1e9;
    };
    EXPECT_NEAR(params_b(ModelId::StableDiffusion), 1.2, 0.6);
    EXPECT_NEAR(params_b(ModelId::Imagen), 3.0, 1.5);
    EXPECT_NEAR(params_b(ModelId::Muse), 3.0, 1.5);
    EXPECT_NEAR(params_b(ModelId::Parti), 20.0, 6.0);
    EXPECT_NEAR(params_b(ModelId::LLaMA), 6.7, 1.0);
}

TEST(ModelClasses, MatchPaperTaxonomy)
{
    EXPECT_EQ(buildModel(ModelId::LLaMA).klass, graph::ModelClass::LLM);
    EXPECT_EQ(buildModel(ModelId::Imagen).klass,
              graph::ModelClass::DiffusionPixel);
    EXPECT_EQ(buildModel(ModelId::StableDiffusion).klass,
              graph::ModelClass::DiffusionLatent);
    EXPECT_EQ(buildModel(ModelId::ProdImage).klass,
              graph::ModelClass::DiffusionLatent);
    EXPECT_EQ(buildModel(ModelId::Muse).klass,
              graph::ModelClass::TransformerTTI);
    EXPECT_EQ(buildModel(ModelId::Parti).klass,
              graph::ModelClass::TransformerTTI);
    EXPECT_EQ(buildModel(ModelId::MakeAVideo).klass,
              graph::ModelClass::DiffusionTTV);
    EXPECT_EQ(buildModel(ModelId::Phenaki).klass,
              graph::ModelClass::TransformerTTV);
}

TEST(StableDiffusion, PipelineMatchesFig2)
{
    const graph::Pipeline p = buildStableDiffusion();
    ASSERT_EQ(p.stages.size(), 3u);
    EXPECT_EQ(p.stages[0].name, "text_encoder");
    EXPECT_EQ(p.stages[1].name, "unet");
    EXPECT_EQ(p.stages[1].iterations, 50);
    EXPECT_FALSE(p.stages[1].perIterationShapes);
    EXPECT_EQ(p.stages[2].name, "vae_decoder");
}

TEST(StableDiffusion, SequenceLengthsSpanTableIRange)
{
    // Self-attention at latent 64/32/16 plus the 8x8 mid block:
    // sequence lengths 4096, 1024, 256, 64 (paper Figs. 7/8).
    const graph::Pipeline p = buildStableDiffusion();
    const graph::Trace t = p.traceStage(1, 0);
    std::set<std::int64_t> seqs;
    for (const auto& op : t.ops()) {
        if (op.kind == graph::OpKind::Attention) {
            const auto& a = op.as<graph::AttentionAttrs>();
            if (a.kind == graph::AttentionKind::SelfSpatial)
                seqs.insert(a.seqQ);
        }
    }
    EXPECT_EQ(seqs, (std::set<std::int64_t>{64, 256, 1024, 4096}));
}

TEST(StableDiffusion, ClassifierFreeGuidanceDoublesUNetWork)
{
    StableDiffusionConfig cfg;
    cfg.classifierFreeGuidance = true;
    const graph::Pipeline guided = buildStableDiffusion(cfg);
    const graph::Pipeline plain = buildStableDiffusion();
    // UNet batch doubles; weights do not.
    const graph::Trace g = guided.traceStage(1, 0);
    const graph::Trace p = plain.traceStage(1, 0);
    EXPECT_EQ(g.totalParams(), p.totalParams());
    const auto& ga = g.ops()[0].as<graph::ConvAttrs>();
    const auto& pa = p.ops()[0].as<graph::ConvAttrs>();
    EXPECT_EQ(ga.batch, 2 * pa.batch);
}

TEST(StableDiffusion, ImageSizeValidation)
{
    StableDiffusionConfig cfg;
    cfg.imageSize = 500; // not divisible by the VAE scale
    EXPECT_THROW(buildStableDiffusion(cfg), FatalError);
}

TEST(Imagen, CascadeHasThreeDiffusionStages)
{
    const graph::Pipeline p = buildImagen();
    ASSERT_EQ(p.stages.size(), 4u);
    EXPECT_EQ(p.stages[1].name, "base_unet");
    EXPECT_EQ(p.stages[2].name, "sr1_unet");
    EXPECT_EQ(p.stages[3].name, "sr2_unet");

    // SR stages must not contain spatial self-attention (efficient
    // UNet drops it at high resolution; paper Section II-B).
    for (std::size_t si : {2u, 3u}) {
        const graph::Trace t = p.traceStage(si, 0);
        for (const auto& op : t.ops()) {
            if (op.kind != graph::OpKind::Attention)
                continue;
            EXPECT_NE(op.as<graph::AttentionAttrs>().kind,
                      graph::AttentionKind::SelfSpatial)
                << "self-attention found in SR stage " << si;
        }
    }
}

TEST(Llama, PrefillThenAutoregressiveDecode)
{
    const LlamaConfig cfg;
    const graph::Pipeline p = buildLlama(cfg);
    ASSERT_EQ(p.stages.size(), 2u);
    EXPECT_FALSE(p.stages[0].perIterationShapes);
    EXPECT_TRUE(p.stages[1].perIterationShapes);
    EXPECT_EQ(p.stages[1].iterations, cfg.decodeTokens);

    // KV length grows with the decode step.
    const graph::Trace first = p.traceStage(1, 0);
    const graph::Trace last = p.traceStage(1, cfg.decodeTokens - 1);
    auto kv_of = [](const graph::Trace& t) {
        for (const auto& op : t.ops())
            if (op.kind == graph::OpKind::Attention)
                return op.as<graph::AttentionAttrs>().seqKv;
        return std::int64_t{-1};
    };
    EXPECT_EQ(kv_of(first), cfg.promptLen + 1);
    EXPECT_EQ(kv_of(last), cfg.promptLen + cfg.decodeTokens);
}

TEST(Parti, DecodesEveryImageToken)
{
    const PartiConfig cfg;
    const graph::Pipeline p = buildParti(cfg);
    EXPECT_EQ(p.stages[1].iterations, cfg.imageTokens());
    EXPECT_TRUE(p.stages[1].perIterationShapes);
}

TEST(Muse, ParallelDecodingHasConstantShapes)
{
    const graph::Pipeline p = buildMuse();
    // Every refinement step has identical shapes: the engine may fold.
    EXPECT_FALSE(p.stages[1].perIterationShapes);
    EXPECT_GT(p.stages[1].iterations, 1);
}

TEST(MakeAVideo, TemporalLayersPresentInBaseAndInterp)
{
    const graph::Pipeline p = buildMakeAVideo();
    for (std::size_t si : {1u, 2u}) {
        const graph::Trace t = p.traceStage(si, 0);
        bool temporal_attn = false, conv3d = false;
        for (const auto& op : t.ops()) {
            if (op.kind == graph::OpKind::Attention &&
                op.as<graph::AttentionAttrs>().kind ==
                    graph::AttentionKind::Temporal) {
                temporal_attn = true;
            }
            conv3d |= op.kind == graph::OpKind::Conv3D;
        }
        EXPECT_TRUE(temporal_attn) << "stage " << si;
        EXPECT_TRUE(conv3d) << "stage " << si;
    }
}

TEST(Phenaki, ChunkedAutoregressiveInTime)
{
    const PhenakiConfig cfg;
    EXPECT_EQ(cfg.timeChunks(),
              (cfg.frames + cfg.framesPerChunk - 1) / cfg.framesPerChunk);
    const graph::Pipeline p = buildPhenaki(cfg);
    EXPECT_EQ(p.stages[1].iterations,
              cfg.maskgitSteps * cfg.timeChunks());
    // The C-ViViT decoder carries temporal attention.
    const graph::Trace t = p.traceStage(2, 0);
    bool temporal = false;
    for (const auto& op : t.ops()) {
        if (op.kind == graph::OpKind::Attention)
            temporal |= op.as<graph::AttentionAttrs>().kind ==
                        graph::AttentionKind::Temporal;
    }
    EXPECT_TRUE(temporal);
}

} // namespace
} // namespace mmgen::models
