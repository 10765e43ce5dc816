/**
 * @file
 * Tests for the architectural building blocks.
 */

#include <gtest/gtest.h>

#include <map>

#include "models/blocks.hh"
#include "util/logging.hh"

namespace mmgen::models {
namespace {

using graph::AttentionAttrs;
using graph::GraphBuilder;
using graph::Op;
using graph::OpKind;
using graph::Trace;

/** Count ops of a kind in a trace. */
std::int64_t
countKind(const Trace& t, OpKind kind)
{
    std::int64_t n = 0;
    for (const auto& op : t.ops())
        n += op.kind == kind;
    return n;
}

/** Collect attention ops. */
std::vector<AttentionAttrs>
attentions(const Trace& t)
{
    std::vector<AttentionAttrs> v;
    for (const auto& op : t.ops())
        if (op.kind == OpKind::Attention)
            v.push_back(op.as<AttentionAttrs>());
    return v;
}

TEST(TransformerStack, EmitsPerLayerStructure)
{
    Trace t;
    GraphBuilder b(t);
    TransformerConfig cfg;
    cfg.layers = 4;
    cfg.dim = 256;
    cfg.heads = 8;
    transformerStack(b, cfg, TensorDesc({1, 64, 256}, DType::F16));
    EXPECT_EQ(countKind(t, OpKind::Attention), 4);
    // q,k,v,o + 2 ffn per layer.
    EXPECT_EQ(countKind(t, OpKind::Linear), 4 * 6);
    const auto attn = attentions(t);
    EXPECT_EQ(attn[0].seqQ, 64);
    EXPECT_EQ(attn[0].headDim, 32);
    EXPECT_FALSE(attn[0].causal);
}

TEST(TransformerStack, CrossAttentionAddsSublayer)
{
    Trace t;
    GraphBuilder b(t);
    TransformerConfig cfg;
    cfg.layers = 2;
    cfg.dim = 256;
    cfg.heads = 8;
    cfg.crossAttention = true;
    cfg.contextLen = 77;
    transformerStack(b, cfg, TensorDesc({1, 64, 256}, DType::F16));
    const auto attn = attentions(t);
    EXPECT_EQ(attn.size(), 4u);
    EXPECT_EQ(attn[1].kind, graph::AttentionKind::CrossText);
    EXPECT_EQ(attn[1].seqKv, 77);
}

TEST(TransformerStack, ValidatesInput)
{
    Trace t;
    GraphBuilder b(t);
    TransformerConfig cfg;
    cfg.dim = 256;
    cfg.heads = 7; // does not divide
    EXPECT_THROW(
        transformerStack(b, cfg, TensorDesc({1, 8, 256}, DType::F16)),
        FatalError);
    cfg.heads = 8;
    EXPECT_THROW(
        transformerStack(b, cfg, TensorDesc({1, 8, 128}, DType::F16)),
        FatalError);
}

TEST(TransformerDecodeStep, SingleQueryAgainstCache)
{
    Trace t;
    GraphBuilder b(t);
    TransformerConfig cfg;
    cfg.layers = 3;
    cfg.dim = 512;
    cfg.heads = 8;
    cfg.causal = true;
    transformerDecodeStep(b, cfg, 1, 100);
    const auto attn = attentions(t);
    ASSERT_EQ(attn.size(), 3u);
    for (const auto& a : attn) {
        EXPECT_EQ(a.seqQ, 1);
        EXPECT_EQ(a.seqKv, 100);
    }
}

TEST(UNetConfig, LevelHelpers)
{
    UNetConfig cfg;
    cfg.baseChannels = 320;
    cfg.channelMult = {1, 2, 4, 4};
    cfg.attnDownFactors = {1, 2, 4};
    EXPECT_EQ(cfg.levelChannels(0), 320);
    EXPECT_EQ(cfg.levelChannels(2), 1280);
    EXPECT_THROW(cfg.levelChannels(4), FatalError);
    EXPECT_TRUE(cfg.hasAttnAt(2));
    EXPECT_FALSE(cfg.hasAttnAt(8));
    cfg.resBlocksPerLevel = {1, 2};
    EXPECT_THROW(cfg.resBlocksAt(0), FatalError); // arity mismatch
    cfg.resBlocksPerLevel = {1, 2, 3, 4};
    EXPECT_EQ(cfg.resBlocksAt(3), 4);
    cfg.attnHeadDim = 64;
    EXPECT_EQ(cfg.headsFor(1280), 20);
    EXPECT_THROW(cfg.headsFor(100), FatalError);
}

TEST(UNetForward, SymmetricLadderConsumesSkips)
{
    Trace t;
    GraphBuilder b(t);
    UNetConfig cfg;
    cfg.inChannels = 4;
    cfg.baseChannels = 32;
    cfg.channelMult = {1, 2};
    cfg.numResBlocks = 1;
    cfg.attnDownFactors = {2};
    cfg.crossAttnDownFactors = {2};
    const TensorDesc out = unetForward(b, cfg, 16, 16);
    EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{1, 4, 16, 16}));
    EXPECT_GT(countKind(t, OpKind::Conv2D), 8);
    EXPECT_GT(countKind(t, OpKind::Attention), 0);
}

TEST(UNetForward, AttentionSitesFollowConfiguredFactors)
{
    Trace t;
    GraphBuilder b(t);
    UNetConfig cfg;
    cfg.inChannels = 4;
    cfg.baseChannels = 64;
    cfg.channelMult = {1, 2, 4};
    cfg.numResBlocks = 1;
    cfg.attnDownFactors = {2};
    cfg.crossAttnDownFactors = {};
    cfg.midBlockAttention = false;
    cfg.attnHeads = 8;
    unetForward(b, cfg, 32, 32);
    for (const auto& a : attentions(t)) {
        // Attention only at factor 2: 16x16 positions.
        EXPECT_EQ(a.seqQ, 256);
        EXPECT_EQ(a.kind, graph::AttentionKind::SelfSpatial);
    }
    EXPECT_GT(attentions(t).size(), 0u);
}

TEST(UNetForward, MidBlockAttentionFlag)
{
    UNetConfig cfg;
    cfg.inChannels = 4;
    cfg.baseChannels = 64;
    cfg.channelMult = {1, 2};
    cfg.numResBlocks = 1;
    cfg.attnDownFactors = {};
    cfg.crossAttnDownFactors = {};
    for (bool mid : {false, true}) {
        Trace t;
        GraphBuilder b(t);
        cfg.midBlockAttention = mid;
        unetForward(b, cfg, 16, 16);
        EXPECT_EQ(countKind(t, OpKind::Attention) > 0, mid);
    }
}

TEST(UNetForward, TemporalAddsTemporalAttentionAndConv3d)
{
    Trace t;
    GraphBuilder b(t);
    UNetConfig cfg;
    cfg.inChannels = 4;
    cfg.baseChannels = 32;
    cfg.channelMult = {1, 2};
    cfg.numResBlocks = 1;
    cfg.attnDownFactors = {2};
    cfg.crossAttnDownFactors = {2};
    cfg.temporal = true;
    cfg.frames = 8;
    unetForward(b, cfg, 16, 16);
    EXPECT_EQ(countKind(t, OpKind::Conv2D), 0);
    EXPECT_GT(countKind(t, OpKind::Conv3D), 0);
    bool saw_temporal = false;
    for (const auto& a : attentions(t)) {
        if (a.kind == graph::AttentionKind::Temporal) {
            saw_temporal = true;
            EXPECT_EQ(a.seqQ, 8);
            EXPECT_GT(a.featureStrideElems, 1);
            EXPECT_EQ(a.seqStrideElems, a.batch); // H*W positions
        }
    }
    EXPECT_TRUE(saw_temporal);
}

TEST(TextEncoder, EmitsEmbeddingAndStack)
{
    for (const std::int64_t batch : {1, 3}) {
        Trace t;
        GraphBuilder b(t);
        TextEncoderConfig cfg;
        cfg.layers = 2;
        cfg.dim = 128;
        cfg.heads = 4;
        cfg.seqLen = 77;
        const TensorDesc out = textEncoder(b, cfg, batch);
        EXPECT_EQ(out.shape(),
                  (std::vector<std::int64_t>{batch, 77, 128}));
        EXPECT_EQ(countKind(t, OpKind::Embedding), 1);
        EXPECT_EQ(t.ops()[0].as<graph::EmbeddingAttrs>().tokens,
                  batch * 77);
        EXPECT_EQ(countKind(t, OpKind::Attention), 2);
        // Each prompt attends its own 77 tokens.
        for (const Op& op : t.ops()) {
            if (op.kind == OpKind::Attention) {
                EXPECT_EQ(op.as<AttentionAttrs>().batch, batch);
                EXPECT_EQ(op.as<AttentionAttrs>().seqKv, 77);
            }
        }
    }
}

TEST(ImageDecoder, UpsamplesToPixels)
{
    Trace t;
    GraphBuilder b(t);
    ImageDecoderConfig cfg;
    cfg.latentChannels = 4;
    cfg.baseChannels = 32;
    cfg.channelMult = {1, 2, 4, 4};
    const TensorDesc out = imageDecoder(b, cfg, 1, 64, 64);
    // Three upsamples (levels - 1): 64 -> 512.
    EXPECT_EQ(out.shape(), (std::vector<std::int64_t>{1, 3, 512, 512}));
    EXPECT_EQ(countKind(t, OpKind::Upsample), 3);
}

TEST(Blocks, ResnetSkipProjectionOnlyOnChannelChange)
{
    UNetConfig cfg;
    Trace t1;
    GraphBuilder b1(t1);
    resnetBlock(b1, cfg, TensorDesc({1, 64, 8, 8}, DType::F16), 64);
    Trace t2;
    GraphBuilder b2(t2);
    resnetBlock(b2, cfg, TensorDesc({1, 64, 8, 8}, DType::F16), 128);
    EXPECT_EQ(countKind(t2, OpKind::Conv2D),
              countKind(t1, OpKind::Conv2D) + 1);
}

} // namespace
} // namespace mmgen::models
