/**
 * @file
 * Reusable architectural building blocks for the model zoo.
 *
 * Matches the decomposition of paper Fig. 3: diffusion UNets are built
 * from Resnet blocks, Self-Attention and Cross-Attention blocks at a
 * ladder of resolutions; transformer models are stacks of
 * self-attention / cross-attention / feed-forward blocks. TTV models
 * augment the UNet with temporal attention and pseudo-3D convolutions.
 */

#ifndef MMGEN_MODELS_BLOCKS_HH
#define MMGEN_MODELS_BLOCKS_HH

#include <cstdint>
#include <vector>

#include "graph/builder.hh"
#include "graph/pipeline.hh"

namespace mmgen::models {

using graph::AttentionKind;
using graph::GraphBuilder;
using mmgen::TensorDesc;

// ---------------------------------------------------------------------
// Transformer blocks
// ---------------------------------------------------------------------

/** Configuration of one transformer stack. */
struct TransformerConfig
{
    std::int64_t layers = 12;
    std::int64_t dim = 768;
    std::int64_t heads = 12;
    /** FFN hidden size as a multiple of dim. */
    double ffnMult = 4.0;
    /** Use gated (SwiGLU-style, three-matrix) FFN. */
    bool gatedFfn = false;
    /** Insert a cross-attention sublayer after self-attention. */
    bool crossAttention = false;
    /** Key/value length of the cross-attended context. */
    std::int64_t contextLen = 0;
    /** Causal self-attention mask. */
    bool causal = false;

    std::int64_t headDim() const { return dim / heads; }
    std::int64_t ffnHidden() const
    {
        return static_cast<std::int64_t>(dim * ffnMult);
    }
};

/**
 * One full-sequence pass through a transformer stack.
 *
 * @param x  [batch, seq, dim] input
 * @return   [batch, seq, dim] output
 */
TensorDesc transformerStack(GraphBuilder& b, const TransformerConfig& cfg,
                            TensorDesc x);

/**
 * One autoregressive decode step through a transformer stack: a
 * single-position query attending to a KV-cache of kv_len positions.
 *
 * @param batch   decode batch size
 * @param kv_len  sequence length visible to the step (prompt + emitted)
 * @return        [batch, 1, dim] output
 */
TensorDesc transformerDecodeStep(GraphBuilder& b,
                                 const TransformerConfig& cfg,
                                 std::int64_t batch,
                                 std::int64_t kv_len);

/** Final LM head projecting to a vocabulary. */
TensorDesc lmHead(GraphBuilder& b, TensorDesc x, std::int64_t vocab);

// ---------------------------------------------------------------------
// Diffusion UNet blocks
// ---------------------------------------------------------------------

/** Configuration of a (optionally spatio-temporal) diffusion UNet. */
struct UNetConfig
{
    /** Input/output latent or pixel channels. */
    std::int64_t inChannels = 4;
    /** Base channel count; level c has baseChannels * channelMult[c]. */
    std::int64_t baseChannels = 320;
    /** Per-level channel multipliers (paper Table I "Channel Mult"). */
    std::vector<std::int64_t> channelMult = {1, 2, 4, 4};
    /** Residual blocks per level (paper Table I "Num Res Blocks"). */
    int numResBlocks = 2;
    /**
     * Optional per-level residual block counts (Imagen's "Efficient
     * UNet" shifts capacity toward the low-resolution levels). Empty
     * means numResBlocks at every level.
     */
    std::vector<int> resBlocksPerLevel;

    /** Residual blocks at a pyramid level. */
    int resBlocksAt(std::size_t level) const;
    /**
     * Downsampling factors at which attention blocks are present
     * (paper Table I "Attn Res"): factor 1 is the input resolution,
     * 2 is one downsample below, etc.
     */
    std::vector<std::int64_t> attnDownFactors = {1, 2, 4};
    /** Downsampling factors with cross-attention onto the text. */
    std::vector<std::int64_t> crossAttnDownFactors = {1, 2, 4};
    /**
     * Keep the bottleneck (mid-block) attention even when the deepest
     * factor is not in attnDownFactors — Stable Diffusion attends at
     * its 8x8 bottleneck. Efficient-UNet SR stages set this false.
     */
    bool midBlockAttention = true;
    /** Attention heads at every attention site (fixed-count mode). */
    std::int64_t attnHeads = 8;
    /**
     * Per-head channels (paper Table I "Per-Head Channels"). When > 0
     * the head count scales with the level's channels (Imagen-style);
     * when 0 the fixed attnHeads count is used (SD-style).
     */
    std::int64_t attnHeadDim = 0;

    /** Heads used at a site with the given channel count. */
    std::int64_t headsFor(std::int64_t channels) const;
    /** Encoded text length for cross-attention. */
    std::int64_t textLen = 77;
    /** Timestep/conditioning embedding dimension. */
    std::int64_t embedDim = 768;

    /** Independent images processed per pass (e.g. per-frame SR). */
    std::int64_t batch = 1;

    /** Generate video: add temporal layers over this many frames. */
    bool temporal = false;
    std::int64_t frames = 1;

    /** Channels at pyramid level (0 = input resolution). */
    std::int64_t levelChannels(std::size_t level) const;

    /** True if the downsample factor carries (cross-)attention. */
    bool hasAttnAt(std::int64_t factor) const;
    bool hasCrossAttnAt(std::int64_t factor) const;
};

/**
 * Residual block: GN - SiLU - conv3x3 - (+temb) - GN - SiLU - conv3x3
 * with a 1x1 skip projection on channel change. In temporal UNets a
 * pseudo-3D (1x3x3 then 3x1x1) convolution pair replaces each conv.
 *
 * @param x  [N, C, H, W] feature map (frames folded into N when
 *           cfg.temporal)
 */
TensorDesc resnetBlock(GraphBuilder& b, const UNetConfig& cfg,
                       TensorDesc x, std::int64_t out_channels);

/**
 * Attention block over the flattened H*W positions: optional spatial
 * self-attention, optional cross-attention onto the text context, and,
 * in temporal UNets, a temporal attention sublayer over the frame
 * axis. Efficient-UNet SR stages use cross-only blocks (self = false)
 * because spatial self-attention is unaffordable at high resolution.
 */
TensorDesc attentionBlock(GraphBuilder& b, const UNetConfig& cfg,
                          TensorDesc x, bool self, bool cross);

/**
 * Full UNet forward pass at the given input spatial size.
 *
 * @param h, w  input (latent or pixel) spatial extent
 * @return      [N, inChannels, h, w] prediction
 */
TensorDesc unetForward(GraphBuilder& b, const UNetConfig& cfg,
                       std::int64_t h, std::int64_t w);

// ---------------------------------------------------------------------
// Encoders / decoders around the generators
// ---------------------------------------------------------------------

/** Text encoder (T5/CLIP-like bidirectional transformer). */
struct TextEncoderConfig
{
    std::int64_t layers = 12;
    std::int64_t dim = 768;
    std::int64_t heads = 12;
    std::int64_t seqLen = 77;
    std::int64_t vocab = 49408;
};

/** Encode `batch` prompts; returns [batch, seqLen, dim]. */
TensorDesc textEncoder(GraphBuilder& b, const TextEncoderConfig& cfg,
                       std::int64_t batch);

/** Convolutional VAE/VQGAN decoder from latents to pixels. */
struct ImageDecoderConfig
{
    std::int64_t latentChannels = 4;
    std::int64_t baseChannels = 128;
    /** Channel multipliers from the output end (level 0) upward. */
    std::vector<std::int64_t> channelMult = {1, 2, 4, 4};
    std::int64_t outChannels = 3;
    int resBlocksPerLevel = 2;
    /**
     * Single self-attention block at the latent-resolution bottleneck
     * (SD's VAE decoder has one); cheap because the sequence is the
     * small latent extent.
     */
    bool bottleneckAttention = true;
    std::int64_t attnHeads = 1;
};

/**
 * Decode latents of extent (h, w) up to pixels of extent
 * (h * 2^(levels-1), w * 2^(levels-1)).
 */
TensorDesc imageDecoder(GraphBuilder& b, const ImageDecoderConfig& cfg,
                        std::int64_t batch, std::int64_t h,
                        std::int64_t w);

// ---------------------------------------------------------------------
// Request shapes
// ---------------------------------------------------------------------

/**
 * The side nearest to `side * sqrt(size)` that is a positive multiple
 * of `multiple`, so a square grid's area (pixels or tokens) scales by
 * about `size` and every stride-2 level stays whole. Size 1.0 returns
 * `side` itself.
 */
std::int64_t roundedSide(std::int64_t side, double size,
                         std::int64_t multiple = 1);

/** The count nearest to `count * size`, at least 1; `count` at 1.0. */
std::int64_t roundedCount(std::int64_t count, double size);

/**
 * Finish a model builder: record on `p` the shape it realized. A shape
 * other than the default also labels the name, e.g. "Parti @b2
 * s1.978", so its diagnostics say which surface node they come from.
 */
void recordShape(graph::Pipeline& p, graph::RequestShape realized);

} // namespace mmgen::models

#endif // MMGEN_MODELS_BLOCKS_HH
