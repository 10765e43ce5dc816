#include "blocks.hh"

#include <algorithm>
#include <cmath>

#include "util/format.hh"
#include "util/logging.hh"

namespace mmgen::models {

using graph::OpKind;

namespace {

/**
 * Spatial convolution dispatching on layout: plain 2-D conv for NCHW,
 * a pseudo-3D (1 x k x k) conv for NCDHW video tensors.
 */
TensorDesc
spatialConv(GraphBuilder& b, TensorDesc x, std::int64_t out_ch,
            std::int64_t kernel, std::int64_t stride = 1)
{
    if (x.rank() == 5)
        return b.conv3d(x, out_ch, 1, kernel, stride);
    return b.conv2d(x, out_ch, kernel, stride);
}

/** Temporal (k x 1 x 1) convolution over the frame axis of NCDHW. */
TensorDesc
temporalConv(GraphBuilder& b, TensorDesc x, std::int64_t out_ch)
{
    MMGEN_CHECK(x.rank() == 5, "temporal conv expects NCDHW");
    return b.conv3d(x, out_ch, 3, 1, 1);
}

/** Spatial extent (H * W) for NCHW or NCDHW. */
std::int64_t
spatialPositions(const TensorDesc& x)
{
    return x.dim(-2) * x.dim(-1);
}

/** Batch of independent images: N for NCHW, N * frames for NCDHW. */
std::int64_t
imageBatch(const TensorDesc& x)
{
    return x.rank() == 5 ? x.dim(0) * x.dim(2) : x.dim(0);
}

} // namespace

// ---------------------------------------------------------------------
// Transformer blocks
// ---------------------------------------------------------------------

namespace {

/** Self-attention sublayer over a full [batch, seq, dim] sequence. */
TensorDesc
selfAttentionSublayer(GraphBuilder& b, const TransformerConfig& cfg,
                      TensorDesc x)
{
    auto s = b.scope("self_attn");
    TensorDesc h = b.layerNorm(x);
    b.linear(h, cfg.dim, false); // q
    b.linear(h, cfg.dim, false); // k
    b.linear(h, cfg.dim, false); // v
    TensorDesc o = b.attention(
        cfg.causal ? AttentionKind::CausalSelf
                   : AttentionKind::SelfSpatial,
        x.dim(0), cfg.heads, x.dim(1), x.dim(1), cfg.headDim(),
        /*seq_stride=*/0, cfg.causal);
    o = b.linear(o, cfg.dim);
    return b.binary(x, "residual_add");
}

/** Cross-attention sublayer onto a cached context. */
TensorDesc
crossAttentionSublayer(GraphBuilder& b, const TransformerConfig& cfg,
                       TensorDesc x, bool project_context)
{
    auto s = b.scope("cross_attn");
    TensorDesc h = b.layerNorm(x);
    b.linear(h, cfg.dim, false); // q
    if (project_context) {
        const TensorDesc ctx({x.dim(0), cfg.contextLen, cfg.dim},
                             b.dtype());
        b.linear(ctx, cfg.dim, false); // k
        b.linear(ctx, cfg.dim, false); // v
    }
    TensorDesc o = b.attention(AttentionKind::CrossText, x.dim(0),
                               cfg.heads, x.dim(1), cfg.contextLen,
                               cfg.headDim());
    o = b.linear(o, cfg.dim);
    return b.binary(x, "residual_add");
}

/** Feed-forward sublayer (plain GELU or gated SiLU). */
TensorDesc
ffnSublayer(GraphBuilder& b, const TransformerConfig& cfg, TensorDesc x)
{
    auto s = b.scope("ffn");
    TensorDesc h = b.layerNorm(x);
    if (cfg.gatedFfn) {
        TensorDesc up = b.linear(h, cfg.ffnHidden(), false);
        TensorDesc gate = b.linear(h, cfg.ffnHidden(), false);
        gate = b.silu(gate);
        up = b.binary(up, "gate_mul");
        b.linear(up, cfg.dim, false);
    } else {
        TensorDesc up = b.linear(h, cfg.ffnHidden());
        up = b.gelu(up);
        b.linear(up, cfg.dim);
    }
    return b.binary(x, "residual_add");
}

} // namespace

TensorDesc
transformerStack(GraphBuilder& b, const TransformerConfig& cfg,
                 TensorDesc x)
{
    MMGEN_CHECK(x.rank() == 3, "transformer expects [B, S, D], got "
                                   << x.str());
    MMGEN_CHECK(x.dim(2) == cfg.dim,
                "input dim " << x.dim(2) << " != model dim " << cfg.dim);
    MMGEN_CHECK(cfg.dim % cfg.heads == 0,
                "dim not divisible by head count");
    for (std::int64_t l = 0; l < cfg.layers; ++l) {
        auto s = b.scope("layer" + std::to_string(l));
        x = selfAttentionSublayer(b, cfg, x);
        if (cfg.crossAttention)
            x = crossAttentionSublayer(b, cfg, x, l == 0);
        x = ffnSublayer(b, cfg, x);
    }
    return b.layerNorm(x);
}

TensorDesc
transformerDecodeStep(GraphBuilder& b, const TransformerConfig& cfg,
                      std::int64_t batch, std::int64_t kv_len)
{
    MMGEN_CHECK(cfg.dim % cfg.heads == 0,
                "dim not divisible by head count");
    MMGEN_CHECK(kv_len >= 1, "decode step needs kv_len >= 1");
    TensorDesc x({batch, 1, cfg.dim}, b.dtype());
    for (std::int64_t l = 0; l < cfg.layers; ++l) {
        auto s = b.scope("layer" + std::to_string(l));
        {
            auto sa = b.scope("self_attn");
            TensorDesc h = b.layerNorm(x);
            b.linear(h, cfg.dim, false); // q for the new position
            b.linear(h, cfg.dim, false); // k appended to the cache
            b.linear(h, cfg.dim, false); // v appended to the cache
            TensorDesc o =
                b.attention(AttentionKind::CausalSelf, batch, cfg.heads,
                            1, kv_len, cfg.headDim());
            o = b.linear(o, cfg.dim);
            x = b.binary(x, "residual_add");
        }
        if (cfg.crossAttention) {
            auto ca = b.scope("cross_attn");
            TensorDesc h = b.layerNorm(x);
            b.linear(h, cfg.dim, false); // q (context k/v are cached)
            TensorDesc o =
                b.attention(AttentionKind::CrossText, batch, cfg.heads,
                            1, cfg.contextLen, cfg.headDim());
            o = b.linear(o, cfg.dim);
            x = b.binary(x, "residual_add");
        }
        x = ffnSublayer(b, cfg, x);
    }
    return b.layerNorm(x);
}

TensorDesc
lmHead(GraphBuilder& b, TensorDesc x, std::int64_t vocab)
{
    auto s = b.scope("lm_head");
    return b.linear(x, vocab, false);
}

// ---------------------------------------------------------------------
// Diffusion UNet blocks
// ---------------------------------------------------------------------

std::int64_t
UNetConfig::levelChannels(std::size_t level) const
{
    MMGEN_CHECK(level < channelMult.size(),
                "level " << level << " out of range");
    return baseChannels * channelMult[level];
}

bool
UNetConfig::hasAttnAt(std::int64_t factor) const
{
    return std::find(attnDownFactors.begin(), attnDownFactors.end(),
                     factor) != attnDownFactors.end();
}

bool
UNetConfig::hasCrossAttnAt(std::int64_t factor) const
{
    return std::find(crossAttnDownFactors.begin(),
                     crossAttnDownFactors.end(),
                     factor) != crossAttnDownFactors.end();
}

int
UNetConfig::resBlocksAt(std::size_t level) const
{
    if (resBlocksPerLevel.empty())
        return numResBlocks;
    MMGEN_CHECK(resBlocksPerLevel.size() == channelMult.size(),
                "resBlocksPerLevel arity " << resBlocksPerLevel.size()
                    << " != level count " << channelMult.size());
    return resBlocksPerLevel[level];
}

std::int64_t
UNetConfig::headsFor(std::int64_t channels) const
{
    if (attnHeadDim > 0) {
        MMGEN_CHECK(channels % attnHeadDim == 0,
                    "channels " << channels
                                << " not divisible by per-head dim "
                                << attnHeadDim);
        return channels / attnHeadDim;
    }
    return attnHeads;
}

TensorDesc
resnetBlock(GraphBuilder& b, const UNetConfig& cfg, TensorDesc x,
            std::int64_t out_channels)
{
    auto s = b.scope("resnet");
    const std::int64_t in_channels = x.dim(1);
    TensorDesc h = b.groupNorm(x);
    h = b.silu(h);
    h = spatialConv(b, h, out_channels, 3);
    if (cfg.temporal)
        h = temporalConv(b, h, out_channels);
    // Timestep embedding projection, broadcast-added per channel.
    {
        auto se = b.scope("temb");
        const TensorDesc emb({x.dim(0), cfg.embedDim}, b.dtype());
        b.linear(emb, out_channels);
        h = b.binary(h, "temb_add");
    }
    h = b.groupNorm(h);
    h = b.silu(h);
    h = spatialConv(b, h, out_channels, 3);
    if (cfg.temporal)
        h = temporalConv(b, h, out_channels);
    if (in_channels != out_channels)
        x = spatialConv(b, x, out_channels, 1);
    return b.binary(h, "residual_add");
}

TensorDesc
attentionBlock(GraphBuilder& b, const UNetConfig& cfg, TensorDesc x,
               bool self, bool cross)
{
    auto s = b.scope("attn");
    const std::int64_t channels = x.dim(1);
    const std::int64_t heads = cfg.headsFor(channels);
    MMGEN_CHECK(channels % heads == 0,
                "channels " << channels << " not divisible by heads "
                            << heads);
    const std::int64_t head_dim = channels / heads;
    const std::int64_t positions = spatialPositions(x);
    const std::int64_t batch = imageBatch(x);

    TensorDesc h = b.groupNorm(x);
    // NCHW -> [batch, positions, C] for the attention sublayers.
    h = b.copy(h);
    const TensorDesc seq({batch, positions, channels}, b.dtype());

    if (self) {
        auto sa = b.scope("self");
        b.linear(seq, channels, false); // q
        b.linear(seq, channels, false); // k
        b.linear(seq, channels, false); // v
        const TensorDesc o =
            b.attention(AttentionKind::SelfSpatial, batch, heads,
                        positions, positions, head_dim);
        b.linear(o, channels);
        b.binary(seq, "residual_add");
    }
    if (cross) {
        auto ca = b.scope("cross");
        TensorDesc n = b.layerNorm(seq);
        b.linear(n, channels, false); // q
        const TensorDesc ctx({batch, cfg.textLen, cfg.embedDim},
                             b.dtype());
        b.linear(ctx, channels, false); // k
        b.linear(ctx, channels, false); // v
        TensorDesc o =
            b.attention(AttentionKind::CrossText, batch, heads,
                        positions, cfg.textLen, head_dim);
        o = b.linear(o, channels);
        b.binary(seq, "residual_add");

        // GEGLU feed-forward as in SD's transformer blocks: project to
        // 8C, gate one 4C half with GELU of the other, project back.
        auto ff = b.scope("ffn");
        TensorDesc f = b.layerNorm(seq);
        b.linear(f, channels * 8);
        const TensorDesc half({batch, positions, channels * 4},
                              b.dtype());
        b.gelu(half);
        b.binary(half, "gate_mul");
        b.linear(half, channels);
        b.binary(seq, "residual_add");
    }
    if (cfg.temporal) {
        // Temporal attention over the frame axis of the NCDHW tensor:
        // the sequence stride is H*W and the feature stride F*H*W,
        // i.e. a fully strided view (paper Fig. 10).
        auto ta = b.scope("temporal");
        MMGEN_CHECK(x.rank() == 5, "temporal attention expects NCDHW");
        const std::int64_t frames = x.dim(2);
        b.linear(seq, channels, false); // q
        b.linear(seq, channels, false); // k
        b.linear(seq, channels, false); // v
        TensorDesc o = b.attention(
            AttentionKind::Temporal, x.dim(0) * positions, heads,
            frames, frames, head_dim,
            /*seq_stride=*/positions, /*causal=*/false,
            /*feature_stride=*/frames * positions);
        o = b.linear(o, channels);
        b.binary(seq, "residual_add");
    }
    // Back to the convolutional layout.
    b.copy(seq);
    return x;
}

TensorDesc
unetForward(GraphBuilder& b, const UNetConfig& cfg, std::int64_t h,
            std::int64_t w)
{
    // No scope push here: the caller's stage/scope names the UNet.
    const std::size_t levels = cfg.channelMult.size();
    MMGEN_CHECK(levels >= 1, "UNet needs at least one level");

    TensorDesc x =
        cfg.temporal
            ? TensorDesc({cfg.batch, cfg.inChannels, cfg.frames, h, w},
                         b.dtype())
            : TensorDesc({cfg.batch, cfg.inChannels, h, w}, b.dtype());
    {
        auto sc = b.scope("in");
        x = spatialConv(b, x, cfg.baseChannels, 3);
    }

    // Skip-connection channel bookkeeping (concatenated on the way up).
    std::vector<std::int64_t> skip_channels;
    skip_channels.push_back(cfg.baseChannels);

    std::int64_t factor = 1;
    // Down path.
    for (std::size_t level = 0; level < levels; ++level) {
        auto sl = b.scope("down" + std::to_string(level));
        const std::int64_t ch = cfg.levelChannels(level);
        for (int i = 0; i < cfg.resBlocksAt(level); ++i) {
            auto sb = b.scope("block" + std::to_string(i));
            x = resnetBlock(b, cfg, x, ch);
            if (cfg.hasAttnAt(factor) || cfg.hasCrossAttnAt(factor)) {
                x = attentionBlock(b, cfg, x, cfg.hasAttnAt(factor),
                                   cfg.hasCrossAttnAt(factor));
            }
            skip_channels.push_back(ch);
        }
        if (level + 1 < levels) {
            auto sd = b.scope("downsample");
            x = spatialConv(b, x, ch, 3, 2);
            skip_channels.push_back(ch);
            factor *= 2;
        }
    }

    // Middle. Efficient UNets that strip attention from the ladder
    // also strip it from the bottleneck (midBlockAttention = false).
    {
        auto sm = b.scope("mid");
        const std::int64_t ch = cfg.levelChannels(levels - 1);
        x = resnetBlock(b, cfg, x, ch);
        const bool mid_self =
            cfg.midBlockAttention || cfg.hasAttnAt(factor);
        const bool mid_cross =
            cfg.hasCrossAttnAt(factor) ||
            (cfg.midBlockAttention && !cfg.crossAttnDownFactors.empty());
        if (mid_self || mid_cross)
            x = attentionBlock(b, cfg, x, mid_self, mid_cross);
        x = resnetBlock(b, cfg, x, ch);
    }

    // Up path.
    for (std::size_t level = levels; level-- > 0;) {
        auto sl = b.scope("up" + std::to_string(level));
        const std::int64_t ch = cfg.levelChannels(level);
        for (int i = 0; i < cfg.resBlocksAt(level) + 1; ++i) {
            auto sb = b.scope("block" + std::to_string(i));
            MMGEN_ASSERT(!skip_channels.empty(),
                         "skip stack underflow in UNet up path");
            const std::int64_t skip = skip_channels.back();
            skip_channels.pop_back();
            // Concatenate the skip tensor: widen the input channels.
            Dims cat_shape = x.shape();
            cat_shape[1] += skip;
            x = resnetBlock(b, cfg, TensorDesc(cat_shape, b.dtype()), ch);
            if (cfg.hasAttnAt(factor) || cfg.hasCrossAttnAt(factor)) {
                x = attentionBlock(b, cfg, x, cfg.hasAttnAt(factor),
                                   cfg.hasCrossAttnAt(factor));
            }
        }
        if (level > 0) {
            auto su = b.scope("upsample");
            x = b.upsample2x(x);
            x = spatialConv(b, x, ch, 3);
            factor /= 2;
        }
    }
    MMGEN_ASSERT(skip_channels.empty(),
                 "UNet skip stack not fully consumed: "
                     << skip_channels.size() << " left");

    {
        auto so = b.scope("out");
        x = b.groupNorm(x);
        x = b.silu(x);
        x = spatialConv(b, x, cfg.inChannels, 3);
    }
    return x;
}

// ---------------------------------------------------------------------
// Encoders / decoders
// ---------------------------------------------------------------------

TensorDesc
textEncoder(GraphBuilder& b, const TextEncoderConfig& cfg,
            std::int64_t batch)
{
    auto s = b.scope("text_encoder");
    b.embedding(batch * cfg.seqLen, cfg.dim, cfg.vocab);
    TransformerConfig tcfg;
    tcfg.layers = cfg.layers;
    tcfg.dim = cfg.dim;
    tcfg.heads = cfg.heads;
    tcfg.causal = false;
    tcfg.crossAttention = false;
    const TensorDesc tokens({batch, cfg.seqLen, cfg.dim}, b.dtype());
    return transformerStack(b, tcfg, tokens);
}

namespace {

/** Plain residual block (no timestep embedding) for decoders. */
TensorDesc
plainResBlock(GraphBuilder& b, TensorDesc x, std::int64_t out_channels)
{
    auto s = b.scope("resnet");
    const std::int64_t in_channels = x.dim(1);
    TensorDesc h = b.groupNorm(x);
    h = b.silu(h);
    h = b.conv2d(h, out_channels, 3);
    h = b.groupNorm(h);
    h = b.silu(h);
    h = b.conv2d(h, out_channels, 3);
    if (in_channels != out_channels)
        x = b.conv2d(x, out_channels, 1);
    return b.binary(h, "residual_add");
}

} // namespace

TensorDesc
imageDecoder(GraphBuilder& b, const ImageDecoderConfig& cfg,
             std::int64_t batch, std::int64_t h, std::int64_t w)
{
    auto s = b.scope("image_decoder");
    const std::size_t levels = cfg.channelMult.size();
    TensorDesc x({batch, cfg.latentChannels, h, w}, b.dtype());
    x = b.conv2d(x, cfg.baseChannels * cfg.channelMult[levels - 1], 3);
    if (cfg.bottleneckAttention) {
        auto sa = b.scope("mid_attn");
        const std::int64_t ch = x.dim(1);
        x = b.groupNorm(x);
        b.copy(x);
        const TensorDesc seq({batch, h * w, ch}, b.dtype());
        b.linear(seq, ch, false); // q
        b.linear(seq, ch, false); // k
        b.linear(seq, ch, false); // v
        const TensorDesc o =
            b.attention(AttentionKind::SelfSpatial, batch,
                        cfg.attnHeads, h * w, h * w,
                        ch / cfg.attnHeads);
        b.linear(o, ch);
        b.binary(seq, "residual_add");
        b.copy(seq);
    }
    for (std::size_t level = levels; level-- > 0;) {
        auto sl = b.scope("up" + std::to_string(level));
        const std::int64_t ch = cfg.baseChannels * cfg.channelMult[level];
        for (int i = 0; i < cfg.resBlocksPerLevel; ++i)
            x = plainResBlock(b, x, ch);
        if (level > 0) {
            x = b.upsample2x(x);
            x = b.conv2d(x, ch, 3);
        }
    }
    x = b.groupNorm(x);
    x = b.silu(x);
    x = b.conv2d(x, cfg.outChannels, 3);
    return x;
}

// ---------------------------------------------------------------------
// Request shapes
// ---------------------------------------------------------------------

namespace {

void
checkSize(double size)
{
    MMGEN_CHECK(std::isfinite(size) && size > 0.0,
                "request size must be positive, got " << size);
}

} // namespace

std::int64_t
roundedSide(std::int64_t side, double size, std::int64_t multiple)
{
    checkSize(size);
    if (size == 1.0)
        return side;
    const double units = static_cast<double>(side) * std::sqrt(size) /
                         static_cast<double>(multiple);
    return std::max<std::int64_t>(1, std::llround(units)) * multiple;
}

std::int64_t
roundedCount(std::int64_t count, double size)
{
    checkSize(size);
    if (size == 1.0)
        return count;
    return std::max<std::int64_t>(
        1, std::llround(static_cast<double>(count) * size));
}

void
recordShape(graph::Pipeline& p, graph::RequestShape realized)
{
    MMGEN_CHECK(realized.batch >= 1, "request batch must be positive, got "
                                         << realized.batch);
    if (realized != graph::RequestShape{})
        p.name += " @b" + std::to_string(realized.batch) + " s" +
                  formatFixed(realized.size, 3);
    p.shape = realized;
}

} // namespace mmgen::models
