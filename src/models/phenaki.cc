#include "phenaki.hh"

#include "util/logging.hh"

namespace mmgen::models {

PhenakiConfig::PhenakiConfig()
{
    maskgit.layers = 24;
    maskgit.dim = 2048;
    maskgit.heads = 8;
    maskgit.ffnMult = 4.0;
    maskgit.causal = false;
    maskgit.crossAttention = true;
    maskgit.contextLen = t5.seqLen;

    cvivitSpatial.layers = 8;
    cvivitSpatial.dim = 512;
    cvivitSpatial.heads = 8;
    cvivitSpatial.ffnMult = 4.0;

    cvivitTemporal.layers = 8;
    cvivitTemporal.dim = 512;
    cvivitTemporal.heads = 8;
    cvivitTemporal.ffnMult = 4.0;
}

namespace {

/**
 * C-ViViT decoder over `batch` videos: per-frame spatial transformer,
 * per-position temporal attention, then a convolutional pixel tail.
 */
void
cvivitDecode(graph::GraphBuilder& b, const PhenakiConfig& cfg,
             std::int64_t batch)
{
    auto s = b.scope("cvivit_decoder");
    {
        auto ss = b.scope("spatial");
        const TensorDesc frames_x({batch * cfg.frames,
                                   cfg.tokensPerFrame(),
                                   cfg.cvivitSpatial.dim},
                                  b.dtype());
        transformerStack(b, cfg.cvivitSpatial, frames_x);
    }
    {
        // Temporal attention over the frame axis at every token
        // position: small sequence (frames), large folded batch.
        auto st = b.scope("temporal");
        const std::int64_t dim = cfg.cvivitTemporal.dim;
        const std::int64_t heads = cfg.cvivitTemporal.heads;
        const std::int64_t positions = batch * cfg.tokensPerFrame();
        const TensorDesc pos_x({positions, cfg.frames, dim}, b.dtype());
        for (std::int64_t l = 0; l < cfg.cvivitTemporal.layers; ++l) {
            auto sl = b.scope("layer" + std::to_string(l));
            TensorDesc h = b.layerNorm(pos_x);
            b.linear(h, dim, false);
            b.linear(h, dim, false);
            b.linear(h, dim, false);
            const TensorDesc o = b.attention(
                AttentionKind::Temporal, positions, heads,
                cfg.frames, cfg.frames, dim / heads,
                /*seq_stride=*/cfg.tokensPerFrame(), /*causal=*/false,
                /*feature_stride=*/cfg.frames * cfg.tokensPerFrame());
            b.linear(o, dim);
            b.binary(pos_x, "residual_add");
        }
    }
    imageDecoder(b, cfg.pixelDecoder, batch * cfg.frames, cfg.tokenGrid,
                 cfg.tokenGrid);
}

} // namespace

graph::Pipeline
buildPhenaki(PhenakiConfig cfg, graph::RequestShape shape)
{
    const std::int64_t unit_frames = cfg.frames;
    cfg.frames = roundedCount(unit_frames, shape.size);
    const std::int64_t batch = shape.batch;

    graph::Pipeline p;
    p.name = "Phenaki";
    p.klass = graph::ModelClass::TransformerTTV;

    graph::Stage text;
    text.name = "text_encoder";
    text.iterations = 1;
    text.emit = [cfg, batch](graph::GraphBuilder& b, std::int64_t) {
        textEncoder(b, cfg.t5, batch);
    };
    p.stages.push_back(std::move(text));

    // Autoregressive-in-time generation: every time chunk runs the
    // full set of MaskGIT refinement steps over its token window.
    graph::Stage maskgit;
    maskgit.name = "maskgit_transformer";
    maskgit.iterations = cfg.maskgitSteps * cfg.timeChunks();
    maskgit.emit = [cfg, batch](graph::GraphBuilder& b, std::int64_t) {
        b.embedding(batch * cfg.chunkTokens(), cfg.maskgit.dim,
                    cfg.tokenVocab);
        const TensorDesc x({batch, cfg.chunkTokens(), cfg.maskgit.dim},
                           b.dtype());
        const TensorDesc out = transformerStack(b, cfg.maskgit, x);
        lmHead(b, out, cfg.tokenVocab);
    };
    p.stages.push_back(std::move(maskgit));

    graph::Stage decode;
    decode.name = "cvivit_decoder";
    decode.iterations = 1;
    decode.emit = [cfg, batch](graph::GraphBuilder& b, std::int64_t) {
        cvivitDecode(b, cfg, batch);
    };
    p.stages.push_back(std::move(decode));

    recordShape(p, {shape.batch, static_cast<double>(cfg.frames) /
                                     static_cast<double>(unit_frames)});
    return p;
}

} // namespace mmgen::models
