#include "muse.hh"

#include "util/logging.hh"

namespace mmgen::models {

MuseConfig::MuseConfig()
{
    base.layers = 48;
    base.dim = 2048;
    base.heads = 8;
    base.ffnMult = 4.0;
    base.causal = false; // masked (bidirectional) prediction
    base.crossAttention = true;
    base.contextLen = t5.seqLen;

    superRes.layers = 8;
    superRes.dim = 1024;
    superRes.heads = 8;
    superRes.ffnMult = 4.0;
    superRes.causal = false;
    superRes.crossAttention = true;
    superRes.contextLen = t5.seqLen;
}

namespace {

/**
 * One parallel-decoding refinement step over a full token grid for
 * each of `batch` requests.
 */
void
refinementStep(graph::GraphBuilder& b, const TransformerConfig& cfg,
               std::int64_t batch, std::int64_t tokens,
               std::int64_t vocab)
{
    b.embedding(batch * tokens, cfg.dim, vocab);
    const TensorDesc x({batch, tokens, cfg.dim}, b.dtype());
    const TensorDesc out = transformerStack(b, cfg, x);
    lmHead(b, out, vocab);
}

} // namespace

graph::Pipeline
buildMuse(MuseConfig cfg, graph::RequestShape shape)
{
    const std::int64_t unit_grid = cfg.baseGrid;
    cfg.baseGrid = roundedSide(unit_grid, shape.size);
    cfg.srGrid = cfg.srGrid * cfg.baseGrid / unit_grid;
    const std::int64_t batch = shape.batch;

    graph::Pipeline p;
    p.name = "Muse";
    p.klass = graph::ModelClass::TransformerTTI;

    graph::Stage text;
    text.name = "text_encoder";
    text.iterations = 1;
    text.emit = [cfg, batch](graph::GraphBuilder& b, std::int64_t) {
        textEncoder(b, cfg.t5, batch);
    };
    p.stages.push_back(std::move(text));

    const std::int64_t base_tokens = cfg.baseGrid * cfg.baseGrid;
    graph::Stage base;
    base.name = "base_transformer";
    base.iterations = cfg.baseSteps;
    base.emit = [cfg, batch, base_tokens](graph::GraphBuilder& b,
                                          std::int64_t) {
        refinementStep(b, cfg.base, batch, base_tokens, cfg.tokenVocab);
    };
    p.stages.push_back(std::move(base));

    const std::int64_t sr_tokens = cfg.srGrid * cfg.srGrid;
    graph::Stage sr;
    sr.name = "superres_transformer";
    sr.iterations = cfg.srSteps;
    sr.emit = [cfg, batch, sr_tokens](graph::GraphBuilder& b,
                                      std::int64_t) {
        refinementStep(b, cfg.superRes, batch, sr_tokens,
                       cfg.tokenVocab);
    };
    p.stages.push_back(std::move(sr));

    graph::Stage decode;
    decode.name = "vqgan_decoder";
    decode.iterations = 1;
    decode.emit = [cfg, batch](graph::GraphBuilder& b, std::int64_t) {
        imageDecoder(b, cfg.vqgan, batch, cfg.srGrid, cfg.srGrid);
    };
    p.stages.push_back(std::move(decode));

    const double side = static_cast<double>(cfg.baseGrid) /
                        static_cast<double>(unit_grid);
    recordShape(p, {shape.batch, side * side});
    return p;
}

} // namespace mmgen::models
