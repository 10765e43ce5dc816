#include "parti.hh"

#include "util/logging.hh"

namespace mmgen::models {

PartiConfig::PartiConfig()
{
    encoder.layers = 16;
    encoder.dim = 4096;
    encoder.heads = 32;
    encoder.ffnMult = 4.0;
    encoder.causal = false;
    encoder.crossAttention = false;

    decoder.layers = 80;
    decoder.dim = 4096;
    decoder.heads = 32;
    decoder.ffnMult = 4.0;
    decoder.causal = true;
    decoder.crossAttention = true;
    decoder.contextLen = textLen;
}

graph::Pipeline
buildParti(PartiConfig cfg, graph::RequestShape shape)
{
    const std::int64_t unit_tokens = cfg.imageTokens();
    cfg.imageGrid = roundedSide(cfg.imageGrid, shape.size);
    const std::int64_t batch = shape.batch;

    graph::Pipeline p;
    p.name = "Parti";
    p.klass = graph::ModelClass::TransformerTTI;

    graph::Stage text;
    text.name = "text_encoder";
    text.iterations = 1;
    text.emit = [cfg, batch](graph::GraphBuilder& b, std::int64_t) {
        auto s = b.scope("text_encoder");
        b.embedding(batch * cfg.textLen, cfg.encoder.dim, cfg.textVocab);
        const TensorDesc x({batch, cfg.textLen, cfg.encoder.dim},
                           b.dtype());
        transformerStack(b, cfg.encoder, x);
    };
    p.stages.push_back(std::move(text));

    graph::Stage decode;
    decode.name = "decode";
    decode.iterations = cfg.imageTokens();
    decode.perIterationShapes = true;
    decode.emit = [cfg, batch](graph::GraphBuilder& b,
                               std::int64_t iter) {
        b.embedding(batch, cfg.decoder.dim, cfg.tokenVocab);
        const TensorDesc out =
            transformerDecodeStep(b, cfg.decoder, batch, iter + 1);
        lmHead(b, out, cfg.tokenVocab);
    };
    p.stages.push_back(std::move(decode));

    graph::Stage detok;
    detok.name = "detokenizer";
    detok.iterations = 1;
    detok.emit = [cfg, batch](graph::GraphBuilder& b, std::int64_t) {
        imageDecoder(b, cfg.detokenizer, batch, cfg.imageGrid,
                     cfg.imageGrid);
    };
    p.stages.push_back(std::move(detok));

    recordShape(p, {shape.batch, static_cast<double>(cfg.imageTokens()) /
                                     static_cast<double>(unit_tokens)});
    return p;
}

} // namespace mmgen::models
