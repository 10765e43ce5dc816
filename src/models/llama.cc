#include "llama.hh"

#include "models/blocks.hh"
#include "util/logging.hh"

namespace mmgen::models {

namespace {

TransformerConfig
llamaStack(const LlamaConfig& cfg)
{
    TransformerConfig t;
    t.layers = cfg.layers;
    t.dim = cfg.dim;
    t.heads = cfg.heads;
    t.ffnMult = static_cast<double>(cfg.ffnHidden) /
                static_cast<double>(cfg.dim);
    t.gatedFfn = true;
    t.causal = true;
    t.crossAttention = false;
    return t;
}

} // namespace

graph::Pipeline
buildLlama(LlamaConfig cfg, graph::RequestShape shape)
{
    MMGEN_CHECK(cfg.promptLen > 0 && cfg.decodeTokens > 0,
                "LLaMA needs positive prompt and decode lengths");
    const std::int64_t unit_prompt = cfg.promptLen;
    cfg.promptLen = roundedCount(unit_prompt, shape.size);
    const std::int64_t batch = shape.batch;

    graph::Pipeline p;
    p.name = "LLaMA";
    p.klass = graph::ModelClass::LLM;

    const TransformerConfig stack = llamaStack(cfg);

    graph::Stage prefill;
    prefill.name = "prefill";
    prefill.iterations = 1;
    prefill.emit = [cfg, batch, stack](graph::GraphBuilder& b,
                                       std::int64_t) {
        b.embedding(batch * cfg.promptLen, cfg.dim, cfg.vocab);
        const TensorDesc x({batch, cfg.promptLen, cfg.dim}, b.dtype());
        transformerStack(b, stack, x);
        // Only the final position's logits are needed.
        lmHead(b, TensorDesc({batch, 1, cfg.dim}, b.dtype()), cfg.vocab);
    };
    p.stages.push_back(std::move(prefill));

    graph::Stage decode;
    decode.name = "decode";
    decode.iterations = cfg.decodeTokens;
    decode.perIterationShapes = true;
    decode.reusesWeights = true; // same stack as the prefill phase
    decode.emit = [cfg, batch, stack](graph::GraphBuilder& b,
                                      std::int64_t iter) {
        b.embedding(batch, cfg.dim, cfg.vocab);
        const std::int64_t kv_len = cfg.promptLen + iter + 1;
        const TensorDesc out =
            transformerDecodeStep(b, stack, batch, kv_len);
        lmHead(b, out, cfg.vocab);
    };
    p.stages.push_back(std::move(decode));

    recordShape(p, {shape.batch, static_cast<double>(cfg.promptLen) /
                                     static_cast<double>(unit_prompt)});
    return p;
}

} // namespace mmgen::models
