/**
 * @file
 * LLaMA-2 7B: the text-generation baseline of the model suite.
 *
 * Inference is the canonical two-phase LLM pipeline the paper uses as
 * its reference point (Table III): a prefill pass over the prompt
 * followed by autoregressive decode with a KV cache.
 */

#ifndef MMGEN_MODELS_LLAMA_HH
#define MMGEN_MODELS_LLAMA_HH

#include "graph/pipeline.hh"

namespace mmgen::models {

/** LLaMA-2 7B configuration (defaults match the released model). */
struct LlamaConfig
{
    std::int64_t layers = 32;
    std::int64_t dim = 4096;
    std::int64_t heads = 32;
    /** SwiGLU hidden size. */
    std::int64_t ffnHidden = 11008;
    std::int64_t vocab = 32000;

    /**
     * Prompt length processed in the prefill phase. The paper's LLaMA
     * measurement is prefill-heavy (long-context forward pass with a
     * short completion), which is what makes its Flash speedup larger
     * than the decode-bound transformer TTI models.
     */
    std::int64_t promptLen = 4096;
    /** Tokens generated in the decode phase. */
    std::int64_t decodeTokens = 32;
};

/**
 * Build the two-stage (prefill + decode) inference pipeline for
 * `shape.batch` prompts. The request size scales the prompt:
 * `promptLen` becomes the integer nearest to `promptLen * size`, and
 * the realized size is the prompt ratio, e.g. 8,192 tokens and 2.0
 * for size 2. The decode length stays `decodeTokens`.
 */
graph::Pipeline buildLlama(LlamaConfig cfg = LlamaConfig(),
                           graph::RequestShape shape = {});

} // namespace mmgen::models

#endif // MMGEN_MODELS_LLAMA_HH
