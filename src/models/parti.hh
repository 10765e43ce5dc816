/**
 * @file
 * Parti: encoder-decoder transformer TTI with autoregressive decode.
 *
 * Pipeline: text encoder -> 20B-parameter decoder predicting 32x32
 * image tokens one at a time with a KV cache (so sequence length ramps
 * linearly over inference — paper Fig. 7) -> ViT-VQGAN detokenizer.
 * The decode phase is the reason transformer TTI models resemble the
 * LLM Decode stage and benefit least from Flash Attention
 * (paper Table III, Section IV-B).
 */

#ifndef MMGEN_MODELS_PARTI_HH
#define MMGEN_MODELS_PARTI_HH

#include "graph/pipeline.hh"
#include "models/blocks.hh"

namespace mmgen::models {

/** Parti-style configuration (paper Table I: 80 layers, dim 4096). */
struct PartiConfig
{
    /** Text encoder half of the encoder-decoder stack. */
    TransformerConfig encoder;
    std::int64_t textLen = 64;
    std::int64_t textVocab = 32128;

    /** Autoregressive image-token decoder. */
    TransformerConfig decoder;
    /** Image token grid (32 -> 1024 tokens). */
    std::int64_t imageGrid = 32;
    std::int64_t tokenVocab = 8192;

    /** ViT-VQGAN detokenizer to pixels. */
    ImageDecoderConfig detokenizer = {/*latentChannels=*/32,
                                      /*baseChannels=*/128,
                                      /*channelMult=*/{1, 2, 4},
                                      /*outChannels=*/3,
                                      /*resBlocksPerLevel=*/2};

    PartiConfig();

    std::int64_t imageTokens() const { return imageGrid * imageGrid; }
};

/**
 * Build the three-stage Parti inference pipeline for `shape.batch`
 * prompts decoded together. The request size scales the image tokens:
 * `imageGrid` becomes the integer nearest to `imageGrid * sqrt(size)`,
 * so the decoder runs grid^2 steps, and the realized size is the token
 * ratio, e.g. a 45x45 grid and 1.978 for size 2.
 */
graph::Pipeline buildParti(PartiConfig cfg = PartiConfig(),
                           graph::RequestShape shape = {});

} // namespace mmgen::models

#endif // MMGEN_MODELS_PARTI_HH
