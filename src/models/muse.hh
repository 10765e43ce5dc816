/**
 * @file
 * Muse: decoder-only transformer TTI with parallel decoding.
 *
 * Pipeline (paper Fig. 2, bottom, with Muse's twist): T5 text encoder
 * -> base masked transformer predicting all 16x16 image tokens over a
 * fixed number of refinement steps (parallel decoding, so sequence
 * length is constant across inference — paper Fig. 7) -> super-
 * resolution transformer at 64x64 tokens -> VQGAN detokenizer.
 */

#ifndef MMGEN_MODELS_MUSE_HH
#define MMGEN_MODELS_MUSE_HH

#include "graph/pipeline.hh"
#include "models/blocks.hh"

namespace mmgen::models {

/** Muse-style masked-transformer configuration (~3B params). */
struct MuseConfig
{
    TextEncoderConfig t5 = {/*layers=*/24, /*dim=*/1024, /*heads=*/16,
                            /*seqLen=*/77, /*vocab=*/32128};

    /** Base model (paper Table I: 48 layers, model dim 2048). */
    TransformerConfig base;
    /** Base token grid extent (16 -> 256 tokens). */
    std::int64_t baseGrid = 16;
    /** Parallel-decoding refinement steps. */
    std::int64_t baseSteps = 24;

    /** Super-resolution transformer over the 32x32 token grid. */
    TransformerConfig superRes;
    std::int64_t srGrid = 32;
    std::int64_t srSteps = 8;

    /** Image-token codebook size. */
    std::int64_t tokenVocab = 8192;

    /** VQGAN detokenizer back to pixels. */
    ImageDecoderConfig vqgan = {/*latentChannels=*/64,
                                /*baseChannels=*/128,
                                /*channelMult=*/{1, 2, 4},
                                /*outChannels=*/3,
                                /*resBlocksPerLevel=*/2};

    MuseConfig();
};

/**
 * Build the four-stage Muse inference pipeline for `shape.batch`
 * prompts. The request size scales the image tokens: `baseGrid`
 * becomes the integer nearest to `baseGrid * sqrt(size)`, `srGrid`
 * keeps its ratio to it, and the realized size is the base token
 * ratio, e.g. 23 -> 46 grids and 2.066 for size 2.
 */
graph::Pipeline buildMuse(MuseConfig cfg = MuseConfig(),
                          graph::RequestShape shape = {});

} // namespace mmgen::models

#endif // MMGEN_MODELS_MUSE_HH
