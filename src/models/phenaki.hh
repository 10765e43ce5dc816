/**
 * @file
 * Phenaki: the transformer-based text-to-video model of the suite.
 *
 * A C-ViViT tokenizer compresses video into discrete tokens with
 * factorized spatial and temporal attention; a bidirectional masked
 * transformer (MaskGIT-style) predicts all video tokens over a fixed
 * number of refinement steps conditioned on the text; the C-ViViT
 * decoder (spatial attention per frame, temporal attention per
 * position, then convolutions) reconstructs the pixels.
 */

#ifndef MMGEN_MODELS_PHENAKI_HH
#define MMGEN_MODELS_PHENAKI_HH

#include "graph/pipeline.hh"
#include "models/blocks.hh"

namespace mmgen::models {

/** Phenaki-style configuration. */
struct PhenakiConfig
{
    TextEncoderConfig t5 = {/*layers=*/24, /*dim=*/1024, /*heads=*/16,
                            /*seqLen=*/77, /*vocab=*/32128};

    /** Masked video-token transformer. */
    TransformerConfig maskgit;
    /** Parallel-decoding refinement steps per time chunk. */
    std::int64_t maskgitSteps = 24;

    /** Video token geometry: tokenGrid^2 tokens per frame. */
    std::int64_t tokenGrid = 16;
    std::int64_t frames = 11;
    std::int64_t tokenVocab = 8192;

    /**
     * Phenaki generates variable-length video autoregressively in
     * time: the MaskGIT pass refines a sliding chunk of frames
     * conditioned on the previous chunk, rather than attending over
     * the whole video at once.
     */
    std::int64_t framesPerChunk = 3;

    std::int64_t timeChunks() const
    {
        return (frames + framesPerChunk - 1) / framesPerChunk;
    }

    std::int64_t chunkTokens() const
    {
        return tokensPerFrame() * framesPerChunk;
    }

    /** C-ViViT decoder transformer (factorized space/time). */
    TransformerConfig cvivitSpatial;
    TransformerConfig cvivitTemporal;

    /** Convolutional tail from token embeddings to pixels. */
    ImageDecoderConfig pixelDecoder = {/*latentChannels=*/32,
                                       /*baseChannels=*/96,
                                       /*channelMult=*/{1, 2, 4},
                                       /*outChannels=*/3,
                                       /*resBlocksPerLevel=*/1};

    PhenakiConfig();

    std::int64_t tokensPerFrame() const { return tokenGrid * tokenGrid; }
    std::int64_t videoTokens() const
    {
        return tokensPerFrame() * frames;
    }
};

/**
 * Build the Phenaki inference pipeline for `shape.batch` prompts. The
 * request size scales the video's frames: `frames` becomes the integer
 * nearest to `frames * size` (the MaskGIT pass then runs over as many
 * time chunks as those frames need), and the realized size is the
 * frame ratio, e.g. 6 frames and 0.545 for size 0.5.
 */
graph::Pipeline buildPhenaki(PhenakiConfig cfg = PhenakiConfig(),
                             graph::RequestShape shape = {});

} // namespace mmgen::models

#endif // MMGEN_MODELS_PHENAKI_HH
