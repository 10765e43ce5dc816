/**
 * @file
 * Make-A-Video: the diffusion-based text-to-video model of the suite.
 *
 * A pretrained TTI diffusion backbone is extended to video: pseudo-3D
 * convolutions (1x3x3 spatial followed by 3x1x1 temporal) replace the
 * UNet convolutions and a Temporal Attention layer follows every
 * Spatial Attention layer (paper Fig. 3). Temporal attention attends
 * over the frame axis of the conv-native [B, C, F, H, W] tensor, so
 * its effective sequence length is the frame count and its Q/K/V view
 * is fully strided — the source of the paper's Fig. 11/12 findings.
 * The cascade finishes with a temporal frame-interpolation network and
 * per-frame spatial super-resolution.
 */

#ifndef MMGEN_MODELS_MAKE_A_VIDEO_HH
#define MMGEN_MODELS_MAKE_A_VIDEO_HH

#include "graph/pipeline.hh"
#include "models/blocks.hh"

namespace mmgen::models {

/** Make-A-Video-style configuration. */
struct MakeAVideoConfig
{
    TextEncoderConfig encoder = {/*layers=*/24, /*dim=*/1024,
                                 /*heads=*/16, /*seqLen=*/77,
                                 /*vocab=*/49408};

    /** Spatio-temporal base UNet at 64x64, 16 frames. */
    UNetConfig base;
    std::int64_t baseSize = 64;
    std::int64_t baseSteps = 50;

    /** Temporal frame-interpolation UNet (16 -> 32 frames). */
    UNetConfig interp;
    std::int64_t interpFrames = 32;
    std::int64_t interpSteps = 20;

    /** Per-frame spatial super-resolution UNet to 256. */
    UNetConfig sr;
    std::int64_t srSize = 256;
    std::int64_t srSteps = 20;

    MakeAVideoConfig();

    std::int64_t frames() const { return base.frames; }
};

/**
 * Build the Make-A-Video inference pipeline for `shape.batch` prompts.
 * The request size scales the clip's frames: `base.frames` becomes
 * the integer nearest to `base.frames * size`, the interpolated frames
 * and the per-frame SR batch keep their ratio to it, and the realized
 * size is the frame ratio, e.g. 32 -> 64 frames and 2.0 for size 2.
 */
graph::Pipeline
buildMakeAVideo(MakeAVideoConfig cfg = MakeAVideoConfig(),
                graph::RequestShape shape = {});

} // namespace mmgen::models

#endif // MMGEN_MODELS_MAKE_A_VIDEO_HH
