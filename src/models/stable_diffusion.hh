/**
 * @file
 * Stable Diffusion: the latent-space diffusion model of the suite.
 *
 * Pipeline (paper Fig. 2, middle): CLIP text encoder -> latent UNet
 * looped over denoising steps -> VAE decoder back to pixel space.
 * Attention lives at downsampling factors 1/2/4 of the latent, which
 * is why its sequence length profile spans 256..4096 (paper Fig. 7).
 */

#ifndef MMGEN_MODELS_STABLE_DIFFUSION_HH
#define MMGEN_MODELS_STABLE_DIFFUSION_HH

#include "graph/pipeline.hh"
#include "models/blocks.hh"

namespace mmgen::models {

/** Stable Diffusion v1.x-style configuration. */
struct StableDiffusionConfig
{
    TextEncoderConfig clip = {/*layers=*/12, /*dim=*/768, /*heads=*/12,
                              /*seqLen=*/77, /*vocab=*/49408};

    UNetConfig unet;

    ImageDecoderConfig vae = {/*latentChannels=*/4,
                              /*baseChannels=*/128,
                              /*channelMult=*/{1, 2, 4, 4},
                              /*outChannels=*/3,
                              /*resBlocksPerLevel=*/2};

    /** Output image extent (square). */
    std::int64_t imageSize = 512;
    /** Pixel-per-latent downscale of the VAE (f = 8). */
    std::int64_t latentScale = 8;
    /** Denoising iterations through the UNet. */
    std::int64_t denoiseSteps = 50;

    /**
     * Classifier-free guidance: every denoising step runs the UNet on
     * a conditional and an unconditional batch entry (batch 2), the
     * standard quality/latency trade in deployed diffusion systems.
     */
    bool classifierFreeGuidance = false;

    StableDiffusionConfig();

    std::int64_t latentSize() const { return imageSize / latentScale; }
};

/**
 * Build the three-stage SD inference pipeline for `shape.batch`
 * prompts. The request size scales the image's pixels: `imageSize`
 * becomes the multiple of 64 (latent scale x UNet depth) nearest to
 * `imageSize * sqrt(size)`, and the realized size is the pixel ratio,
 * e.g. 704 px and 1.891 for size 2.
 */
graph::Pipeline
buildStableDiffusion(StableDiffusionConfig cfg = StableDiffusionConfig(),
                     graph::RequestShape shape = {});

} // namespace mmgen::models

#endif // MMGEN_MODELS_STABLE_DIFFUSION_HH
