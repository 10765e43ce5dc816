/**
 * @file
 * Production TTI model: a deployment-scale latent diffusion system.
 *
 * Stands in for the production image model of the paper's suite
 * (Section III): a latent diffusion architecture tuned for serving —
 * higher output resolution (768), a wider latent (8 channels), a
 * larger conditioning encoder, and attention restricted to the deeper
 * UNet levels to control cost. The small attention share is why the
 * paper measures only a 1.04x end-to-end gain from Flash Attention on
 * this model (Table II).
 */

#ifndef MMGEN_MODELS_PROD_IMAGE_HH
#define MMGEN_MODELS_PROD_IMAGE_HH

#include "graph/pipeline.hh"
#include "models/blocks.hh"

namespace mmgen::models {

/** Production latent-diffusion configuration. */
struct ProdImageConfig
{
    TextEncoderConfig encoder = {/*layers=*/24, /*dim=*/1024,
                                 /*heads=*/16, /*seqLen=*/77,
                                 /*vocab=*/49408};

    UNetConfig unet;

    ImageDecoderConfig vae = {/*latentChannels=*/8,
                              /*baseChannels=*/192,
                              /*channelMult=*/{1, 2, 4, 4},
                              /*outChannels=*/3,
                              /*resBlocksPerLevel=*/2};

    std::int64_t imageSize = 768;
    std::int64_t latentScale = 8;
    std::int64_t denoiseSteps = 50;

    ProdImageConfig();

    std::int64_t latentSize() const { return imageSize / latentScale; }
};

/**
 * Build the production TTI inference pipeline for `shape.batch`
 * prompts. The request size scales the image's pixels: `imageSize`
 * becomes the multiple of 64 (latent scale x UNet depth) nearest to
 * `imageSize * sqrt(size)`, and the realized size is the pixel ratio,
 * e.g. 1,088 px and 2.007 for size 2.
 */
graph::Pipeline
buildProdImage(ProdImageConfig cfg = ProdImageConfig(),
               graph::RequestShape shape = {});

} // namespace mmgen::models

#endif // MMGEN_MODELS_PROD_IMAGE_HH
