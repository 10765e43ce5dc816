/**
 * @file
 * Imagen: the pixel-space diffusion model of the suite.
 *
 * Pipeline (paper Fig. 2, top): frozen T5 text encoder -> 64x64 base
 * diffusion UNet -> two super-resolution diffusion UNets (to 256 and
 * 1024). The SR networks follow the "Efficient UNet" design and drop
 * self-attention at high resolutions because attention memory scales
 * as O(L^4) (paper Section V-B) — they keep only text cross-attention
 * (SR1) or no attention at all (SR2), which is why pixel models spend
 * ~15% more time in convolution than latent models (Section IV-A).
 */

#ifndef MMGEN_MODELS_IMAGEN_HH
#define MMGEN_MODELS_IMAGEN_HH

#include "graph/pipeline.hh"
#include "models/blocks.hh"

namespace mmgen::models {

/** Imagen-style pixel diffusion cascade configuration. */
struct ImagenConfig
{
    /** Frozen T5 encoder (sized to keep the total near 3B params). */
    TextEncoderConfig t5 = {/*layers=*/24, /*dim=*/1024, /*heads=*/16,
                            /*seqLen=*/77, /*vocab=*/32128};

    /** 64x64 base diffusion UNet. */
    UNetConfig base;
    std::int64_t baseSize = 64;
    std::int64_t baseSteps = 128;

    /** 64 -> 256 super-resolution UNet (cross-attention only). */
    UNetConfig sr1;
    std::int64_t sr1Size = 256;
    std::int64_t sr1Steps = 32;

    /** 256 -> 1024 super-resolution UNet (no attention). */
    UNetConfig sr2;
    std::int64_t sr2Size = 1024;
    std::int64_t sr2Steps = 16;

    ImagenConfig();
};

/**
 * Build the four-stage Imagen inference pipeline for `shape.batch`
 * prompts. The request size scales the output's pixels: `baseSize`
 * becomes the multiple of the base UNet's depth (8) nearest to
 * `baseSize * sqrt(size)`, each SR extent keeps its ratio to it, and
 * the realized size is the pixel ratio, e.g. 88 -> 352 -> 1,408 px and
 * 1.891 for size 2.
 */
graph::Pipeline buildImagen(ImagenConfig cfg = ImagenConfig(),
                            graph::RequestShape shape = {});

} // namespace mmgen::models

#endif // MMGEN_MODELS_IMAGEN_HH
