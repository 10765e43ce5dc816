#include "stable_diffusion.hh"

#include "util/logging.hh"

namespace mmgen::models {

StableDiffusionConfig::StableDiffusionConfig()
{
    unet.inChannels = 4;
    unet.baseChannels = 320;
    unet.channelMult = {1, 2, 4, 4};
    unet.numResBlocks = 2;
    unet.attnDownFactors = {1, 2, 4};
    unet.crossAttnDownFactors = {1, 2, 4};
    unet.attnHeads = 8;
    unet.textLen = clip.seqLen;
    unet.embedDim = clip.dim;
}

graph::Pipeline
buildStableDiffusion(StableDiffusionConfig cfg, graph::RequestShape shape)
{
    const std::int64_t min_factor = 1LL
                                    << (cfg.unet.channelMult.size() - 1);
    const std::int64_t unit_size = cfg.imageSize;
    cfg.imageSize = roundedSide(unit_size, shape.size,
                                cfg.latentScale * min_factor);
    MMGEN_CHECK(cfg.imageSize % cfg.latentScale == 0,
                "image size " << cfg.imageSize
                              << " not divisible by latent scale "
                              << cfg.latentScale);
    const std::int64_t latent = cfg.latentSize();
    MMGEN_CHECK(latent % min_factor == 0,
                "latent extent " << latent
                                 << " not divisible by the UNet depth");
    const std::int64_t batch = shape.batch;

    graph::Pipeline p;
    p.name = "StableDiffusion";
    p.klass = graph::ModelClass::DiffusionLatent;

    graph::Stage text;
    text.name = "text_encoder";
    text.iterations = 1;
    text.emit = [cfg, batch](graph::GraphBuilder& b, std::int64_t) {
        textEncoder(b, cfg.clip, batch);
    };
    p.stages.push_back(std::move(text));

    graph::Stage denoise;
    denoise.name = "unet";
    denoise.iterations = cfg.denoiseSteps;
    models::UNetConfig unet = cfg.unet;
    unet.batch *= batch;
    if (cfg.classifierFreeGuidance)
        unet.batch *= 2; // conditional + unconditional passes
    denoise.emit = [unet, latent](graph::GraphBuilder& b, std::int64_t) {
        unetForward(b, unet, latent, latent);
    };
    p.stages.push_back(std::move(denoise));

    graph::Stage decode;
    decode.name = "vae_decoder";
    decode.iterations = 1;
    decode.emit = [cfg, batch, latent](graph::GraphBuilder& b,
                                       std::int64_t) {
        imageDecoder(b, cfg.vae, batch, latent, latent);
    };
    p.stages.push_back(std::move(decode));

    const double side = static_cast<double>(cfg.imageSize) /
                        static_cast<double>(unit_size);
    recordShape(p, {shape.batch, side * side});
    return p;
}

} // namespace mmgen::models
