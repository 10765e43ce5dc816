#include "prod_image.hh"

#include "util/logging.hh"

namespace mmgen::models {

ProdImageConfig::ProdImageConfig()
{
    unet.inChannels = 8;
    unet.baseChannels = 384;
    unet.channelMult = {1, 2, 4, 4};
    unet.numResBlocks = 2;
    // Attention only at the deeper levels: the 96x96 latent makes
    // full-resolution attention prohibitively expensive.
    unet.attnDownFactors = {4, 8};
    unet.crossAttnDownFactors = {4, 8};
    unet.attnHeads = 8;
    unet.textLen = encoder.seqLen;
    unet.embedDim = encoder.dim;
}

graph::Pipeline
buildProdImage(ProdImageConfig cfg, graph::RequestShape shape)
{
    const std::int64_t depth = 1LL << (cfg.unet.channelMult.size() - 1);
    const std::int64_t unit_size = cfg.imageSize;
    cfg.imageSize =
        roundedSide(unit_size, shape.size, cfg.latentScale * depth);
    MMGEN_CHECK(cfg.imageSize % cfg.latentScale == 0,
                "image size not divisible by latent scale");
    const std::int64_t latent = cfg.latentSize();
    const std::int64_t batch = shape.batch;
    UNetConfig unet = cfg.unet;
    unet.batch *= batch;

    graph::Pipeline p;
    p.name = "ProdImage";
    p.klass = graph::ModelClass::DiffusionLatent;

    graph::Stage text;
    text.name = "text_encoder";
    text.iterations = 1;
    text.emit = [cfg, batch](graph::GraphBuilder& b, std::int64_t) {
        textEncoder(b, cfg.encoder, batch);
    };
    p.stages.push_back(std::move(text));

    graph::Stage denoise;
    denoise.name = "unet";
    denoise.iterations = cfg.denoiseSteps;
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
