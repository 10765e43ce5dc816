#include "imagen.hh"

#include "util/logging.hh"

namespace mmgen::models {

ImagenConfig::ImagenConfig()
{
    // Base 64x64 UNet: attention at resolutions 32/16/8 (factors
    // 2/4/8), three res blocks per level (paper Table I).
    base.inChannels = 3;
    base.baseChannels = 512;
    base.channelMult = {1, 2, 3, 4};
    base.numResBlocks = 3;
    // Efficient UNet: capacity shifts to the low-resolution levels.
    base.resBlocksPerLevel = {1, 3, 4, 4};
    base.attnDownFactors = {2, 4, 8};
    base.crossAttnDownFactors = {2, 4, 8};
    base.attnHeads = 8;
    base.attnHeadDim = 64; // paper Table I: per-head channels 64
    base.textLen = t5.seqLen;
    base.embedDim = 512;

    // SR1 (64 -> 256): efficient UNet, cross-attention at the deepest
    // levels only.
    sr1.inChannels = 3;
    sr1.baseChannels = 128;
    sr1.channelMult = {1, 2, 4, 8};
    sr1.numResBlocks = 2;
    sr1.attnDownFactors = {};
    sr1.midBlockAttention = false;
    sr1.crossAttnDownFactors = {8};
    sr1.attnHeads = 8;
    sr1.textLen = t5.seqLen;
    sr1.embedDim = 512;

    // SR2 (256 -> 1024): convolution only.
    sr2.inChannels = 3;
    sr2.baseChannels = 64;
    sr2.channelMult = {1, 2, 4, 8};
    sr2.numResBlocks = 2;
    sr2.attnDownFactors = {};
    sr2.midBlockAttention = false;
    sr2.crossAttnDownFactors = {};
    sr2.attnHeads = 8;
    sr2.textLen = t5.seqLen;
    sr2.embedDim = 512;
}

namespace {

/**
 * Append one diffusion stage driving a UNet over `batch` images at a
 * fixed extent.
 */
void
addDiffusionStage(graph::Pipeline& p, const std::string& name,
                  UNetConfig unet, std::int64_t batch,
                  std::int64_t extent, std::int64_t steps)
{
    unet.batch *= batch;
    graph::Stage stage;
    stage.name = name;
    stage.iterations = steps;
    stage.emit = [unet, extent](graph::GraphBuilder& b, std::int64_t) {
        unetForward(b, unet, extent, extent);
    };
    p.stages.push_back(std::move(stage));
}

} // namespace

graph::Pipeline
buildImagen(ImagenConfig cfg, graph::RequestShape shape)
{
    const std::int64_t unit_size = cfg.baseSize;
    cfg.baseSize = roundedSide(unit_size, shape.size,
                               1LL << (cfg.base.channelMult.size() - 1));
    cfg.sr1Size = cfg.sr1Size * cfg.baseSize / unit_size;
    cfg.sr2Size = cfg.sr2Size * cfg.baseSize / unit_size;
    const std::int64_t batch = shape.batch;

    graph::Pipeline p;
    p.name = "Imagen";
    p.klass = graph::ModelClass::DiffusionPixel;

    graph::Stage text;
    text.name = "text_encoder";
    text.iterations = 1;
    text.emit = [cfg, batch](graph::GraphBuilder& b, std::int64_t) {
        textEncoder(b, cfg.t5, batch);
    };
    p.stages.push_back(std::move(text));

    addDiffusionStage(p, "base_unet", cfg.base, batch, cfg.baseSize,
                      cfg.baseSteps);

    // The SR stages attend to the upsampled conditioning image; the
    // UNet runs at the *output* resolution of each stage.
    addDiffusionStage(p, "sr1_unet", cfg.sr1, batch, cfg.sr1Size,
                      cfg.sr1Steps);
    addDiffusionStage(p, "sr2_unet", cfg.sr2, batch, cfg.sr2Size,
                      cfg.sr2Steps);

    const double side = static_cast<double>(cfg.baseSize) /
                        static_cast<double>(unit_size);
    recordShape(p, {shape.batch, side * side});
    return p;
}

} // namespace mmgen::models
