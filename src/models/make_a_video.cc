#include "make_a_video.hh"

#include "util/logging.hh"

namespace mmgen::models {

MakeAVideoConfig::MakeAVideoConfig()
{
    // Base spatio-temporal UNet. Attention at 16x16 and 8x8 only:
    // spatial attention at higher resolutions is swapped for
    // convolution to control memory (paper Section II-B).
    base.inChannels = 4;
    base.baseChannels = 320;
    base.channelMult = {1, 2, 4, 4};
    base.numResBlocks = 2;
    base.attnDownFactors = {4, 8};
    base.crossAttnDownFactors = {4, 8};
    base.attnHeads = 8;
    base.textLen = encoder.seqLen;
    base.embedDim = encoder.dim;
    base.temporal = true;
    base.frames = 16;

    // Frame interpolation: the same spatio-temporal structure over
    // more frames, lighter channels.
    interp = base;
    interp.baseChannels = 192;
    interp.frames = interpFrames;

    // Per-frame spatial SR (no temporal layers): frames fold into the
    // batch.
    sr.inChannels = 3;
    sr.baseChannels = 128;
    sr.channelMult = {1, 2, 4, 8};
    sr.numResBlocks = 2;
    sr.attnDownFactors = {};
    sr.midBlockAttention = false;
    sr.crossAttnDownFactors = {8};
    sr.attnHeads = 8;
    sr.textLen = encoder.seqLen;
    sr.embedDim = encoder.dim;
    sr.temporal = false;
    sr.batch = interpFrames;
}

graph::Pipeline
buildMakeAVideo(MakeAVideoConfig cfg, graph::RequestShape shape)
{
    const std::int64_t unit_frames = cfg.base.frames;
    cfg.base.frames = roundedCount(unit_frames, shape.size);
    cfg.interp.frames = cfg.interp.frames * cfg.base.frames / unit_frames;
    cfg.sr.batch = cfg.sr.batch * cfg.base.frames / unit_frames;
    const std::int64_t batch = shape.batch;
    cfg.base.batch *= batch;
    cfg.interp.batch *= batch;
    cfg.sr.batch *= batch;

    graph::Pipeline p;
    p.name = "MakeAVideo";
    p.klass = graph::ModelClass::DiffusionTTV;

    graph::Stage text;
    text.name = "text_encoder";
    text.iterations = 1;
    text.emit = [cfg, batch](graph::GraphBuilder& b, std::int64_t) {
        textEncoder(b, cfg.encoder, batch);
    };
    p.stages.push_back(std::move(text));

    graph::Stage denoise;
    denoise.name = "base_unet";
    denoise.iterations = cfg.baseSteps;
    denoise.emit = [cfg](graph::GraphBuilder& b, std::int64_t) {
        unetForward(b, cfg.base, cfg.baseSize, cfg.baseSize);
    };
    p.stages.push_back(std::move(denoise));

    graph::Stage interp;
    interp.name = "frame_interpolation";
    interp.iterations = cfg.interpSteps;
    interp.emit = [cfg](graph::GraphBuilder& b, std::int64_t) {
        unetForward(b, cfg.interp, cfg.baseSize, cfg.baseSize);
    };
    p.stages.push_back(std::move(interp));

    graph::Stage sr;
    sr.name = "spatial_sr";
    sr.iterations = cfg.srSteps;
    sr.emit = [cfg](graph::GraphBuilder& b, std::int64_t) {
        unetForward(b, cfg.sr, cfg.srSize, cfg.srSize);
    };
    p.stages.push_back(std::move(sr));

    recordShape(p, {shape.batch, static_cast<double>(cfg.base.frames) /
                                     static_cast<double>(unit_frames)});
    return p;
}

} // namespace mmgen::models
