/**
 * @file
 * Characterize your own architecture with the public API.
 *
 * This example designs a hypothetical latent-diffusion TTI model (a
 * "Stable Diffusion XL-flavored" variant at 1024x1024 output), builds
 * its pipeline from the reusable blocks, and answers the questions the
 * paper's methodology asks of any new model:
 *   - where does the time go (operator breakdown)?
 *   - how much does Flash Attention help, and why (Amdahl)?
 *   - where does it sit on the roofline?
 *   - how do its sequence lengths behave over inference?
 */

#include <iostream>

#include "analytics/amdahl.hh"
#include "core/reports.hh"
#include "core/suite.hh"
#include "models/blocks.hh"
#include "util/format.hh"

using namespace mmgen;

namespace {

/** A bigger latent UNet at 128x128 latent (1024 output, f=8). */
graph::Pipeline
buildCustomXl()
{
    graph::Pipeline p;
    p.name = "CustomXL";
    p.klass = graph::ModelClass::DiffusionLatent;

    // Two text encoders, as XL-class models use.
    models::TextEncoderConfig clip_small{12, 768, 12, 77, 49408};
    models::TextEncoderConfig clip_big{32, 1280, 20, 77, 49408};

    models::UNetConfig unet;
    unet.inChannels = 4;
    unet.baseChannels = 320;
    unet.channelMult = {1, 2, 4};
    unet.numResBlocks = 2;
    // XL-style: attention only at the two deeper levels.
    unet.attnDownFactors = {2, 4};
    unet.crossAttnDownFactors = {2, 4};
    unet.attnHeads = 10;
    unet.textLen = 77;
    unet.embedDim = 1280;

    models::ImageDecoderConfig vae;
    vae.latentChannels = 4;
    vae.baseChannels = 128;
    vae.channelMult = {1, 2, 4, 4};

    graph::Stage text;
    text.name = "text_encoders";
    text.iterations = 1;
    text.emit = [clip_small, clip_big](graph::GraphBuilder& b,
                                       std::int64_t) {
        models::textEncoder(b, clip_small, 1);
        models::textEncoder(b, clip_big, 1);
    };
    p.stages.push_back(std::move(text));

    graph::Stage denoise;
    denoise.name = "unet";
    denoise.iterations = 40;
    denoise.emit = [unet](graph::GraphBuilder& b, std::int64_t) {
        models::unetForward(b, unet, 128, 128);
    };
    p.stages.push_back(std::move(denoise));

    graph::Stage decode;
    decode.name = "vae_decoder";
    decode.iterations = 1;
    decode.emit = [vae](graph::GraphBuilder& b, std::int64_t) {
        models::imageDecoder(b, vae, 1, 128, 128);
    };
    p.stages.push_back(std::move(decode));
    return p;
}

} // namespace

int
main()
{
    const graph::Pipeline custom = buildCustomXl();
    core::CharacterizationSuite suite;

    const profiler::ProfileResult baseline = suite.profileOne(
        custom, graph::AttentionBackend::Baseline);
    const profiler::ProfileResult flash =
        suite.profileOne(custom, graph::AttentionBackend::Flash);

    std::cout << "=== Characterizing a custom XL-class TTI model ===\n\n";
    std::cout << core::profileSummary(flash) << "\n";

    const double f = baseline.breakdown.categoryFraction(
        graph::OpCategory::Attention);
    const double module_speedup =
        baseline.attentionSeconds() / flash.attentionSeconds();
    const double e2e = baseline.totalSeconds / flash.totalSeconds;
    std::cout << "Flash Attention analysis (Amdahl):\n";
    std::cout << "  baseline attention share: " << formatPercent(f)
              << "\n";
    std::cout << "  attention module speedup: "
              << formatFixed(module_speedup, 2) << "x\n";
    std::cout << "  predicted end-to-end:     "
              << formatFixed(
                     analytics::amdahlSpeedup(f, module_speedup), 2)
              << "x\n";
    std::cout << "  measured end-to-end:      " << formatFixed(e2e, 2)
              << "x  (ceiling "
              << formatFixed(analytics::amdahlCeiling(f), 2) << "x)\n\n";

    const hw::Roofline roofline(suite.gpu(), DType::F16);
    const double ai = flash.modelArithmeticIntensity();
    std::cout << "Roofline: arithmetic intensity "
              << formatFixed(ai, 1) << " FLOP/byte -> "
              << hw::boundKindName(roofline.classify(ai)) << "-bound\n";
    std::cout << "Sequence lengths over one denoising step: "
              << flash.seqLens.minSeqLen() << " .. "
              << flash.seqLens.maxSeqLen() << " ("
              << flash.seqLens.histogram().distinctValues()
              << " distinct buckets)\n";
    return 0;
}
