/**
 * @file
 * Cross-validation: the closed-form Section V analytics and the
 * operator-level simulation must agree with each other — the paper's
 * analytical framework was built to explain its measurements, and the
 * reproduction keeps both sides honest against one another.
 */

#include <gtest/gtest.h>

#include <vector>

#include "analytics/amdahl.hh"
#include "analytics/memory_model.hh"
#include "kernels/attention.hh"
#include "models/stable_diffusion.hh"
#include "profiler/engine.hh"

namespace mmgen {
namespace {

/**
 * Total materialized similarity-matrix bytes of one SD UNet pass at a
 * given latent extent, from the traced operator shapes.
 */
double
profiledSimilarityBytes(std::int64_t image_size)
{
    models::StableDiffusionConfig cfg;
    cfg.imageSize = image_size;
    const graph::Pipeline p = models::buildStableDiffusion(cfg);
    const graph::Trace t = p.traceStage(1, 0);
    double bytes = 0.0;
    for (const auto& op : t.ops()) {
        if (op.kind != graph::OpKind::Attention)
            continue;
        bytes += kernels::similarityMatrixBytes(
            op.as<graph::AttentionAttrs>(), 2);
    }
    return bytes;
}

TEST(CrossValidation, ProfiledSimilarityMemoryFollowsQuarticLaw)
{
    // The simulated UNet's aggregate similarity memory must scale with
    // the same O(L^4) exponent the closed-form model derives.
    std::vector<double> latents, bytes;
    for (std::int64_t image : {128, 256, 512}) {
        latents.push_back(static_cast<double>(image / 8));
        bytes.push_back(profiledSimilarityBytes(image));
    }
    const double exponent =
        analytics::scalingExponent(latents, bytes);
    EXPECT_NEAR(exponent, 4.0, 0.35);
}

TEST(CrossValidation, AnalyticSelfAttentionMatchesTracedTopStage)
{
    // At the UNet input resolution the closed-form self-similarity
    // entries equal the traced attention op's Sq * Skv exactly.
    analytics::DiffusionMemoryModel m;
    m.latentH = m.latentW = 64;

    const graph::Pipeline p = models::buildStableDiffusion();
    const graph::Trace t = p.traceStage(1, 0);
    bool checked = false;
    for (const auto& op : t.ops()) {
        if (op.kind != graph::OpKind::Attention)
            continue;
        const auto& a = op.as<graph::AttentionAttrs>();
        if (a.kind == graph::AttentionKind::SelfSpatial &&
            a.seqQ == 64 * 64) {
            EXPECT_DOUBLE_EQ(
                static_cast<double>(a.seqQ) *
                    static_cast<double>(a.seqKv),
                m.selfSimilarityEntries(0));
            checked = true;
            break;
        }
    }
    EXPECT_TRUE(checked);
}

TEST(CrossValidation, AmdahlPredictsMeasuredEndToEndSpeedup)
{
    // The Amdahl decomposition applied to the measured fraction and
    // module speedup must reconstruct the measured end-to-end speedup.
    profiler::ProfileOptions base_opts;
    base_opts.gpu = hw::GpuSpec::a100_80gb();
    base_opts.backend = graph::AttentionBackend::Baseline;
    profiler::Profiler base_prof(base_opts);
    profiler::Profiler flash_prof;
    const graph::Pipeline p = models::buildStableDiffusion();
    const profiler::ProfileResult base = base_prof.profile(p);
    const profiler::ProfileResult flash = flash_prof.profile(p);

    const double f = base.breakdown.categoryFraction(
        graph::OpCategory::Attention);
    const double module =
        base.attentionSeconds() / flash.attentionSeconds();
    const double measured = base.totalSeconds / flash.totalSeconds;
    EXPECT_NEAR(analytics::amdahlSpeedup(f, module), measured,
                0.01 * measured);
}

TEST(CrossValidation, SeqHistogramMatchesTracedAttentionCounts)
{
    // Fig. 8's histogram weights must equal iteration-scaled counts
    // of the traced attention ops.
    profiler::Profiler prof;
    const graph::Pipeline p = models::buildStableDiffusion();
    const profiler::ProfileResult res = prof.profile(p);

    std::uint64_t traced = 0;
    for (std::size_t si = 0; si < p.stages.size(); ++si) {
        const graph::Trace t = p.traceStage(si, 0);
        for (const auto& op : t.ops()) {
            if (op.kind != graph::OpKind::Attention)
                continue;
            if (op.as<graph::AttentionAttrs>().kind ==
                graph::AttentionKind::CrossText) {
                continue;
            }
            traced += static_cast<std::uint64_t>(
                p.stages[si].iterations);
        }
    }
    EXPECT_EQ(res.seqLens.histogram().totalWeight(), traced);
}

} // namespace
} // namespace mmgen
