/**
 * @file
 * Tests for the characterization suite facade, reports and taxonomy.
 */

#include <gtest/gtest.h>

#include "core/reports.hh"
#include "core/suite.hh"
#include "core/taxonomy.hh"
#include "util/logging.hh"

namespace mmgen::core {
namespace {

/** One shared SD run for all tests in this file. */
const ModelRunResult&
sdRun()
{
    static const ModelRunResult r = CharacterizationSuite().run(
        models::ModelId::StableDiffusion);
    return r;
}

TEST(CharacterizationSuite, RunsBothBackends)
{
    const ModelRunResult& r = sdRun();
    EXPECT_EQ(r.baseline.backend, graph::AttentionBackend::Baseline);
    EXPECT_EQ(r.flash.backend, graph::AttentionBackend::Flash);
    EXPECT_EQ(r.baseline.model, "StableDiffusion");
    EXPECT_GT(r.endToEndSpeedup(), 1.0);
    EXPECT_GT(r.attentionModuleSpeedup(), 1.0);
    EXPECT_GT(r.baselineAttentionFraction(),
              r.flashAttentionFraction());
}

TEST(CharacterizationSuite, FlashLeavesNonAttentionUnchanged)
{
    const ModelRunResult& r = sdRun();
    for (graph::OpCategory c :
         {graph::OpCategory::Convolution, graph::OpCategory::Linear,
          graph::OpCategory::GroupNorm}) {
        EXPECT_NEAR(r.baseline.breakdown.categorySeconds(c),
                    r.flash.breakdown.categorySeconds(c),
                    1e-12);
    }
}

TEST(CharacterizationSuite, ParamsIndependentOfBackend)
{
    const ModelRunResult& r = sdRun();
    EXPECT_EQ(r.baseline.params, r.flash.params);
}

TEST(Reports, TablesRenderWithExpectedRows)
{
    const std::vector<ModelRunResult> results = {sdRun()};
    EXPECT_EQ(flashSpeedupTable(results).rowCount(), 1u);
    EXPECT_EQ(attentionSpeedupTable(results).rowCount(), 1u);
    EXPECT_EQ(operatorBreakdownTable(results).rowCount(), 2u);
    EXPECT_EQ(
        rooflineTable(results, hw::GpuSpec::a100_80gb()).rowCount(),
        1u);
    const std::string summary = profileSummary(sdRun().flash);
    EXPECT_NE(summary.find("StableDiffusion"), std::string::npos);
    EXPECT_NE(summary.find("unet"), std::string::npos);
}

TEST(Reports, HotspotTableRanksByTime)
{
    const profiler::Profiler prof;
    const exec::TimelineScheduler scheduler(prof.options().gpu);
    const exec::ExecutionPlan plan =
        prof.lower(models::buildModel(models::ModelId::StableDiffusion));
    const TextTable table = hotspotTable(plan, scheduler.schedule(plan), 5);
    EXPECT_EQ(table.rowCount(), 5u);
    // Rendered output carries scopes and shares.
    const std::string out = table.render();
    EXPECT_NE(out.find("%"), std::string::npos);
    EXPECT_NE(out.find("unet"), std::string::npos);
    // The table reads only per-op seconds and the makespan, which a
    // totals-only schedule keeps bit for bit.
    EXPECT_EQ(hotspotTable(plan, scheduler.scheduleTotals(plan), 5).render(),
              out);

    // A timeline of another plan is a user error.
    const exec::ExecutionPlan muse =
        prof.lower(models::buildModel(models::ModelId::Muse));
    EXPECT_THROW(hotspotTable(plan, scheduler.scheduleTotals(muse)),
                 mmgen::FatalError);
}

TEST(Taxonomy, TercilesSpanLevels)
{
    // Three synthetic results ordered by every axis would need full
    // runs; instead check the level mapping through a real small set.
    CharacterizationSuite suite;
    const std::vector<ModelRunResult> results = {
        suite.run(models::ModelId::StableDiffusion),
        suite.run(models::ModelId::Muse),
    };
    const std::vector<TaxonomyRow> rows = buildTaxonomy(results);
    ASSERT_EQ(rows.size(), 2u);
    for (const auto& row : rows) {
        EXPECT_GT(row.params, 0);
        EXPECT_GT(row.flops, 0.0);
        EXPECT_GT(row.memoryBytes, 0.0);
        EXPECT_GT(row.latencySeconds, 0.0);
    }
    EXPECT_EQ(taxonomyTable(rows).rowCount(), 2u);
    EXPECT_EQ(resourceLevelName(ResourceLevel::Medium), "Medium");
}

TEST(Taxonomy, PeakWorkingSetReflectsBaselineAttention)
{
    const graph::Pipeline sd =
        models::buildModel(models::ModelId::StableDiffusion);
    const double peak = peakOpWorkingSetBytes(sd);
    // The 4096x4096 x 8-head similarity matrix dominates: >= 268 MB.
    EXPECT_GT(peak, 250e6);
}

} // namespace
} // namespace mmgen::core
