/**
 * @file
 * Tests for the exec-derived batch-latency surface: exact node
 * lookups, bilinear interpolation and clamped extrapolation, the
 * bit-exact `fromLatencyModel` bridge, fingerprints of the pipelines
 * rebuilt at each node, and `validate()` rejections.
 */

#include <gtest/gtest.h>

#include <vector>

#include "models/model_suite.hh"
#include "profiler/engine.hh"
#include "runtime/profile_cache.hh"
#include "serving/latency_surface.hh"
#include "util/logging.hh"

namespace mmgen::serving {
namespace {

/** 2x2 hand-built surface with distinct corner values. */
BatchLatencySurface
cornerSurface()
{
    BatchLatencySurface s;
    s.batchGrid = {1, 4};
    s.sizeGrid = {1.0, 2.0};
    s.seconds = {1.0, 2.0, 2.5, 5.0};
    return s;
}

TEST(BatchLatencySurface, NodeLookupsReturnStoredDoubles)
{
    const BatchLatencySurface s = cornerSurface();
    // Exact equality: node hits must bypass interpolation arithmetic.
    EXPECT_EQ(s.batchSeconds(1, 1.0), 1.0);
    EXPECT_EQ(s.batchSeconds(1, 2.0), 2.0);
    EXPECT_EQ(s.batchSeconds(4, 1.0), 2.5);
    EXPECT_EQ(s.batchSeconds(4, 2.0), 5.0);
}

TEST(BatchLatencySurface, BilinearBetweenNodes)
{
    const BatchLatencySurface s = cornerSurface();
    // batch 2 -> tb = 1/3, size 1.5 -> ts = 1/2:
    // (2/3)(1/2)*1.0 + (2/3)(1/2)*2.0 + (1/3)(1/2)*2.5 + (1/3)(1/2)*5
    EXPECT_NEAR(s.batchSeconds(2, 1.5), 2.25, 1e-12);
    // Interior values stay inside the corner envelope.
    EXPECT_GT(s.batchSeconds(3, 1.25), 1.0);
    EXPECT_LT(s.batchSeconds(3, 1.25), 5.0);
    // One-axis interpolation along each edge.
    EXPECT_NEAR(s.batchSeconds(2, 1.0), 1.5, 1e-12);
    EXPECT_NEAR(s.batchSeconds(1, 1.5), 1.5, 1e-12);
}

TEST(BatchLatencySurface, ClampsOutsideTheGrid)
{
    const BatchLatencySurface s = cornerSurface();
    EXPECT_EQ(s.batchSeconds(16, 2.0), 5.0);  // beyond max batch
    EXPECT_EQ(s.batchSeconds(4, 8.0), 5.0);   // beyond max size
    EXPECT_EQ(s.batchSeconds(1, 0.25), 1.0);  // below min size
    EXPECT_EQ(s.batchSeconds(16, 0.25), 2.5); // mixed clamp
}

TEST(BatchLatencySurface, IterationSecondsDividesEvenly)
{
    BatchLatencySurface s = cornerSurface();
    s.iterations = 50;
    EXPECT_EQ(s.iterationSeconds(4, 2.0), 5.0 / 50.0);
}

TEST(BatchLatencySurface, FromLatencyModelIsBitExact)
{
    LatencyModel model;
    model.baseSeconds = 0.731;
    model.overheadFraction = 0.17;
    const BatchLatencySurface s =
        BatchLatencySurface::fromLatencyModel(model, 8);
    ASSERT_EQ(s.batchGrid.size(), 8u);
    ASSERT_EQ(s.sizeGrid.size(), 1u);
    for (int b = 1; b <= 8; ++b) {
        // The legacy bit-identity contract: the surface must return
        // the model's exact doubles at every integer batch.
        EXPECT_EQ(s.batchSeconds(b), model.batchSeconds(b)) << b;
        EXPECT_EQ(s.batchSeconds(b, 1.0), model.batchSeconds(b)) << b;
    }
    EXPECT_EQ(s.iterations, 1);
}

TEST(BatchLatencySurface, ProfiledNodesMatchDirectProfile)
{
    const graph::Pipeline p =
        models::buildModel(models::ModelId::StableDiffusion);
    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    const BatchLatencySurface s = profileLatencySurface(
        p, gpu, exec::ScheduleOptions(), {1, 2}, {1.0, 2.0});

    profiler::ProfileOptions opts;
    opts.gpu = gpu;
    opts.backend = graph::AttentionBackend::Flash;
    for (std::size_t bi = 0; bi < s.batchGrid.size(); ++bi) {
        for (std::size_t si = 0; si < s.sizeGrid.size(); ++si) {
            const double direct =
                runtime::cachedProfile(
                    p.at({s.batchGrid[bi], s.sizeGrid[si]}), opts)
                    ->totalSeconds;
            EXPECT_EQ(s.at(bi, si), direct)
                << "node (" << s.batchGrid[bi] << ", "
                << s.sizeGrid[si] << ")";
        }
    }
    // The size grid holds what SD realized: a 704 px image for 2.0.
    EXPECT_EQ(s.sizeGrid, (std::vector<double>{1.0, 1.890625}));
    // Iteration granularity comes from the dominant stage.
    std::int64_t max_iters = 1;
    for (const graph::Stage& stage : p.stages)
        max_iters = std::max(max_iters, stage.iterations);
    EXPECT_EQ(s.iterations, max_iters);
    EXPECT_GT(s.iterations, 1); // SD is iterative by construction
}

TEST(BatchLatencySurface, LargerBatchesAndSizesCostMore)
{
    const graph::Pipeline p =
        models::buildModel(models::ModelId::StableDiffusion);
    const BatchLatencySurface s = profileLatencySurface(
        p, hw::GpuSpec::a100_80gb(), exec::ScheduleOptions(), {1, 4},
        {1.0, 4.0});
    EXPECT_GT(s.batchSeconds(4, 1.0), s.batchSeconds(1, 1.0));
    EXPECT_GT(s.batchSeconds(1, 4.0), s.batchSeconds(1, 1.0));
    // Batching amortizes: 4 requests in one batch beat 4 serial runs.
    EXPECT_LT(s.batchSeconds(4, 1.0), 4.0 * s.batchSeconds(1, 1.0));
}

TEST(ScaledPipeline, UnitScaleReturnsBaseUnchanged)
{
    const graph::Pipeline p =
        models::buildModel(models::ModelId::StableDiffusion);
    const graph::Pipeline same = p.at({1, 1.0});
    EXPECT_EQ(same.fingerprint(), p.fingerprint());
    EXPECT_EQ(same.name, p.name);
    // Back from another shape, the rebuild is the base pipeline again.
    const graph::Pipeline back = p.at({2, 2.0}).at({1, 1.0});
    EXPECT_EQ(back.fingerprint(), p.fingerprint());
    EXPECT_EQ(back.name, p.name);
}

TEST(ScaledPipeline, ScaledVariantsNeverAliasInCaches)
{
    const graph::Pipeline p =
        models::buildModel(models::ModelId::StableDiffusion);
    const std::uint64_t base = p.fingerprint();
    const std::uint64_t b2 = p.at({2, 1.0}).fingerprint();
    const std::uint64_t b4 = p.at({4, 1.0}).fingerprint();
    const std::uint64_t s2 = p.at({1, 2.0}).fingerprint();
    EXPECT_NE(b2, base);
    EXPECT_NE(b4, base);
    EXPECT_NE(s2, base);
    EXPECT_NE(b2, b4);
    EXPECT_NE(b2, s2);
    // Same (batch, size) always re-derives the same fingerprint, so
    // repeated sweeps stay profile-cache hits.
    EXPECT_EQ(p.at({2, 1.0}).fingerprint(), b2);
}

TEST(ScaledPipeline, HandBuiltPipelineIsPricedOnlyAtTheUnitShape)
{
    graph::Pipeline p;
    p.name = "hand_built";
    graph::Stage stage;
    stage.name = "body";
    stage.emit = [](graph::GraphBuilder& b, std::int64_t) {
        b.linear(TensorDesc({1, 64, 512}, b.dtype()), 512);
    };
    p.stages.push_back(std::move(stage));
    EXPECT_EQ(p.at({1, 1.0}).fingerprint(), p.fingerprint());
    EXPECT_THROW(p.at({2, 1.0}), FatalError);
    EXPECT_THROW(p.at({1, 2.0}), FatalError);
    EXPECT_THROW(profileLatencySurface(p, hw::GpuSpec::a100_80gb(),
                                       exec::ScheduleOptions(), {1, 2}),
                 FatalError);
    // A model pipeline rejects shapes no batch or size can mean.
    const graph::Pipeline sd =
        models::buildModel(models::ModelId::StableDiffusion);
    EXPECT_THROW(sd.at({0, 1.0}), FatalError);
    EXPECT_THROW(sd.at({1, 0.0}), FatalError);
}

TEST(BatchLatencySurfaceValidate, RejectsEmptyGrid)
{
    BatchLatencySurface s;
    EXPECT_THROW(s.validate(), FatalError);
}

TEST(BatchLatencySurfaceValidate, RejectsNonAscendingBatchGrid)
{
    BatchLatencySurface s = cornerSurface();
    s.batchGrid = {4, 4};
    EXPECT_THROW(s.validate(), FatalError);
}

TEST(BatchLatencySurfaceValidate, RejectsBatchGridBelowOne)
{
    BatchLatencySurface s = cornerSurface();
    s.batchGrid = {0, 4};
    EXPECT_THROW(s.validate(), FatalError);
}

TEST(BatchLatencySurfaceValidate, RejectsNonPositiveSizeGrid)
{
    BatchLatencySurface s = cornerSurface();
    s.sizeGrid = {0.0, 2.0};
    EXPECT_THROW(s.validate(), FatalError);
}

TEST(BatchLatencySurfaceValidate, RejectsWrongSampleShape)
{
    BatchLatencySurface s = cornerSurface();
    s.seconds.pop_back();
    EXPECT_THROW(s.validate(), FatalError);
}

TEST(BatchLatencySurfaceValidate, RejectsNonPositiveSamples)
{
    BatchLatencySurface s = cornerSurface();
    s.seconds[2] = 0.0;
    EXPECT_THROW(s.validate(), FatalError);
}

TEST(BatchLatencySurfaceValidate, RejectsNonPositiveIterations)
{
    BatchLatencySurface s = cornerSurface();
    s.iterations = 0;
    EXPECT_THROW(s.validate(), FatalError);
}

TEST(BatchLatencySurfaceValidate, RejectsBadLookupArguments)
{
    const BatchLatencySurface s = cornerSurface();
    EXPECT_THROW(s.batchSeconds(0, 1.0), FatalError);
    EXPECT_THROW(s.batchSeconds(1, 0.0), FatalError);
    EXPECT_THROW(s.batchSeconds(1, -2.0), FatalError);
}

} // namespace
} // namespace mmgen::serving
