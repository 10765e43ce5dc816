/**
 * @file
 * Zoo-wide bit-identity of the lower+schedule profiler with the seed's
 * summed accounting.
 *
 * The refactor's core contract: with every lowering and scheduling
 * knob at its default, `Profiler::profile` must reproduce the old
 * accumulate-as-you-trace arithmetic *bit for bit* — per op
 * `(sum of part roofline seconds) * repeat`, accumulated in trace
 * order. The oracle below replays exactly that computation straight
 * from the traced stages via CostModel, independent of the exec
 * subsystem, and every comparison is EXPECT_EQ on doubles.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "kernels/cost_model.hh"
#include "models/model_suite.hh"
#include "profiler/engine.hh"

namespace mmgen::profiler {
namespace {

using graph::AttentionBackend;

/** The seed profiler's accumulation, replayed without exec::. */
struct SeedOracle
{
    double totalSeconds = 0.0;
    double totalFlops = 0.0;
    double totalHbmBytes = 0.0;
    std::int64_t totalLaunches = 0;
    /** Busy seconds per stage, in stage order. */
    std::vector<double> stageTotals;
};

SeedOracle
seedProfile(const graph::Pipeline& pipeline,
            const ProfileOptions& opts)
{
    const kernels::CostModel model(opts.gpu, opts.backend,
                                   opts.efficiency);
    SeedOracle oracle;
    const auto accumulate = [&](const graph::Trace& trace,
                                std::int64_t repeat, double& stage_s) {
        for (const auto& op : trace.ops()) {
            const kernels::OpCost cost = model.cost(op);
            const kernels::OpTime time =
                model.time(cost, op.dtype, repeat);
            const double r = static_cast<double>(repeat);
            oracle.totalSeconds += time.seconds;
            stage_s += time.seconds;
            oracle.totalFlops += cost.totalFlops() * r;
            oracle.totalHbmBytes += cost.totalBytes() * r;
            oracle.totalLaunches += cost.totalLaunches() * repeat;
        }
    };
    for (std::size_t si = 0; si < pipeline.stages.size(); ++si) {
        const graph::Stage& stage = pipeline.stages[si];
        double stage_s = 0.0;
        if (stage.perIterationShapes) {
            for (std::int64_t it = 0; it < stage.iterations; ++it)
                accumulate(pipeline.traceStage(si, it), 1, stage_s);
        } else {
            accumulate(pipeline.traceStage(si, 0), stage.iterations,
                       stage_s);
        }
        oracle.stageTotals.push_back(stage_s);
    }
    return oracle;
}

TEST(TimelineEquivalence, DefaultConfigIsBitIdenticalZooWide)
{
    for (const models::ModelId id : models::allModels()) {
        const graph::Pipeline pipeline = models::buildModel(id);
        for (const AttentionBackend backend :
             {AttentionBackend::Baseline, AttentionBackend::Flash,
              AttentionBackend::FlashDecode}) {
            ProfileOptions opts;
            opts.backend = backend;
            const ProfileResult res =
                Profiler(opts).profile(pipeline);
            const SeedOracle oracle = seedProfile(pipeline, opts);

            const std::string where =
                pipeline.name + " backend " +
                std::to_string(static_cast<int>(backend));
            // Bitwise, not NEAR: the scheduler must preserve the
            // seed's exact FP accumulation order.
            EXPECT_EQ(res.totalSeconds, oracle.totalSeconds) << where;
            EXPECT_EQ(res.totalFlops, oracle.totalFlops) << where;
            EXPECT_EQ(res.totalHbmBytes, oracle.totalHbmBytes)
                << where;
            EXPECT_EQ(res.totalLaunches, oracle.totalLaunches)
                << where;
            ASSERT_EQ(res.stageBreakdowns.size(),
                      oracle.stageTotals.size())
                << where;
            for (std::size_t si = 0; si < oracle.stageTotals.size();
                 ++si) {
                EXPECT_EQ(res.stageBreakdowns[si].second.totalSeconds(),
                          oracle.stageTotals[si]) // bitwise
                    << where << " stage " << si;
            }
        }
    }
}

TEST(TimelineEquivalence, KernelClassBreakdownIsBitIdentical)
{
    const graph::Pipeline pipeline =
        models::buildModel(models::ModelId::StableDiffusion);
    ProfileOptions opts;
    opts.backend = AttentionBackend::Baseline;
    const ProfileResult res = Profiler(opts).profile(pipeline);

    // Replay the seed's per-kernel-class attribution.
    const kernels::CostModel model(opts.gpu, opts.backend,
                                   opts.efficiency);
    std::map<kernels::KernelClass, double> expected;
    for (std::size_t si = 0; si < pipeline.stages.size(); ++si) {
        const graph::Stage& stage = pipeline.stages[si];
        ASSERT_FALSE(stage.perIterationShapes); // SD folds every stage
        const graph::Trace trace = pipeline.traceStage(si, 0);
        for (const auto& op : trace.ops()) {
            for (const auto& [klass, seconds] : model.timeByKernelClass(
                     model.cost(op), op.dtype, stage.iterations))
                expected[klass] += seconds;
        }
    }
    ASSERT_EQ(res.kernelClassSeconds.size(), expected.size());
    for (const auto& [klass, seconds] : expected)
        EXPECT_EQ(res.kernelClassSeconds.at(klass), seconds) // bitwise
            << kernels::kernelClassName(klass);
}

} // namespace
} // namespace mmgen::profiler
