/**
 * @file
 * Timeline physics tests: P007 (per-stream monotonicity and
 * dependency honoring) and P008 (makespan bounds) must pass on every
 * schedule the TimelineScheduler produces and fire on fabricated
 * impossible timelines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/plan.hh"
#include "exec/schedule.hh"
#include "models/model_suite.hh"
#include "verify/rules.hh"
#include "verify/timeline.hh"

namespace mmgen::verify {
namespace {

const hw::GpuSpec kGpu = hw::GpuSpec::a100_80gb();

exec::ExecutionPlan
loweredModel(models::ModelId id, bool split)
{
    const kernels::CostModel model(
        kGpu, graph::AttentionBackend::Flash,
        kernels::EfficiencyParams::defaults());
    exec::LoweringOptions options;
    options.splitWeightStreams = split;
    return exec::lowerPipeline(models::buildModel(id), model, options);
}

TEST(TimelineVerifier, SchedulerOutputsPassOnZooSchedules)
{
    const std::vector<exec::ScheduleOptions> configs = [] {
        std::vector<exec::ScheduleOptions> out(3);
        out[1].streams = 2;
        out[1].launchQueueDepth = 2;
        out[2].streams = 2;
        out[2].launchQueueDepth = 4;
        out[2].graphLaunch = true;
        out[2].graphReplayOverheadFraction = 0.1;
        return out;
    }();
    for (const models::ModelId id :
         {models::ModelId::StableDiffusion, models::ModelId::Phenaki,
          models::ModelId::LLaMA}) {
        for (const bool split : {false, true}) {
            const exec::ExecutionPlan plan = loweredModel(id, split);
            for (const exec::ScheduleOptions& opts : configs) {
                const exec::Timeline tl =
                    exec::TimelineScheduler(kGpu, opts).schedule(plan);
                const DiagnosticReport report = verifyTimeline(
                    plan, tl, PhysicsContext{plan.model, ""});
                EXPECT_FALSE(report.hasErrors())
                    << plan.model << " split=" << split << " streams="
                    << opts.streams << ":\n"
                    << report.render();
            }
        }
    }
}

TEST(TimelineVerifier, EventCountMismatchFiresP007)
{
    const exec::ExecutionPlan plan =
        loweredModel(models::ModelId::Muse, false);
    exec::Timeline tl =
        exec::TimelineScheduler(kGpu).schedule(plan);
    tl.eventStart.pop_back();
    tl.eventEnd.pop_back();
    const DiagnosticReport report =
        verifyTimeline(plan, tl, PhysicsContext{"muse", ""});
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.fired(rules::TimelineConsistency));
    // A totals-only timeline has no events to check.
    EXPECT_TRUE(verifyTimeline(plan,
                               exec::TimelineScheduler(kGpu).scheduleTotals(
                                   plan),
                               PhysicsContext{"muse", ""})
                    .fired(rules::TimelineConsistency));

    // Timelines of other plans with the same executed kernel count:
    // their duration columns are sized for the other plan's stored
    // records, which this plan's indices would read past, and the
    // other way round.
    exec::ExecutionPlan more_ops = plan;
    more_ops.ops.push_back(more_ops.ops[more_ops.opSequence.back()]);
    more_ops.opSequence.back() =
        static_cast<std::uint32_t>(more_ops.ops.size() - 1);
    exec::ExecutionPlan more_nodes = plan;
    more_nodes.nodes.push_back(more_nodes.nodes.back());
    exec::NodeCostTable& costs = more_nodes.costs;
    costs.execSeconds.push_back(costs.execSeconds.back());
    costs.overheadSeconds.push_back(costs.overheadSeconds.back());
    const exec::TimelineScheduler scheduler(kGpu);
    for (const exec::ExecutionPlan* other : {&more_ops, &more_nodes}) {
        const exec::Timeline foreign = scheduler.schedule(*other);
        ASSERT_EQ(foreign.eventCount(), plan.executedNodeCount());
        EXPECT_TRUE(verifyTimeline(plan, foreign,
                                   PhysicsContext{"muse", ""})
                        .fired(rules::TimelineConsistency));
        EXPECT_TRUE(verifyTimeline(*other, scheduler.schedule(plan),
                                   PhysicsContext{"muse", ""})
                        .fired(rules::TimelineConsistency));
    }
}

TEST(TimelineVerifier, BackwardsEventFiresP007)
{
    const exec::ExecutionPlan plan =
        loweredModel(models::ModelId::Muse, false);
    exec::Timeline tl =
        exec::TimelineScheduler(kGpu).schedule(plan);
    std::swap(tl.eventStart[0], tl.eventEnd[0]);
    const DiagnosticReport report =
        verifyTimeline(plan, tl, PhysicsContext{"muse", ""});
    EXPECT_TRUE(report.fired(rules::TimelineConsistency));
    // The finding names the kernel as "scope:label".
    ASSERT_FALSE(report.diagnostics().empty());
    EXPECT_EQ(report.diagnostics()[0].scope,
              std::string(plan.opScope(0)) + ":" +
                  std::string(plan.nodeLabel(0)));
}

TEST(TimelineVerifier, StreamOverlapFiresP007)
{
    const exec::ExecutionPlan plan =
        loweredModel(models::ModelId::Muse, false);
    exec::Timeline tl =
        exec::TimelineScheduler(kGpu).schedule(plan);
    ASSERT_GE(tl.eventCount(), 2u);
    // Slide the second event under the first on the same stream.
    tl.eventStart[1] = tl.eventStart[0];
    const DiagnosticReport report =
        verifyTimeline(plan, tl, PhysicsContext{"muse", ""});
    EXPECT_TRUE(report.fired(rules::TimelineConsistency));
}

TEST(TimelineVerifier, DependencyViolationFiresP007)
{
    // A two-stream schedule has a cross-stream dependency (compute
    // kernel on its weight prefetch) that stream order alone cannot
    // explain away.
    const exec::ExecutionPlan plan =
        loweredModel(models::ModelId::StableDiffusion, true);
    ASSERT_TRUE(plan.hasWeightStreams);
    exec::ScheduleOptions opts;
    opts.streams = 2;
    exec::Timeline tl =
        exec::TimelineScheduler(kGpu, opts).schedule(plan);

    // Find a compute kernel with a Copy-lane dependency and start it
    // before the copy finishes.
    exec::KernelDeps deps;
    bool corrupted = false;
    for (const exec::ExecutedOp e : plan.executed()) {
        for (std::size_t p = 0; p < e.op.nodeCount && !corrupted; ++p) {
            const std::size_t n = e.firstNode + p;
            const exec::Lane lane = plan.nodes[e.op.firstNode + p].lane;
            deps.next(lane, p == 0, [&](exec::KernelDeps::Dep dep) {
                if (corrupted || dep.lane != exec::Lane::Copy ||
                    lane != exec::Lane::Compute ||
                    tl.eventEnd[dep.kernel] <= 0.0)
                    return;
                const double width = tl.eventDuration(n);
                tl.eventStart[n] = tl.eventEnd[dep.kernel] * 0.25;
                tl.eventEnd[n] = tl.eventStart[n] + width;
                corrupted = true;
            });
        }
        if (corrupted)
            break;
    }
    ASSERT_TRUE(corrupted);
    const DiagnosticReport report =
        verifyTimeline(plan, tl, PhysicsContext{"sd", ""});
    EXPECT_TRUE(report.fired(rules::TimelineConsistency));
}

TEST(TimelineVerifier, MakespanBelowStreamBusyTimeFiresP008)
{
    const exec::ExecutionPlan plan =
        loweredModel(models::ModelId::Muse, false);
    exec::Timeline tl =
        exec::TimelineScheduler(kGpu).schedule(plan);
    // Claim the one stream did more work than the whole run lasted.
    // Event positions stay feasible, so only the makespan bound can
    // catch the inconsistent busy counter.
    tl.streamBusySeconds[0] = tl.makespan * 2.0;
    const DiagnosticReport report =
        verifyTimeline(plan, tl, PhysicsContext{"muse", ""});
    EXPECT_TRUE(report.hasErrors());
    EXPECT_TRUE(report.fired(rules::MakespanBound));
}

TEST(TimelineVerifier, MakespanAboveSerializedWorkFiresP008)
{
    const exec::ExecutionPlan plan =
        loweredModel(models::ModelId::Muse, false);
    exec::Timeline tl =
        exec::TimelineScheduler(kGpu).schedule(plan);
    // An in-order schedule that claims to have idled: makespan far
    // past total work. Push the last event out too so the
    // within-makespan check does not mask the bound.
    tl.makespan *= 3.0;
    const DiagnosticReport report =
        verifyTimeline(plan, tl, PhysicsContext{"muse", ""});
    EXPECT_TRUE(report.fired(rules::MakespanBound));
}

TEST(TimelineVerifier, CriticalPathMatchesSerialMakespan)
{
    // With one stream and no overlap every node chains through its
    // program-order dependency, so the critical path is the makespan.
    const exec::ExecutionPlan plan =
        loweredModel(models::ModelId::Muse, false);
    const exec::Timeline tl =
        exec::TimelineScheduler(kGpu).schedule(plan);
    EXPECT_NEAR(timelineCriticalPath(plan, tl), tl.makespan,
                1e-9 * tl.makespan);
}

TEST(TimelineRules, RegisteredInTheCatalog)
{
    bool p007 = false, p008 = false;
    for (const RuleInfo& r : allRules()) {
        p007 |= std::string(r.id) == rules::TimelineConsistency;
        p008 |= std::string(r.id) == rules::MakespanBound;
    }
    EXPECT_TRUE(p007);
    EXPECT_TRUE(p008);
}

} // namespace
} // namespace mmgen::verify
