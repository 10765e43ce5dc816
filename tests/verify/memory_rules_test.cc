/**
 * @file
 * The memory verification pass: S013 dataflow integrity over
 * deliberately corrupted plans, P011 conservation against tampered
 * cost-model traffic, caller-chosen P010 capacity severity, the
 * suppression contract (suppressing the noisy capacity rule can
 * never mask a dataflow error), registry coverage, and the golden
 * JSON serialization of a DiagnosticReport.
 */

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "exec/memory.hh"
#include "exec/plan.hh"
#include "exec/schedule.hh"
#include "kernels/cost_model.hh"
#include "models/model_suite.hh"
#include "verify/memory.hh"
#include "verify/rules.hh"

namespace mmgen::verify {
namespace {

struct Lowered
{
    exec::ExecutionPlan plan;
    exec::Timeline timeline;
};

Lowered
lowerStableDiffusion()
{
    const graph::Pipeline p =
        models::buildModel(models::ModelId::StableDiffusion);
    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    const kernels::CostModel model(gpu, graph::AttentionBackend::Flash,
                                   kernels::EfficiencyParams::defaults());
    Lowered l;
    l.plan = exec::lowerPipeline(p, model);
    l.timeline = exec::TimelineScheduler(gpu).schedule(l.plan);
    return l;
}

PhysicsContext
ctxFor(const exec::ExecutionPlan& plan)
{
    return PhysicsContext{plan.model, ""};
}

TEST(PlanDataflow, CleanPlanHasNoFindings)
{
    const Lowered l = lowerStableDiffusion();
    DiagnosticReport report;
    checkPlanDataflow(l.plan, ctxFor(l.plan), report);
    EXPECT_FALSE(report.hasErrors()) << report.render();
    EXPECT_FALSE(report.fired(rules::DanglingDefUse));
}

TEST(PlanDataflow, BrokenOpRangeFiresS013)
{
    Lowered l = lowerStableDiffusion();
    ASSERT_GT(l.plan.ops.size(), 1u);
    l.plan.ops[1].firstNode += 1; // ranges no longer tile the nodes
    DiagnosticReport report;
    checkPlanDataflow(l.plan, ctxFor(l.plan), report);
    EXPECT_TRUE(report.fired(rules::DanglingDefUse));
}

TEST(PlanDataflow, BrokenExecutedSequenceFiresS013)
{
    // An executed op that names no stored record...
    Lowered l = lowerStableDiffusion();
    l.plan.opSequence.back() =
        static_cast<std::uint32_t>(l.plan.ops.size());
    DiagnosticReport named;
    checkPlanDataflow(l.plan, ctxFor(l.plan), named);
    EXPECT_TRUE(named.fired(rules::DanglingDefUse)) << named.render();

    // ...and one that runs more kernels than the plan counts.
    Lowered m = lowerStableDiffusion();
    m.plan.opSequence.push_back(0);
    DiagnosticReport covered;
    checkPlanDataflow(m.plan, ctxFor(m.plan), covered);
    EXPECT_TRUE(covered.fired(rules::DanglingDefUse))
        << covered.render();
}

TEST(PlanDataflow, ComputeLaneWeightStreamFiresS013)
{
    Lowered l = lowerStableDiffusion();
    // Weight staging must live on the Copy lane; a compute-lane
    // "prefetch" has no consumer in the liveness model.
    l.plan.nodes[3].weightStream = true;
    ASSERT_EQ(l.plan.nodes[3].lane, exec::Lane::Compute);
    DiagnosticReport report;
    checkPlanDataflow(l.plan, ctxFor(l.plan), report);
    EXPECT_TRUE(report.fired(rules::DanglingDefUse));
}

TEST(MemoryRules, CleanProfilePassesOnBigGpu)
{
    const Lowered l = lowerStableDiffusion();
    const DiagnosticReport report =
        verifyMemory(l.plan, l.timeline, hw::GpuSpec::a100_80gb(),
                     ctxFor(l.plan));
    EXPECT_FALSE(report.hasErrors()) << report.render();
}

TEST(MemoryRules, TamperedTrafficFiresP011)
{
    Lowered l = lowerStableDiffusion();
    // Zero the HBM traffic of an op that demands bytes: the liveness
    // accounting now claims bytes no kernel ever moved.
    std::size_t victim = l.plan.ops.size();
    for (std::size_t i = 0; i < l.plan.ops.size(); ++i) {
        const exec::PlanOp& op = l.plan.ops[i];
        if (op.inputBytes + op.outputBytes + op.weightReadBytes >
            0.0) {
            victim = i;
            break;
        }
    }
    ASSERT_LT(victim, l.plan.ops.size());
    const exec::PlanOp& op = l.plan.ops[victim];
    for (std::size_t n = op.firstNode; n < op.firstNode + op.nodeCount;
         ++n)
        l.plan.nodes[n].hbmBytes = 0.0;

    const DiagnosticReport report =
        verifyMemory(l.plan, l.timeline, hw::GpuSpec::a100_80gb(),
                     ctxFor(l.plan));
    EXPECT_TRUE(report.fired(rules::MemoryConservation))
        << report.render();
    EXPECT_TRUE(report.hasErrors());
}

TEST(MemoryRules, TamperedStoredOpFiresP011Once)
{
    // A LLaMA decode FFN op is stored once and executed on every token.
    // P011 reads only the stored record, so tampering with it is one
    // finding, not one per token.
    const graph::Pipeline p = models::buildModel(models::ModelId::LLaMA);
    const hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    const kernels::CostModel model(gpu, graph::AttentionBackend::Flash,
                                   kernels::EfficiencyParams::defaults());
    exec::ExecutionPlan plan = exec::lowerPipeline(p, model);
    const exec::Timeline timeline =
        exec::TimelineScheduler(gpu).schedule(plan);

    std::vector<std::size_t> executions(plan.ops.size(), 0);
    for (const exec::ExecutedOp e : plan.executed())
        ++executions[e.opIndex];
    std::size_t victim = plan.ops.size();
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        const exec::PlanOp& op = plan.ops[i];
        if (plan.stageNames[op.stageIndex] == "decode" &&
            plan.opScope(i).find(".ffn") != std::string_view::npos &&
            op.inputBytes + op.outputBytes + op.weightReadBytes > 0.0 &&
            executions[i] > 1) {
            victim = i;
            break;
        }
    }
    ASSERT_LT(victim, plan.ops.size());
    const exec::PlanOp& op = plan.ops[victim];
    for (std::size_t n = op.firstNode; n < op.firstNode + op.nodeCount;
         ++n)
        plan.nodes[n].hbmBytes = 0.0;

    const DiagnosticReport report =
        verifyMemory(plan, timeline, gpu, ctxFor(plan));
    const std::vector<Diagnostic> findings =
        report.forRule(rules::MemoryConservation);
    ASSERT_EQ(findings.size(), 1u) << report.render();
    EXPECT_EQ(findings[0].scope, plan.opScope(victim));
    EXPECT_EQ(report.errorCount(), 1) << report.render();
}

TEST(MemoryRules, CapacitySeverityIsCallerChosen)
{
    const Lowered l = lowerStableDiffusion();
    hw::GpuSpec tiny = hw::GpuSpec::a100_80gb();
    tiny.name = "tiny-1GB";
    tiny.hbmBytes = 1e9; // SD's ~2.2 GiB peak cannot fit

    const DiagnosticReport hard = verifyMemory(
        l.plan, l.timeline, tiny, ctxFor(l.plan), Severity::Error);
    EXPECT_TRUE(hard.fired(rules::CapacityFeasible));
    EXPECT_TRUE(hard.hasErrors());

    // The profiler demotes capacity to Warn: the finding is still
    // reported, but it gates nothing.
    const DiagnosticReport soft = verifyMemory(
        l.plan, l.timeline, tiny, ctxFor(l.plan), Severity::Warn);
    EXPECT_TRUE(soft.fired(rules::CapacityFeasible));
    EXPECT_FALSE(soft.hasErrors()) << soft.render();
}

TEST(MemoryRules, SuppressingCapacityDoesNotMaskDataflow)
{
    Lowered l = lowerStableDiffusion();
    hw::GpuSpec tiny = hw::GpuSpec::a100_80gb();
    tiny.hbmBytes = 1e9;

    // Suppressed P010 findings vanish from the severity totals...
    DiagnosticReport report;
    report.suppressRule(rules::CapacityFeasible);
    checkPlanDataflow(l.plan, ctxFor(l.plan), report);
    const exec::MemoryProfile mem =
        exec::analyzeMemory(l.plan, l.timeline);
    checkMemoryProfile(l.plan, mem, tiny, ctxFor(l.plan), report,
                       Severity::Error);
    EXPECT_FALSE(report.fired(rules::CapacityFeasible));
    EXPECT_GE(report.ruleSuppressedCount(), 1);
    EXPECT_FALSE(report.hasErrors()) << report.render();

    // ...but S013 errors on a corrupted plan still gate.
    ASSERT_GT(l.plan.ops.size(), 1u);
    l.plan.ops[1].firstNode += 1; // ranges no longer tile the nodes
    checkPlanDataflow(l.plan, ctxFor(l.plan), report);
    EXPECT_TRUE(report.fired(rules::DanglingDefUse));
    EXPECT_TRUE(report.hasErrors());
}

TEST(MemoryRules, RegistryListsMemoryRules)
{
    for (const char* id :
         {rules::DanglingDefUse, rules::CapacityFeasible,
          rules::MemoryConservation}) {
        const RuleInfo& info = ruleInfo(id);
        EXPECT_STREQ(info.id, id);
        EXPECT_EQ(info.severity, Severity::Error);
    }
    EXPECT_STREQ(ruleInfo(rules::DanglingDefUse).family, "structural");
    EXPECT_STREQ(ruleInfo(rules::CapacityFeasible).family, "physics");
    EXPECT_STREQ(ruleInfo(rules::MemoryConservation).family,
                 "physics");
}

TEST(DiagnosticJson, GoldenWriterOutput)
{
    DiagnosticReport report;
    Diagnostic a;
    a.severity = Severity::Error;
    a.rule = rules::DanglingDefUse;
    a.model = "sd";
    a.stage = "unet";
    a.scope = "unet.down0.attn";
    a.message = "node 5 reads \"x\"\nundefined";
    a.hint = "fix deps";
    report.add(a);

    Diagnostic b;
    b.severity = Severity::Warn;
    b.rule = rules::CapacityFeasible;
    b.model = "sd";
    b.message = "peak 2.19 GiB exceeds 1.00 GiB";
    report.add(b);

    // Golden string: the exact byte sequence the util/json.hh Writer
    // produces, including escaping and compact separators.
    EXPECT_EQ(
        report.toJson(),
        "[{\"severity\":\"error\",\"rule\":\"S013\",\"model\":\"sd\","
        "\"stage\":\"unet\",\"scope\":\"unet.down0.attn\","
        "\"message\":\"node 5 reads \\\"x\\\"\\nundefined\","
        "\"hint\":\"fix deps\"},"
        "{\"severity\":\"warn\",\"rule\":\"P010\",\"model\":\"sd\","
        "\"stage\":\"\",\"scope\":\"\","
        "\"message\":\"peak 2.19 GiB exceeds 1.00 GiB\","
        "\"hint\":\"\"}]");
}

} // namespace
} // namespace mmgen::verify
