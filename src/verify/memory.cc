#include "memory.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string_view>

namespace mmgen::verify {

namespace {

/** Relative slack for floating-point bound comparisons. */
constexpr double kRelTol = 1e-6;

/** a <= b up to relative rounding slack on either magnitude. */
bool
atMost(double a, double b)
{
    return a <= b + kRelTol * std::max({std::fabs(a), std::fabs(b), 1.0});
}

std::string
gib(double bytes)
{
    std::ostringstream oss;
    oss.precision(3);
    oss << std::fixed << bytes / (1024.0 * 1024.0 * 1024.0) << " GiB";
    return oss.str();
}

void
addFinding(DiagnosticReport& report, Severity sev, const char* rule,
           const PhysicsContext& ctx, std::string_view scope,
           std::string msg, std::string hint = "")
{
    report.add(Diagnostic{sev, rule, ctx.model, ctx.stage,
                          std::string(scope), std::move(msg),
                          std::move(hint)});
}

/** P011: a byte quantity of the memory model must be sane. */
bool
finiteBytes(DiagnosticReport& report, const PhysicsContext& ctx,
            std::string_view scope, const char* what, double value)
{
    if (std::isfinite(value) && value >= 0.0)
        return true;
    std::ostringstream oss;
    oss << what << " = " << value << " is not finite and non-negative";
    addFinding(report, Severity::Error, rules::MemoryConservation, ctx,
               scope, oss.str());
    return false;
}

} // namespace

void
checkPlanDataflow(const exec::ExecutionPlan& plan,
                  const PhysicsContext& ctx, DiagnosticReport& report)
{
    // ---- op ranges must tile the node list contiguously --------------
    std::size_t expect_first = 0;
    for (const exec::PlanOp& op : plan.ops) {
        const std::string_view op_scope = plan.str(op.scope);
        if (op.nodeCount == 0) {
            addFinding(report, Severity::Error, rules::DanglingDefUse,
                       ctx, op_scope, "op lowered to zero kernels",
                       "every traced op must own at least one node");
            continue;
        }
        if (op.firstNode != expect_first ||
            op.firstNode + op.nodeCount > plan.nodes.size()) {
            std::ostringstream oss;
            oss << "op node range [" << op.firstNode << ", "
                << op.firstNode + op.nodeCount << ") does not tile the "
                << plan.nodes.size() << "-node plan (expected start "
                << expect_first << ")";
            addFinding(report, Severity::Error, rules::DanglingDefUse,
                       ctx, op_scope, oss.str());
            return; // ranges unusable; later checks would cascade
        }
        expect_first = op.firstNode + op.nodeCount;
    }
    if (expect_first != plan.nodes.size()) {
        std::ostringstream oss;
        oss << "op ranges cover " << expect_first << " of "
            << plan.nodes.size() << " nodes";
        addFinding(report, Severity::Error, rules::DanglingDefUse, ctx,
                   "plan", oss.str());
    }

    // ---- the executed sequence names stored ops and runs the plan's
    //      executed kernels ----------------------------------------------
    std::size_t executed_nodes = 0;
    for (const std::uint32_t oi : plan.opSequence) {
        if (oi >= plan.ops.size()) {
            std::ostringstream oss;
            oss << "executed op names stored op " << oi << " of "
                << plan.ops.size();
            addFinding(report, Severity::Error, rules::DanglingDefUse,
                       ctx, "plan", oss.str());
            return; // the plan's readers would read past the records
        }
        executed_nodes += plan.ops[oi].nodeCount;
    }
    if (executed_nodes != plan.executedNodeCount()) {
        std::ostringstream oss;
        oss << "executed ops run " << executed_nodes << " kernels but "
            << "the plan counts " << plan.executedNodeCount();
        addFinding(report, Severity::Error, rules::DanglingDefUse, ctx,
                   "plan", oss.str());
    }

    // ---- staged weights sit on the copy lane, ahead of their op's
    //      first compute kernel (which exec::KernelDeps makes wait for
    //      them) ---------------------------------------------------------
    // The check reads only stored records, so every executed instance
    // would repeat its verdict: check each stored op once.
    for (const exec::PlanOp& op : plan.ops) {
        const std::size_t end = op.firstNode + op.nodeCount;
        std::size_t first_compute = op.firstNode;
        while (first_compute < end &&
               plan.nodes[first_compute].lane != exec::Lane::Compute)
            ++first_compute;
        for (std::size_t n = op.firstNode; n < end; ++n) {
            const exec::PlanNode& node = plan.nodes[n];
            if (!node.weightStream)
                continue;
            const std::string_view op_scope = plan.str(op.scope);
            if (node.lane != exec::Lane::Copy) {
                // exec::laneName is also what links exec/plan.cc into
                // hostbench, whose weak __real_lowerPipeline needs it.
                std::ostringstream oss;
                oss << "weight-stream node " << n << " runs on the "
                    << exec::laneName(node.lane) << " lane";
                addFinding(report, Severity::Error,
                           rules::DanglingDefUse, ctx, op_scope,
                           oss.str());
            }
            if (first_compute <= n || first_compute == end) {
                std::ostringstream oss;
                oss << "weight-stream node " << n
                    << " stages bytes no compute kernel of its op reads";
                addFinding(report, Severity::Error,
                           rules::DanglingDefUse, ctx, op_scope,
                           oss.str(),
                           "the prefetch must precede its op's first "
                           "compute kernel");
            }
        }
    }
}

void
checkMemoryProfile(const exec::ExecutionPlan& plan,
                   const exec::MemoryProfile& profile,
                   const hw::GpuSpec& gpu, const PhysicsContext& ctx,
                   DiagnosticReport& report, Severity capacitySeverity)
{
    // ---- P011: profile quantities are sane and ordered ---------------
    bool sane = true;
    sane &= finiteBytes(report, ctx, "profile", "weightBytes",
                        profile.weightBytes);
    sane &= finiteBytes(report, ctx, "profile", "programPeakBytes",
                        profile.programPeakBytes);
    sane &= finiteBytes(report, ctx, "profile", "scheduledPeakBytes",
                        profile.scheduledPeakBytes);
    sane &= finiteBytes(report, ctx, "profile", "noReuseBytes",
                        profile.noReuseBytes);
    sane &= finiteBytes(report, ctx, "profile", "scheduledPeakSeconds",
                        profile.scheduledPeakSeconds);
    if (sane) {
        const struct
        {
            const char* lo;
            double loBytes;
            const char* hi;
            double hiBytes;
        } bounds[] = {
            {"weightBytes", profile.weightBytes, "programPeakBytes",
             profile.programPeakBytes},
            {"programPeakBytes", profile.programPeakBytes,
             "scheduledPeakBytes", profile.scheduledPeakBytes},
            {"scheduledPeakBytes", profile.scheduledPeakBytes,
             "noReuseBytes", profile.noReuseBytes},
        };
        for (const auto& b : bounds) {
            if (atMost(b.loBytes, b.hiBytes))
                continue;
            std::ostringstream oss;
            oss << b.lo << " = " << gib(b.loBytes) << " exceeds "
                << b.hi << " = " << gib(b.hiBytes);
            addFinding(report, Severity::Error,
                       rules::MemoryConservation, ctx, "profile",
                       oss.str(),
                       "peak bounds must order weights <= program <= "
                       "scheduled <= no-reuse");
        }
    }

    // ---- P011: per-op demand conserved against cost-model traffic ----
    // The check reads only a stored op and its stored kernels, so every
    // executed instance would repeat its verdict: check each once.
    for (const exec::PlanOp& op : plan.ops) {
        const std::string_view op_scope = plan.str(op.scope);
        bool op_sane = true;
        op_sane &= finiteBytes(report, ctx, op_scope, "inputBytes",
                               op.inputBytes);
        op_sane &= finiteBytes(report, ctx, op_scope, "outputBytes",
                               op.outputBytes);
        op_sane &= finiteBytes(report, ctx, op_scope,
                               "weightResidentBytes",
                               op.weightResidentBytes);
        op_sane &= finiteBytes(report, ctx, op_scope, "weightReadBytes",
                               op.weightReadBytes);
        op_sane &= finiteBytes(report, ctx, op_scope, "workspaceBytes",
                               op.workspaceBytes);
        if (!op_sane || op.firstNode + op.nodeCount > plan.nodes.size())
            continue;
        double traffic = 0.0;
        for (std::size_t n = op.firstNode;
             n < op.firstNode + op.nodeCount; ++n)
            traffic += plan.nodes[n].hbmBytes;
        const double demand =
            op.inputBytes + op.outputBytes + op.weightReadBytes;
        if (!atMost(demand, traffic)) {
            std::ostringstream oss;
            oss << "liveness demand " << demand
                << " B (in + out + weight reads) exceeds the "
                << traffic << " B of HBM traffic the cost model "
                << "charged";
            addFinding(report, Severity::Error,
                       rules::MemoryConservation, ctx, op_scope,
                       oss.str(),
                       "every live byte must be moved at least once "
                       "by some kernel of the op");
        }
    }

    // ---- P010: the scheduled peak fits the device --------------------
    if (sane && !atMost(profile.scheduledPeakBytes, gpu.hbmBytes)) {
        std::ostringstream oss;
        oss << "peak resident memory " << gib(profile.scheduledPeakBytes)
            << " (weights " << gib(profile.weightBytes)
            << ") exceeds the " << gib(gpu.hbmBytes) << " of "
            << gpu.name;
        addFinding(report, capacitySeverity, rules::CapacityFeasible,
                   ctx, "profile", oss.str(),
                   "shrink the batch or resolution, or simulate a "
                   "larger-memory GPU");
    }
}

DiagnosticReport
verifyMemory(const exec::ExecutionPlan& plan,
             const exec::Timeline& timeline, const hw::GpuSpec& gpu,
             const PhysicsContext& ctx, Severity capacitySeverity)
{
    DiagnosticReport report;
    checkPlanDataflow(plan, ctx, report);
    if (report.fired(rules::DanglingDefUse))
        return report; // sweeping a corrupt plan would assert
    const exec::MemoryProfile profile = analyzeMemory(plan, timeline);
    checkMemoryProfile(plan, profile, gpu, ctx, report,
                       capacitySeverity);
    return report;
}

} // namespace mmgen::verify
