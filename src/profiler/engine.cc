#include "engine.hh"

#include <array>
#include <limits>
#include <type_traits>

#include "util/logging.hh"
#include "verify/memory.hh"
#include "verify/timeline.hh"
#include "verify/verify.hh"

namespace mmgen::profiler {

namespace {

/** One slot per value an enum's underlying type can hold. */
template <typename E>
constexpr std::size_t kSlots =
    static_cast<std::size_t>(
        std::numeric_limits<std::underlying_type_t<E>>::max()) +
    1;

/** What one pass of a stored op adds to the profile's totals. */
struct StoredOpTotals
{
    double flops = 0.0;
    double hbmBytes = 0.0;
    std::int64_t launches = 0;
    /** Parameter bytes read, before the op's repeat count. */
    double weightBytes = 0.0;
};

} // namespace

double
ProfileResult::attentionSeconds() const
{
    return breakdown.categorySeconds(graph::OpCategory::Attention);
}

double
ProfileResult::modelArithmeticIntensity() const
{
    MMGEN_CHECK(weightBytesRead > 0.0,
                "pipeline streamed no weight bytes");
    return totalFlops / weightBytesRead;
}

Profiler::Profiler(ProfileOptions options)
    : opts(std::move(options))
{}

exec::ExecutionPlan
Profiler::lower(const graph::Pipeline& pipeline) const
{
    const kernels::CostModel model(opts.gpu, opts.backend,
                                   opts.efficiency);
    return exec::lowerPipeline(pipeline, model, opts.lowering);
}

ProfileResult
Profiler::profile(const graph::Pipeline& pipeline) const
{
    return profileWithPlan(pipeline,
                           std::make_shared<const exec::ExecutionPlan>(
                               lower(pipeline)));
}

ProfileResult
Profiler::profileWithPlan(
    const graph::Pipeline& pipeline,
    std::shared_ptr<const exec::ExecutionPlan> plan) const
{
    const bool checks = verify::runtimeChecksEnabled();
    if (checks)
        verify::verifyPipelineOrThrow(pipeline);

    // The aggregation reads only the makespan and per-stored seconds;
    // only the runtime checks read every event.
    const exec::TimelineScheduler scheduler(opts.gpu, opts.schedule);
    const exec::Timeline timeline = checks
                                        ? scheduler.schedule(*plan)
                                        : scheduler.scheduleTotals(*plan);

    ProfileResult result;
    result.model = pipeline.name;
    result.backend = opts.backend;
    result.params = plan->totalParams;
    result.totalSeconds = timeline.makespan;
    result.launchOverheadSeconds = timeline.launchOverheadSeconds;

    const std::size_t num_stages = plan->stageNames.size();
    std::vector<BreakdownReport> stage_breakdowns(num_stages);

    // What one pass of each stored op adds, summed once over its
    // kernels in part order, exactly as a per-execution sum would.
    std::vector<StoredOpTotals> op_totals(plan->ops.size());
    for (std::size_t oi = 0; oi < plan->ops.size(); ++oi) {
        const exec::PlanOp& op = plan->ops[oi];
        StoredOpTotals& totals = op_totals[oi];
        for (std::size_t p = 0; p < op.nodeCount; ++p) {
            const exec::PlanNode& node = plan->nodes[op.firstNode + p];
            totals.flops += node.flops;
            totals.hbmBytes += node.hbmBytes;
            totals.launches += node.launches;
        }
        totals.weightBytes = static_cast<double>(op.paramCount) *
                             static_cast<double>(dtypeBytes(op.dtype));
    }

    // Per-class and per-kind sums, added in executed order; `seen`
    // marks the entries the result's maps get.
    std::array<double, kSlots<kernels::KernelClass>> class_seconds{};
    std::array<bool, kSlots<kernels::KernelClass>> class_seen{};
    std::array<AttentionKindStats::Entry, kSlots<graph::AttentionKind>>
        kind_stats{};
    std::array<bool, kSlots<graph::AttentionKind>> kind_seen{};

    for (const exec::ExecutedOp e : plan->executed()) {
        const exec::PlanOp& op = e.op;
        const double r = static_cast<double>(op.repeat);

        const exec::PlanNode* nodes = plan->nodes.data() + op.firstNode;
        const double* node_seconds =
            timeline.nodeSeconds.data() + op.firstNode;
        for (std::size_t p = 0; p < op.nodeCount; ++p) {
            const auto klass = static_cast<std::size_t>(nodes[p].klass);
            class_seconds[klass] += node_seconds[p];
            class_seen[klass] = true;
        }

        const StoredOpTotals& totals = op_totals[e.opIndex];
        const double seconds = timeline.opSeconds[e.opIndex];
        const double op_flops = totals.flops * r;

        if (op.kind == graph::OpKind::Attention) {
            const auto kind = static_cast<std::size_t>(op.attnKind);
            kind_stats[kind].add(seconds, op_flops, op.repeat);
            kind_seen[kind] = true;
            // The Fig. 7/8 sequence-length series tracks the attended
            // length of self-attention calls; cross-attention always
            // attends the fixed encoded prompt.
            if (op.attnKind != graph::AttentionKind::CrossText) {
                result.seqLens.record(
                    op.seqKv, static_cast<std::uint64_t>(op.repeat));
            }
        }

        result.breakdown.add(op.category, seconds);
        stage_breakdowns[op.stageIndex].add(op.category, seconds);
        result.totalFlops += op_flops;
        result.totalHbmBytes += totals.hbmBytes * r;
        result.totalLaunches += totals.launches * op.repeat;
        result.weightBytesRead += totals.weightBytes * r;
    }

    for (std::size_t k = 0; k < class_seen.size(); ++k) {
        if (class_seen[k])
            result.kernelClassSeconds.emplace_hint(
                result.kernelClassSeconds.end(),
                static_cast<kernels::KernelClass>(k), class_seconds[k]);
    }
    for (std::size_t k = 0; k < kind_seen.size(); ++k) {
        if (kind_seen[k])
            result.attention.byKind.emplace_hint(
                result.attention.byKind.end(),
                static_cast<graph::AttentionKind>(k), kind_stats[k]);
    }

    for (std::size_t si = 0; si < num_stages; ++si)
        result.stageBreakdowns.emplace_back(
            plan->stageNames[si], std::move(stage_breakdowns[si]));

    if (checks) {
        verify::DiagnosticReport physics;
        const verify::PhysicsContext ctx{result.model, ""};
        verify::checkTimeline(*plan, timeline, ctx, physics);
        // Memory pass: dataflow integrity and byte conservation are
        // hard errors; capacity is a warning here because the profiler
        // legitimately simulates models on GPUs they do not fit (the
        // latency numbers stay valid — only serving admission cares).
        physics.merge(verify::verifyMemory(*plan, timeline, opts.gpu, ctx,
                                           verify::Severity::Warn));
        // The aggregate roofline check only speaks about serialized
        // time; an overlapped schedule legitimately moves bytes on two
        // streams at once, so it runs for seed-equivalent runs only.
        if (opts.schedule.isDefault() &&
            !opts.lowering.splitWeightStreams) {
            verify::checkObservation(
                verify::SimObservation{result.model + " total",
                                       result.totalFlops,
                                       result.totalHbmBytes,
                                       result.totalSeconds,
                                       pipeline.dtype},
                opts.gpu, physics);
        }
        verify::throwOnErrors(physics);
    }
    return result;
}

} // namespace mmgen::profiler
