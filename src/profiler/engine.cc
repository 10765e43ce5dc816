#include "engine.hh"

#include "util/logging.hh"
#include "verify/memory.hh"
#include "verify/timeline.hh"
#include "verify/verify.hh"

namespace mmgen::profiler {

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
    if (verify::runtimeChecksEnabled())
        verify::verifyPipelineOrThrow(pipeline);

    const exec::TimelineScheduler scheduler(opts.gpu, opts.schedule);
    exec::Timeline timeline = scheduler.schedule(*plan);

    ProfileResult result;
    result.model = pipeline.name;
    result.backend = opts.backend;
    result.params = plan->totalParams;
    result.totalSeconds = timeline.makespan;
    result.launchOverheadSeconds = timeline.launchOverheadSeconds;

    const std::size_t num_stages = plan->stageNames.size();
    std::vector<BreakdownReport> stage_breakdowns(num_stages);

    for (const exec::ExecutedOp e : plan->executed()) {
        const exec::PlanOp& op = e.op;
        const double r = static_cast<double>(op.repeat);

        double flops = 0.0;
        double bytes = 0.0;
        std::int64_t launches = 0;
        for (std::size_t p = 0; p < op.nodeCount; ++p) {
            const exec::PlanNode& node = plan->nodes[op.firstNode + p];
            flops += node.flops;
            bytes += node.hbmBytes;
            launches += node.launches;
            result.kernelClassSeconds[node.klass] +=
                timeline.nodeSeconds[op.firstNode + p];
        }

        const double seconds = timeline.opSeconds[e.opIndex];
        const double op_flops = flops * r;

        if (op.kind == graph::OpKind::Attention) {
            result.attention.add(op.attnKind, seconds, op_flops,
                                 op.repeat);
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
        result.totalHbmBytes += bytes * r;
        result.totalLaunches += launches * op.repeat;
        result.weightBytesRead +=
            static_cast<double>(op.paramCount) *
            static_cast<double>(dtypeBytes(op.dtype)) * r;
    }

    for (std::size_t si = 0; si < num_stages; ++si)
        result.stageBreakdowns.emplace_back(
            plan->stageNames[si], std::move(stage_breakdowns[si]));

    if (verify::runtimeChecksEnabled()) {
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

    if (opts.keepPlan) {
        result.plan = std::move(plan);
        result.timeline = std::move(timeline);
    }
    return result;
}

} // namespace mmgen::profiler
