#include "plan.hh"

#include <algorithm>
#include <functional>
#include <string>
#include <unordered_map>

#include "hw/roofline.hh"
#include "util/logging.hh"

namespace mmgen::exec {

std::string
laneName(Lane lane)
{
    return lane == Lane::Compute ? "compute" : "copy";
}

std::int64_t
ExecutionPlan::totalLaunches() const
{
    std::int64_t total = 0;
    for (const PlanNode& node : nodes)
        total += static_cast<std::int64_t>(node.launches) * node.repeat;
    return total;
}

StrRef
ExecutionPlan::intern(std::string_view s)
{
    StrRef ref;
    ref.offset = static_cast<std::uint32_t>(strArena.size());
    ref.size = static_cast<std::uint32_t>(s.size());
    strArena.insert(strArena.end(), s.begin(), s.end());
    return ref;
}

void
ExecutionPlan::addDep(std::size_t n, std::int32_t dep)
{
    MMGEN_CHECK(n < nodes.size(), "node " << n << " out of range");
    PlanNode& node = nodes[n];
    if (node.depOffset + node.depCount != depPool.size()) {
        // The window is not at the pool tail; relocate it there so the
        // append stays contiguous. Old slots become dead pool space.
        const std::uint32_t new_off =
            static_cast<std::uint32_t>(depPool.size());
        for (std::uint32_t i = 0; i < node.depCount; ++i)
            depPool.push_back(depPool[node.depOffset + i]);
        node.depOffset = new_off;
    }
    depPool.push_back(dep);
    ++node.depCount;
}

void
ExecutionPlan::setDeps(std::size_t n,
                       std::span<const std::int32_t> new_deps)
{
    MMGEN_CHECK(n < nodes.size(), "node " << n << " out of range");
    PlanNode& node = nodes[n];
    node.depOffset = static_cast<std::uint32_t>(depPool.size());
    node.depCount = static_cast<std::uint32_t>(new_deps.size());
    depPool.insert(depPool.end(), new_deps.begin(), new_deps.end());
}

void
ExecutionPlan::clearDeps(std::size_t n)
{
    MMGEN_CHECK(n < nodes.size(), "node " << n << " out of range");
    nodes[n].depCount = 0;
}

namespace {

/**
 * True when the kernel stays memory-bound under the roofline, so
 * peeling its weight traffic onto the copy lane can only shorten (or
 * at worst preserve) the compute-lane critical path.
 */
bool
worthStreaming(const hw::GpuSpec& gpu, const kernels::SubKernelCost& part,
               DType dtype, const LoweringOptions& options)
{
    if (!options.splitWeightStreams)
        return false;
    if (part.weightBytes <
            static_cast<double>(options.minStreamedWeightBytes) ||
        part.weightBytes >= part.hbmBytes)
        return false;
    hw::TimeEstimateInputs in;
    in.flops = part.flops;
    in.hbmBytes = part.hbmBytes;
    in.computeEfficiency = part.computeEff;
    in.memoryEfficiency = part.memEff;
    in.launches = part.launches;
    in.dtype = dtype;
    const hw::TimeEstimate est = hw::estimateTime(gpu, in);
    return est.memorySeconds >= est.computeSeconds;
}

/** Roofline-cost one finalized plan node (the scheduler's arithmetic). */
hw::TimeEstimate
costNode(const hw::GpuSpec& gpu, const PlanNode& node)
{
    hw::TimeEstimateInputs in;
    in.flops = node.flops;
    in.hbmBytes = node.hbmBytes;
    in.computeEfficiency = node.computeEff;
    in.memoryEfficiency = node.memEff;
    in.launches = node.launches;
    in.dtype = node.dtype;
    return hw::estimateTime(gpu, in);
}

/**
 * The state of one lowering: the plan under construction, the
 * string-intern index over its arena, and the last node on each lane
 * (the next node on that lane depends on it).
 */
struct Lowering
{
    struct StrHash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    Lowering(const LoweringOptions& options,
             const kernels::CostModel& cost_model)
        : opts(options), model(cost_model)
    {
    }

    const LoweringOptions& opts;
    const kernels::CostModel& model;
    ExecutionPlan plan;
    std::unordered_map<std::string, StrRef, StrHash, std::equal_to<>>
        interned;
    std::string scratch;
    std::int32_t lastComputeNode = -1;
    std::int32_t lastCopyNode = -1;

    StrRef
    intern(std::string_view s)
    {
        if (const auto it = interned.find(s); it != interned.end())
            return it->second;
        const StrRef ref = plan.intern(s);
        interned.emplace(std::string(s), ref);
        return ref;
    }

    void lowerTrace(const graph::Trace& trace, std::size_t stage_index,
                    std::int64_t repeat);
};

void
Lowering::lowerTrace(const graph::Trace& trace, std::size_t stage_index,
                     std::int64_t repeat)
{
    // Do not reserve per trace: an autoregressive stage lowers one
    // trace per token, so an exact-size reserve here would copy the
    // whole op array on every token. Geometric growth keeps it linear.
    for (const auto& op : trace.ops()) {
        const kernels::OpCost cost = model.cost(op);

        PlanOp pop;
        pop.stageIndex = stage_index;
        pop.kind = op.kind;
        pop.category = graph::opCategory(op);
        pop.scope = intern(op.scope);
        pop.dtype = op.dtype;
        pop.repeat = repeat;
        pop.paramCount = graph::opParamCount(op);
        if (op.kind == graph::OpKind::Attention) {
            const auto& a = op.as<graph::AttentionAttrs>();
            pop.seqQ = a.seqQ;
            pop.seqKv = a.seqKv;
            pop.attnKind = a.kind;
        }
        const kernels::OpMemoryDemand dem = model.memoryDemand(op);
        pop.inputBytes = dem.inputBytes;
        pop.outputBytes = dem.outputBytes;
        pop.weightResidentBytes = dem.weightResidentBytes;
        pop.weightReadBytes = dem.weightReadBytes;
        pop.workspaceBytes = dem.workspaceBytes;
        pop.firstNode = plan.nodes.size();

        std::int32_t weight_node = -1;
        // Weight-stream nodes precede the kernels that consume them so
        // node order remains a valid serial execution order.
        for (const auto& part : cost.parts) {
            if (!worthStreaming(model.gpu(), part, op.dtype, opts))
                continue;
            PlanNode w;
            w.opIndex = plan.ops.size();
            w.klass = kernels::KernelClass::Memory;
            scratch.assign(part.label);
            scratch += ".weight_stream";
            w.label = intern(scratch);
            w.lane = Lane::Copy;
            w.weightStream = true;
            w.flops = 0.0;
            w.hbmBytes = part.weightBytes;
            // The streamed traffic was issued by the original kernel's
            // launch; the copy lane adds no host-side launches.
            w.launches = 0;
            w.computeEff = 1.0;
            w.memEff = part.memEff;
            w.repeat = repeat;
            w.dtype = op.dtype;
            w.depOffset =
                static_cast<std::uint32_t>(plan.depPool.size());
            if (lastCopyNode >= 0) {
                plan.depPool.push_back(lastCopyNode);
                w.depCount = 1;
            }
            weight_node = static_cast<std::int32_t>(plan.nodes.size());
            lastCopyNode = weight_node;
            const hw::TimeEstimate est = costNode(model.gpu(), w);
            plan.costs.seconds.push_back(est.seconds);
            plan.costs.execSeconds.push_back(
                std::max(est.computeSeconds, est.memorySeconds));
            plan.costs.overheadSeconds.push_back(est.overheadSeconds);
            plan.nodes.push_back(w);
            plan.hasWeightStreams = true;
            break; // every weight-carrying op lowers to one kernel
        }

        bool first_compute = true;
        for (const auto& part : cost.parts) {
            PlanNode node;
            node.opIndex = plan.ops.size();
            node.klass = part.klass;
            node.label = intern(part.label);
            node.lane = Lane::Compute;
            node.flops = part.flops;
            node.hbmBytes = weight_node >= 0
                                ? part.hbmBytes - part.weightBytes
                                : part.hbmBytes;
            node.launches = part.launches;
            node.computeEff = part.computeEff;
            node.memEff = part.memEff;
            node.repeat = repeat;
            node.dtype = op.dtype;
            node.depOffset =
                static_cast<std::uint32_t>(plan.depPool.size());
            if (first_compute) {
                if (lastComputeNode >= 0) {
                    plan.depPool.push_back(lastComputeNode);
                    ++node.depCount;
                }
                if (weight_node >= 0) {
                    plan.depPool.push_back(weight_node);
                    ++node.depCount;
                }
            } else {
                plan.depPool.push_back(lastComputeNode);
                node.depCount = 1;
            }
            lastComputeNode =
                static_cast<std::int32_t>(plan.nodes.size());
            const hw::TimeEstimate est = costNode(model.gpu(), node);
            plan.costs.seconds.push_back(est.seconds);
            plan.costs.execSeconds.push_back(
                std::max(est.computeSeconds, est.memorySeconds));
            plan.costs.overheadSeconds.push_back(est.overheadSeconds);
            plan.nodes.push_back(node);
            first_compute = false;
        }

        pop.nodeCount = plan.nodes.size() - pop.firstNode;
        plan.ops.push_back(pop);
    }
}

} // namespace

ExecutionPlan
lowerPipeline(const graph::Pipeline& pipeline,
              const kernels::CostModel& model,
              const LoweringOptions& options)
{
    MMGEN_CHECK(options.minStreamedWeightBytes >= 0,
                "minStreamedWeightBytes must be non-negative");
    Lowering lowering(options, model);
    ExecutionPlan& plan = lowering.plan;
    plan.model = pipeline.name;
    plan.backend = model.backend();
    plan.dtype = pipeline.dtype;
    plan.totalParams = pipeline.totalParams();
    plan.costs.gpuKey = model.gpu().fingerprint();

    for (std::size_t si = 0; si < pipeline.stages.size(); ++si) {
        const graph::Stage& stage = pipeline.stages[si];
        plan.stageNames.push_back(stage.name);
        if (stage.perIterationShapes) {
            for (std::int64_t it = 0; it < stage.iterations; ++it) {
                const graph::Trace trace = pipeline.traceStage(si, it);
                lowering.lowerTrace(trace, si, 1);
            }
        } else {
            const graph::Trace trace = pipeline.traceStage(si, 0);
            lowering.lowerTrace(trace, si, stage.iterations);
        }
    }
    return std::move(plan);
}

} // namespace mmgen::exec
