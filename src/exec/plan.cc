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
    for (const ExecutedOp e : executed()) {
        for (std::size_t n = e.op.firstNode;
             n < e.op.firstNode + e.op.nodeCount; ++n)
            total += static_cast<std::int64_t>(nodes[n].launches) *
                     e.op.repeat;
    }
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

namespace {

/**
 * Minimum weight bytes a kernel must read before its weight traffic
 * is worth a separate stream node. Tiny weights (norm affines, biases
 * folded into their kernels) stay fused.
 */
constexpr double kMinStreamedWeightBytes = 1 << 20;

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
    if (part.weightBytes < kMinStreamedWeightBytes ||
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

/** Roofline-cost one finalized plan node of an op in `dtype`. */
hw::TimeEstimate
costNode(const hw::GpuSpec& gpu, const PlanNode& node, DType dtype)
{
    hw::TimeEstimateInputs in;
    in.flops = node.flops;
    in.hbmBytes = node.hbmBytes;
    in.computeEfficiency = node.computeEff;
    in.memoryEfficiency = node.memEff;
    in.launches = node.launches;
    in.dtype = dtype;
    return hw::estimateTime(gpu, in);
}

/**
 * The state of one lowering: the plan under construction and the
 * string-intern index over its arena.
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

    StrRef
    intern(std::string_view s)
    {
        if (const auto it = interned.find(s); it != interned.end())
            return it->second;
        const StrRef ref = plan.intern(s);
        interned.emplace(std::string(s), ref);
        return ref;
    }

    void lowerStage(const graph::Pipeline& pipeline,
                    std::size_t stage_index);
    /** Cost one op and store its records; returns the stored op. */
    std::uint32_t store(const graph::Op& op, std::size_t stage_index,
                        std::int64_t repeat);
    /** Store one kernel of an op in `dtype` and its roofline cost row. */
    void storeNode(const PlanNode& node, DType dtype);
    /** Append one executed instance of a stored op. */
    void execute(std::uint32_t op_index);
};

void
Lowering::lowerStage(const graph::Pipeline& pipeline,
                     std::size_t stage_index)
{
    const graph::Stage& stage = pipeline.stages[stage_index];
    const std::int64_t traces =
        stage.perIterationShapes ? stage.iterations : 1;
    const std::int64_t repeat =
        stage.perIterationShapes ? 1 : stage.iterations;
    // Each iteration is traced, so the emitter may change any op on
    // any iteration. Every iteration is re-emitted into one trace, which
    // flags the ops that differ from the previous iteration's op at the
    // same position. An unchanged op lowers to the same records, so it
    // executes the stored op of the previous iteration again instead
    // of being costed and stored anew. Do not reserve per trace: the
    // executed arrays grow on every token, and an exact-size reserve
    // would copy them each time. Geometric growth keeps lowering
    // linear.
    graph::Trace trace;
    std::vector<std::uint32_t> stored;
    for (std::int64_t it = 0; it < traces; ++it) {
        pipeline.traceStage(stage_index, it, trace);
        const std::span<const graph::Op> ops = trace.ops();
        stored.resize(ops.size());
        for (std::size_t i = 0; i < ops.size(); ++i) {
            if (trace.changed(i))
                stored[i] = store(ops[i], stage_index, repeat);
            execute(stored[i]);
        }
    }
}

std::uint32_t
Lowering::store(const graph::Op& op, std::size_t stage_index,
                std::int64_t repeat)
{
    MMGEN_CHECK(plan.ops.size() < UINT32_MAX,
                "plan exceeds " << UINT32_MAX << " stored ops");
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

    bool streamed = false;
    // Weight-stream nodes precede the kernels that consume them so
    // node order remains a valid serial execution order.
    for (const auto& part : cost.parts) {
        if (!worthStreaming(model.gpu(), part, op.dtype, opts))
            continue;
        PlanNode w;
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
        storeNode(w, op.dtype);
        plan.hasWeightStreams = true;
        streamed = true;
        break; // every weight-carrying op lowers to one kernel
    }

    for (const auto& part : cost.parts) {
        PlanNode node;
        node.klass = part.klass;
        node.label = intern(part.label);
        node.lane = Lane::Compute;
        node.flops = part.flops;
        node.hbmBytes = streamed ? part.hbmBytes - part.weightBytes
                                 : part.hbmBytes;
        node.launches = part.launches;
        node.computeEff = part.computeEff;
        node.memEff = part.memEff;
        storeNode(node, op.dtype);
    }

    pop.nodeCount = plan.nodes.size() - pop.firstNode;
    plan.ops.push_back(pop);
    return static_cast<std::uint32_t>(plan.ops.size() - 1);
}

void
Lowering::storeNode(const PlanNode& node, DType dtype)
{
    const hw::TimeEstimate est = costNode(model.gpu(), node, dtype);
    plan.costs.execSeconds.push_back(
        std::max(est.computeSeconds, est.memorySeconds));
    plan.costs.overheadSeconds.push_back(est.overheadSeconds);
    plan.nodes.push_back(node);
}

void
Lowering::execute(std::uint32_t op_index)
{
    plan.opSequence.push_back(op_index);
    plan.executedNodes += plan.ops[op_index].nodeCount;
}

} // namespace

ExecutionPlan
lowerPipeline(const graph::Pipeline& pipeline,
              const kernels::CostModel& model,
              const LoweringOptions& options)
{
    Lowering lowering(options, model);
    ExecutionPlan& plan = lowering.plan;
    plan.model = pipeline.name;
    plan.backend = model.backend();
    plan.dtype = pipeline.dtype;
    plan.totalParams = pipeline.totalParams();
    plan.costs.gpuKey = model.gpu().fingerprint();

    for (std::size_t si = 0; si < pipeline.stages.size(); ++si) {
        plan.stageNames.push_back(pipeline.stages[si].name);
        lowering.lowerStage(pipeline, si);
    }
    return std::move(plan);
}

} // namespace mmgen::exec
