/**
 * @file
 * ExecutionPlan: the kernel-level lowered IR of one pipeline inference.
 *
 * Lowering is the first half of the profiler split (the second half is
 * the event-timeline scheduler in exec/schedule.hh). A Pipeline is
 * traced stage by stage exactly as the profiler always has — folded
 * stages once with a repeat count, per-iteration-shape stages every
 * iteration — and each graph op is lowered through the CostModel into
 * its device kernels. Each kernel carries stage/op provenance and a
 * lane assignment (compute vs. memcpy/weight-stream). Dependencies are
 * not stored: KernelDeps derives every executed kernel's edges from
 * those lanes, so a scheduler can play the same work onto a GPU under
 * different concurrency models without re-tracing anything.
 *
 * The plan stores each distinct op once. An autoregressive stage
 * traces every token, but most of a token's ops equal the op at the
 * same position one token earlier (only the attention ops see the KV
 * cache grow); such an op executes the earlier token's stored record
 * again. Each token is re-emitted into the previous token's op slots,
 * and graph::Trace::changed flags the ops that differ, so finding them
 * needs no copy of the previous token's trace. So `ops`, `nodes` and
 * `costs` hold stored records, and `opSequence` lists the stored op of
 * every executed op instance in program order. Readers walk that
 * sequence with `executed()`, which numbers executed ops and executed
 * kernels in program order: the indices timelines, dependency edges
 * and liveness intervals use. For a folded stage the sequence is the
 * identity.
 *
 * Storage is arena-style: nodes and ops are plain flat records whose
 * labels and scopes are interned `StrRef`s into one character arena.
 * The plan owns no per-node heap blocks, so copying it is a handful
 * of vector copies and the scheduler's inner loop touches only
 * contiguous memory. Lowering also records a roofline cost table
 * (`NodeCostTable`) row per stored node, keyed by the GPU it was
 * costed for, so a scheduler on that GPU replays the exact same
 * `hw::estimateTime` outputs without re-deriving them. A plan is
 * scheduled only on the GPU it was lowered for.
 */

#ifndef MMGEN_EXEC_PLAN_HH
#define MMGEN_EXEC_PLAN_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/op.hh"
#include "graph/pipeline.hh"
#include "kernels/cost_model.hh"

namespace mmgen::exec {

/** Hardware lane a plan node is assigned to. */
enum class Lane : std::uint8_t {
    /** The default execution lane all traced kernels run on. */
    Compute,
    /** The memcpy/weight-stream lane (async copies, prefetches). */
    Copy,
};

/** Human-readable lane name ("compute" / "copy"). */
std::string laneName(Lane lane);

/** Knobs for lowering a pipeline into an ExecutionPlan. */
struct LoweringOptions
{
    /**
     * Peel weight traffic out of memory-bound kernels into synthetic
     * weight-stream nodes on the Copy lane, so a multi-stream
     * scheduler can prefetch weights under earlier compute. Off by
     * default: the default plan lowers to exactly the kernels the
     * seed profiler costed.
     */
    bool splitWeightStreams = false;
};

/**
 * Reference to an interned string in ExecutionPlan::strArena.
 * Resolve with ExecutionPlan::str(); a default-constructed ref is the
 * empty string.
 */
struct StrRef
{
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
};

/**
 * One stored graph-level operator (op provenance). Every executed
 * instance of the op in ExecutionPlan::opSequence shares it.
 */
struct PlanOp
{
    /** Index of the owning stage in the pipeline. */
    std::size_t stageIndex = 0;
    graph::OpKind kind = graph::OpKind::Elementwise;
    graph::OpCategory category = graph::OpCategory::Elementwise;
    /** Dotted module path, e.g. "unet.down0.attn.self" (interned). */
    StrRef scope;
    DType dtype = DType::F16;
    /** Folded execution count (stage iterations for folded stages). */
    std::int64_t repeat = 1;
    /** Trainable parameters this op instance owns. */
    std::int64_t paramCount = 0;

    /** Attention metadata (attention ops only, else -1 / defaults). */
    std::int64_t seqQ = -1;
    std::int64_t seqKv = -1;
    graph::AttentionKind attnKind = graph::AttentionKind::SelfSpatial;

    // -- per-instance memory demand (kernels::OpMemoryDemand, captured
    //    at lowering so liveness analysis needs only the plan) --

    /** Activation operand bytes the op reads. */
    double inputBytes = 0.0;
    /** Activation result bytes the op writes. */
    double outputBytes = 0.0;
    /** Parameter bytes resident while the model is loaded. */
    double weightResidentBytes = 0.0;
    /** Parameter traffic floor (gathered rows for embeddings). */
    double weightReadBytes = 0.0;
    /** Transient scratch live only across this op's own kernels. */
    double workspaceBytes = 0.0;

    /** Stored nodes [firstNode, firstNode + nodeCount) are its kernels. */
    std::size_t firstNode = 0;
    std::size_t nodeCount = 0;
};

/**
 * One stored device kernel: the schedulable unit of the plan. Its
 * executed instances get their program-order position from
 * ExecutionPlan::executed() and their dependencies from KernelDeps.
 * The owning PlanOp (the one whose node range holds it) carries its
 * repeat count and dtype.
 */
struct PlanNode
{
    double flops = 0.0;
    double hbmBytes = 0.0;
    double computeEff = 1.0;
    double memEff = 1.0;
    /** Kernel label from the cost model, e.g. "flash_fused" (interned). */
    StrRef label;
    /** Device launches per executed iteration. */
    int launches = 1;
    kernels::KernelClass klass = kernels::KernelClass::Elementwise;
    Lane lane = Lane::Compute;
    /** True for synthetic weight-prefetch nodes created by splitting. */
    bool weightStream = false;
};

struct ExecutionPlan;

/** One executed op instance, as ExecutionPlan::executed() yields it. */
struct ExecutedOp
{
    /** Program-order position among the executed ops. */
    std::size_t index = 0;
    /**
     * Index of the stored record in ExecutionPlan::ops (and into
     * Timeline::opSeconds).
     */
    std::size_t opIndex = 0;
    /** The stored record. */
    const PlanOp& op;
    /**
     * The op's first executed kernel. Executed kernel firstNode + p
     * instantiates stored node op.firstNode + p.
     */
    std::size_t firstNode = 0;
};

/**
 * Forward range over a plan's executed ops in program order. Each step
 * reads one sequence entry and one stored record.
 */
class ExecutedOps
{
  public:
    class iterator
    {
      public:
        ExecutedOp
        operator*() const
        {
            const std::uint32_t oi = sequence_[index_];
            return {index_, oi, ops_[oi], firstNode_};
        }

        iterator&
        operator++()
        {
            firstNode_ += ops_[sequence_[index_]].nodeCount;
            ++index_;
            return *this;
        }

        bool operator==(const iterator& o) const
        {
            return index_ == o.index_;
        }

      private:
        friend class ExecutedOps;
        iterator(const PlanOp* ops, const std::uint32_t* sequence,
                 std::size_t index)
            : ops_(ops), sequence_(sequence), index_(index)
        {}

        const PlanOp* ops_;
        const std::uint32_t* sequence_;
        std::size_t index_;
        std::size_t firstNode_ = 0;
    };

    explicit ExecutedOps(const ExecutionPlan& plan) : plan_(&plan) {}

    iterator begin() const;
    iterator end() const;

  private:
    const ExecutionPlan* plan_;
};

/**
 * The dependency rule of executed kernels. The plan stores no edges; a
 * reader derives them here, passing every executed kernel in program
 * order. Executed kernel k waits for
 *
 *  - the previous executed kernel on its own lane, and
 *  - if k is its op's first Compute-lane kernel, the op's Copy-lane
 *    kernel, when it has one: the weight stream lowering stores ahead
 *    of the op's compute kernels.
 *
 * Each edge names the latest earlier kernel on its lane, so every edge
 * points backward and a forward pass keeps one value per lane, not
 * one per kernel.
 */
class KernelDeps
{
  public:
    /** One edge: the latest earlier executed kernel on `lane`. */
    struct Dep
    {
        std::size_t kernel = 0;
        Lane lane = Lane::Compute;
    };

    /**
     * Call `visit(dep)` for each edge of the next executed kernel,
     * which runs on `lane`; `op_start` marks the first kernel of an
     * executed op. The lane edge comes first. A callback rather than
     * a returned list keeps the walker's state in registers on the
     * scheduler's inner loop.
     */
    template <typename Visit>
    void
    next(Lane lane, bool op_start, Visit&& visit)
    {
        if (op_start) {
            streamed_ = false;
            computed_ = false;
        }
        if (lane == Lane::Copy) {
            if (copy_ != kNone)
                visit(Dep{copy_, Lane::Copy});
            copy_ = kernel_++;
            streamed_ = true;
            return;
        }
        if (compute_ != kNone)
            visit(Dep{compute_, Lane::Compute});
        if (streamed_ && !computed_)
            visit(Dep{copy_, Lane::Copy});
        compute_ = kernel_++;
        computed_ = true;
    }

  private:
    static constexpr std::size_t kNone = SIZE_MAX;

    /** Index of the kernel the next call describes. */
    std::size_t kernel_ = 0;
    /** Latest kernel on each lane, or kNone. */
    std::size_t compute_ = kNone;
    std::size_t copy_ = kNone;
    /** The current op has run a Copy-lane kernel. */
    bool streamed_ = false;
    /** The current op has run a Compute-lane kernel. */
    bool computed_ = false;
};

/**
 * Per-node roofline estimates captured at lowering.
 *
 * The table stores the exact `hw::estimateTime` outputs for the GPU
 * the plan was lowered against (`gpuKey` = that GpuSpec's
 * fingerprint), one row per stored node. A kernel's full
 * per-iteration time is `execSeconds[n] + overheadSeconds[n]`, the
 * addition `hw::estimateTime` itself performs. A scheduler replays
 * these doubles verbatim and refuses a plan costed for another GPU:
 * lower the pipeline again for that GPU instead.
 */
struct NodeCostTable
{
    std::uint64_t gpuKey = 0;

    /** Execution-only time: max(computeSeconds, memorySeconds). */
    std::vector<double> execSeconds;
    /** Host launch overhead per iteration. */
    std::vector<double> overheadSeconds;
};

/**
 * A lowered pipeline: the stored op and kernel records of one full
 * inference and the executed sequence that orders them.
 */
struct ExecutionPlan
{
    std::string model;
    graph::AttentionBackend backend = graph::AttentionBackend::Flash;
    DType dtype = DType::F16;

    /** Stage names in pipeline order (indexed by PlanOp::stageIndex). */
    std::vector<std::string> stageNames;

    /** Stored graph-level ops, in the order they were first lowered. */
    std::vector<PlanOp> ops;

    /** Stored device kernels, grouped per stored op. */
    std::vector<PlanNode> nodes;

    /** Stored op of each executed op instance, in program order. */
    std::vector<std::uint32_t> opSequence;

    /** Kernels the sequence executes (its ops' nodeCount summed). */
    std::size_t executedNodes = 0;

    /** Interned label/scope characters (StrRef targets). */
    std::vector<char> strArena;

    /** Roofline estimates per stored node for the lowering GPU. */
    NodeCostTable costs;

    /** Trainable parameters of the whole pipeline. */
    std::int64_t totalParams = 0;

    /** True when lowering created any Copy-lane weight-stream node. */
    bool hasWeightStreams = false;

    /** Total device launches across the plan (repeats applied). */
    std::int64_t totalLaunches() const;

    /** Executed op instances (the length of opSequence). */
    std::size_t executedOpCount() const { return opSequence.size(); }

    /** Executed kernels: one timeline event each. */
    std::size_t executedNodeCount() const { return executedNodes; }

    /** Walk the executed ops in program order. */
    ExecutedOps executed() const { return ExecutedOps(*this); }

    /** Resolve an interned string. */
    std::string_view
    str(StrRef ref) const
    {
        return {strArena.data() + ref.offset, ref.size};
    }

    /** Label of stored node `n`. */
    std::string_view nodeLabel(std::size_t n) const
    {
        return str(nodes[n].label);
    }

    /** Scope of stored op `oi`. */
    std::string_view opScope(std::size_t oi) const
    {
        return str(ops[oi].scope);
    }

    /** Intern a string into the arena (no deduplication). */
    StrRef intern(std::string_view s);
};

inline ExecutedOps::iterator
ExecutedOps::begin() const
{
    return {plan_->ops.data(), plan_->opSequence.data(), 0};
}

inline ExecutedOps::iterator
ExecutedOps::end() const
{
    return {plan_->ops.data(), plan_->opSequence.data(),
            plan_->opSequence.size()};
}

/**
 * Lower a pipeline through a cost model into an ExecutionPlan.
 *
 * Stage traversal matches the profiler contract exactly: stages with
 * shape-invariant iterations are traced once and folded into repeat
 * counts; per-iteration-shape stages are traced every iteration, each
 * into the previous iteration's trace. An op equal to the op at the
 * same position of the previous iteration (graph::Trace::changed is
 * false) executes that iteration's stored record again, so only the
 * ops that change from iteration to iteration are costed and stored.
 */
ExecutionPlan lowerPipeline(const graph::Pipeline& pipeline,
                            const kernels::CostModel& model,
                            const LoweringOptions& options =
                                LoweringOptions());

} // namespace mmgen::exec

#endif // MMGEN_EXEC_PLAN_HH
