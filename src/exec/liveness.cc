#include "liveness.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mmgen::exec {

std::string
bufferKindName(BufferKind kind)
{
    switch (kind) {
      case BufferKind::Activation:
        return "activation";
      case BufferKind::OperandWindow:
        return "operand_window";
      case BufferKind::Workspace:
        return "workspace";
      case BufferKind::WeightStage:
        return "weight_stage";
    }
    MMGEN_ASSERT(false, "unknown buffer kind");
}

double
residentWeightBytes(const ExecutionPlan& plan)
{
    return static_cast<double>(plan.totalParams) *
           static_cast<double>(dtypeBytes(plan.dtype));
}

std::span<const LiveBuffer>
BufferEnumerator::of(const ExecutedOp& e)
{
    MMGEN_ASSERT(e.index == next_, "op " << e.index
                                         << " enumerated out of order");
    ++next_;
    const PlanOp& op = e.op;
    MMGEN_CHECK(op.nodeCount >= 1,
                "op " << plan_.str(op.scope) << " lowered to no kernels");
    const std::size_t first = e.firstNode;
    const std::size_t last = first + op.nodeCount - 1;
    // At most a window, a workspace, an activation and one staging
    // buffer per kernel. Slots are assigned, not pushed: the sweep calls
    // this once per executed op.
    if (buffers_.size() < op.nodeCount + 3)
        buffers_.resize(op.nodeCount + 3);
    std::size_t count = 0;

    // Operands beyond the predecessor's output (residual streams,
    // encoder K/V, second elementwise inputs) are modeled as a window
    // materialized across this op only — the chain buffer itself is
    // accounted once, below, by its producer.
    const double window = std::max(0.0, op.inputBytes - prevOut_);
    if (window > 0.0)
        buffers_[count++] = {BufferKind::OperandWindow, e.opIndex, window,
                             first, last};

    if (op.workspaceBytes > 0.0)
        buffers_[count++] = {BufferKind::Workspace, e.opIndex,
                             op.workspaceBytes, first, last};

    // The output is allocated when the op starts and freed after its
    // program-order consumer finishes reading it.
    if (op.outputBytes > 0.0) {
        std::size_t last_use = last;
        if (e.index + 1 < plan_.executedOpCount())
            last_use += plan_.ops[plan_.opSequence[e.index + 1]].nodeCount;
        buffers_[count++] = {BufferKind::Activation, e.opIndex,
                             op.outputBytes, first, last_use};
    }

    // Weight-stream staging lives from the prefetch copy until the op's
    // last compute kernel retires; under a multi-stream schedule the
    // copy starts early, widening the lifetime.
    for (std::size_t p = 0; p < op.nodeCount; ++p) {
        const PlanNode& node = plan_.nodes[op.firstNode + p];
        if (node.weightStream && node.hbmBytes > 0.0)
            buffers_[count++] = {BufferKind::WeightStage, e.opIndex,
                                 node.hbmBytes, first + p, last};
    }
    prevOut_ = op.outputBytes;
    return {buffers_.data(), count};
}

Liveness
deriveLiveness(const ExecutionPlan& plan)
{
    Liveness lv;
    lv.weightBytes = residentWeightBytes(plan);
    lv.buffers.reserve(plan.executedOpCount() * 2);
    BufferEnumerator enumerator(plan);
    for (const ExecutedOp e : plan.executed()) {
        const std::span<const LiveBuffer> op_buffers = enumerator.of(e);
        lv.buffers.insert(lv.buffers.end(), op_buffers.begin(),
                          op_buffers.end());
    }
    return lv;
}

} // namespace mmgen::exec
