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

Liveness
deriveLiveness(const ExecutionPlan& plan)
{
    Liveness lv;
    lv.weightBytes = static_cast<double>(plan.totalParams) *
                     static_cast<double>(dtypeBytes(plan.dtype));
    lv.buffers.reserve(plan.executedOpCount() * 2);

    double prev_out = 0.0;
    for (const ExecutedOp e : plan.executed()) {
        const PlanOp& op = e.op;
        MMGEN_CHECK(op.nodeCount >= 1,
                    "op " << plan.str(op.scope)
                          << " lowered to no kernels");
        const std::size_t first = e.firstNode;
        const std::size_t last = first + op.nodeCount - 1;

        // Operands beyond the predecessor's output (residual streams,
        // encoder K/V, second elementwise inputs) are modeled as a
        // window materialized across this op only — the chain buffer
        // itself is accounted once, below, by its producer.
        const double window = std::max(0.0, op.inputBytes - prev_out);
        if (window > 0.0)
            lv.buffers.push_back({BufferKind::OperandWindow, e.opIndex,
                                  window, first, last});

        if (op.workspaceBytes > 0.0)
            lv.buffers.push_back({BufferKind::Workspace, e.opIndex,
                                  op.workspaceBytes, first, last});

        // The output is allocated when the op starts and freed after
        // its program-order consumer finishes reading it.
        if (op.outputBytes > 0.0) {
            std::size_t last_use = last;
            if (e.index + 1 < plan.executedOpCount())
                last_use +=
                    plan.ops[plan.opSequence[e.index + 1]].nodeCount;
            lv.buffers.push_back({BufferKind::Activation, e.opIndex,
                                  op.outputBytes, first, last_use});
        }

        // Weight-stream staging lives from the prefetch copy until the
        // op's last compute kernel retires; under a multi-stream
        // schedule the copy starts early, widening the lifetime.
        for (std::size_t p = 0; p < op.nodeCount; ++p) {
            const PlanNode& node = plan.nodes[op.firstNode + p];
            if (node.weightStream && node.hbmBytes > 0.0)
                lv.buffers.push_back({BufferKind::WeightStage,
                                      e.opIndex, node.hbmBytes,
                                      first + p, last});
        }
        prev_out = op.outputBytes;
    }
    return lv;
}

} // namespace mmgen::exec
