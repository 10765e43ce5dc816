/**
 * @file
 * Buffer liveness over an ExecutionPlan.
 *
 * The lowered IR is a linear kernel trace, so its dataflow is the
 * classic single-assignment chain: every op writes one activation
 * buffer that the next op in program order consumes, reads whatever
 * extra operands its demand records beyond that chain (residual
 * streams, encoder K/V), keeps transient workspace across its own
 * kernels, and — when lowering peeled a weight stream — holds the
 * prefetched staging buffer from the copy node until its last compute
 * kernel retires. Parameters are resident for the whole run.
 *
 * Every buffer is a closed [defNode, lastUseNode] interval of
 * executed-kernel indices. `BufferEnumerator` is the one place these
 * rules live: it yields each executed op's buffers in def order, one
 * op at a time, and holds only that op's. The memory analyzer streams
 * them straight into its sweeps, so it builds no buffer array;
 * `deriveLiveness` collects the same stream into one vector for
 * readers that want every buffer at once.
 */

#ifndef MMGEN_EXEC_LIVENESS_HH
#define MMGEN_EXEC_LIVENESS_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exec/plan.hh"

namespace mmgen::exec {

/** What a live buffer holds. */
enum class BufferKind : std::uint8_t {
    /** An op's activation output, consumed by its program successor. */
    Activation,
    /** Extra operands an op reads beyond its predecessor's output. */
    OperandWindow,
    /** Transient scratch live only across the op's own kernels. */
    Workspace,
    /** Weight-stream staging: copy-node prefetch to consumer retire. */
    WeightStage,
};

/** Lowercase buffer-kind name for reports and JSON. */
std::string bufferKindName(BufferKind kind);

/** One buffer with its closed program-order live interval. */
struct LiveBuffer
{
    BufferKind kind = BufferKind::Activation;
    /** Owning op's stored record (index into ExecutionPlan::ops). */
    std::size_t opIndex = 0;
    double bytes = 0.0;
    /** Executed kernel whose execution allocates the buffer. */
    std::size_t defNode = 0;
    /** Last executed kernel that reads the buffer (>= defNode). */
    std::size_t lastUseNode = 0;
};

/** Parameter bytes of a plan, resident for the whole run. */
double residentWeightBytes(const ExecutionPlan& plan);

/**
 * Yields a plan's buffers one executed op at a time. Call `of` once
 * for every op of `plan.executed()`, in program order. Each call
 * returns the buffers that op defines, in def order, so the calls
 * concatenated list every buffer of the inference in def order. A
 * buffer's def lies in its op's kernels; its last use lies there too,
 * except for the activation, which its program successor reads.
 */
class BufferEnumerator
{
  public:
    explicit BufferEnumerator(const ExecutionPlan& plan) : plan_(plan) {}

    /**
     * Buffers executed op `e` defines. The span is valid until the
     * next call.
     */
    std::span<const LiveBuffer> of(const ExecutedOp& e);

  private:
    const ExecutionPlan& plan_;
    /** Program-order position the next call must pass. */
    std::size_t next_ = 0;
    /** Activation bytes of the previous op (the chain input). */
    double prevOut_ = 0.0;
    /** Slots for the current op's buffers, reused from op to op. */
    std::vector<LiveBuffer> buffers_;
};

/** Every buffer of one inference, plus the resident parameter block. */
struct Liveness
{
    /** Parameter bytes resident for the whole run. */
    double weightBytes = 0.0;
    /** Dynamic buffers in def order (executed program order). */
    std::vector<LiveBuffer> buffers;
};

/**
 * Collect every buffer `BufferEnumerator` yields for a lowered plan.
 * Deterministic: equal plans produce byte-identical results.
 */
Liveness deriveLiveness(const ExecutionPlan& plan);

} // namespace mmgen::exec

#endif // MMGEN_EXEC_LIVENESS_HH
