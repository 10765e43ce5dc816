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
 * The derivation walks the plan's executed ops and emits every buffer
 * as a closed [defNode, lastUseNode] interval of executed-kernel
 * indices, in program order. The memory analyzer sweeps
 * those intervals directly for the program-order peak, and maps them
 * through the scheduled timeline (event start of the def node, event
 * end of the last use) so stream overlap correctly widens lifetimes.
 */

#ifndef MMGEN_EXEC_LIVENESS_HH
#define MMGEN_EXEC_LIVENESS_HH

#include <cstdint>
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

/** Every buffer of one inference, plus the resident parameter block. */
struct Liveness
{
    /** Parameter bytes resident for the whole run. */
    double weightBytes = 0.0;
    /** Dynamic buffers in def order (executed program order). */
    std::vector<LiveBuffer> buffers;
};

/**
 * Derive def/use intervals for every buffer of a lowered plan.
 * Deterministic: equal plans produce byte-identical results.
 */
Liveness deriveLiveness(const ExecutionPlan& plan);

} // namespace mmgen::exec

#endif // MMGEN_EXEC_LIVENESS_HH
