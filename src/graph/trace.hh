/**
 * @file
 * Execution traces: ordered operator instances from one forward pass.
 */

#ifndef MMGEN_GRAPH_TRACE_HH
#define MMGEN_GRAPH_TRACE_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/op.hh"

namespace mmgen::graph {

class GraphBuilder;

/**
 * An ordered list of executed operators.
 *
 * The trace is what the profiler costs and what the analytics modules
 * mine (e.g. the per-attention-call sequence-length series of Fig. 7
 * follows trace order).
 *
 * A trace can be emitted into again: clear() keeps its op slots, and
 * each op appended afterwards is compared with the op its slot held
 * and written only when they differ. changed() reports the outcome,
 * so a caller re-emitting one stage iteration after another (lowering
 * an autoregressive decode) learns which ops moved without keeping
 * the previous iteration, and the slots' heap blocks are reused.
 */
class Trace
{
  public:
    /** Append one operator instance. */
    void append(Op op);

    /** All operators in execution order. */
    std::span<const Op> ops() const { return {slots.data(), count}; }

    /** Number of operator instances (repeat counts not expanded). */
    std::size_t size() const { return count; }

    bool empty() const { return count == 0; }

    /**
     * Whether op `i` differs from the op at position `i` of the
     * trace's previous contents: the ops it held when clear() was last
     * called. Positions past the previous length, and every position
     * of a trace never cleared, are changed.
     */
    bool changed(std::size_t i) const;

    /**
     * Total trainable parameters across the trace. Each op instance
     * contributes its own weights; callers must trace each weight-owning
     * module exactly once (see Pipeline::totalParams).
     */
    std::int64_t totalParams() const;

    /**
     * Remove all ops. Their slots stay, and they become the previous
     * contents the next ops are compared with.
     */
    void clear();

  private:
    friend class GraphBuilder;

    /**
     * Fill the next position. `same(slot)` tells whether the slot
     * already holds the op, and is asked only when the slot holds the
     * previous contents' op at this position; otherwise `write(slot)`
     * overwrites it.
     */
    template <typename Same, typename Write>
    void
    put(const Same& same, const Write& write)
    {
        if (count == slots.size()) {
            slots.emplace_back();
            changedFlags.push_back(true);
        }
        Op& slot = slots[count];
        const bool unchanged = count < previous && same(std::as_const(slot));
        if (!unchanged)
            write(slot);
        changedFlags[count] = !unchanged;
        ++count;
    }

    /** Op slots; [0, count) is the trace, the rest are spare. */
    std::vector<Op> slots;
    /** Per slot: whether put() wrote it on this emission. */
    std::vector<bool> changedFlags;
    std::size_t count = 0;
    /** The trace's length when clear() was last called. */
    std::size_t previous = 0;
};

} // namespace mmgen::graph

#endif // MMGEN_GRAPH_TRACE_HH
