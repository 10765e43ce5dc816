#include "memory.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace mmgen::exec {

namespace {

/** One buffer endpoint waiting in a sweep heap. */
struct Endpoint
{
    /** Allocation: the buffer's start time. Free: its end time. */
    double time = 0.0;
    /** Def-order buffer index: equal times sweep in this order. */
    std::uint64_t buffer = 0;
    double bytes = 0.0;
    std::size_t defNode = 0;
    /** The buffer's other endpoint time. */
    double other = 0.0;
};

/** Min-heap of endpoints by (time, buffer). */
class EndpointHeap
{
  public:
    bool empty() const { return heap_.empty(); }
    const Endpoint& top() const { return heap_.front(); }
    /** Every pending endpoint, in heap order. */
    const std::vector<Endpoint>& pending() const { return heap_; }

    void
    push(const Endpoint& e)
    {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    Endpoint
    pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        const Endpoint e = heap_.back();
        heap_.pop_back();
        return e;
    }

  private:
    /** A function object, not a function pointer, so it inlines. */
    struct Later
    {
        bool
        operator()(const Endpoint& a, const Endpoint& b) const
        {
            return a.time != b.time ? a.time > b.time : a.buffer > b.buffer;
        }
    };

    std::vector<Endpoint> heap_;
};

/**
 * The scheduled-order sweep, fed buffers in def order. Each buffer is
 * allocated at its def kernel's start and freed at its last use's end.
 * Endpoints sweep by time, allocations before frees at equal time
 * (closed intervals: a buffer freed at t and one allocated at t
 * coexist), buffer index last so ties are stable.
 *
 * Pending allocations and frees wait in two min-heaps. `release(bound)`
 * sweeps every endpoint that no buffer fed later can precede, given
 * that each of those allocates and frees at or after `bound`. The
 * endpoints therefore sweep in exactly the order of sorting all of
 * them, on any timeline, while only the pending ones are held.
 */
class ScheduledSweep
{
  public:
    ScheduledSweep(const Timeline& timeline, double weight_bytes)
        : timeline_(timeline), cur_(weight_bytes), peak_(weight_bytes)
    {}

    void
    add(const LiveBuffer& b, std::uint64_t buffer)
    {
        const double start = timeline_.eventStart[b.defNode];
        const double end = timeline_.eventEnd[b.lastUseNode];
        allocs_.push({start, buffer, b.bytes, b.defNode, end});
        frees_.push({end, buffer, b.bytes, b.defNode, start});
    }

    /**
     * Sweep the pending endpoints that precede every buffer not yet
     * added: an allocation at or before `bound` (a later allocation at
     * `bound` has a higher index), a free strictly before it (an
     * allocation at `bound` sweeps first).
     */
    void
    release(double bound)
    {
        for (;;) {
            const bool can_alloc =
                !allocs_.empty() && allocs_.top().time <= bound;
            const bool can_free =
                !frees_.empty() && frees_.top().time < bound;
            if (can_alloc &&
                (!can_free || allocs_.top().time <= frees_.top().time)) {
                const Endpoint a = allocs_.pop();
                cur_ += a.bytes;
                lastAlloc_ = a;
                // Its free swept first (its last use ends before its
                // def starts), so it stays live.
                if (a.other < a.time)
                    freedFirst_.push_back(a.defNode);
                record(a.time);
            } else if (can_free) {
                // A free never raises the residency: no peak to record.
                cur_ -= frees_.pop().bytes;
            } else {
                return;
            }
        }
    }

    double peakBytes() const { return peak_; }
    double peakSeconds() const { return peakSeconds_; }

    /** Def kernels of the buffers live at the peak, sorted, unique. */
    std::vector<std::size_t>
    takePeakNodes()
    {
        std::sort(peakNodes_.begin(), peakNodes_.end());
        peakNodes_.erase(
            std::unique(peakNodes_.begin(), peakNodes_.end()),
            peakNodes_.end());
        return std::move(peakNodes_);
    }

  private:
    /**
     * On a new peak, copy the live buffers: those freed before their
     * allocation, and those whose free is pending and whose allocation
     * has swept. Allocations sweep in (start, buffer) order, so that is
     * every pending free at or before the last allocation in that
     * order.
     */
    void
    record(double time)
    {
        if (cur_ <= peak_)
            return;
        peak_ = cur_;
        peakSeconds_ = time;
        peakNodes_ = freedFirst_;
        for (const Endpoint& f : frees_.pending()) {
            if (f.other < lastAlloc_.time ||
                (f.other == lastAlloc_.time &&
                 f.buffer <= lastAlloc_.buffer))
                peakNodes_.push_back(f.defNode);
        }
    }

    const Timeline& timeline_;
    EndpointHeap allocs_;
    EndpointHeap frees_;
    /** The allocation swept last. */
    Endpoint lastAlloc_;
    /** Def kernels of the buffers freed before their allocation. */
    std::vector<std::size_t> freedFirst_;
    double cur_;
    double peak_;
    double peakSeconds_ = 0.0;
    std::vector<std::size_t> peakNodes_;
};

/**
 * The sweep's release bound after each op: the smallest event start
 * among executed kernels [k, n), +inf at k == n. No buffer defined
 * from kernel k on allocates or frees earlier, since every event ends
 * at or after its start. Read for non-decreasing k.
 *
 * It keeps the suffix minimum at each block boundary, and expands the
 * block being read into per-kernel suffix minima seeded by the next
 * boundary's. Both follow the recurrence
 * bound[k] = min(start[k], bound[k + 1]), so every value is the one a
 * per-kernel array would hold, in about n / kSweepBoundBlock +
 * kSweepBoundBlock doubles instead of n + 1.
 */
class StartBound
{
  public:
    explicit StartBound(const std::vector<double>& start)
        : start_(start), expanded_(std::min(start.size(), kSweepBoundBlock))
    {
        const std::size_t n = start_.size();
        const std::size_t blocks =
            (n + kSweepBoundBlock - 1) / kSweepBoundBlock;
        boundary_.assign(blocks + 1, kInf);
        for (std::size_t b = blocks; b-- > 0;) {
            double bound = boundary_[b + 1];
            for (std::size_t k = std::min(n, (b + 1) * kSweepBoundBlock);
                 k-- > b * kSweepBoundBlock;)
                bound = std::min(start_[k], bound);
            boundary_[b] = bound;
        }
    }

    double
    at(std::size_t k)
    {
        if (k >= start_.size())
            return kInf;
        const std::size_t b = k / kSweepBoundBlock;
        const std::size_t first = b * kSweepBoundBlock;
        if (b != block_) {
            block_ = b;
            double bound = boundary_[b + 1];
            for (std::size_t i = std::min(start_.size(),
                                          first + kSweepBoundBlock);
                 i-- > first;) {
                bound = std::min(start_[i], bound);
                expanded_[i - first] = bound;
            }
        }
        return expanded_[k - first];
    }

  private:
    static constexpr double kInf = std::numeric_limits<double>::infinity();

    const std::vector<double>& start_;
    /** The bound at each kernel of block `block_`. */
    std::vector<double> expanded_;
    /** boundary_[b]: the bound at kernel b * kSweepBoundBlock. */
    std::vector<double> boundary_;
    std::size_t block_ = std::numeric_limits<std::size_t>::max();
};

} // namespace

MemoryProfile
analyzeMemory(const ExecutionPlan& plan, const Timeline& timeline)
{
    MMGEN_CHECK(timeline.eventCount() == plan.executedNodeCount(),
                "timeline has " << timeline.eventCount()
                                << " events for a plan of "
                                << plan.executedNodeCount() << " nodes");
    MemoryProfile profile;
    profile.weightBytes = residentWeightBytes(plan);
    profile.stageResidency.reserve(plan.stageNames.size());
    for (const std::string& name : plan.stageNames)
        profile.stageResidency.push_back({name, 0.0});

    StartBound bound(timeline.eventStart);

    // No-reuse upper bound: weights plus every buffer of one
    // inference, allocated distinct and never freed.
    double no_reuse = profile.weightBytes;
    // Program-order sweep (executed-kernel time axis). Closed
    // intervals: a buffer [d, u] is live at every kernel k with
    // d <= k <= u, so the allocations at k apply before the residency
    // at k is recorded and the frees after; each side is summed in
    // def order first. An op's buffers are defined within its kernels
    // and freed there too, except its activation, which its consumer
    // frees at its own last kernel. So only the op's per-kernel sums
    // are kept, plus the activation carried to the next op.
    double cur = profile.weightBytes;
    double program_peak = profile.weightBytes;
    std::vector<double> alloc_at;
    std::vector<double> free_at;
    double carried = 0.0;
    std::size_t carried_to = 0;
    ScheduledSweep scheduled(timeline, profile.weightBytes);
    std::uint64_t buffer = 0;
    BufferEnumerator enumerator(plan);
    for (const ExecutedOp e : plan.executed()) {
        const std::size_t n = e.op.nodeCount;
        const std::size_t first = e.firstNode;
        const std::size_t last = first + n - 1;
        if (alloc_at.size() < n) {
            alloc_at.resize(n);
            free_at.resize(n);
        }
        std::fill_n(alloc_at.begin(), n, 0.0);
        std::fill_n(free_at.begin(), n, 0.0);
        // The carried activation precedes this op's buffers in def
        // order, so it is summed first.
        MMGEN_ASSERT(carried == 0.0 || carried_to == last,
                     "a buffer outlives its consumer at kernel " << last);
        free_at[n - 1] = carried;
        carried = 0.0;
        for (const LiveBuffer& b : enumerator.of(e)) {
            no_reuse += b.bytes;
            alloc_at[b.defNode - first] += b.bytes;
            if (b.lastUseNode <= last) {
                free_at[b.lastUseNode - first] += b.bytes;
            } else {
                MMGEN_ASSERT(carried == 0.0,
                             "two buffers outlive op " << e.index);
                carried = b.bytes;
                carried_to = b.lastUseNode;
            }
            scheduled.add(b, buffer++);
        }
        double& stage_peak =
            profile.stageResidency[e.op.stageIndex].peakBytes;
        for (std::size_t p = 0; p < n; ++p) {
            cur += alloc_at[p];
            program_peak = std::max(program_peak, cur);
            stage_peak = std::max(stage_peak, cur);
            cur -= free_at[p];
        }
        scheduled.release(bound.at(last + 1));
    }
    // The last op's bound is +inf, which swept every endpoint.
    profile.noReuseBytes = no_reuse;
    profile.programPeakBytes = program_peak;
    profile.bufferCount = buffer;
    profile.scheduledPeakBytes = scheduled.peakBytes();
    profile.scheduledPeakSeconds = scheduled.peakSeconds();
    profile.peakNodes = scheduled.takePeakNodes();
    return profile;
}

FeasibilityReport
analyzeFeasibility(const graph::Pipeline& pipeline,
                   const hw::GpuSpec& gpu,
                   graph::AttentionBackend backend)
{
    const kernels::CostModel model(gpu, backend);
    const ExecutionPlan plan = lowerPipeline(pipeline, model);
    const Timeline timeline = TimelineScheduler(gpu).schedule(plan);

    FeasibilityReport rep;
    rep.profile = analyzeMemory(plan, timeline);
    rep.weightBytes = rep.profile.weightBytes;
    rep.dynamicBytes =
        rep.profile.scheduledPeakBytes - rep.profile.weightBytes;
    rep.capacityBytes = gpu.hbmBytes;

    const double headroom = gpu.hbmBytes - rep.weightBytes;
    if (rep.weightBytes + rep.dynamicBytes > gpu.hbmBytes) {
        rep.maxBatch = 0; // not even one request fits
    } else if (rep.dynamicBytes <= 0.0) {
        rep.maxBatch = kUnboundedBatch;
    } else {
        const double fit = std::floor(headroom / rep.dynamicBytes);
        rep.maxBatch = std::min<std::int64_t>(
            kUnboundedBatch, static_cast<std::int64_t>(fit));
    }
    return rep;
}

std::int64_t
maxFeasibleBatch(const graph::Pipeline& pipeline, const hw::GpuSpec& gpu,
                 graph::AttentionBackend backend)
{
    return analyzeFeasibility(pipeline, gpu, backend).maxBatch;
}

} // namespace mmgen::exec
