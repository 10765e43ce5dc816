#include "memory.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "util/logging.hh"

namespace mmgen::exec {

namespace {

/**
 * Sort buffer indices by (time_of(buffer), buffer), skipping the sort
 * when `order` already is in that order: a serial timeline's times
 * rise with node index, so its endpoint lists usually are.
 */
template <typename TimeOf>
void
sortByTime(std::vector<std::uint32_t>& order, TimeOf time_of)
{
    const auto before = [&](std::uint32_t a, std::uint32_t b) {
        const double ta = time_of(a);
        const double tb = time_of(b);
        return ta != tb ? ta < tb : a < b;
    };
    if (!std::is_sorted(order.begin(), order.end(), before))
        std::sort(order.begin(), order.end(), before);
}

} // namespace

MemoryProfile
analyzeMemory(const ExecutionPlan& plan, const Timeline& timeline)
{
    MMGEN_CHECK(timeline.eventCount() == plan.executedNodeCount(),
                "timeline has " << timeline.eventCount()
                                << " events for a plan of "
                                << plan.executedNodeCount() << " nodes");
    const Liveness lv = deriveLiveness(plan);

    MemoryProfile profile;
    profile.weightBytes = lv.weightBytes;
    profile.bufferCount = lv.buffers.size();

    // No-reuse upper bound: weights plus every buffer of one
    // inference, allocated distinct and never freed.
    profile.noReuseBytes = lv.weightBytes;
    for (const LiveBuffer& b : lv.buffers)
        profile.noReuseBytes += b.bytes;

    // ---- program-order sweep (executed-kernel time axis) -------------
    //
    // Closed intervals: a buffer [d, u] is live at every kernel k with
    // d <= k <= u, so allocations apply before the residency at k is
    // recorded and frees apply after.
    const std::size_t num_nodes = plan.executedNodeCount();
    std::vector<double> alloc_at(num_nodes, 0.0);
    std::vector<double> free_after(num_nodes, 0.0);
    for (const LiveBuffer& b : lv.buffers) {
        alloc_at[b.defNode] += b.bytes;
        free_after[b.lastUseNode] += b.bytes;
    }
    profile.stageResidency.reserve(plan.stageNames.size());
    for (const std::string& name : plan.stageNames)
        profile.stageResidency.push_back({name, 0.0});

    double cur = lv.weightBytes;
    profile.programPeakBytes = lv.weightBytes;
    for (const ExecutedOp e : plan.executed()) {
        StageResidency& sr = profile.stageResidency[e.op.stageIndex];
        for (std::size_t k = e.firstNode;
             k < e.firstNode + e.op.nodeCount; ++k) {
            cur += alloc_at[k];
            profile.programPeakBytes =
                std::max(profile.programPeakBytes, cur);
            sr.peakBytes = std::max(sr.peakBytes, cur);
            cur -= free_after[k];
        }
    }

    // ---- scheduled-order sweep (sim-time axis) -----------------------
    //
    // Each buffer is allocated at its def node's start and freed at its
    // last use's end. Endpoints sweep by time, allocations before frees
    // at equal time (closed intervals: a buffer freed at t and one
    // allocated at t coexist), buffer index last so ties are stable.
    // Allocations and frees are sorted separately as buffer indices and
    // merged, which visits the endpoints in exactly that order.
    const std::vector<LiveBuffer>& buffers = lv.buffers;
    MMGEN_CHECK(buffers.size() <= UINT32_MAX,
                buffers.size() << " buffers overflow the sweep index");
    const auto num_buffers = static_cast<std::uint32_t>(buffers.size());
    const auto start_of = [&](std::uint32_t bi) {
        return timeline.eventStart[buffers[bi].defNode];
    };
    const auto end_of = [&](std::uint32_t bi) {
        return timeline.eventEnd[buffers[bi].lastUseNode];
    };

    // Allocations start in def order, frees in last-use order (a
    // counting sort on the executed kernel).
    std::vector<std::uint32_t> allocs(num_buffers);
    std::iota(allocs.begin(), allocs.end(), 0u);
    sortByTime(allocs, start_of);
    std::vector<std::uint32_t> frees(num_buffers);
    {
        std::vector<std::uint32_t> slot(num_nodes + 1, 0);
        for (const LiveBuffer& b : buffers)
            ++slot[b.lastUseNode + 1];
        for (std::size_t k = 0; k < num_nodes; ++k)
            slot[k + 1] += slot[k];
        for (std::uint32_t bi = 0; bi < num_buffers; ++bi)
            frees[slot[buffers[bi].lastUseNode]++] = bi;
    }
    sortByTime(frees, end_of);

    profile.scheduledPeakBytes = lv.weightBytes;
    profile.scheduledPeakSeconds = 0.0;
    cur = lv.weightBytes;
    std::size_t a = 0;
    std::size_t f = 0;
    // Allocations and frees swept when the peak is reached.
    std::size_t peak_allocs = 0;
    std::size_t peak_frees = 0;
    while (a < allocs.size() || f < frees.size()) {
        const bool alloc =
            a < allocs.size() &&
            (f == frees.size() || start_of(allocs[a]) <= end_of(frees[f]));
        const std::uint32_t bi = alloc ? allocs[a++] : frees[f++];
        cur += alloc ? buffers[bi].bytes : -buffers[bi].bytes;
        if (cur > profile.scheduledPeakBytes) {
            profile.scheduledPeakBytes = cur;
            profile.scheduledPeakSeconds =
                alloc ? start_of(bi) : end_of(bi);
            peak_allocs = a;
            peak_frees = f;
        }
    }

    // The buffers forming the peak: allocated by then and not freed
    // since. A buffer whose free sweeps before its own allocation (its
    // last use ends before its def starts) stays live, as the later
    // allocation wins.
    std::vector<bool> live(buffers.size(), false);
    for (std::size_t i = 0; i < peak_allocs; ++i)
        live[allocs[i]] = true;
    for (std::size_t i = 0; i < peak_frees; ++i) {
        const std::uint32_t bi = frees[i];
        if (start_of(bi) <= end_of(bi))
            live[bi] = false;
    }
    for (std::size_t bi = 0; bi < buffers.size(); ++bi) {
        if (live[bi])
            profile.peakNodes.push_back(buffers[bi].defNode);
    }
    std::sort(profile.peakNodes.begin(), profile.peakNodes.end());
    profile.peakNodes.erase(std::unique(profile.peakNodes.begin(),
                                        profile.peakNodes.end()),
                            profile.peakNodes.end());
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
