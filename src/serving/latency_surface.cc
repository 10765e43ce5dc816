#include "serving/latency_surface.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "profiler/engine.hh"
#include "runtime/profile_cache.hh"
#include "util/logging.hh"
#include "verify/verify.hh"

namespace mmgen::serving {

namespace {

/** Locate `x` on an ascending grid: (index, interpolation weight).
    Weight 0 means "exactly node index" (clamped ends included). */
template <typename Grid, typename X>
std::pair<std::size_t, double>
locate(const Grid& grid, X x)
{
    if (x <= grid.front())
        return {0, 0.0};
    if (x >= grid.back())
        return {grid.size() - 1, 0.0};
    std::size_t hi = 1;
    while (grid[hi] < x)
        ++hi;
    if (grid[hi] == x)
        return {hi, 0.0}; // node hit: no interpolation arithmetic
    const std::size_t lo = hi - 1;
    const double t = (static_cast<double>(x) -
                      static_cast<double>(grid[lo])) /
                     (static_cast<double>(grid[hi]) -
                      static_cast<double>(grid[lo]));
    return {lo, t};
}

} // namespace

double
BatchLatencySurface::at(std::size_t bi, std::size_t si) const
{
    return seconds[bi * sizeGrid.size() + si];
}

double
BatchLatencySurface::batchSeconds(int batch, double sizeScale) const
{
    MMGEN_CHECK(batch >= 1, "batch must be positive, got " << batch);
    MMGEN_CHECK(std::isfinite(sizeScale) && sizeScale > 0.0,
                "size scale must be positive, got " << sizeScale);
    const auto [bi, tb] = locate(batchGrid, batch);
    const auto [si, ts] = locate(sizeGrid, sizeScale);
    // Node hits return stored doubles untouched; each lerp is skipped
    // when its weight is exactly zero.
    auto along_size = [&](std::size_t b_idx) {
        const double v0 = at(b_idx, si);
        if (ts == 0.0)
            return v0;
        return v0 + ts * (at(b_idx, si + 1) - v0);
    };
    const double v0 = along_size(bi);
    if (tb == 0.0)
        return v0;
    return v0 + tb * (along_size(bi + 1) - v0);
}

double
BatchLatencySurface::iterationSeconds(int batch,
                                      double sizeScale) const
{
    return batchSeconds(batch, sizeScale) /
           static_cast<double>(iterations);
}

void
BatchLatencySurface::validate() const
{
    MMGEN_CHECK(!batchGrid.empty() && !sizeGrid.empty(),
                "latency surface has an empty grid");
    MMGEN_CHECK(batchGrid.front() >= 1,
                "batch grid must start at >= 1, got "
                    << batchGrid.front());
    for (std::size_t i = 1; i < batchGrid.size(); ++i)
        MMGEN_CHECK(batchGrid[i] > batchGrid[i - 1],
                    "batch grid must be strictly ascending");
    MMGEN_CHECK(std::isfinite(sizeGrid.front()) &&
                    sizeGrid.front() > 0.0,
                "size grid must be positive, got "
                    << sizeGrid.front());
    for (std::size_t i = 1; i < sizeGrid.size(); ++i)
        MMGEN_CHECK(sizeGrid[i] > sizeGrid[i - 1],
                    "size grid must be strictly ascending");
    MMGEN_CHECK(seconds.size() == batchGrid.size() * sizeGrid.size(),
                "surface has " << seconds.size() << " samples for a "
                               << batchGrid.size() << "x"
                               << sizeGrid.size() << " grid");
    for (double v : seconds)
        MMGEN_CHECK(std::isfinite(v) && v > 0.0,
                    "surface sample must be positive, got " << v);
    MMGEN_CHECK(iterations >= 1,
                "surface iteration count must be >= 1, got "
                    << iterations);
}

BatchLatencySurface
BatchLatencySurface::fromLatencyModel(const LatencyModel& model,
                                      int maxBatch,
                                      std::int64_t iterations)
{
    MMGEN_CHECK(maxBatch >= 1,
                "need max batch >= 1, got " << maxBatch);
    BatchLatencySurface s;
    s.model = "linear";
    s.iterations = iterations;
    s.sizeGrid = {1.0};
    for (int b = 1; b <= maxBatch; ++b) {
        s.batchGrid.push_back(b);
        s.seconds.push_back(model.batchSeconds(b));
    }
    s.validate();
    return s;
}

BatchLatencySurface
profileLatencySurface(const graph::Pipeline& pipeline,
                      const hw::GpuSpec& gpu,
                      const exec::ScheduleOptions& schedule,
                      std::vector<int> batches,
                      std::vector<double> sizes)
{
    if (verify::runtimeChecksEnabled())
        verify::verifyPipelineOrThrow(pipeline);
    BatchLatencySurface s;
    s.model = pipeline.name;
    s.batchGrid = std::move(batches);
    for (const graph::Stage& stage : pipeline.stages)
        s.iterations = std::max(s.iterations, stage.iterations);

    profiler::ProfileOptions opts;
    opts.gpu = gpu;
    opts.backend = graph::AttentionBackend::Flash;
    opts.schedule = schedule;
    for (std::size_t bi = 0; bi < s.batchGrid.size(); ++bi) {
        for (std::size_t si = 0; si < sizes.size(); ++si) {
            const graph::Pipeline node =
                pipeline.at({s.batchGrid[bi], sizes[si]});
            if (bi == 0)
                s.sizeGrid.push_back(node.shape.size);
            MMGEN_ASSERT(node.shape.size == s.sizeGrid[si],
                         "realized size depends on the batch");
            s.seconds.push_back(
                runtime::cachedProfile(node, opts)->totalSeconds);
        }
    }
    s.validate();
    return s;
}

} // namespace mmgen::serving
