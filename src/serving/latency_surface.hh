/**
 * @file
 * Exec-derived batch-latency surface for the serving layer.
 *
 * The linear `LatencyModel` prices a batch with two scalars; the
 * surface instead lowers and timeline-schedules the *actual pipeline*
 * at a grid of (batch size, request size) points through the runtime
 * profile cache and interpolates between them. Serving latency then
 * inherits everything the exec layer models — stream overlap, launch
 * queues, kernel efficiency, memory behaviour — instead of a fitted
 * line, and heterogeneous request sizes (image resolution, sequence
 * length, frame count) price differently, which is what makes the
 * workload generator's heavy-tailed size distributions meaningful.
 *
 * Each grid node is the model built for that request shape
 * (`graph::Pipeline::at`): the builder passes the batch through its
 * own tensors and maps the size onto its own setting (image side,
 * token grid, frame count or prompt length), rounded to the nearest
 * shape it accepts. So every node is a graph the verifier accepts, the
 * size grid stores the sizes the model realized, and because
 * `Pipeline::fingerprint()` hashes the op stream, distinct nodes never
 * alias each other in the profile and plan caches.
 */

#ifndef MMGEN_SERVING_LATENCY_SURFACE_HH
#define MMGEN_SERVING_LATENCY_SURFACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/schedule.hh"
#include "serving/simulator.hh"

namespace mmgen::serving {

/**
 * Batch service time as a function of (batch size, request size),
 * sampled on a rectangular grid and bilinearly interpolated. Lookups
 * at grid nodes return the stored profile values exactly (no
 * interpolation arithmetic touches them), which is what the capacity
 * bench's <= 1% surface-vs-profile gate and the legacy bit-identity
 * tests rely on.
 */
struct BatchLatencySurface
{
    /** Sampled batch sizes, strictly ascending, all >= 1. */
    std::vector<int> batchGrid;
    /**
     * Sampled request-size scales, strictly ascending, all > 0: for a
     * profiled surface, the sizes the model realized.
     */
    std::vector<double> sizeGrid;
    /** Service seconds, row-major: seconds[bi * sizeGrid.size() + si]. */
    std::vector<double> seconds;
    /**
     * Iteration count of the pipeline's dominant (most-iterated)
     * stage — the granularity at which the continuous-batching
     * scheduler lets requests join and leave an in-flight batch.
     */
    std::int64_t iterations = 1;
    /** Provenance label (pipeline name), for reports. */
    std::string model;

    /** True for a default-constructed surface (no samples). */
    bool empty() const { return seconds.empty(); }

    /** Stored value at grid node (bi, si). */
    double at(std::size_t bi, std::size_t si) const;

    /**
     * Service time of a batch of `batch` requests whose largest
     * member has size `sizeScale` (padded-batch pricing: the batch
     * runs at its largest member's shape). Bilinear between nodes,
     * exact at nodes, clamped outside the grid.
     */
    double batchSeconds(int batch, double sizeScale = 1.0) const;

    /** One scheduler iteration of such a batch. */
    double iterationSeconds(int batch, double sizeScale = 1.0) const;

    /**
     * Throw `FatalError` on an empty or non-ascending grid, a value
     * array of the wrong shape, non-positive sample values, or a
     * non-positive iteration count.
     */
    void validate() const;

    /**
     * Exact surface representation of a linear `LatencyModel`:
     * batch nodes 1..maxBatch each storing `model.batchSeconds(b)`
     * (the identical double), one unit size node. Integer-batch
     * lookups therefore reproduce the model bit-for-bit — the bridge
     * that keeps the legacy path byte-identical and makes greedy-vs-
     * continuous comparisons price both modes from one source.
     */
    static BatchLatencySurface fromLatencyModel(
        const LatencyModel& model, int maxBatch,
        std::int64_t iterations = 1);
};

/**
 * Profile a pipeline at every (batch, size) grid node through
 * `runtime::cachedProfile` (Flash backend, caller's schedule options)
 * and assemble the surface. Node (b, s) is `pipeline.at({b, s})`, and
 * `sizeGrid` holds the sizes those nodes realized, so requested sizes
 * that round to one shape throw `FatalError` (the grid is no longer
 * strictly ascending), as does any node of a pipeline without a
 * rebuild but the shape it was built for. Repeated calls are O(1)
 * after the first: every node is a profile-cache hit.
 */
BatchLatencySurface profileLatencySurface(
    const graph::Pipeline& pipeline, const hw::GpuSpec& gpu,
    const exec::ScheduleOptions& schedule = exec::ScheduleOptions(),
    std::vector<int> batches = {1, 2, 4, 8},
    std::vector<double> sizes = {1.0});

} // namespace mmgen::serving

#endif // MMGEN_SERVING_LATENCY_SURFACE_HH
