/**
 * @file
 * Memoization caches for pipeline profiles and lowered plans.
 *
 * The figure drivers, the zoo lint, and every serving setup
 * re-profile the same pipelines under the same (GPU, backend,
 * calibration) over and over — `serving_capacity` alone profiles
 * Stable Diffusion once per sweep point. A profile is a pure function
 * of (pipeline structure, GpuSpec, backend, EfficiencyParams,
 * lowering + schedule knobs), so the cache keys on a structural hash
 * of exactly those inputs and memoizes the full `ProfileResult`.
 *
 * The key factors into two independent halves:
 *
 *   profileKey = mix(loweringKey, scheduleKey)
 *
 * `loweringKey` covers everything the lowered `ExecutionPlan` depends
 * on (pipeline, GPU, backend, calibration, lowering knobs);
 * `scheduleKey` covers only the scheduling knobs (streams, queue
 * depth, graph launch). A sweep that varies schedule parameters over
 * one pipeline therefore misses the profile cache but hits the *plan*
 * cache — `cachedPlan` memoizes lowered plans under `loweringKey`
 * alone — and pays re-scheduling only. Lowering dominates profiling
 * cost, so incremental re-lowering turns schedule sweeps from
 * O(plan construction) per point into O(schedule replay).
 *
 * Both caches are thread-safe, bounded (LRU), and single-flight
 * (`SingleFlightLru`). The profile cache optionally chains to a
 * persistent `DiskProfileCache` tier so results survive the process
 * (see disk_cache.hh); attach one with `attachDiskCache`.
 */

#ifndef MMGEN_RUNTIME_PROFILE_CACHE_HH
#define MMGEN_RUNTIME_PROFILE_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "exec/plan.hh"
#include "graph/pipeline.hh"
#include "profiler/engine.hh"
#include "runtime/disk_cache.hh"
#include "runtime/single_flight.hh"

namespace mmgen::runtime {

/**
 * The in-memory tier's counters plus the disk tier's. The disk fields
 * are zero unless a disk tier is attached.
 */
struct ProfileCacheStats : SingleFlightStats
{
    std::int64_t diskHits = 0;
    std::int64_t diskMisses = 0;
    std::int64_t diskWrites = 0;
    std::int64_t diskCorrupt = 0;
};

/**
 * Bounded, thread-safe, single-flight LRU memo of profile results,
 * optionally backed by a persistent disk tier.
 */
class ProfileCache
{
  public:
    using Compute = std::function<profiler::ProfileResult()>;

    explicit ProfileCache(std::size_t capacity = 256);

    /**
     * Return the cached result for `key`, computing it via `compute`
     * on a miss. Waiters on an in-flight computation of the same key
     * block and count as hits (they did no work). If `compute`
     * throws, nothing is cached and every waiter observes the same
     * exception. With a disk tier attached, the in-memory miss path
     * consults disk (and persists what it computes) before returning.
     */
    std::shared_ptr<const profiler::ProfileResult>
    getOrCompute(std::uint64_t key, const Compute& compute);

    /** Peek without counting or computing; null when absent. */
    std::shared_ptr<const profiler::ProfileResult>
    peek(std::uint64_t key) const;

    ProfileCacheStats stats() const;

    /** Drop all in-memory entries (counters keep accumulating). */
    void clear();

    /** Maximum resident entries. */
    std::size_t capacity() const;

    /**
     * Attach (or with null, detach) a persistent tier consulted on
     * in-memory misses. Call before profiling starts; entries already
     * resident are unaffected.
     */
    void attachDiskCache(std::shared_ptr<DiskProfileCache> disk);

    /** The attached disk tier, if any. */
    std::shared_ptr<DiskProfileCache> diskCache() const;

    /** The process-wide cache every cached-profile helper consults. */
    static ProfileCache& global();

  private:
    SingleFlightLru<profiler::ProfileResult> mem;
    mutable std::mutex diskMu;
    std::shared_ptr<DiskProfileCache> disk;
};

/**
 * Hash of everything the lowered plan depends on: pipeline
 * fingerprint, GpuSpec datasheet fields, attention backend, the full
 * `EfficiencyParams` calibration surface, and the lowering knobs.
 * Runs that share this key lower to bit-identical plans.
 */
std::uint64_t loweringKey(const graph::Pipeline& pipeline,
                          const profiler::ProfileOptions& options);

/** Hash of the scheduling knobs only (streams, queue, graphs). */
std::uint64_t scheduleKey(const exec::ScheduleOptions& schedule);

/**
 * Cache key for one profiling run: `loweringKey` mixed with
 * `scheduleKey`, so differently scheduled runs of one pipeline never
 * alias while sharing a plan-cache entry.
 */
std::uint64_t profileKey(const graph::Pipeline& pipeline,
                         const profiler::ProfileOptions& options);

/**
 * Lower through the process-wide plan cache, keyed on `loweringKey`:
 * O(1) when only schedule/batch knobs changed since the last lowering
 * of this pipeline. The returned plan is immutable and shared.
 */
std::shared_ptr<const exec::ExecutionPlan>
cachedPlan(const graph::Pipeline& pipeline,
           const profiler::ProfileOptions& options);

/** Counters of the process-wide plan cache behind `cachedPlan`. */
SingleFlightStats planCacheStats();

/**
 * Profile through the global cache: O(1) for a repeated
 * (pipeline, options) setup, plan-cached when only the schedule
 * changed. Requests with `keepPlan` set bypass the result cache
 * entirely (a retained plan and timeline are too large to memoize and
 * the exporters that need them never profile repeatedly) but still
 * reuse cached plans.
 */
std::shared_ptr<const profiler::ProfileResult>
cachedProfile(const graph::Pipeline& pipeline,
              const profiler::ProfileOptions& options);

} // namespace mmgen::runtime

#endif // MMGEN_RUNTIME_PROFILE_CACHE_HH
