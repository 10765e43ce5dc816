/**
 * @file
 * Persistent on-disk tier for the profile cache.
 *
 * Cold processes pay full lowering + scheduling for every pipeline
 * they touch; a sweep driver restarted after a crash, or a CI job
 * profiling the same zoo on every run, re-derives results that a
 * previous process already computed. This tier persists serialized
 * `ProfileResult`s under a cache directory, keyed by the same
 * structural `profileKey` the in-memory cache uses, so a warm rerun
 * loads bytes instead of simulating.
 *
 * Directory resolution, in order: `MMGEN_CACHE_DIR`, then
 * `$XDG_CACHE_HOME/mmgen`, then `~/.cache/mmgen`. If none resolves
 * (or the directory cannot be created) the tier disables itself and
 * every lookup computes — persistence is an optimization, never a
 * requirement.
 *
 * Each entry is one file, `profile-<hexkey>.bin`, wrapped in a
 * versioned envelope: magic, format version, key echo, payload
 * length, FNV-1a checksum, payload. Any mismatch — torn write,
 * truncation, stale format, flipped bit — reads as a silent miss
 * (counted in `DiskCacheStats`), never an error. Writes go through a
 * temp file plus atomic rename so readers never observe a partial
 * entry, and cross-process single-flight is provided by an advisory
 * `flock` on a per-key `.lock` file: N processes racing on one cold
 * key simulate once.
 */

#ifndef MMGEN_RUNTIME_DISK_CACHE_HH
#define MMGEN_RUNTIME_DISK_CACHE_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "profiler/engine.hh"

namespace mmgen::runtime {

/** Disk-tier effectiveness counters (monotonic, per instance). */
struct DiskCacheStats
{
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t writes = 0;
    /** Unreadable entries (bad magic / truncation / checksum). */
    std::int64_t corrupt = 0;

    std::int64_t lookups() const { return hits + misses; }
};

/**
 * Persistent, corruption-tolerant store of profile results.
 *
 * Thread-safe; cross-process safe via atomic renames and advisory
 * per-key locks.
 */
class DiskProfileCache
{
  public:
    using Compute = std::function<profiler::ProfileResult()>;

    /**
     * Open (creating if needed) the cache at `dir`, or at the
     * environment-resolved default when `dir` is empty. On failure
     * the instance stays usable but disabled.
     */
    explicit DiskProfileCache(std::string dir = std::string());

    /** False when no cache directory could be resolved or created. */
    bool enabled() const { return enabled_; }

    /** Resolved cache directory (empty when disabled). */
    const std::string& directory() const { return dir_; }

    /** Entry file path for a key (valid even when disabled). */
    std::string pathFor(std::uint64_t key) const;

    /**
     * Load the entry for `key` into `out`. Returns false — counting
     * a miss, plus a corruption when the file exists but cannot be
     * decoded — when there is no usable entry.
     */
    bool load(std::uint64_t key, profiler::ProfileResult& out);

    /**
     * Persist `result` under `key` (temp file + atomic rename).
     * Returns false on I/O failure; the cache never throws for disk
     * problems.
     */
    bool store(std::uint64_t key, const profiler::ProfileResult& result);

    /**
     * Disk-backed memoization with cross-process single-flight: try
     * to load, else take the per-key advisory lock, re-check (another
     * process may have filled the entry while this one waited),
     * compute, and persist. Disabled instances just compute.
     */
    profiler::ProfileResult getOrCompute(std::uint64_t key,
                                         const Compute& compute);

    DiskCacheStats stats() const;

    /**
     * Default directory from the environment: `MMGEN_CACHE_DIR`,
     * `$XDG_CACHE_HOME/mmgen`, or `~/.cache/mmgen`; empty when none
     * is derivable.
     */
    static std::string resolveDefaultDir();

    /** Entry envelope format version; bump on any layout change. */
    static constexpr std::uint32_t kFormatVersion = 2;

  private:
    enum class LoadOutcome
    {
        Hit,
        Miss,
        Corrupt
    };

    /** Decode one entry file; no counter side effects. */
    LoadOutcome tryLoad(std::uint64_t key,
                        profiler::ProfileResult& out) const;

    std::string dir_;
    bool enabled_ = false;

    mutable std::mutex mu;
    DiskCacheStats counters;
};

} // namespace mmgen::runtime

#endif // MMGEN_RUNTIME_DISK_CACHE_HH
