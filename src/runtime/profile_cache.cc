#include "profile_cache.hh"

#include "util/hash.hh"

namespace mmgen::runtime {

ProfileCache::ProfileCache(std::size_t capacity)
    : mem(capacity)
{}

std::shared_ptr<const profiler::ProfileResult>
ProfileCache::getOrCompute(std::uint64_t key, const Compute& compute)
{
    const std::shared_ptr<DiskProfileCache> tier = diskCache();
    if (!tier)
        return mem.getOrCompute(key, compute);
    return mem.getOrCompute(
        key, [&] { return tier->getOrCompute(key, compute); });
}

std::shared_ptr<const profiler::ProfileResult>
ProfileCache::peek(std::uint64_t key) const
{
    return mem.peek(key);
}

ProfileCacheStats
ProfileCache::stats() const
{
    ProfileCacheStats s;
    static_cast<SingleFlightStats&>(s) = mem.stats();
    if (const std::shared_ptr<DiskProfileCache> tier = diskCache()) {
        const DiskCacheStats d = tier->stats();
        s.diskHits = d.hits;
        s.diskMisses = d.misses;
        s.diskWrites = d.writes;
        s.diskCorrupt = d.corrupt;
    }
    return s;
}

void
ProfileCache::clear()
{
    mem.clear();
}

std::size_t
ProfileCache::capacity() const
{
    return mem.capacity();
}

void
ProfileCache::attachDiskCache(std::shared_ptr<DiskProfileCache> tier)
{
    const std::lock_guard<std::mutex> lock(diskMu);
    disk = std::move(tier);
}

std::shared_ptr<DiskProfileCache>
ProfileCache::diskCache() const
{
    const std::lock_guard<std::mutex> lock(diskMu);
    return disk;
}

ProfileCache&
ProfileCache::global()
{
    static ProfileCache cache(256);
    return cache;
}

std::uint64_t
loweringKey(const graph::Pipeline& pipeline,
            const profiler::ProfileOptions& options)
{
    HashBuilder h;
    h.mix(pipeline.fingerprint());
    const hw::GpuSpec& gpu = options.gpu;
    h.mix(std::string_view(gpu.name));
    h.mix(gpu.numSms);
    h.mix(gpu.peakF16Flops);
    h.mix(gpu.peakI8Flops);
    h.mix(gpu.peakF32Flops);
    h.mix(gpu.hbmBytes);
    h.mix(gpu.hbmBandwidth);
    h.mix(gpu.l2Bytes);
    h.mix(static_cast<std::int64_t>(gpu.l1BytesPerSm));
    h.mix(gpu.cacheLineBytes);
    h.mix(gpu.kernelLaunchOverhead);
    h.mix(static_cast<std::uint64_t>(options.backend));
    const exec::LoweringOptions& lo = options.lowering;
    h.mix(static_cast<std::uint64_t>(lo.splitWeightStreams));
    h.mix(lo.minStreamedWeightBytes);
    const kernels::EfficiencyParams& e = options.efficiency;
    h.mix(e.gemmPeakFraction);
    h.mix(e.convPeakFraction);
    h.mix(e.flashPeakFraction);
    h.mix(e.streamMemFraction);
    h.mix(e.smallMatrixOverheadBytes);
    h.mix(e.attentionMatrixOverheadBytes);
    h.mix(e.gemmKHalfDepth);
    h.mix(e.causalFlashFlopFraction);
    h.mix(e.baselineSimilarityUpcast);
    h.mix(e.efficiencyFloor);
    h.mix(e.ctasPerSm);
    return h.digest();
}

std::uint64_t
scheduleKey(const exec::ScheduleOptions& schedule)
{
    HashBuilder h;
    h.mix(static_cast<std::int64_t>(schedule.streams));
    h.mix(static_cast<std::int64_t>(schedule.launchQueueDepth));
    h.mix(static_cast<std::uint64_t>(schedule.graphLaunch));
    h.mix(schedule.graphReplayOverheadFraction);
    return h.digest();
}

std::uint64_t
profileKey(const graph::Pipeline& pipeline,
           const profiler::ProfileOptions& options)
{
    // Two runs of one pipeline under different stream/queue/graph
    // configurations are different results and must never alias.
    HashBuilder h;
    h.mix(loweringKey(pipeline, options));
    h.mix(scheduleKey(options.schedule));
    return h.digest();
}

namespace {

/**
 * Process-wide memo of lowered plans. Plans are large (every kernel
 * of every traced iteration) so the bound is modest; a schedule sweep
 * touches exactly one entry.
 */
SingleFlightLru<exec::ExecutionPlan>&
planCache()
{
    static SingleFlightLru<exec::ExecutionPlan> cache(64);
    return cache;
}

} // namespace

std::shared_ptr<const exec::ExecutionPlan>
cachedPlan(const graph::Pipeline& pipeline,
           const profiler::ProfileOptions& options)
{
    return planCache().getOrCompute(
        loweringKey(pipeline, options), [&] {
            return profiler::Profiler(options).lower(pipeline);
        });
}

SingleFlightStats
planCacheStats()
{
    return planCache().stats();
}

std::shared_ptr<const profiler::ProfileResult>
cachedProfile(const graph::Pipeline& pipeline,
              const profiler::ProfileOptions& options)
{
    if (options.keepPlan) {
        return std::make_shared<const profiler::ProfileResult>(
            profiler::Profiler(options).profileWithPlan(
                pipeline, cachedPlan(pipeline, options)));
    }
    return ProfileCache::global().getOrCompute(
        profileKey(pipeline, options), [&] {
            return profiler::Profiler(options).profileWithPlan(
                pipeline, cachedPlan(pipeline, options));
        });
}

} // namespace mmgen::runtime
