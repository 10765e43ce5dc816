/**
 * @file
 * Tests for the profile memoization cache: counters, LRU eviction,
 * capacity bounds, single-flight miss coalescing, and equivalence of
 * cached vs direct profiles.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "models/model_suite.hh"
#include "profiler/engine.hh"
#include "runtime/parallel.hh"
#include "runtime/profile_cache.hh"

namespace mmgen::runtime {
namespace {

profiler::ProfileResult
resultWith(double seconds)
{
    profiler::ProfileResult res;
    res.totalSeconds = seconds;
    return res;
}

TEST(ProfileCache, CountsHitsAndMisses)
{
    ProfileCache cache(4);
    int computed = 0;
    const auto compute = [&] {
        ++computed;
        return resultWith(1.0);
    };
    EXPECT_EQ(cache.getOrCompute(42, compute)->totalSeconds, 1.0);
    EXPECT_EQ(cache.getOrCompute(42, compute)->totalSeconds, 1.0);
    EXPECT_EQ(computed, 1);
    const ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.entries, 1);
    EXPECT_EQ(stats.lookups(), 2);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(ProfileCache, EvictsLeastRecentlyUsed)
{
    ProfileCache cache(2);
    cache.getOrCompute(1, [] { return resultWith(1.0); });
    cache.getOrCompute(2, [] { return resultWith(2.0); });
    // Touch key 1 so key 2 becomes the eviction victim.
    cache.getOrCompute(1, [] { return resultWith(-1.0); });
    cache.getOrCompute(3, [] { return resultWith(3.0); });
    EXPECT_NE(cache.peek(1), nullptr);
    EXPECT_EQ(cache.peek(2), nullptr);
    EXPECT_NE(cache.peek(3), nullptr);
    const ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1);
    EXPECT_EQ(stats.entries, 2);
}

TEST(ProfileCache, StaysWithinCapacity)
{
    ProfileCache cache(4);
    EXPECT_EQ(cache.capacity(), 4u);
    for (std::uint64_t k = 0; k < 10; ++k)
        cache.getOrCompute(k, [k] {
            return resultWith(static_cast<double>(k));
        });
    const ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 4);
    EXPECT_EQ(stats.misses, 10);
    EXPECT_EQ(stats.evictions, 6);
    // The four most recent keys survive.
    for (std::uint64_t k = 6; k < 10; ++k)
        EXPECT_NE(cache.peek(k), nullptr) << "key " << k;
}

TEST(ProfileCache, ClearDropsEntriesButKeepsCounters)
{
    ProfileCache cache(4);
    cache.getOrCompute(7, [] { return resultWith(7.0); });
    cache.clear();
    EXPECT_EQ(cache.peek(7), nullptr);
    const ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 0);
    EXPECT_EQ(stats.misses, 1);
}

TEST(ProfileCache, SingleFlightComputesOnceUnderContention)
{
    ProfileCache cache(8);
    std::atomic<int> computed{0};
    constexpr std::int64_t n = 64;
    setGlobalJobs(8);
    const std::vector<double> out =
        parallelMap(n, [&](std::int64_t) {
            return cache
                .getOrCompute(99,
                              [&] {
                                  computed.fetch_add(1);
                                  return resultWith(9.0);
                              })
                ->totalSeconds;
        });
    setGlobalJobs(0);
    EXPECT_EQ(computed.load(), 1);
    for (double v : out)
        EXPECT_EQ(v, 9.0);
    // Counters are schedule-independent: misses == unique keys no
    // matter how the lookups interleaved.
    const ProfileCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.hits, n - 1);
}

TEST(ProfileCache, ExceptionsPropagateAndNothingIsCached)
{
    ProfileCache cache(4);
    EXPECT_THROW(cache.getOrCompute(
                     5,
                     []() -> profiler::ProfileResult {
                         throw std::runtime_error("profile failed");
                     }),
                 std::runtime_error);
    EXPECT_EQ(cache.peek(5), nullptr);
    // The key is computable afterwards.
    EXPECT_EQ(
        cache.getOrCompute(5, [] { return resultWith(5.0); })
            ->totalSeconds,
        5.0);
}

TEST(ProfileCache, CachedProfileMatchesDirectProfile)
{
    const graph::Pipeline p =
        models::buildModel(models::ModelId::Muse);
    profiler::ProfileOptions opts;
    opts.backend = graph::AttentionBackend::Flash;
    const profiler::ProfileResult direct =
        profiler::Profiler(opts).profile(p);
    const auto cached = cachedProfile(p, opts);
    EXPECT_EQ(cached->totalSeconds, direct.totalSeconds); // bitwise
    EXPECT_EQ(cached->totalFlops, direct.totalFlops);
    EXPECT_EQ(cached->totalHbmBytes, direct.totalHbmBytes);
    EXPECT_EQ(cached->totalLaunches, direct.totalLaunches);
}

TEST(ProfileCache, KeepPlanBypassesGlobalCache)
{
    const graph::Pipeline p =
        models::buildModel(models::ModelId::Muse);
    profiler::ProfileOptions opts;
    opts.keepPlan = true;
    const ProfileCacheStats before =
        ProfileCache::global().stats();
    const auto res = cachedProfile(p, opts);
    EXPECT_NE(res->plan, nullptr);
    const ProfileCacheStats after = ProfileCache::global().stats();
    EXPECT_EQ(after.lookups(), before.lookups());
}

TEST(ProfileKey, SensitiveToEveryProfileInput)
{
    const graph::Pipeline p =
        models::buildModel(models::ModelId::StableDiffusion);
    const profiler::ProfileOptions base;
    const std::uint64_t key = profileKey(p, base);
    EXPECT_EQ(profileKey(p, base), key); // stable

    profiler::ProfileOptions backend = base;
    backend.backend = graph::AttentionBackend::Baseline;
    EXPECT_NE(profileKey(p, backend), key);

    profiler::ProfileOptions gpu = base;
    gpu.gpu = hw::GpuSpec::h100_80gb();
    EXPECT_NE(profileKey(p, gpu), key);

    profiler::ProfileOptions eff = base;
    eff.efficiency.gemmPeakFraction *= 0.5;
    EXPECT_NE(profileKey(p, eff), key);

    const graph::Pipeline other =
        models::buildModel(models::ModelId::Muse);
    EXPECT_NE(profileKey(other, base), key);
}

TEST(ProfileKey, SensitiveToLoweringAndScheduleKnobs)
{
    // Two runs that differ only in how the plan is lowered or
    // scheduled produce different results, so they must never alias
    // in the cache.
    const graph::Pipeline p =
        models::buildModel(models::ModelId::StableDiffusion);
    const profiler::ProfileOptions base;
    const std::uint64_t key = profileKey(p, base);

    profiler::ProfileOptions split = base;
    split.lowering.splitWeightStreams = true;
    EXPECT_NE(profileKey(p, split), key);

    profiler::ProfileOptions threshold = base;
    threshold.lowering.minStreamedWeightBytes = 1 << 10;
    EXPECT_NE(profileKey(p, threshold), key);

    profiler::ProfileOptions streams = base;
    streams.schedule.streams = 2;
    EXPECT_NE(profileKey(p, streams), key);

    profiler::ProfileOptions queued = base;
    queued.schedule.launchQueueDepth = 4;
    EXPECT_NE(profileKey(p, queued), key);

    profiler::ProfileOptions graphed = base;
    graphed.schedule.graphLaunch = true;
    EXPECT_NE(profileKey(p, graphed), key);

    profiler::ProfileOptions replay = graphed;
    replay.schedule.graphReplayOverheadFraction = 0.25;
    EXPECT_NE(profileKey(p, replay), profileKey(p, graphed));

    // And the cached result under non-default knobs matches a direct
    // profile under the same knobs.
    profiler::ProfileOptions overlap = base;
    overlap.lowering.splitWeightStreams = true;
    overlap.schedule.streams = 2;
    const profiler::ProfileResult direct =
        profiler::Profiler(overlap).profile(p);
    const auto cached = cachedProfile(p, overlap);
    EXPECT_EQ(cached->totalSeconds, direct.totalSeconds); // bitwise
}

} // namespace
} // namespace mmgen::runtime
