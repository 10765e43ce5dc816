/**
 * @file
 * Tests for the persistent profile-cache tier: serde round-trips,
 * envelope validation (version, truncation, checksum), warm-load
 * byte-identity, directory resolution, cross-instance sharing, and
 * the disk-backed ProfileCache composition.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "models/model_suite.hh"
#include "profiler/engine.hh"
#include "runtime/disk_cache.hh"
#include "runtime/profile_cache.hh"
#include "runtime/profile_serde.hh"

namespace mmgen::runtime {
namespace {

/** Fresh directory under the test temp root. */
std::string
freshDir(const std::string& name)
{
    const std::string dir =
        ::testing::TempDir() + "mmgen_disk_cache_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

profiler::ProfileResult
profileMuse()
{
    profiler::ProfileOptions opts;
    opts.backend = graph::AttentionBackend::Flash;
    return profiler::Profiler(opts).profile(
        models::buildModel(models::ModelId::Muse));
}

std::string
readFileBytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
}

void
writeFileBytes(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(ProfileSerde, RoundTripsEveryAggregateFieldBitExactly)
{
    const profiler::ProfileResult original = profileMuse();
    const std::string bytes = serializeProfileResult(original);

    profiler::ProfileResult loaded;
    ASSERT_TRUE(deserializeProfileResult(bytes, loaded));

    EXPECT_EQ(loaded.model, original.model);
    EXPECT_EQ(loaded.backend, original.backend);
    EXPECT_EQ(loaded.totalSeconds, original.totalSeconds); // bitwise
    EXPECT_EQ(loaded.totalFlops, original.totalFlops);
    EXPECT_EQ(loaded.totalHbmBytes, original.totalHbmBytes);
    EXPECT_EQ(loaded.totalLaunches, original.totalLaunches);
    EXPECT_EQ(loaded.launchOverheadSeconds,
              original.launchOverheadSeconds);
    EXPECT_EQ(loaded.weightBytesRead, original.weightBytesRead);
    EXPECT_EQ(loaded.params, original.params);
    EXPECT_EQ(loaded.breakdown.rawCategories(),
              original.breakdown.rawCategories());
    EXPECT_EQ(loaded.breakdown.totalSeconds(),
              original.breakdown.totalSeconds());
    EXPECT_EQ(loaded.seqLens.series(), original.seqLens.series());
    EXPECT_EQ(loaded.kernelClassSeconds,
              original.kernelClassSeconds);
    ASSERT_EQ(loaded.stageBreakdowns.size(),
              original.stageBreakdowns.size());
    for (std::size_t si = 0; si < original.stageBreakdowns.size(); ++si) {
        const auto& [name, b] = original.stageBreakdowns[si];
        EXPECT_EQ(loaded.stageBreakdowns[si].first, name);
        EXPECT_EQ(loaded.stageBreakdowns[si].second.rawCategories(),
                  b.rawCategories());
        EXPECT_EQ(loaded.stageBreakdowns[si].second.totalSeconds(),
                  b.totalSeconds());
    }
    ASSERT_EQ(loaded.attention.byKind.size(),
              original.attention.byKind.size());
    for (const auto& [kind, e] : original.attention.byKind) {
        const auto it = loaded.attention.byKind.find(kind);
        ASSERT_NE(it, loaded.attention.byKind.end());
        EXPECT_EQ(it->second.seconds, e.seconds);
        EXPECT_EQ(it->second.flops, e.flops);
        EXPECT_EQ(it->second.calls, e.calls);
    }

    // The strongest equivalence: re-serializing the loaded result
    // reproduces the original bytes exactly.
    EXPECT_EQ(serializeProfileResult(loaded), bytes);
}

TEST(ProfileSerde, RejectsTruncationAndTrailingGarbage)
{
    const std::string bytes =
        serializeProfileResult(profileMuse());
    profiler::ProfileResult out;
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{1}, bytes.size() / 2,
          bytes.size() - 1}) {
        EXPECT_FALSE(deserializeProfileResult(
            std::string_view(bytes).substr(0, cut), out))
            << "cut at " << cut;
    }
    EXPECT_FALSE(deserializeProfileResult(bytes + "x", out));
}

TEST(ProfileSerde, RejectsOutOfRangeEnums)
{
    profiler::ProfileResult small;
    small.model = "m";
    std::string bytes = serializeProfileResult(small);
    // The backend byte sits right after the u64-length-prefixed
    // model string.
    const std::size_t backend_at = 8 + small.model.size();
    ASSERT_LT(backend_at, bytes.size());
    bytes[backend_at] = 17;
    profiler::ProfileResult out;
    EXPECT_FALSE(deserializeProfileResult(bytes, out));
}

TEST(DiskProfileCache, ColdStoreThenWarmLoadIsByteIdentical)
{
    DiskProfileCache cache(freshDir("warm"));
    ASSERT_TRUE(cache.enabled());
    const profiler::ProfileResult original = profileMuse();
    ASSERT_TRUE(cache.store(1234, original));

    profiler::ProfileResult loaded;
    ASSERT_TRUE(cache.load(1234, loaded));
    EXPECT_EQ(serializeProfileResult(loaded),
              serializeProfileResult(original));

    const DiskCacheStats stats = cache.stats();
    EXPECT_EQ(stats.writes, 1);
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.corrupt, 0);
}

TEST(DiskProfileCache, MissingEntryIsAMiss)
{
    DiskProfileCache cache(freshDir("miss"));
    ASSERT_TRUE(cache.enabled());
    profiler::ProfileResult out;
    EXPECT_FALSE(cache.load(42, out));
    const DiskCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.corrupt, 0);
}

TEST(DiskProfileCache, VersionMismatchReadsAsSilentMiss)
{
    DiskProfileCache cache(freshDir("version"));
    ASSERT_TRUE(cache.enabled());
    ASSERT_TRUE(cache.store(7, profileMuse()));

    // Bump the version field (second u32 of the envelope).
    std::string bytes = readFileBytes(cache.pathFor(7));
    ASSERT_GE(bytes.size(), 8u);
    const std::uint32_t stale = DiskProfileCache::kFormatVersion + 1;
    std::memcpy(bytes.data() + 4, &stale, sizeof stale);
    writeFileBytes(cache.pathFor(7), bytes);

    profiler::ProfileResult out;
    EXPECT_FALSE(cache.load(7, out));
    const DiskCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1);
    // A stale-format entry is not damage.
    EXPECT_EQ(stats.corrupt, 0);
}

TEST(DiskProfileCache, TruncationAndBitFlipsReadAsCorruptMisses)
{
    DiskProfileCache cache(freshDir("corrupt"));
    ASSERT_TRUE(cache.enabled());
    ASSERT_TRUE(cache.store(9, profileMuse()));
    const std::string good = readFileBytes(cache.pathFor(9));

    // Truncated payload.
    writeFileBytes(cache.pathFor(9),
                   good.substr(0, good.size() / 2));
    profiler::ProfileResult out;
    EXPECT_FALSE(cache.load(9, out));

    // Flipped payload byte (checksum mismatch).
    std::string flipped = good;
    flipped[flipped.size() - 1] =
        static_cast<char>(flipped[flipped.size() - 1] ^ 0x40);
    writeFileBytes(cache.pathFor(9), flipped);
    EXPECT_FALSE(cache.load(9, out));

    // Wrong magic.
    std::string wrong_magic = good;
    wrong_magic[0] = 'X';
    writeFileBytes(cache.pathFor(9), wrong_magic);
    EXPECT_FALSE(cache.load(9, out));

    const DiskCacheStats stats = cache.stats();
    EXPECT_EQ(stats.corrupt, 3);
    EXPECT_EQ(stats.misses, 3);

    // The intact bytes still load.
    writeFileBytes(cache.pathFor(9), good);
    EXPECT_TRUE(cache.load(9, out));
}

TEST(DiskProfileCache, CacheDirEnvOverridesDefaultResolution)
{
    const std::string dir = freshDir("env");
    ASSERT_EQ(setenv("MMGEN_CACHE_DIR", dir.c_str(), 1), 0);
    EXPECT_EQ(DiskProfileCache::resolveDefaultDir(), dir);
    DiskProfileCache cache;
    EXPECT_TRUE(cache.enabled());
    EXPECT_EQ(cache.directory(), dir);
    ASSERT_EQ(unsetenv("MMGEN_CACHE_DIR"), 0);
    // Without the override the XDG/home fallbacks take over.
    const std::string fallback =
        DiskProfileCache::resolveDefaultDir();
    EXPECT_NE(fallback, dir);
}

TEST(DiskProfileCache, InstancesSharingADirectoryShareEntries)
{
    // Two instances on one directory model two processes: the second
    // "process" getOrCompute must load what the first stored instead
    // of computing.
    const std::string dir = freshDir("shared");
    DiskProfileCache first(dir);
    DiskProfileCache second(dir);
    ASSERT_TRUE(first.enabled());
    ASSERT_TRUE(second.enabled());

    const profiler::ProfileResult original = profileMuse();
    int computed = 0;
    const profiler::ProfileResult cold =
        first.getOrCompute(55, [&] {
            ++computed;
            return original;
        });
    EXPECT_EQ(computed, 1);
    EXPECT_EQ(first.stats().writes, 1);

    const profiler::ProfileResult warm =
        second.getOrCompute(55, [&]() -> profiler::ProfileResult {
            ADD_FAILURE()
                << "warm instance recomputed a stored entry";
            return profiler::ProfileResult();
        });
    EXPECT_EQ(second.stats().hits, 1);
    EXPECT_EQ(serializeProfileResult(warm),
              serializeProfileResult(cold));
    EXPECT_EQ(serializeProfileResult(warm),
              serializeProfileResult(original));
}

TEST(DiskProfileCache, DisabledInstanceComputesEveryTime)
{
    // A path that cannot be a directory (parent is a regular file).
    const std::string file = freshDir("blocked_parent");
    writeFileBytes(file, "not a directory");
    DiskProfileCache cache(file + "/sub");
    EXPECT_FALSE(cache.enabled());
    int computed = 0;
    for (int i = 0; i < 2; ++i) {
        cache.getOrCompute(3, [&] {
            ++computed;
            return profiler::ProfileResult();
        });
    }
    EXPECT_EQ(computed, 2);
}

TEST(ProfileCacheDiskTier, MemoryMissFallsThroughToDiskAndBack)
{
    const std::string dir = freshDir("tiered");
    const profiler::ProfileResult original = profileMuse();

    // Cold process: memory miss, disk miss, compute, persist.
    {
        ProfileCache cache(8);
        cache.attachDiskCache(
            std::make_shared<DiskProfileCache>(dir));
        int computed = 0;
        const auto res = cache.getOrCompute(77, [&] {
            ++computed;
            return original;
        });
        EXPECT_EQ(computed, 1);
        const ProfileCacheStats stats = cache.stats();
        EXPECT_EQ(stats.misses, 1);
        EXPECT_EQ(stats.diskMisses, 1);
        EXPECT_EQ(stats.diskWrites, 1);

        // Second lookup in the same process: pure memory hit, disk
        // untouched.
        cache.getOrCompute(77, [&] {
            ++computed;
            return original;
        });
        EXPECT_EQ(computed, 1);
        EXPECT_EQ(cache.stats().diskMisses, 1);
    }

    // Warm process (fresh memory cache, same directory): memory
    // miss, disk hit, no compute, byte-identical result.
    {
        ProfileCache cache(8);
        cache.attachDiskCache(
            std::make_shared<DiskProfileCache>(dir));
        const auto res = cache.getOrCompute(
            77, [&]() -> profiler::ProfileResult {
                ADD_FAILURE() << "warm run recomputed";
                return profiler::ProfileResult();
            });
        const ProfileCacheStats stats = cache.stats();
        EXPECT_EQ(stats.misses, 1);
        EXPECT_EQ(stats.diskHits, 1);
        EXPECT_EQ(stats.diskWrites, 0);
        EXPECT_EQ(serializeProfileResult(*res),
                  serializeProfileResult(original));
    }
}

TEST(PlanCache, ScheduleSweepReusesOneLoweredPlan)
{
    const graph::Pipeline p =
        models::buildModel(models::ModelId::Muse);
    profiler::ProfileOptions base;

    const SingleFlightStats before = planCacheStats();
    const auto plan = cachedPlan(p, base);
    ASSERT_NE(plan, nullptr);

    // Schedule-only variations share the lowering key, hence the
    // exact plan object.
    profiler::ProfileOptions overlap = base;
    overlap.schedule.streams = 2;
    overlap.schedule.launchQueueDepth = 8;
    EXPECT_EQ(loweringKey(p, overlap), loweringKey(p, base));
    EXPECT_NE(profileKey(p, overlap), profileKey(p, base));
    EXPECT_EQ(cachedPlan(p, overlap).get(), plan.get());

    // Lowering-affecting knobs produce a different plan entry.
    profiler::ProfileOptions split = base;
    split.lowering.splitWeightStreams = true;
    EXPECT_NE(loweringKey(p, split), loweringKey(p, base));

    const SingleFlightStats after = planCacheStats();
    EXPECT_GE(after.hits - before.hits, 1);

    // And the reused plan profiles bit-identically to a from-scratch
    // profile under the overlap schedule.
    const profiler::ProfileResult direct =
        profiler::Profiler(overlap).profile(p);
    const profiler::ProfileResult via_plan =
        profiler::Profiler(overlap).profileWithPlan(
            p, cachedPlan(p, overlap));
    EXPECT_EQ(via_plan.totalSeconds, direct.totalSeconds); // bitwise
    EXPECT_EQ(via_plan.totalFlops, direct.totalFlops);
    EXPECT_EQ(via_plan.launchOverheadSeconds,
              direct.launchOverheadSeconds);
}

} // namespace
} // namespace mmgen::runtime
