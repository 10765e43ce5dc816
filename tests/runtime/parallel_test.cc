/**
 * @file
 * Tests for the deterministic parallel loop: every index runs exactly
 * once, one job and nested loops run inline on their thread, results
 * are ordered, and failure is deterministic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/parallel.hh"
#include "util/logging.hh"

namespace mmgen::runtime {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    setGlobalJobs(4);
    constexpr std::int64_t n = 10000;
    std::vector<std::atomic<int>> counts(n);
    parallelMap(n, [&](std::int64_t i) {
        return counts[static_cast<std::size_t>(i)].fetch_add(1);
    });
    setGlobalJobs(0);
    for (std::int64_t i = 0; i < n; ++i)
        ASSERT_EQ(counts[static_cast<std::size_t>(i)].load(), 1)
            << "index " << i;
}

TEST(ThreadPool, SingleThreadRunsInlineOnCaller)
{
    setGlobalJobs(1);
    const std::thread::id caller = std::this_thread::get_id();
    bool all_inline = true;
    parallelMap(64, [&](std::int64_t) {
        all_inline &= std::this_thread::get_id() == caller;
        return 0;
    });
    EXPECT_TRUE(all_inline);
    EXPECT_EQ(poolStats().threads, 1);
    setGlobalJobs(0);
}

TEST(ThreadPool, ZeroAndNegativeCountsAreNoOps)
{
    setGlobalJobs(2);
    int calls = 0;
    const auto count = [&](std::int64_t) { return ++calls; };
    EXPECT_TRUE(parallelMap(0, count).empty());
    EXPECT_TRUE(parallelMap(-5, count).empty());
    EXPECT_EQ(calls, 0);
    setGlobalJobs(0);
}

TEST(ThreadPool, LowestThrowingIndexWins)
{
    setGlobalJobs(4);
    std::atomic<std::int64_t> executed{0};
    try {
        parallelMap(100, [&](std::int64_t i) {
            executed.fetch_add(1);
            if (i == 17 || i == 63)
                throw std::runtime_error("boom " + std::to_string(i));
            return i;
        });
        ADD_FAILURE() << "expected parallelMap to rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "boom 17");
    }
    setGlobalJobs(0);
    // Failure is deterministic but not short-circuiting: every index
    // still ran.
    EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPool, NestedForEachRunsInlineWithoutDeadlock)
{
    setGlobalJobs(2);
    std::atomic<std::int64_t> total{0};
    parallelMap(8, [&](std::int64_t) {
        return parallelMap(16, [&](std::int64_t) {
                   return total.fetch_add(1);
               }).size();
    });
    setGlobalJobs(0);
    EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, NestedLoopInCallerShareRunsInline)
{
    setGlobalJobs(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> caller_claimed{false};
    std::atomic<std::int64_t> nested_elsewhere{0};
    parallelMap(8, [&](std::int64_t) {
        if (std::this_thread::get_id() != caller) {
            // Hold every helper until the caller has claimed an index
            // of its own, so the caller's share is never empty.
            while (!caller_claimed.load())
                std::this_thread::yield();
            return 0;
        }
        caller_claimed.store(true);
        // Slow indices leave idle helpers time to take some, were the
        // nested loop to hand any out.
        parallelMap(64, [&](std::int64_t) {
            if (std::this_thread::get_id() != caller)
                nested_elsewhere.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            return 0;
        });
        return 0;
    });
    setGlobalJobs(0);
    EXPECT_TRUE(caller_claimed.load());
    EXPECT_EQ(nested_elsewhere.load(), 0);
}

TEST(ThreadPool, ResolveJobsHonorsRequestAndClamps)
{
    EXPECT_EQ(resolveJobs(5), 5);
    EXPECT_EQ(resolveJobs(1), 1);
    EXPECT_EQ(resolveJobs(100000), 256);
    const int autod = resolveJobs(0);
    EXPECT_GE(autod, 1);
    EXPECT_LE(autod, 256);
}

TEST(ThreadPool, RejectsNegativeJobCount)
{
    EXPECT_THROW(setGlobalJobs(-1), FatalError);
}

TEST(Parallel, MapReturnsResultsInIndexOrder)
{
    const std::vector<std::int64_t> out =
        parallelMap(257, [](std::int64_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::int64_t i = 0; i < 257; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(Parallel, StressManySmallLoops)
{
    setGlobalJobs(8);
    std::int64_t grand = 0;
    for (int round = 0; round < 50; ++round) {
        const std::vector<std::int64_t> out =
            parallelMap(97, [&](std::int64_t i) { return i + round; });
        grand += std::accumulate(out.begin(), out.end(),
                                 std::int64_t{0});
    }
    // sum_{round<50} sum_{i<97} (i + round) = 50*4656 + 97*1225
    EXPECT_EQ(grand, 50 * (96 * 97 / 2) + 97 * (49 * 50 / 2));
    setGlobalJobs(0);
}

} // namespace
} // namespace mmgen::runtime
