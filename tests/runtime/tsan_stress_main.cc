/**
 * @file
 * ThreadSanitizer stress driver for the parallel loop.
 *
 * Plain `main` (no gtest — the sanitize flow for this binary swaps
 * the whole toolchain to -fsanitize=thread, and TSan must see every
 * synchronizing object, so we keep the dependency surface to the loop
 * itself). Hammers every concurrency path: the shared index cursor,
 * nested loops, exception propagation, and job-count changes between
 * and during loops. Exits nonzero on any lost or duplicated index;
 * TSan failures abort the process by themselves.
 *
 * Built and run by the `tsan` CMake preset (MMGEN_TSAN=ON) and also
 * registered in the default test flow with -fsanitize=thread on this
 * binary alone.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/parallel.hh"

namespace {

using mmgen::runtime::parallelMap;
using mmgen::runtime::setGlobalJobs;

int failures = 0;

void
check(bool ok, const char* what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

/** True when `out` is exactly {0, 1, ..., out.size() - 1}. */
bool
isIota(const std::vector<std::int64_t>& out)
{
    for (std::size_t i = 0; i < out.size(); ++i)
        if (out[i] != static_cast<std::int64_t>(i))
            return false;
    return true;
}

/** Every index of a large loop runs exactly once, many rounds. */
void
stressLoop()
{
    setGlobalJobs(8);
    constexpr std::int64_t n = 20000;
    for (int round = 0; round < 10; ++round) {
        std::vector<std::atomic<int>> counts(n);
        parallelMap(n, [&](std::int64_t i) {
            return counts[static_cast<std::size_t>(i)].fetch_add(
                1, std::memory_order_relaxed);
        });
        for (std::int64_t i = 0; i < n; ++i)
            if (counts[static_cast<std::size_t>(i)].load() != 1) {
                check(false, "loop index count != 1");
                return;
            }
    }
}

/** Nested loops run inline on their thread, not deadlock. */
void
stressNested()
{
    setGlobalJobs(4);
    std::atomic<std::int64_t> total{0};
    parallelMap(64, [&](std::int64_t) {
        return parallelMap(64, [&](std::int64_t) {
                   return total.fetch_add(1, std::memory_order_relaxed);
               }).size();
    });
    check(total.load() == 64 * 64, "nested loop completed");
}

/** Exceptions under contention: lowest index wins, all indices run. */
void
stressExceptions()
{
    setGlobalJobs(8);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::int64_t> executed{0};
        bool threw = false;
        try {
            parallelMap(512, [&](std::int64_t i) {
                executed.fetch_add(1, std::memory_order_relaxed);
                if (i % 31 == 7)
                    throw std::runtime_error("stress");
                return i;
            });
        } catch (const std::runtime_error&) {
            threw = true;
        }
        check(threw, "exception propagated");
        check(executed.load() == 512, "all indices ran despite throw");
    }
}

/** Loops in order at several job counts, resized between loops. */
void
stressGlobalResize()
{
    for (const int jobs : {1, 2, 8, 4}) {
        setGlobalJobs(jobs);
        if (!isIota(parallelMap(4096,
                                [](std::int64_t i) { return i; }))) {
            check(false, "parallelMap order after resize");
            return;
        }
    }
}

/** A second thread changes the job count while loops run. */
void
stressResizeDuringLoops()
{
    std::atomic<bool> done{false};
    std::thread resizer([&] {
        for (int k = 0; !done.load(); ++k)
            setGlobalJobs(1 + k % 8);
    });
    bool ordered = true;
    for (int round = 0; round < 200 && ordered; ++round)
        ordered = isIota(
            parallelMap(257, [](std::int64_t i) { return i; }));
    done.store(true);
    resizer.join();
    check(ordered, "parallelMap order while resized concurrently");
}

} // namespace

int
main()
{
    stressLoop();
    stressNested();
    stressExceptions();
    stressGlobalResize();
    stressResizeDuringLoops();
    setGlobalJobs(0);
    if (failures == 0)
        std::printf("tsan_stress: all clear\n");
    return failures == 0 ? 0 : 1;
}
