/**
 * @file
 * Deterministic parallel loops.
 *
 * The characterization sweeps profile the same model zoo under dozens
 * of (backend, image size, serving rate) configurations; every point
 * is independent, so the harness runs them data-parallel. Two
 * properties are non-negotiable for this repo (see
 * `docs/architecture.md`, "Determinism is non-negotiable"):
 *
 * 1. **Bit-identical output at any job count.** `parallelMap(n, fn)`
 *    returns `{fn(0), ..., fn(n-1)}` *in index order* regardless of
 *    which thread computed what, so rendering the results serially
 *    afterwards produces byte-identical output at any `--jobs` count.
 *    A stochastic task derives its generator from its index
 *    (`Rng::stream(seed, i)`), never from a shared stream.
 * 2. **Jobs = 1 means inline.** One job runs every index on the
 *    calling thread and starts no thread, so the serial path is
 *    exactly the pre-runtime harness.
 *
 * Each loop reads the job count once and owns its threads: it starts
 * `min(jobs, n) - 1` helpers that claim indices from one atomic
 * cursor alongside the caller, and joins them before it returns.
 * Nothing outlives a loop, so `setGlobalJobs` is safe at any time. A
 * loop started from inside another loop's body runs inline.
 */

#ifndef MMGEN_RUNTIME_PARALLEL_HH
#define MMGEN_RUNTIME_PARALLEL_HH

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

namespace mmgen::runtime {

/**
 * Parallel-loop counters since process start. `loopsRun` and
 * `indicesExecuted` count work done, not how it was scheduled, so
 * they are the same at every job count.
 */
struct PoolStats
{
    /** Job count the next loop would use (`resolveJobs`). */
    int threads = 1;
    /** Loops that ran at least one index. */
    std::int64_t loopsRun = 0;
    /** Total indices executed across every loop. */
    std::int64_t indicesExecuted = 0;
};

/**
 * Set the job count of every later loop (0 = auto, see
 * `resolveJobs`). Throws FatalError when negative.
 */
void setGlobalJobs(int jobs);

/**
 * Resolve a requested job count: a positive request wins, else the
 * `MMGEN_JOBS` environment variable, else
 * `std::thread::hardware_concurrency()`, clamped to [1, 256].
 */
int resolveJobs(int requested);

/** Snapshot of the loop counters (see PoolStats). */
PoolStats poolStats();

namespace detail {

/**
 * Run `fn(0) ... fn(n-1)`, each exactly once, and return when all
 * have finished. If any invocation throws, the exception of the
 * *lowest* throwing index is rethrown after every index has run, so
 * failure is deterministic too.
 */
void forEachIndex(std::int64_t n,
                  const std::function<void(std::int64_t)>& fn);

} // namespace detail

/**
 * Map [0, n) through `fn` in parallel. `results[i] == fn(i)`; the
 * result type must be default-constructible and movable.
 */
template <typename Fn>
auto
parallelMap(std::int64_t n, Fn&& fn)
{
    using T = std::decay_t<std::invoke_result_t<Fn&, std::int64_t>>;
    std::vector<T> results(
        static_cast<std::size_t>(n > 0 ? n : 0));
    detail::forEachIndex(n, [&](std::int64_t i) {
        results[static_cast<std::size_t>(i)] = fn(i);
    });
    return results;
}

} // namespace mmgen::runtime

#endif // MMGEN_RUNTIME_PARALLEL_HH
