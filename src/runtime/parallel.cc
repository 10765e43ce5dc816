#include "runtime/parallel.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/logging.hh"

namespace mmgen::runtime {

namespace {

/** Requested job count (0 = auto); each loop resolves it once. */
std::atomic<int> g_requested_jobs{0};
std::atomic<std::int64_t> g_loops_run{0};
std::atomic<std::int64_t> g_indices_executed{0};

/** Set while the current thread runs its share of a parallel loop. */
thread_local bool inside_loop = false;

} // namespace

int
resolveJobs(int requested)
{
    int jobs = requested;
    if (jobs <= 0) {
        if (const char* env = std::getenv("MMGEN_JOBS")) {
            try {
                jobs = std::stoi(env);
            } catch (const std::logic_error&) {
                jobs = 0;
            }
            MMGEN_CHECK(jobs >= 1,
                        "MMGEN_JOBS must be a positive integer, got '"
                            << env << "'");
        }
    }
    if (jobs <= 0)
        jobs = static_cast<int>(std::thread::hardware_concurrency());
    return std::clamp(jobs, 1, 256);
}

void
setGlobalJobs(int jobs)
{
    MMGEN_CHECK(jobs >= 0, "--jobs must be >= 0 (0 = auto), got "
                               << jobs);
    g_requested_jobs = jobs;
}

PoolStats
poolStats()
{
    PoolStats s;
    s.threads = resolveJobs(g_requested_jobs);
    s.loopsRun = g_loops_run;
    s.indicesExecuted = g_indices_executed;
    return s;
}

void
detail::forEachIndex(std::int64_t n,
                     const std::function<void(std::int64_t)>& fn)
{
    if (n <= 0)
        return;
    ++g_loops_run;
    g_indices_executed += n;
    // A loop nested in another loop's share runs inline, so nesting
    // never starts more threads than the job count. Every path runs
    // fn(i) once per index, so results are identical.
    const std::int64_t jobs =
        n == 1 || inside_loop
            ? 1
            : std::min<std::int64_t>(resolveJobs(g_requested_jobs), n);
    if (jobs == 1) {
        for (std::int64_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::int64_t> next{0};
    std::mutex mu; // guards error and errorIndex
    std::exception_ptr error;
    std::int64_t errorIndex = 0;
    const auto share = [&] {
        inside_loop = true;
        for (;;) {
            const std::int64_t i = next++;
            if (i >= n)
                break;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mu);
                if (!error || i < errorIndex) {
                    error = std::current_exception();
                    errorIndex = i;
                }
            }
        }
        inside_loop = false;
    };
    {
        std::vector<std::jthread> helpers;
        helpers.reserve(static_cast<std::size_t>(jobs - 1));
        for (std::int64_t h = 1; h < jobs; ++h)
            helpers.emplace_back(share);
        share(); // the caller claims indices too
    } // joins every helper
    if (error)
        std::rethrow_exception(error);
}

} // namespace mmgen::runtime
