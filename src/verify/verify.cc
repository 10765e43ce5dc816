#include "verify.hh"

#include <atomic>

namespace mmgen::verify {

namespace {

// Atomic because the parallel zoo lint and sweep drivers read (and
// the lint's scope guards toggle) this flag from loop threads.
#ifdef NDEBUG
std::atomic<bool> runtime_checks{false};
#else
std::atomic<bool> runtime_checks{true};
#endif

} // namespace

bool
runtimeChecksEnabled()
{
    return runtime_checks.load(std::memory_order_relaxed);
}

bool
setRuntimeChecks(bool enabled)
{
    return runtime_checks.exchange(enabled,
                                   std::memory_order_relaxed);
}

} // namespace mmgen::verify
