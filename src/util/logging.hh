/**
 * @file
 * Error-reporting and status-message utilities.
 *
 * Follows the gem5 convention of distinguishing user errors (fatal)
 * from internal invariant violations (panic):
 *   - MMGEN_CHECK / fatal: the simulation cannot continue because of a
 *     user-provided configuration (bad arguments, impossible shapes).
 *   - MMGEN_ASSERT / panic: an internal bug in mmgen itself.
 */

#ifndef MMGEN_UTIL_LOGGING_HH
#define MMGEN_UTIL_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace mmgen {

/** Exception thrown for user-caused errors (bad configuration). */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string& msg)
        : std::runtime_error(msg)
    {}
};

/** Exception thrown for internal invariant violations (mmgen bugs). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string& msg)
        : std::logic_error(msg)
    {}
};

namespace detail {

/**
 * Raise a FatalError carrying `msg` alone: a user error names what to
 * fix, not where in mmgen it was detected.
 */
[[noreturn]] void raiseFatal(const std::string& msg);

/** Raise a PanicError with file/line context. */
[[noreturn]] void raisePanic(const char* file, int line,
                             const std::string& msg);

} // namespace detail

/** Print an informational message to stderr. */
void inform(const std::string& msg);

/** Print a warning message to stderr. */
void warn(const std::string& msg);

} // namespace mmgen

/**
 * Check a user-facing precondition; throws mmgen::FatalError with the
 * streamed message, and nothing else, when the condition is false.
 */
#define MMGEN_CHECK(cond, msg)                                             \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::ostringstream mmgen_check_oss_;                           \
            mmgen_check_oss_ << msg;                                       \
            ::mmgen::detail::raiseFatal(mmgen_check_oss_.str());           \
        }                                                                  \
    } while (0)

/**
 * Check an internal invariant; throws mmgen::PanicError with the
 * streamed message when the condition is false.
 */
#define MMGEN_ASSERT(cond, msg)                                            \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::ostringstream mmgen_assert_oss_;                          \
            mmgen_assert_oss_ << "invariant violated: " #cond ": " << msg; \
            ::mmgen::detail::raisePanic(__FILE__, __LINE__,                \
                                        mmgen_assert_oss_.str());          \
        }                                                                  \
    } while (0)

#endif // MMGEN_UTIL_LOGGING_HH
