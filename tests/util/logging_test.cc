/**
 * @file
 * Tests for the error-reporting macros.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/logging.hh"

namespace mmgen {
namespace {

TEST(MmgenCheck, PassesOnTrue)
{
    EXPECT_NO_THROW(MMGEN_CHECK(1 + 1 == 2, "arithmetic"));
}

TEST(MmgenCheck, ThrowsFatalWithMessage)
{
    try {
        MMGEN_CHECK(false, "bad config " << 42);
        FAIL() << "expected FatalError";
    } catch (const FatalError& e) {
        // A user error carries the message only: no source location.
        EXPECT_STREQ(e.what(), "bad config 42");
    }
}

TEST(MmgenAssert, ThrowsPanicWithMessage)
{
    try {
        MMGEN_ASSERT(false, "internal " << "bug");
        FAIL() << "expected PanicError";
    } catch (const PanicError& e) {
        EXPECT_NE(std::string(e.what()).find("internal bug"),
                  std::string::npos);
    }
}

TEST(ErrorKinds, FatalIsNotPanic)
{
    // User errors and internal bugs must be distinguishable so the
    // CLI front-ends can map them to exit codes (gem5 fatal vs panic).
    EXPECT_THROW(MMGEN_CHECK(false, "x"), FatalError);
    EXPECT_THROW(MMGEN_ASSERT(false, "x"), PanicError);
    bool fatal_caught_as_panic = false;
    try {
        MMGEN_CHECK(false, "x");
    } catch (const PanicError&) {
        fatal_caught_as_panic = true;
    } catch (const FatalError&) {
    }
    EXPECT_FALSE(fatal_caught_as_panic);
}

} // namespace
} // namespace mmgen
