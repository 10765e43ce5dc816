/**
 * @file
 * Tests for the exec half of the Chrome-trace exporter: golden
 * document structure, per-lane metadata, monotone scheduler
 * timestamps, folded-repeat labeling, and events longer than any
 * fixed formatting buffer.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exec/schedule.hh"
#include "profiler/engine.hh"
#include "telemetry/export.hh"
#include "verify/structural.hh"

namespace mmgen::telemetry {
namespace {

using profiler::ProfileOptions;
using profiler::Profiler;

/** A lowered plan and its full schedule. */
struct Scheduled
{
    exec::ExecutionPlan plan;
    exec::Timeline timeline;
};

Scheduled
scheduled(const graph::Pipeline& p,
          const ProfileOptions& opts = ProfileOptions())
{
    Scheduled s{Profiler(opts).lower(p), {}};
    s.timeline =
        exec::TimelineScheduler(opts.gpu, opts.schedule).schedule(s.plan);
    return s;
}

Scheduled
smallProfile(std::int64_t iterations = 5)
{
    graph::Pipeline p;
    p.name = "toy";
    graph::Stage s;
    s.name = "stage_a";
    s.iterations = iterations;
    s.emit = [](graph::GraphBuilder& b, std::int64_t) {
        // Spatial self-attention attends every position of the 16x16 map.
        b.conv2d(TensorDesc({1, 8, 16, 16}, DType::F16), 8);
        b.attention(graph::AttentionKind::SelfSpatial, 1, 2, 256, 256,
                    16);
    };
    p.stages.push_back(std::move(s));
    // The fixture lints clean, as every profiled pipeline must.
    EXPECT_EQ(verify::verifyPipeline(p).errorCount(), 0);
    return scheduled(p);
}

/** A schedule whose plan streams weights onto the copy lane. */
Scheduled
overlappedProfile()
{
    graph::Pipeline p;
    p.name = "streamer";
    graph::Stage s;
    s.name = "mlp";
    s.iterations = 2;
    s.emit = [](graph::GraphBuilder& b, std::int64_t) {
        // 4096x4096 f16 weights: 32 MiB of memory-bound traffic.
        b.linear(TensorDesc({1, 1, 4096}, DType::F16), 4096);
        b.linear(TensorDesc({1, 1, 4096}, DType::F16), 4096);
    };
    p.stages.push_back(std::move(s));
    ProfileOptions opts;
    opts.lowering.splitWeightStreams = true;
    opts.schedule.streams = 2;
    return scheduled(p, opts);
}

std::size_t
countOccurrences(const std::string& s, const std::string& needle)
{
    std::size_t n = 0, pos = 0;
    while ((pos = s.find(needle, pos)) != std::string::npos) {
        ++n;
        pos += needle.size();
    }
    return n;
}

/** The exec-only document of a schedule. */
std::string
traceOf(const Scheduled& s)
{
    std::ostringstream oss;
    writeChromeTrace(oss, TraceSink(), s.plan, s.timeline);
    return oss.str();
}

/** All "ts" values in emission order. */
std::vector<double>
timestamps(const std::string& json)
{
    std::vector<double> out;
    std::size_t pos = 0;
    while ((pos = json.find("\"ts\":", pos)) != std::string::npos) {
        pos += 5;
        out.push_back(std::stod(json.substr(pos)));
    }
    return out;
}

TEST(ChromeTrace, EmitsWellFormedEvents)
{
    const std::string json = traceOf(smallProfile());

    // Structural sanity: balanced-ish JSON with the expected keys.
    EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\""), 0u);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    // Events carry kernel labels, lowercase kernel-class categories,
    // and the op's scope.
    EXPECT_NE(json.find("\"name\":\"conv2d"), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"flash_fused"), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"conv\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"gemm\""), std::string::npos);
    // Stage lane metadata (process) and stream lane metadata (thread).
    EXPECT_NE(json.find("\"name\":\"process_name\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"stage_a\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"thread_name\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"stream 0 (compute)\""),
              std::string::npos);
    // Braces balance.
    std::int64_t depth = 0;
    bool in_string = false;
    char prev = 0;
    for (char c : json) {
        if (c == '"' && prev != '\\')
            in_string = !in_string;
        if (!in_string) {
            depth += c == '{';
            depth -= c == '}';
        }
        prev = c;
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
}

TEST(ChromeTrace, GoldenEventStructure)
{
    const std::string json = traceOf(smallProfile());

    // One stage lane, one stream lane, and 2 nodes x min(5, 3) repeat
    // instances.
    EXPECT_EQ(countOccurrences(json, "\"name\":\"process_name\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"thread_name\""), 1u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 6u);
    // Every complete event sits on the stage's pid and stream 0's tid.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\",\"pid\":1,\"tid\":1"),
              6u);
    // Both folded nodes advertise the elision.
    EXPECT_EQ(countOccurrences(json, " [x5, showing 3]\""), 6u);

    // Scheduler timestamps are monotone: the serial schedule emits
    // back-to-back slices in program order.
    const std::vector<double> ts = timestamps(json);
    ASSERT_EQ(ts.size(), 6u);
    EXPECT_EQ(ts.front(), 0.0);
    for (std::size_t i = 1; i < ts.size(); ++i)
        EXPECT_GE(ts[i], ts[i - 1]) << "event " << i;
}

TEST(ChromeTrace, LongScopeEventIsWrittenWhole)
{
    // A 400-character module scope pushes the op's complete event past
    // 511 bytes; the event must still carry the whole scope and close.
    const std::string scope(400, 'x');
    graph::Pipeline p;
    p.name = "deep";
    graph::Stage s;
    s.name = "stage_a";
    s.emit = [scope](graph::GraphBuilder& b, std::int64_t) {
        auto guard = b.scope(scope);
        b.conv2d(TensorDesc({1, 8, 16, 16}, DType::F16), 8);
    };
    p.stages.push_back(std::move(s));
    const std::string json = traceOf(scheduled(p));

    // Stage tracing prefixes the stage name to every op scope.
    EXPECT_NE(json.find("\"scope\":\"stage_a." + scope + "\",\"lane\":"),
              std::string::npos);
    EXPECT_TRUE(json.ends_with("\"repeat\":1}}\n]}\n")) << json;
}

TEST(ChromeTrace, RepeatInstancesCapped)
{
    // Ops repeat 3x: every iteration is drawn, so no folded labels.
    const std::string json = traceOf(smallProfile(3));
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""), 6u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"conv2d\""), 3u);
    EXPECT_EQ(countOccurrences(json, "\"name\":\"flash_fused\""), 3u);
    EXPECT_EQ(countOccurrences(json, "showing"), 0u);
}

TEST(ChromeTrace, OverlappedScheduleShowsBothStreamLanes)
{
    const Scheduled res = overlappedProfile();
    ASSERT_TRUE(res.plan.hasWeightStreams);
    const std::string json = traceOf(res);

    EXPECT_NE(json.find("\"name\":\"stream 0 (compute)\""),
              std::string::npos);
    EXPECT_NE(json.find("\"name\":\"stream 1 (copy)\""),
              std::string::npos);
    EXPECT_NE(json.find("weight_stream"), std::string::npos);
    EXPECT_NE(json.find("\"lane\":\"copy\""), std::string::npos);
    EXPECT_NE(json.find("\"lane\":\"compute\""), std::string::npos);
}

} // namespace
} // namespace mmgen::telemetry
