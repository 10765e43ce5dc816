/**
 * @file
 * Tests for the trace sink and the Chrome Trace Event export: track
 * interning, span/instant recording invariants, lane numbering, and
 * documents that stream an exec timeline after the sink's spans.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "models/stable_diffusion.hh"
#include "profiler/engine.hh"
#include "serving/simulator.hh"
#include "telemetry/export.hh"
#include "telemetry/trace.hh"
#include "util/logging.hh"

namespace mmgen::telemetry {
namespace {

std::size_t
countOccurrences(const std::string& haystack, const std::string& needle)
{
    std::size_t n = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++n;
    return n;
}

TEST(TraceSink, InternsTracksByProcessThreadPair)
{
    TraceSink sink;
    const int a = sink.track("serving", "lifecycle");
    const int b = sink.track("serving", "gpu 0");
    const int c = sink.track("serving", "lifecycle");
    EXPECT_EQ(a, c);
    EXPECT_NE(a, b);
    ASSERT_EQ(sink.tracks().size(), 2u);
    EXPECT_EQ(sink.tracks()[0].process, "serving");
    EXPECT_EQ(sink.tracks()[0].thread, "lifecycle");
    // Exported tids follow registration order, 1-based.
    std::ostringstream out;
    writeChromeTrace(out, sink);
    EXPECT_NE(out.str().find("\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
                             "\"args\":{\"name\":\"lifecycle\"}"),
              std::string::npos);
    EXPECT_NE(out.str().find("\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
                             "\"args\":{\"name\":\"gpu 0\"}"),
              std::string::npos);
}

TEST(TraceSink, RecordsSpansAndInstantsInInsertionOrder)
{
    TraceSink sink;
    const int t = sink.track("serving", "gpu 0");
    EXPECT_TRUE(sink.empty());
    sink.complete(t, "batch", 10.0, 2.5, "dispatch",
                  Labels{{"size", "4"}});
    sink.instant(t, "admit", 12.0, "lifecycle");
    EXPECT_FALSE(sink.empty());
    ASSERT_EQ(sink.events().size(), 2u);
    const TraceEvent& span = sink.events()[0];
    EXPECT_EQ(span.phase, TraceEvent::Phase::Complete);
    EXPECT_EQ(span.name, "batch");
    EXPECT_EQ(span.startSeconds, 10.0);
    EXPECT_EQ(span.durationSeconds, 2.5);
    EXPECT_EQ(span.args.str(), "size=4");
    EXPECT_EQ(sink.events()[1].phase, TraceEvent::Phase::Instant);
}

TEST(TraceSink, RejectsMalformedSpans)
{
    TraceSink sink;
    const int t = sink.track("p", "t");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(sink.complete(t, "neg", 0.0, -1.0), FatalError);
    EXPECT_THROW(sink.complete(t, "nan", nan, 1.0), FatalError);
    EXPECT_THROW(sink.instant(t, "nan", nan), FatalError);
    // Zero-duration spans are fine (instant-sized work).
    EXPECT_NO_THROW(sink.complete(t, "zero", 5.0, 0.0));
}

TEST(ChromeExport, GroupsTracksSharingAProcessUnderOnePid)
{
    TraceSink sink;
    const int life = sink.track("serving", "lifecycle");
    const int gpu = sink.track("serving", "gpu 0");
    const int other = sink.track("chaos", "events");
    sink.complete(gpu, "batch", 1.0, 2.0);
    sink.instant(life, "admit", 1.5);
    sink.instant(other, "kill", 3.0);
    std::ostringstream out;
    writeChromeTrace(out, sink);
    const std::string text = out.str();
    // One process_name metadata entry per distinct process.
    EXPECT_EQ(countOccurrences(text, "\"process_name\""), 2u);
    // Both serving lanes share the pid of the group's first track.
    EXPECT_NE(text.find("\"name\":\"serving\""), std::string::npos);
    EXPECT_EQ(countOccurrences(text, "\"pid\":1"), 8u)
        << "2 process metas, 2x2 thread metas, and both serving "
        << "events share pid 1:\n"
        << text;
    // Complete spans export as ph:X with dur; instants as ph:i.
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"X\""), 1u);
    EXPECT_EQ(countOccurrences(text, "\"ph\":\"i\""), 2u);
    EXPECT_NE(text.find("\"dur\":"), std::string::npos);
    // Timestamps are microseconds: 1 s -> 1000000.000.
    EXPECT_NE(text.find("\"ts\":1000000.000"), std::string::npos);
}

TEST(ChromeExport, EscapesEventNamesAndArgs)
{
    TraceSink sink;
    const int t = sink.track("p", "t");
    sink.instant(t, "say \"hi\"\n", 0.0, "",
                 Labels{{"k", "v\\w"}});
    std::ostringstream out;
    writeChromeTrace(out, sink);
    EXPECT_NE(out.str().find("say \\\"hi\\\"\\n"), std::string::npos);
    EXPECT_NE(out.str().find("v\\\\w"), std::string::npos);
}

/** A lowered plan and its full schedule. */
struct Scheduled
{
    exec::ExecutionPlan plan;
    exec::Timeline timeline;
};

/** Shared fixture: Stable Diffusion's plan and schedule. */
const Scheduled&
profiledStableDiffusion()
{
    static const Scheduled res = [] {
        const profiler::ProfileOptions opts;
        Scheduled s{profiler::Profiler(opts).lower(
                        models::buildStableDiffusion()),
                    {}};
        s.timeline = exec::TimelineScheduler(opts.gpu).schedule(s.plan);
        return s;
    }();
    return res;
}

/** Serving lanes of a short two-GPU single-pool run. */
TraceSink
servingSink()
{
    serving::ServingConfig cfg;
    cfg.arrivalRate = 2.0;
    cfg.horizonSeconds = 20.0;
    cfg.numGpus = 2;
    TraceSink sink;
    Telemetry tel;
    tel.trace = &sink;
    serving::simulateServing(cfg, serving::LatencyModel(), {}, &tel);
    return sink;
}

/** The document of `sink`, followed by `res`'s timeline if given. */
std::string
document(const TraceSink& sink, const Scheduled* res = nullptr)
{
    std::ostringstream out;
    if (res != nullptr)
        writeChromeTrace(out, sink, res->plan, res->timeline);
    else
        writeChromeTrace(out, sink);
    return out.str();
}

/** A document's event lines, without their separating commas. */
std::vector<std::string>
eventLines(const std::string& doc)
{
    std::vector<std::string> lines;
    std::istringstream in(doc);
    std::string line;
    std::getline(in, line); // {"displayTimeUnit":...,"traceEvents":[
    while (std::getline(in, line) && line != "]}") {
        if (line.ends_with(","))
            line.pop_back();
        lines.push_back(line);
    }
    return lines;
}

/** The number after `"key":` in an event line. */
double
numberField(const std::string& line, const std::string& key)
{
    const std::size_t pos = line.find("\"" + key + "\":");
    if (pos == std::string::npos)
        ADD_FAILURE() << "no " << key << " in " << line;
    return pos == std::string::npos
               ? -1.0
               : std::stod(line.substr(pos + key.size() + 3));
}

int
pidOf(const std::string& line)
{
    return static_cast<int>(numberField(line, "pid"));
}

/** `line` with its pid replaced. */
std::string
withPid(const std::string& line, int pid)
{
    const std::size_t at = line.find("\"pid\":") + 6;
    return line.substr(0, at) + std::to_string(pid) +
           line.substr(line.find(',', at));
}

bool
isSpan(const std::string& line)
{
    return line.starts_with("{\"ph\":\"X\"");
}

TEST(ChromeExport, CombinedDocument)
{
    const Scheduled& res = profiledStableDiffusion();
    const TraceSink sink = servingSink();
    ASSERT_FALSE(sink.empty());
    const std::string sink_only = document(sink);
    const std::string exec_only = document(TraceSink(), &res);
    const std::string combined = document(sink, &res);

    // The sink's lines lead the combined document byte for byte.
    const std::size_t sink_body = sink_only.size() - 4; // "\n]}\n"
    EXPECT_EQ(combined.substr(0, sink_body),
              sink_only.substr(0, sink_body));
    EXPECT_EQ(combined.substr(sink_body, 2), ",\n");

    const std::vector<std::string> sink_lines = eventLines(sink_only);
    const std::vector<std::string> lines = eventLines(combined);
    int largest_sink_pid = 0;
    for (const std::string& line : sink_lines)
        largest_sink_pid = std::max(largest_sink_pid, pidOf(line));
    ASSERT_GT(largest_sink_pid, 0);

    // Every exec pid sits above every sink pid, and the exec spans are
    // the exec-only document's, shifted by the largest sink pid.
    std::vector<std::string> shifted_back;
    for (std::size_t i = sink_lines.size(); i < lines.size(); ++i) {
        const int pid = pidOf(lines[i]);
        EXPECT_GT(pid, largest_sink_pid) << lines[i];
        if (isSpan(lines[i]))
            shifted_back.push_back(
                withPid(lines[i], pid - largest_sink_pid));
    }
    std::vector<std::string> exec_spans;
    for (const std::string& line : eventLines(exec_only))
        if (isSpan(line))
            exec_spans.push_back(line);
    EXPECT_FALSE(exec_spans.empty());
    EXPECT_EQ(shifted_back, exec_spans);
}

TEST(ChromeExport, ExecLanesCarryProvenance)
{
    const Scheduled& res = profiledStableDiffusion();
    const TraceSink sink = servingSink();
    const std::vector<std::string> lines =
        eventLines(document(sink, &res));
    const std::size_t first_exec = eventLines(document(sink)).size();
    ASSERT_LT(first_exec, lines.size());
    const std::vector<std::string>& stages = res.plan.stageNames;
    for (std::size_t i = first_exec; i < lines.size(); ++i) {
        const std::string& line = lines[i];
        // Stages are processes, streams are threads.
        if (line.find("\"process_name\"") != std::string::npos) {
            const std::size_t at = line.find("\"args\":{\"name\":\"") + 16;
            const std::string name =
                line.substr(at, line.find('"', at) - at);
            EXPECT_NE(std::find(stages.begin(), stages.end(), name),
                      stages.end())
                << line;
        } else if (line.find("\"thread_name\"") != std::string::npos) {
            EXPECT_NE(line.find("\"args\":{\"name\":\"stream "),
                      std::string::npos)
                << line;
        } else {
            // Spans carry PlanNode provenance in their args and have
            // non-negative durations.
            ASSERT_TRUE(isSpan(line)) << line;
            EXPECT_GE(numberField(line, "dur"), 0.0) << line;
            EXPECT_EQ(line.find("\"scope\":\"\""), std::string::npos)
                << line;
            EXPECT_NE(line.find("\"scope\":\""), std::string::npos);
            EXPECT_GE(numberField(line, "repeat"), 1.0) << line;
        }
    }
}

TEST(ChromeExport, FoldedRepeatsAreElidedWithAnnotation)
{
    const Scheduled& res = profiledStableDiffusion();
    // Diffusion denoising repeats far more than three times, so at
    // least one span must be flagged as a truncated expansion.
    EXPECT_NE(document(servingSink(), &res).find(", showing 3]\""),
              std::string::npos);
}

TEST(ChromeExport, ExecLanesSortBelowSinkProcesses)
{
    const Scheduled& res = profiledStableDiffusion();
    TraceSink sink;
    sink.track("serving", "lifecycle");
    sink.track("serving", "gpu 0");
    sink.instant(sink.track("chaos", "kills"), "kill", 1.0);
    // Sink pids: serving = 1, chaos = 3; stage si exports as 4 + si.
    std::vector<int> process_pids;
    for (const std::string& line : eventLines(document(sink, &res)))
        if (line.find("\"process_name\"") != std::string::npos)
            process_pids.push_back(pidOf(line));
    std::vector<int> expected = {3, 1}; // chaos, serving by name
    for (std::size_t si = 0; si < res.plan.stageNames.size(); ++si)
        expected.push_back(4 + static_cast<int>(si));
    EXPECT_EQ(process_pids, expected);
}

TEST(ChromeExport, CombinedExportIsDeterministic)
{
    const Scheduled& res = profiledStableDiffusion();
    const std::string a = document(servingSink(), &res);
    EXPECT_EQ(a, document(servingSink(), &res));
    EXPECT_FALSE(a.empty());
}

} // namespace
} // namespace mmgen::telemetry
