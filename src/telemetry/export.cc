#include "telemetry/export.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <vector>

#include "kernels/kernel_cost.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace mmgen::telemetry {

namespace {

void
writeLabelsObject(json::Writer& w, const Labels& labels)
{
    w.beginObject();
    for (const auto& [k, v] : labels.items())
        w.field(k, v);
    w.endObject();
}

/** Prometheus label block: {k1="v1",k2="v2"}, empty string if none. */
std::string
prometheusLabels(const Labels& labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto& [k, v] : labels.items()) {
        if (!first)
            out += ',';
        first = false;
        out += prometheusName(k) + "=\"" + json::escape(v) + "\"";
    }
    out += '}';
    return out;
}

} // namespace

std::string
prometheusName(const std::string& name)
{
    std::string out = name;
    for (char& c : out) {
        if (c == '.' || c == '-' || c == ' ')
            c = '_';
    }
    return out;
}

void
writeMetricsJsonLines(std::ostream& out, const MetricsRegistry& registry)
{
    for (const auto& [key, counter] : registry.counters()) {
        json::Writer w(out);
        w.beginObject()
            .field("type", "counter")
            .field("name", key.first);
        w.key("labels");
        writeLabelsObject(w, key.second);
        w.field("value", counter.value()).endObject();
        out << "\n";
    }
    for (const auto& [key, gauge] : registry.gauges()) {
        json::Writer w(out);
        w.beginObject().field("type", "gauge").field("name", key.first);
        w.key("labels");
        writeLabelsObject(w, key.second);
        w.field("value", gauge.value()).endObject();
        out << "\n";
    }
    for (const auto& [key, hist] : registry.histograms()) {
        json::Writer w(out);
        w.beginObject()
            .field("type", "histogram")
            .field("name", key.first);
        w.key("labels");
        writeLabelsObject(w, key.second);
        w.field("count", static_cast<std::int64_t>(hist->count()))
            .field("sum", hist->sum())
            .field("underflow",
                   static_cast<std::int64_t>(hist->underflow()))
            .field("overflow",
                   static_cast<std::int64_t>(hist->overflow()))
            .field("p50", hist->quantile(0.50))
            .field("p95", hist->quantile(0.95))
            .field("p99", hist->quantile(0.99));
        w.key("buckets").beginArray();
        const auto& counts = hist->bucketCounts();
        for (std::size_t i = 0; i < counts.size(); ++i) {
            w.beginArray()
                .value(hist->spec().upperEdge(static_cast<int>(i)))
                .value(static_cast<std::int64_t>(counts[i]))
                .endArray();
        }
        w.endArray().endObject();
        out << "\n";
    }
    for (const auto& [key, series] : registry.allSeries()) {
        json::Writer w(out);
        w.beginObject().field("type", "series").field("name", key.first);
        w.key("labels");
        writeLabelsObject(w, key.second);
        w.key("points").beginArray();
        for (const SamplePoint& p : series.points()) {
            w.beginArray()
                .value(p.tSeconds)
                .value(p.value)
                .endArray();
        }
        w.endArray().endObject();
        out << "\n";
    }
}

void
writePrometheus(std::ostream& out, const MetricsRegistry& registry)
{
    std::string last;
    for (const auto& [key, counter] : registry.counters()) {
        const std::string name = prometheusName(key.first);
        if (name != last)
            out << "# TYPE " << name << " counter\n";
        last = name;
        out << name << prometheusLabels(key.second) << " "
            << counter.value() << "\n";
    }
    last.clear();
    for (const auto& [key, gauge] : registry.gauges()) {
        const std::string name = prometheusName(key.first);
        if (name != last)
            out << "# TYPE " << name << " gauge\n";
        last = name;
        out << name << prometheusLabels(key.second) << " "
            << json::number(gauge.value()) << "\n";
    }
    last.clear();
    for (const auto& [key, hist] : registry.histograms()) {
        const std::string name = prometheusName(key.first);
        if (name != last)
            out << "# TYPE " << name << " histogram\n";
        last = name;
        std::uint64_t cumulative = hist->underflow();
        const auto& counts = hist->bucketCounts();
        for (std::size_t i = 0; i < counts.size(); ++i) {
            cumulative += counts[i];
            Labels le = key.second;
            le.set("le", json::number(
                             hist->spec().upperEdge(static_cast<int>(i))));
            out << name << "_bucket" << prometheusLabels(le) << " "
                << cumulative << "\n";
        }
        Labels inf = key.second;
        inf.set("le", "+Inf");
        out << name << "_bucket" << prometheusLabels(inf) << " "
            << hist->count() << "\n";
        out << name << "_sum" << prometheusLabels(key.second) << " "
            << json::number(hist->sum()) << "\n";
        out << name << "_count" << prometheusLabels(key.second) << " "
            << hist->count() << "\n";
    }
}

namespace {

/** Slices drawn for one folded repeat; longer folds are labeled. */
constexpr std::int64_t kMaxRepeatSlices = 3;

/** Fixed-precision microsecond timestamp, as exec events print it. */
std::string
micros(double seconds)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
    return buf;
}

/**
 * The `traceEvents` array of one document: events are comma-separated
 * and each starts a line. Counts the "X"/"i" events it writes.
 */
class EventArray
{
  public:
    explicit EventArray(std::ostream& out) : out_(out)
    {
        out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    }

    /** A lane-naming ("M") record. */
    void metadata(std::string_view json) { append(json); }

    /** A span or instant. */
    void
    event(std::string_view json)
    {
        append(json);
        ++events_;
    }

    /** Close the array and the document; returns the event count. */
    std::size_t
    close()
    {
        out_ << "\n]}\n";
        return events_;
    }

  private:
    void
    append(std::string_view json)
    {
        if (!first_)
            out_ << ",";
        first_ = false;
        out_ << "\n" << json;
    }

    std::ostream& out_;
    bool first_ = true;
    std::size_t events_ = 0;
};

/**
 * Run `print(dst, capacity)`, an snprintf call, into `buf`, growing
 * the buffer until the whole text fits: a long module scope must
 * never cut an event short and leave the document invalid JSON.
 */
template <typename Print>
std::string_view
printGrowing(std::vector<char>& buf, const Print& print)
{
    const int n = print(buf.data(), buf.size());
    MMGEN_CHECK(n >= 0, "cannot format a trace event");
    const auto len = static_cast<std::size_t>(n);
    if (len >= buf.size()) {
        buf.resize(len + 1);
        print(buf.data(), buf.size());
    }
    return {buf.data(), len};
}

/** Write the sink's lanes and events; returns the largest pid used. */
int
writeSinkEvents(EventArray& events, const TraceSink& sink)
{
    // Tracks sharing a process name share a pid (1 + the smallest
    // track index in the group), so e.g. every replica lane of
    // "serving" nests under one process in the viewer.
    const std::vector<TraceTrack>& tracks = sink.tracks();
    std::map<std::string, int> pids;
    for (std::size_t i = 0; i < tracks.size(); ++i)
        pids.emplace(tracks[i].process, static_cast<int>(i) + 1);

    int largest_pid = 0;
    for (const auto& [process, pid] : pids) {
        largest_pid = std::max(largest_pid, pid);
        events.metadata(
            "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
            ",\"name\":\"process_name\",\"args\":{\"name\":\"" +
            json::escape(process) + "\"}}");
        events.metadata(
            "{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
            ",\"name\":\"process_sort_index\",\"args\":{"
            "\"sort_index\":" +
            std::to_string(pid) + "}}");
    }
    for (std::size_t i = 0; i < tracks.size(); ++i) {
        const std::string pid = std::to_string(pids.at(tracks[i].process));
        const std::string tid = std::to_string(i + 1);
        events.metadata("{\"ph\":\"M\",\"pid\":" + pid +
                        ",\"tid\":" + tid +
                        ",\"name\":\"thread_name\",\"args\":{"
                        "\"name\":\"" +
                        json::escape(tracks[i].thread) + "\"}}");
        events.metadata("{\"ph\":\"M\",\"pid\":" + pid +
                        ",\"tid\":" + tid +
                        ",\"name\":\"thread_sort_index\",\"args\":{"
                        "\"sort_index\":" +
                        tid + "}}");
    }

    for (const TraceEvent& ev : sink.events()) {
        const TraceTrack& t = tracks[static_cast<std::size_t>(ev.track)];
        std::string line = "{\"ph\":\"";
        line += ev.phase == TraceEvent::Phase::Complete ? "X" : "i";
        line += "\",\"pid\":" + std::to_string(pids.at(t.process)) +
                ",\"tid\":" + std::to_string(ev.track + 1) +
                ",\"ts\":" + micros(ev.startSeconds);
        if (ev.phase == TraceEvent::Phase::Complete)
            line += ",\"dur\":" + micros(ev.durationSeconds);
        else
            line += ",\"s\":\"t\"";
        line += ",\"name\":\"" + json::escape(ev.name) + "\"";
        if (!ev.category.empty())
            line += ",\"cat\":\"" + json::escape(ev.category) + "\"";
        if (!ev.args.empty()) {
            line += ",\"args\":{";
            bool firstArg = true;
            for (const auto& [k, v] : ev.args.items()) {
                if (!firstArg)
                    line += ",";
                firstArg = false;
                line += "\"" + json::escape(k) + "\":\"" +
                        json::escape(v) + "\"";
            }
            line += "}";
        }
        line += "}";
        events.event(line);
    }
    return largest_pid;
}

/**
 * Stream a scheduled timeline: stage si is process pidBase + si + 1,
 * stream s is thread s + 1, and every kernel draws
 * min(repeat, kMaxRepeatSlices) slices formatted one at a time.
 */
void
writeExecEvents(EventArray& events, const exec::ExecutionPlan& plan,
                const exec::Timeline& timeline, int pidBase)
{
    MMGEN_CHECK(timeline.eventCount() == plan.executedNodeCount(),
                "timeline has " << timeline.eventCount()
                                << " events for a plan of "
                                << plan.executedNodeCount() << " nodes");
    MMGEN_CHECK(timeline.nodeSeconds.size() == plan.nodes.size() &&
                    timeline.opSeconds.size() == plan.ops.size(),
                "timeline has " << timeline.nodeSeconds.size()
                                << " node and "
                                << timeline.opSeconds.size()
                                << " op durations for a plan storing "
                                << plan.nodes.size() << " nodes and "
                                << plan.ops.size() << " ops");

    // The (stage, stream) lanes in use.
    std::set<std::pair<std::size_t, int>> used_lanes;
    for (const exec::ExecutedOp e : plan.executed()) {
        for (std::size_t n = e.op.firstNode;
             n < e.op.firstNode + e.op.nodeCount; ++n)
            used_lanes.emplace(e.op.stageIndex,
                               timeline.stream(plan.nodes[n].lane));
    }

    // Process metadata: one lane per stage that scheduled any work,
    // in stage order.
    std::set<std::size_t> used_stages;
    for (const auto& lane : used_lanes)
        used_stages.insert(lane.first);
    for (const std::size_t si : used_stages) {
        const std::string& stage = plan.stageNames[si];
        events.metadata(
            "{\"ph\":\"M\",\"pid\":" +
            std::to_string(pidBase + static_cast<int>(si) + 1) +
            ",\"name\":\"process_name\",\"args\":{\"name\":\"" +
            json::escape(stage.empty() ? plan.model : stage) + "\"}}");
    }

    // Thread metadata: one lane per (stage, stream) in use.
    for (const auto& [si, stream] : used_lanes) {
        const exec::Lane lane = stream == 0 ? exec::Lane::Compute
                                            : exec::Lane::Copy;
        events.metadata(
            "{\"ph\":\"M\",\"pid\":" +
            std::to_string(pidBase + static_cast<int>(si) + 1) +
            ",\"tid\":" + std::to_string(stream + 1) +
            ",\"name\":\"thread_name\",\"args\":{\"name\":\"stream " +
            std::to_string(stream) + " (" + exec::laneName(lane) + ")\"}}");
    }

    // Complete events at the scheduler's timestamps.
    std::vector<char> buf(512);
    for (const exec::ExecutedOp e : plan.executed()) {
        const exec::PlanOp& op = e.op;
        const int pid = pidBase + static_cast<int>(op.stageIndex) + 1;
        const std::string esc_scope =
            json::escape(std::string(plan.str(op.scope)));
        for (std::size_t p = 0; p < op.nodeCount; ++p) {
            const exec::PlanNode& node = plan.nodes[op.firstNode + p];
            const exec::TimelineEvent ev =
                timeline.event(e.firstNode + p, node.lane);
            const int tid = ev.stream + 1;
            const std::int64_t instances =
                std::min<std::int64_t>(op.repeat, kMaxRepeatSlices);
            const double per_instance_us =
                ev.durationSeconds() * 1e6 /
                static_cast<double>(op.repeat);

            std::string name(plan.str(node.label));
            if (instances < op.repeat) {
                name += " [x" + std::to_string(op.repeat) +
                        ", showing " + std::to_string(instances) + "]";
            }

            const std::string esc_name = json::escape(name);
            const std::string esc_cat =
                json::escape(kernels::kernelClassName(node.klass));
            const std::string lane = exec::laneName(node.lane);
            double ts = ev.startSeconds * 1e6;
            for (std::int64_t k = 0; k < instances; ++k) {
                events.event(printGrowing(buf, [&](char* dst,
                                                   std::size_t cap) {
                    return std::snprintf(
                        dst, cap,
                        "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                        "\"ts\":%.3f,\"dur\":%.3f,\"name\":\"%s\","
                        "\"cat\":\"%s\",\"args\":{\"scope\":\"%s\","
                        "\"lane\":\"%s\",\"flops\":%.3e,"
                        "\"hbm_bytes\":%.3e,\"repeat\":%lld}}",
                        pid, tid, ts, per_instance_us, esc_name.c_str(),
                        esc_cat.c_str(), esc_scope.c_str(), lane.c_str(),
                        node.flops, node.hbmBytes,
                        static_cast<long long>(op.repeat));
                }));
                ts += per_instance_us;
            }
        }
    }
}

/** The body both writeChromeTrace overloads share. */
std::size_t
writeDocument(std::ostream& out, const TraceSink& sink,
              const exec::ExecutionPlan* plan,
              const exec::Timeline* timeline)
{
    EventArray events(out);
    const int largest_sink_pid = writeSinkEvents(events, sink);
    if (plan != nullptr)
        writeExecEvents(events, *plan, *timeline, largest_sink_pid);
    return events.close();
}

} // namespace

std::size_t
writeChromeTrace(std::ostream& out, const TraceSink& sink)
{
    return writeDocument(out, sink, nullptr, nullptr);
}

std::size_t
writeChromeTrace(std::ostream& out, const TraceSink& sink,
                 const exec::ExecutionPlan& plan,
                 const exec::Timeline& timeline)
{
    return writeDocument(out, sink, &plan, &timeline);
}

} // namespace mmgen::telemetry
