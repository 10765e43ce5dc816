#include "timeline.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace mmgen::verify {

namespace {

/**
 * Relative slack for timeline comparisons. Tighter than the roofline
 * checks' 1e-6: event arithmetic is pure addition, so anything beyond
 * accumulated ulp noise is a scheduler bug, not modeling slop.
 */
constexpr double kTimeTol = 1e-9;

double
slack(const exec::Timeline& timeline)
{
    return kTimeTol * std::max(timeline.makespan, 1e-300);
}

void
addError(DiagnosticReport& report, const char* rule,
         const PhysicsContext& ctx, std::string scope, std::string msg,
         std::string hint = "")
{
    report.add(Diagnostic{Severity::Error, rule, ctx.model, ctx.stage,
                          std::move(scope), std::move(msg),
                          std::move(hint)});
}

/** "scope:label" of one executed kernel of `op`, for findings. */
std::string
nodeScope(const exec::ExecutionPlan& plan, const exec::PlanOp& op,
          std::size_t p)
{
    const std::size_t node = op.firstNode + p;
    if (node >= plan.nodes.size())
        return "";
    const std::string_view scope = plan.str(op.scope);
    const std::string_view label = plan.nodeLabel(node);
    if (scope.empty())
        return std::string(label);
    std::string out(scope);
    out += ":";
    out += label;
    return out;
}

} // namespace

double
timelineCriticalPath(const exec::ExecutionPlan& plan,
                     const exec::Timeline& timeline)
{
    // Every edge names the latest earlier kernel on its lane, so the
    // longest path to each lane's latest kernel is all the state.
    const std::size_t n =
        std::min(plan.executedNodeCount(), timeline.eventCount());
    exec::KernelDeps deps;
    double finish[2] = {0.0, 0.0};
    double longest = 0.0;
    for (const exec::ExecutedOp e : plan.executed()) {
        for (std::size_t p = 0; p < e.op.nodeCount; ++p) {
            const std::size_t i = e.firstNode + p;
            if (i >= n)
                return longest;
            const exec::Lane lane = plan.nodes[e.op.firstNode + p].lane;
            double ready = 0.0;
            deps.next(lane, p == 0, [&](exec::KernelDeps::Dep dep) {
                ready = std::max(
                    ready, finish[static_cast<std::size_t>(dep.lane)]);
            });
            double& f = finish[static_cast<std::size_t>(lane)];
            f = ready + timeline.eventDuration(i);
            longest = std::max(longest, f);
        }
    }
    return longest;
}

void
checkTimeline(const exec::ExecutionPlan& plan,
              const exec::Timeline& timeline,
              const PhysicsContext& ctx, DiagnosticReport& report)
{
    if (timeline.eventCount() != plan.executedNodeCount()) {
        std::ostringstream oss;
        oss << "timeline has " << timeline.eventCount()
            << " events for a plan of " << plan.executedNodeCount()
            << " nodes";
        addError(report, rules::TimelineConsistency, ctx, "",
                 oss.str());
        return;
    }
    // The duration columns are indexed by stored record, so a timeline
    // of another plan could be read past their ends.
    if (timeline.nodeSeconds.size() != plan.nodes.size() ||
        timeline.opSeconds.size() != plan.ops.size()) {
        std::ostringstream oss;
        oss << "timeline has " << timeline.nodeSeconds.size()
            << " node and " << timeline.opSeconds.size()
            << " op durations for a plan storing " << plan.nodes.size()
            << " nodes and " << plan.ops.size() << " ops";
        addError(report, rules::TimelineConsistency, ctx, "",
                 oss.str(), "schedule the plan being checked");
        return;
    }
    if (timeline.eventCount() == 0)
        return;

    const double eps = slack(timeline);
    bool events_ok = true;

    // P007: every event finite and forward-running, within [0,
    // makespan], its dependencies finished, and no two events on one
    // stream overlapping (streams execute in order, so walking program
    // order per stream visits each stream's events in issue order).
    double stream_end[2] = {0.0, 0.0};
    exec::KernelDeps deps;
    for (const exec::ExecutedOp e : plan.executed()) {
        for (std::size_t p = 0; p < e.op.nodeCount; ++p) {
            const std::size_t i = e.firstNode + p;
            const exec::Lane lane = plan.nodes[e.op.firstNode + p].lane;
            exec::KernelDeps::Dep waits[2];
            std::size_t num_waits = 0;
            deps.next(lane, p == 0, [&](exec::KernelDeps::Dep dep) {
                waits[num_waits++] = dep;
            });
            const exec::TimelineEvent ev = timeline.event(i, lane);
            // Findings are rare: name the kernel only when one fires.
            const auto error = [&](std::string msg,
                                   std::string hint = "") {
                addError(report, rules::TimelineConsistency, ctx,
                         nodeScope(plan, e.op, p), std::move(msg),
                         std::move(hint));
                events_ok = false;
            };
            if (!std::isfinite(ev.startSeconds) ||
                !std::isfinite(ev.endSeconds) ||
                ev.startSeconds < 0.0 ||
                ev.endSeconds < ev.startSeconds) {
                std::ostringstream oss;
                oss << "event runs [" << ev.startSeconds << ", "
                    << ev.endSeconds << ")";
                error(oss.str(), "events must run forward from t >= 0");
                continue;
            }
            if (ev.endSeconds > timeline.makespan + eps) {
                std::ostringstream oss;
                oss << "event ends at " << ev.endSeconds
                    << "s, past the makespan " << timeline.makespan
                    << "s";
                error(oss.str());
            }
            double& busy_until = stream_end[ev.stream];
            if (ev.startSeconds + eps < busy_until) {
                std::ostringstream oss;
                oss << "event starts at " << ev.startSeconds
                    << "s while stream " << ev.stream
                    << " is busy until " << busy_until << "s";
                error(oss.str(),
                      "streams execute their kernels in order");
            }
            busy_until = std::max(busy_until, ev.endSeconds);
            for (std::size_t w = 0; w < num_waits; ++w) {
                const exec::KernelDeps::Dep dep = waits[w];
                const double dep_end = timeline.eventEnd[dep.kernel];
                if (ev.startSeconds + eps < dep_end) {
                    std::ostringstream oss;
                    oss << "event starts at " << ev.startSeconds
                        << "s before its dependency (node " << dep.kernel
                        << ") finishes at " << dep_end << "s";
                    error(oss.str());
                }
            }
        }
    }
    if (!events_ok)
        return; // makespan bounds would just repeat the damage

    // P008: the makespan of a feasible schedule can be no shorter
    // than the dependency critical path (or any stream's busy time)
    // and no longer than running every kernel back to back.
    const double critical = timelineCriticalPath(plan, timeline);
    if (timeline.makespan + eps < critical) {
        std::ostringstream oss;
        oss << "makespan " << timeline.makespan
            << "s is below the dependency critical path " << critical
            << "s";
        addError(report, rules::MakespanBound, ctx, "", oss.str(),
                 "no amount of overlap can beat the critical path");
    }
    for (std::size_t s = 0; s < timeline.streamBusySeconds.size();
         ++s) {
        if (timeline.makespan + eps < timeline.streamBusySeconds[s]) {
            std::ostringstream oss;
            oss << "makespan " << timeline.makespan
                << "s is below stream " << s << "'s busy time "
                << timeline.streamBusySeconds[s] << "s";
            addError(report, rules::MakespanBound, ctx, "", oss.str());
        }
    }
    // Upper bound: device work back to back plus every host launch.
    // Under a launch queue, durations exclude overhead (the host pays
    // it), so the overhead term must be added; under synchronous
    // launches it is already inside the durations and only loosens
    // the bound.
    double serialized = timeline.launchOverheadSeconds;
    for (std::size_t i = 0; i < timeline.eventCount(); ++i)
        serialized += timeline.eventDuration(i);
    if (timeline.makespan > serialized + eps) {
        std::ostringstream oss;
        oss << "makespan " << timeline.makespan
            << "s exceeds the fully serialized work " << serialized
            << "s";
        addError(report, rules::MakespanBound, ctx, "", oss.str(),
                 "an in-order schedule never idles past total work");
    }
}

DiagnosticReport
verifyTimeline(const exec::ExecutionPlan& plan,
               const exec::Timeline& timeline,
               const PhysicsContext& ctx)
{
    DiagnosticReport report;
    checkTimeline(plan, timeline, ctx, report);
    return report;
}

} // namespace mmgen::verify
