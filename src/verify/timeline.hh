/**
 * @file
 * Physics rules over scheduled timelines (P007 / P008).
 *
 * The event-timeline scheduler claims a real [start, end) interval per
 * kernel. These checks keep those claims honest: events must be finite
 * and causally ordered (no negative durations, no overlap within a
 * stream, every dependency finished before its consumer starts), and
 * the makespan must lie between the two bounds any feasible schedule
 * obeys — at least the dependency-graph critical path (and every
 * stream's busy time), at most the fully serialized sum of all work.
 */

#ifndef MMGEN_VERIFY_TIMELINE_HH
#define MMGEN_VERIFY_TIMELINE_HH

#include "exec/plan.hh"
#include "exec/schedule.hh"
#include "verify/diagnostic.hh"
#include "verify/physics.hh"

namespace mmgen::verify {

/**
 * Longest path through the dependency edges exec::KernelDeps derives,
 * weighting each node by its scheduled event duration. A lower bound
 * on any feasible makespan.
 */
double timelineCriticalPath(const exec::ExecutionPlan& plan,
                            const exec::Timeline& timeline);

/** Run P007 (event consistency) and P008 (makespan bounds). */
void checkTimeline(const exec::ExecutionPlan& plan,
                   const exec::Timeline& timeline,
                   const PhysicsContext& ctx, DiagnosticReport& report);

/** checkTimeline into a fresh report. */
DiagnosticReport verifyTimeline(const exec::ExecutionPlan& plan,
                                const exec::Timeline& timeline,
                                const PhysicsContext& ctx);

} // namespace mmgen::verify

#endif // MMGEN_VERIFY_TIMELINE_HH
