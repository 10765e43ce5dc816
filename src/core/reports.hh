/**
 * @file
 * Report builders: render suite results as the paper's tables/figures.
 */

#ifndef MMGEN_CORE_REPORTS_HH
#define MMGEN_CORE_REPORTS_HH

#include <string>
#include <vector>

#include "core/suite.hh"
#include "exec/plan.hh"
#include "exec/schedule.hh"
#include "util/table.hh"

namespace mmgen::core {

/**
 * Operator time breakdown across the suite, baseline and Flash bars
 * per model, Flash normalized to the model's baseline (paper Fig. 6).
 */
TextTable
operatorBreakdownTable(const std::vector<ModelRunResult>& results);

/** End-to-end Flash Attention speedups (paper Table II). */
TextTable flashSpeedupTable(const std::vector<ModelRunResult>& results);

/** Attention-module isolated speedups (Fig. 6 red-bar comparison). */
TextTable
attentionSpeedupTable(const std::vector<ModelRunResult>& results);

/** Roofline placement of the suite (paper Fig. 5). */
TextTable rooflineTable(const std::vector<ModelRunResult>& results,
                        const hw::GpuSpec& gpu);

/** One-model profile summary for examples and debugging. */
std::string profileSummary(const profiler::ProfileResult& result);

/**
 * Top-k hotspots of a scheduled plan: operator instances grouped by
 * (scope, kind), ranked by total simulated time. Reads only the
 * timeline's per-op seconds and makespan, so a
 * TimelineScheduler::scheduleTotals timeline serves; one scheduled
 * from another plan is a FatalError.
 */
TextTable hotspotTable(const exec::ExecutionPlan& plan,
                       const exec::Timeline& timeline,
                       std::size_t top_k = 10);

} // namespace mmgen::core

#endif // MMGEN_CORE_REPORTS_HH
