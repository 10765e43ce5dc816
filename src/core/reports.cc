#include "reports.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

#include "hw/roofline.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace mmgen::core {

using graph::OpCategory;

TextTable
operatorBreakdownTable(const std::vector<ModelRunResult>& results)
{
    std::vector<std::string> headers = {"Model", "Backend",
                                        "Norm. time"};
    for (OpCategory c : graph::allCategories())
        headers.push_back(graph::opCategoryName(c));
    TextTable table(std::move(headers));

    for (const auto& r : results) {
        const double base_total = r.baseline.totalSeconds;
        for (const profiler::ProfileResult* res :
             {&r.baseline, &r.flash}) {
            std::vector<std::string> row;
            row.push_back(res->model);
            row.push_back(graph::attentionBackendName(res->backend));
            row.push_back(
                formatFixed(res->totalSeconds / base_total, 3));
            for (OpCategory c : graph::allCategories()) {
                // Normalize both bars to the baseline total so the
                // Flash bar shows the shrunken absolute shares, as in
                // the paper's figure.
                const double frac =
                    res->breakdown.categorySeconds(c) / base_total;
                row.push_back(formatPercent(frac));
            }
            table.addRow(std::move(row));
        }
        table.addSeparator();
    }
    return table;
}

TextTable
flashSpeedupTable(const std::vector<ModelRunResult>& results)
{
    TextTable table({"Model", "Baseline (s)", "Flash (s)",
                     "End-to-end speedup"});
    for (const auto& r : results) {
        table.addRow({r.baseline.model,
                      formatFixed(r.baseline.totalSeconds, 3),
                      formatFixed(r.flash.totalSeconds, 3),
                      formatFixed(r.endToEndSpeedup(), 2) + "x"});
    }
    return table;
}

TextTable
attentionSpeedupTable(const std::vector<ModelRunResult>& results)
{
    TextTable table({"Model", "Class", "Attn % (baseline)",
                     "Attn % (flash)", "Attn module speedup"});
    for (const auto& r : results) {
        const graph::ModelClass klass =
            models::buildModel(r.id).klass;
        table.addRow(
            {r.baseline.model, graph::modelClassName(klass),
             formatPercent(r.baselineAttentionFraction()),
             formatPercent(r.flashAttentionFraction()),
             formatFixed(r.attentionModuleSpeedup(), 2) + "x"});
    }
    return table;
}

TextTable
rooflineTable(const std::vector<ModelRunResult>& results,
              const hw::GpuSpec& gpu)
{
    const hw::Roofline roofline(gpu, DType::F16);
    TextTable table({"Model", "Params", "FLOPs", "Arithmetic intensity",
                     "Attainable", "Bound"});
    for (const auto& r : results) {
        const double ai = r.flash.modelArithmeticIntensity();
        const hw::RooflinePoint p =
            roofline.point(r.flash.model, ai);
        table.addRow({r.flash.model, formatCount(double(r.flash.params)),
                      formatFlops(r.flash.totalFlops),
                      formatFixed(ai, 1),
                      formatFlopRate(p.flopsPerSecond),
                      hw::boundKindName(p.bound)});
    }
    return table;
}

TextTable
hotspotTable(const exec::ExecutionPlan& plan, const exec::Timeline& timeline,
             std::size_t top_k)
{
    MMGEN_CHECK(timeline.opSeconds.size() == plan.ops.size(),
                "timeline has " << timeline.opSeconds.size()
                                << " op durations for a plan storing "
                                << plan.ops.size() << " ops");
    struct Agg
    {
        double seconds = 0.0;
        double flops = 0.0;
        std::int64_t calls = 0;
    };
    std::map<std::pair<std::string, graph::OpKind>, Agg> by_site;
    // Every executed instance of a stored op lands on the same site.
    std::vector<Agg*> site_of(plan.ops.size(), nullptr);
    for (const exec::ExecutedOp e : plan.executed()) {
        const exec::PlanOp& op = e.op;
        Agg*& site = site_of[e.opIndex];
        if (site == nullptr)
            site = &by_site[{std::string(plan.str(op.scope)), op.kind}];
        double flops = 0.0;
        for (std::size_t n = op.firstNode;
             n < op.firstNode + op.nodeCount; ++n)
            flops += plan.nodes[n].flops;
        site->seconds += timeline.opSeconds[e.opIndex];
        site->flops += flops * static_cast<double>(op.repeat);
        site->calls += op.repeat;
    }
    std::vector<std::pair<std::pair<std::string, graph::OpKind>, Agg>>
        sites(by_site.begin(), by_site.end());
    std::sort(sites.begin(), sites.end(),
              [](const auto& a, const auto& b) {
                  return a.second.seconds > b.second.seconds;
              });

    TextTable table({"Scope", "Op", "Time", "Share", "Calls",
                     "FLOPs"});
    const std::size_t n = std::min(top_k, sites.size());
    for (std::size_t i = 0; i < n; ++i) {
        const auto& [key, agg] = sites[i];
        table.addRow({key.first, graph::opKindName(key.second),
                      formatTime(agg.seconds),
                      formatPercent(agg.seconds / timeline.makespan),
                      std::to_string(agg.calls),
                      formatFlops(agg.flops)});
    }
    return table;
}

std::string
profileSummary(const profiler::ProfileResult& result)
{
    std::ostringstream oss;
    oss << result.model << " ["
        << graph::attentionBackendName(result.backend)
        << " attention]\n";
    oss << "  params:  " << formatCount(double(result.params)) << "\n";
    oss << "  latency: " << formatTime(result.totalSeconds) << "\n";
    oss << "  flops:   " << formatFlops(result.totalFlops) << "\n";
    oss << "  hbm:     " << formatBytes(result.totalHbmBytes) << "\n";
    oss << "  stages:\n";
    for (const auto& [name, breakdown] : result.stageBreakdowns) {
        oss << "    " << padRight(name, 24)
            << formatTime(breakdown.totalSeconds()) << "\n";
    }
    oss << "  operator breakdown:\n";
    for (OpCategory c : graph::allCategories()) {
        const double frac = result.breakdown.categoryFraction(c);
        if (frac > 0.0) {
            oss << "    " << padRight(graph::opCategoryName(c), 24)
                << formatPercent(frac) << "\n";
        }
    }
    oss << "  kernel classes:\n";
    for (const auto& [klass, seconds] : result.kernelClassSeconds) {
        oss << "    "
            << padRight(kernels::kernelClassName(klass), 24)
            << formatTime(seconds) << "\n";
    }
    return oss.str();
}

} // namespace mmgen::core
