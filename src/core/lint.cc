#include "lint.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "cache/attention_study.hh"
#include "profiler/engine.hh"
#include "verify/memory.hh"
#include "runtime/parallel.hh"
#include "runtime/profile_cache.hh"
#include "util/logging.hh"

namespace mmgen::core {

namespace {

/** Restore the runtime-check toggle on scope exit. */
class RuntimeCheckGuard
{
  public:
    explicit RuntimeCheckGuard(bool enabled)
        : previous(verify::setRuntimeChecks(enabled))
    {
    }
    ~RuntimeCheckGuard() { verify::setRuntimeChecks(previous); }
    RuntimeCheckGuard(const RuntimeCheckGuard&) = delete;
    RuntimeCheckGuard& operator=(const RuntimeCheckGuard&) = delete;

  private:
    bool previous;
};

/** Iterations worth tracing for one stage (first/middle/last). */
std::vector<std::int64_t>
sampleIterations(const graph::Stage& st)
{
    if (!st.perIterationShapes)
        return {0};
    std::vector<std::int64_t> iters = {0, (st.iterations - 1) / 2,
                                       st.iterations - 1};
    iters.erase(std::unique(iters.begin(), iters.end()), iters.end());
    return iters;
}

/** Per-op physics lints over sampled traces of every stage. */
void
lintTracePhysics(const graph::Pipeline& p, const LintOptions& opts,
                 verify::DiagnosticReport& report)
{
    for (graph::AttentionBackend backend : opts.backends) {
        const kernels::CostModel model(opts.gpu, backend,
                                       kernels::EfficiencyParams::
                                           defaults());
        for (std::size_t si = 0; si < p.stages.size(); ++si) {
            const verify::PhysicsContext ctx{p.name,
                                             p.stages[si].name};
            for (std::int64_t iter : sampleIterations(p.stages[si])) {
                const graph::Trace t = p.traceStage(si, iter);
                report.merge(verify::verifyTracePhysics(t, model, ctx));
            }
        }
    }
}

/** Profile-level physics lints: totals, stage sums, breakdown sums. */
void
lintProfile(const graph::Pipeline& p, const LintOptions& opts,
            graph::AttentionBackend backend,
            const profiler::ProfileResult& res,
            verify::DiagnosticReport& report)
{
    const std::string label =
        p.name + " (" + graph::attentionBackendName(backend) + ")";
    verify::checkObservation(
        verify::SimObservation{label + " total", res.totalFlops,
                               res.totalHbmBytes, res.totalSeconds,
                               p.dtype},
        opts.gpu, report);

    double stage_sum = 0.0;
    for (const auto& [stage, seconds] : res.stageSeconds) {
        verify::checkObservation(
            verify::SimObservation{label + " " + stage, 0.0, 0.0,
                                   seconds, p.dtype},
            opts.gpu, report);
        stage_sum += seconds;
    }
    if (std::abs(stage_sum - res.totalSeconds) >
        1e-6 * std::max(1e-12, res.totalSeconds)) {
        std::ostringstream oss;
        oss << "stage seconds sum to " << stage_sum
            << " but the profile total is " << res.totalSeconds;
        report.add(verify::Diagnostic{
            verify::Severity::Error, verify::rules::FiniteResult,
            p.name, "", "", oss.str(),
            "stage accounting must be exhaustive"});
    }
}

/**
 * Latency-monotonicity probe: adding one iteration to the busiest
 * scaled stage must not make the pipeline faster.
 */
void
probeIterationMonotonicity(const graph::Pipeline& p,
                           const LintOptions& opts, double base_seconds,
                           verify::DiagnosticReport& report)
{
    std::size_t busiest = p.stages.size();
    for (std::size_t si = 0; si < p.stages.size(); ++si) {
        const graph::Stage& st = p.stages[si];
        if (st.perIterationShapes)
            continue;
        if (busiest == p.stages.size() ||
            st.iterations > p.stages[busiest].iterations)
            busiest = si;
    }
    if (busiest == p.stages.size())
        return;

    graph::Pipeline longer = p;
    longer.stages[busiest].iterations += 1;
    profiler::ProfileOptions popts;
    popts.gpu = opts.gpu;
    popts.backend = graph::AttentionBackend::Flash;
    const double longer_seconds =
        runtime::cachedProfile(longer, popts)->totalSeconds;

    const double base_iters = static_cast<double>(
        p.stages[busiest].iterations);
    verify::checkLatencyMonotone(
        p.name + " +1 " + p.stages[busiest].name + " iteration",
        {{base_iters, base_seconds}, {base_iters + 1, longer_seconds}},
        report);
}

/**
 * Cache-hit-rate probe: replay the first temporal attention call (the
 * paper's locality-hazard case) through the cache hierarchy and check
 * every reported rate is a probability.
 */
void
probeCacheHitRates(const graph::Pipeline& p, const LintOptions& opts,
                   verify::DiagnosticReport& report)
{
    for (std::size_t si = 0; si < p.stages.size(); ++si) {
        const graph::Trace t = p.traceStage(si, 0);
        for (const graph::Op& op : t.ops()) {
            if (op.kind != graph::OpKind::Attention)
                continue;
            const auto& a = op.as<graph::AttentionAttrs>();
            if (a.kind != graph::AttentionKind::Temporal)
                continue;
            const cache::AttentionCacheReport study =
                cache::runAttentionCacheStudy(
                    opts.gpu, a, op.dtype, /*max_batches=*/2,
                    graph::AttentionBackend::Baseline);
            for (const auto& [klass, stats] : study.stats) {
                const std::string label =
                    p.name + " " + op.scope + " " +
                    kernels::kernelClassName(klass);
                verify::checkHitRate(label + " L1",
                                     study.l1HitRate(klass), report);
                verify::checkHitRate(label + " L2",
                                     study.l2HitRate(klass), report);
            }
            return;
        }
    }
}

/**
 * Memory-liveness lints: S013 dataflow, P011 conservation, P010. The
 * Flash plan comes from the plan cache the profile pass just filled.
 */
void
lintMemory(const graph::Pipeline& p, const LintOptions& opts,
           verify::DiagnosticReport& report)
{
    profiler::ProfileOptions popts;
    popts.gpu = opts.gpu;
    popts.backend = graph::AttentionBackend::Flash;
    const std::shared_ptr<const exec::ExecutionPlan> plan =
        runtime::cachedPlan(p, popts);
    const exec::Timeline timeline =
        exec::TimelineScheduler(opts.gpu).schedule(*plan);
    report.merge(verify::verifyMemory(
        *plan, timeline, opts.gpu, verify::PhysicsContext{p.name, ""},
        verify::Severity::Error));
}

} // namespace

verify::DiagnosticReport
lintPipeline(const graph::Pipeline& pipeline, const LintOptions& opts)
{
    verify::DiagnosticReport report;
    for (const std::string& rule : opts.suppressRules)
        report.suppressRule(rule);
    report.merge(verify::verifyPipeline(pipeline));
    // A structurally broken graph would only produce noise (or throw)
    // downstream; physics lints require a clean graph.
    if (report.hasErrors() || !opts.physics)
        return report;

    // The profiler re-runs the structural verifier in debug builds;
    // it just passed, so skip the duplicate work.
    RuntimeCheckGuard guard(false);
    lintTracePhysics(pipeline, opts, report);
    double flash_seconds = 0.0;
    for (graph::AttentionBackend backend : opts.backends) {
        profiler::ProfileOptions popts;
        popts.gpu = opts.gpu;
        popts.backend = backend;
        const std::shared_ptr<const profiler::ProfileResult> res =
            runtime::cachedProfile(pipeline, popts);
        lintProfile(pipeline, opts, backend, *res, report);
        if (backend == graph::AttentionBackend::Flash)
            flash_seconds = res->totalSeconds;
    }

    if (opts.memory)
        lintMemory(pipeline, opts, report);

    if (opts.probes) {
        if (flash_seconds == 0.0) {
            profiler::ProfileOptions popts;
            popts.gpu = opts.gpu;
            popts.backend = graph::AttentionBackend::Flash;
            flash_seconds =
                runtime::cachedProfile(pipeline, popts)->totalSeconds;
        }
        probeIterationMonotonicity(pipeline, opts, flash_seconds,
                                   report);
        probeCacheHitRates(pipeline, opts, report);
    }
    return report;
}

verify::DiagnosticReport
lintModel(models::ModelId id, const LintOptions& opts)
{
    return lintPipeline(models::buildModel(id), opts);
}

verify::DiagnosticReport
lintAll(const LintOptions& opts)
{
    // The runtime-check toggle is process-global; hoist one guard
    // over the whole parallel region so the per-pipeline guards
    // inside lintPipeline become no-ops (they capture and restore
    // "disabled") and the restore order across loop threads cannot
    // matter.
    RuntimeCheckGuard guard(false);
    const std::vector<models::ModelId>& ids = models::allModels();
    std::vector<verify::DiagnosticReport> reports =
        runtime::parallelMap(
            static_cast<std::int64_t>(ids.size()),
            [&](std::int64_t i) {
                return lintModel(ids[static_cast<std::size_t>(i)],
                                 opts);
            });
    verify::DiagnosticReport report;
    for (verify::DiagnosticReport& r : reports)
        report.merge(r);
    return report;
}

} // namespace mmgen::core
