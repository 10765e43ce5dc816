/**
 * @file
 * Execution engine: profiles a Pipeline on the simulated GPU.
 *
 * Profiling is an explicit two-layer composition:
 *
 *   Pipeline --lower--> exec::ExecutionPlan --schedule--> exec::Timeline
 *
 * Lowering (exec/plan.hh) traces the pipeline stage by stage — stages
 * whose iterations all share one shape (diffusion denoising, Muse
 * refinement) are traced once and folded into repeat counts, the
 * "fundamental period" the paper plots in Fig. 7, while autoregressive
 * stages are traced iteration by iteration so KV-cache growth is
 * captured exactly — and expands every op through the CostModel into
 * kernel-level plan nodes (an op unchanged since the previous decode
 * step reuses that step's stored nodes). The TimelineScheduler
 * (exec/schedule.hh) then plays the plan onto the GPU, producing real
 * per-kernel [start, end) intervals. The profiler only aggregates the
 * result, once per executed op and kernel in program order; the
 * intervals themselves are built only for the runtime checks. A
 * result holds only aggregates: per-op and per-kernel readers (hotspot
 * tables, trace export) take the plan from `lower` or
 * `runtime::cachedPlan` and schedule it themselves.
 *
 * With default options the schedule is one serial stream and
 * `totalSeconds` is bit-identical to summing every op's roofline time
 * in program order; non-default options model multi-stream overlap,
 * launch queueing and CUDA-graph amortization.
 */

#ifndef MMGEN_PROFILER_ENGINE_HH
#define MMGEN_PROFILER_ENGINE_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/plan.hh"
#include "exec/schedule.hh"
#include "graph/pipeline.hh"
#include "hw/gpu_spec.hh"
#include "kernels/cost_model.hh"
#include "profiler/record.hh"

namespace mmgen::profiler {

/** Knobs for one profiling run. */
struct ProfileOptions
{
    hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    graph::AttentionBackend backend = graph::AttentionBackend::Flash;
    kernels::EfficiencyParams efficiency =
        kernels::EfficiencyParams::defaults();

    /** How pipelines lower to kernel plans (weight-stream splitting). */
    exec::LoweringOptions lowering;

    /** How plans schedule onto the GPU (streams, queue, graphs). */
    exec::ScheduleOptions schedule;
};

/** Everything one profiling run produces. */
struct ProfileResult
{
    std::string model;
    graph::AttentionBackend backend = graph::AttentionBackend::Flash;

    /** End-to-end simulated inference latency (the makespan), seconds. */
    double totalSeconds = 0.0;
    double totalFlops = 0.0;
    double totalHbmBytes = 0.0;
    std::int64_t totalLaunches = 0;
    /**
     * Host launch overhead the schedule paid, seconds (graph-launch
     * amortization already applied).
     */
    double launchOverheadSeconds = 0.0;
    /** Weight bytes streamed from HBM across all passes. */
    double weightBytesRead = 0.0;

    /** Trainable parameters of the whole pipeline. */
    std::int64_t params = 0;

    BreakdownReport breakdown;
    AttentionKindStats attention;
    SequenceLengthTrace seqLens;

    /** Seconds per device-kernel class (Nsight-style grouping). */
    std::map<kernels::KernelClass, double> kernelClassSeconds;

    /**
     * Per-stage operator-category breakdowns, in stage order. A
     * stage's simulated busy seconds are its breakdown's
     * totalSeconds().
     */
    std::vector<std::pair<std::string, BreakdownReport>>
        stageBreakdowns;

    /** Seconds spent in the Attention category. */
    double attentionSeconds() const;

    /**
     * Arithmetic intensity in the paper's Fig. 5 sense: FLOPs over the
     * bytes of model capacity they reuse — i.e. total inference FLOPs
     * per weight byte streamed from HBM. Autoregressive decode re-reads
     * every weight per token (intensity ~2), while a diffusion UNet
     * performs enormous spatial work per weight pass, which is the
     * paper's compute-bound versus memory-bound split.
     */
    double modelArithmeticIntensity() const;
};

/**
 * Profiles pipelines by lowering them to execution plans and playing
 * the plans through the timeline scheduler.
 */
class Profiler
{
  public:
    explicit Profiler(ProfileOptions options = ProfileOptions());

    /** Lower a pipeline to its kernel plan (no scheduling). */
    exec::ExecutionPlan lower(const graph::Pipeline& pipeline) const;

    /** Run one full inference profile of a pipeline. */
    ProfileResult profile(const graph::Pipeline& pipeline) const;

    /**
     * Profile using an already-lowered plan of the same pipeline.
     * This is the incremental re-lowering path: when only schedule
     * knobs change between runs, the caller reuses the cached plan
     * and pays scheduling plus aggregation only. The plan must have
     * been lowered from `pipeline` under this profiler's GPU,
     * backend, efficiency, and lowering options; results are
     * bit-identical to profile(). A plan lowered for another GPU is
     * a FatalError (the scheduler refuses its cost table).
     */
    ProfileResult
    profileWithPlan(const graph::Pipeline& pipeline,
                    std::shared_ptr<const exec::ExecutionPlan> plan)
        const;

    const ProfileOptions& options() const { return opts; }

  private:
    ProfileOptions opts;
};

} // namespace mmgen::profiler

#endif // MMGEN_PROFILER_ENGINE_HH
