/**
 * @file
 * mmgen command-line interface.
 *
 * Subcommands:
 *   list                          the model suite and GPU presets
 *   profile <model> [options]     one-model operator breakdown
 *                                 (--trace-out FILE: Chrome/Perfetto
 *                                 timeline export)
 *   hotspots <model> [options]    top operator sites by time
 *   suite [options]               Table II / breakdown across models
 *   taxonomy                      Table I labels
 *   serve <model> [options]       serving simulation: one replica
 *                                 pool, or --replicas N pools
 *                                 behind a router
 *   stats [options]               runtime cache / thread-pool counters
 *   lint [--model X|--all]        graph, physics and memory verifier
 *   analyze --memory [--model X|--all]
 *                                 memory-liveness analysis: weights,
 *                                 peaks, max feasible batch
 *
 * Options:
 *   --gpu a100|v100|h100          simulated device (default a100)
 *   --backend baseline|flash|flash_decode   attention backend
 *
 * `mmgen` without arguments prints every subcommand's options.
 */

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "core/lint.hh"
#include "exec/memory.hh"
#include "core/reports.hh"
#include "core/suite.hh"
#include "core/taxonomy.hh"
#include "models/stable_diffusion.hh"
#include "runtime/disk_cache.hh"
#include "runtime/parallel.hh"
#include "runtime/profile_cache.hh"
#include "runtime/runtime_metrics.hh"
#include "serving/cluster.hh"
#include "serving/latency_surface.hh"
#include "serving/simulator.hh"
#include "workload/workload.hh"
#include "telemetry/consistency.hh"
#include "telemetry/export.hh"
#include "telemetry/telemetry.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace {

using namespace mmgen;

int
usage()
{
    std::cerr
        << "usage: mmgen <command> [options]\n"
        << "  list                        models and GPU presets\n"
        << "  profile <model> [options]   one-model breakdown\n"
        << "  hotspots <model> [options]  top operator sites by time\n"
        << "  suite [options]             both-backend suite run\n"
        << "  taxonomy                    Table I labels\n"
        << "  serve <model> [options]     fault-tolerant serving sim\n"
        << "  stats [options]             run the suite, print runtime\n"
        << "                              cache / thread-pool counters\n"
        << "  lint [--model X|--all]      graph & physics verifier\n"
        << "  analyze --memory [--model X|--all]\n"
        << "                              static memory-liveness\n"
        << "                              analysis & admission bound\n"
        << "options:\n"
        << "  --gpu a100|v100|h100        (default a100)\n"
        << "  --backend baseline|flash|flash_decode\n"
        << "  --jobs N                    parallel sweep/lint lanes\n"
        << "                              (default: MMGEN_JOBS env,\n"
        << "                              else hardware threads)\n"
        << "  --no-disk-cache             skip the persistent profile\n"
        << "                              cache (MMGEN_CACHE_DIR, else\n"
        << "                              $XDG_CACHE_HOME/mmgen, else\n"
        << "                              ~/.cache/mmgen)\n"
        << "profile options (timeline scheduler):\n"
        << "  --streams N                 hardware streams (default 1;\n"
        << "                              2 overlaps weight copies)\n"
        << "  --launch-depth N            host launch-queue depth\n"
        << "                              (default 0 = synchronous)\n"
        << "  --graph-launch              amortize repeated launches\n"
        << "                              as a captured CUDA graph\n"
        << "  --graph-replay-frac F       overhead fraction each graph\n"
        << "                              replay still pays (default 0)\n"
        << "  --stream-weights            peel weight traffic of\n"
        << "                              memory-bound kernels onto\n"
        << "                              the copy stream\n"
        << "serve options (every option applies to every replica):\n"
        << "  --rate R --batch B --horizon S --seed S\n"
        << "  --replicas N                replica pools behind the\n"
        << "                              router (default 1)\n"
        << "  --gpus N                    GPUs per replica (default 1)\n"
        << "  --mix NAME                  client workload mix\n"
        << "                              (poisson|interactive|\n"
        << "                              bursty|diurnal|production)\n"
        << "  --continuous                continuous batching at\n"
        << "                              iteration boundaries\n"
        << "                              (implies --surface)\n"
        << "  --surface                   price batches off the\n"
        << "                              exec-profiled latency\n"
        << "                              surface instead of the\n"
        << "                              linear model\n"
        << "  --mtbf S --mttr S           per-GPU failure process\n"
        << "  --preempt-mtbf S --preempt-mean S\n"
        << "  --straggler-frac F --straggler-slowdown X\n"
        << "  --deadline S --timeout S    request SLO / batch abort\n"
        << "  --retries N --max-queue N   retry budget / admission\n"
        << "  --degrade-threshold N       queue depth to degrade at\n"
        << "  --degrade-steps F           fraction of denoise steps\n"
        << "                              kept in degraded mode\n"
        << "  --router round-robin|least-loaded|domain-aware\n"
        << "  --chaos NAME                none|kill-replica|\n"
        << "                              kill-replica-at-zero|\n"
        << "                              rolling-kill|degrade-domain|\n"
        << "                              straggle-gpu\n"
        << "  --hedge-delay S             hedge after S seconds, or\n"
        << "  --hedge-quantile Q          derive delay from the\n"
        << "                              Q-quantile batch service\n"
        << "                              (needs --replicas >= 2)\n"
        << "  --breaker-threshold N       failures to open breaker\n"
        << "  --breaker-open S            open duration before probe\n"
        << "  --ckpt-interval N           checkpoint every N iters of\n"
        << "                              the dominant pipeline stage\n"
        << "                              (greedy batching only)\n"
        << "  --ckpt-cost S               GPU-seconds per checkpoint\n"
        << "  --probe-interval S          health-probe period\n"
        << "  --domain-size N             replicas per failure domain\n"
        << "                              (default 1: one per replica)\n"
        << "  --domain-mtbf S --domain-mttr S\n"
        << "                              correlated rack outages\n"
        << "telemetry options (profile / serve / stats):\n"
        << "  --metrics-out FILE          JSON-lines metrics dump\n"
        << "  --prom-out FILE             Prometheus text metrics\n"
        << "  --trace-out FILE            Chrome/Perfetto trace: the\n"
        << "                              scheduled exec timeline\n"
        << "                              (profile), after the\n"
        << "                              serving spans (serve)\n"
        << "  --sample-interval S         sample serving state every\n"
        << "                              S sim-seconds into time\n"
        << "                              series (serve only)\n"
        << "lint options:\n"
        << "  --model X | --all           lint one model or the zoo\n"
        << "  --json                      machine-readable findings\n"
        << "  --rules                     list the rule registry\n"
        << "  --no-physics --no-probes    structural checks only\n"
        << "  --no-memory                 skip the memory-liveness\n"
        << "                              pass (S013/P010/P011)\n"
        << "  --suppress RULE             drop one rule's findings\n"
        << "                              (repeatable)\n"
        << "analyze options:\n"
        << "  --memory                    the liveness analysis (peak\n"
        << "                              residency, reuse bounds,\n"
        << "                              max feasible batch)\n"
        << "  --model X | --all --json    as for lint\n";
    return 2;
}

hw::GpuSpec
parseGpu(const std::string& name)
{
    if (name == "a100")
        return hw::GpuSpec::a100_80gb();
    if (name == "v100")
        return hw::GpuSpec::v100_32gb();
    if (name == "h100")
        return hw::GpuSpec::h100_80gb();
    MMGEN_CHECK(false, "unknown GPU '" << name
                                       << "' (a100|v100|h100)");
}

graph::AttentionBackend
parseBackend(const std::string& name)
{
    if (name == "baseline")
        return graph::AttentionBackend::Baseline;
    if (name == "flash")
        return graph::AttentionBackend::Flash;
    if (name == "flash_decode")
        return graph::AttentionBackend::FlashDecode;
    MMGEN_CHECK(false, "unknown backend '"
                           << name
                           << "' (baseline|flash|flash_decode)");
}

models::ModelId
parseModel(const std::string& name)
{
    for (models::ModelId id : models::allModels()) {
        if (models::modelName(id) == name)
            return id;
    }
    MMGEN_CHECK(false, "unknown model '" << name
                                         << "'; see `mmgen list`");
}

double
parseDouble(const std::string& arg, const std::string& value)
{
    std::size_t pos = 0;
    double v = 0.0;
    try {
        v = std::stod(value, &pos);
    } catch (const std::logic_error&) {
        pos = 0;
    }
    MMGEN_CHECK(!value.empty() && pos == value.size(),
                arg << " needs a number, got '" << value << "'");
    return v;
}

std::int64_t
parseInt(const std::string& arg, const std::string& value)
{
    std::size_t pos = 0;
    std::int64_t v = 0;
    try {
        v = static_cast<std::int64_t>(std::stoll(value, &pos));
    } catch (const std::logic_error&) {
        pos = 0;
    }
    MMGEN_CHECK(!value.empty() && pos == value.size(),
                arg << " needs an integer, got '" << value << "'");
    return v;
}

/** parseInt for an `int` flag: out-of-range values fail, never wrap. */
int
parseInt32(const std::string& arg, const std::string& value)
{
    using limits = std::numeric_limits<int>;
    const std::int64_t v = parseInt(arg, value);
    MMGEN_CHECK(v >= limits::min() && v <= limits::max(),
                arg << " needs an integer in [" << limits::min() << ", "
                    << limits::max() << "], got '" << value << "'");
    return static_cast<int>(v);
}

struct Options
{
    hw::GpuSpec gpu = hw::GpuSpec::a100_80gb();
    graph::AttentionBackend backend = graph::AttentionBackend::Flash;
    std::vector<std::string> positional;

    // profile subcommand knobs
    exec::ScheduleOptions schedule;
    exec::LoweringOptions lowering;

    // lint subcommand knobs
    bool lintAll = false;
    bool lintJson = false;
    bool lintRules = false;
    bool lintPhysics = true;
    bool lintProbes = true;
    bool lintMemory = true;
    std::vector<std::string> suppressRules;

    // analyze subcommand knobs
    bool memoryAnalysis = false;

    // serve subcommand knobs
    serving::ServingConfig serving;
    serving::ResilienceConfig resilience;
    std::int64_t degradeThreshold = 0;
    double degradeStepsKept = 0.5;
    std::string mixName;
    bool continuous = false;
    bool useSurface = false;

    // serve replica-pool and cluster-policy knobs
    int replicas = 1;
    serving::RouterPolicy router = serving::RouterPolicy::LeastLoaded;
    std::string chaosName;
    double hedgeDelay = 0.0;
    double hedgeQuantile = 0.0;
    serving::CircuitBreakerPolicy breaker;
    std::int64_t ckptInterval = 0;
    double ckptCost = 0.0;
    serving::ProbeModel probe;
    int domainSize = 1;

    /**
     * Persistent profile cache under MMGEN_CACHE_DIR /
     * $XDG_CACHE_HOME/mmgen / ~/.cache/mmgen. On by default so warm
     * reruns load results instead of re-simulating; --no-disk-cache
     * opts out (results are bit-identical either way).
     */
    bool diskCache = true;

    // telemetry knobs (profile / serve / stats)
    std::string metricsOut;
    std::string promOut;
    std::string traceOut;
    double sampleInterval = 0.0;

    bool
    wantsTelemetry() const
    {
        return !metricsOut.empty() || !promOut.empty() ||
               !traceOut.empty() || sampleInterval > 0.0;
    }
};

serving::RouterPolicy
parseRouter(const std::string& name)
{
    if (name == "round-robin")
        return serving::RouterPolicy::RoundRobin;
    if (name == "least-loaded")
        return serving::RouterPolicy::LeastLoaded;
    if (name == "domain-aware")
        return serving::RouterPolicy::FailureDomainAware;
    MMGEN_CHECK(false,
                "unknown router '"
                    << name
                    << "' (round-robin|least-loaded|domain-aware)");
}

Options
parseOptions(int argc, char** argv, int first)
{
    Options opts;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            MMGEN_CHECK(i + 1 < argc, arg << " needs a value");
            return argv[++i];
        };
        auto nextDouble = [&]() { return parseDouble(arg, next()); };
        auto nextInt = [&]() { return parseInt(arg, next()); };
        auto nextInt32 = [&]() { return parseInt32(arg, next()); };
        if (arg == "--gpu")
            opts.gpu = parseGpu(next());
        else if (arg == "--backend")
            opts.backend = parseBackend(next());
        else if (arg == "--jobs") {
            const int jobs = nextInt32();
            MMGEN_CHECK(jobs >= 1, "--jobs must be >= 1, got "
                                       << jobs);
            runtime::setGlobalJobs(jobs);
        }
        else if (arg == "--rate")
            opts.serving.arrivalRate = nextDouble();
        else if (arg == "--gpus")
            opts.serving.numGpus = nextInt32();
        else if (arg == "--batch")
            opts.serving.maxBatch = nextInt32();
        else if (arg == "--horizon")
            opts.serving.horizonSeconds = nextDouble();
        else if (arg == "--seed")
            opts.serving.seed =
                static_cast<std::uint64_t>(nextInt());
        else if (arg == "--mtbf")
            opts.resilience.faults.failureMtbfSeconds = nextDouble();
        else if (arg == "--mttr")
            opts.resilience.faults.failureMttrSeconds = nextDouble();
        else if (arg == "--preempt-mtbf")
            opts.resilience.faults.preemptionMtbfSeconds =
                nextDouble();
        else if (arg == "--preempt-mean")
            opts.resilience.faults.preemptionMeanSeconds =
                nextDouble();
        else if (arg == "--straggler-frac")
            opts.resilience.faults.stragglerFraction = nextDouble();
        else if (arg == "--straggler-slowdown")
            opts.resilience.faults.stragglerSlowdown = nextDouble();
        else if (arg == "--deadline")
            opts.resilience.deadline.deadlineSeconds = nextDouble();
        else if (arg == "--timeout")
            opts.resilience.deadline.batchTimeoutSeconds =
                nextDouble();
        else if (arg == "--retries")
            opts.resilience.retry.maxRetries = nextInt32();
        else if (arg == "--max-queue")
            opts.resilience.admission.maxQueueLength = nextInt();
        else if (arg == "--streams")
            opts.schedule.streams = nextInt32();
        else if (arg == "--launch-depth")
            opts.schedule.launchQueueDepth = nextInt32();
        else if (arg == "--graph-launch")
            opts.schedule.graphLaunch = true;
        else if (arg == "--graph-replay-frac")
            opts.schedule.graphReplayOverheadFraction = nextDouble();
        else if (arg == "--stream-weights")
            opts.lowering.splitWeightStreams = true;
        else if (arg == "--model")
            opts.positional.push_back(next());
        else if (arg == "--all")
            opts.lintAll = true;
        else if (arg == "--json")
            opts.lintJson = true;
        else if (arg == "--rules")
            opts.lintRules = true;
        else if (arg == "--no-physics")
            opts.lintPhysics = false;
        else if (arg == "--no-probes")
            opts.lintProbes = false;
        else if (arg == "--no-memory")
            opts.lintMemory = false;
        else if (arg == "--suppress")
            opts.suppressRules.push_back(next());
        else if (arg == "--memory")
            opts.memoryAnalysis = true;
        else if (arg == "--mix")
            opts.mixName = next();
        else if (arg == "--continuous")
            opts.continuous = true;
        else if (arg == "--surface")
            opts.useSurface = true;
        else if (arg == "--degrade-threshold")
            opts.degradeThreshold = nextInt();
        else if (arg == "--degrade-steps")
            opts.degradeStepsKept = nextDouble();
        else if (arg == "--replicas")
            opts.replicas = nextInt32();
        else if (arg == "--router")
            opts.router = parseRouter(next());
        else if (arg == "--chaos")
            opts.chaosName = next();
        else if (arg == "--hedge-delay")
            opts.hedgeDelay = nextDouble();
        else if (arg == "--hedge-quantile")
            opts.hedgeQuantile = nextDouble();
        else if (arg == "--breaker-threshold")
            opts.breaker.failureThreshold = nextInt32();
        else if (arg == "--breaker-open")
            opts.breaker.openSeconds = nextDouble();
        else if (arg == "--ckpt-interval")
            opts.ckptInterval = nextInt();
        else if (arg == "--ckpt-cost")
            opts.ckptCost = nextDouble();
        else if (arg == "--probe-interval")
            opts.probe.intervalSeconds = nextDouble();
        else if (arg == "--domain-size")
            opts.domainSize = nextInt32();
        else if (arg == "--metrics-out")
            opts.metricsOut = next();
        else if (arg == "--prom-out")
            opts.promOut = next();
        else if (arg == "--trace-out")
            opts.traceOut = next();
        else if (arg == "--sample-interval") {
            opts.sampleInterval = nextDouble();
            MMGEN_CHECK(opts.sampleInterval > 0.0,
                        "--sample-interval must be > 0, got "
                            << opts.sampleInterval);
        }
        else if (arg == "--no-disk-cache")
            opts.diskCache = false;
        else if (arg == "--domain-mtbf")
            opts.resilience.faults.domainMtbfSeconds = nextDouble();
        else if (arg == "--domain-mttr")
            opts.resilience.faults.domainMttrSeconds = nextDouble();
        else if (!arg.empty() && arg[0] == '-')
            MMGEN_CHECK(false, "unknown option " << arg);
        else
            opts.positional.push_back(arg);
    }
    return opts;
}

/**
 * Write the requested metric / trace artifacts, logging each path.
 * With a kept-plan profile, the trace streams its exec timeline after
 * the sink's spans.
 */
void
writeTelemetryOutputs(const Options& opts,
                      const telemetry::MetricsRegistry& registry,
                      const telemetry::TraceSink& sink,
                      const profiler::ProfileResult* exec = nullptr)
{
    auto open = [](const std::string& path) {
        std::ofstream out(path);
        MMGEN_CHECK(static_cast<bool>(out), "cannot open " << path);
        return out;
    };
    if (!opts.metricsOut.empty()) {
        std::ofstream out = open(opts.metricsOut);
        telemetry::writeMetricsJsonLines(out, registry);
        std::cout << "wrote " << registry.size() << " metrics to "
                  << opts.metricsOut << "\n";
    }
    if (!opts.promOut.empty()) {
        std::ofstream out = open(opts.promOut);
        telemetry::writePrometheus(out, registry);
        std::cout << "wrote Prometheus metrics to " << opts.promOut
                  << "\n";
    }
    if (!opts.traceOut.empty()) {
        std::ofstream out = open(opts.traceOut);
        const std::size_t events =
            exec != nullptr
                ? telemetry::writeChromeTrace(out, sink, *exec->plan,
                                              exec->timeline)
                : telemetry::writeChromeTrace(out, sink);
        std::cout << "wrote " << events << " trace events to "
                  << opts.traceOut << "\n";
    }
}

/** Profile knobs selected by --gpu, --backend and the scheduler flags. */
profiler::ProfileOptions
profileOptions(const Options& opts)
{
    profiler::ProfileOptions popts;
    popts.gpu = opts.gpu;
    popts.backend = opts.backend;
    popts.lowering = opts.lowering;
    popts.schedule = opts.schedule;
    return popts;
}

int
cmdList()
{
    std::cout << "models:\n";
    for (models::ModelId id : models::allModels()) {
        const graph::Pipeline p = models::buildModel(id);
        std::cout << "  " << padRight(models::modelName(id), 18)
                  << padRight(graph::modelClassName(p.klass), 22)
                  << formatCount(double(p.totalParams()))
                  << " params\n";
    }
    std::cout << "gpus: a100 (A100-SXM4-80GB), v100 (V100-SXM2-32GB), "
                 "h100 (H100-SXM5-80GB)\n";
    std::cout << "backends: baseline, flash, flash_decode\n";
    return 0;
}

int
cmdProfile(const Options& opts)
{
    MMGEN_CHECK(opts.positional.size() == 1,
                "profile needs exactly one model name");
    const models::ModelId id = parseModel(opts.positional[0]);
    profiler::ProfileOptions popts = profileOptions(opts);
    // The trace streams the retained plan + timeline.
    popts.keepPlan = !opts.traceOut.empty();
    const profiler::ProfileResult res =
        *runtime::cachedProfile(models::buildModel(id), popts);
    std::cout << "GPU: " << opts.gpu.name << "\n\n";
    std::cout << core::profileSummary(res);
    if (opts.wantsTelemetry()) {
        telemetry::MetricsRegistry registry;
        telemetry::TraceSink sink;
        const telemetry::Labels labels{
            {"model", res.model},
            {"gpu", opts.gpu.name},
            {"backend",
             graph::attentionBackendName(opts.backend)}};
        registry.gauge("profile.total_seconds", labels)
            .set(res.totalSeconds);
        registry.gauge("profile.total_flops", labels)
            .set(res.totalFlops);
        registry.gauge("profile.total_hbm_bytes", labels)
            .set(res.totalHbmBytes);
        registry.gauge("profile.launch_overhead_seconds", labels)
            .set(res.launchOverheadSeconds);
        registry
            .counter("profile.kernel_launches", labels)
            .add(res.totalLaunches);
        runtime::publishRuntimeMetrics(registry);
        writeTelemetryOutputs(opts, registry, sink,
                              res.plan != nullptr ? &res : nullptr);
    }
    return 0;
}

int
cmdHotspots(const Options& opts)
{
    MMGEN_CHECK(opts.positional.size() == 1,
                "hotspots needs exactly one model name");
    const models::ModelId id = parseModel(opts.positional[0]);
    profiler::ProfileOptions popts;
    popts.gpu = opts.gpu;
    popts.backend = opts.backend;
    popts.keepPlan = true;
    const profiler::ProfileResult res =
        profiler::Profiler(popts).profile(models::buildModel(id));
    std::cout << res.model << " on " << opts.gpu.name << " ["
              << graph::attentionBackendName(opts.backend)
              << "], total " << formatTime(res.totalSeconds) << "\n\n";
    std::cout << core::hotspotTable(res, 15).render();
    return 0;
}

int
cmdSuite(const Options& opts)
{
    core::CharacterizationSuite suite(opts.gpu);
    const std::vector<core::ModelRunResult> results =
        suite.runAll(models::allModels());
    std::cout << "GPU: " << opts.gpu.name << "\n\n";
    std::cout << core::flashSpeedupTable(results).render() << "\n";
    std::cout << core::attentionSpeedupTable(results).render() << "\n";
    std::cout << core::rooflineTable(results, opts.gpu).render();
    return 0;
}

int
cmdTaxonomy(const Options& opts)
{
    core::CharacterizationSuite suite(opts.gpu);
    const std::vector<core::ModelRunResult> results =
        suite.runAll(models::allModels());
    std::cout
        << core::taxonomyTable(core::buildTaxonomy(results)).render();
    return 0;
}

/**
 * Exec-derived pricing for `serve --continuous/--surface`: profile the
 * scaled pipeline at a power-of-two batch grid up to --batch, and at a
 * size grid covering the mix's heavy tail when one is configured.
 */
serving::BatchLatencySurface
serveSurface(const graph::Pipeline& pipeline, const Options& opts,
             const serving::ServingConfig& scfg)
{
    std::vector<int> batches;
    for (int b = 1; b < scfg.maxBatch; b *= 2)
        batches.push_back(b);
    batches.push_back(scfg.maxBatch);
    std::vector<double> sizes = {1.0};
    if (scfg.workload.enabled() && !scfg.workload.isPlainPoisson())
        sizes = {0.5, 1.0, 2.0, 4.0};
    serving::BatchLatencySurface surface = serving::profileLatencySurface(
        pipeline, opts.gpu, exec::ScheduleOptions(), batches, sizes);
    std::cout << "latency surface: " << batches.size() << "x"
              << sizes.size() << " grid, " << surface.iterations
              << " iterations per request\n";
    return surface;
}

/**
 * `serve`: one replica pool, or `--replicas N` pools behind a router.
 * Every run builds one cluster configuration, simulates it once and
 * prints one report.
 */
int
cmdServe(const Options& opts)
{
    MMGEN_CHECK(opts.positional.size() == 1,
                "serve needs exactly one model name");
    MMGEN_CHECK(opts.replicas >= 1, "--replicas must be >= 1, got "
                                        << opts.replicas);
    MMGEN_CHECK(opts.domainSize >= 1,
                "--domain-size must be >= 1, got " << opts.domainSize);
    MMGEN_CHECK(opts.replicas >= 2 ||
                    (opts.hedgeDelay <= 0.0 && opts.hedgeQuantile <= 0.0),
                "hedging needs --replicas >= 2: a hedge runs on another "
                "replica than its primary");
    const models::ModelId id = parseModel(opts.positional[0]);
    const graph::Pipeline pipeline = models::buildModel(id);
    const serving::LatencyModel latency =
        serving::profileLatencyModel(pipeline, opts.gpu);

    serving::ResilienceConfig res = opts.resilience;
    if (opts.degradeThreshold > 0) {
        // For Stable Diffusion the degraded variant is profiled for
        // real (fewer denoising steps); for other models the kept
        // fraction approximates the service scale, since generator
        // iterations dominate and scale linearly with steps.
        if (id == models::ModelId::StableDiffusion) {
            models::StableDiffusionConfig cheap;
            cheap.denoiseSteps = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(
                       static_cast<double>(cheap.denoiseSteps) *
                       opts.degradeStepsKept));
            res.degradation = serving::degradationFromPipelines(
                pipeline, models::buildStableDiffusion(cheap),
                opts.gpu, 1.0 - opts.degradeStepsKept);
        } else {
            res.degradation.serviceScale = opts.degradeStepsKept;
            res.degradation.qualityCost =
                1.0 - opts.degradeStepsKept;
        }
        res.degradation.queueThreshold = opts.degradeThreshold;
    }

    serving::ServingConfig scfg = opts.serving;
    if (!opts.mixName.empty())
        scfg.workload = workload::namedWorkloadMix(opts.mixName);
    scfg.continuousBatching = opts.continuous;
    // Reject bad knobs before pricing: the surface grid is sized by
    // --batch.
    scfg.validate();
    serving::BatchLatencySurface surface;
    if (opts.continuous || opts.useSurface)
        surface = serveSurface(pipeline, opts, scfg);

    serving::ClusterConfig cc = serving::singlePoolCluster(scfg, latency);
    cc.resilience = res;
    cc.router = opts.router;
    cc.breaker = opts.breaker;
    cc.probe = opts.probe;
    cc.replicas.clear();
    for (int r = 0; r < opts.replicas; ++r)
        cc.replicas.push_back(serving::ReplicaSpec{
            latency, scfg.numGpus, r / opts.domainSize, surface});
    if (opts.hedgeDelay > 0.0)
        cc.hedge.delaySeconds = opts.hedgeDelay;
    else if (opts.hedgeQuantile > 0.0)
        cc.hedge.delaySeconds = serving::hedgeDelayForQuantile(
            latency, cc.maxBatch, opts.hedgeQuantile);
    if (opts.ckptInterval > 0)
        cc.checkpoint = serving::checkpointFromPipeline(
            pipeline, opts.ckptInterval, opts.ckptCost);
    if (!opts.chaosName.empty())
        cc.chaos = serving::namedChaosScenario(
            opts.chaosName, opts.replicas, cc.horizonSeconds);

    telemetry::MetricsRegistry registry;
    telemetry::TraceSink sink;
    telemetry::Telemetry tel;
    tel.metrics = &registry;
    tel.trace = &sink;
    tel.sampleIntervalSeconds = opts.sampleInterval;

    const serving::ClusterReport r = serving::simulateCluster(
        cc, opts.wantsTelemetry() ? &tel : nullptr);

    std::cout << pipeline.name << " on " << opts.replicas
              << " replica(s) x " << scfg.numGpus << " "
              << opts.gpu.name << " ["
              << serving::routerPolicyName(cc.router)
              << " router, chaos: " << cc.chaos.name
              << "] (batch-1 latency "
              << formatTime(latency.baseSeconds) << ")\n\n";

    const serving::ServingReport& s = r.serving;
    auto counts = [](std::initializer_list<std::int64_t> values) {
        std::string out;
        for (std::int64_t v : values)
            out += (out.empty() ? "" : " / ") + std::to_string(v);
        return out;
    };
    TextTable table({"Metric", "Value"});
    table.addRow({"offered load", formatFixed(s.offeredLoad, 2)});
    table.addRow({"mean availability",
                  formatPercent(s.meanAvailability)});
    table.addRow({"arrived", std::to_string(s.arrived)});
    table.addRow({"completed", std::to_string(s.completed)});
    table.addRow({"throughput",
                  formatFixed(s.throughput, 2) + " req/s"});
    table.addRow({"goodput", formatFixed(s.goodput, 2) + " req/s"});
    table.addRow(
        {"p50 / p95 / p99 latency",
         formatTime(s.p50Latency) + " / " + formatTime(s.p95Latency) +
             " / " + formatTime(s.p99Latency)});
    table.addRow({"mean batch", formatFixed(s.meanBatch, 2)});
    if (cc.workload.enabled())
        table.addRow({"mean request size",
                      formatFixed(s.meanRequestSize, 2)});
    if (cc.continuousBatching)
        table.addRow({"iterations dispatched",
                      std::to_string(s.iterationsDispatched)});
    table.addRow({"GPU utilization",
                  formatPercent(s.gpuUtilization)});
    table.addRow({"deadline miss rate",
                  formatPercent(s.deadlineMissRate)});
    table.addRow({"retries", std::to_string(s.retries)});
    table.addRow({"shed / expired / dropped",
                  counts({s.shed, s.expired, s.dropped})});
    table.addRow({"degraded", formatPercent(s.degradedFraction)});
    table.addRow({"hedges issued / won / cancelled",
                  counts({s.hedgesIssued, s.hedgesWon,
                          s.hedgesCancelled})});
    table.addRow({"hedge waste",
                  formatTime(s.hedgeWastedSeconds) + " GPU"});
    table.addRow({"breaker opens / closes",
                  counts({s.breakerOpens, s.breakerCloses})});
    table.addRow({"checkpoints / resumes",
                  counts({s.checkpointsTaken, s.resumes})});
    table.addRow({"checkpoint overhead",
                  formatTime(s.checkpointOverheadSeconds) + " GPU"});
    table.addRow({"wasted / restored GPU-seconds",
                  formatFixed(s.wastedGpuSeconds, 1) + " / " +
                      formatFixed(s.restoredGpuSeconds, 1)});
    table.addRow({"lost GPU-seconds",
                  formatFixed(s.lostGpuSeconds, 1)});
    table.addRow({"backlog", std::to_string(s.backlog)});
    table.addRow({"drain completions",
                  std::to_string(s.drainCompleted)});
    std::cout << table.render() << "\n";

    TextTable reps({"Replica", "Domain", "Batches", "Completed",
                    "Aborted", "Breaker opens", "Busy",
                    "Availability"});
    for (std::size_t i = 0; i < r.replicas.size(); ++i) {
        const serving::ReplicaStats& rs = r.replicas[i];
        reps.addRow({std::to_string(i),
                     std::to_string(cc.replicas[i].domain),
                     std::to_string(rs.dispatchedBatches),
                     std::to_string(rs.completedRequests),
                     std::to_string(rs.abortedBatches),
                     std::to_string(rs.breakerOpens),
                     formatTime(rs.busySeconds),
                     formatPercent(rs.availability)});
    }
    std::cout << reps.render();

    if (!opts.wantsTelemetry())
        return 0;
    // `--trace-out` streams the pipeline's exec timeline below the
    // serving spans. The kept-plan profile goes through the plan
    // cache, so it reuses the plan `profileLatencyModel` lowered.
    std::shared_ptr<const profiler::ProfileResult> exec;
    if (!opts.traceOut.empty()) {
        profiler::ProfileOptions popts = profileOptions(opts);
        popts.keepPlan = true;
        exec = runtime::cachedProfile(pipeline, popts);
    }
    writeTelemetryOutputs(opts, registry, sink, exec.get());
    if (opts.sampleInterval <= 0.0)
        return 0;
    telemetry::SeriesExpectations expect;
    expect.horizonSeconds = cc.horizonSeconds;
    expect.totalGpus = cc.totalGpus();
    expect.arrived = s.arrived;
    expect.shed = s.shed;
    expect.inHorizonCompleted = s.completed - s.drainCompleted;
    expect.retries = s.retries;
    expect.hedgesIssued = s.hedgesIssued;
    const verify::DiagnosticReport check =
        telemetry::checkSeriesConsistency(registry, expect);
    if (!check.diagnostics().empty())
        std::cout << "\n" << check.render();
    return check.hasErrors() ? 1 : 0;
}

int
cmdStats(const Options& opts)
{
    MMGEN_CHECK(opts.positional.empty(),
                "stats takes no positional arguments");
    // Exercise the parallel harness + memo cache with a real
    // workload: the full both-backend suite, run twice so repeated
    // profiles show up as cache hits.
    core::CharacterizationSuite suite(opts.gpu);
    suite.runAll(models::allModels());
    suite.runAll(models::allModels());
    std::cout << "runtime counters after two suite runs on "
              << opts.gpu.name << ":\n\n"
              << runtime::runtimeStatsTable();
    if (opts.wantsTelemetry()) {
        telemetry::MetricsRegistry registry;
        telemetry::TraceSink sink;
        runtime::publishRuntimeMetrics(registry);
        writeTelemetryOutputs(opts, registry, sink);
    }
    return 0;
}

int
cmdAnalyze(const Options& opts)
{
    MMGEN_CHECK(opts.memoryAnalysis,
                "analyze needs --memory (the only analysis so far)");
    std::vector<models::ModelId> targets;
    if (opts.lintAll) {
        MMGEN_CHECK(opts.positional.empty(),
                    "--all and --model are mutually exclusive");
        targets = models::allModels();
    } else {
        MMGEN_CHECK(opts.positional.size() == 1,
                    "analyze needs --model <name> or --all");
        targets = {parseModel(opts.positional[0])};
    }

    bool all_feasible = true;
    json::Writer w(std::cout);
    if (opts.lintJson)
        w.beginArray();
    for (models::ModelId id : targets) {
        const graph::Pipeline pipeline = models::buildModel(id);
        const exec::FeasibilityReport rep =
            exec::analyzeFeasibility(pipeline, opts.gpu, opts.backend);
        const exec::MemoryProfile& mp = rep.profile;
        const bool feasible = rep.maxBatch >= 1;
        all_feasible = all_feasible && feasible;
        if (opts.lintJson) {
            w.beginObject()
                .field("model", pipeline.name)
                .field("gpu", opts.gpu.name)
                .field("backend",
                       graph::attentionBackendName(opts.backend))
                .field("weight_bytes", mp.weightBytes)
                .field("program_peak_bytes", mp.programPeakBytes)
                .field("scheduled_peak_bytes", mp.scheduledPeakBytes)
                .field("scheduled_peak_seconds",
                       mp.scheduledPeakSeconds)
                .field("no_reuse_bytes", mp.noReuseBytes)
                .field("reuse_savings_bytes", mp.reuseSavingsBytes())
                .field("dynamic_bytes", rep.dynamicBytes)
                .field("capacity_bytes", rep.capacityBytes)
                .field("max_feasible_batch", rep.maxBatch)
                .field("feasible", feasible);
            w.key("stage_residency").beginArray();
            for (const exec::StageResidency& sr : mp.stageResidency) {
                w.beginObject()
                    .field("stage", sr.stage)
                    .field("peak_bytes", sr.peakBytes)
                    .endObject();
            }
            w.endArray().endObject();
            continue;
        }
        std::cout << "== " << pipeline.name << " on " << opts.gpu.name
                  << " (" << graph::attentionBackendName(opts.backend)
                  << ") ==\n"
                  << "  weights          "
                  << formatBytes(mp.weightBytes) << "\n"
                  << "  program peak     "
                  << formatBytes(mp.programPeakBytes)
                  << "  (interval-reuse lower bound)\n"
                  << "  scheduled peak   "
                  << formatBytes(mp.scheduledPeakBytes) << "  at "
                  << formatTime(mp.scheduledPeakSeconds) << "\n"
                  << "  no-reuse bound   "
                  << formatBytes(mp.noReuseBytes)
                  << "  (reuse saves "
                  << formatBytes(mp.reuseSavingsBytes()) << ")\n"
                  << "  dynamic / req    "
                  << formatBytes(rep.dynamicBytes) << "\n"
                  << "  max batch        ";
        if (rep.maxBatch >= exec::kUnboundedBatch)
            std::cout << "unbounded";
        else
            std::cout << rep.maxBatch;
        std::cout << (feasible ? "" : "  (DOES NOT FIT)") << "\n";
        TextTable table({"Stage", "Peak residency"});
        for (const exec::StageResidency& sr : mp.stageResidency)
            table.addRow({sr.stage, formatBytes(sr.peakBytes)});
        std::cout << table.render() << "\n";
    }
    if (opts.lintJson) {
        w.endArray();
        std::cout << "\n";
    }
    return all_feasible ? 0 : 1;
}

int
cmdLint(const Options& opts)
{
    if (opts.lintRules) {
        TextTable table({"Rule", "Severity", "Family", "Invariant"});
        for (const verify::RuleInfo& r : verify::allRules())
            table.addRow({r.id, verify::severityName(r.severity),
                          r.family, r.summary});
        std::cout << table.render();
        return 0;
    }

    core::LintOptions lopts;
    lopts.gpu = opts.gpu;
    lopts.physics = opts.lintPhysics;
    lopts.probes = opts.lintProbes;
    lopts.memory = opts.lintMemory;
    lopts.suppressRules = opts.suppressRules;

    std::vector<models::ModelId> targets;
    if (opts.lintAll) {
        MMGEN_CHECK(opts.positional.empty(),
                    "--all and --model are mutually exclusive");
        targets = models::allModels();
    } else {
        MMGEN_CHECK(opts.positional.size() == 1,
                    "lint needs --model <name> or --all");
        targets = {parseModel(opts.positional[0])};
    }

    verify::DiagnosticReport report;
    for (models::ModelId id : targets) {
        if (!opts.lintJson)
            std::cout << "linting " << models::modelName(id) << "...\n";
        report.merge(core::lintModel(id, lopts));
    }
    if (opts.lintJson)
        std::cout << report.toJson() << "\n";
    else
        std::cout << report.render();
    return report.hasErrors() ? 1 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    try {
        const Options opts = parseOptions(argc, argv, 2);
        if (opts.diskCache) {
            auto disk = std::make_shared<runtime::DiskProfileCache>();
            if (disk->enabled())
                runtime::ProfileCache::global().attachDiskCache(
                    std::move(disk));
        }
        if (cmd == "list")
            return cmdList();
        if (cmd == "profile")
            return cmdProfile(opts);
        if (cmd == "hotspots")
            return cmdHotspots(opts);
        if (cmd == "suite")
            return cmdSuite(opts);
        if (cmd == "taxonomy")
            return cmdTaxonomy(opts);
        if (cmd == "serve")
            return cmdServe(opts);
        if (cmd == "stats")
            return cmdStats(opts);
        if (cmd == "lint")
            return cmdLint(opts);
        if (cmd == "analyze")
            return cmdAnalyze(opts);
        std::cerr << "unknown command '" << cmd << "'\n";
        return usage();
    } catch (const mmgen::FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const mmgen::PanicError& e) {
        std::cerr << "internal error: " << e.what() << "\n";
        return 70;
    }
}
