/**
 * @file
 * mmgen command-line interface: `mmgen <command> [options]`.
 *
 * One table holds every flag: its spelling, the commands that read it,
 * the kind of its value and, where no library `validate()` owns one, its
 * range. The parser, the range checks and the usage text all read that
 * table, so a flag the command does not read is an error, never
 * silently ignored. `mmgen` without arguments prints the commands and
 * every flag under the commands that read it.
 */

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
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
#include "serving/telemetry_hooks.hh"
#include "workload/workload.hh"
#include "telemetry/consistency.hh"
#include "telemetry/export.hh"
#include "telemetry/telemetry.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace {

using namespace mmgen;

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

struct Options
{
    /** GPU, backend, lowering and scheduler flags. */
    profiler::ProfileOptions profile;
    std::vector<std::string> positional;

    // lint subcommand knobs
    bool lintAll = false;
    bool lintJson = false;
    bool lintRules = false;
    bool skipPhysics = false;
    bool skipProbes = false;
    bool skipMemory = false;
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
     * Skip the persistent profile cache under MMGEN_CACHE_DIR /
     * $XDG_CACHE_HOME/mmgen / ~/.cache/mmgen. The cache is on by
     * default so warm reruns load results instead of re-simulating
     * (results are bit-identical either way).
     */
    bool skipDiskCache = false;

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

// The subcommands, one bit each: a flag row names those that read it.
constexpr unsigned kList = 1, kProfile = 2, kHotspots = 4, kSuite = 8,
                   kTaxonomy = 16, kServe = 32, kStats = 64, kLint = 128,
                   kAnalyze = 256, kEveryCommand = 511;

/** A subcommand: its name, its arguments in usage, and what it runs. */
struct Command
{
    const char* name;
    const char* args;
    unsigned bit;
    int (*run)(const Options&);
    const char* help;
};

/** The values a number flag admits; the default admits every one. */
struct Range
{
    double low = -std::numeric_limits<double>::infinity();
    bool lowOpen = false; // `low` itself is out of range
    double high = std::numeric_limits<double>::infinity();
};

/** A flag whose value is one name of a fixed list. */
template <typename T>
struct Choice
{
    T* field;
    std::vector<std::pair<std::string, T>> values;

    std::string
    names(const char* sep) const
    {
        std::vector<std::string> out;
        for (const auto& value : values)
            out.push_back(value.first);
        return join(out, sep);
    }
};

/**
 * Where a flag's value goes, which also fixes the value's kind: a
 * `bool` is a switch, a string a non-empty word (a list collects every
 * repeat), a number is parsed to its field's type, and the jobs setter
 * takes an `int`.
 */
using Target =
    std::variant<bool*, std::string*, std::vector<std::string>*, int*,
                 std::int64_t*, std::uint64_t*, double*, void (*)(int),
                 Choice<hw::GpuSpec>, Choice<graph::AttentionBackend>,
                 Choice<serving::RouterPolicy>>;

/** One row of the flag table. */
struct Flag
{
    const char* name;
    /** The value's placeholder in usage; empty for switches and choices. */
    const char* metavar;
    /** The bits of the commands that read it. */
    unsigned commands;
    Target target;
    /** Its one-line usage text. */
    const char* help;
    Range range = {};
};

// The flags that messages outside their own row name.
constexpr const char* kAllFlag = "--all";
constexpr const char* kModelFlag = "--model";
constexpr const char* kMemoryFlag = "--memory";
constexpr const char* kReplicasFlag = "--replicas";
constexpr const char* kGraphLaunchFlag = "--graph-launch";
constexpr const char* kReplayFracFlag = "--graph-replay-frac";

/**
 * Every flag, with its value written into `o`. Rows come grouped by
 * the commands that read them; usage prints one heading per group. A
 * row holds a range only where no library `validate()` checks one.
 */
std::vector<Flag>
flagTable(Options& o)
{
    // `serve` reads the profile flags for the exec timeline that its
    // trace output writes below the serving spans.
    constexpr unsigned kProfiles = kProfile | kHotspots | kServe;
    constexpr unsigned kOutputs = kProfile | kServe | kStats;
    constexpr Range kAtLeastOne{1.0};
    constexpr Range kZeroIsOff{0.0};
    exec::ScheduleOptions& sched = o.profile.schedule;
    serving::ResilienceConfig& res = o.resilience;
    serving::FaultConfig& faults = o.resilience.faults;
    using graph::AttentionBackend;
    using hw::GpuSpec;
    using serving::RouterPolicy;
    return {
        {"--gpu", "", kEveryCommand,
         Choice<GpuSpec>{&o.profile.gpu, {{"a100", GpuSpec::a100_80gb()},
                                          {"v100", GpuSpec::v100_32gb()},
                                          {"h100", GpuSpec::h100_80gb()}}},
         "simulated device (default a100)"},
        {"--jobs", "N", kEveryCommand, &runtime::setGlobalJobs,
         "parallel lanes (default MMGEN_JOBS, or cores)", kAtLeastOne},
        {"--no-disk-cache", "", kEveryCommand, &o.skipDiskCache,
         "skip the persistent profile cache"},
        {kModelFlag, "X", kProfiles | kLint | kAnalyze, &o.positional,
         "the model, as the <model> argument"},
        {"--backend", "", kProfiles | kAnalyze,
         Choice<AttentionBackend>{
             &o.profile.backend, {{"baseline", AttentionBackend::Baseline},
                                  {"flash", AttentionBackend::Flash},
                                  {"flash_decode",
                                   AttentionBackend::FlashDecode}}},
         "attention backend (default flash)"},
        {"--streams", "N", kProfiles, &sched.streams,
         "hardware streams (2 overlaps weight copies)"},
        {"--launch-depth", "N", kProfiles, &sched.launchQueueDepth,
         "host launch-queue depth (0 = synchronous)"},
        {kGraphLaunchFlag, "", kProfiles, &sched.graphLaunch,
         "amortize repeated launches as a CUDA graph"},
        {kReplayFracFlag, "F", kProfiles, &sched.graphReplayOverheadFraction,
         "launch overhead each graph replay still pays"},
        {"--stream-weights", "", kProfiles,
         &o.profile.lowering.splitWeightStreams,
         "move memory-bound weight reads to a stream"},
        {"--metrics-out", "FILE", kOutputs, &o.metricsOut,
         "JSON-lines metrics dump"},
        {"--prom-out", "FILE", kOutputs, &o.promOut,
         "Prometheus text metrics"},
        {"--trace-out", "FILE", kOutputs, &o.traceOut,
         "Chrome/Perfetto trace with the exec timeline"},
        {"--rate", "R", kServe, &o.serving.arrivalRate,
         "mean arrivals per second (default 1)"},
        {"--batch", "B", kServe, &o.serving.maxBatch,
         "most requests per batch (default 4)"},
        {"--horizon", "S", kServe, &o.serving.horizonSeconds,
         "simulated seconds (default 600)"},
        {"--seed", "S", kServe, &o.serving.seed, "arrival seed (default 7)"},
        {kReplicasFlag, "N", kServe, &o.replicas,
         "replica pools behind the router (default 1)", kAtLeastOne},
        {"--gpus", "N", kServe, &o.serving.numGpus,
         "GPUs per replica (default 1)"},
        {"--mix", "NAME", kServe, &o.mixName,
         "poisson|interactive|bursty|diurnal|production"},
        {"--continuous", "", kServe, &o.continuous,
         "continuous batching (prices off the surface)"},
        {"--surface", "", kServe, &o.useSurface,
         "price batches off the exec latency surface"},
        {"--mtbf", "S", kServe, &faults.failureMtbfSeconds,
         "per-GPU mean time between failures"},
        {"--mttr", "S", kServe, &faults.failureMttrSeconds,
         "mean time to repair (default 300)"},
        {"--preempt-mtbf", "S", kServe, &faults.preemptionMtbfSeconds,
         "per-GPU mean time between preemptions"},
        {"--preempt-mean", "S", kServe, &faults.preemptionMeanSeconds,
         "mean preemption length (default 30)"},
        {"--straggler-frac", "F", kServe, &faults.stragglerFraction,
         "fraction of GPUs that straggle"},
        {"--straggler-slowdown", "X", kServe, &faults.stragglerSlowdown,
         "service-time multiplier of a straggler"},
        {"--deadline", "S", kServe, &res.deadline.deadlineSeconds,
         "request SLO from arrival (0 = none)"},
        {"--timeout", "S", kServe, &res.deadline.batchTimeoutSeconds,
         "abort a batch running this long (0 = none)"},
        {"--retries", "N", kServe, &res.retry.maxRetries,
         "retry budget per request"},
        {"--max-queue", "N", kServe, &res.admission.maxQueueLength,
         "shed arrivals past this queue (0 = never)"},
        {"--degrade-threshold", "N", kServe, &o.degradeThreshold,
         "queue depth to degrade at (0 = never)", kZeroIsOff},
        {"--degrade-steps", "F", kServe, &o.degradeStepsKept,
         "denoise steps kept degraded (default 0.5)", {0.0, true, 1.0}},
        {"--router", "", kServe,
         Choice<RouterPolicy>{
             &o.router, {{"round-robin", RouterPolicy::RoundRobin},
                         {"least-loaded", RouterPolicy::LeastLoaded},
                         {"domain-aware", RouterPolicy::FailureDomainAware}}},
         "replica routing (default least-loaded)"},
        {"--chaos", "NAME", kServe, &o.chaosName,
         "kill-replica, rolling-kill, straggle-gpu, ..."},
        {"--hedge-delay", "S", kServe, &o.hedgeDelay,
         "hedge after S seconds (0 = off)", kZeroIsOff},
        {"--hedge-quantile", "Q", kServe, &o.hedgeQuantile,
         "hedge after the Q-quantile batch service", kZeroIsOff},
        {"--breaker-threshold", "N", kServe, &o.breaker.failureThreshold,
         "failures to open a breaker (0 = never)"},
        {"--breaker-open", "S", kServe, &o.breaker.openSeconds,
         "open duration before a probe"},
        {"--ckpt-interval", "N", kServe, &o.ckptInterval,
         "checkpoint every N iterations (0 = never)", kZeroIsOff},
        {"--ckpt-cost", "S", kServe, &o.ckptCost,
         "GPU-seconds per checkpoint"},
        {"--probe-interval", "S", kServe, &o.probe.intervalSeconds,
         "health-probe period (default 5)"},
        {"--domain-size", "N", kServe, &o.domainSize,
         "replicas per failure domain (default 1)", kAtLeastOne},
        {"--domain-mtbf", "S", kServe, &faults.domainMtbfSeconds,
         "mean time between failure-domain outages"},
        {"--domain-mttr", "S", kServe, &faults.domainMttrSeconds,
         "mean domain recovery time (default 120)"},
        {"--sample-interval", "S", kServe, &o.sampleInterval,
         "sample serving state into time series", {0.0, true}},
        {kAllFlag, "", kLint | kAnalyze, &o.lintAll,
         "the whole zoo instead of one model"},
        {"--json", "", kLint | kAnalyze, &o.lintJson,
         "machine-readable output"},
        {"--rules", "", kLint, &o.lintRules, "list the rule registry"},
        {"--no-physics", "", kLint, &o.skipPhysics,
         "skip the physics checks"},
        {"--no-probes", "", kLint, &o.skipProbes,
         "skip the behavioural probes"},
        {"--no-memory", "", kLint, &o.skipMemory,
         "skip the memory pass (S013/P010/P011)"},
        {"--suppress", "RULE", kLint, &o.suppressRules,
         "drop one rule's findings (repeatable)"},
        {kMemoryFlag, "", kAnalyze, &o.memoryAnalysis,
         "peak residency, reuse bounds, max batch"},
    };
}

/** The choice list of the row that picks a T. */
template <typename T>
const Choice<T>&
choiceOf(const std::vector<Flag>& flags)
{
    for (const Flag& f : flags) {
        if (const auto* choice = std::get_if<Choice<T>>(&f.target))
            return *choice;
    }
    MMGEN_ASSERT(false, "no flag picks this type");
}

/**
 * The one number parser. All of `value` must parse (integers through
 * std::stoll, so a 64-bit seed keeps every bit), be finite, fit T and
 * lie in the row's range.
 */
template <typename T>
T
parseNumber(const Flag& flag, const std::string& value)
{
    constexpr bool integral = std::is_integral_v<T>;
    std::conditional_t<integral, long long, double> v = 0;
    std::size_t pos = 0;
    try {
        if constexpr (integral)
            v = std::stoll(value, &pos);
        else
            v = std::stod(value, &pos);
    } catch (const std::logic_error&) {
        pos = 0;
    }
    // No flag gives infinity a meaning ("off" is always 0), and NaN
    // fails every range test, so both are input errors.
    MMGEN_CHECK(pos == value.size() && std::isfinite(double(v)),
                flag.name << " needs "
                          << (integral ? "an integer" : "a finite number")
                          << ", got '" << value << "'");
    if constexpr (integral && sizeof(T) < sizeof(v)) {
        using limits = std::numeric_limits<T>;
        MMGEN_CHECK(v >= limits::min() && v <= limits::max(),
                    flag.name << " needs an integer in [" << limits::min()
                              << ", " << limits::max() << "], got '"
                              << value << "'");
    }
    const Range& r = flag.range;
    MMGEN_CHECK((v > r.low || (v == r.low && !r.lowOpen)) && v <= r.high,
                flag.name << " must be in " << (r.lowOpen ? "(" : "[")
                          << r.low << ", " << r.high
                          << (std::isinf(r.high) ? ")" : "]") << ", got "
                          << v);
    return static_cast<T>(v);
}

/**
 * Read the words after `cmd` against the flag rows. An unknown flag, a
 * flag `cmd` does not read, a missing or empty value and a value of the
 * wrong kind or out of range are errors; a word that is no flag is a
 * positional argument.
 */
Options
parseOptions(const Command& cmd, int argc, char** argv)
{
    Options opts;
    const std::vector<Flag> flags = flagTable(opts);
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.empty() || arg[0] != '-') {
            opts.positional.push_back(arg);
            continue;
        }
        const auto flag =
            std::find_if(flags.begin(), flags.end(),
                         [&](const Flag& f) { return arg == f.name; });
        MMGEN_CHECK(flag != flags.end(), "unknown option " << arg);
        MMGEN_CHECK((flag->commands & cmd.bit) != 0,
                    cmd.name << " does not take " << arg);
        const bool isSwitch = std::holds_alternative<bool*>(flag->target);
        MMGEN_CHECK(isSwitch || i + 1 < argc, arg << " needs a value");
        const std::string value = isSwitch ? "" : argv[++i];
        MMGEN_CHECK(isSwitch || !value.empty(),
                    arg << " needs a non-empty value");
        std::visit(
            [&](const auto& target) {
                using T = std::decay_t<decltype(target)>;
                if constexpr (std::is_same_v<T, bool*>)
                    *target = true;
                else if constexpr (std::is_same_v<T, std::string*>)
                    *target = value;
                else if constexpr (std::is_same_v<T,
                                                  std::vector<std::string>*>)
                    target->push_back(value);
                else if constexpr (std::is_same_v<T, void (*)(int)>)
                    target(parseNumber<int>(*flag, value));
                else if constexpr (std::is_pointer_v<T>)
                    *target =
                        parseNumber<std::remove_pointer_t<T>>(*flag, value);
                else {
                    const auto pick = std::find_if(
                        target.values.begin(), target.values.end(),
                        [&](const auto& c) { return c.first == value; });
                    MMGEN_CHECK(pick != target.values.end(),
                                arg << " needs one of " << target.names("|")
                                    << ", got '" << value << "'");
                    *target.field = pick->second;
                }
            },
            flag->target);
    }
    MMGEN_CHECK(opts.profile.schedule.graphLaunch ||
                    opts.profile.schedule.graphReplayOverheadFraction == 0.0,
                kReplayFracFlag << " needs " << kGraphLaunchFlag
                                << ": only a captured graph's replays pay "
                                   "that overhead");
    MMGEN_CHECK(opts.replicas >= 2 ||
                    (opts.hedgeDelay == 0.0 && opts.hedgeQuantile == 0.0),
                "hedging needs " << kReplicasFlag
                                 << " >= 2: a hedge runs on another "
                                    "replica than its primary");
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

/** The models `lint` and `analyze` run on: the whole zoo or the one named. */
std::vector<models::ModelId>
targetModels(const Options& opts, const char* cmd)
{
    if (!opts.lintAll) {
        MMGEN_CHECK(opts.positional.size() == 1,
                    cmd << " needs " << kModelFlag << " <name> or "
                        << kAllFlag);
        return {parseModel(opts.positional[0])};
    }
    MMGEN_CHECK(opts.positional.empty(),
                kAllFlag << " and " << kModelFlag
                         << " are mutually exclusive");
    return models::allModels();
}

int
cmdList(const Options&)
{
    std::cout << "models:\n";
    for (models::ModelId id : models::allModels()) {
        const graph::Pipeline p = models::buildModel(id);
        std::cout << "  " << padRight(models::modelName(id), 18)
                  << padRight(graph::modelClassName(p.klass), 22)
                  << formatCount(double(p.totalParams()))
                  << " params\n";
    }
    Options scratch;
    const std::vector<Flag> flags = flagTable(scratch);
    std::vector<std::string> gpus;
    for (const auto& [name, spec] : choiceOf<hw::GpuSpec>(flags).values)
        gpus.push_back(name + " (" + spec.name + ")");
    std::cout << "gpus: " << join(gpus, ", ") << "\nbackends: "
              << choiceOf<graph::AttentionBackend>(flags).names(", ")
              << "\n";
    return 0;
}

int
cmdProfile(const Options& opts)
{
    MMGEN_CHECK(opts.positional.size() == 1,
                "profile needs exactly one model name");
    const models::ModelId id = parseModel(opts.positional[0]);
    profiler::ProfileOptions popts = opts.profile;
    // The trace streams the retained plan + timeline.
    popts.keepPlan = !opts.traceOut.empty();
    const profiler::ProfileResult res =
        *runtime::cachedProfile(models::buildModel(id), popts);
    std::cout << "GPU: " << opts.profile.gpu.name << "\n\n";
    std::cout << core::profileSummary(res);
    if (opts.wantsTelemetry()) {
        telemetry::MetricsRegistry registry;
        telemetry::TraceSink sink;
        const telemetry::Labels labels{
            {"model", res.model},
            {"gpu", opts.profile.gpu.name},
            {"backend",
             graph::attentionBackendName(opts.profile.backend)}};
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
    profiler::ProfileOptions popts = opts.profile;
    popts.keepPlan = true;
    const profiler::ProfileResult res =
        profiler::Profiler(popts).profile(models::buildModel(id));
    std::cout << res.model << " on " << opts.profile.gpu.name << " ["
              << graph::attentionBackendName(opts.profile.backend)
              << "], total " << formatTime(res.totalSeconds) << "\n\n";
    std::cout << core::hotspotTable(res, 15).render();
    return 0;
}

int
cmdSuite(const Options& opts)
{
    core::CharacterizationSuite suite(opts.profile.gpu);
    const std::vector<core::ModelRunResult> results =
        suite.runAll(models::allModels());
    std::cout << "GPU: " << opts.profile.gpu.name << "\n\n";
    std::cout << core::flashSpeedupTable(results).render() << "\n";
    std::cout << core::attentionSpeedupTable(results).render() << "\n";
    std::cout << core::rooflineTable(results, opts.profile.gpu).render();
    return 0;
}

int
cmdTaxonomy(const Options& opts)
{
    core::CharacterizationSuite suite(opts.profile.gpu);
    const std::vector<core::ModelRunResult> results =
        suite.runAll(models::allModels());
    std::cout
        << core::taxonomyTable(core::buildTaxonomy(results)).render();
    return 0;
}

/**
 * Exec-derived pricing for continuous batching or surface pricing:
 * profile the model built at a power-of-two batch grid up to the batch
 * ceiling, and at a size grid covering the mix's heavy tail when one is
 * configured.
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
        pipeline, opts.profile.gpu, exec::ScheduleOptions(), batches, sizes);
    std::cout << "latency surface: " << batches.size() << "x"
              << sizes.size() << " grid, " << surface.iterations
              << " iterations per request\n";
    return surface;
}

/**
 * `serve`: one replica pool, or several pools behind a router. Every
 * run builds one cluster configuration, simulates it once and prints
 * one report.
 */
int
cmdServe(const Options& opts)
{
    MMGEN_CHECK(opts.positional.size() == 1,
                "serve needs exactly one model name");
    const models::ModelId id = parseModel(opts.positional[0]);
    const graph::Pipeline pipeline = models::buildModel(id);
    const serving::LatencyModel latency =
        serving::profileLatencyModel(pipeline, opts.profile.gpu);

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
                opts.profile.gpu, 1.0 - opts.degradeStepsKept);
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
    // the batch ceiling.
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
              << opts.profile.gpu.name << " ["
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
    // The trace output streams the pipeline's exec timeline below the
    // serving spans. The kept-plan profile goes through the plan
    // cache, so it reuses the plan `profileLatencyModel` lowered.
    std::shared_ptr<const profiler::ProfileResult> exec;
    if (!opts.traceOut.empty()) {
        profiler::ProfileOptions popts = opts.profile;
        popts.keepPlan = true;
        exec = runtime::cachedProfile(pipeline, popts);
    }
    writeTelemetryOutputs(opts, registry, sink, exec.get());
    if (opts.sampleInterval <= 0.0)
        return 0;
    const verify::DiagnosticReport check =
        telemetry::checkSeriesConsistency(
            registry, serving::seriesExpectations(cc, s));
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
    core::CharacterizationSuite suite(opts.profile.gpu);
    suite.runAll(models::allModels());
    suite.runAll(models::allModels());
    std::cout << "runtime counters after two suite runs on "
              << opts.profile.gpu.name << ":\n\n"
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
                "analyze needs " << kMemoryFlag
                                 << " (the only analysis so far)");
    const std::vector<models::ModelId> targets =
        targetModels(opts, "analyze");

    bool all_feasible = true;
    json::Writer w(std::cout);
    if (opts.lintJson)
        w.beginArray();
    for (models::ModelId id : targets) {
        const graph::Pipeline pipeline = models::buildModel(id);
        const exec::FeasibilityReport rep =
            exec::analyzeFeasibility(pipeline, opts.profile.gpu,
                                     opts.profile.backend);
        const exec::MemoryProfile& mp = rep.profile;
        const bool feasible = rep.maxBatch >= 1;
        all_feasible = all_feasible && feasible;
        if (opts.lintJson) {
            w.beginObject()
                .field("model", pipeline.name)
                .field("gpu", opts.profile.gpu.name)
                .field("backend",
                       graph::attentionBackendName(opts.profile.backend))
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
        std::cout << "== " << pipeline.name << " on " << opts.profile.gpu.name
                  << " (" << graph::attentionBackendName(opts.profile.backend)
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
    lopts.gpu = opts.profile.gpu;
    lopts.physics = !opts.skipPhysics;
    lopts.probes = !opts.skipProbes;
    lopts.memory = !opts.skipMemory;
    lopts.suppressRules = opts.suppressRules;

    const std::vector<models::ModelId> targets = targetModels(opts, "lint");
    if (!opts.lintJson) {
        for (models::ModelId id : targets)
            std::cout << "linting " << models::modelName(id) << "...\n";
    }
    // The zoo lints its models in parallel, one per job.
    const verify::DiagnosticReport report =
        opts.lintAll ? core::lintAll(lopts)
                     : core::lintModel(targets.front(), lopts);
    if (opts.lintJson)
        std::cout << report.toJson() << "\n";
    else
        std::cout << report.render();
    return report.hasErrors() ? 1 : 0;
}

const Command kCommands[] = {
    {"list", "", kList, cmdList, "models and GPU presets"},
    {"profile", " <model>", kProfile, cmdProfile, "one-model breakdown"},
    {"hotspots", " <model>", kHotspots, cmdHotspots, "top operator sites"},
    {"suite", "", kSuite, cmdSuite, "both-backend suite run"},
    {"taxonomy", "", kTaxonomy, cmdTaxonomy, "Table I labels"},
    {"serve", " <model>", kServe, cmdServe, "fault-tolerant serving sim"},
    {"stats", "", kStats, cmdStats, "runtime cache / thread-pool counters"},
    {"lint", " [<model>]", kLint, cmdLint, "graph & physics verifier"},
    {"analyze", " [<model>]", kAnalyze, cmdAnalyze, "memory-liveness bound"},
};

/** Every command, then every flag under the commands that read it. */
int
usage()
{
    auto line = [](const std::string& lead, const char* help) {
        std::cerr << (lead.size() < 28 ? padRight(lead, 30)
                                       : lead + "\n" + padRight("", 30))
                  << help << "\n";
    };
    std::cerr << "usage: mmgen <command> [options]\ncommands:\n";
    for (const Command& c : kCommands)
        line("  " + std::string(c.name) + c.args, c.help);
    Options scratch;
    unsigned group = 0;
    for (const Flag& f : flagTable(scratch)) {
        if (f.commands != group) {
            group = f.commands;
            std::vector<std::string> readers;
            for (const Command& c : kCommands) {
                if ((group & c.bit) != 0)
                    readers.push_back(c.name);
            }
            std::cerr << "options of "
                      << (group == kEveryCommand ? "every command"
                                                 : join(readers, ", "))
                      << ":\n";
        }
        line(std::visit(
                 [&](const auto& target) {
                     const std::string name = std::string("  ") + f.name;
                     if constexpr (requires { target.names(""); })
                         return name + " " + target.names("|");
                     else
                         return *f.metavar != '\0' ? name + " " + f.metavar
                                                    : name;
                 },
                 f.target),
             f.help);
    }
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const std::string name = argv[1];
    const Command* cmd =
        std::find_if(std::begin(kCommands), std::end(kCommands),
                     [&](const Command& c) { return name == c.name; });
    if (cmd == std::end(kCommands)) {
        std::cerr << "unknown command '" << name << "'\n";
        return usage();
    }
    try {
        const Options opts = parseOptions(*cmd, argc, argv);
        if (!opts.skipDiskCache) {
            auto disk = std::make_shared<runtime::DiskProfileCache>();
            if (disk->enabled())
                runtime::ProfileCache::global().attachDiskCache(
                    std::move(disk));
        }
        return cmd->run(opts);
    } catch (const mmgen::FatalError& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    } catch (const mmgen::PanicError& e) {
        std::cerr << "internal error: " << e.what() << "\n";
        return 70;
    } catch (const std::bad_alloc&) {
        std::cerr << "error: out of memory\n";
        return 1;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 1;
    }
}
