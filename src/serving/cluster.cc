#include "cluster.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <array>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "serving/faults.hh"
#include "serving/telemetry_hooks.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace mmgen::serving {

const char*
routerPolicyName(RouterPolicy policy)
{
    switch (policy) {
    case RouterPolicy::RoundRobin:
        return "round-robin";
    case RouterPolicy::LeastLoaded:
        return "least-loaded";
    case RouterPolicy::FailureDomainAware:
        return "failure-domain-aware";
    }
    return "unknown";
}

const char*
chaosEventKindName(ChaosEventKind kind)
{
    switch (kind) {
    case ChaosEventKind::KillReplica:
        return "kill-replica";
    case ChaosEventKind::DegradeDomain:
        return "degrade-domain";
    case ChaosEventKind::StraggleGpu:
        return "straggle-gpu";
    }
    return "unknown";
}

double
hedgeDelayForQuantile(const LatencyModel& latency, int maxBatch,
                      double quantile)
{
    MMGEN_CHECK(maxBatch >= 1, "need max batch >= 1");
    MMGEN_CHECK(quantile > 0.0 && quantile <= 1.0,
                "hedge quantile out of (0, 1], got " << quantile);
    const int batch = std::clamp(
        static_cast<int>(std::ceil(quantile * maxBatch)), 1, maxBatch);
    return latency.batchSeconds(batch);
}

CheckpointPolicy
checkpointFromPipeline(const graph::Pipeline& pipeline,
                       std::int64_t everyIterations, double costSeconds)
{
    MMGEN_CHECK(!pipeline.stages.empty(),
                "pipeline '" << pipeline.name << "' has no stages");
    MMGEN_CHECK(everyIterations >= 1,
                "checkpoint interval must be >= 1 iteration, got "
                    << everyIterations);
    MMGEN_CHECK(std::isfinite(costSeconds) && costSeconds >= 0.0,
                "checkpoint cost must be finite and non-negative");
    CheckpointPolicy policy;
    // The dominant stage's loop (denoise steps for diffusion, decode
    // steps for AR generators) is the resumable structure; the other
    // stages are a small prefix/suffix that re-runs on resume anyway.
    for (const graph::Stage& stage : pipeline.stages)
        policy.iterations = std::max(policy.iterations, stage.iterations);
    policy.intervalIterations = everyIterations;
    policy.costSeconds = costSeconds;
    return policy;
}

ChaosScenario
namedChaosScenario(const std::string& name, int numReplicas,
                   double horizonSeconds)
{
    MMGEN_CHECK(numReplicas >= 1, "need at least one replica");
    MMGEN_CHECK(horizonSeconds > 0.0, "horizon must be positive");
    const double h = horizonSeconds;
    ChaosScenario s;
    s.name = name;
    if (name == "none")
        return s;
    if (name == "kill-replica") {
        s.events.push_back({0.25 * h, ChaosEventKind::KillReplica,
                            numReplicas - 1, 0.25 * h, 1.0});
        return s;
    }
    if (name == "kill-replica-at-zero") {
        s.events.push_back({0.0, ChaosEventKind::KillReplica,
                            numReplicas - 1, 0.25 * h, 1.0});
        return s;
    }
    if (name == "rolling-kill") {
        for (int r = 0; r < numReplicas; ++r) {
            const double at =
                h * (0.1 + 0.8 * static_cast<double>(r) /
                               static_cast<double>(numReplicas));
            s.events.push_back({at, ChaosEventKind::KillReplica, r,
                                0.15 * h, 1.0});
        }
        return s;
    }
    if (name == "degrade-domain") {
        s.events.push_back({0.25 * h, ChaosEventKind::DegradeDomain, 0,
                            0.5 * h, 3.0});
        return s;
    }
    if (name == "straggle-gpu") {
        s.events.push_back({0.1 * h, ChaosEventKind::StraggleGpu, 0,
                            0.8 * h, 4.0});
        return s;
    }
    MMGEN_CHECK(false, "unknown chaos scenario '" << name << "'");
    return s;
}

int
ClusterConfig::totalGpus() const
{
    int n = 0;
    for (const ReplicaSpec& r : replicas)
        n += r.numGpus;
    return n;
}

void
ClusterConfig::validate() const
{
    TrafficConfig::validate();
    MMGEN_CHECK(!replicas.empty(), "need at least one replica");
    int maxDomain = 0;
    for (std::size_t r = 0; r < replicas.size(); ++r) {
        MMGEN_CHECK(replicas[r].numGpus >= 1,
                    "replica " << r << " needs at least one GPU, got "
                               << replicas[r].numGpus);
        MMGEN_CHECK(replicas[r].domain >= 0,
                    "replica " << r << " has negative failure domain "
                               << replicas[r].domain);
        if (replicas[r].surface.empty())
            MMGEN_CHECK(replicas[r].latency.baseSeconds > 0.0,
                        "replica " << r
                                   << " latency model is degenerate");
        else
            replicas[r].surface.validate();
        maxDomain = std::max(maxDomain, replicas[r].domain);
    }
    resilience.validate();
    MMGEN_CHECK(breaker.failureThreshold >= 0,
                "breaker threshold must be non-negative, got "
                    << breaker.failureThreshold);
    MMGEN_CHECK(std::isfinite(breaker.openSeconds) &&
                    breaker.openSeconds >= 0.0,
                "breaker open window must be finite and non-negative");
    MMGEN_CHECK(breaker.halfOpenSuccesses >= 1,
                "breaker needs >= 1 half-open success, got "
                    << breaker.halfOpenSuccesses);
    MMGEN_CHECK(std::isfinite(hedge.delaySeconds) &&
                    hedge.delaySeconds >= 0.0,
                "hedge delay must be finite and non-negative");
    MMGEN_CHECK(checkpoint.iterations >= 0 &&
                    checkpoint.intervalIterations >= 0,
                "checkpoint iteration counts must be non-negative");
    MMGEN_CHECK(!checkpoint.enabled() ||
                    checkpoint.intervalIterations <=
                        checkpoint.iterations,
                "checkpoint interval exceeds request iterations");
    MMGEN_CHECK(std::isfinite(checkpoint.costSeconds) &&
                    checkpoint.costSeconds >= 0.0,
                "checkpoint cost must be finite and non-negative");
    MMGEN_CHECK(!(continuousBatching && checkpoint.enabled()),
                "checkpointing needs greedy batching: drop continuous "
                "batching or the checkpoint policy");
    MMGEN_CHECK(std::isfinite(probe.intervalSeconds) &&
                    probe.intervalSeconds > 0.0,
                "probe interval must be positive and finite");
    MMGEN_CHECK(probe.jitterFraction >= 0.0 &&
                    probe.jitterFraction < 1.0,
                "probe jitter fraction out of [0, 1)");
    // A one-replica pool without breakers schedules no probes.
    const double probes = replicas.size() > 1 || breaker.enabled()
                              ? static_cast<double>(replicas.size()) *
                                    horizonSeconds / probe.intervalSeconds
                              : 0.0;
    MMGEN_CHECK(probes <= ProbeModel::kMaxExpectedProbes,
                "replicas x horizon / probe interval = "
                    << probes << " expected probes, above the "
                    << ProbeModel::kMaxExpectedProbes
                    << " one run may simulate");
    const FaultConfig& f = resilience.faults;
    const std::pair<double, double> processes[] = {
        {f.failureMtbfSeconds, f.failureMttrSeconds},
        {f.preemptionMtbfSeconds, f.preemptionMeanSeconds},
        {f.domainMtbfSeconds, f.domainMttrSeconds}};
    for (const auto& [mtbf, mttr] : processes) {
        const double outages =
            mtbf > 0.0 ? totalGpus() * horizonSeconds / (mtbf + mttr) : 0.0;
        MMGEN_CHECK(outages <= FaultConfig::kMaxExpectedOutages,
                    "GPUs x horizon / (MTBF " << mtbf << " + MTTR " << mttr
                        << ") = " << outages
                        << " expected outages, above the "
                        << FaultConfig::kMaxExpectedOutages
                        << " one fault process may simulate");
    }
    const int numReplicas = static_cast<int>(replicas.size());
    for (const ChaosEvent& ev : chaos.events) {
        MMGEN_CHECK(std::isfinite(ev.atSeconds) && ev.atSeconds >= 0.0,
                    "chaos event time must be finite and non-negative");
        MMGEN_CHECK(std::isfinite(ev.durationSeconds) &&
                        ev.durationSeconds >= 0.0,
                    "chaos duration must be finite and non-negative");
        switch (ev.kind) {
        case ChaosEventKind::KillReplica:
            MMGEN_CHECK(ev.target >= 0 && ev.target < numReplicas,
                        "chaos kill targets replica " << ev.target
                            << " of " << numReplicas);
            break;
        case ChaosEventKind::DegradeDomain:
            MMGEN_CHECK(ev.target >= 0 && ev.target <= maxDomain,
                        "chaos degrade targets unknown domain "
                            << ev.target);
            MMGEN_CHECK(ev.factor >= 1.0,
                        "degrade factor must be >= 1, got "
                            << ev.factor);
            break;
        case ChaosEventKind::StraggleGpu:
            MMGEN_CHECK(ev.target >= 0 && ev.target < totalGpus(),
                        "chaos straggle targets GPU " << ev.target
                            << " of " << totalGpus());
            MMGEN_CHECK(ev.factor >= 1.0,
                        "straggle factor must be >= 1, got "
                            << ev.factor);
            break;
        }
    }
}

ClusterConfig
singlePoolCluster(const ServingConfig& cfg, const LatencyModel& latency)
{
    ClusterConfig cluster;
    static_cast<TrafficConfig&>(cluster) = cfg;
    cluster.replicas = {ReplicaSpec{latency, cfg.numGpus, 0}};
    return cluster;
}

namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();

// Probe-jitter stream base; faults.cc owns 0x0001'0000..0x0004'0000.
constexpr std::uint64_t kProbeStream = 0x0005'0000;

/**
 * One dispatchable copy of a logical request (primary or hedge). A
 * backlogged queue holds hundreds of thousands of copies, so the
 * record is kept to 32 bytes: a 32-bit request id indexes the
 * per-request records, whose memory would run out long before 2^32
 * requests.
 */
struct Copy
{
    double arrival = 0.0;
    /** Work multiple relative to the profiled base request. */
    double size = 1.0;
    std::uint32_t id = 0;
    int attempts = 0;
    /** Dispatch priority of the owning class (lower = first). */
    int priority = 0;
    bool hedge = false;
    /**
     * The request was hedged when this copy was queued, so a twin may
     * answer first and cancel it. A request is hedged only while its
     * one copy runs, so every copy a twin can cancel carries the flag.
     */
    bool cancellable = false;
};
static_assert(sizeof(Copy) == 32, "a queued copy stays 32 bytes");

/** The FIFO of the most urgent non-empty level in a non-empty queue. */
template <typename Levels>
auto&
headLevel(Levels& levels)
{
    auto it = levels.begin();
    while (it->second.empty())
        ++it;
    return it->second;
}

/**
 * One replica's queue: a FIFO per priority level, served most urgent
 * (lowest) level first. Within a level copies keep push order, so the
 * dispatch order is exactly that of one queue kept sorted by a stable
 * priority insert, at O(1) per push and pop however deep the backlog.
 * Priorities are small (0-2 in the named mixes), so there are only a
 * few levels to walk.
 */
class ReplicaQueue
{
  public:
    bool empty() const { return size_ == 0; }

    std::size_t size() const { return size_; }

    void push(const Copy& copy)
    {
        levels_[copy.priority].push_back(copy);
        ++size_;
        cancellable_ += copy.cancellable ? 1 : 0;
    }

    /** The next copy to dispatch: the oldest of the most urgent level. */
    const Copy& front() const { return headLevel(levels_).front(); }

    /** Remove and return the next copy to dispatch. */
    Copy pop()
    {
        std::deque<Copy>& level = headLevel(levels_);
        const Copy copy = level.front();
        level.pop_front();
        --size_;
        cancellable_ -= copy.cancellable ? 1 : 0;
        return copy;
    }

    /**
     * Erase every queued copy `cancelled` selects, in one pass per
     * level, and return how many went. `cancelled` sees each
     * cancellable copy once, in queue order, and may book its
     * cancellation. No other copy can be selected, so a queue holding
     * none skips the pass.
     */
    template <typename Pred>
    std::size_t eraseCancelled(Pred cancelled)
    {
        if (cancellable_ == 0)
            return 0;
        std::size_t erased = 0;
        for (auto& [priority, level] : levels_) {
            erased += std::erase_if(level, [&](const Copy& c) {
                if (!c.cancellable || !cancelled(c))
                    return false;
                --cancellable_;
                return true;
            });
        }
        size_ -= erased;
        return erased;
    }

  private:
    /** Priority level -> its FIFO; emptied levels stay for reuse. */
    std::map<int, std::deque<Copy>> levels_;
    std::size_t size_ = 0;
    /** Queued copies with `Copy::cancellable` set. */
    std::size_t cancellable_ = 0;
};

/**
 * Cross-copy state of one logical request, indexed by arrival id. The
 * one per-request record the engine keeps, so it stays small.
 */
struct ReqMeta
{
    /** Durable checkpointed progress, iterations. */
    std::int64_t doneIters = 0;
    /** When the hedge timer fired (trace span start; telemetry only). */
    double hedgedAt = 0.0;
    int primaryReplica = -1;
    int liveCopies = 0;
    bool done = false;
    bool hedged = false;
    bool primaryInFlight = false;
};

/** One copy riding a batch, with its progress through the request. */
struct Member
{
    Copy copy;
    /** Checkpointed iterations already durable at dispatch time. */
    std::int64_t baseIters = 0;
    /**
     * Iterations the copy still needs: counted down per iteration under
     * continuous batching, fixed at dispatch under greedy checkpointing.
     */
    std::int64_t remIters = 0;
    /** GPU-seconds of earlier iterations spent on it (continuous). */
    double servedSeconds = 0.0;
    /** Served at least one degraded iteration (continuous). */
    bool degraded = false;
};

/**
 * What occupies a GPU: a whole greedy batch, or the current iteration
 * of a continuous batch (whose members persist across iterations).
 */
struct InFlightBatch
{
    double start = 0.0;
    /** Resolution time: completion, or abort when `timedOut`. */
    double finish = 0.0;
    /** Full service time including checkpoint-write overhead. */
    double plannedService = 0.0;
    /** Service time excluding checkpoint-write overhead. */
    double workService = 0.0;
    /** Iterations the longest member still needed at dispatch. */
    std::int64_t maxRemIters = 0;
    /** Checkpoints this run writes if it completes. */
    std::int64_t ckpts = 0;
    bool degraded = false;
    bool timedOut = false;
    std::vector<Member> members;
};

/** Completion-queue entry; `epoch` lazily invalidates killed work. */
struct FinishEvent
{
    double time;
    int gpu;
    std::uint64_t epoch;

    bool
    operator>(const FinishEvent& other) const
    {
        return time > other.time;
    }
};

/**
 * A copy due at `time`: a retry once its backoff ends, or a hedge
 * timer carrying the primary as it was dispatched. `seq` keeps ties
 * deterministic.
 */
struct TimedCopy
{
    double time;
    std::uint64_t seq;
    Copy copy;

    bool
    operator>(const TimedCopy& other) const
    {
        return time != other.time ? time > other.time : seq > other.seq;
    }
};

/** GPU up/down edge from the fault plan (chaos kills folded in). */
struct Transition
{
    double time;
    int gpu;
    bool down;

    /** Time order; at one instant, by GPU, up-edge before down-edge. */
    bool
    operator<(const Transition& other) const
    {
        return std::tie(time, gpu, down) <
               std::tie(other.time, other.gpu, other.down);
    }
};

/** Scripted slowdown window on one GPU (chaos degrade/straggle). */
struct SlowWindow
{
    double start = 0.0;
    double end = 0.0;
    double factor = 1.0;
};

enum class BreakerState
{
    Closed,
    Open,
    HalfOpen,
};

/**
 * Size bucket of a request on a replica's surface: the index of the
 * smallest size-grid node covering it (last node for off-grid
 * giants). Continuous batching only co-schedules same-bucket members,
 * so a heavy-tailed request can never drag a batch of small ones at
 * its padded shape. A one-node size grid (every model-priced replica)
 * has a single bucket, which disables the restriction.
 */
std::size_t
sizeBucket(const BatchLatencySurface& surface, double size)
{
    const std::vector<double>& grid = surface.sizeGrid;
    std::size_t i = 0;
    while (i + 1 < grid.size() && grid[i] < size)
        ++i;
    return i;
}

template <typename Event>
using MinHeap =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

/**
 * One GPU: what it runs, whether it is up, its replica and its
 * faults. The two fields a free-GPU search reads, `batch` and `down`,
 * come first and side by side: on a 100-GPU backlog that search runs
 * at every event, and the cold fields between them cost ~5%.
 */
struct Gpu
{
    std::optional<InFlightBatch> batch{};
    bool down = false;
    int replica = 0;
    /**
     * Bumped at every launch and release: a finish event carrying an
     * older epoch belongs to work that was killed or replaced.
     */
    std::uint64_t epoch = 0;
    /** Outages (faults + chaos kills) and persistent slowdown. */
    GpuFaultTimeline faults{};
    /** Chaos slowdown windows (degraded domain, straggler). */
    std::vector<SlowWindow> slow{};
};

/** One replica: its queue, pricing, GPUs, health, breaker and load. */
struct Replica
{
    ReplicaQueue queue;
    BatchLatencySurface surface;
    /** It owns GPUs [firstGpu, firstGpu + numGpus) of the flat index. */
    int firstGpu = 0;
    int numGpus = 0;
    int domain = 0;
    /** Health as the last probe saw it; the router acts on this. */
    bool knownUp = true;
    double nextProbe = kNever;
    BreakerState breaker = BreakerState::Closed;
    int consecFailures = 0;
    int halfOpenSuccesses = 0;
    double openedAt = 0.0;
    /** Batches on its GPUs, and the copies riding them. */
    int batches = 0;
    std::size_t running = 0;
    ReplicaStats stats;
    /** Label set of its sampled series and counters. */
    telemetry::Labels labels;

    /** The router's load: copies queued or running here. */
    std::size_t load() const { return queue.size() + running; }
};

/**
 * Event sources, in the order they win a same-instant tie: the first
 * minimum of `Sources::due` is the next event. A completion precedes a
 * same-instant sample, so the sample sees the state after every
 * simulation event at its timestamp.
 */
enum Source : std::size_t
{
    kArrival,
    kFault,
    kProbe,
    kHedge,
    kRetry,
    kCompletion,
    kSample,
    kSources,
};

/** The seven event sources and what each fires next. */
struct Sources
{
    // Arrivals come from the workload generator. The legacy default
    // (no mix configured) draws gaps from the unsplit Rng(seed)
    // stream, while faults, chaos, and probe jitter draw from split
    // streams, so no cluster feature can perturb the arrival sequence.
    explicit Sources(const ClusterConfig& cfg)
        : arrivals(cfg.workload.enabled()
                       ? workload::ArrivalGenerator(
                             cfg.seed, cfg.arrivalRate, cfg.workload)
                       : workload::ArrivalGenerator(cfg.seed,
                                                    cfg.arrivalRate)),
          pending(arrivals.next())
    {}

    workload::ArrivalGenerator arrivals;
    workload::Arrival pending;
    /** GPU up/down edges in time order; `nextFault` is the next one. */
    std::vector<Transition> faults;
    std::size_t nextFault = 0;
    /** The first probe due soonest at or before the horizon. */
    double probeAt = kNever;
    int probeReplica = -1;
    MinHeap<TimedCopy> hedges;
    MinHeap<TimedCopy> retries;
    /** Tie-breaker of the hedge and retry heaps, in push order. */
    std::uint64_t seq = 0;
    MinHeap<FinishEvent> finishes;
    /** Sample k lands at exactly k * interval, the last on the horizon. */
    std::int64_t sampleIndex = 1;
    double sampleAt = kNever;

    std::array<double, kSources> due() const
    {
        return {
            pending.time,
            nextFault < faults.size() ? faults[nextFault].time : kNever,
            probeAt,
            hedges.empty() ? kNever : hedges.top().time,
            retries.empty() ? kNever : retries.top().time,
            finishes.empty() ? kNever : finishes.top().time,
            sampleAt,
        };
    }
};

/**
 * The run's trace lanes: per-GPU lanes for batch and outage spans,
 * shared lanes for lifecycle, breaker-transition, and hedge events.
 * Without a sink every call does nothing.
 */
class Tracer
{
  public:
    /** The shared lanes. */
    enum Lane { kLifecycle, kBreakers, kHedges };

    explicit Tracer(telemetry::TraceSink* sink) : sink_(sink) {}

    /** Register the lanes and draw every GPU's outages. */
    void open(const std::vector<Gpu>& gpus, bool continuous)
    {
        continuous_ = continuous;
        if (sink_ == nullptr)
            return;
        for (const char* lane : {"lifecycle", "breakers", "hedges"})
            lanes_.push_back(sink_->track("serving", lane));
        for (std::size_t g = 0; g < gpus.size(); ++g) {
            gpuLanes_.push_back(sink_->track(
                "serving", "gpu " + std::to_string(g) + " (replica " +
                               std::to_string(gpus[g].replica) + ")"));
            for (const Outage& o : gpus[g].faults.outages)
                sink_->complete(gpuLanes_.back(), "outage", o.start,
                                o.end - o.start, "fault");
        }
    }

    /** An instant on a shared lane, labeled `key`=`value` if given. */
    void instant(Lane lane, const char* name, double t,
                 const char* key = nullptr, int value = 0) const
    {
        if (sink_ == nullptr)
            return;
        static constexpr const char* kCategory[] = {"lifecycle", "breaker",
                                                    "hedge"};
        telemetry::Labels args;
        if (key != nullptr)
            args.set(key, std::to_string(value));
        sink_->instant(lanes_[lane], name, t, kCategory[lane], args);
    }

    /** From the hedge timer firing to whichever copy answered first. */
    void hedgeSpan(double from, double to, bool hedgeWon) const
    {
        if (sink_ != nullptr)
            sink_->complete(
                lanes_[kHedges], "hedged request", from, to - from, "hedge",
                telemetry::Labels{{"won", hedgeWon ? "hedge" : "primary"}});
    }

    /** A batch (or iteration) span of GPU g, on its replica `r`. */
    void run(int g, int r, const InFlightBatch& fl, double end,
             const char* outcome) const
    {
        if (sink_ == nullptr)
            return;
        const std::string b = std::to_string(fl.members.size());
        telemetry::Labels args{{"batch", b},
                               {"replica", std::to_string(r)},
                               {"outcome", outcome}};
        if (fl.degraded)
            args.set("degraded", "1");
        sink_->complete(gpuLanes_[static_cast<std::size_t>(g)],
                        (continuous_ ? "iter b=" : "batch b=") + b,
                        fl.start, end - fl.start, "batch", args);
    }

  private:
    telemetry::TraceSink* sink_;
    bool continuous_ = false;
    std::vector<int> lanes_;
    std::vector<int> gpuLanes_;
};

/** Validate `cfg` and pass it on, so set-up never reads a bad one. */
const ClusterConfig&
validated(const ClusterConfig& cfg)
{
    cfg.validate();
    return cfg;
}

/**
 * The serving engine of one `simulateCluster` run. Its state comes in
 * named parts: per GPU (`Gpu`), per replica (`Replica`), per request
 * (`ReqMeta`), the event sources (`Sources`) and the trace lanes
 * (`Tracer`). `run()` is the due-time loop; it hands each event to one
 * member. Each request transition has exactly one method: `admit` (an
 * arrival), `enqueue`, `launch` (a copy starts service, under
 * `dispatch`), `answer` (a copy finishes, under `finishBatch` or
 * `finishIteration`), `failBatch` (a kill or timeout, with salvage),
 * `retry`, `hedge`, `expireHead` and `cancel`.
 */
class ClusterSim
{
  public:
    ClusterSim(const ClusterConfig& cfg, const telemetry::Telemetry* tele)
        : cfg_(validated(cfg)), horizon_(cfg.horizonSeconds),
          deadline_(cfg.resilience.deadline),
          degradation_(cfg.resilience.degradation), ckpt_(cfg.checkpoint),
          continuous_(cfg.continuousBatching),
          breakerOn_(cfg.breaker.enabled()),
          hedgeOn_(cfg.hedge.enabled() && cfg.replicas.size() > 1),
          ckptOn_(cfg.checkpoint.enabled()),
          // Memory-aware batch ceiling: the static liveness bound (when
          // the admission policy carries one) clamps how large a batch
          // may be dispatched; a bound of zero means not even one
          // request fits and every arrival is shed. Unset reproduces
          // cfg.maxBatch.
          maxBatch_(cfg.resilience.admission.hasMemoryBound()
                        ? static_cast<int>(std::min<std::int64_t>(
                              cfg.maxBatch,
                              cfg.resilience.admission.memoryFeasibleBatch))
                        : cfg.maxBatch),
          metrics_(tele != nullptr ? tele->metrics : nullptr),
          sampleInterval_(tele != nullptr && tele->wantsSampling()
                              ? tele->sampleIntervalSeconds
                              : 0.0),
          src_(cfg),
          trace_(tele != nullptr && tele->wantsTrace() ? tele->trace
                                                       : nullptr)
    {
        if (tele != nullptr)
            tele->validate(horizon_);
        layOut();
        FleetFaultPlan plan = compileFaults();
        report_.meanAvailability = plan.meanAvailability(horizon_);
        cluster_.domainAvailability = plan.domainAvailability(horizon_);
        report_.effectiveMaxBatch = maxBatch_;
        // Offered load versus full-batch fleet capacity (the infeasible
        // case rates a batch of one; everything is shed anyway).
        const int rate_batch = std::max(maxBatch_, 1);
        double capacity = 0.0;
        for (const Replica& rp : reps_) {
            const double batch_rate =
                static_cast<double>(rate_batch) /
                rp.surface.batchSeconds(rate_batch, 1.0);
            capacity += batch_rate * static_cast<double>(rp.numGpus);
        }
        report_.offeredLoad = cfg.arrivalRate / capacity;
        // Each GPU keeps its timeline; the edges become one sorted list.
        for (int g = 0; g < numGpus(); ++g) {
            gpu(g).faults = std::move(plan.gpus[static_cast<std::size_t>(g)]);
            for (const Outage& o : gpu(g).faults.outages) {
                src_.faults.push_back({o.start, g, true});
                src_.faults.push_back({o.end, g, false});
            }
        }
        std::sort(src_.faults.begin(), src_.faults.end());
        trace_.open(gpus_, continuous_);
        // Probes only exist when someone consumes their output: router
        // health matters with > 1 replica, breaker transitions need the
        // probe clock. A one-replica pool without breakers (every
        // `simulateServing` run) schedules no probe events at all.
        if (numReplicas() > 1 || breakerOn_) {
            for (int r = 0; r < numReplicas(); ++r) {
                Rng pr = Rng::stream(
                    cfg.seed, kProbeStream + static_cast<std::uint64_t>(r));
                rep(r).nextProbe = pr.uniform(
                    0.0,
                    cfg.probe.jitterFraction * cfg.probe.intervalSeconds);
            }
            scheduleProbe();
        }
        if (sampleInterval_ > 0.0)
            src_.sampleAt = std::min(sampleInterval_, horizon_);
    }

    ClusterReport run()
    {
        while (true) {
            // Drop stale finish events (their batch was killed).
            while (!src_.finishes.empty() &&
                   src_.finishes.top().epoch !=
                       gpu(src_.finishes.top().gpu).epoch)
                src_.finishes.pop();
            const std::array<double, kSources> due = src_.due();
            const auto source = static_cast<std::size_t>(
                std::min_element(due.begin(), due.end()) - due.begin());
            const double now = due[source];
            if (source == kArrival && now > horizon_)
                break;
            if (source == kArrival)
                admit(now);
            else if (source == kFault)
                faultEdge(now);
            else if (source == kProbe)
                probe(now);
            else if (source == kHedge)
                hedge(now);
            else if (source == kRetry)
                requeueRetries(now);
            else if (source == kSample)
                sample(now);
            else if (complete(now))
                break;
        }
        return finalReport();
    }

  private:
    int numGpus() const { return static_cast<int>(gpus_.size()); }
    int numReplicas() const { return static_cast<int>(reps_.size()); }
    Gpu& gpu(int g) { return gpus_[static_cast<std::size_t>(g)]; }
    Replica& rep(int r) { return reps_[static_cast<std::size_t>(r)]; }
    ReqMeta& meta(std::uint32_t id) { return meta_[id]; }

    // -- set-up --

    // Global GPU indexing: replica r owns [firstGpu, firstGpu +
    // numGpus), so the fault plan, chaos targets, and the event loop
    // all speak one flat index space.
    void layOut()
    {
        for (const ReplicaSpec& spec : cfg_.replicas) {
            const int r = numReplicas();
            Replica& rp = reps_.emplace_back();
            // Every replica prices batches off a latency surface; a
            // replica priced by a linear model gets the model's exact
            // surface (one size node, so request size never changes
            // its price).
            rp.surface = spec.surface.empty()
                             ? BatchLatencySurface::fromLatencyModel(
                                   spec.latency, cfg_.maxBatch)
                             : spec.surface;
            rp.firstGpu = numGpus();
            rp.numGpus = spec.numGpus;
            rp.domain = spec.domain;
            rp.labels = telemetry::Labels{{"replica", std::to_string(r)}};
            for (int k = 0; k < spec.numGpus; ++k)
                gpus_.push_back(Gpu{.replica = r});
        }
    }

    // The fault plan with the chaos scenario compiled in: kills become
    // outage windows on every member GPU (so availability accounting
    // sees them), degrades/stragglers become timed slowdown windows
    // applied at dispatch.
    FleetFaultPlan compileFaults()
    {
        // Correlated fault domains: `faults.domainSize` partitions the
        // GPUs in global order when set (the single-pool layout);
        // otherwise a replica's GPUs share its domain.
        const int domainSize = cfg_.resilience.faults.domainSize;
        std::vector<int> faultDomainOf;
        for (int g = 0; g < numGpus(); ++g)
            faultDomainOf.push_back(domainSize >= 1
                                        ? g / domainSize
                                        : rep(gpu(g).replica).domain);
        FleetFaultPlan plan = planFaults(cfg_.resilience.faults,
                                         faultDomainOf, horizon_, cfg_.seed);
        std::vector<bool> killed(gpus_.size(), false);
        for (const ChaosEvent& ev : cfg_.chaos.events) {
            const double end = ev.durationSeconds > 0.0
                                   ? ev.atSeconds + ev.durationSeconds
                                   : horizon_;
            if (end <= ev.atSeconds)
                continue;
            switch (ev.kind) {
            case ChaosEventKind::KillReplica:
                for (int k = 0; k < rep(ev.target).numGpus; ++k) {
                    const auto g =
                        static_cast<std::size_t>(rep(ev.target).firstGpu + k);
                    plan.gpus[g].outages.push_back(
                        {ev.atSeconds, end, OutageKind::Failure});
                    killed[g] = true;
                }
                break;
            case ChaosEventKind::DegradeDomain:
                for (Gpu& gp : gpus_) {
                    if (rep(gp.replica).domain == ev.target)
                        gp.slow.push_back({ev.atSeconds, end, ev.factor});
                }
                break;
            case ChaosEventKind::StraggleGpu:
                gpu(ev.target).slow.push_back(
                    {ev.atSeconds, end, ev.factor});
                break;
            }
        }
        for (std::size_t g = 0; g < gpus_.size(); ++g) {
            if (killed[g])
                plan.gpus[g].outages =
                    mergeOutages(std::move(plan.gpus[g].outages));
        }
        return plan;
    }

    // -- event sources --

    /** An arrival: shed it, or open its request and route a copy. */
    void admit(double now)
    {
        ++report_.arrived;
        const workload::Arrival& a = src_.pending;
        if (maxBatch_ == 0) {
            // Not even a batch of one fits any replica's GPU: shed with
            // a memory rejection, never queue.
            ++report_.shed;
            ++report_.memoryShed;
            trace_.instant(Tracer::kLifecycle, "shed_memory", now);
        } else if (cfg_.resilience.admission.enabled() &&
                   totalQueued() >=
                       cfg_.resilience.admission.maxQueueLength) {
            ++report_.shed;
            trace_.instant(Tracer::kLifecycle, "shed", now);
        } else {
            MMGEN_CHECK(meta_.size() <
                            std::numeric_limits<std::uint32_t>::max(),
                        "more than 2^32 admitted requests");
            const auto id = static_cast<std::uint32_t>(meta_.size());
            meta_.push_back(ReqMeta{.liveCopies = 1});
            enqueue(route(-1), Copy{.arrival = now,
                                    .size = a.sizeScale,
                                    .id = id,
                                    .priority = a.priority});
            size_sum_ += a.sizeScale;
            trace_.instant(Tracer::kLifecycle, "admit", now);
        }
        src_.pending = src_.arrivals.next();
        dispatch(now);
    }

    /** A GPU availability edge: a down edge kills the GPU's batch. */
    void faultEdge(double now)
    {
        const Transition tr = src_.faults[src_.nextFault++];
        Gpu& gp = gpu(tr.gpu);
        gp.down = tr.down;
        if (!tr.down) {
            dispatch(now);
        } else if (gp.batch.has_value()) {
            trace_.run(tr.gpu, gp.replica, *gp.batch, now, "killed");
            failBatch(tr.gpu, now);
        }
    }

    /** The first replica whose probe is due soonest, by the horizon. */
    void scheduleProbe()
    {
        src_.probeAt = kNever;
        src_.probeReplica = -1;
        for (int r = 0; r < numReplicas(); ++r) {
            const double t = rep(r).nextProbe;
            if (t <= horizon_ && t < src_.probeAt) {
                src_.probeAt = t;
                src_.probeReplica = r;
            }
        }
    }

    // Health probe: refresh router knowledge, advance due breakers
    // from open to half-open.
    void probe(double now)
    {
        const int r = src_.probeReplica;
        Replica& rp = rep(r);
        rp.knownUp = false;
        for (int g = rp.firstGpu; g < rp.firstGpu + rp.numGpus; ++g)
            rp.knownUp = rp.knownUp || !gpu(g).down;
        rp.nextProbe += cfg_.probe.intervalSeconds;
        scheduleProbe();
        if (breakerOn_ && rp.breaker == BreakerState::Open &&
            now >= rp.openedAt + cfg_.breaker.openSeconds) {
            rp.breaker = BreakerState::HalfOpen;
            rp.halfOpenSuccesses = 0;
            trace_.instant(Tracer::kBreakers, "breaker_half_open", now,
                           "replica", r);
            dispatch(now);
        }
    }

    // Hedge timer: the primary has run long enough — issue a backup
    // copy on a different replica.
    void hedge(double now)
    {
        // The primary as it was dispatched becomes the backup.
        Copy copy = src_.hedges.top().copy;
        src_.hedges.pop();
        ReqMeta& m = meta(copy.id);
        if (m.done || m.hedged || !m.primaryInFlight)
            return;
        const int target = route(m.primaryReplica);
        if (target < 0 || target == m.primaryReplica)
            return;
        m.hedged = true;
        m.hedgedAt = now;
        ++m.liveCopies;
        ++report_.hedgesIssued;
        if (now > horizon_)
            ++report_.drainHedgesIssued;
        trace_.instant(Tracer::kHedges, "hedge_issue", now, "target",
                       target);
        copy.attempts = 0;
        copy.hedge = true;
        enqueue(target, copy);
        dispatch(now);
    }

    /** Backed-off copies re-enter a queue via the router. */
    void requeueRetries(double now)
    {
        while (!src_.retries.empty() && src_.retries.top().time <= now) {
            const Copy copy = src_.retries.top().copy;
            src_.retries.pop();
            enqueue(route(-1), copy);
        }
        dispatch(now);
    }

    // A greedy batch or a continuous iteration resolves (may run past
    // the horizon to drain); true once the drain is over.
    bool complete(double now)
    {
        const int g = src_.finishes.top().gpu;
        src_.finishes.pop();
        const Gpu& gp = gpu(g);
        const bool timedOut = gp.batch->timedOut;
        trace_.run(g, gp.replica, *gp.batch, now,
                   timedOut ? "timeout" : "ok");
        if (timedOut)
            failBatch(g, now);
        else if (continuous_)
            finishIteration(g);
        else
            finishBatch(g);
        if (now > horizon_ && totalQueued() == 0 && busy_gpus_ == 0 &&
            src_.retries.empty())
            return true;
        dispatch(now);
        return false;
    }

    // Periodic state sampling: an extra event source with the lowest
    // tie priority, so a sample at time t observes the state *after*
    // every simulation event at t. No floating-point accumulation
    // drifts the sample times; after the final sample, clamped onto
    // the horizon, the source goes quiet.
    void sample(double t)
    {
        record("serving.queue_depth", t, totalQueued());
        record("serving.in_flight_gpus", t, busy_gpus_);
        record("serving.retry_backlog", t, src_.retries.size());
        record("serving.arrived_total", t, report_.arrived);
        record("serving.completed_total", t, report_.completed);
        record("serving.shed_total", t, report_.shed);
        record("serving.retries_total", t, report_.retries);
        record("serving.hedges_issued_total", t, report_.hedgesIssued);
        for (const Replica& rp : reps_) {
            record("serving.replica.queue_depth", t, rp.queue.size(),
                   rp.labels);
            record("serving.replica.in_flight_batches", t, rp.batches,
                   rp.labels);
            double state = 0.0;
            if (rp.breaker == BreakerState::Open)
                state = 1.0;
            else if (rp.breaker == BreakerState::HalfOpen)
                state = 2.0;
            record("serving.replica.breaker_state", t, state, rp.labels);
            // Utilization so far: resolved busy-seconds plus the
            // elapsed share of still-running batches (their busy time
            // is only booked at resolution).
            double busy = rp.stats.busySeconds;
            for (int g = rp.firstGpu; g < rp.firstGpu + rp.numGpus; ++g) {
                if (gpu(g).batch.has_value())
                    busy += std::max(0.0, t - gpu(g).batch->start);
            }
            record("serving.replica.utilization", t,
                   busy / (t * static_cast<double>(rp.numGpus)), rp.labels);
        }
        const double next =
            sampleInterval_ * static_cast<double>(++src_.sampleIndex);
        src_.sampleAt = t >= horizon_ ? kNever : std::min(next, horizon_);
    }

    /** Append (t, value) to a sampled series; counts convert exactly. */
    void record(const char* name, double t, double value,
                const telemetry::Labels& labels = {})
    {
        metrics_->series(name, labels).record(t, value);
    }

    // -- routing and breakers --

    /** Whether the router may pick `rp` in preference tier `tier`. */
    bool routable(const Replica& rp, int tier) const
    {
        // A half-open replica may receive work only while completely
        // idle: one trial request probes it, further traffic waits for
        // the verdict. Without this trickle the breaker could never
        // observe the successes it needs to close.
        const bool halfOpenIdle = rp.breaker == BreakerState::HalfOpen &&
                                  rp.batches == 0 && rp.queue.empty();
        if (tier == 0)
            return rp.knownUp &&
                   (!breakerOn_ || rp.breaker == BreakerState::Closed ||
                    halfOpenIdle);
        return tier > 1 ||
               (rp.knownUp &&
                !(breakerOn_ && rp.breaker == BreakerState::Open));
    }

    /** A replica of failure domain `domain` is down or tripped. */
    bool domainSuspect(int domain) const
    {
        for (const Replica& o : reps_) {
            if (o.domain == domain &&
                (!o.knownUp ||
                 (breakerOn_ && o.breaker != BreakerState::Closed)))
                return true;
        }
        return false;
    }

    // Route one copy to a replica. Preference tiers: healthy replicas
    // (closed breaker, or an idle half-open one taking its trial),
    // then any non-open breaker, then anything — the policy picks
    // within the best non-empty tier. Deterministic: no RNG, ties to
    // the lowest index (or the round-robin cursor).
    int route(int exclude)
    {
        cand_.clear();
        for (int tier = 0; tier < 3 && cand_.empty(); ++tier) {
            for (int r = 0; r < numReplicas(); ++r) {
                if (r != exclude && routable(rep(r), tier))
                    cand_.push_back(r);
            }
        }
        if (cand_.empty())
            return -1;
        switch (cfg_.router) {
        case RouterPolicy::RoundRobin:
            return cand_[rr_counter_++ % cand_.size()];
        case RouterPolicy::LeastLoaded:
            break;
        case RouterPolicy::FailureDomainAware:
            // Deprioritize replicas sharing a failure domain with a
            // known-down or breaker-tripped replica.
            clean_.clear();
            for (int r : cand_) {
                if (!domainSuspect(rep(r).domain))
                    clean_.push_back(r);
            }
            if (!clean_.empty())
                std::swap(cand_, clean_);
            break;
        }
        int best = cand_.front();
        for (int r : cand_) {
            if (rep(r).load() < rep(best).load())
                best = r;
        }
        return best;
    }

    // Trip the breaker: stop routing to the replica and push its
    // queued work through the router toward healthy peers.
    void openBreaker(int r, double now)
    {
        Replica& rp = rep(r);
        rp.breaker = BreakerState::Open;
        rp.openedAt = now;
        rp.consecFailures = 0;
        rp.halfOpenSuccesses = 0;
        ++report_.breakerOpens;
        ++rp.stats.breakerOpens;
        trace_.instant(Tracer::kBreakers, "breaker_open", now, "replica", r);
        if (numReplicas() == 1)
            return;
        ReplicaQueue moved = std::exchange(rp.queue, ReplicaQueue());
        while (!moved.empty()) {
            const Copy c = moved.pop();
            if (meta(c.id).done) {
                cancel(c);
                continue;
            }
            const int target = route(r);
            enqueue(target >= 0 ? target : r, c);
        }
    }

    // A batch on replica r failed: a half-open breaker re-opens, a
    // closed one opens at the threshold of consecutive failures.
    void noteBatchFailure(int r, double now)
    {
        Replica& rp = rep(r);
        if (breakerOn_ &&
            (rp.breaker == BreakerState::HalfOpen ||
             (++rp.consecFailures >= cfg_.breaker.failureThreshold &&
              rp.breaker == BreakerState::Closed)))
            openBreaker(r, now);
    }

    void noteBatchSuccess(int r, double now)
    {
        if (!breakerOn_)
            return;
        Replica& rp = rep(r);
        rp.consecFailures = 0;
        if (rp.breaker != BreakerState::HalfOpen ||
            ++rp.halfOpenSuccesses < cfg_.breaker.halfOpenSuccesses)
            return;
        rp.breaker = BreakerState::Closed;
        rp.halfOpenSuccesses = 0;
        ++report_.breakerCloses;
        trace_.instant(Tracer::kBreakers, "breaker_close", now, "replica",
                       r);
    }

    // -- request transitions --

    /** A copy joins replica r's queue, cancellable if hedged. */
    void enqueue(int r, Copy copy)
    {
        copy.cancellable = meta(copy.id).hedged;
        rep(r).queue.push(copy);
    }

    /** A duplicate copy leaves unserved; its twin serves the request. */
    void cancel(const Copy& copy)
    {
        ++report_.hedgesCancelled;
        --meta(copy.id).liveCopies;
    }

    // Lazily expire the head of `rp`'s queue when its deadline already
    // passed (serving it would be wasted work); true if it did.
    bool expireHead(Replica& rp, double now)
    {
        if (!deadline_.hasDeadline() ||
            rp.queue.front().arrival + deadline_.deadlineSeconds > now)
            return false;
        const Copy copy = rp.queue.pop();
        ReqMeta& m = meta(copy.id);
        if (m.liveCopies != 1) {
            cancel(copy); // a twin still serves the request
            return true;
        }
        --m.liveCopies;
        ++report_.expired;
        trace_.instant(Tracer::kLifecycle, "expire", now);
        return true;
    }

    // Drop queued duplicates whose twin already answered: serving
    // them would be pure waste.
    void dropCancelled(Replica& rp)
    {
        rp.queue.eraseCancelled([&](const Copy& c) {
            if (!meta(c.id).done)
                return false;
            cancel(c);
            return true;
        });
    }

    // Requeue a faulted/timed-out copy with backoff, or drop it.
    void retry(Copy copy, double now)
    {
        ReqMeta& m = meta(copy.id);
        if (copy.attempts >= cfg_.resilience.retry.maxRetries) {
            --m.liveCopies;
            if (!m.done && m.liveCopies == 0) {
                ++report_.dropped;
                trace_.instant(Tracer::kLifecycle, "drop", now);
            }
            return;
        }
        ++copy.attempts;
        ++report_.retries;
        // The closing sample at the horizon cannot see a drain retry.
        if (now > horizon_)
            ++report_.drainRetries;
        trace_.instant(Tracer::kLifecycle, "retry", now);
        src_.retries.push(
            {now + cfg_.resilience.retry.backoffSeconds(copy.attempts),
             src_.seq++, copy});
    }

    // A queued copy starts service on replica r: it resumes from the
    // request's last checkpoint, and a primary arms the hedge timer.
    Member launch(const Copy& copy, int r, double now)
    {
        ReqMeta& m = meta(copy.id);
        if (ckptOn_ && m.doneIters > 0)
            ++report_.resumes;
        if (!copy.hedge) {
            m.primaryInFlight = true;
            m.primaryReplica = r;
            if (hedgeOn_ && !m.hedged)
                src_.hedges.push(
                    {now + cfg_.hedge.delaySeconds, src_.seq++, copy});
        }
        ++rep(r).running;
        return Member{copy, m.doneIters};
    }

    // A copy finished service at `finish`. The first copy of a request
    // to finish answers it; a twin finishing later spent `spent`
    // GPU-seconds on duplicate work.
    void answer(const Copy& copy, double finish, double spent, int r)
    {
        ReqMeta& m = meta(copy.id);
        if (!copy.hedge)
            m.primaryInFlight = false;
        --m.liveCopies;
        if (m.done) {
            report_.hedgeWastedSeconds += spent;
            return;
        }
        m.done = true;
        if (copy.hedge)
            ++report_.hedgesWon;
        if (m.hedged)
            trace_.hedgeSpan(m.hedgedAt, finish, copy.hedge);
        const double lat = finish - copy.arrival;
        latencies_.push_back(lat);
        ++report_.completed;
        ++rep(r).stats.completedRequests;
        if (finish > horizon_)
            ++report_.drainCompleted;
        const bool in_deadline =
            !deadline_.hasDeadline() || lat <= deadline_.deadlineSeconds;
        if (!in_deadline)
            ++deadline_misses_;
        if (finish <= horizon_ && in_deadline)
            ++goodput_count_;
    }

    // Kill the batch on GPU g at `now` (a fault hit or a batch
    // timeout) and resolve every member: salvage any checkpointed
    // progress, book the destroyed GPU-seconds (a continuous member
    // also loses the iterations it already served), and put live
    // copies back through the retry policy.
    void failBatch(int g, double now)
    {
        const int r = gpu(g).replica;
        const InFlightBatch fl = release(g);
        accountBusy(fl.start, now, r);
        report_.lostGpuSeconds += now - fl.start;
        const double elapsed = now - fl.start;
        const double b = static_cast<double>(fl.members.size());
        // Fraction of the planned run that completed before the kill.
        const bool salvageable = ckptOn_ && fl.plannedService > 0.0;
        const double q =
            salvageable ? std::min(elapsed / fl.plannedService, 1.0) : 0.0;
        if (salvageable) {
            const std::int64_t advMax = static_cast<std::int64_t>(
                q * static_cast<double>(fl.maxRemIters));
            const std::int64_t taken = advMax / ckpt_.intervalIterations;
            report_.checkpointsTaken += taken;
            report_.checkpointOverheadSeconds +=
                static_cast<double>(taken) * ckpt_.costSeconds;
        }
        for (const Member& mb : fl.members) {
            const Copy& copy = mb.copy;
            ReqMeta& m = meta(copy.id);
            if (!copy.hedge)
                m.primaryInFlight = false;
            const double share = mb.servedSeconds + elapsed / b;
            if (m.done) {
                // Duplicate of an already-answered request: all its
                // progress is hedge waste, nothing retries.
                report_.hedgeWastedSeconds += share;
                --m.liveCopies;
                continue;
            }
            double salvage = 0.0;
            if (salvageable) {
                const std::int64_t rem = mb.remIters;
                const std::int64_t adv = static_cast<std::int64_t>(
                    q * static_cast<double>(rem));
                const std::int64_t ck = (adv / ckpt_.intervalIterations) *
                                        ckpt_.intervalIterations;
                if (ck > 0) {
                    m.doneIters = std::max(m.doneIters, mb.baseIters + ck);
                    salvage = (static_cast<double>(ck) /
                               static_cast<double>(rem)) *
                              (fl.workService / b);
                }
            }
            report_.wastedGpuSeconds += share - salvage;
            report_.restoredGpuSeconds += salvage;
            retry(copy, now);
        }
        ++rep(r).stats.abortedBatches;
        noteBatchFailure(r, now);
    }

    // -- GPUs and batches --

    void accountBusy(double start, double end, int r)
    {
        busy_in_horizon_ += std::max(0.0, std::min(end, horizon_) - start);
        report_.drainGpuSeconds +=
            std::max(0.0, end - std::max(start, horizon_));
        rep(r).stats.busySeconds += end - start;
    }

    double slowdownAt(int g, double now)
    {
        double s = gpu(g).faults.slowdown;
        for (const SlowWindow& w : gpu(g).slow) {
            if (now >= w.start && now < w.end)
                s *= w.factor;
        }
        return s;
    }

    bool degradeNow(const Replica& rp) const
    {
        return degradation_.enabled() &&
               static_cast<std::int64_t>(rp.queue.size()) >=
                   degradation_.queueThreshold;
    }

    std::int64_t totalQueued() const
    {
        std::int64_t n = 0;
        for (const Replica& rp : reps_)
            n += static_cast<std::int64_t>(rp.queue.size());
        return n;
    }

    int freeGpu(const Replica& rp)
    {
        for (int g = rp.firstGpu; g < rp.firstGpu + rp.numGpus; ++g) {
            if (!gpu(g).batch.has_value() && !gpu(g).down)
                return g;
        }
        return -1;
    }

    /** Put `fl` on GPU g, which it holds until `release`. */
    InFlightBatch& occupy(int g, InFlightBatch fl)
    {
        Gpu& gp = gpu(g);
        gp.batch = std::move(fl);
        ++busy_gpus_;
        ++rep(gp.replica).batches;
        return *gp.batch;
    }

    // Take the batch off GPU g: its pending finish event goes stale and
    // the GPU is free.
    InFlightBatch release(int g)
    {
        Gpu& gp = gpu(g);
        InFlightBatch fl = std::move(*gp.batch);
        gp.batch.reset();
        ++gp.epoch;
        --busy_gpus_;
        --rep(gp.replica).batches;
        rep(gp.replica).running -= fl.members.size();
        return fl;
    }

    // Start `service` seconds of work on GPU g. A run longer than the
    // batch timeout is scheduled to abort at the timeout instead.
    void launchRun(InFlightBatch& fl, int g, double service, double now)
    {
        fl.start = now;
        fl.timedOut = deadline_.hasTimeout() &&
                      service > deadline_.batchTimeoutSeconds;
        fl.finish =
            now + (fl.timedOut ? deadline_.batchTimeoutSeconds : service);
        batch_sizes_.push_back(static_cast<double>(fl.members.size()));
        ++rep(gpu(g).replica).stats.dispatchedBatches;
        src_.finishes.push({fl.finish, g, ++gpu(g).epoch});
    }

    // Start work on every free, up GPU of every replica that may take
    // it: a greedy batch, or a new continuous batch's first iteration.
    void dispatch(double now)
    {
        if (maxBatch_ == 0)
            return; // memory-infeasible: nothing may be scheduled
        for (int r = 0; r < numReplicas(); ++r) {
            Replica& rp = rep(r);
            if (breakerOn_ && rp.breaker == BreakerState::Open)
                continue;
            while (true) {
                if (hedgeOn_)
                    dropCancelled(rp);
                // A greedy batch takes the head as it stands, so the
                // head is vetted first; continuous admission vets every
                // request it admits.
                if (!continuous_) {
                    while (!rp.queue.empty() && expireHead(rp, now)) {
                    }
                }
                if (rp.queue.empty())
                    break;
                // A half-open breaker admits one trial batch at a time.
                if (breakerOn_ && rp.breaker == BreakerState::HalfOpen &&
                    rp.batches > 0)
                    break;
                const int g = freeGpu(rp);
                if (g < 0)
                    break;
                if (!continuous_) {
                    startBatch(g, now);
                    continue;
                }
                InFlightBatch fl;
                fill(fl, r, now);
                if (fl.members.empty())
                    break; // everything queued had expired
                occupy(g, std::move(fl));
                startIteration(g, now);
            }
        }
    }

    // Greedy dispatch: the head of the replica's queue (up to the batch
    // ceiling) runs on GPU g as one batch, held until all of it is done.
    void startBatch(int g, double now)
    {
        const int r = gpu(g).replica;
        Replica& rp = rep(r);
        InFlightBatch fl;
        fl.degraded = degradeNow(rp);
        const int batch = static_cast<int>(std::min<std::size_t>(
            rp.queue.size(), static_cast<std::size_t>(maxBatch_)));
        // Padded-batch pricing: the batch runs at its largest member's
        // shape.
        double max_size = 1.0;
        for (int i = 0; i < batch; ++i) {
            Member mb = launch(rp.queue.pop(), r, now);
            max_size = std::max(max_size, mb.copy.size);
            if (ckptOn_) {
                mb.remIters = ckpt_.iterations - mb.baseIters;
                fl.maxRemIters = std::max(fl.maxRemIters, mb.remIters);
            }
            fl.members.push_back(mb);
        }
        double service =
            rp.surface.batchSeconds(batch, max_size) * slowdownAt(g, now);
        if (fl.degraded)
            service *= degradation_.serviceScale;
        if (ckptOn_) {
            // Resume from the last checkpoint: the batch only runs the
            // longest member's remaining iterations, plus the cost of
            // the checkpoints it will write.
            service *= static_cast<double>(fl.maxRemIters) /
                       static_cast<double>(ckpt_.iterations);
            fl.workService = service;
            fl.ckpts = fl.maxRemIters / ckpt_.intervalIterations;
            service += static_cast<double>(fl.ckpts) * ckpt_.costSeconds;
        } else {
            fl.workService = service;
        }
        fl.plannedService = service;
        launchRun(occupy(g, std::move(fl)), g, service, now);
    }

    // -- continuous batching: the batch is a set of members advancing
    //    one pipeline iteration at a time; requests join and retire at
    //    iteration boundaries (validate -> batch -> schedule ->
    //    execute, at the granularity the pricing surface exposes) --

    // Fill a batch from replica r's queue at an iteration boundary,
    // lazily expiring requests whose deadline already passed.
    // Admission is size-bucketed: an empty batch takes its bucket from
    // the first (highest-priority) queued request, and only same-bucket
    // requests may join — padded-batch pricing runs a batch at its
    // largest member's shape, so mixing buckets would drag every small
    // member at the big one's cost for the rest of its residency (the
    // convoy that makes naive continuous batching lose to greedy under
    // heavy-tailed sizes). Refill never jumps past an incompatible
    // queue head either: serving later, lower-ranked compatible
    // requests first would let a GPU lock into one bucket while
    // higher-priority work starves (greedy re-dispatches from the head
    // after every batch; continuous must not be worse). Instead the
    // batch stops admitting, drains over its remaining iterations, and
    // the freed GPU re-buckets to the head — no worse a wait than
    // greedy's full-batch turnaround.
    void fill(InFlightBatch& fl, int r, double now)
    {
        Replica& rp = rep(r);
        bool has_bucket = !fl.members.empty();
        std::size_t bucket =
            has_bucket ? sizeBucket(rp.surface, fl.members.front().copy.size)
                       : 0;
        while (static_cast<int>(fl.members.size()) < maxBatch_ &&
               !rp.queue.empty()) {
            if (expireHead(rp, now))
                continue;
            const std::size_t b =
                sizeBucket(rp.surface, rp.queue.front().size);
            if (has_bucket && b != bucket)
                break; // incompatible head: drain, don't queue-jump
            has_bucket = true;
            bucket = b;
            fl.members.push_back(launch(rp.queue.pop(), r, now));
            fl.members.back().remIters = rp.surface.iterations;
        }
    }

    // Price and launch the next iteration of GPU g's (non-empty)
    // continuous batch.
    void startIteration(int g, double now)
    {
        InFlightBatch& fl = *gpu(g).batch;
        const Replica& rp = rep(gpu(g).replica);
        double max_size = 1.0;
        for (const Member& mb : fl.members)
            max_size = std::max(max_size, mb.copy.size);
        fl.degraded = degradeNow(rp);
        double iter_s =
            rp.surface.batchSeconds(static_cast<int>(fl.members.size()),
                                    max_size) /
            static_cast<double>(rp.surface.iterations) * slowdownAt(g, now);
        if (fl.degraded)
            iter_s *= degradation_.serviceScale;
        ++report_.iterationsDispatched;
        launchRun(fl, g, iter_s, now);
    }

    // A greedy batch completed on GPU g: every member answers.
    void finishBatch(int g)
    {
        const int r = gpu(g).replica;
        const InFlightBatch fl = release(g);
        accountBusy(fl.start, fl.finish, r);
        if (ckptOn_) {
            report_.checkpointsTaken += fl.ckpts;
            report_.checkpointOverheadSeconds +=
                static_cast<double>(fl.ckpts) * ckpt_.costSeconds;
        }
        if (fl.degraded)
            report_.degraded += static_cast<std::int64_t>(fl.members.size());
        const double b = static_cast<double>(fl.members.size());
        for (const Member& mb : fl.members)
            answer(mb.copy, fl.finish, (fl.finish - fl.start) / b, r);
        noteBatchSuccess(r, fl.finish);
    }

    // A continuous iteration completed on GPU g: members advance one
    // iteration, finished ones (and duplicates whose twin answered
    // meanwhile) leave, and the batch refills at the boundary before
    // its next iteration.
    void finishIteration(int g)
    {
        const int r = gpu(g).replica;
        Replica& rp = rep(r);
        InFlightBatch& fl = *gpu(g).batch;
        accountBusy(fl.start, fl.finish, r);
        const double share = (fl.finish - fl.start) /
                             static_cast<double>(fl.members.size());
        std::vector<Member> keep;
        keep.reserve(fl.members.size());
        for (Member& mb : fl.members) {
            mb.degraded = mb.degraded || fl.degraded;
            mb.servedSeconds += share;
            const bool twinAnswered = hedgeOn_ && meta(mb.copy.id).done;
            if (!twinAnswered && --mb.remIters > 0) {
                keep.push_back(std::move(mb));
                continue;
            }
            if (!twinAnswered && mb.degraded)
                ++report_.degraded;
            answer(mb.copy, fl.finish, mb.servedSeconds, r);
            --rp.running;
        }
        fl.members = std::move(keep);
        const double now = fl.finish;
        noteBatchSuccess(r, now);
        if (!(breakerOn_ && rp.breaker == BreakerState::Open)) {
            if (hedgeOn_)
                dropCancelled(rp);
            fill(fl, r, now);
        }
        if (fl.members.empty())
            release(g);
        else
            startIteration(g, now);
    }

    // -- the report --

    ClusterReport finalReport()
    {
        // The backlog counts requests, not copies: an unanswered request
        // with a live copy anywhere (queued, running, or backing off) is
        // one backlog entry even when its primary and hedge both are.
        for (const ReqMeta& m : meta_) {
            if (!m.done && m.liveCopies > 0)
                ++report_.backlog;
        }
        // Batches cut off by the end of the run still occupied their
        // GPU inside the horizon.
        for (const Gpu& gp : gpus_) {
            if (gp.batch.has_value())
                accountBusy(gp.batch->start,
                            std::min(gp.batch->finish, horizon_),
                            gp.replica);
        }
        if (!latencies_.empty()) {
            report_.meanLatency = summarize(latencies_).mean;
            report_.p50Latency = percentile(latencies_, 50.0);
            report_.p95Latency = percentile(latencies_, 95.0);
            report_.p99Latency = percentile(latencies_, 99.0);
        }
        if (!batch_sizes_.empty()) {
            report_.meanBatch = summarize(batch_sizes_).mean;
            report_.maxBatchDispatched = static_cast<std::int64_t>(
                *std::max_element(batch_sizes_.begin(), batch_sizes_.end()));
        }
        if (!meta_.empty())
            report_.meanRequestSize =
                size_sum_ / static_cast<double>(meta_.size());
        report_.throughput =
            static_cast<double>(report_.completed - report_.drainCompleted) /
            horizon_;
        report_.goodput = static_cast<double>(goodput_count_) / horizon_;
        report_.gpuUtilization =
            busy_in_horizon_ / (horizon_ * static_cast<double>(numGpus()));
        if (report_.completed > 0) {
            report_.deadlineMissRate =
                static_cast<double>(deadline_misses_) /
                static_cast<double>(report_.completed);
            report_.degradedFraction =
                static_cast<double>(report_.degraded) /
                static_cast<double>(report_.completed);
        }
        if (report_.arrived > 0) {
            report_.shedFraction = static_cast<double>(report_.shed) /
                                   static_cast<double>(report_.arrived);
        }
        for (Replica& rp : reps_) {
            double sum = 0.0;
            for (int g = rp.firstGpu; g < rp.firstGpu + rp.numGpus; ++g)
                sum += gpu(g).faults.availability(horizon_);
            rp.stats.availability = sum / static_cast<double>(rp.numGpus);
            cluster_.replicas.push_back(rp.stats);
        }
        if (metrics_ == nullptr)
            return std::move(cluster_);
        publishServingMetrics(*metrics_, report_, latencies_, batch_sizes_);
        for (const Replica& rp : reps_) {
            const ReplicaStats& rs = rp.stats;
            metrics_->counter("serving.replica.dispatched_batches", rp.labels)
                .add(rs.dispatchedBatches);
            metrics_->counter("serving.replica.completed_requests", rp.labels)
                .add(rs.completedRequests);
            metrics_->counter("serving.replica.aborted_batches", rp.labels)
                .add(rs.abortedBatches);
            metrics_->counter("serving.replica.breaker_opens", rp.labels)
                .add(rs.breakerOpens);
            metrics_->gauge("serving.replica.busy_seconds", rp.labels)
                .set(rs.busySeconds);
            metrics_->gauge("serving.replica.availability", rp.labels)
                .set(rs.availability);
        }
        for (std::size_t d = 0; d < cluster_.domainAvailability.size();
             ++d) {
            metrics_
                ->gauge("serving.domain.availability",
                        telemetry::Labels{{"domain", std::to_string(d)}})
                .set(cluster_.domainAvailability[d]);
        }
        return std::move(cluster_);
    }

    const ClusterConfig& cfg_;
    const double horizon_;
    const DeadlinePolicy& deadline_;
    const DegradationPolicy& degradation_;
    const CheckpointPolicy& ckpt_;
    const bool continuous_;
    const bool breakerOn_;
    const bool hedgeOn_;
    const bool ckptOn_;
    const int maxBatch_;
    /** Null when metrics are off; sampling and publishing need it. */
    telemetry::MetricsRegistry* const metrics_;
    /** 0 when the run takes no samples. */
    const double sampleInterval_;

    std::vector<Gpu> gpus_;
    std::vector<Replica> reps_;
    /** Per-request records, indexed by `Copy::id`. */
    std::vector<ReqMeta> meta_;
    Sources src_;
    Tracer trace_;
    int busy_gpus_ = 0;
    std::uint64_t rr_counter_ = 0;
    /** Router scratch, reused by every `route`. */
    std::vector<int> cand_;
    std::vector<int> clean_;

    ClusterReport cluster_;
    ServingReport& report_ = cluster_.serving;
    std::vector<double> latencies_;
    std::vector<double> batch_sizes_;
    double busy_in_horizon_ = 0.0;
    std::int64_t goodput_count_ = 0;
    std::int64_t deadline_misses_ = 0;
    /** Summed size of admitted requests, one per `meta_` record. */
    double size_sum_ = 0.0;
};

} // namespace

ClusterReport
simulateCluster(const ClusterConfig& cfg,
                const telemetry::Telemetry* tele)
{
    return ClusterSim(cfg, tele).run();
}

} // namespace mmgen::serving
