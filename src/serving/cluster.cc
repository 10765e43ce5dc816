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

/** Retry-queue entry; `seq` keeps ties deterministic. */
struct RetryEvent
{
    double ready;
    std::uint64_t seq;
    Copy copy;

    bool
    operator>(const RetryEvent& other) const
    {
        return ready != other.ready ? ready > other.ready
                                    : seq > other.seq;
    }
};

/** Hedge timer: fire a backup copy if the primary is still running. */
struct HedgeEvent
{
    double time;
    std::uint64_t seq;
    /** The primary as it was dispatched. */
    Copy primary;

    bool
    operator>(const HedgeEvent& other) const
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

} // namespace

ClusterReport
simulateCluster(const ClusterConfig& cfg,
                const telemetry::Telemetry* tele)
{
    cfg.validate();

    // Telemetry handles. Null means off; every use below is guarded
    // so the disabled path is the exact pre-telemetry code path.
    telemetry::MetricsRegistry* metrics =
        tele != nullptr ? tele->metrics : nullptr;
    telemetry::TraceSink* trace =
        tele != nullptr && tele->wantsTrace() ? tele->trace : nullptr;
    const bool sampling = tele != nullptr && tele->wantsSampling();

    const double horizon = cfg.horizonSeconds;
    const DeadlinePolicy& deadline = cfg.resilience.deadline;
    const DegradationPolicy& degradation = cfg.resilience.degradation;
    const CheckpointPolicy& ckpt = cfg.checkpoint;
    const int numReplicas = static_cast<int>(cfg.replicas.size());
    const int numGpus = cfg.totalGpus();
    const bool continuous = cfg.continuousBatching;
    const bool breakerOn = cfg.breaker.enabled();
    const bool hedgeOn = cfg.hedge.enabled() && numReplicas > 1;
    const bool ckptOn = ckpt.enabled();
    // Probes only exist when someone consumes their output: router
    // health matters with > 1 replica, breaker transitions need the
    // probe clock. A one-replica pool without breakers (every
    // `simulateServing` run) schedules no probe events at all.
    const bool probesOn = numReplicas > 1 || breakerOn;

    // Every replica prices batches off a latency surface; a replica
    // priced by a linear model gets the model's exact surface (one
    // size node, so request size never changes its price).
    std::vector<BatchLatencySurface> surfaces;
    surfaces.reserve(cfg.replicas.size());
    for (const ReplicaSpec& rep : cfg.replicas)
        surfaces.push_back(rep.surface.empty()
                               ? BatchLatencySurface::fromLatencyModel(
                                     rep.latency, cfg.maxBatch)
                               : rep.surface);

    // Global GPU indexing: replica r owns [gpuBase[r], gpuBase[r] +
    // numGpus_r), so the fault plan, chaos targets, and the event loop
    // all speak one flat index space.
    std::vector<int> gpuBase(static_cast<std::size_t>(numReplicas), 0);
    std::vector<int> repOf(static_cast<std::size_t>(numGpus), 0);
    std::vector<int> domainOf(static_cast<std::size_t>(numGpus), 0);
    {
        int g = 0;
        for (int r = 0; r < numReplicas; ++r) {
            gpuBase[static_cast<std::size_t>(r)] = g;
            for (int k = 0; k < cfg.replicas[static_cast<std::size_t>(r)]
                                    .numGpus;
                 ++k, ++g) {
                repOf[static_cast<std::size_t>(g)] = r;
                domainOf[static_cast<std::size_t>(g)] =
                    cfg.replicas[static_cast<std::size_t>(r)].domain;
            }
        }
    }

    // Arrivals come from the workload generator. The legacy default
    // (no mix configured) draws gaps from the unsplit Rng(seed)
    // stream, while faults, chaos, and probe jitter draw from split
    // streams, so no cluster feature can perturb the arrival sequence.
    workload::ArrivalGenerator arrivals =
        cfg.workload.enabled()
            ? workload::ArrivalGenerator(cfg.seed, cfg.arrivalRate,
                                         cfg.workload)
            : workload::ArrivalGenerator(cfg.seed, cfg.arrivalRate);
    // Correlated fault domains: `faults.domainSize` partitions the
    // GPUs in global order when set (the single-pool layout);
    // otherwise a replica's GPUs share its domain.
    std::vector<int> faultDomainOf = domainOf;
    if (cfg.resilience.faults.domainSize >= 1) {
        for (int g = 0; g < numGpus; ++g)
            faultDomainOf[static_cast<std::size_t>(g)] =
                g / cfg.resilience.faults.domainSize;
    }
    FleetFaultPlan plan = planFaults(cfg.resilience.faults,
                                     faultDomainOf, horizon, cfg.seed);
    // Compile the chaos scenario into the same structures the fault
    // plan uses: kills become outage windows on every member GPU (so
    // availability accounting sees them), degrades/stragglers become
    // timed slowdown windows applied at dispatch.
    std::vector<std::vector<SlowWindow>> slowWindows(
        static_cast<std::size_t>(numGpus));
    {
        std::vector<std::vector<Outage>> extra(
            static_cast<std::size_t>(numGpus));
        for (const ChaosEvent& ev : cfg.chaos.events) {
            const double end = ev.durationSeconds > 0.0
                                   ? ev.atSeconds + ev.durationSeconds
                                   : horizon;
            if (end <= ev.atSeconds)
                continue;
            switch (ev.kind) {
            case ChaosEventKind::KillReplica: {
                const std::size_t r =
                    static_cast<std::size_t>(ev.target);
                const int base = gpuBase[r];
                for (int k = 0; k < cfg.replicas[r].numGpus; ++k)
                    extra[static_cast<std::size_t>(base + k)].push_back(
                        {ev.atSeconds, end, OutageKind::Failure});
                break;
            }
            case ChaosEventKind::DegradeDomain:
                for (int g = 0; g < numGpus; ++g) {
                    if (domainOf[static_cast<std::size_t>(g)] ==
                        ev.target)
                        slowWindows[static_cast<std::size_t>(g)]
                            .push_back(
                                {ev.atSeconds, end, ev.factor});
                }
                break;
            case ChaosEventKind::StraggleGpu:
                slowWindows[static_cast<std::size_t>(ev.target)]
                    .push_back({ev.atSeconds, end, ev.factor});
                break;
            }
        }
        for (int g = 0; g < numGpus; ++g) {
            const std::size_t gi = static_cast<std::size_t>(g);
            if (extra[gi].empty())
                continue;
            std::vector<Outage> merged = plan.gpus[gi].outages;
            merged.insert(merged.end(), extra[gi].begin(),
                          extra[gi].end());
            plan.gpus[gi].outages = mergeOutages(std::move(merged));
        }
    }

    ClusterReport cluster;
    ServingReport& report = cluster.serving;
    report.meanAvailability = plan.meanAvailability(horizon);
    cluster.domainAvailability = plan.domainAvailability(horizon);
    cluster.replicas.resize(static_cast<std::size_t>(numReplicas));

    // Memory-aware batch ceiling: the static liveness bound (when the
    // admission policy carries one) clamps how large a batch may be
    // dispatched; a bound of zero means not even one request fits and
    // every arrival is shed. Unset reproduces cfg.maxBatch.
    const int effective_max_batch =
        cfg.resilience.admission.hasMemoryBound()
            ? static_cast<int>(std::min<std::int64_t>(
                  cfg.maxBatch,
                  cfg.resilience.admission.memoryFeasibleBatch))
            : cfg.maxBatch;
    report.effectiveMaxBatch = effective_max_batch;
    const int rate_batch = std::max(effective_max_batch, 1);

    // Offered load versus full-batch fleet capacity (the infeasible
    // case rates a batch of one; everything is shed anyway).
    double capacity = 0.0;
    for (std::size_t r = 0; r < surfaces.size(); ++r) {
        const double batch_rate =
            static_cast<double>(rate_batch) /
            surfaces[r].batchSeconds(rate_batch, 1.0);
        capacity += batch_rate *
                    static_cast<double>(cfg.replicas[r].numGpus);
    }
    report.offeredLoad = cfg.arrivalRate / capacity;

    // Flatten the fault plan into a time-sorted edge list.
    std::vector<Transition> transitions;
    for (int g = 0; g < numGpus; ++g) {
        for (const Outage& o :
             plan.gpus[static_cast<std::size_t>(g)].outages) {
            transitions.push_back({o.start, g, true});
            transitions.push_back({o.end, g, false});
        }
    }
    std::sort(transitions.begin(), transitions.end(),
              [](const Transition& a, const Transition& b) {
                  if (a.time != b.time)
                      return a.time < b.time;
                  if (a.gpu != b.gpu)
                      return a.gpu < b.gpu;
                  return a.down < b.down; // up-edge before down-edge
              });

    // Trace lanes: per-GPU lanes for batch/outage spans, shared lanes
    // for lifecycle, breaker-transition, and hedge events.
    std::vector<int> gpu_track;
    int lifecycle_track = -1;
    int breaker_track = -1;
    int hedge_track = -1;
    if (trace != nullptr) {
        lifecycle_track = trace->track("serving", "lifecycle");
        breaker_track = trace->track("serving", "breakers");
        hedge_track = trace->track("serving", "hedges");
        for (int g = 0; g < numGpus; ++g) {
            gpu_track.push_back(trace->track(
                "serving",
                "gpu " + std::to_string(g) + " (replica " +
                    std::to_string(
                        repOf[static_cast<std::size_t>(g)]) +
                    ")"));
        }
        // Outage spans (faults + chaos kills) from the merged plan.
        for (int g = 0; g < numGpus; ++g) {
            for (const Outage& o :
                 plan.gpus[static_cast<std::size_t>(g)].outages) {
                trace->complete(gpu_track[static_cast<std::size_t>(g)],
                                "outage", o.start, o.end - o.start,
                                "fault");
            }
        }
    }

    // Per-replica label sets for sampled series and counters.
    std::vector<telemetry::Labels> repLabels;
    if (metrics != nullptr) {
        for (int r = 0; r < numReplicas; ++r) {
            repLabels.push_back(
                telemetry::Labels{{"replica", std::to_string(r)}});
        }
    }

    const std::size_t ngpu = static_cast<std::size_t>(numGpus);
    const std::size_t nrep = static_cast<std::size_t>(numReplicas);
    std::vector<ReplicaQueue> queues(nrep);
    std::vector<std::optional<InFlightBatch>> inflight(ngpu);
    std::vector<bool> gpu_down(ngpu, false);
    std::vector<std::uint64_t> epoch(ngpu, 0);
    int inflight_gpus = 0;

    // Router / breaker / probe state, all per replica.
    std::vector<bool> knownUp(nrep, true);
    std::vector<BreakerState> bstate(nrep, BreakerState::Closed);
    std::vector<int> consecFailures(nrep, 0);
    std::vector<int> halfOpenSucc(nrep, 0);
    std::vector<double> openedAt(nrep, 0.0);
    std::vector<int> repBatches(nrep, 0);
    std::vector<std::int64_t> repQueuedPlusFlight(nrep, 0);
    std::uint64_t rrCounter = 0;

    std::vector<double> probeNext(nrep, kNever);
    if (probesOn) {
        for (int r = 0; r < numReplicas; ++r) {
            Rng pr = Rng::stream(
                cfg.seed,
                kProbeStream + static_cast<std::uint64_t>(r));
            probeNext[static_cast<std::size_t>(r)] = pr.uniform(
                0.0, cfg.probe.jitterFraction *
                         cfg.probe.intervalSeconds);
        }
    }

    std::priority_queue<FinishEvent, std::vector<FinishEvent>,
                        std::greater<FinishEvent>>
        finishes;
    std::priority_queue<RetryEvent, std::vector<RetryEvent>,
                        std::greater<RetryEvent>>
        retries;
    std::priority_queue<HedgeEvent, std::vector<HedgeEvent>,
                        std::greater<HedgeEvent>>
        hedges;
    std::uint64_t retry_seq = 0;
    std::uint64_t hedge_seq = 0;

    std::vector<ReqMeta> meta;
    std::vector<double> latencies;
    std::vector<double> batch_sizes;
    double busy_in_horizon = 0.0;
    std::int64_t goodput_count = 0;
    std::int64_t deadline_misses = 0;

    workload::Arrival pending = arrivals.next();
    double next_arrival = pending.time;
    double size_sum = 0.0;
    std::int64_t size_count = 0;

    auto account_busy = [&](double start, double end, int replica) {
        busy_in_horizon += std::max(0.0, std::min(end, horizon) - start);
        report.drainGpuSeconds +=
            std::max(0.0, end - std::max(start, horizon));
        cluster.replicas[static_cast<std::size_t>(replica)]
            .busySeconds += end - start;
    };

    auto slowdownAt = [&](int g, double now) {
        const std::size_t gi = static_cast<std::size_t>(g);
        double s = plan.gpus[gi].slowdown;
        for (const SlowWindow& w : slowWindows[gi]) {
            if (now >= w.start && now < w.end)
                s *= w.factor;
        }
        return s;
    };

    // A half-open replica may receive work only while completely
    // idle: one trial request probes it, further traffic waits for
    // the verdict. Without this trickle the breaker could never
    // observe the successes it needs to close.
    auto halfOpenIdle = [&](std::size_t ri) {
        return bstate[ri] == BreakerState::HalfOpen &&
               repBatches[ri] == 0 && queues[ri].empty();
    };

    // Route one copy to a replica. Preference tiers: healthy replicas
    // (closed breaker, or an idle half-open one taking its trial),
    // then any non-open breaker, then anything — the policy picks
    // within the best non-empty tier. Deterministic: no RNG, ties to
    // the lowest index (or the round-robin cursor).
    std::vector<int> cand;
    auto route = [&](int exclude) {
        cand.clear();
        for (int tier = 0; tier < 3 && cand.empty(); ++tier) {
            for (int r = 0; r < numReplicas; ++r) {
                if (r == exclude)
                    continue;
                const std::size_t ri = static_cast<std::size_t>(r);
                if (tier == 0 &&
                    (!knownUp[ri] ||
                     (breakerOn &&
                      bstate[ri] != BreakerState::Closed &&
                      !halfOpenIdle(ri))))
                    continue;
                if (tier == 1 &&
                    (!knownUp[ri] ||
                     (breakerOn && bstate[ri] == BreakerState::Open)))
                    continue;
                cand.push_back(r);
            }
        }
        if (cand.empty())
            return -1;
        switch (cfg.router) {
        case RouterPolicy::RoundRobin:
            return cand[static_cast<std::size_t>(
                rrCounter++ % cand.size())];
        case RouterPolicy::LeastLoaded:
            break;
        case RouterPolicy::FailureDomainAware: {
            // Deprioritize replicas sharing a failure domain with a
            // known-down or breaker-tripped replica.
            std::vector<int> clean;
            for (int r : cand) {
                bool suspect = false;
                for (int o = 0; o < numReplicas; ++o) {
                    const std::size_t oi = static_cast<std::size_t>(o);
                    if (cfg.replicas[oi].domain !=
                        cfg.replicas[static_cast<std::size_t>(r)]
                            .domain)
                        continue;
                    if (!knownUp[oi] ||
                        (breakerOn &&
                         bstate[oi] != BreakerState::Closed)) {
                        suspect = true;
                        break;
                    }
                }
                if (!suspect)
                    clean.push_back(r);
            }
            if (!clean.empty())
                cand = std::move(clean);
            break;
        }
        }
        int best = cand.front();
        for (int r : cand) {
            if (repQueuedPlusFlight[static_cast<std::size_t>(r)] <
                repQueuedPlusFlight[static_cast<std::size_t>(best)])
                best = r;
        }
        return best;
    };

    auto enqueue = [&](int replica, Copy copy) {
        copy.cancellable = meta[static_cast<std::size_t>(copy.id)].hedged;
        queues[static_cast<std::size_t>(replica)].push(copy);
        ++repQueuedPlusFlight[static_cast<std::size_t>(replica)];
    };

    // Requeue a faulted/timed-out copy with backoff, or drop it.
    auto retry_or_drop = [&](Copy copy, double now) {
        ReqMeta& m = meta[static_cast<std::size_t>(copy.id)];
        if (copy.attempts >= cfg.resilience.retry.maxRetries) {
            --m.liveCopies;
            if (!m.done && m.liveCopies == 0) {
                ++report.dropped;
                if (trace != nullptr)
                    trace->instant(lifecycle_track, "drop", now,
                                   "lifecycle");
            }
            return;
        }
        ++copy.attempts;
        ++report.retries;
        const double ready =
            now + cfg.resilience.retry.backoffSeconds(copy.attempts);
        if (trace != nullptr)
            trace->instant(lifecycle_track, "retry", now, "lifecycle");
        retries.push({ready, retry_seq++, copy});
    };

    // Trip the breaker: stop routing to the replica and push its
    // queued work through the router toward healthy peers.
    auto openBreaker = [&](int r, double now) {
        const std::size_t ri = static_cast<std::size_t>(r);
        bstate[ri] = BreakerState::Open;
        openedAt[ri] = now;
        consecFailures[ri] = 0;
        halfOpenSucc[ri] = 0;
        ++report.breakerOpens;
        ++cluster.replicas[ri].breakerOpens;
        if (trace != nullptr) {
            telemetry::Labels args;
            args.set("replica", std::to_string(r));
            trace->instant(breaker_track, "breaker_open", now,
                           "breaker", args);
        }
        if (numReplicas > 1) {
            ReplicaQueue moved = std::exchange(queues[ri], ReplicaQueue());
            repQueuedPlusFlight[ri] -=
                static_cast<std::int64_t>(moved.size());
            while (!moved.empty()) {
                const Copy c = moved.pop();
                if (meta[static_cast<std::size_t>(c.id)].done) {
                    ++report.hedgesCancelled;
                    --meta[static_cast<std::size_t>(c.id)].liveCopies;
                    continue;
                }
                const int target = route(r);
                enqueue(target >= 0 ? target : r, c);
            }
        }
    };

    auto noteBatchFailure = [&](int r, double now) {
        if (!breakerOn)
            return;
        const std::size_t ri = static_cast<std::size_t>(r);
        if (bstate[ri] == BreakerState::HalfOpen) {
            openBreaker(r, now);
            return;
        }
        ++consecFailures[ri];
        if (bstate[ri] == BreakerState::Closed &&
            consecFailures[ri] >= cfg.breaker.failureThreshold)
            openBreaker(r, now);
    };

    auto noteBatchSuccess = [&](int r, double now) {
        if (!breakerOn)
            return;
        const std::size_t ri = static_cast<std::size_t>(r);
        consecFailures[ri] = 0;
        if (bstate[ri] == BreakerState::HalfOpen) {
            ++halfOpenSucc[ri];
            if (halfOpenSucc[ri] >= cfg.breaker.halfOpenSuccesses) {
                bstate[ri] = BreakerState::Closed;
                halfOpenSucc[ri] = 0;
                ++report.breakerCloses;
                if (trace != nullptr) {
                    telemetry::Labels args;
                    args.set("replica", std::to_string(r));
                    trace->instant(breaker_track, "breaker_close", now,
                                   "breaker", args);
                }
            }
        }
    };

    // Lazily expire the head of replica ri's queue when its deadline
    // already passed (serving it would be wasted work); true if it did.
    auto expireHead = [&](std::size_t ri, double now) {
        ReplicaQueue& queue = queues[ri];
        if (!deadline.hasDeadline() ||
            queue.front().arrival + deadline.deadlineSeconds > now)
            return false;
        ReqMeta& m = meta[static_cast<std::size_t>(queue.pop().id)];
        --m.liveCopies;
        if (m.liveCopies == 0) {
            ++report.expired;
            if (trace != nullptr)
                trace->instant(lifecycle_track, "expire", now,
                               "lifecycle");
        } else {
            ++report.hedgesCancelled;
        }
        --repQueuedPlusFlight[ri];
        return true;
    };

    // Drop queued duplicates whose twin already answered: serving
    // them would be pure waste.
    auto dropCancelled = [&](std::size_t ri) {
        const std::int64_t dropped =
            static_cast<std::int64_t>(queues[ri].eraseCancelled(
                [&](const Copy& c) {
                    ReqMeta& m = meta[static_cast<std::size_t>(c.id)];
                    if (!m.done)
                        return false;
                    --m.liveCopies;
                    return true;
                }));
        report.hedgesCancelled += dropped;
        repQueuedPlusFlight[ri] -= dropped;
    };

    // A queued copy starts service on replica r: it resumes from the
    // request's last checkpoint, and a primary arms the hedge timer.
    auto launch = [&](const Copy& copy, int r, double now) {
        ReqMeta& m = meta[static_cast<std::size_t>(copy.id)];
        if (ckptOn && m.doneIters > 0)
            ++report.resumes;
        if (!copy.hedge) {
            m.primaryInFlight = true;
            m.primaryReplica = r;
            if (hedgeOn && !m.hedged)
                hedges.push({now + cfg.hedge.delaySeconds, hedge_seq++,
                             copy});
        }
        return Member{copy, m.doneIters};
    };

    auto degradeNow = [&](std::size_t ri) {
        return degradation.enabled() &&
               static_cast<std::int64_t>(queues[ri].size()) >=
                   degradation.queueThreshold;
    };

    // Start `service` seconds of work on GPU g. A run longer than the
    // batch timeout is scheduled to abort at the timeout instead.
    auto launchRun = [&](InFlightBatch& fl, int g, double service,
                         double now) {
        const std::size_t gi = static_cast<std::size_t>(g);
        fl.start = now;
        fl.timedOut = deadline.hasTimeout() &&
                      service > deadline.batchTimeoutSeconds;
        fl.finish =
            now + (fl.timedOut ? deadline.batchTimeoutSeconds : service);
        batch_sizes.push_back(static_cast<double>(fl.members.size()));
        ++cluster.replicas[static_cast<std::size_t>(repOf[gi])]
              .dispatchedBatches;
        finishes.push({fl.finish, g, ++epoch[gi]});
    };

    // Greedy dispatch: the head of the replica's queue (up to the batch
    // ceiling) runs on GPU g as one batch, held until all of it is done.
    auto startBatch = [&](int g, double now) {
        const std::size_t gi = static_cast<std::size_t>(g);
        const int r = repOf[gi];
        const std::size_t ri = static_cast<std::size_t>(r);
        ReplicaQueue& queue = queues[ri];
        InFlightBatch fl;
        fl.degraded = degradeNow(ri);
        const int batch = static_cast<int>(std::min<std::size_t>(
            queue.size(), static_cast<std::size_t>(effective_max_batch)));
        // Padded-batch pricing: the batch runs at its largest member's
        // shape.
        double max_size = 1.0;
        for (int i = 0; i < batch; ++i) {
            Member mb = launch(queue.pop(), r, now);
            max_size = std::max(max_size, mb.copy.size);
            if (ckptOn) {
                mb.remIters = ckpt.iterations - mb.baseIters;
                fl.maxRemIters = std::max(fl.maxRemIters, mb.remIters);
            }
            fl.members.push_back(mb);
        }
        double service = surfaces[ri].batchSeconds(batch, max_size) *
                         slowdownAt(g, now);
        if (fl.degraded)
            service *= degradation.serviceScale;
        if (ckptOn) {
            // Resume from the last checkpoint: the batch only runs the
            // longest member's remaining iterations, plus the cost of
            // the checkpoints it will write.
            service *= static_cast<double>(fl.maxRemIters) /
                       static_cast<double>(ckpt.iterations);
            fl.workService = service;
            fl.ckpts = fl.maxRemIters / ckpt.intervalIterations;
            service += static_cast<double>(fl.ckpts) * ckpt.costSeconds;
        } else {
            fl.workService = service;
        }
        fl.plannedService = service;
        launchRun(fl, g, service, now);
        inflight[gi] = std::move(fl);
        ++inflight_gpus;
        ++repBatches[ri];
    };

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
    auto admit = [&](InFlightBatch& fl, int r, double now) {
        const std::size_t ri = static_cast<std::size_t>(r);
        ReplicaQueue& queue = queues[ri];
        const BatchLatencySurface& surface = surfaces[ri];
        bool has_bucket = !fl.members.empty();
        std::size_t bucket =
            has_bucket ? sizeBucket(surface, fl.members.front().copy.size)
                       : 0;
        while (static_cast<int>(fl.members.size()) <
                   effective_max_batch &&
               !queue.empty()) {
            if (expireHead(ri, now))
                continue;
            const std::size_t b = sizeBucket(surface, queue.front().size);
            if (has_bucket && b != bucket)
                break; // incompatible head: drain, don't queue-jump
            has_bucket = true;
            bucket = b;
            fl.members.push_back(launch(queue.pop(), r, now));
            fl.members.back().remIters = surface.iterations;
        }
    };

    // Price and launch the next iteration of GPU g's (non-empty)
    // continuous batch.
    auto startIteration = [&](int g, double now) {
        const std::size_t gi = static_cast<std::size_t>(g);
        const std::size_t ri = static_cast<std::size_t>(repOf[gi]);
        InFlightBatch& fl = *inflight[gi];
        const BatchLatencySurface& surface = surfaces[ri];
        double max_size = 1.0;
        for (const Member& mb : fl.members)
            max_size = std::max(max_size, mb.copy.size);
        fl.degraded = degradeNow(ri);
        double iter_s =
            surface.batchSeconds(static_cast<int>(fl.members.size()),
                                 max_size) /
            static_cast<double>(surface.iterations) * slowdownAt(g, now);
        if (fl.degraded)
            iter_s *= degradation.serviceScale;
        ++report.iterationsDispatched;
        launchRun(fl, g, iter_s, now);
    };

    auto freeGpu = [&](std::size_t ri) {
        for (int k = 0; k < cfg.replicas[ri].numGpus; ++k) {
            const int g = gpuBase[ri] + k;
            const std::size_t gi = static_cast<std::size_t>(g);
            if (!inflight[gi].has_value() && !gpu_down[gi])
                return g;
        }
        return -1;
    };

    auto dispatch = [&](double now) {
        if (effective_max_batch == 0)
            return; // memory-infeasible: nothing may be scheduled
        for (int r = 0; r < numReplicas; ++r) {
            const std::size_t ri = static_cast<std::size_t>(r);
            if (breakerOn && bstate[ri] == BreakerState::Open)
                continue;
            ReplicaQueue& queue = queues[ri];
            while (true) {
                if (hedgeOn)
                    dropCancelled(ri);
                // A greedy batch takes the head as it stands, so the
                // head is vetted first; continuous admission vets every
                // request it admits.
                if (!continuous) {
                    while (!queue.empty() && expireHead(ri, now)) {
                    }
                }
                if (queue.empty())
                    break;
                // A half-open breaker admits one trial batch at a time.
                if (breakerOn && bstate[ri] == BreakerState::HalfOpen &&
                    repBatches[ri] > 0)
                    break;
                const int g = freeGpu(ri);
                if (g < 0)
                    break;
                if (!continuous) {
                    startBatch(g, now);
                    continue;
                }
                InFlightBatch fl;
                admit(fl, r, now);
                if (fl.members.empty())
                    break; // everything queued had expired
                inflight[static_cast<std::size_t>(g)] = std::move(fl);
                ++inflight_gpus;
                ++repBatches[ri];
                startIteration(g, now);
            }
        }
    };

    // Take the batch off GPU g: its pending finish event goes stale and
    // the GPU is free.
    auto release = [&](int g) {
        const std::size_t gi = static_cast<std::size_t>(g);
        InFlightBatch fl = std::move(*inflight[gi]);
        inflight[gi].reset();
        ++epoch[gi];
        --inflight_gpus;
        --repBatches[static_cast<std::size_t>(repOf[gi])];
        return fl;
    };

    // Resolve every member of a killed batch: salvage any checkpointed
    // progress, book the destroyed GPU-seconds (a continuous member
    // also loses the iterations it already served), and put live
    // copies back through the retry policy.
    auto failMembers = [&](const InFlightBatch& fl, double now) {
        const double elapsed = now - fl.start;
        const double b = static_cast<double>(fl.members.size());
        // Fraction of the planned run that completed before the kill.
        const bool salvageable = ckptOn && fl.plannedService > 0.0;
        const double q =
            salvageable ? std::min(elapsed / fl.plannedService, 1.0) : 0.0;
        if (salvageable) {
            const std::int64_t advMax = static_cast<std::int64_t>(
                q * static_cast<double>(fl.maxRemIters));
            const std::int64_t taken =
                advMax / ckpt.intervalIterations;
            report.checkpointsTaken += taken;
            report.checkpointOverheadSeconds +=
                static_cast<double>(taken) * ckpt.costSeconds;
        }
        for (const Member& mb : fl.members) {
            const Copy& copy = mb.copy;
            ReqMeta& m = meta[static_cast<std::size_t>(copy.id)];
            if (!copy.hedge)
                m.primaryInFlight = false;
            const double share = mb.servedSeconds + elapsed / b;
            if (m.done) {
                // Duplicate of an already-answered request: all its
                // progress is hedge waste, nothing retries.
                report.hedgeWastedSeconds += share;
                --m.liveCopies;
                continue;
            }
            double salvage = 0.0;
            if (salvageable) {
                const std::int64_t rem = mb.remIters;
                const std::int64_t adv = static_cast<std::int64_t>(
                    q * static_cast<double>(rem));
                const std::int64_t ck =
                    (adv / ckpt.intervalIterations) *
                    ckpt.intervalIterations;
                if (ck > 0) {
                    m.doneIters =
                        std::max(m.doneIters, mb.baseIters + ck);
                    salvage = (static_cast<double>(ck) /
                               static_cast<double>(rem)) *
                              (fl.workService / b);
                }
            }
            report.wastedGpuSeconds += share - salvage;
            report.restoredGpuSeconds += salvage;
            retry_or_drop(copy, now);
        }
    };

    // Kill the batch on GPU g at `now`: a fault hit or a batch timeout.
    auto failBatch = [&](int g, double now) {
        const int r = repOf[static_cast<std::size_t>(g)];
        const std::size_t ri = static_cast<std::size_t>(r);
        const InFlightBatch fl = release(g);
        account_busy(fl.start, now, r);
        report.lostGpuSeconds += now - fl.start;
        failMembers(fl, now);
        repQueuedPlusFlight[ri] -=
            static_cast<std::int64_t>(fl.members.size());
        ++cluster.replicas[ri].abortedBatches;
        noteBatchFailure(r, now);
    };

    // A copy finished service at `finish`. The first copy of a request
    // to finish answers it; a twin finishing later spent `spent`
    // GPU-seconds on duplicate work.
    auto answer = [&](const Copy& copy, double finish, double spent,
                      std::size_t ri) {
        ReqMeta& m = meta[static_cast<std::size_t>(copy.id)];
        if (!copy.hedge)
            m.primaryInFlight = false;
        --m.liveCopies;
        if (m.done) {
            report.hedgeWastedSeconds += spent;
            return;
        }
        m.done = true;
        if (copy.hedge)
            ++report.hedgesWon;
        if (trace != nullptr && m.hedged) {
            // Hedge span: from the hedge timer firing to whichever
            // copy answered first.
            telemetry::Labels args;
            args.set("won", copy.hedge ? "hedge" : "primary");
            trace->complete(hedge_track, "hedged request", m.hedgedAt,
                            finish - m.hedgedAt, "hedge", args);
        }
        const double lat = finish - copy.arrival;
        latencies.push_back(lat);
        ++report.completed;
        ++cluster.replicas[ri].completedRequests;
        if (finish > horizon)
            ++report.drainCompleted;
        const bool in_deadline =
            !deadline.hasDeadline() || lat <= deadline.deadlineSeconds;
        if (!in_deadline)
            ++deadline_misses;
        if (finish <= horizon && in_deadline)
            ++goodput_count;
    };

    // A greedy batch completed on GPU g: every member answers.
    auto finishBatch = [&](int g) {
        const int r = repOf[static_cast<std::size_t>(g)];
        const std::size_t ri = static_cast<std::size_t>(r);
        const InFlightBatch fl = release(g);
        repQueuedPlusFlight[ri] -=
            static_cast<std::int64_t>(fl.members.size());
        account_busy(fl.start, fl.finish, r);
        if (ckptOn) {
            report.checkpointsTaken += fl.ckpts;
            report.checkpointOverheadSeconds +=
                static_cast<double>(fl.ckpts) * ckpt.costSeconds;
        }
        if (fl.degraded)
            report.degraded +=
                static_cast<std::int64_t>(fl.members.size());
        const double b = static_cast<double>(fl.members.size());
        for (const Member& mb : fl.members)
            answer(mb.copy, fl.finish, (fl.finish - fl.start) / b, ri);
        noteBatchSuccess(r, fl.finish);
    };

    // A continuous iteration completed on GPU g: members advance one
    // iteration, finished ones (and duplicates whose twin answered
    // meanwhile) leave, and the batch refills at the boundary before
    // its next iteration.
    auto finishIteration = [&](int g) {
        const std::size_t gi = static_cast<std::size_t>(g);
        const int r = repOf[gi];
        const std::size_t ri = static_cast<std::size_t>(r);
        InFlightBatch& fl = *inflight[gi];
        account_busy(fl.start, fl.finish, r);
        const double share = (fl.finish - fl.start) /
                             static_cast<double>(fl.members.size());
        std::vector<Member> keep;
        keep.reserve(fl.members.size());
        for (Member& mb : fl.members) {
            mb.degraded = mb.degraded || fl.degraded;
            mb.servedSeconds += share;
            const bool twinAnswered =
                hedgeOn && meta[static_cast<std::size_t>(mb.copy.id)].done;
            if (!twinAnswered && --mb.remIters > 0) {
                keep.push_back(std::move(mb));
                continue;
            }
            if (!twinAnswered && mb.degraded)
                ++report.degraded;
            answer(mb.copy, fl.finish, mb.servedSeconds, ri);
            --repQueuedPlusFlight[ri];
        }
        fl.members = std::move(keep);
        const double now = fl.finish;
        noteBatchSuccess(r, now);
        if (!(breakerOn && bstate[ri] == BreakerState::Open)) {
            if (hedgeOn)
                dropCancelled(ri);
            admit(fl, r, now);
        }
        if (fl.members.empty())
            release(g);
        else
            startIteration(g, now);
    };

    // Batch (or iteration) span on the GPU's trace lane.
    auto traceRun = [&](int g, double end, const char* outcome) {
        if (trace == nullptr)
            return;
        const std::size_t gi = static_cast<std::size_t>(g);
        const InFlightBatch& fl = *inflight[gi];
        const std::string b = std::to_string(fl.members.size());
        telemetry::Labels args;
        args.set("batch", b);
        args.set("replica", std::to_string(repOf[gi]));
        args.set("outcome", outcome);
        if (fl.degraded)
            args.set("degraded", "1");
        trace->complete(gpu_track[gi],
                        (continuous ? "iter b=" : "batch b=") + b,
                        fl.start, end - fl.start, "batch", args);
    };

    auto totalQueued = [&] {
        std::int64_t n = 0;
        for (const ReplicaQueue& q : queues)
            n += static_cast<std::int64_t>(q.size());
        return n;
    };

    // Periodic state sampling: an extra event source with the lowest
    // tie priority, so a sample at time t observes the state *after*
    // every simulation event at t. Sample k lands at exactly
    // k * interval (no floating-point accumulation drift); the final
    // sample is clamped onto the horizon, then the source goes quiet.
    const double sample_interval =
        sampling ? tele->sampleIntervalSeconds : 0.0;
    std::int64_t sample_idx = sampling ? 1 : -1;
    auto sample_time = [&]() -> double {
        if (sample_idx < 0)
            return kNever;
        const double t =
            sample_interval * static_cast<double>(sample_idx);
        return std::min(t, horizon);
    };
    auto take_sample = [&](double t) {
        telemetry::MetricsRegistry& m = *metrics;
        m.series("serving.queue_depth")
            .record(t, static_cast<double>(totalQueued()));
        m.series("serving.in_flight_gpus")
            .record(t, static_cast<double>(inflight_gpus));
        m.series("serving.retry_backlog")
            .record(t, static_cast<double>(retries.size()));
        m.series("serving.arrived_total")
            .record(t, static_cast<double>(report.arrived));
        m.series("serving.completed_total")
            .record(t, static_cast<double>(report.completed));
        m.series("serving.shed_total")
            .record(t, static_cast<double>(report.shed));
        m.series("serving.retries_total")
            .record(t, static_cast<double>(report.retries));
        m.series("serving.hedges_issued_total")
            .record(t, static_cast<double>(report.hedgesIssued));
        for (int r = 0; r < numReplicas; ++r) {
            const std::size_t ri = static_cast<std::size_t>(r);
            const telemetry::Labels& lbl = repLabels[ri];
            m.series("serving.replica.queue_depth", lbl)
                .record(t, static_cast<double>(queues[ri].size()));
            m.series("serving.replica.in_flight_batches", lbl)
                .record(t, static_cast<double>(repBatches[ri]));
            double state = 0.0;
            if (bstate[ri] == BreakerState::Open)
                state = 1.0;
            else if (bstate[ri] == BreakerState::HalfOpen)
                state = 2.0;
            m.series("serving.replica.breaker_state", lbl)
                .record(t, state);
            // Utilization so far: resolved busy-seconds plus the
            // elapsed share of still-running batches (their busy time
            // is only booked at resolution).
            double busy = cluster.replicas[ri].busySeconds;
            for (int k = 0; k < cfg.replicas[ri].numGpus; ++k) {
                const std::size_t gi = static_cast<std::size_t>(
                    gpuBase[ri] + k);
                if (inflight[gi].has_value())
                    busy += std::max(0.0, t - inflight[gi]->start);
            }
            m.series("serving.replica.utilization", lbl)
                .record(t, busy / (t * static_cast<double>(
                                           cfg.replicas[ri].numGpus)));
        }
        if (t >= horizon)
            sample_idx = -1; // final sample taken; source goes quiet
        else
            ++sample_idx;
    };
    double next_sample = sample_time();

    // Event sources, in the order they win a same-instant tie: the
    // first minimum of the due-time table below is the next event. A
    // completion precedes a same-instant sample, so the sample sees
    // the state after every simulation event at its timestamp.
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
    std::size_t ti = 0;
    while (true) {
        // Drop stale finish events (their batch was killed).
        while (!finishes.empty()) {
            const FinishEvent& top = finishes.top();
            const std::size_t gi = static_cast<std::size_t>(top.gpu);
            if (inflight[gi].has_value() && epoch[gi] == top.epoch)
                break;
            finishes.pop();
        }
        double next_probe = kNever;
        int probe_replica = -1;
        for (int r = 0; r < numReplicas; ++r) {
            const double t = probeNext[static_cast<std::size_t>(r)];
            if (t <= horizon && t < next_probe) {
                next_probe = t;
                probe_replica = r;
            }
        }
        const std::array<double, kSources> due = {
            next_arrival,
            ti < transitions.size() ? transitions[ti].time : kNever,
            next_probe,
            hedges.empty() ? kNever : hedges.top().time,
            retries.empty() ? kNever : retries.top().ready,
            finishes.empty() ? kNever : finishes.top().time,
            next_sample,
        };
        const auto source = static_cast<std::size_t>(
            std::min_element(due.begin(), due.end()) - due.begin());
        const double now = due[source];

        if (source == kArrival) {
            if (now > horizon)
                break;
            ++report.arrived;
            if (effective_max_batch == 0) {
                // Not even a batch of one fits any replica's GPU:
                // shed with a memory rejection, never queue.
                ++report.shed;
                ++report.memoryShed;
                if (trace != nullptr)
                    trace->instant(lifecycle_track, "shed_memory", now,
                                   "lifecycle");
            } else if (cfg.resilience.admission.enabled() &&
                       totalQueued() >=
                           cfg.resilience.admission.maxQueueLength) {
                ++report.shed;
                if (trace != nullptr)
                    trace->instant(lifecycle_track, "shed", now,
                                   "lifecycle");
            } else {
                MMGEN_CHECK(meta.size() <
                                std::numeric_limits<std::uint32_t>::max(),
                            "more than 2^32 admitted requests");
                const std::uint32_t id =
                    static_cast<std::uint32_t>(meta.size());
                ReqMeta m;
                m.liveCopies = 1;
                meta.push_back(m);
                enqueue(route(-1), Copy{.arrival = now,
                                        .size = pending.sizeScale,
                                        .id = id,
                                        .priority = pending.priority});
                size_sum += pending.sizeScale;
                ++size_count;
                if (trace != nullptr)
                    trace->instant(lifecycle_track, "admit", now,
                                   "lifecycle");
            }
            pending = arrivals.next();
            next_arrival = pending.time;
            dispatch(now);
        } else if (source == kFault) {
            // GPU availability edge.
            const Transition tr = transitions[ti++];
            const std::size_t gi = static_cast<std::size_t>(tr.gpu);
            if (tr.down) {
                gpu_down[gi] = true;
                if (inflight[gi].has_value()) {
                    traceRun(tr.gpu, now, "killed");
                    failBatch(tr.gpu, now);
                }
            } else {
                gpu_down[gi] = false;
                dispatch(now);
            }
        } else if (source == kProbe) {
            // Health probe: refresh router knowledge, advance due
            // breakers from open to half-open.
            const std::size_t ri =
                static_cast<std::size_t>(probe_replica);
            bool anyUp = false;
            for (int k = 0; k < cfg.replicas[ri].numGpus; ++k) {
                if (!gpu_down[static_cast<std::size_t>(
                        gpuBase[ri] + k)]) {
                    anyUp = true;
                    break;
                }
            }
            knownUp[ri] = anyUp;
            probeNext[ri] += cfg.probe.intervalSeconds;
            if (breakerOn && bstate[ri] == BreakerState::Open &&
                now >= openedAt[ri] + cfg.breaker.openSeconds) {
                bstate[ri] = BreakerState::HalfOpen;
                halfOpenSucc[ri] = 0;
                if (trace != nullptr) {
                    telemetry::Labels args;
                    args.set("replica",
                             std::to_string(probe_replica));
                    trace->instant(breaker_track, "breaker_half_open",
                                   now, "breaker", args);
                }
                dispatch(now);
            }
        } else if (source == kHedge) {
            // Hedge timer: the primary has run long enough — issue a
            // backup copy on a different replica.
            const HedgeEvent ev = hedges.top();
            hedges.pop();
            ReqMeta& m = meta[static_cast<std::size_t>(ev.primary.id)];
            if (!m.done && !m.hedged && m.primaryInFlight) {
                const int target = route(m.primaryReplica);
                if (target >= 0 && target != m.primaryReplica) {
                    m.hedged = true;
                    m.hedgedAt = now;
                    ++m.liveCopies;
                    ++report.hedgesIssued;
                    if (now > horizon)
                        ++report.drainHedgesIssued;
                    if (trace != nullptr) {
                        telemetry::Labels args;
                        args.set("target", std::to_string(target));
                        trace->instant(hedge_track, "hedge_issue", now,
                                       "hedge", args);
                    }
                    enqueue(target,
                            Copy{.arrival = ev.primary.arrival,
                                 .size = ev.primary.size,
                                 .id = ev.primary.id,
                                 .priority = ev.primary.priority,
                                 .hedge = true});
                    dispatch(now);
                }
            }
        } else if (source == kRetry) {
            // Backed-off copies re-enter a queue via the router.
            while (!retries.empty() && retries.top().ready <= now) {
                const Copy copy = retries.top().copy;
                retries.pop();
                enqueue(route(-1), copy);
            }
            dispatch(now);
        } else if (source == kCompletion) {
            // A greedy batch or a continuous iteration resolves (may
            // run past the horizon to drain).
            const int g = finishes.top().gpu;
            finishes.pop();
            const bool timedOut =
                inflight[static_cast<std::size_t>(g)]->timedOut;
            traceRun(g, now, timedOut ? "timeout" : "ok");
            if (timedOut)
                failBatch(g, now);
            else if (continuous)
                finishIteration(g);
            else
                finishBatch(g);
            if (now > horizon && totalQueued() == 0 &&
                inflight_gpus == 0 && retries.empty()) {
                break;
            }
            dispatch(now);
        } else {
            take_sample(now);
            next_sample = sample_time();
        }
    }

    // The backlog counts requests, not copies: an unanswered request
    // with a live copy anywhere (queued, running, or backing off) is
    // one backlog entry even when its primary and hedge both are.
    for (const ReqMeta& m : meta) {
        if (!m.done && m.liveCopies > 0)
            ++report.backlog;
    }
    for (std::size_t gi = 0; gi < ngpu; ++gi) {
        if (!inflight[gi].has_value())
            continue;
        // Batches cut off by the end of the run still occupied their
        // GPU inside the horizon.
        account_busy(inflight[gi]->start,
                     std::min(inflight[gi]->finish, horizon),
                     repOf[gi]);
    }

    if (!latencies.empty()) {
        const Summary s = summarize(latencies);
        report.meanLatency = s.mean;
        report.p50Latency = percentile(latencies, 50.0);
        report.p95Latency = percentile(latencies, 95.0);
        report.p99Latency = percentile(latencies, 99.0);
    }
    if (!batch_sizes.empty()) {
        report.meanBatch = summarize(batch_sizes).mean;
        report.maxBatchDispatched = static_cast<std::int64_t>(
            *std::max_element(batch_sizes.begin(), batch_sizes.end()));
    }
    if (size_count > 0)
        report.meanRequestSize =
            size_sum / static_cast<double>(size_count);
    report.throughput =
        static_cast<double>(report.completed - report.drainCompleted) /
        horizon;
    report.goodput = static_cast<double>(goodput_count) / horizon;
    report.gpuUtilization =
        busy_in_horizon / (horizon * static_cast<double>(numGpus));
    if (report.completed > 0) {
        report.deadlineMissRate =
            static_cast<double>(deadline_misses) /
            static_cast<double>(report.completed);
        report.degradedFraction =
            static_cast<double>(report.degraded) /
            static_cast<double>(report.completed);
    }
    if (report.arrived > 0) {
        report.shedFraction = static_cast<double>(report.shed) /
                              static_cast<double>(report.arrived);
    }

    for (int r = 0; r < numReplicas; ++r) {
        const std::size_t ri = static_cast<std::size_t>(r);
        double sum = 0.0;
        for (int k = 0; k < cfg.replicas[ri].numGpus; ++k)
            sum += plan.gpus[static_cast<std::size_t>(gpuBase[ri] + k)]
                       .availability(horizon);
        cluster.replicas[ri].availability =
            sum / static_cast<double>(cfg.replicas[ri].numGpus);
    }

    if (metrics != nullptr) {
        publishServingMetrics(*metrics, report, latencies,
                              batch_sizes);
        for (int r = 0; r < numReplicas; ++r) {
            const std::size_t ri = static_cast<std::size_t>(r);
            const telemetry::Labels& lbl = repLabels[ri];
            const ReplicaStats& stats = cluster.replicas[ri];
            metrics->counter("serving.replica.dispatched_batches", lbl)
                .add(stats.dispatchedBatches);
            metrics->counter("serving.replica.completed_requests", lbl)
                .add(stats.completedRequests);
            metrics->counter("serving.replica.aborted_batches", lbl)
                .add(stats.abortedBatches);
            metrics->counter("serving.replica.breaker_opens", lbl)
                .add(stats.breakerOpens);
            metrics->gauge("serving.replica.busy_seconds", lbl)
                .set(stats.busySeconds);
            metrics->gauge("serving.replica.availability", lbl)
                .set(stats.availability);
        }
        for (std::size_t d = 0; d < cluster.domainAvailability.size();
             ++d) {
            metrics
                ->gauge("serving.domain.availability",
                        telemetry::Labels{
                            {"domain", std::to_string(d)}})
                .set(cluster.domainAvailability[d]);
        }
    }

    return cluster;
}

} // namespace mmgen::serving
