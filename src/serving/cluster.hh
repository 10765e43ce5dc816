/**
 * @file
 * The serving engine: multiple replica pools behind a seeded router,
 * per-replica circuit breakers with a probe-driven health model,
 * hedged requests, checkpoint/restore of long multimodal requests, and
 * greedy or continuous batching on every replica.
 *
 * The paper's headline system pain is that TTV/TTI requests run
 * orders of magnitude longer than LLM requests, so a mid-request
 * fault destroys minutes of GPU work. Beyond i.i.d. per-GPU faults
 * with full-request retry, the engine models real recovery semantics
 * — the multi-replica "app family" deployment ServeGen
 * (arXiv:2505.09999) and Lee et al. (arXiv:2410.00215) motivate: one
 * bad replica must not sink the fleet, and a fault in minute 4 of a
 * 5-minute video generation must not re-run minutes 0-4.
 *
 * `simulateCluster` is the only discrete-event loop in the serving
 * layer. A single pool is a one-replica cluster with every cluster
 * feature off (`singlePoolCluster`); `simulateServing` runs exactly
 * that. Every replica prices batches through one call,
 * `BatchLatencySurface::batchSeconds(batch, largest member size)`.
 *
 * Determinism contract: every stochastic process draws from split
 * `Rng` streams (arrivals from the unsplit `Rng(seed)` stream, faults
 * and probe jitter from their own streams), so reports are
 * bit-reproducible at any `--jobs` count, and enabling a resilience
 * feature never perturbs the arrival sequence.
 */

#ifndef MMGEN_SERVING_CLUSTER_HH
#define MMGEN_SERVING_CLUSTER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/pipeline.hh"
#include "serving/latency_surface.hh"
#include "serving/policies.hh"
#include "serving/simulator.hh"

namespace mmgen::serving {

/**
 * One replica pool: a group of GPUs serving the same model behind a
 * shared queue. Replicas may be heterogeneous (different GPU counts
 * or pricing — e.g. an A100 pool next to a V100 pool) and are
 * assigned to a failure domain (rack/pod) whose members share
 * correlated outages and chaos events.
 *
 * Pricing: a non-empty `surface` prices this replica's batches by
 * (batch, largest member size). An empty one is built from `latency`
 * with `BatchLatencySurface::fromLatencyModel(latency, maxBatch)`,
 * which reproduces the linear model bit-for-bit and ignores request
 * size.
 */
struct ReplicaSpec
{
    /** Linear batch-latency model of the (model, GPU) pairing. */
    LatencyModel latency;
    /** GPUs in this replica's pool. */
    int numGpus = 1;
    /** Failure-domain id (rack/pod) this replica lives in. */
    int domain = 0;
    /** Exec-derived pricing; empty means "price by `latency`". */
    BatchLatencySurface surface{};
};

/** How the router spreads arrivals over routable replicas. */
enum class RouterPolicy
{
    /** Cycle over routable replicas in index order. */
    RoundRobin,
    /** Fewest queued + in-flight requests; ties to lowest index. */
    LeastLoaded,
    /**
     * Least-loaded, but replicas in failure domains with a known-down
     * or breaker-tripped member are deprioritized — new work avoids
     * the blast radius of an unhealthy rack.
     */
    FailureDomainAware,
};

const char* routerPolicyName(RouterPolicy policy);

/**
 * Per-replica circuit breaker (closed -> open -> half-open). Batch
 * failures (fault kills, timeouts) attributed to a replica count
 * against it; at `failureThreshold` consecutive failures the breaker
 * opens, the router stops sending work there, and its queue is
 * re-routed. After `openSeconds` the next health probe moves the
 * breaker to half-open, which admits one trial batch at a time;
 * `halfOpenSuccesses` consecutive successes close it again, one
 * failure re-opens it.
 */
struct CircuitBreakerPolicy
{
    /** Consecutive batch failures that trip the breaker (0 = off). */
    int failureThreshold = 0;
    /** Seconds the breaker stays open before probing. */
    double openSeconds = 30.0;
    /** Half-open successes required to close. */
    int halfOpenSuccesses = 1;

    bool enabled() const { return failureThreshold > 0; }
};

/**
 * Hedged requests: if a request's primary dispatch has not completed
 * `delaySeconds` after it started, a backup copy is enqueued on a
 * different replica. First completion wins; the loser is cancelled
 * (dropped unserved from its queue, or its GPU share reported as
 * hedge waste if it was already running). At most one hedge per
 * request.
 */
struct HedgePolicy
{
    /** Delay after primary dispatch before hedging (0 = off). */
    double delaySeconds = 0.0;

    bool enabled() const { return delaySeconds > 0.0; }
};

/**
 * Quantile-based hedge delay: the service time of the q-quantile
 * batch size in [1, maxBatch] under the given latency model — hedge
 * once the primary has run longer than the q-quantile batch would
 * normally take.
 */
double hedgeDelayForQuantile(const LatencyModel& latency, int maxBatch,
                             double quantile);

/**
 * Checkpoint/restore of long requests. A request is resumable
 * progress through `iterations` equal steps (diffusion denoising
 * steps, AR chunks); every `intervalIterations` completed steps the
 * batch writes a checkpoint costing `costSeconds` of GPU time. A
 * fault re-dispatches the request from its last checkpoint instead of
 * from scratch, so only the progress past the checkpoint is wasted.
 */
struct CheckpointPolicy
{
    /** Resumable iterations per request (0 = not resumable). */
    std::int64_t iterations = 0;
    /** Steps between checkpoints (0 = never checkpoint). */
    std::int64_t intervalIterations = 0;
    /** GPU-time cost of writing one checkpoint, seconds. */
    double costSeconds = 0.0;

    bool enabled() const
    {
        return iterations > 0 && intervalIterations > 0;
    }
};

/**
 * Derive a checkpoint policy from a pipeline's iteration structure:
 * `iterations` is the dominant stage's iteration count (denoise steps
 * for diffusion, decode steps for AR generators), checkpointed every
 * `everyIterations` steps at the given cost.
 */
CheckpointPolicy checkpointFromPipeline(const graph::Pipeline& pipeline,
                                        std::int64_t everyIterations,
                                        double costSeconds);

/** What a chaos event does to the cluster. */
enum class ChaosEventKind
{
    /** All GPUs of one replica go down for the duration. */
    KillReplica,
    /** Every GPU in one failure domain runs `factor` x slower. */
    DegradeDomain,
    /** One GPU (global index) runs `factor` x slower. */
    StraggleGpu,
};

const char* chaosEventKindName(ChaosEventKind kind);

/** One timed, declarative chaos injection. */
struct ChaosEvent
{
    /** When the event starts, seconds. */
    double atSeconds = 0.0;
    ChaosEventKind kind = ChaosEventKind::KillReplica;
    /** Replica, domain, or global GPU index, by kind. */
    int target = 0;
    /** How long the effect lasts (0 = until the horizon). */
    double durationSeconds = 0.0;
    /** Slowdown multiplier for degrade/straggle events (>= 1). */
    double factor = 1.0;
};

/** A named, declarative chaos scenario: timed events on a cluster. */
struct ChaosScenario
{
    std::string name = "none";
    std::vector<ChaosEvent> events;

    bool empty() const { return events.empty(); }
};

/**
 * Build a canonical scenario by name, scaled to the horizon:
 * "none", "kill-replica" (one replica down mid-run),
 * "kill-replica-at-zero" (cluster starts mid-outage),
 * "rolling-kill" (replicas die one after another),
 * "degrade-domain" (one rack runs 3x slow), and
 * "straggle-gpu" (one GPU runs 4x slow). Throws on unknown names.
 */
ChaosScenario namedChaosScenario(const std::string& name,
                                 int numReplicas,
                                 double horizonSeconds);

/**
 * Replica health-probe model. Probes are the only way the router
 * learns a replica's state: every `intervalSeconds` (plus a seeded
 * per-replica phase offset, so probes do not align across replicas)
 * the prober marks a replica up/down from its GPUs' current state and
 * moves due circuit breakers from open to half-open. Between probes
 * the router acts on stale health — the detection-lag realism knob.
 */
struct ProbeModel
{
    double intervalSeconds = 5.0;
    /** Phase offset is uniform in [0, jitterFraction * interval). */
    double jitterFraction = 0.5;

    /**
     * Most probes one run may expect (replicas x horizon / interval).
     * A probe stores nothing, but each is one pass of the event loop,
     * so the cap is `TrafficConfig::kMaxExpectedArrivals`: probes never
     * take more events than the arrivals a run may simulate (2e7 probes
     * take ~0.2 s in a Release build). It sits 11,000x above every
     * test, bench, example and hostbench run (at most 1,800).
     */
    static constexpr double kMaxExpectedProbes =
        TrafficConfig::kMaxExpectedArrivals;
};

/**
 * Cluster topology + every resilience policy in one config. The
 * traffic knobs (rate, batch ceiling, horizon, seed, mix, batching
 * discipline) are the single pool's, shared through `TrafficConfig`.
 */
struct ClusterConfig : TrafficConfig
{
    /** Replica pools behind the router (at least one). */
    std::vector<ReplicaSpec> replicas = {ReplicaSpec{}};
    RouterPolicy router = RouterPolicy::RoundRobin;

    /**
     * Single-pool policies, reused per replica. Faults are i.i.d. per
     * GPU plus correlated per failure domain: `faults.domainSize`,
     * when set, partitions the GPUs in global order into domains of
     * that size (the single-pool layout); otherwise each replica's
     * GPUs share its `ReplicaSpec::domain`.
     */
    ResilienceConfig resilience;

    CircuitBreakerPolicy breaker;
    HedgePolicy hedge;
    CheckpointPolicy checkpoint;
    ChaosScenario chaos;
    ProbeModel probe;

    int totalGpus() const;

    /**
     * Throw `FatalError` on any malformed knob, replica pricing, or
     * chaos target, on more than `ProbeModel::kMaxExpectedProbes`
     * expected probes or `FaultConfig::kMaxExpectedOutages` expected
     * outages of one fault process, and on checkpointing combined with
     * continuous batching (a checkpoint resumes a whole greedy batch;
     * continuous members join and leave mid-request).
     */
    void validate() const;
};

/**
 * Wrap a single-pool serving configuration as a one-replica cluster
 * with every cluster feature disabled — exactly what
 * `simulateServing(cfg, latency)` runs.
 */
ClusterConfig singlePoolCluster(const ServingConfig& cfg,
                                const LatencyModel& latency);

/** Per-replica accounting over the horizon. */
struct ReplicaStats
{
    /** Batches dispatched (continuous batching: iterations). */
    std::int64_t dispatchedBatches = 0;
    std::int64_t completedRequests = 0;
    /** Batches killed by faults or timeouts on this replica. */
    std::int64_t abortedBatches = 0;
    std::int64_t breakerOpens = 0;
    /** GPU busy-seconds on this replica (incl. drain work). */
    double busySeconds = 0.0;
    /** Mean member-GPU availability (faults + chaos). */
    double availability = 1.0;
};

/** Cluster simulation output. */
struct ClusterReport
{
    /** Fleet-level metrics, including the cluster counters. */
    ServingReport serving;
    std::vector<ReplicaStats> replicas;
    /** Mean member availability per failure domain id. */
    std::vector<double> domainAvailability;
};

/**
 * Run the discrete-event simulation. Arrivals draw from the unsplit
 * `Rng(seed)` stream (or the mix's per-class streams), while faults,
 * chaos compilation, and probe jitter draw from split streams, so
 * enabling any resilience feature never perturbs the arrival sequence.
 *
 * Events at the same instant resolve in a fixed order: arrival, fault
 * edge, probe, hedge timer, retry, completion, telemetry sample (the
 * event loop's table of due times lists the sources in this order).
 *
 * Telemetry only records, never perturbs the RNG or the event clock:
 * the report is bit-for-bit identical with a null, an all-disabled,
 * or an enabled `telemetry`. With it on, the run emits summary
 * counters, gauges and histograms; sampled series (queue depth,
 * in-flight GPUs, retry backlog, cumulative counts) fleet-wide and per
 * replica (queue depth, in-flight batches, breaker state, utilization,
 * labeled replica=R); per-GPU batch and outage spans; request
 * lifecycle instants; breaker open / half-open / close instants; and
 * hedge spans from issue to resolution.
 */
ClusterReport simulateCluster(
    const ClusterConfig& cfg,
    const telemetry::Telemetry* telemetry = nullptr);

} // namespace mmgen::serving

#endif // MMGEN_SERVING_CLUSTER_HH
