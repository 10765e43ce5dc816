/**
 * @file
 * Serving simulator for generation workloads: batch pricing, the
 * traffic configuration, the serving report, and the single-pool entry
 * points.
 *
 * The paper motivates its characterization with deployment at scale
 * ("ChatGPT alone serves over 100 million weekly users"; sticker
 * generation across an app family). This module closes the loop from
 * per-request inference latency — produced by the profiler — to
 * fleet-facing serving metrics: a seeded arrival process, a pool of
 * simulated GPUs, greedy or continuous request batching, and
 * tail-latency / utilization reporting, with the `faults.hh` injection
 * model and the `policies.hh` retry / deadline / admission /
 * degradation machinery layered on top.
 *
 * There is one discrete-event engine, `simulateCluster`
 * (serving/cluster.hh). A single pool is a one-replica cluster with
 * every cluster feature off, and `simulateServing` is a thin wrapper
 * that runs exactly that.
 */

#ifndef MMGEN_SERVING_SIMULATOR_HH
#define MMGEN_SERVING_SIMULATOR_HH

#include <cstdint>

#include "graph/pipeline.hh"
#include "hw/gpu_spec.hh"
#include "serving/policies.hh"
#include "telemetry/telemetry.hh"
#include "workload/workload.hh"

namespace mmgen::serving {

struct BatchLatencySurface; // serving/latency_surface.hh

/**
 * Batch-latency model of one model on one GPU: a batch of size b
 * takes base * (overheadFraction + (1 - overheadFraction) * b)
 * seconds — fixed pipeline overheads amortize, compute scales.
 */
struct LatencyModel
{
    /** Batch-1 inference latency, seconds. */
    double baseSeconds = 1.0;
    /** Fraction of the batch-1 latency that does not scale with b. */
    double overheadFraction = 0.15;

    /** Service time of a batch of the given size. */
    double batchSeconds(int batch) const;
};

/**
 * Build a latency model by profiling a pipeline on the given GPU
 * (Flash attention backend, default lowering, one serial stream).
 * The non-scaling share is the launch overhead: launch count times
 * the GPU's per-launch overhead, clamped to [0.02, 0.5].
 */
LatencyModel profileLatencyModel(const graph::Pipeline& pipeline,
                                 const hw::GpuSpec& gpu);

/**
 * Traffic and batching knobs shared by every serving run, single pool
 * or cluster.
 */
struct TrafficConfig
{
    /** Mean request arrival rate, requests/second (Poisson). */
    double arrivalRate = 1.0;
    /** Maximum requests batched into one inference. */
    int maxBatch = 4;
    /** Simulated wall-clock horizon, seconds. */
    double horizonSeconds = 600.0;
    /** Arrival-process seed (fault and probe streams split from it). */
    std::uint64_t seed = 7;

    /**
     * Client mix feeding the endpoint. Empty (the default) means the
     * legacy single plain-Poisson stream on the unsplit seed — the
     * bit-for-bit pre-workload path. A configured mix drives arrivals,
     * request sizes, and dispatch priorities through the workload
     * generator; a mix that degenerates to plain Poisson reproduces
     * the legacy arrival trace byte-for-byte.
     */
    workload::WorkloadConfig workload;

    /**
     * Continuous batching: requests join and leave the in-flight
     * batch at iteration boundaries (the pricing surface's dominant
     * stage granularity) instead of greedy fixed batches that hold
     * every member until the whole batch finishes. False (default)
     * keeps the legacy greedy dispatcher.
     */
    bool continuousBatching = false;

    /**
     * Throw `FatalError` with a clear message on any non-positive or
     * non-finite knob (arrival rate, max batch, horizon), a max batch
     * above `exec::kUnboundedBatch`, or a malformed workload mix
     * instead of running a degenerate simulation.
     */
    void validate() const;
};

/** Single-pool configuration: the traffic knobs plus one GPU pool. */
struct ServingConfig : TrafficConfig
{
    /** GPUs serving this model. */
    int numGpus = 1;

    /** `TrafficConfig::validate`, plus a GPU count of at least one. */
    void validate() const;
};

/** Aggregate serving metrics over the horizon. */
struct ServingReport
{
    std::int64_t arrived = 0;
    /** Requests completed, including drain-window completions. */
    std::int64_t completed = 0;
    /** In-horizon completions per second (drain work excluded). */
    double throughput = 0.0;
    double meanLatency = 0.0;
    double p50Latency = 0.0;
    double p95Latency = 0.0;
    /** Tail beyond p95 — the frontier-sweep SLO axis. */
    double p99Latency = 0.0;
    /**
     * Mean batch size. Greedy mode: mean over dispatched batches.
     * Continuous mode: mean over scheduler iterations (the occupancy
     * a GPU actually sees).
     */
    double meanBatch = 0.0;
    /** Fraction of in-horizon GPU-time occupied (never clamped). */
    double gpuUtilization = 0.0;
    /** Requests still queued or in flight at the horizon. */
    std::int64_t backlog = 0;

    /** Offered load versus capacity (>= 1 means saturation). */
    double offeredLoad = 0.0;

    // -- drain-window accounting (post-horizon work, reported
    //    separately so it cannot inflate throughput/utilization) --

    /** Of `completed`, how many finished after the horizon. */
    std::int64_t drainCompleted = 0;
    /** GPU busy-seconds spent past the horizon. */
    double drainGpuSeconds = 0.0;

    // -- resilience metrics (zero on the fault-free default path) --

    /** In-horizon, within-deadline completions per second. */
    double goodput = 0.0;
    /** Fraction of completed requests that missed their deadline. */
    double deadlineMissRate = 0.0;
    /** Re-dispatch attempts after faults/timeouts. */
    std::int64_t retries = 0;
    /** Arrivals rejected by admission control. */
    std::int64_t shed = 0;
    /** `shed` as a fraction of arrivals. */
    double shedFraction = 0.0;
    /** Requests dropped unserved: deadline passed while queued. */
    std::int64_t expired = 0;
    /** Requests abandoned after exhausting the retry budget. */
    std::int64_t dropped = 0;
    /** Requests served in degraded (cheaper) mode. */
    std::int64_t degraded = 0;
    /** `degraded` as a fraction of completions. */
    double degradedFraction = 0.0;
    /** Of `shed`, arrivals rejected because no batch fits the GPU. */
    std::int64_t memoryShed = 0;
    /** Dispatch batch ceiling after the memory-feasibility clamp. */
    std::int64_t effectiveMaxBatch = 0;
    /** Largest batch actually dispatched (0 when none formed). */
    std::int64_t maxBatchDispatched = 0;
    /** GPU busy-seconds destroyed by faults and batch timeouts. */
    double lostGpuSeconds = 0.0;
    /** Mean per-GPU availability under the injected fault plan. */
    double meanAvailability = 1.0;

    // -- workload / continuous-batching metrics (legacy defaults:
    //    unit sizes, zero iterations under greedy dispatch) --

    /** Mean size scale of admitted requests (1.0 for unit mixes). */
    double meanRequestSize = 0.0;
    /** Scheduler iterations dispatched (continuous mode only). */
    std::int64_t iterationsDispatched = 0;

    // -- cluster metrics (zero in `simulateServing` reports; see
    //    serving/cluster.hh) --

    /** Backup copies dispatched to a second replica. */
    std::int64_t hedgesIssued = 0;
    /** Completions where the hedge beat (or outlived) the primary. */
    std::int64_t hedgesWon = 0;
    /** Duplicate copies cancelled unserved (winner already done). */
    std::int64_t hedgesCancelled = 0;
    /** GPU-seconds spent computing discarded duplicate copies. */
    double hedgeWastedSeconds = 0.0;
    /** Circuit-breaker closed->open transitions across replicas. */
    std::int64_t breakerOpens = 0;
    /** Circuit-breaker half-open->closed recoveries. */
    std::int64_t breakerCloses = 0;
    /** Checkpoints written during service. */
    std::int64_t checkpointsTaken = 0;
    /** Faulted requests re-dispatched from a checkpoint (not zero). */
    std::int64_t resumes = 0;
    /** GPU-seconds spent writing checkpoints (service overhead). */
    double checkpointOverheadSeconds = 0.0;
    /** GPU-seconds of progress destroyed, net of checkpoint salvage. */
    double wastedGpuSeconds = 0.0;
    /** GPU-seconds of checkpointed progress salvaged across faults. */
    double restoredGpuSeconds = 0.0;

    /**
     * Exact equality of every field — doubles compared with `==`, so
     * NaN never equals itself — deliberately, because the telemetry
     * contract is that instrumentation changes *nothing*, not
     * "nothing within epsilon". The CI gate and the overhead bench
     * run the same simulation with telemetry on and off and require
     * this to hold.
     */
    bool operator==(const ServingReport&) const = default;
};

/**
 * Run a single pool priced by a linear latency model: the one-replica
 * cluster `singlePoolCluster(cfg, latency)` with `resilience` applied.
 * Request size never changes the price (the model's surface has one
 * size node).
 *
 * With a default-constructed `ResilienceConfig` no fault or policy
 * machinery runs; every policy draws from split RNG streams, so
 * enabling one never perturbs the arrival sequence. Telemetry only
 * records, never perturbs the RNG, the event clock, or any
 * arithmetic: a null (or all-disabled) `telemetry` and an enabled one
 * give bit-identical reports. With telemetry on, the run emits the
 * cluster schema (see `simulateCluster`): summary counters, gauges and
 * histograms; sampled series of queue depth, in-flight GPUs and
 * cumulative counts, fleet-wide and labeled replica="0"; per-GPU batch
 * and outage spans; and request-lifecycle instants.
 *
 * The report keeps every cluster-only metric (hedges, breakers,
 * checkpoints, wasted and restored GPU-seconds) at zero; the exported
 * `serving.wasted_gpu_seconds` gauge still shows the progress fault
 * kills destroyed, as `lostGpuSeconds` does.
 */
ServingReport simulateServing(
    const ServingConfig& cfg, const LatencyModel& latency,
    const ResilienceConfig& resilience = ResilienceConfig(),
    const telemetry::Telemetry* telemetry = nullptr);

/**
 * Run a single pool priced by an exec-derived latency surface: batches
 * cost `surface.batchSeconds(b, largest member size)` (padded-batch
 * pricing), and `cfg.continuousBatching` schedules at the surface's
 * iteration granularity. With `BatchLatencySurface::fromLatencyModel(
 * model, cfg.maxBatch)` this reproduces the `LatencyModel` overload
 * bit-for-bit: that is exactly the surface the engine builds for a
 * model-priced replica.
 */
ServingReport simulateServing(
    const ServingConfig& cfg, const BatchLatencySurface& surface,
    const ResilienceConfig& resilience = ResilienceConfig(),
    const telemetry::Telemetry* telemetry = nullptr);

} // namespace mmgen::serving

#endif // MMGEN_SERVING_SIMULATOR_HH
