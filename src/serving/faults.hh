/**
 * @file
 * Seeded, deterministic fault injection for the serving simulator.
 *
 * Production fleets are not the perfect world the base simulator
 * models: GPUs fail and get repaired (MTBF/MTTR), spot capacity is
 * preempted for short windows, and straggler devices run slower than
 * their peers. This module pre-generates a per-GPU fault timeline from
 * split `mmgen::Rng` streams — one independent stream per (GPU,
 * process) pair — so injecting faults never perturbs the arrival
 * process and every run is bit-reproducible from the base seed.
 */

#ifndef MMGEN_SERVING_FAULTS_HH
#define MMGEN_SERVING_FAULTS_HH

#include <cstdint>
#include <vector>

namespace mmgen::serving {

/** Why a GPU is unavailable during an outage window. */
enum class OutageKind
{
    /** Hard failure; repair takes MTTR-scale time. */
    Failure,
    /** Transient preemption (spot reclaim, defrag); short. */
    Preemption,
};

/** One contiguous window during which a GPU serves nothing. */
struct Outage
{
    double start = 0.0;
    double end = 0.0;
    OutageKind kind = OutageKind::Failure;

    double duration() const { return end - start; }
};

/** Fault-injection knobs. All rates are per GPU. */
struct FaultConfig
{
    /** Mean time between hard failures, seconds (0 disables). */
    double failureMtbfSeconds = 0.0;
    /** Mean time to repair after a hard failure, seconds. */
    double failureMttrSeconds = 300.0;
    /** Mean time between transient preemptions, seconds (0 disables). */
    double preemptionMtbfSeconds = 0.0;
    /** Mean preemption duration, seconds. */
    double preemptionMeanSeconds = 30.0;
    /** Fraction of GPUs that are persistent stragglers. */
    double stragglerFraction = 0.0;
    /** Service-time multiplier on straggler GPUs (>= 1). */
    double stragglerSlowdown = 1.0;

    // -- correlated failure domains (racks / pods whose members go
    //    down together: a switch dies, a power feed trips) --

    /**
     * GPUs per correlated failure domain. Domain d owns GPUs
     * [d*domainSize, (d+1)*domainSize). Required >= 1 when
     * `domainMtbfSeconds` is set; the explicit-membership
     * `planFaults` overload ignores it.
     */
    int domainSize = 0;
    /** Mean time between whole-domain outages, seconds (0 disables). */
    double domainMtbfSeconds = 0.0;
    /** Mean time to recover a failed domain, seconds. */
    double domainMttrSeconds = 120.0;

    /**
     * Most outages one fault process may expect over a run: GPUs x
     * horizon / (MTBF + MTTR), since a domain outage is copied onto
     * each member GPU's timeline. An outage keeps ~56 bytes (its
     * 24-byte window plus the simulator's two 16-byte up/down edges)
     * and planning copies it once more, so a Release run at this cap
     * peaks at ~0.4 GB (~0.8 GB with all three processes there). It
     * sits 100,000x above every test, bench, example and hostbench run
     * (at most 42).
     */
    static constexpr double kMaxExpectedOutages = 5e6;

    /** True if any fault process is active. */
    bool any() const;
};

/** Pre-generated fault schedule for one GPU. */
struct GpuFaultTimeline
{
    /** Disjoint outage windows, sorted by start time. */
    std::vector<Outage> outages;
    /** Persistent service-time multiplier (1 = healthy). */
    double slowdown = 1.0;

    /** Fraction of [0, horizon) this GPU is up. */
    double availability(double horizonSeconds) const;
    /** True if the GPU is inside an outage at time t. */
    bool downAt(double t) const;
};

/** Fault schedule for the whole pool. */
struct FleetFaultPlan
{
    std::vector<GpuFaultTimeline> gpus;

    /**
     * Failure-domain id of each GPU (parallel to `gpus`). Empty when
     * the plan was generated without correlated-domain faults, in
     * which case every GPU is its own implicit domain.
     */
    std::vector<int> domainOf;

    /** Mean per-GPU availability over the horizon (1 if empty). */
    double meanAvailability(double horizonSeconds) const;
    /** Total outage windows across the pool. */
    std::int64_t totalOutages() const;
    /**
     * Mean member availability per failure domain, indexed by domain
     * id (one entry covering the whole pool when `domainOf` is empty).
     */
    std::vector<double> domainAvailability(double horizonSeconds) const;
};

/**
 * Merge overlapping/adjacent outage windows into a disjoint,
 * start-sorted list; a hard Failure subsumes an overlapping
 * Preemption. Used by the fault planner and by the chaos-scenario
 * compiler when folding scripted kills into a GPU's timeline.
 */
std::vector<Outage> mergeOutages(std::vector<Outage> outages);

/**
 * Generate the fleet's fault plan. Failure and preemption processes
 * for GPU g draw from `Rng::stream(seed, ...)` streams keyed by g, so
 * the plan is independent of the arrival stream `Rng(seed)` and of
 * every other GPU's plan. Overlapping failure/preemption windows on
 * one GPU are merged (a hard failure subsumes a preemption).
 */
FleetFaultPlan planFaults(const FaultConfig& cfg, int numGpus,
                          double horizonSeconds, std::uint64_t seed);

/**
 * Generate a fault plan with explicit failure-domain membership:
 * `domainOf[g]` names GPU g's rack/pod. Per-GPU processes draw from
 * the same streams as the pool overload (bit-identical when domain
 * faults are disabled); each distinct domain additionally draws a
 * correlated outage process from its own `Rng::stream` keyed by the
 * domain id, and the resulting windows are merged into every member
 * GPU's timeline — members fail together.
 */
FleetFaultPlan planFaults(const FaultConfig& cfg,
                          const std::vector<int>& domainOf,
                          double horizonSeconds, std::uint64_t seed);

} // namespace mmgen::serving

#endif // MMGEN_SERVING_FAULTS_HH
