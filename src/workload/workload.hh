/**
 * @file
 * Seeded, composable serving-workload generation.
 *
 * The paper frames multi-modal generation as a datacenter-scale
 * serving problem, and production traces (ServeGen; see PAPERS.md)
 * show the traffic hitting such fleets is nothing like a single
 * homogeneous Poisson process: client populations differ in request
 * rate *shape* (steady API callers, bursty interactive apps, diurnal
 * consumer peaks) and in request *size* (image resolution, sequence
 * length, video frame count) with heavy right tails. This module
 * models that structure as a mix of client classes, each owning a
 * rate process and a size distribution, merged into one deterministic
 * arrival stream.
 *
 * Determinism contract (matches the serving engine): the plain
 * Poisson path draws from the unsplit `Rng(seed)` stream — the legacy
 * arrival sequence every pre-workload serving report was computed
 * from — so the legacy default stays bit-for-bit identical. Every
 * non-degenerate class draws from `Rng::stream(seed, streamId)` split
 * streams (base 0x0006'0000; faults.cc owns 0x0001'0000..0x0004'0000
 * and cluster probes 0x0005'0000), so enabling one class never
 * perturbs another and never perturbs the legacy stream.
 */

#ifndef MMGEN_WORKLOAD_WORKLOAD_HH
#define MMGEN_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace mmgen::workload {

/** Split-stream id base for per-class arrival/size draws. */
constexpr std::uint64_t kWorkloadStreamBase = 0x0006'0000;

/** Shape of one client class's request-rate process. */
enum class RateKind : std::uint8_t {
    /** Memoryless constant-rate arrivals. */
    Poisson,
    /** Markov-modulated Poisson: calm/burst states with exponential
        sojourns; the time-averaged rate equals the nominal rate. */
    MarkovModulated,
    /** Sinusoidal rate curve (compressed diurnal cycle), sampled by
        thinning against the peak rate. */
    Diurnal,
};

/** Human-readable rate-process name. */
std::string rateKindName(RateKind k);

/**
 * One class's rate process. The process has no absolute rate of its
 * own: its mean rate is `ServingConfig::arrivalRate * weight`, so a
 * mix composes with the existing `--rate` knob.
 */
struct RateProcess
{
    RateKind kind = RateKind::Poisson;

    // -- MarkovModulated knobs --
    /** Burst-state rate as a multiple of the calm-state rate (>= 1). */
    double burstRateMultiplier = 4.0;
    /** Mean burst-state sojourn, seconds. */
    double burstMeanSeconds = 30.0;
    /** Mean calm-state sojourn, seconds. */
    double calmMeanSeconds = 120.0;

    // -- Diurnal knobs --
    /** Peak-to-mean swing in [0, 1): rate(t) = mean * (1 + A sin). */
    double diurnalAmplitude = 0.5;
    /** Cycle length, seconds (sim horizons compress the 24h day). */
    double diurnalPeriodSeconds = 600.0;
    /** Phase offset in cycles ([0, 1)). */
    double diurnalPhase = 0.0;

    /** Throw `FatalError` on any out-of-range knob. */
    void validate(const std::string& className) const;
};

/** Shape of one client class's request-size distribution. */
enum class SizeKind : std::uint8_t {
    /** Every request has size `scale`. */
    Fixed,
    /** Log-normal with median `scale` and shape `sigma`. */
    LogNormal,
    /** Pareto with minimum `scale` and tail index `alpha`. */
    Pareto,
};

/** Human-readable size-distribution name. */
std::string sizeKindName(SizeKind k);

/**
 * Request-size distribution, in units of "work relative to the
 * profiled base request" (1.0 = the pipeline as profiled; 4.0 = a
 * 4x-work request, e.g. a 2x-resolution image or 4x the frames).
 */
struct SizeDistribution
{
    SizeKind kind = SizeKind::Fixed;
    /** Fixed value / log-normal median / Pareto minimum. */
    double scale = 1.0;
    /** Log-normal shape parameter (ignored otherwise). */
    double sigma = 0.5;
    /** Pareto tail index (> 1 so the mean is finite). */
    double alpha = 2.5;
    /** Samples are clamped into [minScale, maxScale]. */
    double minScale = 0.125;
    double maxScale = 8.0;

    /** True when every sample is exactly 1.0 (no RNG draw needed). */
    bool isUnit() const { return kind == SizeKind::Fixed && scale == 1.0; }

    /** Draw one size; Fixed draws nothing from the generator. */
    double sample(Rng& rng) const;

    /** Throw `FatalError` on any out-of-range knob. */
    void validate(const std::string& className) const;
};

/** One client population inside a workload mix. */
struct ClientClass
{
    std::string name = "default";
    /** Share of the total arrival rate; weights must sum to 1. */
    double weight = 1.0;
    /** Dispatch priority: lower values are served first (0 = most
        urgent). Classes with equal priority keep FIFO order. */
    int priority = 0;
    RateProcess rate;
    SizeDistribution size;
};

/**
 * A workload mix: the client classes sharing one serving endpoint.
 * An empty (default-constructed) config means "legacy plain Poisson"
 * to the simulators; `validate()` on an empty mix throws, matching
 * the `ServingConfig`/`ClusterConfig::validate()` contract of
 * rejecting degenerate inputs loudly.
 */
struct WorkloadConfig
{
    std::vector<ClientClass> classes;

    /** True when a mix was configured (simulators treat empty as the
        legacy single-Poisson path). */
    bool enabled() const { return !classes.empty(); }

    /**
     * True when the mix degenerates to the legacy process: one class,
     * full weight, Poisson rate, unit fixed size, priority 0. The
     * generator then uses the unsplit legacy stream so arrival traces
     * are byte-identical to the pre-workload simulators.
     */
    bool isPlainPoisson() const;

    /**
     * Throw `FatalError` with a clear message on: an empty mix, an
     * empty class name, a non-positive or non-finite weight, weights
     * not summing to 1 (within 1e-6), a negative priority, or any
     * malformed rate/size knob. Mirrors `ServingConfig::validate()`.
     */
    void validate() const;
};

/**
 * Named production-style mixes:
 *  - "poisson":     the legacy single steady class (degenerate);
 *  - "interactive": latency-sensitive interactive traffic over a
 *                   lower-priority batch class with Pareto sizes;
 *  - "bursty":      one Markov-modulated class with log-normal sizes;
 *  - "diurnal":     one compressed-diurnal class;
 *  - "production":  bursty interactive + steady standard + offline
 *                   video tier, three priorities, heavy-tailed sizes.
 * Throws `FatalError` on an unknown name.
 */
WorkloadConfig namedWorkloadMix(const std::string& name);

/** The names `namedWorkloadMix` accepts, in display order. */
std::vector<std::string> workloadMixNames();

/** One generated request arrival. */
struct Arrival
{
    double time = 0.0;
    int classIndex = 0;
    /** Work multiple relative to the profiled base request. */
    double sizeScale = 1.0;
    /** Dispatch priority of the owning class (lower = first). */
    int priority = 0;
};

/**
 * Merges a mix's per-class arrival processes into one deterministic
 * time-ordered stream. The one class of a plain-Poisson mix draws its
 * gaps from the unsplit `Rng(seed)`: successive `exponential(rate)`
 * gaps, the legacy arrival sequence. Every other class draws from its
 * own split streams.
 */
class ArrivalGenerator
{
  public:
    /** Plain Poisson at `rate`: the "poisson" mix. */
    ArrivalGenerator(std::uint64_t seed, double rate);

    /**
     * Workload mix at total rate `rate` (validated; per-class rate is
     * `rate * weight`).
     */
    ArrivalGenerator(std::uint64_t seed, double rate,
                     const WorkloadConfig& mix);

    /** Next arrival in global time order (ties: lowest class). */
    Arrival next();

  private:
    struct ClassState
    {
        Rng arrivalRng;
        Rng sizeRng;
        double meanRate = 0.0;
        double nextTime = 0.0;
        // MarkovModulated state.
        bool inBurst = false;
        double stateEnd = 0.0;
        double calmRate = 0.0;
        double burstRate = 0.0;
        /** A copy of the class, so a copied generator owns its own. */
        ClientClass klass;
    };

    void advance(ClassState& cs);

    std::vector<ClassState> classes_;
};

} // namespace mmgen::workload

#endif // MMGEN_WORKLOAD_WORKLOAD_HH
