/**
 * @file
 * Deterministic metrics registry: typed counters, gauges, bounded-error
 * histograms, and sim-time time series addressed by name + label set.
 *
 * Every timestamp recorded here is *simulation time* (seconds since
 * the start of the simulated run), never wall clock, and registry
 * iteration order is a pure function of metric names and labels — so
 * an exported metrics file is byte-identical across `--jobs 1/2/8`
 * and across machines. The registry is the one place cross-cutting
 * instrumentation (serving, cluster, runtime, profiler) deposits
 * observations; exporters in telemetry/export.hh render it.
 *
 * Registries are not thread-safe: all simulator instrumentation runs
 * on the simulating thread. Runtime-layer counters (parallel loop,
 * profile cache) are aggregated atomically at their source and only
 * *published* into a registry at read time.
 */

#ifndef MMGEN_TELEMETRY_METRICS_HH
#define MMGEN_TELEMETRY_METRICS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace mmgen::telemetry {

/**
 * A sorted (key, value) label set. Labels are sorted by key on
 * construction so two call sites naming the same dimensions in a
 * different order address the same metric instance.
 */
class Labels
{
  public:
    Labels() = default;
    Labels(std::initializer_list<std::pair<std::string, std::string>> kv);

    /** Add (or replace) one label; keeps the set sorted. */
    void set(const std::string& key, const std::string& value);

    const std::vector<std::pair<std::string, std::string>>&
    items() const
    {
        return kv_;
    }

    bool empty() const { return kv_.empty(); }

    /** Canonical "k1=v1,k2=v2" rendering (keys are sorted). */
    std::string str() const;

    bool operator==(const Labels& other) const { return kv_ == other.kv_; }
    bool operator<(const Labels& other) const { return kv_ < other.kv_; }

  private:
    std::vector<std::pair<std::string, std::string>> kv_;
};

/** Monotone event counter. */
class Counter
{
  public:
    void add(std::int64_t delta = 1);
    std::int64_t value() const { return value_; }

  private:
    std::int64_t value_ = 0;
};

/** Last-value-wins instantaneous measurement. */
class Gauge
{
  public:
    void set(double v);
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * Histogram bucket layout. Buckets are fixed at registration: either
 * `buckets` equal-width bins over [lo, hi) or log-spaced bins whose
 * upper edges grow geometrically. Observations below lo land in an
 * underflow bucket, at or above hi in an overflow bucket, so no
 * observation is ever dropped.
 */
struct HistogramSpec
{
    enum class Scale { Linear, Log };

    Scale scale = Scale::Linear;
    double lo = 0.0;
    double hi = 1.0;
    int buckets = 16;

    /** Equal-width buckets over [lo, hi). */
    static HistogramSpec linear(double lo, double hi, int buckets);

    /**
     * Log-spaced buckets over [lo, hi); requires lo > 0. Bucket
     * edges are lo * g^i with g chosen so bucket `buckets` ends at
     * hi exactly.
     */
    static HistogramSpec exponential(double lo, double hi, int buckets);

    /** Upper edge of bucket i (i in [0, buckets)). */
    double upperEdge(int i) const;

    /** Lower edge of bucket i. */
    double lowerEdge(int i) const;

    void validate() const;
};

/**
 * Fixed-bucket histogram with bounded-error quantiles.
 *
 * quantile(q) returns a representative value from the bucket holding
 * the q-th observation (nearest-rank over bucket counts): the bucket
 * midpoint for linear scales, the geometric mean of the edges for log
 * scales. The error is therefore bounded by half the bucket width
 * (resp. half a growth factor) — the classic fixed-bucket tradeoff.
 */
class Histogram
{
  public:
    explicit Histogram(HistogramSpec spec);

    /** Record one observation; NaN is rejected with FatalError. */
    void observe(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    const std::vector<std::uint64_t>& bucketCounts() const
    {
        return counts_;
    }
    const HistogramSpec& spec() const { return spec_; }

    /**
     * Bounded-error quantile, q in [0, 1]. Returns 0 when empty.
     * Observations in the underflow bucket report lo, in the overflow
     * bucket hi.
     */
    double quantile(double q) const;

  private:
    HistogramSpec spec_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/** One (sim-time, value) sample of a periodically sampled series. */
struct SamplePoint
{
    double tSeconds = 0.0;
    double value = 0.0;
};

/** An append-only sim-time series (periodic sampler output). */
class TimeSeries
{
  public:
    /** Append a sample; timestamps must be non-decreasing. */
    void record(double tSeconds, double value);

    const std::vector<SamplePoint>& points() const { return points_; }
    bool empty() const { return points_.empty(); }
    const SamplePoint& back() const { return points_.back(); }

  private:
    std::vector<SamplePoint> points_;
};

/**
 * The registry: owns all metric instances, addressed by
 * (name, labels). Lookups create on first use; the spec of a
 * histogram is fixed by its first registration and later lookups
 * must agree.
 *
 * Iteration (visit callbacks, exporters) runs in (name, labels)
 * lexicographic order — std::map keys — which is what makes exports
 * deterministic regardless of registration order.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    Counter& counter(const std::string& name, const Labels& labels = {});
    Gauge& gauge(const std::string& name, const Labels& labels = {});
    Histogram& histogram(const std::string& name, const HistogramSpec& spec,
                         const Labels& labels = {});
    TimeSeries& series(const std::string& name, const Labels& labels = {});

    /** Read-only lookup; nullptr when absent. */
    const Counter* findCounter(const std::string& name,
                               const Labels& labels = {}) const;
    const Gauge* findGauge(const std::string& name,
                           const Labels& labels = {}) const;
    const Histogram* findHistogram(const std::string& name,
                                   const Labels& labels = {}) const;
    const TimeSeries* findSeries(const std::string& name,
                                 const Labels& labels = {}) const;

    using Key = std::pair<std::string, Labels>;

    const std::map<Key, Counter>& counters() const { return counters_; }
    const std::map<Key, Gauge>& gauges() const { return gauges_; }
    const std::map<Key, std::unique_ptr<Histogram>>& histograms() const
    {
        return histograms_;
    }
    const std::map<Key, TimeSeries>& allSeries() const { return series_; }

    /** Total number of registered metric instances of all types. */
    std::size_t size() const;

  private:
    std::map<Key, Counter> counters_;
    std::map<Key, Gauge> gauges_;
    std::map<Key, std::unique_ptr<Histogram>> histograms_;
    std::map<Key, TimeSeries> series_;
};

} // namespace mmgen::telemetry

#endif // MMGEN_TELEMETRY_METRICS_HH
