/**
 * @file
 * Aggregate profile reports.
 *
 * The simulated counterpart of the paper's profiling framework
 * (Section III, "Tools"): reports aggregate kernel time into the
 * operator categories of Fig. 6, per attention kind (Fig. 11), and
 * into the sequence-length series of Figs. 7-8. Per-op facts (module
 * scope, stage, repeat, attention shape) live in the lowered plan.
 */

#ifndef MMGEN_PROFILER_RECORD_HH
#define MMGEN_PROFILER_RECORD_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "graph/op.hh"
#include "util/stats.hh"

namespace mmgen::profiler {

/** Execution-time totals per operator category (paper Fig. 6). */
class BreakdownReport
{
  public:
    /** Accumulate `seconds` of one op into its category. */
    void add(graph::OpCategory category, double seconds);

    /** Merge another report into this one. */
    void merge(const BreakdownReport& other);

    double totalSeconds() const { return total; }

    /** Seconds attributed to a category. */
    double categorySeconds(graph::OpCategory c) const;

    /** Fraction of total time in a category (0 when total is 0). */
    double categoryFraction(graph::OpCategory c) const;

    /**
     * Raw per-category seconds, indexed by OpCategory (disk-cache
     * serde only — report consumers use categorySeconds()).
     */
    const std::array<double, 7>& rawCategories() const
    {
        return perCategory;
    }

    /** Rebuild from serialized raw state (disk-cache serde only). */
    static BreakdownReport fromRaw(const std::array<double, 7>& per,
                                   double total_seconds);

  private:
    std::array<double, 7> perCategory{};
    double total = 0.0;
};

/** Per-attention-kind time/FLOP accumulation (paper Fig. 11). */
struct AttentionKindStats
{
    struct Entry
    {
        double seconds = 0.0;
        double flops = 0.0;
        std::int64_t calls = 0;

        /** Accumulate one attention call (all its executions). */
        void
        add(double call_seconds, double call_flops, std::int64_t executions)
        {
            seconds += call_seconds;
            flops += call_flops;
            calls += executions;
        }
    };

    std::map<graph::AttentionKind, Entry> byKind;

    void add(graph::AttentionKind kind, double seconds, double flops,
             std::int64_t calls);

    Entry entryFor(graph::AttentionKind kind) const;
};

/**
 * Sequence length of every attention call in execution order
 * (paper Fig. 7) plus the weighted frequency distribution over the
 * whole inference (paper Fig. 8).
 */
class SequenceLengthTrace
{
  public:
    /**
     * Record one attention call.
     *
     * @param seq_len  query sequence length
     * @param weight   how many times the call executes (iteration
     *                 folding), applied to the histogram only
     */
    void record(std::int64_t seq_len, std::uint64_t weight = 1);

    /** Per-call series (one entry per distinct traced call). */
    const std::vector<std::int64_t>& series() const { return series_; }

    /** Weighted distribution over the course of inference. */
    const ValueHistogram& histogram() const { return hist; }

    /** Max / min sequence length of the series (0 when empty). */
    std::int64_t maxSeqLen() const;
    std::int64_t minSeqLen() const;

    /** Rebuild from serialized raw state (disk-cache serde only). */
    static SequenceLengthTrace fromRaw(std::vector<std::int64_t> series,
                                       ValueHistogram histogram);

  private:
    std::vector<std::int64_t> series_;
    ValueHistogram hist;
};

} // namespace mmgen::profiler

#endif // MMGEN_PROFILER_RECORD_HH
