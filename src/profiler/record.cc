#include "record.hh"

#include <algorithm>

#include "util/logging.hh"

namespace mmgen::profiler {

void
BreakdownReport::add(graph::OpCategory category, double seconds)
{
    perCategory[static_cast<std::size_t>(category)] += seconds;
    total += seconds;
}

void
BreakdownReport::merge(const BreakdownReport& other)
{
    for (std::size_t i = 0; i < perCategory.size(); ++i)
        perCategory[i] += other.perCategory[i];
    total += other.total;
}

double
BreakdownReport::categorySeconds(graph::OpCategory c) const
{
    return perCategory[static_cast<std::size_t>(c)];
}

double
BreakdownReport::categoryFraction(graph::OpCategory c) const
{
    return total > 0.0 ? categorySeconds(c) / total : 0.0;
}

BreakdownReport
BreakdownReport::fromRaw(const std::array<double, 7>& per,
                         double total_seconds)
{
    BreakdownReport r;
    r.perCategory = per;
    r.total = total_seconds;
    return r;
}

void
AttentionKindStats::add(graph::AttentionKind kind, double seconds,
                        double flops, std::int64_t calls)
{
    byKind[kind].add(seconds, flops, calls);
}

AttentionKindStats::Entry
AttentionKindStats::entryFor(graph::AttentionKind kind) const
{
    auto it = byKind.find(kind);
    return it == byKind.end() ? Entry{} : it->second;
}

void
SequenceLengthTrace::record(std::int64_t seq_len, std::uint64_t weight)
{
    MMGEN_CHECK(seq_len > 0, "sequence length must be positive");
    series_.push_back(seq_len);
    hist.add(static_cast<double>(seq_len), weight);
}

std::int64_t
SequenceLengthTrace::maxSeqLen() const
{
    if (series_.empty())
        return 0;
    return *std::max_element(series_.begin(), series_.end());
}

std::int64_t
SequenceLengthTrace::minSeqLen() const
{
    if (series_.empty())
        return 0;
    return *std::min_element(series_.begin(), series_.end());
}

SequenceLengthTrace
SequenceLengthTrace::fromRaw(std::vector<std::int64_t> series,
                             ValueHistogram histogram)
{
    SequenceLengthTrace t;
    t.series_ = std::move(series);
    t.hist = std::move(histogram);
    return t;
}

} // namespace mmgen::profiler
