#include "trace.hh"

#include "util/logging.hh"

namespace mmgen::graph {

void
Trace::append(Op op)
{
    put([&op](const Op& slot) { return slot == op; },
        [&op](Op& slot) { slot = std::move(op); });
}

bool
Trace::changed(std::size_t i) const
{
    MMGEN_CHECK(i < count, "op " << i << " out of a " << count
                                 << "-op trace");
    return changedFlags[i];
}

std::int64_t
Trace::totalParams() const
{
    std::int64_t total = 0;
    for (const auto& op : ops())
        total += opParamCount(op);
    return total;
}

void
Trace::clear()
{
    previous = count;
    count = 0;
}

} // namespace mmgen::graph
