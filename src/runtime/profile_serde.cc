#include "profile_serde.hh"

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace mmgen::runtime {

namespace {

// Enum ranges accepted on the way back in (count of enumerators).
constexpr std::uint8_t kNumBackends = 3;
constexpr std::uint8_t kNumAttnKinds = 4;
constexpr std::uint8_t kNumKernelClasses = 6;

class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(static_cast<char>(v));
    }

    void
    u64(std::uint64_t v)
    {
        char raw[sizeof v];
        std::memcpy(raw, &v, sizeof v);
        buf.append(raw, sizeof v);
    }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void
    str(const std::string& s)
    {
        u64(s.size());
        buf.append(s);
    }

    void
    breakdown(const profiler::BreakdownReport& b)
    {
        for (const double sec : b.rawCategories())
            f64(sec);
        f64(b.totalSeconds());
    }

    std::string take() { return std::move(buf); }

  private:
    std::string buf;
};

class Reader
{
  public:
    explicit Reader(std::string_view bytes)
        : data(bytes)
    {}

    bool
    u8(std::uint8_t& v)
    {
        if (pos + 1 > data.size())
            return false;
        v = static_cast<std::uint8_t>(data[pos++]);
        return true;
    }

    bool
    u64(std::uint64_t& v)
    {
        if (pos + sizeof v > data.size())
            return false;
        std::memcpy(&v, data.data() + pos, sizeof v);
        pos += sizeof v;
        return true;
    }

    bool
    i64(std::int64_t& v)
    {
        std::uint64_t raw = 0;
        if (!u64(raw))
            return false;
        v = static_cast<std::int64_t>(raw);
        return true;
    }

    bool
    f64(double& v)
    {
        std::uint64_t raw = 0;
        if (!u64(raw))
            return false;
        v = std::bit_cast<double>(raw);
        return true;
    }

    bool
    str(std::string& s)
    {
        std::uint64_t len = 0;
        if (!u64(len) || len > data.size() - pos)
            return false;
        s.assign(data.data() + pos, static_cast<std::size_t>(len));
        pos += static_cast<std::size_t>(len);
        return true;
    }

    bool
    breakdown(profiler::BreakdownReport& b)
    {
        std::array<double, 7> per{};
        double total = 0.0;
        for (double& sec : per) {
            if (!f64(sec))
                return false;
        }
        if (!f64(total))
            return false;
        b = profiler::BreakdownReport::fromRaw(per, total);
        return true;
    }

    /**
     * A length prefix about to drive a loop must be plausible: each
     * element occupies at least `min_elem_bytes` of remaining input.
     * Rejecting absurd counts keeps corrupt files from turning into
     * multi-gigabyte allocations before the mismatch is noticed.
     */
    bool
    count(std::uint64_t& n, std::size_t min_elem_bytes)
    {
        if (!u64(n))
            return false;
        return n <= (data.size() - pos) / min_elem_bytes;
    }

    bool exhausted() const { return pos == data.size(); }

  private:
    std::string_view data;
    std::size_t pos = 0;
};

} // namespace

std::string
serializeProfileResult(const profiler::ProfileResult& r)
{
    Writer w;
    w.str(r.model);
    w.u8(static_cast<std::uint8_t>(r.backend));
    w.f64(r.totalSeconds);
    w.f64(r.totalFlops);
    w.f64(r.totalHbmBytes);
    w.i64(r.totalLaunches);
    w.f64(r.launchOverheadSeconds);
    w.f64(r.weightBytesRead);
    w.i64(r.params);
    w.breakdown(r.breakdown);

    w.u64(r.attention.byKind.size());
    for (const auto& [kind, e] : r.attention.byKind) {
        w.u8(static_cast<std::uint8_t>(kind));
        w.f64(e.seconds);
        w.f64(e.flops);
        w.i64(e.calls);
    }

    const std::vector<std::int64_t>& series = r.seqLens.series();
    w.u64(series.size());
    for (const std::int64_t s : series)
        w.i64(s);
    const auto buckets = r.seqLens.histogram().buckets();
    w.u64(buckets.size());
    for (const auto& [value, weight] : buckets) {
        w.f64(value);
        w.u64(weight);
    }

    w.u64(r.kernelClassSeconds.size());
    for (const auto& [klass, sec] : r.kernelClassSeconds) {
        w.u8(static_cast<std::uint8_t>(klass));
        w.f64(sec);
    }

    w.u64(r.stageBreakdowns.size());
    for (const auto& [name, b] : r.stageBreakdowns) {
        w.str(name);
        w.breakdown(b);
    }
    return w.take();
}

bool
deserializeProfileResult(std::string_view bytes,
                         profiler::ProfileResult& out)
{
    Reader rd(bytes);
    profiler::ProfileResult r;

    std::uint8_t backend = 0;
    if (!rd.str(r.model) || !rd.u8(backend) ||
        backend >= kNumBackends)
        return false;
    r.backend = static_cast<graph::AttentionBackend>(backend);
    if (!rd.f64(r.totalSeconds) || !rd.f64(r.totalFlops) ||
        !rd.f64(r.totalHbmBytes) || !rd.i64(r.totalLaunches) ||
        !rd.f64(r.launchOverheadSeconds) ||
        !rd.f64(r.weightBytesRead) || !rd.i64(r.params) ||
        !rd.breakdown(r.breakdown))
        return false;

    std::uint64_t n = 0;
    if (!rd.count(n, 1 + 8 + 8 + 8))
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint8_t kind = 0;
        profiler::AttentionKindStats::Entry e;
        if (!rd.u8(kind) || kind >= kNumAttnKinds ||
            !rd.f64(e.seconds) || !rd.f64(e.flops) ||
            !rd.i64(e.calls))
            return false;
        r.attention.byKind[static_cast<graph::AttentionKind>(kind)] =
            e;
    }

    if (!rd.count(n, 8))
        return false;
    std::vector<std::int64_t> series(static_cast<std::size_t>(n));
    for (std::int64_t& s : series) {
        if (!rd.i64(s))
            return false;
    }
    if (!rd.count(n, 8 + 8))
        return false;
    ValueHistogram hist;
    for (std::uint64_t i = 0; i < n; ++i) {
        double value = 0.0;
        std::uint64_t weight = 0;
        if (!rd.f64(value) || !rd.u64(weight))
            return false;
        hist.add(value, weight);
    }
    r.seqLens = profiler::SequenceLengthTrace::fromRaw(
        std::move(series), std::move(hist));

    if (!rd.count(n, 1 + 8))
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint8_t klass = 0;
        double sec = 0.0;
        if (!rd.u8(klass) || klass >= kNumKernelClasses ||
            !rd.f64(sec))
            return false;
        r.kernelClassSeconds[static_cast<kernels::KernelClass>(
            klass)] = sec;
    }

    if (!rd.count(n, 8 + 8 * 8))
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string name;
        profiler::BreakdownReport b;
        if (!rd.str(name) || !rd.breakdown(b))
            return false;
        r.stageBreakdowns.emplace_back(std::move(name), std::move(b));
    }

    if (!rd.exhausted())
        return false;
    out = std::move(r);
    return true;
}

} // namespace mmgen::runtime
