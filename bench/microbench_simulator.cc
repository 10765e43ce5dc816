/**
 * @file
 * Raw-speed microbenchmarks of the simulator core, with a regression
 * gate. These guard the usability of the harness: the figure benches
 * re-profile models thousands of times, so scheduler and cache-sim
 * throughput bound every sweep's wall-clock.
 *
 * Three rates, each measured by repeatedly replaying a fixed workload
 * and dividing work units by wall time. Each rate is the best of
 * `kWindows` windows of at least `kMinSeconds`: a neighbour on a
 * shared box only ever slows a window down, so the best window drops
 * the bursts within a run. Slow spells that outlast a run remain, so
 * compare two builds over alternating runs.
 *
 *  - `events_per_sec_serial`: timeline events scheduled per second
 *    playing the Stable Diffusion plan through the default (serial)
 *    TimelineScheduler, plan lowered once and reused — the
 *    incremental re-lowering hot path.
 *  - `events_per_sec_overlap`: the same plan under launch queue
 *    depth 8 (the overlap scheduling path).
 *  - `cache_accesses_per_sec`: element touches per second replaying
 *    a batched GEMM address trace through the set-associative
 *    hierarchy (touches include the ones the sector emitter dedups).
 *
 * Plus one cold lowering of Parti, whose decode stage traces once per
 * token (~1.4M executed kernels) but stores only the ops that change
 * from token to token (~83k kernels):
 *
 *  - `lower_nodes_per_sec`: executed kernels lowered per second, the
 *    work the lowering covers.
 *  - `lower_faults_per_node`: minor page faults (`getrusage`
 *    `ru_minflt`) taken during the lowering, per stored plan node.
 *    Copying the plan on every token made this ~15 per executed
 *    kernel; linear lowering of every token took ~0.14. Unlike a
 *    rate, it does not depend on CPU speed.
 *  - `lower_allocs_per_executed_op`: heap allocations (calls of the
 *    global `operator new`, replaced in this binary only to count
 *    them) made during the lowering, per executed op. Tracing every
 *    token into a fresh trace took ~3.2: a scope string, two shape
 *    vectors per tensor and the regrowing op array. Re-emitting each
 *    token into the previous token's op slots, with dims stored
 *    inline, takes ~0.07. Like the fault count, it does not depend
 *    on CPU speed.
 *  - `lower_bytes_per_executed_kernel`: heap bytes those calls
 *    requested, per executed kernel. Storing a dependency window and
 *    pool entries per executed kernel read ~96.7; deriving the edges
 *    from lane order (exec::KernelDeps) read ~60.7; plan nodes that
 *    no longer copy their op's fields (48 bytes instead of 80) and a
 *    two-column cost table read ~53.2.
 *  - `lower_stored_nodes` and `lower_executed_nodes`: both counts.
 *
 * Plus one fresh schedule of that Parti plan, serial and overlapped
 * (two streams, launch queue depth 8):
 *
 *  - `schedule_bytes_per_executed_kernel`: heap bytes the
 *    `TimelineScheduler::schedule` call requests (the same counting
 *    `operator new` sums the sizes), per executed kernel, the larger
 *    of the two schedules. Storing the stream, the kernel seconds and
 *    the op seconds per executed kernel read 36; storing only the
 *    start and end per executed kernel, and the seconds per stored
 *    record, reads ~17.
 *
 * Plus one profile (`Profiler::profileWithPlan`, runtime checks off)
 * of that Parti plan:
 *
 *  - `profile_bytes_per_executed_kernel`: heap bytes the call requests
 *    per executed kernel, its result's own vectors included. Building
 *    the 16-byte-per-kernel start and end columns only to read the
 *    makespan and per-stored seconds read ~18.5; scheduling totals
 *    only reads ~4.4, mostly arrays per stored record (the seconds
 *    and the aggregation's per-op totals) and the sequence-length
 *    series.
 *
 * Plus one memory sweep (`exec::analyzeMemory`) of that Parti plan on
 * its serial timeline:
 *
 *  - `memory_sweep_bytes_per_executed_kernel`: heap bytes requested
 *    (the same counting `operator new` sums the sizes) during the
 *    sweep, per executed kernel. Materializing every buffer, its
 *    endpoint lists and per-kernel sums took ~110; streaming each
 *    op's buffers through two pending heaps took 8, the one release
 *    bound per kernel the sweep kept; keeping that bound per block of
 *    4,096 kernels takes ~0.03.
 *
 * Emits `BENCH_simulator.json` (path overridable via the last
 * argument) with the measured rates, the recorded pre-optimization
 * baselines, and speedups. `--gate` exits nonzero when the serial
 * event rate falls below `kGateEventsPerSec`, the lowering takes
 * more than `kGateLowerFaultsPerNode` faults per node, it makes
 * more than `kGateLowerAllocsPerOp` heap allocations per executed op
 * or requests more than `kGateLowerBytesPerKernel` heap bytes per
 * executed kernel, a fresh schedule requests more than
 * `kGateScheduleBytesPerKernel` heap bytes per executed kernel, a
 * profile requests more than `kGateProfileBytesPerKernel`, or the
 * memory sweep requests more than `kGateSweepBytesPerKernel` heap
 * bytes per executed kernel — the CI
 * Release-mode regression gate. The baselines were measured on this
 * repo at the commit before the arena-IR / SoA-scheduler rework
 * (Release, one core), so speedups are apples-to-apples on comparable
 * hardware and indicative elsewhere.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <new>
#include <string>

#include "cache/hierarchy.hh"
#include "cache/trace_gen.hh"
#include "exec/memory.hh"
#include "exec/plan.hh"
#include "exec/schedule.hh"
#include "models/model_suite.hh"
#include "profiler/engine.hh"
#include "util/format.hh"
#include "util/table.hh"
#include "verify/verify.hh"

namespace {

/** Calls of the global `operator new` (unaligned forms) so far. */
std::atomic<std::uint64_t> heapAllocations{0};
/** Bytes those calls requested. */
std::atomic<std::uint64_t> heapBytes{0};

} // namespace

// Counting replacements of the global allocation functions. Every
// unaligned form is replaced, so a block is always released by the
// family that made it (a sanitizer's runtime would report a block
// made here and freed by its own operator delete); the aligned forms
// keep their defaults, which pair among themselves.
void*
operator new(std::size_t size)
{
    heapAllocations.fetch_add(1, std::memory_order_relaxed);
    heapBytes.fetch_add(size, std::memory_order_relaxed);
    if (void* p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    heapAllocations.fetch_add(1, std::memory_order_relaxed);
    heapBytes.fetch_add(size, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}

void*
operator new[](std::size_t size, const std::nothrow_t& tag) noexcept
{
    return ::operator new(size, tag);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

namespace {

using namespace mmgen;

/** Pre-rework Release-mode rates (events and touches per second). */
constexpr double kBaselineEventsPerSecSerial = 1.803e7;
constexpr double kBaselineEventsPerSecOverlap = 2.980e7;
constexpr double kBaselineCacheAccessesPerSec = 9.25e7;

/**
 * Gate floor for the serial event rate: 5x the recorded baseline,
 * half the locally measured gain, so shared CI runners with noisy
 * neighbours don't flake while a real regression (losing the arena /
 * SoA / cost-table wins) still trips it.
 */
constexpr double kGateEventsPerSec = 9.0e7;

/**
 * Gate ceiling for minor faults per stored plan node while lowering
 * Parti: far below the ~15 per executed kernel of a quadratic
 * per-token copy. Stored nodes are ~17x fewer than executed kernels,
 * so this is the stricter reading of the same bound.
 */
constexpr double kGateLowerFaultsPerNode = 1.0;

/**
 * Gate ceiling for heap allocations per executed op while lowering
 * Parti: between the ~3.2 of a fresh trace per token (which a
 * regression to per-op heap blocks brings back) and the ~0.07 of
 * re-emitting into reused op slots.
 */
constexpr double kGateLowerAllocsPerOp = 0.25;

/**
 * Gate ceiling for heap bytes per executed kernel while lowering
 * Parti: below the ~60.7 of plan nodes that copy their op's index,
 * repeat and dtype and a cost table with a third, derivable column,
 * above the ~53.2 of storing each of those facts once. (Storing every
 * executed kernel's dependency edges read ~96.7.)
 */
constexpr double kGateLowerBytesPerKernel = 58.0;

/**
 * Gate ceiling for heap bytes per executed kernel one memory sweep of
 * Parti requests: below the 8 of keeping its release bound per
 * executed kernel (and the ~110 of materializing every buffer), above
 * the ~0.03 of keeping it per block.
 */
constexpr double kGateSweepBytesPerKernel = 1.0;

/**
 * Gate ceiling for heap bytes per executed kernel one profile of Parti
 * requests: between the ~18.5 of scheduling the start and end of every
 * executed kernel and the ~4.4 of scheduling totals only.
 */
constexpr double kGateProfileBytesPerKernel = 8.0;

/**
 * Gate ceiling for heap bytes per executed kernel one fresh schedule
 * of Parti requests: between the 36 of storing per executed kernel
 * what its stored record determines and the ~17 of storing only its
 * start and end.
 */
constexpr double kGateScheduleBytesPerKernel = 24.0;

/** Minimum timed window per metric; repeats are calibrated up to it. */
constexpr double kMinSeconds = 0.3;

/** Calibrated windows per rate; the best one is reported. */
constexpr int kWindows = 5;

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Measure `work_per_iter * iters / elapsed`, doubling `iters` until
 * the timed window is long enough to trust, and return the best rate
 * of `kWindows` such windows.
 */
template <typename F>
double
measureRate(double work_per_iter, F&& iter)
{
    std::int64_t iters = 1;
    double best = 0.0;
    for (int windows = 0; windows < kWindows;) {
        const double start = nowSeconds();
        for (std::int64_t i = 0; i < iters; ++i)
            iter();
        const double elapsed = nowSeconds() - start;
        if (elapsed < kMinSeconds) {
            iters *= 2;
            continue;
        }
        best = std::max(best, work_per_iter *
                                  static_cast<double>(iters) / elapsed);
        ++windows;
    }
    return best;
}

double
benchEventsPerSec(const exec::ExecutionPlan& plan,
                  const exec::ScheduleOptions& opts)
{
    const exec::TimelineScheduler scheduler(hw::GpuSpec::a100_80gb(),
                                            opts);
    exec::Timeline tl;
    volatile double sink = 0.0;
    return measureRate(
        static_cast<double>(plan.executedNodeCount()), [&] {
            scheduler.scheduleInto(plan, tl);
            sink = sink + tl.makespan;
        });
}

/**
 * One cold lowering: the plan, its wall time, minor faults, heap
 * allocations and the bytes they requested.
 */
struct LoweringRun
{
    exec::ExecutionPlan plan;
    double seconds = 0.0;
    long minorFaults = 0;
    std::uint64_t allocations = 0;
    std::uint64_t bytes = 0;
};

long
minorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_minflt;
}

LoweringRun
benchLowering(const graph::Pipeline& pipeline)
{
    const profiler::Profiler profiler;
    LoweringRun run;
    const long faults = minorFaults();
    const std::uint64_t allocations = heapAllocations.load();
    const std::uint64_t bytes = heapBytes.load();
    const double start = nowSeconds();
    run.plan = profiler.lower(pipeline);
    run.seconds = nowSeconds() - start;
    run.allocations = heapAllocations.load() - allocations;
    run.bytes = heapBytes.load() - bytes;
    run.minorFaults = minorFaults() - faults;
    return run;
}

/**
 * Heap bytes one fresh schedule of `plan` requests per executed
 * kernel: the larger of the serial schedule and the overlapped one.
 */
double
benchScheduleBytesPerKernel(const exec::ExecutionPlan& plan)
{
    exec::ScheduleOptions overlap;
    overlap.streams = 2;
    overlap.launchQueueDepth = 8;
    std::uint64_t most = 0;
    for (const exec::ScheduleOptions& opts :
         {exec::ScheduleOptions(), overlap}) {
        const exec::TimelineScheduler scheduler(hw::GpuSpec::a100_80gb(),
                                                opts);
        const std::uint64_t before = heapBytes.load();
        const exec::Timeline timeline = scheduler.schedule(plan);
        most = std::max(most, heapBytes.load() - before);
    }
    return static_cast<double>(most) /
           static_cast<double>(plan.executedNodeCount());
}

/**
 * Heap bytes one profile of `plan`, lowered from `pipeline`, requests
 * per executed kernel, with runtime checks off (they schedule every
 * event) and the plan not kept.
 */
double
benchProfileBytesPerKernel(const graph::Pipeline& pipeline,
                           const exec::ExecutionPlan& plan)
{
    const bool checks = verify::setRuntimeChecks(false);
    // A non-owning pointer (aliasing an empty owner), so the profile
    // neither copies the plan nor allocates a control block.
    const std::shared_ptr<const exec::ExecutionPlan> view(
        std::shared_ptr<const exec::ExecutionPlan>(), &plan);
    const std::uint64_t before = heapBytes.load();
    // The returned profile's own vectors count too.
    profiler::Profiler().profileWithPlan(pipeline, view);
    const std::uint64_t requested = heapBytes.load() - before;
    verify::setRuntimeChecks(checks);
    return static_cast<double>(requested) /
           static_cast<double>(plan.executedNodeCount());
}

/** Heap bytes one memory sweep of `plan` requests, per executed kernel. */
double
benchSweepBytesPerKernel(const exec::ExecutionPlan& plan)
{
    const exec::Timeline timeline =
        exec::TimelineScheduler(hw::GpuSpec::a100_80gb()).schedule(plan);
    const std::uint64_t before = heapBytes.load();
    // The returned profile's own vectors count too.
    exec::analyzeMemory(plan, timeline);
    const std::uint64_t requested = heapBytes.load() - before;
    return static_cast<double>(requested) /
           static_cast<double>(plan.executedNodeCount());
}

double
benchCacheAccessesPerSec()
{
    // The exact workload the baseline was recorded on: a batch-8
    // 256x256x64 F16 GEMM trace. One iteration touches every element
    // of each A/B/C row the tiled replay walks — (m/tileM) M-tile
    // passes over A's k columns, B's full k-major panel, and C's n
    // columns — including touches the sector emitter dedups before
    // they reach the cache.
    cache::GpuCacheModel model(hw::GpuSpec::a100_80gb());
    cache::GemmTraceParams gp;
    gp.m = 256;
    gp.n = 256;
    gp.k = 64;
    gp.a = cache::MatrixLayout::contiguous(0, 8, gp.m, gp.k, 2);
    gp.b =
        cache::MatrixLayout::contiguous(1 << 24, 8, gp.n, gp.k, 2);
    gp.c =
        cache::MatrixLayout::contiguous(1 << 26, 8, gp.m, gp.n, 2);
    const double m_tiles = static_cast<double>(gp.m) /
                           static_cast<double>(gp.tileM);
    const double touches =
        8.0 * m_tiles *
        static_cast<double>(gp.tileM * gp.k + gp.n * gp.k +
                            gp.tileM * gp.n);
    return measureRate(touches,
                       [&] { cache::runGemmTrace(model, gp); });
}

} // namespace

int
main(int argc, char** argv)
{
    bool gate = false;
    std::string out_path = "BENCH_simulator.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--gate") == 0)
            gate = true;
        else
            out_path = argv[i];
    }

    std::cout << "=== Simulator raw-speed microbench ===\n\n";

    const graph::Pipeline pipeline =
        models::buildModel(models::ModelId::StableDiffusion);
    const profiler::Profiler profiler;
    const exec::ExecutionPlan plan = profiler.lower(pipeline);
    std::cout << "workload: Stable Diffusion plan, "
              << plan.executedNodeCount() << " nodes / "
              << plan.executedOpCount()
              << " ops, lowered once and re-scheduled\n\n";

    const double serial =
        benchEventsPerSec(plan, exec::ScheduleOptions());
    // Same configuration the overlap baseline was recorded under:
    // launch queue depth 8 on the default single stream.
    exec::ScheduleOptions overlap_opts;
    overlap_opts.launchQueueDepth = 8;
    const double overlap = benchEventsPerSec(plan, overlap_opts);
    const double cache_rate = benchCacheAccessesPerSec();
    const graph::Pipeline parti =
        models::buildModel(models::ModelId::Parti);
    const LoweringRun lowering = benchLowering(parti);
    const std::size_t stored_nodes = lowering.plan.nodes.size();
    const std::size_t executed_nodes = lowering.plan.executedNodeCount();
    const std::size_t executed_ops = lowering.plan.executedOpCount();
    const double lower_rate =
        static_cast<double>(executed_nodes) / lowering.seconds;
    const double faults_per_node =
        static_cast<double>(lowering.minorFaults) /
        static_cast<double>(stored_nodes);
    const double allocs_per_op =
        static_cast<double>(lowering.allocations) /
        static_cast<double>(executed_ops);
    const double lower_bytes_per_kernel =
        static_cast<double>(lowering.bytes) /
        static_cast<double>(executed_nodes);
    const double schedule_bytes_per_kernel =
        benchScheduleBytesPerKernel(lowering.plan);
    const double profile_bytes_per_kernel =
        benchProfileBytesPerKernel(parti, lowering.plan);
    const double sweep_bytes_per_kernel =
        benchSweepBytesPerKernel(lowering.plan);

    TextTable table(
        {"Metric", "Rate", "Baseline", "Speedup"});
    auto row = [&](const char* name, double rate, double base) {
        table.addRow({name, formatCount(rate) + "/s", formatCount(base) +
                                                       "/s",
                      formatFixed(rate / base, 2) + "x"});
    };
    row("events/sec (serial)", serial, kBaselineEventsPerSecSerial);
    row("events/sec (overlap q=8)", overlap,
        kBaselineEventsPerSecOverlap);
    row("cache accesses/sec", cache_rate,
        kBaselineCacheAccessesPerSec);
    std::cout << table.render() << "\n";
    std::cout << "Parti lowering: " << executed_nodes
              << " executed nodes (" << stored_nodes
              << " stored) in " << formatFixed(lowering.seconds, 3)
              << " s (" << formatCount(lower_rate) << " nodes/s), "
              << formatFixed(faults_per_node, 3)
              << " minor faults/stored node\n";
    std::cout << "lower_allocs_per_executed_op: "
              << formatFixed(allocs_per_op, 4) << " ("
              << lowering.allocations << " allocations for "
              << executed_ops << " executed ops)\n";
    std::cout << "lower_bytes_per_executed_kernel: "
              << formatFixed(lower_bytes_per_kernel, 2) << " ("
              << lowering.bytes << " bytes for " << executed_nodes
              << " executed kernels)\n";
    std::cout << "lower_stored_nodes: " << stored_nodes << "\n";
    std::cout << "lower_executed_nodes: " << executed_nodes << "\n";
    std::cout << "schedule_bytes_per_executed_kernel: "
              << formatFixed(schedule_bytes_per_kernel, 2) << "\n";
    std::cout << "profile_bytes_per_executed_kernel: "
              << formatFixed(profile_bytes_per_kernel, 2) << "\n";
    std::cout << "memory_sweep_bytes_per_executed_kernel: "
              << formatFixed(sweep_bytes_per_kernel, 2) << "\n\n";

    const bool events_ok = serial >= kGateEventsPerSec;
    const bool faults_ok = faults_per_node <= kGateLowerFaultsPerNode;
    const bool allocs_ok = allocs_per_op <= kGateLowerAllocsPerOp;
    const bool lower_bytes_ok =
        lower_bytes_per_kernel <= kGateLowerBytesPerKernel;
    const bool schedule_ok =
        schedule_bytes_per_kernel <= kGateScheduleBytesPerKernel;
    const bool profile_ok =
        profile_bytes_per_kernel <= kGateProfileBytesPerKernel;
    const bool sweep_ok =
        sweep_bytes_per_kernel <= kGateSweepBytesPerKernel;
    const bool gate_ok = events_ok && faults_ok && allocs_ok &&
                         lower_bytes_ok && schedule_ok && profile_ok &&
                         sweep_ok;
    std::ofstream out(out_path);
    if (out) {
        out << "{\n  \"bench\": \"microbench_simulator\",\n";
        out << "  \"workload\": \"stable_diffusion\",\n";
        out << "  \"plan_nodes\": " << plan.executedNodeCount() << ",\n";
        out << "  \"events_per_sec_serial\": "
            << formatFixed(serial, 0) << ",\n";
        out << "  \"events_per_sec_overlap\": "
            << formatFixed(overlap, 0) << ",\n";
        out << "  \"cache_accesses_per_sec\": "
            << formatFixed(cache_rate, 0) << ",\n";
        out << "  \"lower_stored_nodes\": " << stored_nodes << ",\n";
        out << "  \"lower_executed_nodes\": " << executed_nodes
            << ",\n";
        out << "  \"lower_nodes_per_sec\": "
            << formatFixed(lower_rate, 0) << ",\n";
        out << "  \"lower_faults_per_node\": "
            << formatFixed(faults_per_node, 4) << ",\n";
        out << "  \"lower_allocs_per_executed_op\": "
            << formatFixed(allocs_per_op, 4) << ",\n";
        out << "  \"lower_bytes_per_executed_kernel\": "
            << formatFixed(lower_bytes_per_kernel, 4) << ",\n";
        out << "  \"schedule_bytes_per_executed_kernel\": "
            << formatFixed(schedule_bytes_per_kernel, 4) << ",\n";
        out << "  \"profile_bytes_per_executed_kernel\": "
            << formatFixed(profile_bytes_per_kernel, 4) << ",\n";
        out << "  \"memory_sweep_bytes_per_executed_kernel\": "
            << formatFixed(sweep_bytes_per_kernel, 4) << ",\n";
        out << "  \"baseline_events_per_sec_serial\": "
            << formatFixed(kBaselineEventsPerSecSerial, 0) << ",\n";
        out << "  \"baseline_events_per_sec_overlap\": "
            << formatFixed(kBaselineEventsPerSecOverlap, 0) << ",\n";
        out << "  \"baseline_cache_accesses_per_sec\": "
            << formatFixed(kBaselineCacheAccessesPerSec, 0) << ",\n";
        out << "  \"speedup_serial\": "
            << formatFixed(serial / kBaselineEventsPerSecSerial, 3)
            << ",\n";
        out << "  \"speedup_overlap\": "
            << formatFixed(overlap / kBaselineEventsPerSecOverlap, 3)
            << ",\n";
        out << "  \"speedup_cache\": "
            << formatFixed(cache_rate / kBaselineCacheAccessesPerSec,
                           3)
            << ",\n";
        out << "  \"gate_events_per_sec\": "
            << formatFixed(kGateEventsPerSec, 0) << ",\n";
        out << "  \"gate_checked\": " << (gate ? "true" : "false")
            << ",\n";
        out << "  \"gate_ok\": " << (gate_ok ? "true" : "false")
            << "\n}\n";
        std::cout << "wrote " << out_path << "\n";
    }

    if (gate && !events_ok)
        std::cerr << "FAIL: serial event rate "
                  << formatCount(serial) << "/s below the gate floor "
                  << formatCount(kGateEventsPerSec) << "/s\n";
    if (gate && !faults_ok)
        std::cerr << "FAIL: lowering Parti took "
                  << formatFixed(faults_per_node, 3)
                  << " minor faults per stored plan node, above the gate "
                  << "ceiling " << formatFixed(kGateLowerFaultsPerNode, 1)
                  << "\n";
    if (gate && !allocs_ok)
        std::cerr << "FAIL: lowering Parti made "
                  << formatFixed(allocs_per_op, 3)
                  << " heap allocations per executed op, above the "
                  << "gate ceiling "
                  << formatFixed(kGateLowerAllocsPerOp, 2) << "\n";
    if (gate && !lower_bytes_ok)
        std::cerr << "FAIL: lowering Parti requested "
                  << formatFixed(lower_bytes_per_kernel, 2)
                  << " heap bytes per executed kernel, above the gate "
                  << "ceiling "
                  << formatFixed(kGateLowerBytesPerKernel, 0) << "\n";
    if (gate && !schedule_ok)
        std::cerr << "FAIL: one schedule of Parti requested "
                  << formatFixed(schedule_bytes_per_kernel, 2)
                  << " heap bytes per executed kernel, above the gate "
                  << "ceiling "
                  << formatFixed(kGateScheduleBytesPerKernel, 0) << "\n";
    if (gate && !profile_ok)
        std::cerr << "FAIL: one profile of Parti requested "
                  << formatFixed(profile_bytes_per_kernel, 2)
                  << " heap bytes per executed kernel, above the gate "
                  << "ceiling "
                  << formatFixed(kGateProfileBytesPerKernel, 0) << "\n";
    if (gate && !sweep_ok)
        std::cerr << "FAIL: the memory sweep of Parti requested "
                  << formatFixed(sweep_bytes_per_kernel, 2)
                  << " heap bytes per executed kernel, above the gate "
                  << "ceiling "
                  << formatFixed(kGateSweepBytesPerKernel, 0) << "\n";
    return gate && !gate_ok ? 1 : 0;
}
