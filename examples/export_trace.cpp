/**
 * @file
 * Export a simulated inference timeline as a Chrome/Perfetto trace.
 *
 * Lowers Stable Diffusion to its kernel plan, schedules it and writes
 * sd_trace.json, viewable at chrome://tracing or ui.perfetto.dev —
 * the same workflow the paper uses with PyTorch Profiler on real
 * hardware (Section III, "Tools").
 */

#include <fstream>
#include <iostream>

#include "exec/schedule.hh"
#include "models/stable_diffusion.hh"
#include "profiler/engine.hh"
#include "telemetry/export.hh"
#include "util/format.hh"

int
main(int argc, char** argv)
{
    using namespace mmgen;

    const std::string path = argc > 1 ? argv[1] : "sd_trace.json";

    profiler::ProfileOptions opts;
    opts.backend = graph::AttentionBackend::Flash;
    const exec::ExecutionPlan plan =
        profiler::Profiler(opts).lower(models::buildStableDiffusion());
    const exec::Timeline timeline =
        exec::TimelineScheduler(opts.gpu, opts.schedule).schedule(plan);

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }
    telemetry::writeChromeTrace(out, telemetry::TraceSink(), plan, timeline);
    std::cout << "Wrote " << plan.ops.size()
              << " operator records covering "
              << formatTime(timeline.makespan)
              << " of simulated inference to " << path << "\n";
    std::cout << "Open chrome://tracing or https://ui.perfetto.dev and "
                 "load the file.\n";
    return 0;
}
