/**
 * @file
 * Reproduces paper Fig. 8: frequency distribution of sequence lengths
 * over the course of Stable Diffusion inference, swept over output
 * image sizes 64..512.
 *
 * Expected: lengths fall in distinct buckets (powers of four apart);
 * the distribution shifts right as image size grows; at 512x512 the
 * bucket weights are roughly equal (the symmetric U of Fig. 7).
 */

#include <iostream>
#include <map>
#include <memory>

#include "core/suite.hh"
#include "models/stable_diffusion.hh"
#include "util/format.hh"
#include "util/table.hh"

int
main()
{
    using namespace mmgen;

    std::cout << "=== Fig. 8: sequence length distribution vs image "
                 "size (Stable Diffusion) ===\n\n";

    const std::vector<std::int64_t> image_sizes = {64, 128, 256, 512};

    const profiler::Profiler prof;
    const exec::TimelineScheduler scheduler(prof.options().gpu,
                                            prof.options().schedule);

    for (std::int64_t size : image_sizes) {
        models::StableDiffusionConfig cfg;
        cfg.imageSize = size;
        const graph::Pipeline pipeline = models::buildStableDiffusion(cfg);
        const auto plan = std::make_shared<const exec::ExecutionPlan>(
            prof.lower(pipeline));
        const profiler::ProfileResult res =
            prof.profileWithPlan(pipeline, plan);
        const exec::Timeline timeline = scheduler.scheduleTotals(*plan);

        // Attention time per bucket: the "tailor hardware towards
        // sequence lengths of interest" angle the paper raises.
        std::map<std::int64_t, double> seconds_by_len;
        double attn_seconds = 0.0;
        for (const exec::ExecutedOp e : plan->executed()) {
            if (e.op.kind != graph::OpKind::Attention ||
                e.op.attnKind == graph::AttentionKind::CrossText) {
                continue;
            }
            seconds_by_len[e.op.seqKv] += timeline.opSeconds[e.opIndex];
            attn_seconds += timeline.opSeconds[e.opIndex];
        }

        std::cout << "image " << size << "x" << size << " (latent "
                  << cfg.latentSize() << "):\n";
        for (const auto& [len, count] :
             res.seqLens.histogram().buckets()) {
            const double time_share =
                attn_seconds > 0.0
                    ? seconds_by_len[static_cast<std::int64_t>(len)] /
                          attn_seconds
                    : 0.0;
            std::cout << "  seq " << padLeft(formatFixed(len, 0), 6)
                      << " : "
                      << formatPercent(
                             res.seqLens.histogram().fraction(len))
                      << " of calls (" << count << "), "
                      << formatPercent(time_share)
                      << " of self-attention time\n";
        }
        std::cout << "\n";
    }
    std::cout << "(distribution shifts right with image size; buckets "
                 "stay discrete, and the\n largest bucket dominates "
                 "attention time — a target for bucket-tailored "
                 "hardware)\n";
    return 0;
}
