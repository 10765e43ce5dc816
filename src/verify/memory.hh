/**
 * @file
 * Memory-liveness verification over lowered ExecutionPlans.
 *
 * Three rules live here. S013 is structural: the plan's dataflow must
 * be well-formed (op node ranges tile the node list, the executed
 * sequence names stored ops and runs the plan's kernel count, staged
 * weights are consumed) before any liveness sweep of it means
 * anything. Dependency edges need no check: exec::KernelDeps derives
 * them, so they always point backward and chain each lane. P011
 * checks conservation: the byte demand the liveness model attributes
 * to an op can never exceed the HBM traffic the cost model charged
 * for it, and the swept bounds must order as
 * weights <= programPeak <= scheduledPeak <= noReuse. P010 checks
 * capacity: the scheduled peak must fit the VRAM of the simulated
 * GPU.
 *
 * P010 severity is caller-chosen: the profiler demotes it to Warn
 * (paper-scale models are legitimately profiled on GPUs they do not
 * fit — Parti's 20B parameters exceed a V100's 32 GB — and the
 * simulator still produces valid latency numbers), while lint, the
 * benches and the CLI keep it an Error.
 */

#ifndef MMGEN_VERIFY_MEMORY_HH
#define MMGEN_VERIFY_MEMORY_HH

#include "exec/memory.hh"
#include "exec/plan.hh"
#include "exec/schedule.hh"
#include "hw/gpu_spec.hh"
#include "verify/diagnostic.hh"
#include "verify/physics.hh"
#include "verify/rules.hh"

namespace mmgen::verify {

/**
 * S013: plan dataflow integrity. Stored op node ranges tile
 * [0, nodes.size()) contiguously, the executed sequence names stored
 * ops and its kernels sum to executedNodeCount(), and every
 * weight-stream kernel sits on the Copy lane ahead of its op's first
 * compute kernel, which exec::KernelDeps makes wait for it.
 */
void checkPlanDataflow(const exec::ExecutionPlan& plan,
                       const PhysicsContext& ctx,
                       DiagnosticReport& report);

/**
 * P011 + P010 over a swept profile. P011: per-op liveness demand
 * (input + output + weight-read bytes) must not exceed the cost
 * model's HBM traffic for the op, every byte quantity must be finite
 * and non-negative, and the peak bounds must order correctly. P010:
 * the scheduled peak fits `gpu.hbmBytes`, reported at
 * `capacitySeverity`.
 */
void checkMemoryProfile(const exec::ExecutionPlan& plan,
                        const exec::MemoryProfile& profile,
                        const hw::GpuSpec& gpu,
                        const PhysicsContext& ctx,
                        DiagnosticReport& report,
                        Severity capacitySeverity = Severity::Error);

/**
 * Full memory pass: S013 first, then — only when the dataflow is
 * clean enough to sweep — analyzeMemory plus P011/P010. A plan that
 * fails S013 returns with only the structural findings rather than
 * tripping assertions inside the liveness derivation.
 */
DiagnosticReport verifyMemory(const exec::ExecutionPlan& plan,
                              const exec::Timeline& timeline,
                              const hw::GpuSpec& gpu,
                              const PhysicsContext& ctx,
                              Severity capacitySeverity =
                                  Severity::Error);

} // namespace mmgen::verify

#endif // MMGEN_VERIFY_MEMORY_HH
