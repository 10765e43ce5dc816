#include "structural.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "util/logging.hh"

namespace mmgen::verify {

namespace {

/** Product of all dims, exact while it fits a double mantissa. */
double
dimProduct(std::initializer_list<std::int64_t> dims)
{
    double p = 1.0;
    for (std::int64_t d : dims)
        p *= static_cast<double>(d);
    return p;
}

/**
 * Live convolutional feature-map shape, threaded through the trace in
 * execution order. Attention/norm checks that depend on the spatial
 * grid only fire while this is valid, so pure transformer stages are
 * never mis-linted.
 */
struct FeatureState
{
    std::int64_t batch = 0;
    std::int64_t channels = 0;
    std::int64_t D = 1;
    std::int64_t H = 0;
    std::int64_t W = 0;
    bool valid = false;

    double
    numel() const
    {
        return dimProduct({batch, channels, D, H, W});
    }
};

/** Shared plumbing for emitting diagnostics against one trace. */
class TraceChecker
{
  public:
    TraceChecker(const TraceContext& ctx, DiagnosticReport& report)
        : ctx(ctx), report(report)
    {
    }

    void
    emit(Severity sev, const char* rule, const std::string& scope,
         std::string msg, std::string hint = "")
    {
        report.add(Diagnostic{sev, rule, ctx.model, ctx.stage, scope,
                              std::move(msg), std::move(hint)});
    }

    void
    error(const char* rule, const std::string& scope, std::string msg,
          std::string hint = "")
    {
        emit(Severity::Error, rule, scope, std::move(msg),
             std::move(hint));
    }

    void
    warn(const char* rule, const std::string& scope, std::string msg,
         std::string hint = "")
    {
        emit(Severity::Warn, rule, scope, std::move(msg),
             std::move(hint));
    }

    /** S001: every listed dimension must be strictly positive. */
    bool
    positive(const std::string& scope,
             std::initializer_list<std::pair<const char*, std::int64_t>>
                 dims)
    {
        bool ok = true;
        for (const auto& [name, value] : dims) {
            if (value <= 0) {
                std::ostringstream oss;
                oss << name << " = " << value << " must be positive";
                error(rules::NonPositiveDim, scope, oss.str());
                ok = false;
            }
        }
        return ok;
    }

    /** S002: shape products must stay within exact 64-bit range. */
    void
    overflowGuard(const std::string& scope, const char* label,
                  std::initializer_list<std::int64_t> dims)
    {
        const double p = dimProduct(dims);
        // 2^62: any further multiply overflows int64 arithmetic.
        if (p > 4.6e18) {
            std::ostringstream oss;
            oss << label << " product " << p
                << " overflows 64-bit arithmetic";
            error(rules::OverflowRisk, scope, oss.str(),
                  "shrink the offending dimensions");
        } else if (p > 9.0e15) {
            // 2^53: double arithmetic stops being exact.
            std::ostringstream oss;
            oss << label << " product " << p
                << " exceeds exact double-precision range";
            warn(rules::OverflowRisk, scope, oss.str());
        }
    }

    /** S003-family divisibility requirement. */
    void
    divides(const std::string& scope, const char* what,
            std::int64_t value, const char* byWhat, std::int64_t by,
            std::string hint = "")
    {
        if (by > 0 && value > 0 && value % by != 0) {
            std::ostringstream oss;
            oss << what << " = " << value << " not divisible by "
                << byWhat << " = " << by;
            error(rules::ConvStrideDivisibility, scope, oss.str(),
                  std::move(hint));
        }
    }

    const TraceContext& ctx;
    DiagnosticReport& report;
};

/** Whether a concat/skip-reuse explains a conv's input channels. */
bool
channelsExplained(std::int64_t in, const FeatureState& state,
                  const std::set<std::int64_t>& seen)
{
    if (in == state.channels)
        return true;
    // Skip connection fed directly into a 1x1 projection.
    if (seen.count(in) > 0)
        return true;
    // UNet decoder: skip tensor concatenated onto the running map.
    for (std::int64_t s : seen) {
        if (in == state.channels + s)
            return true;
    }
    return false;
}

void
checkConv(TraceChecker& chk, const graph::Op& op, FeatureState& state,
          std::set<std::int64_t>& seen)
{
    const auto& a = op.as<graph::ConvAttrs>();
    const bool ok = chk.positive(
        op.scope, {{"batch", a.batch},
                   {"in_channels", a.inChannels},
                   {"out_channels", a.outChannels},
                   {"in_h", a.inH},
                   {"in_w", a.inW},
                   {"in_d", a.inD},
                   {"kernel_h", a.kernelH},
                   {"kernel_w", a.kernelW},
                   {"kernel_d", a.kernelD},
                   {"stride_h", a.strideH},
                   {"stride_w", a.strideW},
                   {"groups", a.groups}});
    if (!ok)
        return;
    chk.divides(op.scope, "in_h", a.inH, "stride_h", a.strideH,
                "pad or crop the input to a stride multiple");
    chk.divides(op.scope, "in_w", a.inW, "stride_w", a.strideW,
                "pad or crop the input to a stride multiple");
    chk.divides(op.scope, "in_channels", a.inChannels, "groups",
                a.groups);
    chk.divides(op.scope, "out_channels", a.outChannels, "groups",
                a.groups);
    chk.overflowGuard(op.scope, "conv flop",
                      {a.batch, a.outD(), a.outH(), a.outW(), a.kernelH,
                       a.kernelW, a.kernelD,
                       a.inChannels / std::max<std::int64_t>(a.groups, 1),
                       a.outChannels});

    if (state.valid) {
        std::ostringstream oss;
        if (!channelsExplained(a.inChannels, state, seen)) {
            oss << "conv consumes " << a.inChannels
                << " channels but the live feature map carries "
                << state.channels;
            chk.error(rules::ChannelContinuity, op.scope, oss.str(),
                      "match the producer's output channels (or concat "
                      "a traced skip tensor)");
        } else if (a.inH != state.H || a.inW != state.W ||
                   a.inD != state.D) {
            oss << "conv consumes a " << a.inD << "x" << a.inH << "x"
                << a.inW << " grid but the live feature map is "
                << state.D << "x" << state.H << "x" << state.W;
            chk.error(rules::ChannelContinuity, op.scope, oss.str(),
                      "resample before changing resolution");
        } else if (a.batch != state.batch) {
            oss << "conv batch " << a.batch
                << " differs from the live feature-map batch "
                << state.batch;
            chk.error(rules::ChannelContinuity, op.scope, oss.str());
        }
    }
    seen.insert(a.inChannels);
    seen.insert(a.outChannels);
    state = FeatureState{a.batch, a.outChannels, a.outD(), a.outH(),
                         a.outW(), true};
}

void
checkLinear(TraceChecker& chk, const graph::Op& op)
{
    const auto& a = op.as<graph::LinearAttrs>();
    if (!chk.positive(op.scope, {{"rows", a.rows},
                                 {"in_features", a.inFeatures},
                                 {"out_features", a.outFeatures}}))
        return;
    chk.overflowGuard(op.scope, "linear flop",
                      {a.rows, a.inFeatures, a.outFeatures});
}

void
checkMatmul(TraceChecker& chk, const graph::Op& op)
{
    const auto& a = op.as<graph::MatmulAttrs>();
    if (!chk.positive(op.scope, {{"batch", a.batch},
                                 {"m", a.m},
                                 {"n", a.n},
                                 {"k", a.k}}))
        return;
    chk.overflowGuard(op.scope, "matmul flop", {a.batch, a.m, a.n, a.k});
}

void
checkAttention(TraceChecker& chk, const graph::Op& op,
               const FeatureState& state)
{
    const auto& a = op.as<graph::AttentionAttrs>();
    if (!chk.positive(op.scope,
                      {{"batch", a.batch},
                       {"heads", a.heads},
                       {"seq_q", a.seqQ},
                       {"seq_kv", a.seqKv},
                       {"head_dim", a.headDim},
                       {"seq_stride", a.seqStrideElems},
                       {"feature_stride", a.featureStrideElems}}))
        return;
    chk.overflowGuard(op.scope, "attention score",
                      {a.batch, a.heads, a.seqQ, a.seqKv});

    std::ostringstream oss;
    switch (a.kind) {
      case graph::AttentionKind::SelfSpatial: {
        if (a.seqQ != a.seqKv) {
            oss << "spatial self-attention has seq_q " << a.seqQ
                << " != seq_kv " << a.seqKv;
            chk.error(rules::SpatialAttention, op.scope, oss.str());
        } else if (a.causal) {
            chk.error(rules::SpatialAttention, op.scope,
                      "spatial self-attention must not be causal",
                      "positions of one image have no temporal order");
        } else if (a.featureStrideElems != 1) {
            oss << "spatial self-attention reads a strided feature "
                   "axis (stride "
                << a.featureStrideElems << ")";
            chk.error(rules::SpatialAttention, op.scope, oss.str(),
                      "spatial rows are contiguous; use Temporal for "
                      "frame-axis views");
        } else if (state.valid) {
            const std::int64_t positions = state.H * state.W;
            if (a.seqQ != positions) {
                oss << "spatial self-attention attends " << a.seqQ
                    << " positions but the live feature map has "
                    << state.H << "x" << state.W << " = " << positions;
                chk.error(rules::SpatialAttention, op.scope, oss.str(),
                          "seq_q must equal H*W of the incoming map");
            } else if (a.batch != state.batch * state.D) {
                oss << "spatial self-attention batch " << a.batch
                    << " != feature-map batch*frames "
                    << state.batch * state.D;
                chk.error(rules::SpatialAttention, op.scope, oss.str(),
                          "fold the frame axis into the batch for "
                          "per-frame spatial attention");
            }
        }
        break;
      }
      case graph::AttentionKind::CrossText: {
        if (a.causal) {
            chk.error(rules::CrossAttention, op.scope,
                      "cross-attention must not be causal",
                      "the full prompt is visible to every query");
        } else if (a.featureStrideElems != 1) {
            oss << "cross-attention reads a strided feature axis "
                   "(stride "
                << a.featureStrideElems << ")";
            chk.error(rules::CrossAttention, op.scope, oss.str());
        } else {
            if (chk.ctx.promptLen > 0 && a.seqKv != chk.ctx.promptLen) {
                oss << "cross-attention attends " << a.seqKv
                    << " context tokens but the text encoder produced "
                    << chk.ctx.promptLen;
                chk.error(rules::CrossAttention, op.scope, oss.str(),
                          "seq_kv must equal the encoded prompt "
                          "length");
            }
            if (state.valid && a.seqQ != state.H * state.W) {
                oss.str("");
                oss << "cross-attention queries " << a.seqQ
                    << " positions but the live feature map has "
                    << state.H * state.W;
                chk.error(rules::CrossAttention, op.scope, oss.str());
            }
        }
        break;
      }
      case graph::AttentionKind::Temporal: {
        if (a.seqQ != a.seqKv) {
            oss << "temporal attention has seq_q " << a.seqQ
                << " != seq_kv " << a.seqKv;
            chk.error(rules::TemporalAttention, op.scope, oss.str());
        } else if (a.causal) {
            chk.error(rules::TemporalAttention, op.scope,
                      "temporal attention must not be causal");
        } else if (a.featureStrideElems !=
                   a.seqQ * a.seqStrideElems) {
            oss << "temporal attention feature stride "
                << a.featureStrideElems << " != frames * seq_stride = "
                << a.seqQ * a.seqStrideElems;
            chk.error(rules::TemporalAttention, op.scope, oss.str(),
                      "a frame-axis view of [B, C, F, H, W] has "
                      "feature stride F*H*W");
        } else if (a.batch % a.seqStrideElems != 0) {
            oss << "temporal attention batch " << a.batch
                << " not a multiple of its spatial-position count "
                << a.seqStrideElems;
            chk.error(rules::TemporalAttention, op.scope, oss.str(),
                      "one attention row per spatial position");
        } else if (state.valid) {
            if (a.seqQ != state.D) {
                oss << "temporal attention attends " << a.seqQ
                    << " frames but the live feature map carries "
                    << state.D;
                chk.error(rules::TemporalAttention, op.scope,
                          oss.str());
            } else if (a.seqStrideElems != state.H * state.W) {
                oss << "temporal attention seq stride "
                    << a.seqStrideElems
                    << " != feature-map positions "
                    << state.H * state.W;
                chk.error(rules::TemporalAttention, op.scope, oss.str(),
                          "frames of [B, C, F, H, W] are H*W elements "
                          "apart");
            }
        }
        break;
      }
      case graph::AttentionKind::CausalSelf: {
        if (a.seqKv < a.seqQ) {
            oss << "causal self-attention has seq_kv " << a.seqKv
                << " < seq_q " << a.seqQ;
            chk.error(rules::CausalAttention, op.scope, oss.str(),
                      "every query must at least see itself");
        } else if (a.seqQ > 1 && !a.causal) {
            oss << "multi-token causal self-attention (seq_q "
                << a.seqQ << ") without a causal mask";
            chk.error(rules::CausalAttention, op.scope, oss.str(),
                      "an unmasked prefill would leak future tokens");
        } else if (a.featureStrideElems != 1) {
            oss << "causal self-attention reads a strided feature "
                   "axis (stride "
                << a.featureStrideElems << ")";
            chk.error(rules::CausalAttention, op.scope, oss.str());
        }
        break;
      }
    }
}

void
checkNorm(TraceChecker& chk, const graph::Op& op,
          const FeatureState& state)
{
    const auto& a = op.as<graph::NormAttrs>();
    if (!chk.positive(op.scope, {{"numel", a.numel},
                                 {"channels", a.channels},
                                 {"groups", a.groups}}))
        return;
    chk.divides(op.scope, "channels", a.channels, "groups", a.groups);
    chk.divides(op.scope, "numel", a.numel, "channels", a.channels);
    if (op.kind == graph::OpKind::LayerNorm && a.groups != 1) {
        std::ostringstream oss;
        oss << "layer norm with " << a.groups << " groups";
        chk.error(rules::ConvStrideDivisibility, op.scope, oss.str(),
                  "layer norm normalizes one group; use group norm");
    }
    if (op.kind == graph::OpKind::GroupNorm && state.valid &&
        static_cast<double>(a.numel) == state.numel() &&
        a.channels != state.channels) {
        std::ostringstream oss;
        oss << "group norm over " << a.channels
            << " channels but the live feature map carries "
            << state.channels;
        chk.error(rules::ChannelContinuity, op.scope, oss.str());
    }
}

void
checkResample(TraceChecker& chk, const graph::Op& op,
              FeatureState& state)
{
    const auto& a = op.as<graph::ResampleAttrs>();
    if (!chk.positive(op.scope, {{"numel_in", a.numelIn},
                                 {"numel_out", a.numelOut}}))
        return;
    const bool up = op.kind == graph::OpKind::Upsample;
    const std::int64_t expected = up ? a.numelIn * 4 : a.numelIn / 4;
    if (a.numelOut != expected || (!up && a.numelIn % 4 != 0)) {
        std::ostringstream oss;
        oss << (up ? "upsample2x" : "downsample2x") << " maps "
            << a.numelIn << " -> " << a.numelOut << " elements, "
            << "expected " << expected;
        chk.error(rules::ChannelContinuity, op.scope, oss.str(),
                  "2x resampling scales H and W by exactly 2");
        return;
    }
    if (state.valid) {
        if (static_cast<double>(a.numelIn) != state.numel()) {
            std::ostringstream oss;
            oss << "resample consumes " << a.numelIn
                << " elements but the live feature map has "
                << state.numel();
            chk.error(rules::ChannelContinuity, op.scope, oss.str());
            state.valid = false;
            return;
        }
        if (up) {
            state.H *= 2;
            state.W *= 2;
        } else if (state.H % 2 == 0 && state.W % 2 == 0) {
            state.H /= 2;
            state.W /= 2;
        } else {
            std::ostringstream oss;
            oss << "downsample2x of an odd " << state.H << "x"
                << state.W << " feature map";
            chk.error(rules::ConvStrideDivisibility, op.scope,
                      oss.str());
            state.valid = false;
        }
    }
}

void
checkOp(TraceChecker& chk, const graph::Op& op, FeatureState& state,
        std::set<std::int64_t>& seen)
{
    if (op.dtype != chk.ctx.dtype) {
        std::ostringstream oss;
        oss << "op dtype " << dtypeName(op.dtype)
            << " differs from pipeline dtype "
            << dtypeName(chk.ctx.dtype);
        chk.error(rules::DtypeConsistency, op.scope, oss.str(),
                  "mixed precision must be modeled explicitly per "
                  "stage");
    }
    if (op.repeat < 1) {
        std::ostringstream oss;
        oss << "repeat = " << op.repeat << " must be positive";
        chk.error(rules::RepeatSanity, op.scope, oss.str());
    } else if (op.repeat > 100'000'000) {
        std::ostringstream oss;
        oss << "repeat = " << op.repeat << " is implausibly large";
        chk.warn(rules::RepeatSanity, op.scope, oss.str());
    }

    switch (op.kind) {
      case graph::OpKind::Conv2D:
      case graph::OpKind::Conv3D:
        checkConv(chk, op, state, seen);
        break;
      case graph::OpKind::Linear:
        checkLinear(chk, op);
        break;
      case graph::OpKind::Matmul:
        checkMatmul(chk, op);
        break;
      case graph::OpKind::Attention:
        checkAttention(chk, op, state);
        break;
      case graph::OpKind::GroupNorm:
      case graph::OpKind::LayerNorm:
        checkNorm(chk, op, state);
        break;
      case graph::OpKind::Softmax: {
        const auto& a = op.as<graph::SoftmaxAttrs>();
        chk.positive(op.scope,
                     {{"rows", a.rows}, {"cols", a.cols}});
        chk.overflowGuard(op.scope, "softmax", {a.rows, a.cols});
        break;
      }
      case graph::OpKind::Elementwise: {
        const auto& a = op.as<graph::ElemAttrs>();
        chk.positive(op.scope, {{"numel", a.numel},
                                {"arity", a.arity}});
        if (a.flopsPerElement < 0.0)
            chk.error(rules::NonPositiveDim, op.scope,
                      "flops_per_element must be non-negative");
        break;
      }
      case graph::OpKind::Embedding: {
        const auto& a = op.as<graph::EmbeddingAttrs>();
        chk.positive(op.scope, {{"tokens", a.tokens},
                                {"dim", a.dim},
                                {"vocab", a.vocab}});
        chk.overflowGuard(op.scope, "embedding table",
                          {a.vocab, a.dim});
        break;
      }
      case graph::OpKind::Upsample:
      case graph::OpKind::Downsample:
        checkResample(chk, op, state);
        break;
      case graph::OpKind::Copy: {
        const auto& a = op.as<graph::CopyAttrs>();
        chk.positive(op.scope, {{"bytes", a.bytes}});
        break;
      }
    }
}

/**
 * Encoded prompt length, or 0 when there is no text stage: the
 * key/value length of the text stage's first attention, which holds
 * one prompt's tokens whatever the batch (an embedding's token count
 * folds the batch in).
 */
std::int64_t
detectPromptLen(const graph::Pipeline& p)
{
    if (p.stages.empty())
        return 0;
    const graph::Stage& first = p.stages.front();
    if (first.name.find("text") == std::string::npos)
        return 0;
    if (!first.emit || first.iterations < 1)
        return 0;
    try {
        const graph::Trace t = p.traceStage(0, 0);
        for (const graph::Op& op : t.ops()) {
            if (op.kind == graph::OpKind::Attention)
                return op.as<graph::AttentionAttrs>().seqKv;
        }
    } catch (const FatalError&) {
        // The main loop reports the trace failure.
    }
    return 0;
}

} // namespace

DiagnosticReport
verifyTrace(const graph::Trace& trace, const TraceContext& ctx)
{
    DiagnosticReport report;
    TraceChecker chk(ctx, report);
    if (ctx.stageIterations < 1) {
        std::ostringstream oss;
        oss << "stage iterations = " << ctx.stageIterations
            << " must be positive";
        chk.error(rules::RepeatSanity, "", oss.str());
    } else if (ctx.stageIterations > 10'000'000) {
        std::ostringstream oss;
        oss << "stage iterations = " << ctx.stageIterations
            << " is implausibly large";
        chk.warn(rules::RepeatSanity, "", oss.str());
    }
    if (trace.empty())
        chk.warn(rules::RepeatSanity, "", "stage emitted no operators");

    FeatureState state;
    std::set<std::int64_t> seen;
    for (const graph::Op& op : trace.ops())
        checkOp(chk, op, state, seen);
    return report;
}

DiagnosticReport
verifyPipeline(const graph::Pipeline& pipeline)
{
    DiagnosticReport report;
    const std::int64_t prompt_len = detectPromptLen(pipeline);

    bool traced_all = true;
    std::int64_t recount = 0;
    for (std::size_t si = 0; si < pipeline.stages.size(); ++si) {
        const graph::Stage& st = pipeline.stages[si];
        TraceContext ctx{pipeline.name, st.name, pipeline.dtype,
                         prompt_len, st.iterations};
        if (st.iterations < 1 || !st.emit) {
            std::ostringstream oss;
            if (!st.emit)
                oss << "stage has no emitter";
            else
                oss << "stage iterations = " << st.iterations
                    << " must be positive";
            report.add(Diagnostic{Severity::Error, rules::RepeatSanity,
                                  pipeline.name, st.name, "",
                                  oss.str(), ""});
            traced_all = false;
            continue;
        }

        // Per-iteration stages change shape with the index: sample the
        // first, middle and last iterations. Scaled stages are
        // shape-identical; the final iteration mirrors totalParams().
        const std::vector<std::int64_t> iters =
            st.perIterationShapes
                ? graph::sampleIterations(st)
                : std::vector<std::int64_t>{st.iterations - 1};

        std::int64_t first_params = -1;
        std::int64_t last_params = -1;
        bool traced_stage = true;
        for (std::int64_t iter : iters) {
            try {
                const graph::Trace t = pipeline.traceStage(si, iter);
                report.merge(verifyTrace(t, ctx));
                const std::int64_t params = t.totalParams();
                if (first_params < 0)
                    first_params = params;
                last_params = params;
            } catch (const FatalError& e) {
                std::ostringstream oss;
                oss << "stage emitter threw at iteration " << iter
                    << ": " << e.what();
                report.add(Diagnostic{Severity::Error,
                                      rules::TraceFailure,
                                      pipeline.name, st.name, "",
                                      oss.str(), ""});
                traced_stage = false;
                break;
            }
        }
        if (!traced_stage) {
            traced_all = false;
            continue;
        }

        // The weights a stage executes must not depend on the
        // iteration index; otherwise totalParams() is meaningless.
        if (st.perIterationShapes && first_params != last_params) {
            std::ostringstream oss;
            oss << "stage owns " << first_params
                << " parameters at its first iteration but "
                << last_params << " at its last";
            report.add(Diagnostic{
                Severity::Error, rules::ParamCount, pipeline.name,
                st.name, "", oss.str(),
                "per-iteration shapes may change activations, never "
                "weights"});
            traced_all = false;
        }
        if (!st.reusesWeights)
            recount += last_params;
    }

    if (traced_all && !pipeline.stages.empty()) {
        const std::int64_t reported = pipeline.totalParams();
        if (reported != recount) {
            std::ostringstream oss;
            oss << "independent recount found " << recount
                << " parameters but Pipeline::totalParams() reports "
                << reported;
            report.add(Diagnostic{
                Severity::Error, rules::ParamCount, pipeline.name, "",
                "", oss.str(),
                "check reusesWeights flags and stage emitters"});
        }
    }
    return report;
}

void
throwOnErrors(const DiagnosticReport& report)
{
    MMGEN_CHECK(!report.hasErrors(),
                "graph verification failed:\n" << report.render());
}

void
verifyPipelineOrThrow(const graph::Pipeline& pipeline)
{
    throwOnErrors(verifyPipeline(pipeline));
}

} // namespace mmgen::verify
