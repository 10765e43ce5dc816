#include "pipeline.hh"

#include <algorithm>
#include <type_traits>
#include <variant>

#include "util/hash.hh"
#include "util/logging.hh"

namespace mmgen::graph {

std::string
modelClassName(ModelClass c)
{
    switch (c) {
      case ModelClass::LLM:
        return "LLM";
      case ModelClass::DiffusionPixel:
        return "Diffusion (Pixel)";
      case ModelClass::DiffusionLatent:
        return "Diffusion (Latent)";
      case ModelClass::TransformerTTI:
        return "Transformer TTI";
      case ModelClass::DiffusionTTV:
        return "Diffusion TTV";
      case ModelClass::TransformerTTV:
        return "Transformer TTV";
    }
    MMGEN_ASSERT(false, "unknown model class");
}

bool
isDiffusionClass(ModelClass c)
{
    return c == ModelClass::DiffusionPixel ||
           c == ModelClass::DiffusionLatent ||
           c == ModelClass::DiffusionTTV;
}

bool
isVideoClass(ModelClass c)
{
    return c == ModelClass::DiffusionTTV ||
           c == ModelClass::TransformerTTV;
}

std::int64_t
Pipeline::totalParams() const
{
    std::int64_t total = 0;
    for (std::size_t i = 0; i < stages.size(); ++i) {
        if (stages[i].reusesWeights)
            continue;
        const Trace t = traceStage(i, stages[i].iterations - 1);
        total += t.totalParams();
    }
    return total;
}

namespace {

/** Fold every field of one attrs struct into the hash. */
void
hashAttrs(HashBuilder& h, const OpAttrs& attrs)
{
    std::visit(
        [&h](const auto& a) {
            using T = std::decay_t<decltype(a)>;
            if constexpr (std::is_same_v<T, ConvAttrs>) {
                h.mix(a.batch).mix(a.inChannels).mix(a.outChannels);
                h.mix(a.inH).mix(a.inW).mix(a.inD);
                h.mix(a.kernelH).mix(a.kernelW).mix(a.kernelD);
                h.mix(a.strideH).mix(a.strideW).mix(a.groups);
                h.mix(a.hasBias);
            } else if constexpr (std::is_same_v<T, LinearAttrs>) {
                h.mix(a.rows).mix(a.inFeatures).mix(a.outFeatures);
                h.mix(a.hasBias);
            } else if constexpr (std::is_same_v<T, MatmulAttrs>) {
                h.mix(a.batch).mix(a.m).mix(a.n).mix(a.k);
            } else if constexpr (std::is_same_v<T, AttentionAttrs>) {
                h.mix(static_cast<std::uint64_t>(a.kind));
                h.mix(a.batch).mix(a.heads).mix(a.seqQ).mix(a.seqKv);
                h.mix(a.headDim).mix(a.causal);
                h.mix(a.seqStrideElems).mix(a.featureStrideElems);
            } else if constexpr (std::is_same_v<T, NormAttrs>) {
                h.mix(a.numel).mix(a.channels).mix(a.groups);
            } else if constexpr (std::is_same_v<T, SoftmaxAttrs>) {
                h.mix(a.rows).mix(a.cols);
            } else if constexpr (std::is_same_v<T, ElemAttrs>) {
                h.mix(a.numel).mix(a.arity).mix(a.flopsPerElement);
                h.mix(std::string_view(a.label));
            } else if constexpr (std::is_same_v<T, EmbeddingAttrs>) {
                h.mix(a.tokens).mix(a.dim).mix(a.vocab);
            } else if constexpr (std::is_same_v<T, ResampleAttrs>) {
                h.mix(a.numelIn).mix(a.numelOut);
            } else if constexpr (std::is_same_v<T, CopyAttrs>) {
                h.mix(a.bytes);
            }
        },
        attrs);
}

/** Fold one traced op instance into the hash. */
void
hashOp(HashBuilder& h, const Op& op)
{
    h.mix(static_cast<std::uint64_t>(op.kind));
    h.mix(std::string_view(op.scope));
    h.mix(static_cast<std::uint64_t>(op.dtype));
    h.mix(op.repeat);
    hashAttrs(h, op.attrs);
}

} // namespace

std::vector<std::int64_t>
sampleIterations(const Stage& stage)
{
    if (!stage.perIterationShapes || stage.iterations <= 1)
        return {0};
    std::vector<std::int64_t> iters = {0, (stage.iterations - 1) / 2,
                                       stage.iterations - 1};
    iters.erase(std::unique(iters.begin(), iters.end()), iters.end());
    return iters;
}

std::uint64_t
Pipeline::fingerprint() const
{
    HashBuilder h;
    h.mix(std::string_view(name));
    h.mix(static_cast<std::uint64_t>(klass));
    h.mix(static_cast<std::uint64_t>(dtype));
    h.mix(static_cast<std::int64_t>(stages.size()));
    for (std::size_t si = 0; si < stages.size(); ++si) {
        const Stage& stage = stages[si];
        h.mix(std::string_view(stage.name));
        h.mix(stage.iterations);
        h.mix(stage.perIterationShapes);
        h.mix(stage.reusesWeights);
        if (stage.iterations <= 0 || !stage.emit)
            continue; // structurally invalid; the verifier flags it
        // Shape-invariant stages are only ever traced at iteration 0
        // (the profiler scales that trace), so hashing it covers the
        // profile inputs exactly.
        for (const std::int64_t iter : sampleIterations(stage)) {
            const Trace trace = traceStage(si, iter);
            h.mix(iter);
            h.mix(static_cast<std::int64_t>(trace.size()));
            for (const Op& op : trace.ops())
                hashOp(h, op);
        }
    }
    return h.digest();
}

Pipeline
Pipeline::at(RequestShape want) const
{
    if (want == shape)
        return *this;
    MMGEN_CHECK(static_cast<bool>(rebuild),
                "pipeline '" << name << "' has no rebuild: it is priced "
                                "only at batch "
                             << shape.batch << ", size " << shape.size);
    return rebuild(want);
}

Trace
Pipeline::traceStage(std::size_t stage_idx, std::int64_t iter) const
{
    Trace trace;
    traceStage(stage_idx, iter, trace);
    return trace;
}

void
Pipeline::traceStage(std::size_t stage_idx, std::int64_t iter,
                     Trace& into) const
{
    MMGEN_CHECK(stage_idx < stages.size(),
                "stage index " << stage_idx << " out of range");
    const Stage& stage = stages[stage_idx];
    MMGEN_CHECK(iter >= 0 && iter < stage.iterations,
                "iteration " << iter << " out of [0, "
                             << stage.iterations << ")");
    MMGEN_CHECK(static_cast<bool>(stage.emit),
                "stage '" << stage.name << "' has no emitter");
    into.clear();
    GraphBuilder builder(into, dtype);
    auto s = builder.scope(stage.name);
    stage.emit(builder, iter);
}

} // namespace mmgen::graph
