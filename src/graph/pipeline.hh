/**
 * @file
 * Multi-stage inference pipelines.
 *
 * Unlike LLMs, TTI/TTV models are several independently trained
 * components stitched together at inference time (paper Fig. 2):
 * text encoder -> diffusion UNet (looped over denoising steps) ->
 * super-resolution / VAE decoder, or encoder -> autoregressive decoder
 * -> image detokenizer. A Pipeline captures that structure: an ordered
 * list of stages, each with an iteration count and an emitter that
 * appends one iteration's operators to a trace.
 */

#ifndef MMGEN_GRAPH_PIPELINE_HH
#define MMGEN_GRAPH_PIPELINE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/builder.hh"

namespace mmgen::graph {

/** Architectural family of a model (paper Section II taxonomy). */
enum class ModelClass : std::uint8_t {
    LLM,
    DiffusionPixel,
    DiffusionLatent,
    TransformerTTI,
    DiffusionTTV,
    TransformerTTV,
};

/** Human-readable model class name. */
std::string modelClassName(ModelClass c);

/** True for pixel- or latent-space diffusion TTI/TTV models. */
bool isDiffusionClass(ModelClass c);

/** True for TTV model classes. */
bool isVideoClass(ModelClass c);

/**
 * One pipeline stage, e.g. "text_encoder" or "unet".
 */
struct Stage
{
    std::string name;

    /** How many times the stage body executes (denoise/decode steps). */
    std::int64_t iterations = 1;

    /**
     * When false, every iteration has identical shapes and the engine
     * may trace once and scale costs (diffusion denoising). When true,
     * shapes depend on the iteration index (autoregressive decode) and
     * the engine traces every iteration.
     */
    bool perIterationShapes = false;

    /**
     * True when this stage executes weights already owned by an
     * earlier stage (an LLM's decode phase re-runs the prefill
     * stack); such stages are skipped when counting parameters.
     */
    bool reusesWeights = false;

    /** Emit one iteration's operators; iter is in [0, iterations). */
    std::function<void(GraphBuilder&, std::int64_t iter)> emit;
};

/**
 * The iterations that stand for a stage when it is not traced in
 * full: iteration 0 of a shape-invariant stage (every iteration traces
 * the same ops), and the first, middle and last iteration of a
 * per-iteration-shape stage, each once, in order. Pipeline::fingerprint,
 * lint's trace physics and the structural verifier sample these.
 */
std::vector<std::int64_t> sampleIterations(const Stage& stage);

/**
 * What one batch of requests asks of a model: how many requests run
 * together, and how large each is relative to the model's default
 * request (image pixels, image tokens, video frames or prompt tokens;
 * each model header says which).
 */
struct RequestShape
{
    int batch = 1;
    double size = 1.0;

    bool operator==(const RequestShape&) const = default;
};

/**
 * A complete model inference pipeline.
 */
struct Pipeline
{
    std::string name;
    ModelClass klass = ModelClass::LLM;
    std::vector<Stage> stages;

    /** Element type every stage is traced with (weights/activations). */
    DType dtype = DType::F16;

    /**
     * The shape the pipeline was built at: the one asked for, with the
     * size rounded by the model to the nearest shape it accepts.
     */
    RequestShape shape;

    /**
     * Builds the same model at another shape; `models::buildModel`
     * sets it, and it is empty for a pipeline built any other way. A
     * copy whose stages are edited afterwards keeps it, and it builds
     * the unedited model.
     */
    std::function<Pipeline(RequestShape)> rebuild;

    /**
     * This pipeline at `shape`: itself when it was built there,
     * otherwise `rebuild(shape)`, which throws `FatalError` for a
     * batch below 1 or a non-positive size. A pipeline without
     * `rebuild` throws `FatalError` for any other shape.
     */
    Pipeline at(RequestShape shape) const;

    /**
     * Total trainable parameters of the model: each stage is traced
     * exactly once (at its final iteration, which for autoregressive
     * decoders exercises every layer) and weight-owning ops summed.
     */
    std::int64_t totalParams() const;

    /**
     * Stable structural hash of the pipeline: name, class, dtype, and
     * for every stage its metadata plus the full op stream (kind,
     * scope, dtype, repeat, every attribute field) of sampled
     * iterations — iteration 0 for shape-invariant stages (the only
     * iteration the profiler traces) and first/middle/last for
     * per-iteration-shape stages, together with the iteration count.
     * Emitters must be pure functions of (captured config, iter),
     * which every model in this repo satisfies; under that contract
     * equal fingerprints mean equal profiles. This is the
     * `runtime::ProfileCache` key material and is cheap relative to a
     * profile (it never traces more than three iterations per stage).
     */
    std::uint64_t fingerprint() const;

    /** Trace one iteration of one stage (by index) into a fresh trace. */
    Trace traceStage(std::size_t stage_idx, std::int64_t iter) const;

    /**
     * Re-emit one iteration of one stage into `into`, keeping its op
     * slots: `into.changed(i)` then tells whether op `i` differs from
     * the op `into` held at position `i` before the call (see Trace).
     * Re-emitting iteration after iteration into one trace reuses the
     * slots' heap blocks instead of allocating per op.
     */
    void traceStage(std::size_t stage_idx, std::int64_t iter,
                    Trace& into) const;
};

} // namespace mmgen::graph

#endif // MMGEN_GRAPH_PIPELINE_HH
