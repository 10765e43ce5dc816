/**
 * @file
 * The eight-workload model suite of the paper (Section III), plus the
 * LLaMA-2 text-generation baseline.
 */

#ifndef MMGEN_MODELS_MODEL_SUITE_HH
#define MMGEN_MODELS_MODEL_SUITE_HH

#include <string>
#include <vector>

#include "graph/pipeline.hh"

namespace mmgen::models {

/** Identifiers for the models of the characterization suite. */
enum class ModelId : std::uint8_t {
    LLaMA,
    Imagen,
    StableDiffusion,
    Muse,
    Parti,
    ProdImage,
    MakeAVideo,
    Phenaki,
};

/** All suite models in the paper's presentation order. */
const std::vector<ModelId>& allModels();

/** The TTI/TTV subset (everything but LLaMA). */
const std::vector<ModelId>& imageVideoModels();

/** Display name matching the paper's tables. */
std::string modelName(ModelId id);

/**
 * Build a model's default-configuration inference pipeline for a batch
 * of requests of one size (see each builder for how the model maps
 * the size onto its own shape). The default shape builds the model's
 * reference pipeline. The pipeline's `rebuild` builds the same model
 * at another shape.
 */
graph::Pipeline buildModel(ModelId id, graph::RequestShape shape = {});

} // namespace mmgen::models

#endif // MMGEN_MODELS_MODEL_SUITE_HH
