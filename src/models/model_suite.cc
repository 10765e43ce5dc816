#include "model_suite.hh"

#include "models/imagen.hh"
#include "models/llama.hh"
#include "models/make_a_video.hh"
#include "models/muse.hh"
#include "models/parti.hh"
#include "models/phenaki.hh"
#include "models/prod_image.hh"
#include "models/stable_diffusion.hh"
#include "util/logging.hh"

namespace mmgen::models {

const std::vector<ModelId>&
allModels()
{
    static const std::vector<ModelId> ids = {
        ModelId::LLaMA,      ModelId::Imagen, ModelId::StableDiffusion,
        ModelId::Muse,       ModelId::Parti,  ModelId::ProdImage,
        ModelId::MakeAVideo, ModelId::Phenaki,
    };
    return ids;
}

const std::vector<ModelId>&
imageVideoModels()
{
    static const std::vector<ModelId> ids = {
        ModelId::Imagen,    ModelId::StableDiffusion, ModelId::Muse,
        ModelId::Parti,     ModelId::ProdImage,       ModelId::MakeAVideo,
        ModelId::Phenaki,
    };
    return ids;
}

std::string
modelName(ModelId id)
{
    switch (id) {
      case ModelId::LLaMA:
        return "LLaMA";
      case ModelId::Imagen:
        return "Imagen";
      case ModelId::StableDiffusion:
        return "StableDiffusion";
      case ModelId::Muse:
        return "Muse";
      case ModelId::Parti:
        return "Parti";
      case ModelId::ProdImage:
        return "ProdImage";
      case ModelId::MakeAVideo:
        return "MakeAVideo";
      case ModelId::Phenaki:
        return "Phenaki";
    }
    MMGEN_ASSERT(false, "unknown model id");
}

namespace {

graph::Pipeline
buildDefaultConfig(ModelId id, graph::RequestShape shape)
{
    switch (id) {
      case ModelId::LLaMA:
        return buildLlama({}, shape);
      case ModelId::Imagen:
        return buildImagen({}, shape);
      case ModelId::StableDiffusion:
        return buildStableDiffusion({}, shape);
      case ModelId::Muse:
        return buildMuse({}, shape);
      case ModelId::Parti:
        return buildParti({}, shape);
      case ModelId::ProdImage:
        return buildProdImage({}, shape);
      case ModelId::MakeAVideo:
        return buildMakeAVideo({}, shape);
      case ModelId::Phenaki:
        return buildPhenaki({}, shape);
    }
    MMGEN_ASSERT(false, "unknown model id");
}

} // namespace

graph::Pipeline
buildModel(ModelId id, graph::RequestShape shape)
{
    graph::Pipeline p = buildDefaultConfig(id, shape);
    p.rebuild = [id](graph::RequestShape s) { return buildModel(id, s); };
    return p;
}

} // namespace mmgen::models
