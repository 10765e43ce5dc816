/**
 * @file
 * Operator intermediate representation.
 *
 * A model's inference pass is lowered to a linear trace of Op records,
 * each carrying the dimensions a kernel cost model needs. The operator
 * taxonomy matches the categories the paper reports in its breakdowns
 * (Fig. 6): Attention, Convolution, Linear, GroupNorm, and the
 * memory/elementwise remainder.
 */

#ifndef MMGEN_GRAPH_OP_HH
#define MMGEN_GRAPH_OP_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "tensor/dtype.hh"

namespace mmgen::graph {

/** Kinds of operators the IR can express. */
enum class OpKind : std::uint8_t {
    Conv2D,
    Conv3D,
    Linear,
    Matmul,
    Attention,
    GroupNorm,
    LayerNorm,
    Softmax,
    Elementwise,
    Embedding,
    Upsample,
    Downsample,
    Copy,
};

/** Reporting category for operator-time breakdowns (paper Fig. 6). */
enum class OpCategory : std::uint8_t {
    Attention,
    Convolution,
    Linear,
    GroupNorm,
    OtherNorm,
    Elementwise,
    Memory,
};

/** Flavours of attention in the model suite (paper Secs. II, VI). */
enum class AttentionKind : std::uint8_t {
    /** Attention over image/latent positions (a.k.a. spatial). */
    SelfSpatial,
    /** Attention from image positions onto the encoded text prompt. */
    CrossText,
    /** Attention over frames at a fixed spatial position (TTV). */
    Temporal,
    /** Causal self-attention of autoregressive LLM/TTI decoders. */
    CausalSelf,
};

/** Attention implementation selected at execution time. */
enum class AttentionBackend : std::uint8_t {
    /** Materializes the full S_q x S_kv similarity matrix in HBM. */
    Baseline,
    /** FlashAttention-2 style tiling; no N^2 HBM traffic. */
    Flash,
    /**
     * Flash-Decoding: additionally splits the KV sequence across SMs
     * so single-token (decode) queries can occupy the whole GPU, at
     * the cost of a small partial-result reduction pass.
     */
    FlashDecode,
    /**
     * Per-call selection: lower with whichever concrete backend the
     * cost model predicts fastest for the call's shape — the
     * shape-aware dispatch the paper's characterization motivates.
     */
    Auto,
};

/** Dimensions of a (possibly grouped, possibly 3-D) convolution. */
struct ConvAttrs
{
    std::int64_t batch = 1;
    std::int64_t inChannels = 0;
    std::int64_t outChannels = 0;
    std::int64_t inH = 0;
    std::int64_t inW = 0;
    /** Temporal extent for Conv3D; 1 for Conv2D. */
    std::int64_t inD = 1;
    std::int64_t kernelH = 3;
    std::int64_t kernelW = 3;
    /** Temporal kernel extent for Conv3D; 1 for Conv2D. */
    std::int64_t kernelD = 1;
    std::int64_t strideH = 1;
    std::int64_t strideW = 1;
    std::int64_t groups = 1;
    bool hasBias = true;

    // Same-padding semantics: a stride-s conv over n rows emits
    // ceil(n / s) outputs. The builder additionally requires exact
    // divisibility, so rounding up only matters for hand-built attrs
    // (where truncation would silently shrink the output grid).
    std::int64_t outH() const { return (inH + strideH - 1) / strideH; }
    std::int64_t outW() const { return (inW + strideW - 1) / strideW; }
    std::int64_t outD() const { return inD; }

    bool operator==(const ConvAttrs&) const = default;
};

/** Dimensions of a (batched-rows) fully connected layer. */
struct LinearAttrs
{
    /** Number of rows fed through the layer (batch * positions). */
    std::int64_t rows = 0;
    std::int64_t inFeatures = 0;
    std::int64_t outFeatures = 0;
    bool hasBias = true;

    bool operator==(const LinearAttrs&) const = default;
};

/** Dimensions of a weightless batched matrix multiply. */
struct MatmulAttrs
{
    std::int64_t batch = 1;
    std::int64_t m = 0;
    std::int64_t n = 0;
    std::int64_t k = 0;

    bool operator==(const MatmulAttrs&) const = default;
};

/**
 * Dimensions of one fused attention call: softmax(Q K^T) V.
 *
 * Projections (Wq/Wk/Wv/Wo) are separate Linear ops in model code;
 * this op covers the two batched matmuls and the softmax between them.
 */
struct AttentionAttrs
{
    AttentionKind kind = AttentionKind::SelfSpatial;
    std::int64_t batch = 1;
    std::int64_t heads = 1;
    std::int64_t seqQ = 0;
    std::int64_t seqKv = 0;
    std::int64_t headDim = 0;
    bool causal = false;

    /**
     * Stride in elements between consecutive sequence positions of
     * Q/K/V in the backing tensor. For spatial attention this equals
     * the feature dimension (rows are contiguous); temporal attention
     * views the video tensor with frame stride H*W, which is the
     * locality hazard the paper measures (Fig. 12).
     */
    std::int64_t seqStrideElems = 0;

    /**
     * Stride in elements between consecutive head-dim features of one
     * sequence position. 1 for the contiguous (channels-last) rows of
     * spatial/causal attention. Temporal attention attends over the
     * frame axis of the conv-native [B, C, F, H, W] tensor, so its
     * feature axis (C) is strided by F*H*W: every element occupies its
     * own cache sector, inflating DRAM traffic and collapsing L1 reuse
     * (paper Figs. 11-12).
     */
    std::int64_t featureStrideElems = 1;

    std::int64_t modelDim() const { return heads * headDim; }

    /**
     * DRAM over-fetch factor for reading one Q/K/V element through
     * sectors of the given size: min(featureStride, sector/element).
     */
    double strideWasteFactor(int sector_bytes,
                             std::size_t elem_bytes) const
    {
        const double per_sector =
            static_cast<double>(sector_bytes) /
            static_cast<double>(elem_bytes);
        const double s = static_cast<double>(featureStrideElems);
        return s <= 1.0 ? 1.0 : (s < per_sector ? s : per_sector);
    }

    bool operator==(const AttentionAttrs&) const = default;
};

/** Dimensions of a normalization layer (group or layer norm). */
struct NormAttrs
{
    /** Total elements normalized. */
    std::int64_t numel = 0;
    /** Channel/feature count carrying affine parameters. */
    std::int64_t channels = 0;
    /** Number of groups (1 for LayerNorm). */
    std::int64_t groups = 1;

    bool operator==(const NormAttrs&) const = default;
};

/** Dimensions of a standalone softmax (outside fused attention). */
struct SoftmaxAttrs
{
    std::int64_t rows = 0;
    std::int64_t cols = 0;

    bool operator==(const SoftmaxAttrs&) const = default;
};

/** A pointwise operator over a tensor. */
struct ElemAttrs
{
    std::int64_t numel = 0;
    /** Number of input tensors read (1 = unary, 2 = binary, ...). */
    int arity = 1;
    /** FLOPs performed per output element (e.g. GELU ~ 8). */
    double flopsPerElement = 1.0;
    /** Label for reports, e.g. "silu", "add". */
    std::string label = "elementwise";

    bool operator==(const ElemAttrs&) const = default;
};

/** An embedding-table lookup. */
struct EmbeddingAttrs
{
    std::int64_t tokens = 0;
    std::int64_t dim = 0;
    std::int64_t vocab = 0;

    bool operator==(const EmbeddingAttrs&) const = default;
};

/** Nearest/bilinear resampling of a feature map. */
struct ResampleAttrs
{
    std::int64_t numelIn = 0;
    std::int64_t numelOut = 0;

    bool operator==(const ResampleAttrs&) const = default;
};

/** A device-to-device copy (e.g. permute + contiguous). */
struct CopyAttrs
{
    std::int64_t bytes = 0;

    bool operator==(const CopyAttrs&) const = default;
};

/** Attribute payload, discriminated by Op::kind. */
using OpAttrs = std::variant<ConvAttrs, LinearAttrs, MatmulAttrs,
                             AttentionAttrs, NormAttrs, SoftmaxAttrs,
                             ElemAttrs, EmbeddingAttrs, ResampleAttrs,
                             CopyAttrs>;

/**
 * One executed operator instance in a trace.
 */
struct Op
{
    OpKind kind = OpKind::Elementwise;
    /** Dotted module path, e.g. "unet.down0.attn.self". */
    std::string scope;
    OpAttrs attrs;
    DType dtype = DType::F16;
    /**
     * Replication count: the op executes this many times with identical
     * shapes (used to fold identical denoising iterations).
     */
    std::int64_t repeat = 1;

    /** Convenience accessor; throws on kind mismatch. */
    template <typename T>
    const T&
    as() const
    {
        return std::get<T>(attrs);
    }

    /**
     * Equal ops lower to equal kernels: every field is compared.
     * GraphBuilder::emit compares a slot with these fields one by one;
     * a new field must join that comparison.
     */
    bool operator==(const Op&) const = default;
};

/** Reporting category of an operator. */
OpCategory opCategory(const Op& op);

/** Human-readable category name (matches the paper's legend). */
std::string opCategoryName(OpCategory c);

/** Human-readable op kind name. */
std::string opKindName(OpKind k);

/** Human-readable attention kind name. */
std::string attentionKindName(AttentionKind k);

/** Human-readable attention backend name. */
std::string attentionBackendName(AttentionBackend b);

/** Number of trainable parameters the operator's weights contribute. */
std::int64_t opParamCount(const Op& op);

/** All reporting categories in display order. */
const std::vector<OpCategory>& allCategories();

} // namespace mmgen::graph

#endif // MMGEN_GRAPH_OP_HH
