/**
 * @file
 * GraphBuilder: the API model code uses to emit operator traces.
 *
 * Builder methods perform shape inference — they take symbolic input
 * tensors, append the executed Op to the trace, and return the output
 * tensor. Scopes mirror the forward-hook annotation scheme the paper's
 * profiling framework uses (Section III, "Tools"): every op carries a
 * dotted module path such as "unet.down0.block1.attn.self".
 */

#ifndef MMGEN_GRAPH_BUILDER_HH
#define MMGEN_GRAPH_BUILDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "graph/trace.hh"
#include "tensor/tensor_desc.hh"

namespace mmgen::graph {

/**
 * Appends shape-inferred operators to a Trace under nested scopes.
 */
class GraphBuilder
{
  public:
    /** Build into the given trace; default element type for all ops. */
    explicit GraphBuilder(Trace& trace, DType dtype = DType::F16);

    /** RAII scope: pushes a path segment for the lifetime of the guard. */
    class Scope
    {
      public:
        Scope(GraphBuilder& builder, std::string name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        GraphBuilder& builder;
    };

    /** Open a named scope (use as: auto s = b.scope("unet");). */
    [[nodiscard]] Scope scope(std::string name);

    /** Current dotted scope path. */
    const std::string& currentScope() const { return scopePath; }

    /** Default dtype ops are emitted with. */
    DType dtype() const { return dtype_; }

    // ----- convolution ---------------------------------------------------

    /** 2-D convolution over NCHW input; 'same' padding semantics. */
    TensorDesc conv2d(const TensorDesc& x, std::int64_t out_channels,
                      std::int64_t kernel = 3, std::int64_t stride = 1,
                      std::int64_t groups = 1);

    /** 3-D convolution over NCDHW input (temporal kernels in TTV). */
    TensorDesc conv3d(const TensorDesc& x, std::int64_t out_channels,
                      std::int64_t kernel_d, std::int64_t kernel_hw,
                      std::int64_t stride_hw = 1);

    // ----- dense ---------------------------------------------------------

    /** Fully connected layer over the last dimension. */
    TensorDesc linear(const TensorDesc& x, std::int64_t out_features,
                      bool bias = true);

    /** Raw batched matmul [b, m, k] x [b, k, n]. */
    TensorDesc matmul(std::int64_t batch, std::int64_t m, std::int64_t n,
                      std::int64_t k);

    // ----- attention -----------------------------------------------------

    /**
     * Fused scaled-dot-product attention call.
     *
     * @param kind        attention flavour (spatial/cross/temporal/causal)
     * @param batch       effective batch (includes folded dims)
     * @param heads       attention heads
     * @param seq_q       query sequence length
     * @param seq_kv      key/value sequence length
     * @param head_dim    per-head feature size
     * @param seq_stride  elements between consecutive sequence positions
     *                    in the backing tensor (locality model input);
     *                    0 means contiguous rows (heads * head_dim)
     * @param causal      apply a causal mask
     * @param feature_stride  elements between consecutive head-dim
     *                    features; >1 models attending over a
     *                    non-innermost axis (temporal attention)
     * @return            output tensor [batch, seq_q, heads * head_dim]
     */
    TensorDesc attention(AttentionKind kind, std::int64_t batch,
                         std::int64_t heads, std::int64_t seq_q,
                         std::int64_t seq_kv, std::int64_t head_dim,
                         std::int64_t seq_stride = 0, bool causal = false,
                         std::int64_t feature_stride = 1);

    // ----- normalization / pointwise --------------------------------------

    /** GroupNorm over NCHW/NCDHW input. */
    TensorDesc groupNorm(const TensorDesc& x, std::int64_t groups = 32);

    /** LayerNorm over the last dimension. */
    TensorDesc layerNorm(const TensorDesc& x);

    /** Standalone softmax over the last dimension. */
    TensorDesc softmax(const TensorDesc& x);

    /** Unary activation (silu/gelu/relu...) with a FLOP weight. */
    TensorDesc activation(const TensorDesc& x, const std::string& label,
                          double flops_per_element);

    /** SiLU activation (diffusion UNets). */
    TensorDesc silu(const TensorDesc& x);

    /** GELU activation (transformer FFNs). */
    TensorDesc gelu(const TensorDesc& x);

    /** Binary elementwise op (residual add, scale). */
    TensorDesc binary(const TensorDesc& x, const std::string& label);

    // ----- memory / resampling -------------------------------------------

    /** Embedding-table lookup producing [tokens, dim]. */
    TensorDesc embedding(std::int64_t tokens, std::int64_t dim,
                         std::int64_t vocab);

    /** Nearest-neighbour 2x upsample of the last two (spatial) dims. */
    TensorDesc upsample2x(const TensorDesc& x);

    /** 2x average-pool downsample of the last two (spatial) dims. */
    TensorDesc downsample2x(const TensorDesc& x);

    /** Explicit device copy (e.g. permute + contiguous). */
    TensorDesc copy(const TensorDesc& x);

  private:
    /** Append an op at the current scope. */
    void emit(OpKind kind, OpAttrs attrs);

    Trace& trace;
    DType dtype_;
    /**
     * The open scopes joined with '.', kept up to date as scopes open
     * and close so emitting an op copies it instead of re-joining.
     */
    std::string scopePath;
    /** scopePath's length before each open scope was appended. */
    std::vector<std::size_t> scopeLengths;
};

} // namespace mmgen::graph

#endif // MMGEN_GRAPH_BUILDER_HH
