#include "builder.hh"

#include "util/logging.hh"

namespace mmgen::graph {

GraphBuilder::GraphBuilder(Trace& trace_, DType dtype)
    : trace(trace_), dtype_(dtype)
{}

GraphBuilder::Scope::Scope(GraphBuilder& builder_, std::string name)
    : builder(builder_)
{
    std::string& path = builder.scopePath;
    builder.scopeLengths.push_back(path.size());
    if (builder.scopeLengths.size() > 1)
        path += '.';
    path += name;
}

GraphBuilder::Scope::~Scope()
{
    builder.scopePath.resize(builder.scopeLengths.back());
    builder.scopeLengths.pop_back();
}

GraphBuilder::Scope
GraphBuilder::scope(std::string name)
{
    return Scope(*this, std::move(name));
}

void
GraphBuilder::emit(OpKind kind, OpAttrs attrs)
{
    // Compare with the op the slot holds before writing into it, field
    // by field as Op::operator== does, so no temporary Op is built and
    // a changed op's scope reuses the slot's string capacity.
    trace.put(
        [&](const Op& slot) {
            return slot.kind == kind && slot.scope == scopePath &&
                   slot.attrs == attrs && slot.dtype == dtype_ &&
                   slot.repeat == 1;
        },
        [&](Op& slot) {
            slot.kind = kind;
            slot.scope.assign(scopePath);
            slot.attrs = std::move(attrs);
            slot.dtype = dtype_;
            slot.repeat = 1;
        });
}

TensorDesc
GraphBuilder::conv2d(const TensorDesc& x, std::int64_t out_channels,
                     std::int64_t kernel, std::int64_t stride,
                     std::int64_t groups)
{
    MMGEN_CHECK(x.rank() == 4, "conv2d expects NCHW, got " << x.str());
    ConvAttrs a;
    a.batch = x.dim(0);
    a.inChannels = x.dim(1);
    a.inH = x.dim(2);
    a.inW = x.dim(3);
    a.outChannels = out_channels;
    a.kernelH = kernel;
    a.kernelW = kernel;
    a.strideH = stride;
    a.strideW = stride;
    a.groups = groups;
    MMGEN_CHECK(a.inChannels % groups == 0 && out_channels % groups == 0,
                "channels not divisible by groups");
    MMGEN_CHECK(a.inH % stride == 0 && a.inW % stride == 0,
                "spatial dims " << a.inH << "x" << a.inW
                                << " not divisible by stride " << stride);
    const TensorDesc out({a.batch, out_channels, a.outH(), a.outW()},
                         dtype_);
    emit(OpKind::Conv2D, a);
    return out;
}

TensorDesc
GraphBuilder::conv3d(const TensorDesc& x, std::int64_t out_channels,
                     std::int64_t kernel_d, std::int64_t kernel_hw,
                     std::int64_t stride_hw)
{
    MMGEN_CHECK(x.rank() == 5, "conv3d expects NCDHW, got " << x.str());
    ConvAttrs a;
    a.batch = x.dim(0);
    a.inChannels = x.dim(1);
    a.inD = x.dim(2);
    a.inH = x.dim(3);
    a.inW = x.dim(4);
    a.outChannels = out_channels;
    a.kernelD = kernel_d;
    a.kernelH = kernel_hw;
    a.kernelW = kernel_hw;
    a.strideH = stride_hw;
    a.strideW = stride_hw;
    MMGEN_CHECK(a.inH % stride_hw == 0 && a.inW % stride_hw == 0,
                "spatial dims not divisible by stride");
    const TensorDesc out(
        {a.batch, out_channels, a.inD, a.outH(), a.outW()}, dtype_);
    emit(OpKind::Conv3D, a);
    return out;
}

TensorDesc
GraphBuilder::linear(const TensorDesc& x, std::int64_t out_features,
                     bool bias)
{
    MMGEN_CHECK(x.rank() >= 1, "linear expects rank >= 1");
    LinearAttrs a;
    a.inFeatures = x.dim(-1);
    a.outFeatures = out_features;
    a.rows = x.numel() / a.inFeatures;
    a.hasBias = bias;
    Dims out_shape = x.shape();
    out_shape.back() = out_features;
    emit(OpKind::Linear, a);
    return TensorDesc(out_shape, dtype_);
}

TensorDesc
GraphBuilder::matmul(std::int64_t batch, std::int64_t m, std::int64_t n,
                     std::int64_t k)
{
    MatmulAttrs a;
    a.batch = batch;
    a.m = m;
    a.n = n;
    a.k = k;
    emit(OpKind::Matmul, a);
    return TensorDesc({batch, m, n}, dtype_);
}

TensorDesc
GraphBuilder::attention(AttentionKind kind, std::int64_t batch,
                        std::int64_t heads, std::int64_t seq_q,
                        std::int64_t seq_kv, std::int64_t head_dim,
                        std::int64_t seq_stride, bool causal,
                        std::int64_t feature_stride)
{
    MMGEN_CHECK(batch > 0 && heads > 0 && seq_q > 0 && seq_kv > 0 &&
                    head_dim > 0,
                "attention dims must be positive: b=" << batch << " h="
                    << heads << " sq=" << seq_q << " skv=" << seq_kv
                    << " d=" << head_dim);
    AttentionAttrs a;
    a.kind = kind;
    a.batch = batch;
    a.heads = heads;
    a.seqQ = seq_q;
    a.seqKv = seq_kv;
    a.headDim = head_dim;
    a.causal = causal;
    a.seqStrideElems = seq_stride > 0 ? seq_stride : heads * head_dim;
    MMGEN_CHECK(feature_stride >= 1, "feature stride must be >= 1");
    a.featureStrideElems = feature_stride;
    emit(OpKind::Attention, a);
    return TensorDesc({batch, seq_q, heads * head_dim}, dtype_);
}

TensorDesc
GraphBuilder::groupNorm(const TensorDesc& x, std::int64_t groups)
{
    MMGEN_CHECK(x.rank() >= 2, "groupNorm expects NC... input");
    NormAttrs a;
    a.numel = x.numel();
    a.channels = x.dim(1);
    a.groups = groups;
    emit(OpKind::GroupNorm, a);
    return x;
}

TensorDesc
GraphBuilder::layerNorm(const TensorDesc& x)
{
    NormAttrs a;
    a.numel = x.numel();
    a.channels = x.dim(-1);
    a.groups = 1;
    emit(OpKind::LayerNorm, a);
    return x;
}

TensorDesc
GraphBuilder::softmax(const TensorDesc& x)
{
    SoftmaxAttrs a;
    a.cols = x.dim(-1);
    a.rows = x.numel() / a.cols;
    emit(OpKind::Softmax, a);
    return x;
}

TensorDesc
GraphBuilder::activation(const TensorDesc& x, const std::string& label,
                         double flops_per_element)
{
    ElemAttrs a;
    a.numel = x.numel();
    a.arity = 1;
    a.flopsPerElement = flops_per_element;
    a.label = label;
    emit(OpKind::Elementwise, a);
    return x;
}

TensorDesc
GraphBuilder::silu(const TensorDesc& x)
{
    return activation(x, "silu", 5.0);
}

TensorDesc
GraphBuilder::gelu(const TensorDesc& x)
{
    return activation(x, "gelu", 8.0);
}

TensorDesc
GraphBuilder::binary(const TensorDesc& x, const std::string& label)
{
    ElemAttrs a;
    a.numel = x.numel();
    a.arity = 2;
    a.flopsPerElement = 1.0;
    a.label = label;
    emit(OpKind::Elementwise, a);
    return x;
}

TensorDesc
GraphBuilder::embedding(std::int64_t tokens, std::int64_t dim,
                        std::int64_t vocab)
{
    EmbeddingAttrs a;
    a.tokens = tokens;
    a.dim = dim;
    a.vocab = vocab;
    emit(OpKind::Embedding, a);
    return TensorDesc({tokens, dim}, dtype_);
}

TensorDesc
GraphBuilder::upsample2x(const TensorDesc& x)
{
    MMGEN_CHECK(x.rank() >= 3, "upsample2x expects ...HW input");
    ResampleAttrs a;
    a.numelIn = x.numel();
    a.numelOut = x.numel() * 4;
    emit(OpKind::Upsample, a);
    Dims shape = x.shape();
    shape[shape.size() - 2] *= 2;
    shape[shape.size() - 1] *= 2;
    return TensorDesc(shape, dtype_);
}

TensorDesc
GraphBuilder::downsample2x(const TensorDesc& x)
{
    MMGEN_CHECK(x.rank() >= 3, "downsample2x expects ...HW input");
    MMGEN_CHECK(x.dim(-2) % 2 == 0 && x.dim(-1) % 2 == 0,
                "odd spatial dims in downsample: " << x.str());
    ResampleAttrs a;
    a.numelIn = x.numel();
    a.numelOut = x.numel() / 4;
    emit(OpKind::Downsample, a);
    Dims shape = x.shape();
    shape[shape.size() - 2] /= 2;
    shape[shape.size() - 1] /= 2;
    return TensorDesc(shape, dtype_);
}

TensorDesc
GraphBuilder::copy(const TensorDesc& x)
{
    CopyAttrs a;
    a.bytes = x.bytes();
    emit(OpKind::Copy, a);
    return x.contiguous();
}

} // namespace mmgen::graph
