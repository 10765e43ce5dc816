/**
 * @file
 * Tests for the graph builder: shape inference, scopes, emitted attrs.
 */

#include <gtest/gtest.h>

#include "graph/builder.hh"
#include "util/logging.hh"

namespace mmgen::graph {
namespace {

TEST(Builder, Conv2dShapeInference)
{
    Trace t;
    GraphBuilder b(t);
    const TensorDesc x({1, 4, 64, 64}, DType::F16);
    const TensorDesc y = b.conv2d(x, 320, 3, 1);
    EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{1, 320, 64, 64}));
    const TensorDesc z = b.conv2d(y, 320, 3, 2);
    EXPECT_EQ(z.shape(), (std::vector<std::int64_t>{1, 320, 32, 32}));
    ASSERT_EQ(t.size(), 2u);
    const auto& a = t.ops()[0].as<ConvAttrs>();
    EXPECT_EQ(a.inChannels, 4);
    EXPECT_EQ(a.outChannels, 320);
    EXPECT_EQ(a.kernelH, 3);
}

TEST(Builder, Conv2dRejectsBadShapes)
{
    Trace t;
    GraphBuilder b(t);
    EXPECT_THROW(b.conv2d(TensorDesc({4, 64, 64}, DType::F16), 8),
                 FatalError);
    EXPECT_THROW(
        b.conv2d(TensorDesc({1, 4, 63, 64}, DType::F16), 8, 3, 2),
        FatalError);
    EXPECT_THROW(
        b.conv2d(TensorDesc({1, 4, 64, 64}, DType::F16), 8, 3, 1, 3),
        FatalError);
}

TEST(Builder, Conv3dTemporalKernel)
{
    Trace t;
    GraphBuilder b(t);
    const TensorDesc x({1, 320, 16, 32, 32}, DType::F16);
    const TensorDesc y = b.conv3d(x, 320, 3, 1);
    EXPECT_EQ(y.shape(), x.shape());
    const auto& a = t.ops()[0].as<ConvAttrs>();
    EXPECT_EQ(a.kernelD, 3);
    EXPECT_EQ(a.kernelH, 1);
    EXPECT_EQ(a.inD, 16);
}

TEST(Builder, LinearFoldsLeadingDims)
{
    Trace t;
    GraphBuilder b(t);
    const TensorDesc x({2, 77, 768}, DType::F16);
    const TensorDesc y = b.linear(x, 1024);
    EXPECT_EQ(y.shape(), (std::vector<std::int64_t>{2, 77, 1024}));
    const auto& a = t.ops()[0].as<LinearAttrs>();
    EXPECT_EQ(a.rows, 2 * 77);
    EXPECT_EQ(a.inFeatures, 768);
    EXPECT_EQ(a.outFeatures, 1024);
    EXPECT_TRUE(a.hasBias);
}

TEST(Builder, AttentionDefaultsAndStrides)
{
    Trace t;
    GraphBuilder b(t);
    const TensorDesc o =
        b.attention(AttentionKind::SelfSpatial, 2, 8, 4096, 4096, 40);
    EXPECT_EQ(o.shape(), (std::vector<std::int64_t>{2, 4096, 320}));
    const auto& a = t.ops()[0].as<AttentionAttrs>();
    EXPECT_EQ(a.seqStrideElems, 8 * 40);
    EXPECT_EQ(a.featureStrideElems, 1);
    EXPECT_FALSE(a.causal);

    b.attention(AttentionKind::Temporal, 256, 8, 16, 16, 64,
                /*seq_stride=*/256, /*causal=*/false,
                /*feature_stride=*/4096);
    const auto& ta = t.ops()[1].as<AttentionAttrs>();
    EXPECT_EQ(ta.seqStrideElems, 256);
    EXPECT_EQ(ta.featureStrideElems, 4096);
}

TEST(Builder, AttentionRejectsBadDims)
{
    Trace t;
    GraphBuilder b(t);
    EXPECT_THROW(
        b.attention(AttentionKind::SelfSpatial, 0, 8, 16, 16, 64),
        FatalError);
    EXPECT_THROW(b.attention(AttentionKind::SelfSpatial, 1, 8, 16, 16,
                             64, 0, false, 0),
                 FatalError);
}

TEST(Builder, ScopesNest)
{
    Trace t;
    GraphBuilder b(t);
    {
        auto s1 = b.scope("unet");
        {
            auto s2 = b.scope("down0");
            b.silu(TensorDesc({4}, DType::F16));
        }
        b.silu(TensorDesc({4}, DType::F16));
    }
    b.silu(TensorDesc({4}, DType::F16));
    EXPECT_EQ(t.ops()[0].scope, "unet.down0");
    EXPECT_EQ(t.ops()[1].scope, "unet");
    EXPECT_EQ(t.ops()[2].scope, "");

    // Segments join with '.' exactly as written, empty ones included,
    // and closing a scope restores the parent path for its siblings.
    {
        auto s1 = b.scope("unet");
        {
            auto s2 = b.scope("");
            auto s3 = b.scope("x");
            b.silu(TensorDesc({4}, DType::F16));
        }
        {
            auto s2 = b.scope("up0");
            EXPECT_EQ(b.currentScope(), "unet.up0");
        }
        auto s2 = b.scope("up1");
        b.silu(TensorDesc({4}, DType::F16));
    }
    {
        auto s1 = b.scope("");
        auto s2 = b.scope("a");
        b.silu(TensorDesc({4}, DType::F16));
    }
    EXPECT_EQ(b.currentScope(), "");
    ASSERT_EQ(t.size(), 6u);
    EXPECT_EQ(t.ops()[3].scope, "unet..x");
    EXPECT_EQ(t.ops()[4].scope, "unet.up1");
    EXPECT_EQ(t.ops()[5].scope, ".a");
}

TEST(Builder, ResampleAdjustsSpatialDims)
{
    Trace t;
    GraphBuilder b(t);
    const TensorDesc x({1, 64, 16, 16}, DType::F16);
    EXPECT_EQ(b.upsample2x(x).shape(),
              (std::vector<std::int64_t>{1, 64, 32, 32}));
    EXPECT_EQ(b.downsample2x(x).shape(),
              (std::vector<std::int64_t>{1, 64, 8, 8}));
    const TensorDesc v({1, 64, 8, 16, 16}, DType::F16);
    EXPECT_EQ(b.upsample2x(v).shape(),
              (std::vector<std::int64_t>{1, 64, 8, 32, 32}));
    EXPECT_THROW(b.downsample2x(TensorDesc({1, 4, 3, 3}, DType::F16)),
                 FatalError);
}

TEST(Builder, ActivationCarriesFlopWeight)
{
    Trace t;
    GraphBuilder b(t);
    b.silu(TensorDesc({10}, DType::F16));
    b.gelu(TensorDesc({10}, DType::F16));
    EXPECT_DOUBLE_EQ(t.ops()[0].as<ElemAttrs>().flopsPerElement, 5.0);
    EXPECT_DOUBLE_EQ(t.ops()[1].as<ElemAttrs>().flopsPerElement, 8.0);
    EXPECT_EQ(t.ops()[0].as<ElemAttrs>().label, "silu");
}

TEST(Builder, SoftmaxRowsAndCols)
{
    Trace t;
    GraphBuilder b(t);
    b.softmax(TensorDesc({2, 8, 128, 128}, DType::F16));
    const auto& a = t.ops()[0].as<SoftmaxAttrs>();
    EXPECT_EQ(a.cols, 128);
    EXPECT_EQ(a.rows, 2 * 8 * 128);
}

TEST(Builder, EmbeddingAndCopy)
{
    Trace t;
    GraphBuilder b(t);
    const TensorDesc e = b.embedding(77, 768, 49408);
    EXPECT_EQ(e.shape(), (std::vector<std::int64_t>{77, 768}));
    const TensorDesc c = b.copy(e.permute({1, 0}));
    EXPECT_TRUE(c.isContiguous());
    EXPECT_EQ(t.ops()[1].as<CopyAttrs>().bytes, 77 * 768 * 2);
}

} // namespace
} // namespace mmgen::graph
