/**
 * @file
 * Tests for tensor descriptors: shape algebra, strides, views.
 */

#include <gtest/gtest.h>

#include "tensor/tensor_desc.hh"
#include "util/logging.hh"

namespace mmgen {
namespace {

TEST(DType, SizesAndNames)
{
    EXPECT_EQ(dtypeBytes(DType::F16), 2u);
    EXPECT_EQ(dtypeBytes(DType::BF16), 2u);
    EXPECT_EQ(dtypeBytes(DType::F32), 4u);
    EXPECT_EQ(dtypeBytes(DType::I8), 1u);
    EXPECT_EQ(dtypeName(DType::F16), "f16");
    EXPECT_EQ(dtypeName(DType::I32), "i32");
}

TEST(TensorDesc, ContiguousStridesRowMajor)
{
    const TensorDesc t({2, 3, 4}, DType::F16);
    EXPECT_EQ(t.strides(), (std::vector<std::int64_t>{12, 4, 1}));
    EXPECT_TRUE(t.isContiguous());
    EXPECT_EQ(t.numel(), 24);
    EXPECT_EQ(t.bytes(), 48);
}

TEST(TensorDesc, NegativeDimIndexing)
{
    const TensorDesc t({2, 3, 4}, DType::F16);
    EXPECT_EQ(t.dim(-1), 4);
    EXPECT_EQ(t.dim(-3), 2);
    EXPECT_EQ(t.stride(-1), 1);
    EXPECT_THROW(t.dim(3), FatalError);
    EXPECT_THROW(t.dim(-4), FatalError);
}

TEST(TensorDesc, RejectsNonPositiveDims)
{
    EXPECT_THROW(TensorDesc({2, 0}, DType::F16), FatalError);
    EXPECT_THROW(TensorDesc({-1}, DType::F16), FatalError);
}

TEST(TensorDesc, PermuteSwapsShapeAndStrides)
{
    // The temporal-attention rearrangement: [B, C, F, HW] viewed with
    // the frame axis in sequence position.
    const TensorDesc x({1, 512, 16, 256}, DType::F16);
    const TensorDesc v = x.permute({0, 3, 2, 1});
    EXPECT_EQ(v.shape(), (std::vector<std::int64_t>{1, 256, 16, 512}));
    EXPECT_EQ(v.stride(1), 1);
    EXPECT_EQ(v.stride(2), 256);
    EXPECT_EQ(v.stride(3), 16 * 256);
    EXPECT_FALSE(v.isContiguous());
}

TEST(TensorDesc, PermuteValidatesIndices)
{
    const TensorDesc x({2, 3}, DType::F16);
    EXPECT_THROW(x.permute({0}), FatalError);
    EXPECT_THROW(x.permute({0, 0}), FatalError);
    EXPECT_THROW(x.permute({0, 2}), FatalError);
}

TEST(TensorDesc, ReshapeRequiresContiguity)
{
    const TensorDesc x({2, 3, 4}, DType::F16);
    const TensorDesc r = x.reshape({6, 4});
    EXPECT_EQ(r.shape(), (std::vector<std::int64_t>{6, 4}));
    EXPECT_THROW(x.reshape({5, 5}), FatalError);

    const TensorDesc permuted = x.permute({2, 1, 0});
    EXPECT_THROW(permuted.reshape({24}), FatalError);
    EXPECT_NO_THROW(permuted.contiguous().reshape({24}));
}

TEST(TensorDesc, OffsetOfFollowsStrides)
{
    const TensorDesc x({2, 3, 4}, DType::F16);
    EXPECT_EQ(x.offsetOf({0, 0, 0}), 0);
    EXPECT_EQ(x.offsetOf({1, 2, 3}), 12 + 8 + 3);
    const TensorDesc v = x.permute({2, 1, 0});
    EXPECT_EQ(v.offsetOf({3, 2, 1}), 3 + 8 + 12);
    EXPECT_THROW(x.offsetOf({2, 0, 0}), FatalError);
}

TEST(TensorDesc, StrAnnotatesStridedViews)
{
    const TensorDesc x({2, 4}, DType::F16);
    EXPECT_EQ(x.str(), "f16[2, 4]");
    EXPECT_EQ(x.permute({1, 0}).str(), "f16[4, 2](strided)");
}

TEST(TensorDesc, FullInlineRankKeepsViewResults)
{
    // NCDHW, the largest rank in the tree, fills the inline capacity.
    const TensorDesc x({2, 3, 4, 5, 6}, DType::F16);
    EXPECT_EQ(x.strides(),
              (std::vector<std::int64_t>{360, 120, 30, 6, 1}));
    const TensorDesc v = x.permute({0, 2, 1, 3, 4});
    EXPECT_EQ(v.shape(), (std::vector<std::int64_t>{2, 4, 3, 5, 6}));
    EXPECT_EQ(v.strides(),
              (std::vector<std::int64_t>{360, 30, 120, 6, 1}));
    EXPECT_FALSE(v.isContiguous());
    EXPECT_EQ(v.str(), "f16[2, 4, 3, 5, 6](strided)");
    EXPECT_EQ(v.offsetOf({1, 3, 2, 4, 5}), 360 + 90 + 240 + 24 + 5);
    EXPECT_THROW(v.reshape({720}), FatalError);
    const TensorDesc r = v.contiguous().reshape({6, 4, 30});
    EXPECT_EQ(r.shape(), (std::vector<std::int64_t>{6, 4, 30}));
    EXPECT_TRUE(r.isContiguous());
}

TEST(TensorDesc, RankAboveInlineCapacityIsFatal)
{
    EXPECT_THROW(TensorDesc({1, 2, 3, 4, 5, 6}, DType::F16), FatalError);
    EXPECT_THROW(TensorDesc(std::vector<std::int64_t>(6, 1), DType::F16),
                 FatalError);
    const TensorDesc x({2, 3, 4}, DType::F16);
    EXPECT_THROW(x.reshape({1, 1, 1, 2, 3, 4}), FatalError);
}

/** Property: permute twice with inverse permutation is identity. */
class PermuteRoundTrip
    : public ::testing::TestWithParam<std::vector<std::size_t>>
{};

TEST_P(PermuteRoundTrip, InverseRestores)
{
    const TensorDesc x({3, 5, 7, 11}, DType::F32);
    const auto& perm = GetParam();
    std::vector<std::size_t> inverse(perm.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        inverse[perm[i]] = i;
    const TensorDesc round = x.permute(perm).permute(inverse);
    EXPECT_EQ(round.shape(), x.shape());
    EXPECT_EQ(round.strides(), x.strides());
}

INSTANTIATE_TEST_SUITE_P(
    Permutations, PermuteRoundTrip,
    ::testing::Values(std::vector<std::size_t>{0, 1, 2, 3},
                      std::vector<std::size_t>{3, 2, 1, 0},
                      std::vector<std::size_t>{1, 0, 3, 2},
                      std::vector<std::size_t>{2, 3, 0, 1},
                      std::vector<std::size_t>{0, 2, 1, 3}));

} // namespace
} // namespace mmgen
