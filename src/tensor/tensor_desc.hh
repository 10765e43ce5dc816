/**
 * @file
 * Symbolic tensor descriptors.
 *
 * mmgen never materializes tensor data; a TensorDesc carries the shape,
 * element type, and strides of a tensor as it flows through an operator
 * graph. Strides matter: the spatial-vs-temporal attention study
 * (paper Section VI) hinges on the memory layout produced by dimension
 * permutations, which the cache simulator consumes via strides.
 */

#ifndef MMGEN_TENSOR_TENSOR_DESC_HH
#define MMGEN_TENSOR_TENSOR_DESC_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "tensor/dtype.hh"

namespace mmgen {

/**
 * The extents or strides of one tensor, stored inline.
 *
 * A descriptor owns no heap block, so shape inference allocates
 * nothing. Builds from braced lists and vectors; more than
 * `kCapacity` dimensions is a FatalError, never an overflow.
 */
class Dims
{
  public:
    /** Largest rank in the tree: NCDHW video tensors. */
    static constexpr std::size_t kCapacity = 5;

    using const_iterator = const std::int64_t*;

    Dims() = default;
    Dims(std::initializer_list<std::int64_t> dims);
    Dims(const std::vector<std::int64_t>& dims);

    std::size_t size() const { return size_; }

    const_iterator begin() const { return values_.data(); }
    const_iterator end() const { return values_.data() + size_; }

    std::int64_t& operator[](std::size_t i) { return values_[i]; }
    std::int64_t operator[](std::size_t i) const { return values_[i]; }
    std::int64_t& back() { return values_[size_ - 1]; }

    /** Same rank and same values (compares with vectors too). */
    friend bool
    operator==(const Dims& a, const Dims& b)
    {
        return std::ranges::equal(a, b);
    }

  private:
    /** Copy `n` values, rejecting a rank above the capacity. */
    void assign(const std::int64_t* values, std::size_t n);

    std::array<std::int64_t, kCapacity> values_{};
    std::size_t size_ = 0;
};

/**
 * Shape + dtype + strides of a symbolic tensor.
 *
 * Strides are in elements (not bytes), row-major by default.
 */
class TensorDesc
{
  public:
    /** Empty (rank-0, 1-element) descriptor. */
    TensorDesc();

    /** Contiguous row-major tensor of the given shape. */
    TensorDesc(const Dims& shape, DType dtype);

    /** Tensor with explicit strides (elements). */
    TensorDesc(const Dims& shape, const Dims& strides, DType dtype);

    /** Number of dimensions. */
    std::size_t rank() const { return shape_.size(); }

    /** Dimension extent; negative indices count from the back. */
    std::int64_t dim(std::int64_t i) const;

    /** Stride of a dimension in elements; negative indices allowed. */
    std::int64_t stride(std::int64_t i) const;

    /** Full shape. */
    const Dims& shape() const { return shape_; }

    /** Full strides (elements). */
    const Dims& strides() const { return strides_; }

    /** Element type. */
    DType dtype() const { return dtype_; }

    /** Total number of elements. */
    std::int64_t numel() const;

    /** Total logical size in bytes (numel * element size). */
    std::int64_t bytes() const;

    /** True if strides describe a dense row-major layout. */
    bool isContiguous() const;

    /**
     * Permuted view (no data movement): new dim i is old dim perm[i].
     * The result is typically non-contiguous; this is exactly the
     * rearrangement TTV models apply before temporal attention.
     */
    TensorDesc permute(const std::vector<std::size_t>& perm) const;

    /**
     * Reshape to a new shape with the same element count. Only valid
     * on contiguous tensors (mirrors framework semantics: reshaping a
     * permuted view first requires a copy).
     */
    TensorDesc reshape(const Dims& new_shape) const;

    /** Contiguous tensor of the same shape and dtype (i.e. post-copy). */
    TensorDesc contiguous() const;

    /** Element offset of the given index vector under the strides. */
    std::int64_t offsetOf(const std::vector<std::int64_t>& index) const;

    /** Human-readable form, e.g. "f16[2, 4096, 320]". */
    std::string str() const;

    /** Compute dense row-major strides for a shape. */
    static Dims contiguousStrides(const Dims& shape);

  private:
    Dims shape_;
    Dims strides_;
    DType dtype_;
};

} // namespace mmgen

#endif // MMGEN_TENSOR_TENSOR_DESC_HH
