#include "tensor_desc.hh"

#include <algorithm>
#include <sstream>

#include "util/logging.hh"

namespace mmgen {

Dims::Dims(std::initializer_list<std::int64_t> dims)
{
    assign(dims.begin(), dims.size());
}

Dims::Dims(const std::vector<std::int64_t>& dims)
{
    assign(dims.data(), dims.size());
}

void
Dims::assign(const std::int64_t* values, std::size_t n)
{
    MMGEN_CHECK(n <= kCapacity, "rank " << n << " exceeds the "
                                        << kCapacity
                                        << " dimensions a tensor holds");
    std::copy_n(values, n, values_.begin());
    size_ = n;
}

TensorDesc::TensorDesc()
    : shape_(), strides_(), dtype_(DType::F16)
{}

TensorDesc::TensorDesc(const Dims& shape, DType dtype)
    : shape_(shape), strides_(contiguousStrides(shape_)), dtype_(dtype)
{
    for (auto d : shape_)
        MMGEN_CHECK(d > 0, "non-positive dimension " << d);
}

TensorDesc::TensorDesc(const Dims& shape, const Dims& strides,
                       DType dtype)
    : shape_(shape), strides_(strides), dtype_(dtype)
{
    MMGEN_CHECK(shape_.size() == strides_.size(),
                "shape rank " << shape_.size() << " != stride rank "
                              << strides_.size());
    for (auto d : shape_)
        MMGEN_CHECK(d > 0, "non-positive dimension " << d);
}

std::int64_t
TensorDesc::dim(std::int64_t i) const
{
    const std::int64_t r = static_cast<std::int64_t>(rank());
    if (i < 0)
        i += r;
    MMGEN_CHECK(i >= 0 && i < r, "dim index " << i << " out of rank " << r);
    return shape_[static_cast<std::size_t>(i)];
}

std::int64_t
TensorDesc::stride(std::int64_t i) const
{
    const std::int64_t r = static_cast<std::int64_t>(rank());
    if (i < 0)
        i += r;
    MMGEN_CHECK(i >= 0 && i < r,
                "stride index " << i << " out of rank " << r);
    return strides_[static_cast<std::size_t>(i)];
}

std::int64_t
TensorDesc::numel() const
{
    std::int64_t n = 1;
    for (auto d : shape_)
        n *= d;
    return n;
}

std::int64_t
TensorDesc::bytes() const
{
    return numel() * static_cast<std::int64_t>(dtypeBytes(dtype_));
}

bool
TensorDesc::isContiguous() const
{
    return strides_ == contiguousStrides(shape_);
}

TensorDesc
TensorDesc::permute(const std::vector<std::size_t>& perm) const
{
    MMGEN_CHECK(perm.size() == rank(),
                "permutation arity " << perm.size() << " != rank "
                                     << rank());
    std::array<bool, Dims::kCapacity> seen{};
    Dims new_shape = shape_;
    Dims new_strides = strides_;
    for (std::size_t i = 0; i < rank(); ++i) {
        MMGEN_CHECK(perm[i] < rank(), "permutation index out of range");
        MMGEN_CHECK(!seen[perm[i]], "duplicate permutation index");
        seen[perm[i]] = true;
        new_shape[i] = shape_[perm[i]];
        new_strides[i] = strides_[perm[i]];
    }
    return TensorDesc(new_shape, new_strides, dtype_);
}

TensorDesc
TensorDesc::reshape(const Dims& new_shape) const
{
    MMGEN_CHECK(isContiguous(),
                "reshape of non-contiguous tensor " << str()
                    << "; call contiguous() first");
    std::int64_t n = 1;
    for (auto d : new_shape)
        n *= d;
    MMGEN_CHECK(n == numel(), "reshape element count mismatch: " << n
                                  << " vs " << numel());
    return TensorDesc(new_shape, dtype_);
}

TensorDesc
TensorDesc::contiguous() const
{
    return TensorDesc(shape_, dtype_);
}

std::int64_t
TensorDesc::offsetOf(const std::vector<std::int64_t>& index) const
{
    MMGEN_CHECK(index.size() == rank(), "index arity mismatch");
    std::int64_t off = 0;
    for (std::size_t i = 0; i < rank(); ++i) {
        MMGEN_CHECK(index[i] >= 0 && index[i] < shape_[i],
                    "index " << index[i] << " out of dim " << shape_[i]);
        off += index[i] * strides_[i];
    }
    return off;
}

std::string
TensorDesc::str() const
{
    std::ostringstream oss;
    oss << dtypeName(dtype_) << "[";
    for (std::size_t i = 0; i < shape_.size(); ++i) {
        if (i > 0)
            oss << ", ";
        oss << shape_[i];
    }
    oss << "]";
    if (!isContiguous())
        oss << "(strided)";
    return oss.str();
}

Dims
TensorDesc::contiguousStrides(const Dims& shape)
{
    Dims strides = shape;
    std::int64_t acc = 1;
    for (std::size_t i = shape.size(); i-- > 0;) {
        strides[i] = acc;
        acc *= shape[i];
    }
    return strides;
}

} // namespace mmgen
