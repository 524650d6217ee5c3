#include "tensor/shape.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "support/strings.h"

namespace overlap {

int64_t
DTypeSize(DType dtype)
{
    switch (dtype) {
      case DType::kF32: return 4;
      case DType::kBF16: return 2;
      case DType::kS32: return 4;
      case DType::kPred: return 1;
    }
    return 4;
}

const char*
DTypeName(DType dtype)
{
    switch (dtype) {
      case DType::kF32: return "f32";
      case DType::kBF16: return "bf16";
      case DType::kS32: return "s32";
      case DType::kPred: return "pred";
    }
    return "?";
}

Shape::Shape(DType dtype, std::span<const int64_t> dims) : dtype_(dtype)
{
    Allocate(static_cast<int64_t>(dims.size()));
    std::copy(dims.begin(), dims.end(), data());
}

Shape
Shape::OfRank(DType dtype, int64_t rank)
{
    Shape shape;
    shape.dtype_ = dtype;
    shape.Allocate(rank);
    std::fill_n(shape.data(), rank, int64_t{0});
    return shape;
}

Shape::Shape(const Shape& other) : dtype_(other.dtype_)
{
    Allocate(other.rank_);
    std::copy_n(other.data(), rank_, data());
}

Shape::Shape(Shape&& other) noexcept
{
    TakeFrom(other);
}

Shape&
Shape::operator=(const Shape& other)
{
    if (this == &other) return *this;
    if (rank_ != other.rank_) {
        Release();
        Allocate(other.rank_);
    }
    dtype_ = other.dtype_;
    std::copy_n(other.data(), rank_, data());
    return *this;
}

Shape&
Shape::operator=(Shape&& other) noexcept
{
    if (this == &other) return *this;
    Release();
    TakeFrom(other);
    return *this;
}

Shape::~Shape()
{
    Release();
}

void
Shape::Allocate(int64_t rank)
{
    if (rank > std::numeric_limits<int32_t>::max()) {
        throw std::length_error("shape rank too large");
    }
    if (rank > kInlineRank) heap_ = new int64_t[static_cast<size_t>(rank)];
    rank_ = static_cast<int32_t>(rank);
}

void
Shape::TakeFrom(Shape& other) noexcept
{
    dtype_ = other.dtype_;
    rank_ = other.rank_;
    if (other.spilled()) {
        heap_ = other.heap_;
        other.rank_ = 0;
    } else {
        std::copy_n(other.inline_, rank_, inline_);
    }
}

void
Shape::Release()
{
    if (spilled()) delete[] heap_;
    rank_ = 0;
}

void
Shape::ThrowOutOfRange(int64_t i) const
{
    throw std::out_of_range(StrCat("Shape dim index ", i,
                                   " out of range for rank ", rank_));
}

int64_t
Shape::num_elements() const
{
    int64_t n = 1;
    for (int64_t d : dims()) n *= d;
    return n;
}

bool
Shape::SameDims(const Shape& other) const
{
    return rank_ == other.rank_ &&
           std::equal(data(), data() + rank_, other.data());
}

std::string
Shape::ToString() const
{
    return StrCat(DTypeName(dtype_), "[", StrJoin(dims(), ","), "]");
}

}  // namespace overlap
