#ifndef OVERLAP_TENSOR_SHAPE_H_
#define OVERLAP_TENSOR_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

namespace overlap {

/**
 * Element type of a tensor.
 *
 * The functional interpreter computes in f32. The simulator only needs the
 * element *size*; bf16 exists so model graphs carry realistic byte counts.
 */
enum class DType : uint8_t {
    kF32 = 0,
    kBF16 = 1,
    kS32 = 2,
    kPred = 3,
};

/** Returns the size in bytes of one element of `dtype`. */
int64_t DTypeSize(DType dtype);

/** Returns a short name such as "f32". */
const char* DTypeName(DType dtype);

/**
 * The static shape of a dense, row-major tensor: a dtype plus a list of
 * dimension sizes. Rank 0 denotes a scalar.
 *
 * Up to kInlineRank dims live inside the object, so copying a shape of
 * any rank the models build allocates nothing; a larger rank spills its
 * dims to the heap. There is no rank limit.
 */
class Shape {
  public:
    static constexpr int64_t kInlineRank = 6;

    Shape() = default;
    Shape(DType dtype, std::span<const int64_t> dims);
    Shape(DType dtype, std::initializer_list<int64_t> dims)
        : Shape(dtype, std::span<const int64_t>(dims.begin(), dims.size()))
    {
    }

    /** Convenience f32 shape. */
    explicit Shape(std::span<const int64_t> dims) : Shape(DType::kF32, dims)
    {
    }
    explicit Shape(std::initializer_list<int64_t> dims)
        : Shape(DType::kF32, dims)
    {
    }

    /**
     * A shape of `rank` dims, all 0, for a caller that sets every dim
     * (set_dim) without building a temporary list.
     */
    static Shape OfRank(DType dtype, int64_t rank);

    Shape(const Shape& other);
    Shape(Shape&& other) noexcept;
    Shape& operator=(const Shape& other);
    Shape& operator=(Shape&& other) noexcept;
    ~Shape();

    DType dtype() const { return dtype_; }
    void set_dtype(DType dtype) { dtype_ = dtype; }

    int64_t rank() const { return rank_; }
    /** Dim `i`; throws std::out_of_range outside [0, rank). */
    int64_t dim(int64_t i) const
    {
        CheckIndex(i);
        return data()[i];
    }
    void set_dim(int64_t i, int64_t value)
    {
        CheckIndex(i);
        data()[i] = value;
    }
    std::span<const int64_t> dims() const
    {
        return {data(), static_cast<size_t>(rank_)};
    }

    /** Total number of elements (1 for scalars). */
    int64_t num_elements() const;

    /** Total size in bytes given the dtype. */
    int64_t byte_size() const { return num_elements() * DTypeSize(dtype_); }

    /** Returns e.g. "f32[128,256]". */
    std::string ToString() const;

    bool operator==(const Shape& other) const
    {
        return dtype_ == other.dtype_ && SameDims(other);
    }
    bool operator!=(const Shape& other) const { return !(*this == other); }

    /** True if dims match, ignoring dtype. */
    bool SameDims(const Shape& other) const;

  private:
    bool spilled() const { return rank_ > kInlineRank; }
    const int64_t* data() const { return spilled() ? heap_ : inline_; }
    int64_t* data() { return spilled() ? heap_ : inline_; }
    void CheckIndex(int64_t i) const
    {
        if (i < 0 || i >= rank_) ThrowOutOfRange(i);
    }
    [[noreturn]] void ThrowOutOfRange(int64_t i) const;

    /** Sets the rank of a shape holding none (rank 0); the dims are
     *  left uninitialized. */
    void Allocate(int64_t rank);
    /** Takes `other`'s dims (its heap block, if spilled) into a shape
     *  holding none; `other` is left valid. */
    void TakeFrom(Shape& other) noexcept;
    /** Frees spilled dims; leaves rank 0. */
    void Release();

    DType dtype_ = DType::kF32;
    int32_t rank_ = 0;  // beside dtype_, in the first 8 bytes
    union {
        int64_t inline_[kInlineRank];
        int64_t* heap_;  ///< rank_ > kInlineRank: owned, rank_ entries
    };
};

}  // namespace overlap

#endif  // OVERLAP_TENSOR_SHAPE_H_
