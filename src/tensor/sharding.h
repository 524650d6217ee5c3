#ifndef OVERLAP_TENSOR_SHARDING_H_
#define OVERLAP_TENSOR_SHARDING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "support/status.h"
#include "tensor/mesh.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace overlap {

/**
 * How a logical (global) tensor is laid out across a device Mesh: each
 * tensor dimension is either replicated or partitioned along one mesh axis.
 *
 * This is the subset of GSPMD sharding the paper's partitioning strategies
 * need — at most one mesh axis per tensor dimension, at most one tensor
 * dimension per mesh axis.
 */
class TensorSharding {
  public:
    TensorSharding() = default;

    /** Fully replicated sharding for a tensor of rank `rank`. */
    static TensorSharding Replicated(int64_t rank);

    /**
     * Sharding of a rank-`rank` tensor with `dim` split along `mesh_axis`.
     */
    static TensorSharding OnDim(int64_t rank, int64_t dim, int64_t mesh_axis);

    /** Sharding with two dims split along two different mesh axes. */
    static TensorSharding OnDims(int64_t rank, int64_t dim0,
                                 int64_t mesh_axis0, int64_t dim1,
                                 int64_t mesh_axis1);

    int64_t rank() const { return static_cast<int64_t>(dim_to_axis_.size()); }

    /** Mesh axis for tensor dim `dim`, or -1 if replicated. */
    int64_t axis_for_dim(int64_t dim) const { return dim_to_axis_.at(dim); }

    /** Re-assigns the mesh axis of `dim` (-1 to replicate it). */
    void set_axis_for_dim(int64_t dim, int64_t mesh_axis)
    {
        dim_to_axis_.at(static_cast<size_t>(dim)) = mesh_axis;
    }

    /** Tensor dim partitioned along `mesh_axis`, or -1 if none. */
    int64_t dim_for_axis(int64_t mesh_axis) const;

    bool IsReplicated() const;

    /** Validates against a mesh/global shape (divisibility, axis bounds). */
    Status Validate(const Shape& global, const Mesh& mesh) const;

    /** Per-device shard shape of `global` on `mesh`. */
    Shape ShardShape(const Shape& global, const Mesh& mesh) const;

    /**
     * Element offsets of `device`'s shard within the global tensor.
     */
    std::vector<int64_t> ShardOffsets(const Shape& global, const Mesh& mesh,
                                      int64_t device) const;

    /** Returns e.g. "{0:x,2:y}" or "{replicated}". */
    std::string ToString() const;

    bool operator==(const TensorSharding& other) const
    {
        return dim_to_axis_ == other.dim_to_axis_;
    }

  private:
    // dim_to_axis_[d] = mesh axis along which tensor dim d is split; -1
    // means dim d is not partitioned.
    std::vector<int64_t> dim_to_axis_;
};

/** Splits a global tensor into one shard per device of `mesh`. */
std::vector<Tensor> ShardTensor(const Tensor& global,
                                const TensorSharding& sharding,
                                const Mesh& mesh);

}  // namespace overlap

#endif  // OVERLAP_TENSOR_SHARDING_H_
