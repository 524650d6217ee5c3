#include "tensor/sharding.h"

#include "support/strings.h"

namespace overlap {

TensorSharding
TensorSharding::Replicated(int64_t rank)
{
    TensorSharding s;
    s.dim_to_axis_.assign(static_cast<size_t>(rank), -1);
    return s;
}

TensorSharding
TensorSharding::OnDim(int64_t rank, int64_t dim, int64_t mesh_axis)
{
    TensorSharding s = Replicated(rank);
    s.dim_to_axis_.at(static_cast<size_t>(dim)) = mesh_axis;
    return s;
}

TensorSharding
TensorSharding::OnDims(int64_t rank, int64_t dim0, int64_t mesh_axis0,
                       int64_t dim1, int64_t mesh_axis1)
{
    TensorSharding s = Replicated(rank);
    s.dim_to_axis_.at(static_cast<size_t>(dim0)) = mesh_axis0;
    s.dim_to_axis_.at(static_cast<size_t>(dim1)) = mesh_axis1;
    return s;
}

int64_t
TensorSharding::dim_for_axis(int64_t mesh_axis) const
{
    for (size_t d = 0; d < dim_to_axis_.size(); ++d) {
        if (dim_to_axis_[d] == mesh_axis) return static_cast<int64_t>(d);
    }
    return -1;
}

bool
TensorSharding::IsReplicated() const
{
    for (int64_t a : dim_to_axis_) {
        if (a >= 0) return false;
    }
    return true;
}

Status
TensorSharding::Validate(const Shape& global, const Mesh& mesh) const
{
    if (global.rank() != rank()) {
        return InvalidArgument(StrCat("sharding rank ", rank(),
                                      " != shape rank ", global.rank()));
    }
    std::vector<bool> axis_used(static_cast<size_t>(mesh.num_axes()), false);
    for (int64_t d = 0; d < rank(); ++d) {
        int64_t axis = dim_to_axis_[static_cast<size_t>(d)];
        if (axis < 0) continue;
        if (axis >= mesh.num_axes()) {
            return InvalidArgument(StrCat("mesh axis ", axis,
                                          " out of range for ",
                                          mesh.ToString()));
        }
        if (axis_used[static_cast<size_t>(axis)]) {
            return InvalidArgument(
                StrCat("mesh axis ", axis, " used by two tensor dims"));
        }
        axis_used[static_cast<size_t>(axis)] = true;
        if (global.dim(d) % mesh.axis_size(axis) != 0) {
            return InvalidArgument(StrCat("dim ", d, " of ",
                                          global.ToString(),
                                          " not divisible by mesh axis size ",
                                          mesh.axis_size(axis)));
        }
    }
    return Status::Ok();
}

Shape
TensorSharding::ShardShape(const Shape& global, const Mesh& mesh) const
{
    OVERLAP_CHECK(global.rank() == rank());
    Shape shard = global;
    for (int64_t d = 0; d < rank(); ++d) {
        int64_t axis = dim_to_axis_[static_cast<size_t>(d)];
        if (axis >= 0) {
            shard.set_dim(d, global.dim(d) / mesh.axis_size(axis));
        }
    }
    return shard;
}

std::vector<int64_t>
TensorSharding::ShardOffsets(const Shape& global, const Mesh& mesh,
                             int64_t device) const
{
    OVERLAP_CHECK(global.rank() == rank());
    std::vector<int64_t> coords = mesh.Coords(device);
    std::vector<int64_t> offsets(static_cast<size_t>(rank()), 0);
    for (int64_t d = 0; d < rank(); ++d) {
        int64_t axis = dim_to_axis_[static_cast<size_t>(d)];
        if (axis >= 0) {
            int64_t shard_size = global.dim(d) / mesh.axis_size(axis);
            offsets[static_cast<size_t>(d)] =
                coords[static_cast<size_t>(axis)] * shard_size;
        }
    }
    return offsets;
}

std::string
TensorSharding::ToString() const
{
    if (IsReplicated()) return "{replicated}";
    std::string out = "{";
    bool first = true;
    for (int64_t d = 0; d < rank(); ++d) {
        int64_t axis = dim_to_axis_[static_cast<size_t>(d)];
        if (axis < 0) continue;
        if (!first) out += ",";
        out += StrCat(d, ":", axis == 0 ? "x" : (axis == 1 ? "y" : "z"));
        first = false;
    }
    out += "}";
    return out;
}

std::vector<Tensor>
ShardTensor(const Tensor& global, const TensorSharding& sharding,
            const Mesh& mesh)
{
    std::vector<Tensor> shards;
    shards.reserve(static_cast<size_t>(mesh.num_devices()));
    Shape shard_shape = sharding.ShardShape(global.shape(), mesh);
    const std::vector<int64_t> shard_sizes(shard_shape.dims().begin(),
                                           shard_shape.dims().end());
    for (int64_t d = 0; d < mesh.num_devices(); ++d) {
        shards.push_back(
            global.Slice(sharding.ShardOffsets(global.shape(), mesh, d),
                         shard_sizes));
    }
    return shards;
}

}  // namespace overlap
