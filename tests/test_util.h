#ifndef OVERLAP_TESTS_TEST_UTIL_H_
#define OVERLAP_TESTS_TEST_UTIL_H_

#include <vector>

#include "core/overlap_compiler.h"
#include "hlo/module.h"
#include "tensor/mesh.h"
#include "tensor/sharding.h"
#include "tensor/tensor.h"

namespace overlap {
namespace testing_util {

/** Splits a global tensor into one shard per device of `mesh`. */
inline std::vector<Tensor>
ShardTensor(const Tensor& global, const TensorSharding& sharding,
            const Mesh& mesh)
{
    std::vector<Tensor> shards;
    shards.reserve(static_cast<size_t>(mesh.num_devices()));
    Shape shard_shape = sharding.ShardShape(global.shape(), mesh);
    for (int64_t d = 0; d < mesh.num_devices(); ++d) {
        std::vector<int64_t> offsets =
            sharding.ShardOffsets(global.shape(), mesh, d);
        shards.push_back(global.Slice(offsets, shard_shape.dims()));
    }
    return shards;
}

/** Reassembles per-device shards into the global tensor. */
inline Tensor
UnshardTensor(const std::vector<Tensor>& shards, const Shape& global_shape,
              const TensorSharding& sharding, const Mesh& mesh)
{
    Tensor global(global_shape);
    for (int64_t d = 0; d < mesh.num_devices(); ++d) {
        global = global.UpdateSlice(
            shards[static_cast<size_t>(d)],
            sharding.ShardOffsets(global_shape, mesh, d));
    }
    return global;
}

/** A pass that corrupts the graph: declares a wrong result shape. */
inline InjectedPass
CorruptingPass()
{
    return {"corrupt-shapes", [](HloModule* module) -> Status {
                HloComputation* comp = module->entry();
                comp->set_root(comp->AddInstruction(
                    HloOpcode::kNegate, Shape({3, 3}), {comp->root()}));
                return Status::Ok();  // the verifier must catch it
            }};
}

}  // namespace testing_util
}  // namespace overlap

#endif  // OVERLAP_TESTS_TEST_UTIL_H_
