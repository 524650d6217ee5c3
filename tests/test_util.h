#ifndef OVERLAP_TESTS_TEST_UTIL_H_
#define OVERLAP_TESTS_TEST_UTIL_H_

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "hlo/module.h"
#include "models/model_config.h"
#include "support/strings.h"
#include "tensor/mesh.h"
#include "tensor/sharding.h"
#include "tensor/tensor.h"

namespace overlap {
namespace testing_util {

/** Every Table 1 and Table 2 model, each once. */
inline std::vector<ModelConfig>
PaperModels()
{
    std::vector<ModelConfig> models = Table1Models();
    std::set<std::string> seen;
    for (const ModelConfig& m : models) seen.insert(m.name);
    for (const ModelConfig& m : Table2GptModels()) {
        if (seen.insert(m.name).second) models.push_back(m);
    }
    return models;
}

/** One moe_sweep grid point: a scaled-down GLaM layer on a 4 x `mesh_y`
 *  mesh (4 x 8 by default) with `experts` experts (16), its AllToAll
 *  ring on mesh y. */
inline ModelConfig
MoeSweepModel(int64_t micro_batches, int64_t mesh_y = 8,
              int64_t experts = 16)
{
    ModelConfig config;
    config.name = StrCat("moe_", 4 * mesh_y, "chip_", experts, "e");
    config.kind = ModelKind::kMoe;
    config.num_layers = 24;
    config.model_dim = 4096;
    config.ff_dim = 32768;
    config.batch_size = 16;
    config.seq_len = 1024;
    config.mesh_x = 4;
    config.mesh_y = mesh_y;
    config.num_chips = config.mesh_x * config.mesh_y;
    config.num_experts = experts;
    config.moe_micro_batches = micro_batches;
    return config;
}

/** One model compiled under one set of options, with the arm's name. */
struct ArmCompile {
    ModelConfig config;
    CompilerOptions options;
    std::string arm;
};

/**
 * The moe_sweep grid (4 x {4, 8, 16} meshes x {16, 64} experts) under
 * its three AllToAll arms: blocking, ring-decomposed and micro-batch
 * pipelined (four micro-batches).
 */
inline std::vector<ArmCompile>
MoeSweepArms()
{
    CompilerOptions blocking;
    blocking.decompose.all_to_all = false;
    CompilerOptions pipelined = blocking;
    pipelined.async_all_to_all = true;
    std::vector<ArmCompile> arms;
    for (int64_t mesh_y : {4, 8, 16}) {
        for (int64_t experts : {16, 64}) {
            arms.push_back(
                {MoeSweepModel(1, mesh_y, experts), blocking, "blocking"});
            arms.push_back({MoeSweepModel(1, mesh_y, experts),
                            CompilerOptions(), "decomposed"});
            arms.push_back(
                {MoeSweepModel(4, mesh_y, experts), pipelined, "pipelined"});
        }
    }
    return arms;
}

/** A shape's dims as a vector, for comparing with an expected list. */
inline std::vector<int64_t>
DimsOf(const Shape& shape)
{
    return std::vector<int64_t>(shape.dims().begin(), shape.dims().end());
}

/** True when two tensors have one shape and byte-identical payloads. */
inline bool
BitEqual(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           (a.num_elements() == 0 ||
            std::memcmp(a.data(), b.data(),
                        static_cast<size_t>(a.num_elements()) *
                            sizeof(float)) == 0);
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
