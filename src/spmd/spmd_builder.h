#ifndef OVERLAP_SPMD_SPMD_BUILDER_H_
#define OVERLAP_SPMD_SPMD_BUILDER_H_

#include <string>
#include <vector>

#include "hlo/builder.h"
#include "support/status.h"
#include "tensor/mesh.h"
#include "tensor/sharding.h"

namespace overlap {

/**
 * A value in an SPMD program: the per-device instruction plus the logical
 * (global) shape and sharding it represents.
 */
struct ShardedValue {
    HloInstruction* local = nullptr;
    Shape global;
    TensorSharding sharding;
};

/**
 * GSPMD-lite: builds per-device HLO from sharded-tensor operations,
 * inserting the communication collectives that intra-layer model
 * parallelism requires (§2).
 *
 * `Einsum` is the workhorse. Given operand shardings and the desired
 * output sharding it applies, per einsum label:
 *  - contracting label sharded on the same mesh axis on both sides →
 *    contract locally, leaving a *partial* result pending a reduction
 *    over that axis;
 *  - contracting/batch label sharded on one side only (or on different
 *    axes) → AllGather the sharded operand(s) along that dimension;
 *  - free label sharded on an operand → output inherits the sharding if
 *    the desired output wants exactly that, else the operand is
 *    AllGathered.
 * Pending partial axes are then resolved with a ReduceScatter (when the
 * desired output is sharded along that axis) or an AllReduce; remaining
 * mismatches are fixed with an output AllGather or a local DynamicSlice.
 *
 * This reproduces the paper's two partitioning strategies exactly: the
 * 1-D weight-gather strategy of Figure 2 (weights AllGathered before
 * each einsum, ReduceScatters for weight gradients in backward) and the
 * 2-D strategy of Figure 3 (activations and weights AllGathered along
 * different mesh dimensions, subgroup ReduceScatter on the second
 * einsum's partially partitioned output).
 */
class SpmdBuilder {
  public:
    SpmdBuilder(HloComputation* computation, Mesh mesh)
        : builder_(computation),
          mesh_(std::move(mesh)),
          axis_groups_(static_cast<size_t>(mesh_.num_axes()))
    {
    }

    HloBuilder& hlo() { return builder_; }
    const Mesh& mesh() const { return mesh_; }

    /** Declares a sharded parameter; the local shape is the shard. */
    StatusOr<ShardedValue> Parameter(int64_t number, const Shape& global,
                                     const TensorSharding& sharding,
                                     const std::string& name = "");

    /** Sharded einsum with automatic collective insertion (see above). */
    StatusOr<ShardedValue> Einsum(const ShardedValue& lhs,
                                  const ShardedValue& rhs,
                                  const std::string& spec,
                                  const TensorSharding& desired_output);

    /** Element-wise add; both operands must have identical sharding. */
    StatusOr<ShardedValue> Add(const ShardedValue& lhs,
                               const ShardedValue& rhs);

    /**
     * AllGathers `value` along tensor dimension `dim` so the result is
     * replicated on that dim.
     */
    StatusOr<ShardedValue> AllGatherDim(const ShardedValue& value,
                                        int64_t dim);

    /**
     * All-to-all exchange along mesh axis `mesh_axis` on tensor dim
     * `dim` (MoE dispatch/combine; the global shape and sharding are
     * unchanged — shard *contents* move between devices).
     */
    StatusOr<ShardedValue> AllToAllDim(const ShardedValue& value,
                                       int64_t dim, int64_t mesh_axis);

    /** AllReduce over `mesh_axis` (e.g. data-parallel gradient sync). */
    ShardedValue AllReduceAxis(const ShardedValue& value,
                               int64_t mesh_axis);

  private:
    /**
     * The device groups along mesh axis `axis`, built the first time
     * they are asked for and shared by every collective this builder
     * emits along that axis (see ReplicaGroups).
     */
    const ReplicaGroups& AxisGroups(int64_t axis);

    HloBuilder builder_;
    Mesh mesh_;
    std::vector<ReplicaGroups> axis_groups_;
};

}  // namespace overlap

#endif  // OVERLAP_SPMD_SPMD_BUILDER_H_
