#include "spmd/spmd_builder.h"

#include <set>

#include "support/logging.h"
#include "support/strings.h"

namespace overlap {

const ReplicaGroups&
SpmdBuilder::AxisGroups(int64_t axis)
{
    OVERLAP_CHECK(axis >= 0 && axis < mesh_.num_axes());
    ReplicaGroups& groups = axis_groups_[static_cast<size_t>(axis)];
    if (groups.get() == nullptr) groups = mesh_.Groups(axis);
    return groups;
}

StatusOr<ShardedValue>
SpmdBuilder::Parameter(int64_t number, const Shape& global,
                       const TensorSharding& sharding,
                       const std::string& name)
{
    OVERLAP_RETURN_IF_ERROR(sharding.Validate(global, mesh_));
    ShardedValue value;
    value.global = global;
    value.sharding = sharding;
    value.local =
        builder_.Parameter(number, sharding.ShardShape(global, mesh_), name);
    return value;
}

StatusOr<ShardedValue>
SpmdBuilder::AllGatherDim(const ShardedValue& value, int64_t dim)
{
    int64_t axis = value.sharding.axis_for_dim(dim);
    if (axis < 0) return value;  // already replicated on this dim
    ShardedValue out = value;
    out.local = builder_.AllGather(value.local, dim, AxisGroups(axis));
    out.sharding.set_axis_for_dim(dim, -1);
    return out;
}

StatusOr<ShardedValue>
SpmdBuilder::AllToAllDim(const ShardedValue& value, int64_t dim,
                         int64_t mesh_axis)
{
    if (mesh_axis < 0 || mesh_axis >= mesh_.num_axes()) {
        return InvalidArgument("all-to-all mesh axis out of range");
    }
    int64_t local_dim = value.local->shape().dim(dim);
    if (local_dim % mesh_.axis_size(mesh_axis) != 0) {
        return InvalidArgument(
            StrCat("all-to-all dim ", dim, " (local size ", local_dim,
                   ") not divisible by axis size ",
                   mesh_.axis_size(mesh_axis)));
    }
    ShardedValue out = value;
    out.local =
        builder_.AllToAll(value.local, dim, AxisGroups(mesh_axis));
    return out;
}

ShardedValue
SpmdBuilder::AllReduceAxis(const ShardedValue& value, int64_t mesh_axis)
{
    ShardedValue out = value;
    out.local = builder_.AllReduce(value.local, AxisGroups(mesh_axis));
    return out;
}

StatusOr<ShardedValue>
SpmdBuilder::Add(const ShardedValue& lhs, const ShardedValue& rhs)
{
    if (!(lhs.sharding == rhs.sharding) ||
        !(lhs.global.SameDims(rhs.global))) {
        return InvalidArgument("add requires identically sharded operands");
    }
    ShardedValue out = lhs;
    out.local = builder_.Add(lhs.local, rhs.local);
    return out;
}

StatusOr<ShardedValue>
SpmdBuilder::Einsum(const ShardedValue& lhs, const ShardedValue& rhs,
                    const std::string& spec_str,
                    const TensorSharding& desired)
{
    auto parsed = EinsumSpec::Parse(spec_str);
    if (!parsed.ok()) return parsed.status();
    const EinsumSpec& spec = parsed.value();

    ShardedValue a = lhs;
    ShardedValue b = rhs;
    std::set<int64_t> partial_axes;
    int64_t out_rank = static_cast<int64_t>(spec.out_labels().size());
    if (desired.rank() != out_rank) {
        return InvalidArgument("desired output sharding rank mismatch");
    }
    TensorSharding current = TensorSharding::Replicated(out_rank);
    auto axis_in_use = [&current, out_rank](int64_t axis) {
        for (int64_t d = 0; d < out_rank; ++d) {
            if (current.axis_for_dim(d) == axis) return true;
        }
        return false;
    };

    // Phase 1: contracting and batch labels.
    for (char label : spec.all_labels()) {
        int64_t la = spec.LhsDimOf(label);
        int64_t ra = spec.RhsDimOf(label);
        int64_t lhs_ax = la >= 0 ? a.sharding.axis_for_dim(la) : -1;
        int64_t rhs_ax = ra >= 0 ? b.sharding.axis_for_dim(ra) : -1;
        switch (spec.KindOf(label)) {
          case EinsumDimKind::kContracting:
              if (lhs_ax >= 0 && lhs_ax == rhs_ax) {
                  // Both operands hold matching shards: contract locally,
                  // a reduction over the axis is still pending.
                  partial_axes.insert(lhs_ax);
              } else {
                  if (lhs_ax >= 0) {
                      auto gathered = AllGatherDim(a, la);
                      if (!gathered.ok()) return gathered.status();
                      a = std::move(gathered).value();
                  }
                  if (rhs_ax >= 0) {
                      auto gathered = AllGatherDim(b, ra);
                      if (!gathered.ok()) return gathered.status();
                      b = std::move(gathered).value();
                  }
              }
              break;
          case EinsumDimKind::kBatch: {
              int64_t out_dim = spec.OutDimOf(label);
              if (lhs_ax >= 0 && lhs_ax == rhs_ax) {
                  current.set_axis_for_dim(out_dim, lhs_ax);
              } else if (lhs_ax < 0 && rhs_ax < 0) {
                  int64_t want = desired.axis_for_dim(out_dim);
                  if (want >= 0 && !axis_in_use(want) &&
                      partial_axes.count(want) == 0) {
                      // Slice both operands locally instead of computing
                      // the replicated batch and discarding most of it.
                      int64_t size = a.global.dim(la) /
                                     mesh_.axis_size(want);
                      HloInstruction* offset = builder_.Multiply(
                          builder_.AxisIndex(want),
                          builder_.ConstantIndex(size));
                      a.local = builder_.DynamicSliceOnDim(a.local, la,
                                                           offset, size);
                      a.sharding.set_axis_for_dim(la, want);
                      HloInstruction* offset_b = builder_.Multiply(
                          builder_.AxisIndex(want),
                          builder_.ConstantIndex(size));
                      b.local = builder_.DynamicSliceOnDim(b.local, ra,
                                                           offset_b, size);
                      b.sharding.set_axis_for_dim(ra, want);
                      current.set_axis_for_dim(out_dim, want);
                  }
              } else {
                  // Mismatched batch shardings: gather the sharded sides
                  // (the one-sided gather is the paper's Case 3 target).
                  if (lhs_ax >= 0 && lhs_ax != rhs_ax) {
                      auto gathered = AllGatherDim(a, la);
                      if (!gathered.ok()) return gathered.status();
                      a = std::move(gathered).value();
                  }
                  if (rhs_ax >= 0 && rhs_ax != lhs_ax) {
                      // Re-check: lhs may now be replicated.
                      if (a.sharding.axis_for_dim(la) != rhs_ax) {
                          auto gathered = AllGatherDim(b, ra);
                          if (!gathered.ok()) return gathered.status();
                          b = std::move(gathered).value();
                      }
                  }
              }
              break;
          }
          default:
              break;  // free labels handled below
        }
    }

    // Phase 2: free labels.
    for (char label : spec.all_labels()) {
        EinsumDimKind kind = spec.KindOf(label);
        if (kind != EinsumDimKind::kLhsFree &&
            kind != EinsumDimKind::kRhsFree) {
            continue;
        }
        bool on_lhs = kind == EinsumDimKind::kLhsFree;
        ShardedValue& operand = on_lhs ? a : b;
        int64_t dim =
            on_lhs ? spec.LhsDimOf(label) : spec.RhsDimOf(label);
        int64_t out_dim = spec.OutDimOf(label);
        int64_t axis = operand.sharding.axis_for_dim(dim);
        int64_t want = desired.axis_for_dim(out_dim);
        if (axis >= 0) {
            if (axis == want && !axis_in_use(axis) &&
                partial_axes.count(axis) == 0) {
                current.set_axis_for_dim(out_dim, axis);
            } else {
                auto gathered = AllGatherDim(operand, dim);
                if (!gathered.ok()) return gathered.status();
                operand = std::move(gathered).value();
            }
        } else if (want >= 0 && !axis_in_use(want) &&
                   partial_axes.count(want) == 0) {
            // Compute only the desired output shard by slicing the free
            // dimension of the operand locally.
            int64_t size =
                operand.global.dim(dim) / mesh_.axis_size(want);
            if (operand.global.dim(dim) % mesh_.axis_size(want) == 0) {
                HloInstruction* offset = builder_.Multiply(
                    builder_.AxisIndex(want), builder_.ConstantIndex(size));
                operand.local = builder_.DynamicSliceOnDim(operand.local,
                                                           dim, offset,
                                                           size);
                operand.sharding.set_axis_for_dim(dim, want);
                current.set_axis_for_dim(out_dim, want);
            }
        }
    }

    // Local shard sizes of shared labels must agree now.
    for (char label : spec.all_labels()) {
        int64_t la = spec.LhsDimOf(label);
        int64_t ra = spec.RhsDimOf(label);
        if (la < 0 || ra < 0) continue;
        if (a.local->shape().dim(la) != b.local->shape().dim(ra)) {
            return Internal(
                StrCat("spmd einsum: local size mismatch on label '",
                       label, "' for ", spec_str));
        }
    }

    HloInstruction* local_out =
        builder_.Einsum(a.local, b.local, spec_str);

    // Phase 3: resolve pending partial reductions.
    for (int64_t axis : partial_axes) {
        int64_t d = desired.dim_for_axis(axis);
        if (d >= 0 && current.axis_for_dim(d) < 0) {
            local_out =
                builder_.ReduceScatter(local_out, d, AxisGroups(axis));
            current.set_axis_for_dim(d, axis);
        } else {
            local_out = builder_.AllReduce(local_out, AxisGroups(axis));
        }
    }

    // Phase 4: reconcile the remaining dims with the desired sharding.
    Shape out_global;
    {
        Shape lhs_global_shape = a.global;
        Shape rhs_global_shape = b.global;
        auto inferred =
            spec.InferOutputShape(lhs_global_shape, rhs_global_shape);
        if (!inferred.ok()) return inferred.status();
        out_global = std::move(inferred).value();
    }
    for (int64_t d = 0; d < out_rank; ++d) {
        int64_t cur = current.axis_for_dim(d);
        int64_t want = desired.axis_for_dim(d);
        if (cur == want) continue;
        if (cur >= 0 && want < 0) {
            local_out = builder_.AllGather(local_out, d, AxisGroups(cur));
            current.set_axis_for_dim(d, -1);
        } else if (cur < 0 && want >= 0) {
            if (axis_in_use(want)) {
                return Unimplemented(
                    StrCat("output axis ", want, " already used; cannot "
                           "shard dim ", d));
            }
            int64_t size = out_global.dim(d) / mesh_.axis_size(want);
            HloInstruction* offset = builder_.Multiply(
                builder_.AxisIndex(want), builder_.ConstantIndex(size));
            local_out =
                builder_.DynamicSliceOnDim(local_out, d, offset, size);
            current.set_axis_for_dim(d, want);
        } else {
            return Unimplemented(
                "resharding an output dim between mesh axes");
        }
    }

    ShardedValue out;
    out.local = local_out;
    out.global = out_global;
    out.sharding = current;
    return out;
}

}  // namespace overlap
