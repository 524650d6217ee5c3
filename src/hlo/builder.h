#ifndef OVERLAP_HLO_BUILDER_H_
#define OVERLAP_HLO_BUILDER_H_

#include <string>
#include <utility>
#include <vector>

#include "hlo/computation.h"

namespace overlap {

/**
 * Ergonomic construction of HLO graphs with shape inference.
 *
 * The builder CHECK-fails on malformed construction — it is used by
 * library-internal code paths (partitioner, decomposer, model zoo) whose
 * inputs have already been validated; the HloVerifier provides the
 * recoverable-error path for externally supplied graphs.
 */
class HloBuilder {
  public:
    explicit HloBuilder(HloComputation* computation)
        : computation_(computation) {}

    HloComputation* computation() const { return computation_; }

    HloInstruction* Parameter(int64_t number, Shape shape,
                              const std::string& name = "");
    HloInstruction* Constant(Tensor literal);
    /** Scalar f32 constant. */
    HloInstruction* ConstantScalar(float value);
    /** Scalar s32 constant (index arithmetic). */
    HloInstruction* ConstantIndex(int64_t value);
    HloInstruction* PartitionId();
    HloInstruction* AxisIndex(int64_t mesh_axis);

    HloInstruction* Binary(HloOpcode opcode, HloInstruction* lhs,
                           HloInstruction* rhs);
    HloInstruction* Add(HloInstruction* lhs, HloInstruction* rhs)
    {
        return Binary(HloOpcode::kAdd, lhs, rhs);
    }
    HloInstruction* Subtract(HloInstruction* lhs, HloInstruction* rhs)
    {
        return Binary(HloOpcode::kSubtract, lhs, rhs);
    }
    HloInstruction* Multiply(HloInstruction* lhs, HloInstruction* rhs)
    {
        return Binary(HloOpcode::kMultiply, lhs, rhs);
    }
    HloInstruction* Maximum(HloInstruction* lhs, HloInstruction* rhs)
    {
        return Binary(HloOpcode::kMaximum, lhs, rhs);
    }
    HloInstruction* Remainder(HloInstruction* lhs, HloInstruction* rhs)
    {
        return Binary(HloOpcode::kRemainder, lhs, rhs);
    }

    /** Broadcasts a scalar to `shape`. */
    HloInstruction* Broadcast(HloInstruction* scalar, Shape shape);
    /** Zero-filled tensor of `shape`. */
    HloInstruction* Zeros(Shape shape);

    HloInstruction* Reshape(HloInstruction* operand,
                            std::vector<int64_t> dims);
    HloInstruction* Transpose(HloInstruction* operand,
                              std::vector<int64_t> permutation);
    HloInstruction* Concatenate(std::vector<HloInstruction*> parts,
                                int64_t dim);
    HloInstruction* Pad(HloInstruction* operand, std::vector<int64_t> low,
                        std::vector<int64_t> high, float value);
    HloInstruction* Slice(HloInstruction* operand,
                          std::vector<int64_t> starts,
                          std::vector<int64_t> sizes);

    /** Dynamic slice with one scalar start index per dimension. */
    HloInstruction* DynamicSlice(HloInstruction* operand,
                                 std::vector<HloInstruction*> starts,
                                 std::vector<int64_t> sizes);
    /**
     * Dynamic slice along a single dimension `dim` starting at scalar
     * `start`, taking `size` elements; other dims are taken whole.
     */
    HloInstruction* DynamicSliceOnDim(HloInstruction* operand, int64_t dim,
                                      HloInstruction* start, int64_t size);

    HloInstruction* DynamicUpdateSlice(HloInstruction* operand,
                                       HloInstruction* update,
                                       std::vector<HloInstruction*> starts);
    /** Update along a single dimension; other dims start at zero. */
    HloInstruction* DynamicUpdateSliceOnDim(HloInstruction* operand,
                                            HloInstruction* update,
                                            int64_t dim,
                                            HloInstruction* start);

    HloInstruction* Copy(HloInstruction* operand);
    HloInstruction* Negate(HloInstruction* operand);

    HloInstruction* Einsum(HloInstruction* lhs, HloInstruction* rhs,
                           const std::string& spec);

    HloInstruction* AllGather(HloInstruction* operand, int64_t dim,
                              std::vector<std::vector<int64_t>> groups);
    HloInstruction* ReduceScatter(HloInstruction* operand, int64_t dim,
                                  std::vector<std::vector<int64_t>> groups);
    HloInstruction* AllReduce(HloInstruction* operand,
                              std::vector<std::vector<int64_t>> groups);
    HloInstruction* AllToAll(HloInstruction* operand, int64_t dim,
                             std::vector<std::vector<int64_t>> groups);
    HloInstruction* AllToAllStart(HloInstruction* operand, int64_t dim,
                                  std::vector<std::vector<int64_t>> groups);
    HloInstruction* AllToAllDone(HloInstruction* start);
    HloInstruction* CollectivePermute(HloInstruction* operand,
                                      SourceTargetPairs pairs);
    HloInstruction* CollectivePermuteStart(HloInstruction* operand,
                                           SourceTargetPairs pairs);
    HloInstruction* CollectivePermuteDone(HloInstruction* start);

    /** Scalar node depending on all `values` (keeps them live). */
    HloInstruction* Tuple(std::vector<HloInstruction*> values);

  private:
    HloInstruction* AddInferred(HloOpcode opcode,
                                std::vector<HloInstruction*> operands,
                                InstrAttrs attrs);

    HloComputation* computation_;
};

}  // namespace overlap

#endif  // OVERLAP_HLO_BUILDER_H_
