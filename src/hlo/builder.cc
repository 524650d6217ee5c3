#include "hlo/builder.h"

#include "support/logging.h"
#include "support/strings.h"

namespace overlap {

HloInstruction*
HloBuilder::AddInferred(HloOpcode opcode,
                        std::vector<HloInstruction*> operands,
                        InstrAttrs attrs)
{
    auto shape = InferInstructionShape(opcode, operands, attrs);
    if (!shape.ok()) {
        OVERLAP_LOG(kError) << "builder shape inference failed: "
                            << shape.status().ToString();
        OVERLAP_CHECK(shape.ok());
    }
    return computation_->AddInstruction(opcode, std::move(shape).value(),
                                        std::move(operands),
                                        std::move(attrs));
}

HloInstruction*
HloBuilder::Parameter(int64_t number, Shape shape, const std::string& name)
{
    InstrAttrs attrs;
    attrs.parameter_number = number;
    HloInstruction* instr = computation_->AddInstruction(
        HloOpcode::kParameter, std::move(shape), {}, std::move(attrs));
    if (!name.empty()) instr->set_name(name);
    return instr;
}

HloInstruction*
HloBuilder::Constant(Tensor literal)
{
    Shape shape = literal.shape();
    InstrAttrs attrs;
    attrs.literal = std::move(literal);
    return computation_->AddInstruction(HloOpcode::kConstant,
                                        std::move(shape), {},
                                        std::move(attrs));
}

HloInstruction*
HloBuilder::ConstantScalar(float value)
{
    return Constant(Tensor::Scalar(value));
}

HloInstruction*
HloBuilder::ConstantIndex(int64_t value)
{
    Tensor t(Shape(DType::kS32, {}), {static_cast<float>(value)});
    return Constant(std::move(t));
}

HloInstruction*
HloBuilder::PartitionId()
{
    return computation_->AddInstruction(HloOpcode::kPartitionId,
                                        Shape(DType::kS32, {}), {}, {});
}

HloInstruction*
HloBuilder::AxisIndex(int64_t mesh_axis)
{
    InstrAttrs attrs;
    attrs.mesh_axis = mesh_axis;
    return computation_->AddInstruction(HloOpcode::kAxisIndex,
                                        Shape(DType::kS32, {}), {},
                                        std::move(attrs));
}

HloInstruction*
HloBuilder::Binary(HloOpcode opcode, HloInstruction* lhs, HloInstruction* rhs)
{
    return AddInferred(opcode, {lhs, rhs}, {});
}

HloInstruction*
HloBuilder::Broadcast(HloInstruction* scalar, Shape shape)
{
    OVERLAP_CHECK(scalar->shape().rank() == 0);
    return computation_->AddInstruction(HloOpcode::kBroadcast,
                                        std::move(shape), {scalar}, {});
}

HloInstruction*
HloBuilder::Zeros(Shape shape)
{
    HloInstruction* zero = ConstantScalar(0.0f);
    return Broadcast(zero, std::move(shape));
}

HloInstruction*
HloBuilder::Reshape(HloInstruction* operand, std::vector<int64_t> dims)
{
    InstrAttrs attrs;
    attrs.sizes = std::move(dims);
    return AddInferred(HloOpcode::kReshape, {operand}, std::move(attrs));
}

HloInstruction*
HloBuilder::Transpose(HloInstruction* operand,
                      std::vector<int64_t> permutation)
{
    InstrAttrs attrs;
    attrs.permutation = std::move(permutation);
    return AddInferred(HloOpcode::kTranspose, {operand}, std::move(attrs));
}

HloInstruction*
HloBuilder::Concatenate(std::vector<HloInstruction*> parts, int64_t dim)
{
    InstrAttrs attrs;
    attrs.dim = dim;
    return AddInferred(HloOpcode::kConcatenate, std::move(parts),
                       std::move(attrs));
}

HloInstruction*
HloBuilder::Pad(HloInstruction* operand, std::vector<int64_t> low,
                std::vector<int64_t> high, float value)
{
    InstrAttrs attrs;
    attrs.pad_low = std::move(low);
    attrs.pad_high = std::move(high);
    attrs.pad_value = value;
    return AddInferred(HloOpcode::kPad, {operand}, std::move(attrs));
}

HloInstruction*
HloBuilder::Slice(HloInstruction* operand, std::vector<int64_t> starts,
                  std::vector<int64_t> sizes)
{
    InstrAttrs attrs;
    attrs.starts = std::move(starts);
    attrs.sizes = std::move(sizes);
    return AddInferred(HloOpcode::kSlice, {operand}, std::move(attrs));
}

HloInstruction*
HloBuilder::DynamicSlice(HloInstruction* operand,
                         std::vector<HloInstruction*> starts,
                         std::vector<int64_t> sizes)
{
    InstrAttrs attrs;
    attrs.sizes = std::move(sizes);
    std::vector<HloInstruction*> operands{operand};
    operands.insert(operands.end(), starts.begin(), starts.end());
    return AddInferred(HloOpcode::kDynamicSlice, std::move(operands),
                       std::move(attrs));
}

HloInstruction*
HloBuilder::DynamicSliceOnDim(HloInstruction* operand, int64_t dim,
                              HloInstruction* start, int64_t size)
{
    const Shape& in = operand->shape();
    std::vector<HloInstruction*> starts;
    std::vector<int64_t> sizes;
    HloInstruction* zero = nullptr;
    for (int64_t d = 0; d < in.rank(); ++d) {
        if (d == dim) {
            starts.push_back(start);
            sizes.push_back(size);
        } else {
            if (zero == nullptr) zero = ConstantIndex(0);
            starts.push_back(zero);
            sizes.push_back(in.dim(d));
        }
    }
    return DynamicSlice(operand, std::move(starts), std::move(sizes));
}

HloInstruction*
HloBuilder::DynamicUpdateSlice(HloInstruction* operand,
                               HloInstruction* update,
                               std::vector<HloInstruction*> starts)
{
    std::vector<HloInstruction*> operands{operand, update};
    operands.insert(operands.end(), starts.begin(), starts.end());
    return AddInferred(HloOpcode::kDynamicUpdateSlice, std::move(operands),
                       {});
}

HloInstruction*
HloBuilder::DynamicUpdateSliceOnDim(HloInstruction* operand,
                                    HloInstruction* update, int64_t dim,
                                    HloInstruction* start)
{
    const Shape& in = operand->shape();
    std::vector<HloInstruction*> starts;
    HloInstruction* zero = nullptr;
    for (int64_t d = 0; d < in.rank(); ++d) {
        if (d == dim) {
            starts.push_back(start);
        } else {
            if (zero == nullptr) zero = ConstantIndex(0);
            starts.push_back(zero);
        }
    }
    return DynamicUpdateSlice(operand, update, std::move(starts));
}

HloInstruction*
HloBuilder::Copy(HloInstruction* operand)
{
    return AddInferred(HloOpcode::kCopy, {operand}, {});
}

HloInstruction*
HloBuilder::Negate(HloInstruction* operand)
{
    return AddInferred(HloOpcode::kNegate, {operand}, {});
}

HloInstruction*
HloBuilder::Einsum(HloInstruction* lhs, HloInstruction* rhs,
                   const std::string& spec)
{
    InstrAttrs attrs;
    attrs.einsum_spec = spec;
    return AddInferred(HloOpcode::kEinsum, {lhs, rhs}, std::move(attrs));
}

HloInstruction*
HloBuilder::AllGather(HloInstruction* operand, int64_t dim,
                      std::vector<std::vector<int64_t>> groups)
{
    InstrAttrs attrs;
    attrs.dim = dim;
    attrs.groups = std::move(groups);
    return AddInferred(HloOpcode::kAllGather, {operand}, std::move(attrs));
}

HloInstruction*
HloBuilder::ReduceScatter(HloInstruction* operand, int64_t dim,
                          std::vector<std::vector<int64_t>> groups)
{
    InstrAttrs attrs;
    attrs.dim = dim;
    attrs.groups = std::move(groups);
    return AddInferred(HloOpcode::kReduceScatter, {operand},
                       std::move(attrs));
}

HloInstruction*
HloBuilder::AllReduce(HloInstruction* operand,
                      std::vector<std::vector<int64_t>> groups)
{
    InstrAttrs attrs;
    attrs.groups = std::move(groups);
    return AddInferred(HloOpcode::kAllReduce, {operand}, std::move(attrs));
}

HloInstruction*
HloBuilder::AllToAll(HloInstruction* operand, int64_t dim,
                     std::vector<std::vector<int64_t>> groups)
{
    InstrAttrs attrs;
    attrs.dim = dim;
    attrs.groups = std::move(groups);
    return AddInferred(HloOpcode::kAllToAll, {operand}, std::move(attrs));
}

HloInstruction*
HloBuilder::AllToAllStart(HloInstruction* operand, int64_t dim,
                          std::vector<std::vector<int64_t>> groups)
{
    InstrAttrs attrs;
    attrs.dim = dim;
    attrs.groups = std::move(groups);
    return AddInferred(HloOpcode::kAllToAllStart, {operand},
                       std::move(attrs));
}

HloInstruction*
HloBuilder::AllToAllDone(HloInstruction* start)
{
    // The Done carries its Start's channel so the verifier can match the
    // pair; dim/groups stay on the Start and are read through the operand
    // edge where pricing needs them.
    InstrAttrs attrs;
    attrs.channel_id = start->attrs().channel_id;
    return AddInferred(HloOpcode::kAllToAllDone, {start}, std::move(attrs));
}

HloInstruction*
HloBuilder::CollectivePermute(HloInstruction* operand,
                              SourceTargetPairs pairs)
{
    InstrAttrs attrs;
    attrs.source_target_pairs = std::move(pairs);
    return AddInferred(HloOpcode::kCollectivePermute, {operand},
                       std::move(attrs));
}

HloInstruction*
HloBuilder::CollectivePermuteStart(HloInstruction* operand,
                                   SourceTargetPairs pairs)
{
    InstrAttrs attrs;
    attrs.source_target_pairs = std::move(pairs);
    return AddInferred(HloOpcode::kCollectivePermuteStart, {operand},
                       std::move(attrs));
}

HloInstruction*
HloBuilder::CollectivePermuteDone(HloInstruction* start)
{
    return AddInferred(HloOpcode::kCollectivePermuteDone, {start}, {});
}

HloInstruction*
HloBuilder::Tuple(std::vector<HloInstruction*> values)
{
    return AddInferred(HloOpcode::kTuple, std::move(values), {});
}

}  // namespace overlap
