#include "hlo/instruction.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstring>
#include <mutex>

#include "support/strings.h"

namespace overlap {
namespace {

/**
 * Serializes the one-time einsum-spec parse. Parallelism is case-level
 * (each difftest or SDC case builds and evaluates its own modules), so
 * no instruction is read from two threads today; the fill stays
 * thread-safe anyway because it happens behind a const accessor, and
 * Clone shares the filled cache. A single process-wide mutex suffices
 * because each instruction parses at most once.
 */
std::mutex einsum_parse_mutex;

/** Group size for a collective; 0 if groups are unset (meaning "all"). */
int64_t
GroupSize(const InstrAttrs& attrs)
{
    if (attrs.groups.empty()) return 0;
    return static_cast<int64_t>(attrs.groups[0].size());
}

Status
CheckOperandCount(HloOpcode opcode,
                  const std::vector<HloInstruction*>& operands, size_t want)
{
    if (operands.size() != want) {
        return InvalidArgument(StrCat(HloOpcodeName(opcode), " expects ",
                                      want, " operands, got ",
                                      operands.size()));
    }
    return Status::Ok();
}

/**
 * "<opcode><suffix>.<id>", formatted without a stream: every
 * instruction built without a name gets one, so this runs once per
 * emitted instruction.
 */
std::string
DefaultName(const char* opcode_name, const char* suffix, int64_t id)
{
    char digits[20];  // "-9223372036854775808" is the longest int64_t
    char* digits_end = std::to_chars(digits, digits + sizeof(digits), id).ptr;
    std::string name;
    name.reserve(std::strlen(opcode_name) + std::strlen(suffix) + 1 +
                 static_cast<size_t>(digits_end - digits));
    name.append(opcode_name).append(suffix).push_back('.');
    name.append(digits, digits_end);
    return name;
}

}  // namespace

HloInstruction::HloInstruction(int64_t id, HloOpcode opcode, Shape shape,
                               std::vector<HloInstruction*> operands,
                               InstrAttrs attrs)
    : HloInstruction(id, opcode, std::move(shape), std::move(operands),
                     std::move(attrs), std::string())
{
    name_ = DefaultName(HloOpcodeName(collective_opcode()), AsyncSuffix(),
                        id);
}

HloInstruction::HloInstruction(int64_t id, HloOpcode opcode, Shape shape,
                               std::vector<HloInstruction*> operands,
                               InstrAttrs attrs, std::string name)
    : id_(id),
      opcode_(opcode),
      shape_(std::move(shape)),
      operands_(std::move(operands)),
      attrs_(std::move(attrs)),
      name_(std::move(name))
{
}

const EinsumSpec&
HloInstruction::einsum() const
{
    OVERLAP_CHECK(opcode_ == HloOpcode::kEinsum);
    const EinsumSpec* spec = TryEinsum();
    OVERLAP_CHECK(spec != nullptr);
    return *spec;
}

const EinsumSpec*
HloInstruction::TryEinsum() const
{
    // Double-checked: once the cache is set only mutable_attrs() clears
    // it, so a pointer observed through the acquire load stays valid
    // until the attributes are next mutated.
    if (const EinsumSpec* cached =
            einsum_cache_.load(std::memory_order_acquire)) {
        return cached;
    }
    std::lock_guard<std::mutex> lock(einsum_parse_mutex);
    if (!parsed_einsum_) {
        auto parsed = EinsumSpec::Parse(attrs_.einsum_spec);
        if (!parsed.ok()) return nullptr;
        parsed_einsum_ =
            std::make_shared<const EinsumSpec>(std::move(parsed).value());
        einsum_cache_.store(parsed_einsum_.get(), std::memory_order_release);
    }
    return parsed_einsum_.get();
}

void
HloInstruction::ReplaceOperand(int64_t i, HloInstruction* replacement)
{
    HloInstruction* old = operands_.at(static_cast<size_t>(i));
    if (old == replacement) return;
    operands_[static_cast<size_t>(i)] = replacement;
    // Either may appear as another operand of this instruction: drop the
    // user edge only when the last read of `old` is gone, and add one
    // only when `replacement` was not read already (its user list then
    // holds this instruction, so it is not searched).
    bool old_still_read = false;
    bool replacement_already_read = false;
    for (size_t j = 0; j < operands_.size(); ++j) {
        if (j == static_cast<size_t>(i)) continue;
        old_still_read |= operands_[j] == old;
        replacement_already_read |= operands_[j] == replacement;
    }
    if (!old_still_read) old->RemoveUser(this);
    if (!replacement_already_read) replacement->users_.push_back(this);
}

bool
HloInstruction::HasUser(const HloInstruction* candidate) const
{
    return std::find(users_.begin(), users_.end(), candidate) != users_.end();
}

void
HloInstruction::RemoveUser(HloInstruction* user)
{
    users_.erase(std::remove(users_.begin(), users_.end(), user),
                 users_.end());
}

const char*
HloInstruction::AsyncSuffix() const
{
    if (collective_opcode() == opcode_) return "";
    return opcode_ == HloOpcode::kAsyncStart ? "-start" : "-done";
}

std::string
HloInstruction::opcode_text() const
{
    return StrCat(HloOpcodeName(collective_opcode()), AsyncSuffix());
}

std::string
HloInstruction::ToString() const
{
    std::string out = StrCat("%", name_, " = ", shape_.ToString(), " ",
                             opcode_text(), "(");
    for (size_t i = 0; i < operands_.size(); ++i) {
        if (i > 0) out += ", ";
        out += StrCat("%", operands_[i]->name());
    }
    out += ")";
    // A Start prints the attributes of the collective it wraps.
    switch (IsAsyncStart(opcode_) ? collective_opcode() : opcode_) {
      case HloOpcode::kParameter:
          out += StrCat(", index=", attrs_.parameter_number);
          break;
      case HloOpcode::kConstant:
          // Small literals round-trip through the parser; large ones are
          // elided (and parse back as zeros).
          if (attrs_.literal != nullptr &&
              attrs_.literal->num_elements() <= 16) {
              out += StrCat(", value={",
                            StrJoin(attrs_.literal->values(), ","), "}");
          }
          break;
      case HloOpcode::kReshape:
          out += StrCat(", dims={", StrJoin(attrs_.sizes, ","), "}");
          break;
      case HloOpcode::kPad:
          out += StrCat(", low={", StrJoin(attrs_.pad_low, ","),
                        "}, high={", StrJoin(attrs_.pad_high, ","),
                        "}, value=", attrs_.pad_value);
          break;
      case HloOpcode::kEinsum:
          out += StrCat(", spec=", attrs_.einsum_spec);
          break;
      case HloOpcode::kSlice:
          out += StrCat(", starts={", StrJoin(attrs_.starts, ","),
                        "}, sizes={", StrJoin(attrs_.sizes, ","), "}");
          break;
      case HloOpcode::kDynamicSlice:
          out += StrCat(", sizes={", StrJoin(attrs_.sizes, ","), "}");
          break;
      case HloOpcode::kConcatenate:
          out += StrCat(", dim=", attrs_.dim);
          break;
      case HloOpcode::kAllGather:
      case HloOpcode::kReduceScatter:
      case HloOpcode::kAllToAll:
      case HloOpcode::kAllReduce: {
          if (collective_opcode() != HloOpcode::kAllReduce) {
              out += StrCat(", dim=", attrs_.dim);
          }
          std::vector<std::string> groups;
          groups.reserve(attrs_.groups.size());
          for (const auto& group : attrs_.groups) {
              groups.push_back(StrCat("{", StrJoin(group, ","), "}"));
          }
          out += StrCat(", groups=", StrJoin(groups, ""));
          break;
      }
      case HloOpcode::kTranspose:
          out += StrCat(", perm={", StrJoin(attrs_.permutation, ","), "}");
          break;
      case HloOpcode::kAxisIndex:
          out += StrCat(", axis=", attrs_.mesh_axis);
          break;
      case HloOpcode::kCollectivePermute: {
          std::vector<std::string> pairs;
          pairs.reserve(attrs_.source_target_pairs.size());
          for (const auto& [src, dst] : attrs_.source_target_pairs) {
              pairs.push_back(StrCat("{", src, ",", dst, "}"));
          }
          out += StrCat(", pairs=", StrJoin(pairs, ""));
          break;
      }
      default:
          break;
    }
    if (attrs_.channel_id >= 0) {
        out += StrCat(", channel=", attrs_.channel_id);
    }
    if (attrs_.a2a_chunk >= 0) {
        out += StrCat(", chunk=", attrs_.a2a_chunk);
    }
    if (sharding_.has_value()) {
        out += StrCat(", sharding=", sharding_->ToString());
    }
    if (fusion_group_ >= 0) out += StrCat(", fusion=", fusion_group_);
    if (loop_group_ >= 0) out += StrCat(", loop=", loop_group_);
    return out;
}

StatusOr<Shape>
InferInstructionShape(HloOpcode opcode,
                      const std::vector<HloInstruction*>& operands,
                      const InstrAttrs& attrs)
{
    switch (opcode) {
      case HloOpcode::kParameter:
      case HloOpcode::kConstant:
      case HloOpcode::kBroadcast:
          return InvalidArgument(
              StrCat(HloOpcodeName(opcode),
                     " carries an explicit shape; do not infer"));

      case HloOpcode::kPartitionId:
      case HloOpcode::kAxisIndex:
          return Shape(DType::kS32, {});

      case HloOpcode::kNegate:
      case HloOpcode::kCopy: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 1));
          return operands[0]->shape();
      }

      case HloOpcode::kAdd:
      case HloOpcode::kSubtract:
      case HloOpcode::kMultiply:
      case HloOpcode::kDivide:
      case HloOpcode::kMaximum:
      case HloOpcode::kMinimum:
      case HloOpcode::kRemainder: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 2));
          const Shape& lhs = operands[0]->shape();
          const Shape& rhs = operands[1]->shape();
          if (!lhs.SameDims(rhs)) {
              return InvalidArgument(
                  StrCat(HloOpcodeName(opcode), " operand dims mismatch: ",
                         lhs.ToString(), " vs ", rhs.ToString()));
          }
          return lhs;
      }

      case HloOpcode::kReshape: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 1));
          Shape target(operands[0]->shape().dtype(), attrs.sizes);
          if (target.num_elements() !=
              operands[0]->shape().num_elements()) {
              return InvalidArgument(
                  StrCat("reshape element count mismatch: ",
                         operands[0]->shape().ToString(), " -> ",
                         target.ToString()));
          }
          return target;
      }

      case HloOpcode::kTranspose: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 1));
          const Shape& in = operands[0]->shape();
          if (static_cast<int64_t>(attrs.permutation.size()) != in.rank()) {
              return InvalidArgument("transpose permutation rank mismatch");
          }
          Shape out = in;
          for (int64_t i = 0; i < in.rank(); ++i) {
              out.set_dim(i, in.dim(attrs.permutation[i]));
          }
          return out;
      }

      case HloOpcode::kConcatenate: {
          if (operands.empty()) {
              return InvalidArgument("concatenate needs >= 1 operand");
          }
          const Shape& first = operands[0]->shape();
          if (attrs.dim < 0 || attrs.dim >= first.rank()) {
              return InvalidArgument("concatenate dim out of range");
          }
          int64_t total = 0;
          for (const HloInstruction* op : operands) {
              const Shape& s = op->shape();
              if (s.rank() != first.rank()) {
                  return InvalidArgument("concatenate rank mismatch");
              }
              for (int64_t d = 0; d < first.rank(); ++d) {
                  if (d != attrs.dim && s.dim(d) != first.dim(d)) {
                      return InvalidArgument(
                          "concatenate non-concat dim mismatch");
                  }
              }
              total += s.dim(attrs.dim);
          }
          Shape out = first;
          out.set_dim(attrs.dim, total);
          return out;
      }

      case HloOpcode::kPad: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 1));
          const Shape& in = operands[0]->shape();
          if (static_cast<int64_t>(attrs.pad_low.size()) != in.rank() ||
              static_cast<int64_t>(attrs.pad_high.size()) != in.rank()) {
              return InvalidArgument("pad config rank mismatch");
          }
          Shape out = in;
          for (int64_t d = 0; d < in.rank(); ++d) {
              if (attrs.pad_low[d] < 0 || attrs.pad_high[d] < 0) {
                  return InvalidArgument("negative padding unsupported");
              }
              out.set_dim(d, in.dim(d) + attrs.pad_low[d] +
                                 attrs.pad_high[d]);
          }
          return out;
      }

      case HloOpcode::kSlice: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 1));
          const Shape& in = operands[0]->shape();
          if (static_cast<int64_t>(attrs.starts.size()) != in.rank() ||
              static_cast<int64_t>(attrs.sizes.size()) != in.rank()) {
              return InvalidArgument("slice config rank mismatch");
          }
          for (int64_t d = 0; d < in.rank(); ++d) {
              if (attrs.starts[d] < 0 ||
                  attrs.starts[d] + attrs.sizes[d] > in.dim(d)) {
                  return InvalidArgument("slice out of bounds");
              }
          }
          return Shape(in.dtype(), attrs.sizes);
      }

      case HloOpcode::kDynamicSlice: {
          if (operands.empty()) {
              return InvalidArgument("dynamic-slice needs a data operand");
          }
          const Shape& in = operands[0]->shape();
          if (static_cast<int64_t>(operands.size()) != 1 + in.rank()) {
              return InvalidArgument(
                  "dynamic-slice needs one start index per dim");
          }
          if (static_cast<int64_t>(attrs.sizes.size()) != in.rank()) {
              return InvalidArgument("dynamic-slice sizes rank mismatch");
          }
          for (int64_t d = 0; d < in.rank(); ++d) {
              if (attrs.sizes[d] < 0 || attrs.sizes[d] > in.dim(d)) {
                  return InvalidArgument("dynamic-slice size out of bounds");
              }
              if (operands[static_cast<size_t>(1 + d)]->shape().rank() != 0) {
                  return InvalidArgument(
                      "dynamic-slice start indices must be scalars");
              }
          }
          return Shape(in.dtype(), attrs.sizes);
      }

      case HloOpcode::kDynamicUpdateSlice: {
          if (operands.size() < 2) {
              return InvalidArgument(
                  "dynamic-update-slice needs data and update");
          }
          const Shape& in = operands[0]->shape();
          const Shape& update = operands[1]->shape();
          if (update.rank() != in.rank()) {
              return InvalidArgument(
                  "dynamic-update-slice update rank mismatch");
          }
          if (static_cast<int64_t>(operands.size()) != 2 + in.rank()) {
              return InvalidArgument(
                  "dynamic-update-slice needs one start index per dim");
          }
          for (int64_t d = 0; d < in.rank(); ++d) {
              if (update.dim(d) > in.dim(d)) {
                  return InvalidArgument(
                      "dynamic-update-slice update too large");
              }
          }
          return in;
      }

      case HloOpcode::kEinsum: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 2));
          auto spec = EinsumSpec::Parse(attrs.einsum_spec);
          if (!spec.ok()) return spec.status();
          return spec->InferOutputShape(operands[0]->shape(),
                                        operands[1]->shape());
      }

      case HloOpcode::kAllGather: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 1));
          int64_t group = GroupSize(attrs);
          if (group <= 0) {
              return InvalidArgument("all-gather requires explicit groups");
          }
          const Shape& in = operands[0]->shape();
          if (attrs.dim < 0 || attrs.dim >= in.rank()) {
              return InvalidArgument("all-gather dim out of range");
          }
          Shape out = in;
          out.set_dim(attrs.dim, in.dim(attrs.dim) * group);
          return out;
      }

      case HloOpcode::kReduceScatter: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 1));
          int64_t group = GroupSize(attrs);
          if (group <= 0) {
              return InvalidArgument(
                  "reduce-scatter requires explicit groups");
          }
          const Shape& in = operands[0]->shape();
          if (attrs.dim < 0 || attrs.dim >= in.rank()) {
              return InvalidArgument("reduce-scatter dim out of range");
          }
          if (in.dim(attrs.dim) % group != 0) {
              return InvalidArgument(
                  "reduce-scatter dim not divisible by group size");
          }
          Shape out = in;
          out.set_dim(attrs.dim, in.dim(attrs.dim) / group);
          return out;
      }

      case HloOpcode::kAllReduce: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 1));
          if (GroupSize(attrs) <= 0) {
              return InvalidArgument(
                  StrCat(HloOpcodeName(opcode), " requires explicit groups"));
          }
          return operands[0]->shape();
      }

      case HloOpcode::kAllToAll: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 1));
          int64_t group = GroupSize(attrs);
          if (group <= 0) {
              return InvalidArgument("all-to-all requires explicit groups");
          }
          const Shape& in = operands[0]->shape();
          if (attrs.dim < 0 || attrs.dim >= in.rank()) {
              return InvalidArgument("all-to-all dim out of range");
          }
          if (in.dim(attrs.dim) % group != 0) {
              return InvalidArgument(
                  "all-to-all dim not divisible by group size");
          }
          return in;
      }

      case HloOpcode::kCollectivePermute: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 1));
          if (attrs.source_target_pairs.empty()) {
              return InvalidArgument(
                  "collective-permute requires source-target pairs");
          }
          return operands[0]->shape();
      }

      case HloOpcode::kTuple:
          return Shape(DType::kF32, {});

      case HloOpcode::kAsyncStart: {
          if (!attrs.wrapped.has_value()) {
              return InvalidArgument("async-start wraps no collective");
          }
          const HloOpcode wrapped = *attrs.wrapped;
          if (!IsExchangeOp(wrapped) || IsAsyncStart(wrapped)) {
              return InvalidArgument(
                  StrCat("async-start wraps ", HloOpcodeName(wrapped),
                         ", not a sync exchange collective"));
          }
          return InferInstructionShape(wrapped, operands, attrs);
      }

      case HloOpcode::kAsyncDone: {
          OVERLAP_RETURN_IF_ERROR(CheckOperandCount(opcode, operands, 1));
          if (operands[0]->opcode() != HloOpcode::kAsyncStart) {
              return InvalidArgument(
                  "async-done operand must be an async-start");
          }
          return operands[0]->shape();
      }
    }
    return Internal("unhandled opcode in shape inference");
}

}  // namespace overlap
