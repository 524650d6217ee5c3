#ifndef OVERLAP_HLO_INSTRUCTION_H_
#define OVERLAP_HLO_INSTRUCTION_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hlo/opcode.h"
#include "tensor/einsum.h"
#include "support/status.h"
#include "tensor/shape.h"
#include "tensor/sharding.h"
#include "tensor/tensor.h"

namespace overlap {

class HloComputation;

/**
 * The {source, destination} device pairs of a CollectivePermute(Start):
 * an immutable list behind a shared pointer. Copying the attributes
 * (builder, async pass, Clone) copies the pointer, so all the permutes
 * of one ring shift share one list however many devices it names.
 * Nothing can change a list once built, so sharing is safe, and the
 * verifier checks each distinct list once (keyed by get()).
 */
class SourceTargetPairs {
  public:
    using Pair = std::pair<int64_t, int64_t>;
    using List = std::vector<Pair>;

    SourceTargetPairs() = default;
    SourceTargetPairs(List pairs)
        : list_(std::make_shared<const List>(std::move(pairs)))
    {
    }
    SourceTargetPairs(std::initializer_list<Pair> pairs)
        : SourceTargetPairs(List(pairs))
    {
    }

    /** The shared list; nullptr when none was set. */
    const List* get() const { return list_.get(); }

    bool empty() const { return size() == 0; }
    size_t size() const { return list_ ? list_->size() : 0; }
    const Pair& front() const { return list_->front(); }
    const Pair* begin() const { return list_ ? list_->data() : nullptr; }
    const Pair* end() const { return begin() + size(); }

  private:
    std::shared_ptr<const List> list_;
};

/**
 * Opcode-specific attributes. A single flat struct (rather than a class
 * hierarchy) keeps the IR compact; each opcode reads only its own fields
 * and the verifier checks the required ones are set.
 */
struct InstrAttrs {
    /// kParameter: position in the computation's parameter list.
    int64_t parameter_number = -1;

    /// kConstant: the literal value.
    std::optional<Tensor> literal;

    /// kEinsum: specification string, e.g. "bf,fh->bh".
    std::string einsum_spec;

    /// kSlice: static start offsets. kPad: unused.
    std::vector<int64_t> starts;
    /// kSlice / kDynamicSlice: result sizes per dimension.
    std::vector<int64_t> sizes;

    /// kPad: low/high edge padding per dimension and the padding value.
    std::vector<int64_t> pad_low;
    std::vector<int64_t> pad_high;
    float pad_value = 0.0f;

    /// kConcatenate / kAllGather / kReduceScatter / kAllToAll: the tensor
    /// dimension being concatenated / gathered / scattered / exchanged.
    int64_t dim = -1;

    /// kTranspose: output dim i reads input dim permutation[i].
    std::vector<int64_t> permutation;

    /// Collectives: device subgroups (each inner vector is one group, in
    /// ring order). Empty means one group containing all devices.
    std::vector<std::vector<int64_t>> groups;

    /// kCollectivePermute(Start): {source, destination} device pairs.
    SourceTargetPairs source_target_pairs;

    /// Collectives: optional channel id (-1 = none). An async Start and
    /// its Done carry the same id; the printer/parser round-trip it.
    int64_t channel_id = -1;

    /// Ring-decomposed AllToAll: which per-peer chunk (ring offset k in
    /// [1, ring)) a CollectivePermute emitted by the A2A loop carries.
    /// -1 everywhere else; diagnostic metadata the printer/parser
    /// round-trip and the verifier range-checks.
    int64_t a2a_chunk = -1;

    /// kAxisIndex: which mesh axis's coordinate to return.
    int64_t mesh_axis = -1;
};

/**
 * One node of the dataflow graph. Instructions are owned by their
 * HloComputation; operands/users are non-owning pointers within the same
 * computation.
 */
class HloInstruction {
  public:
    HloInstruction(int64_t id, HloOpcode opcode, Shape shape,
                   std::vector<HloInstruction*> operands, InstrAttrs attrs);

    /** Same, with an explicit name instead of "opcode.id". */
    HloInstruction(int64_t id, HloOpcode opcode, Shape shape,
                   std::vector<HloInstruction*> operands, InstrAttrs attrs,
                   std::string name);

    int64_t id() const { return id_; }
    HloOpcode opcode() const { return opcode_; }
    const Shape& shape() const { return shape_; }
    const InstrAttrs& attrs() const { return attrs_; }
    InstrAttrs& mutable_attrs() { return attrs_; }

    const std::string& name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    const std::vector<HloInstruction*>& operands() const { return operands_; }
    HloInstruction* operand(int64_t i) const
    {
        return operands_.at(static_cast<size_t>(i));
    }
    int64_t operand_count() const
    {
        return static_cast<int64_t>(operands_.size());
    }

    /** Users (instructions that read this one); no duplicates. */
    const std::vector<HloInstruction*>& users() const { return users_; }

    /**
     * Optional sharding annotation (set on global graphs before SPMD
     * partitioning; per-device graphs carry no shardings).
     */
    const std::optional<TensorSharding>& sharding() const { return sharding_; }
    void set_sharding(TensorSharding sharding)
    {
        sharding_ = std::move(sharding);
    }
    void clear_sharding() { sharding_.reset(); }

    /**
     * Fusion group this instruction was placed in by the fusion pass, or
     * -1. The scheduler and simulator treat a group as one kernel (see
     * DESIGN.md on the fusion substitution).
     */
    int64_t fusion_group() const { return fusion_group_; }
    void set_fusion_group(int64_t group) { fusion_group_ = group; }

    /**
     * Identifier of the decomposed CollectiveEinsum loop this instruction
     * belongs to, or -1. Used for diagnostics and for the rebalancing step
     * of the top-down scheduler.
     */
    int64_t loop_group() const { return loop_group_; }
    void set_loop_group(int64_t group) { loop_group_ = group; }

    /** The parsed einsum spec; only valid for kEinsum. */
    const EinsumSpec& einsum() const;

    /** Replaces operand `i`, updating user lists. */
    void ReplaceOperand(int64_t i, HloInstruction* replacement);

    /** True if `candidate` is among this instruction's users. */
    bool HasUser(const HloInstruction* candidate) const;

    /** One-line textual form: "%name = f32[...] opcode(%a, %b), attrs". */
    std::string ToString() const;

  private:
    friend class HloComputation;

    void AddUser(HloInstruction* user);
    void RemoveUser(HloInstruction* user);

    int64_t id_;
    HloOpcode opcode_;
    Shape shape_;
    std::vector<HloInstruction*> operands_;
    std::vector<HloInstruction*> users_;
    InstrAttrs attrs_;
    std::optional<TensorSharding> sharding_;
    int64_t fusion_group_ = -1;
    int64_t loop_group_ = -1;
    std::string name_;
    // Cached parse of attrs_.einsum_spec; set lazily by einsum() and
    // shared (it is immutable once set) with clones.
    mutable std::shared_ptr<const EinsumSpec> parsed_einsum_;
};

/**
 * Computes the result shape of an instruction from its opcode, operands
 * and attributes. Shared by the builder (to construct shapes) and the
 * verifier (to re-check them).
 */
StatusOr<Shape> InferInstructionShape(
    HloOpcode opcode, const std::vector<HloInstruction*>& operands,
    const InstrAttrs& attrs);

}  // namespace overlap

#endif  // OVERLAP_HLO_INSTRUCTION_H_
