#ifndef OVERLAP_HLO_INSTRUCTION_H_
#define OVERLAP_HLO_INSTRUCTION_H_

#include <atomic>
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
 * A device list of a collective: an immutable vector behind a shared
 * pointer. Copying the attributes (builder, async pass, Clone) copies
 * the pointer, so every collective built from one list shares it
 * however many devices it names. Nothing can change a list once built,
 * so sharing is safe, and the verifier checks each distinct list once
 * (keyed by get()).
 */
template <typename T>
class SharedList {
  public:
    using List = std::vector<T>;

    SharedList() = default;
    SharedList(List items)
        : list_(std::make_shared<const List>(std::move(items)))
    {
    }
    SharedList(std::initializer_list<T> items) : SharedList(List(items)) {}

    /** The shared list; nullptr when none was set. */
    const List* get() const { return list_.get(); }

    /** The items as a vector; empty when none was set. */
    const List& list() const
    {
        static const List kEmpty;
        return list_ ? *list_ : kEmpty;
    }

    bool empty() const { return size() == 0; }
    size_t size() const { return list_ ? list_->size() : 0; }
    const T& front() const { return list_->front(); }
    const T& operator[](size_t i) const { return (*list_)[i]; }
    const T* begin() const { return list_ ? list_->data() : nullptr; }
    const T* end() const { return begin() + size(); }

  private:
    std::shared_ptr<const List> list_;
};

/**
 * The {source, destination} device pairs of a CollectivePermute (or of
 * an async Start wrapping one).
 * The decomposer shares one list per ring shift.
 */
using SourceTargetPairs = SharedList<std::pair<int64_t, int64_t>>;

/**
 * The device groups of a collective (each inner vector is one group, in
 * ring order). The SPMD builder shares one list per mesh axis.
 */
using ReplicaGroups = SharedList<std::vector<int64_t>>;

/**
 * Opcode-specific attributes. A single flat struct (rather than a class
 * hierarchy) keeps the IR compact; each opcode reads only its own fields
 * and the verifier checks the required ones are set.
 */
struct InstrAttrs {
    /// kParameter: position in the computation's parameter list.
    int64_t parameter_number = -1;

    /// kConstant: the literal value. Immutable once built, so copies of
    /// the attributes (Clone, passes) share it rather than copy it.
    std::shared_ptr<const Tensor> literal;

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
    ReplicaGroups groups;

    /// kCollectivePermute: {source, destination} device pairs.
    SourceTargetPairs source_target_pairs;

    /// kAsyncStart: the collective it wraps, whose attributes (pairs, or
    /// dim and groups) the Start carries. Its Done reads it from the
    /// Start, so the pair's kind is stored once.
    std::optional<HloOpcode> wrapped;

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

/** The attributes of a permute over `pairs`. */
inline InstrAttrs
PermuteAttrs(SourceTargetPairs pairs)
{
    InstrAttrs attrs;
    attrs.source_target_pairs = std::move(pairs);
    return attrs;
}

/**
 * The attributes of a group collective over `groups`, along tensor
 * dimension `dim` (an AllReduce has none: -1).
 */
inline InstrAttrs
GroupAttrs(int64_t dim, ReplicaGroups groups)
{
    InstrAttrs attrs;
    attrs.dim = dim;
    attrs.groups = std::move(groups);
    return attrs;
}

/**
 * One node of the dataflow graph. Instructions are owned by their
 * HloComputation, which constructs them in place and keeps each at a
 * fixed address until it is destroyed itself; operands/users are
 * non-owning pointers within the same computation.
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

    /**
     * The collective this instruction runs: for an async Start or Done,
     * the kind the Start wraps; for anything else (and a Start that wraps
     * nothing, or a Done without a Start), opcode(). Every per-kind
     * switch over collectives switches on this, so a permute and its
     * async pair share one case.
     */
    HloOpcode collective_opcode() const
    {
        const HloInstruction* start =
            opcode_ == HloOpcode::kAsyncDone && !operands_.empty()
                ? operands_[0]
                : this;
        if (start->opcode_ != HloOpcode::kAsyncStart) return opcode_;
        return start->attrs_.wrapped.value_or(opcode_);
    }

    /**
     * The opcode as the text form spells it: "<wrapped>-start" and
     * "<wrapped>-done" for an async pair, HloOpcodeName otherwise.
     */
    std::string opcode_text() const;

    const Shape& shape() const { return shape_; }
    const InstrAttrs& attrs() const { return attrs_; }
    /** Mutable attributes; drops the cached einsum parse, which the
     *  caller may be about to invalidate by reassigning einsum_spec. */
    InstrAttrs& mutable_attrs()
    {
        einsum_cache_.store(nullptr, std::memory_order_relaxed);
        parsed_einsum_.reset();
        return attrs_;
    }

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

    /**
     * The parsed einsum spec, or nullptr when einsum_spec does not
     * parse (a malformed module). Parsed once per instruction and shared
     * with its clones, like einsum().
     */
    const EinsumSpec* TryEinsum() const;

    /** Replaces operand `i`, updating user lists. */
    void ReplaceOperand(int64_t i, HloInstruction* replacement);

    /** True if `candidate` is among this instruction's users. */
    bool HasUser(const HloInstruction* candidate) const;

    /** One-line textual form: "%name = f32[...] opcode(%a, %b), attrs". */
    std::string ToString() const;

  private:
    friend class HloComputation;
    friend class HloBuilder;  // seeds the einsum parse it inferred with

    void RemoveUser(HloInstruction* user);

    /** "-start" / "-done" after the wrapped kind's name, or "". */
    const char* AsyncSuffix() const;

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
    // Cached parse of attrs_.einsum_spec; set lazily by TryEinsum(),
    // dropped by mutable_attrs(), and shared (it is immutable) with
    // clones. parsed_einsum_ owns the parse and is written under the
    // parse mutex; einsum_cache_ publishes its pointer, so a read that
    // finds the cache filled takes no lock.
    mutable std::shared_ptr<const EinsumSpec> parsed_einsum_;
    mutable std::atomic<const EinsumSpec*> einsum_cache_{nullptr};
};

/**
 * Computes the result shape of an instruction from its opcode, operands
 * and attributes. Shared by the builder (to construct shapes) and the
 * verifier (to re-check them). An async Start infers like the sync
 * collective it wraps, and fails when that is not one.
 */
StatusOr<Shape> InferInstructionShape(
    HloOpcode opcode, const std::vector<HloInstruction*>& operands,
    const InstrAttrs& attrs);

}  // namespace overlap

#endif  // OVERLAP_HLO_INSTRUCTION_H_
