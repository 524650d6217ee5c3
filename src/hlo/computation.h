#ifndef OVERLAP_HLO_COMPUTATION_H_
#define OVERLAP_HLO_COMPUTATION_H_

#include <memory>
#include <string>
#include <vector>

#include "hlo/instruction.h"

namespace overlap {

/**
 * A dataflow graph: an ordered list of instructions (insertion order is
 * always a valid topological order, because operands must exist before
 * their users are created), a parameter list and a root.
 *
 * Scheduling passes may attach an explicit instruction sequence (the
 * "schedule"); the simulator executes the schedule if present, otherwise
 * the insertion order.
 */
class HloComputation {
  public:
    explicit HloComputation(std::string name) : name_(std::move(name)) {}

    HloComputation(const HloComputation&) = delete;
    HloComputation& operator=(const HloComputation&) = delete;

    const std::string& name() const { return name_; }

    /**
     * Deep copy: clones every instruction (preserving ids, names,
     * fusion/loop groups, shardings and the order of each user list),
     * the root, an attached schedule and the id counters, so a pass
     * run on the clone produces the same module as on the original.
     * The instruction list must be in topological order (as
     * VerifyModule requires). The guarded pass pipeline clones its
     * verified input once per compile and once more per rollback.
     */
    std::unique_ptr<HloComputation> Clone() const;

    /**
     * Creates and appends an instruction with an explicit result shape.
     * Operand pointers must belong to this computation.
     */
    HloInstruction* AddInstruction(HloOpcode opcode, Shape shape,
                                   std::vector<HloInstruction*> operands,
                                   InstrAttrs attrs = {});

    /** All instructions in insertion (topological) order. */
    std::vector<HloInstruction*> instructions() const;
    int64_t instruction_count() const
    {
        return static_cast<int64_t>(instructions_.size());
    }

    /**
     * One past the largest instruction id: ids are dense (AddInstruction
     * allocates them in order and Clone keeps them), so per-instruction
     * state can live in a vector of this size indexed by id.
     */
    int64_t instruction_id_bound() const { return next_id_; }

    /** Parameters ordered by parameter_number. */
    std::vector<HloInstruction*> parameters() const;

    HloInstruction* root() const { return root_; }
    void set_root(HloInstruction* root) { root_ = root; }

    /**
     * Redirects every use of `old_instr` (including the root) to
     * `new_instr`. `old_instr` stays in the graph until DCE runs.
     */
    void ReplaceAllUsesWith(HloInstruction* old_instr,
                            HloInstruction* new_instr);

    /**
     * Removes instructions unreachable from the root (parameters are kept).
     * Returns the number of removed instructions. Also filters the
     * schedule, if one is attached.
     */
    int64_t RemoveDeadInstructions();

    /**
     * Restores the invariant that the instruction list is a topological
     * order (needed after a pass replaces uses of an early instruction
     * with a later-built one). Stable: keeps the original relative order
     * wherever dependencies allow. Clears any attached schedule.
     */
    void SortTopologically();

    /** Explicit execution order produced by a scheduling pass. */
    bool has_schedule() const { return !schedule_.empty(); }
    const std::vector<HloInstruction*>& schedule() const { return schedule_; }
    void set_schedule(std::vector<HloInstruction*> schedule);
    void clear_schedule() { schedule_.clear(); }

    /**
     * The execution sequence: the schedule if set, else insertion order.
     */
    std::vector<HloInstruction*> sequence() const;

    /** Next unused decomposed-loop group id. */
    int64_t NextLoopGroupId() { return next_loop_group_++; }

    /** Next unused fusion group id (shared by all fusion-forming passes). */
    int64_t NextFusionGroupId() { return next_fusion_group_++; }

    /**
     * Next unused collective channel id: one past the largest channel
     * in the graph. Computed by scanning (channels arrive via builders,
     * the parser and Clone alike, so a counter would go stale).
     */
    int64_t NextChannelId() const;

    /** Multi-line textual dump of the computation. */
    std::string ToString() const;

  private:
    std::string name_;
    std::vector<std::unique_ptr<HloInstruction>> instructions_;
    std::vector<HloInstruction*> schedule_;
    HloInstruction* root_ = nullptr;
    int64_t next_id_ = 0;
    int64_t next_loop_group_ = 0;
    int64_t next_fusion_group_ = 0;
};

}  // namespace overlap

#endif  // OVERLAP_HLO_COMPUTATION_H_
