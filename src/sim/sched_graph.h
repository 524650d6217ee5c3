#ifndef OVERLAP_SIM_SCHED_GRAPH_H_
#define OVERLAP_SIM_SCHED_GRAPH_H_

#include <span>
#include <vector>

#include "hlo/computation.h"
#include "sim/cost_model.h"

namespace overlap {

/**
 * One schedulable unit: a fusion group (executed as a single kernel) or a
 * lone instruction. Fusion is what makes this layer necessary — a fused
 * kernel starts only when the *union* of its members' external
 * dependencies is satisfied, which is exactly the Figure 11 effect the
 * paper's fusion heuristic manipulates.
 *
 * Units are owned by their SchedGraph, and the spans view the graph's
 * flat arrays: both live exactly as long as the graph.
 */
struct SchedUnit {
    /// Dense: a graph's units are numbered 0..units-1 in computation
    /// order, so schedulers index per-unit state by it.
    int64_t id = 0;
    /// Members in computation order (singletons have exactly one).
    std::span<HloInstruction* const> members;
    /// Distinct units this one reads from (external edges only), in
    /// order of first use.
    std::span<const SchedUnit* const> operands;
    /// Distinct units reading this one, by ascending id.
    std::span<const SchedUnit* const> users;
    /// Kernel wall time on the device (communication excluded: a Start's
    /// latency is its issue cost, a Done's is zero — the transfer itself
    /// is modeled by the simulator's link engine).
    double latency = 0.0;
    /// For both units of an async pair: the Start's
    /// CostModel::ExchangeSeconds, a permute's one-hop wire time or the
    /// wrapped collective's blocking-form duration (used by schedulers to
    /// space Start and Done apart; the simulator computes the actual time
    /// from link state).
    double transfer_seconds = 0.0;
    int64_t loop_group = -1;
    /// Bytes of the kernel's result buffer (its last member's output),
    /// which stays live until the unit's last user has run.
    int64_t output_bytes = 0;

    /** The Start half of an async pair, whatever it wraps. */
    bool IsAsyncStart() const
    {
        return members.size() == 1 &&
               overlap::IsAsyncStart(members[0]->opcode());
    }
    /** The Done half of an async pair, whatever it wraps. */
    bool IsAsyncDone() const
    {
        return members.size() == 1 &&
               overlap::IsAsyncDone(members[0]->opcode());
    }
};

/**
 * The unit-level dependence graph of a computation, with per-unit kernel
 * latencies from the cost model. Fused element-wise work is charged at
 * `kFusedElementwiseDiscount` of its standalone memory cost (fusion keeps
 * intermediates in registers/VMEM).
 *
 * Stored as a fixed handful of contiguous arrays, so building one makes
 * the same few heap allocations whatever the computation's size: the
 * units, and the members, operands and users of all units back to back
 * (each unit's spans view its run of them).
 */
class SchedGraph {
  public:
    static constexpr double kFusedElementwiseDiscount = 0.25;

    /** Builds the graph over `computation` in sequence order. */
    SchedGraph(const HloComputation& computation, const CostModel& cost);

    SchedGraph(const SchedGraph&) = delete;
    SchedGraph& operator=(const SchedGraph&) = delete;

    /** All units, indexed by id. */
    const std::vector<SchedUnit>& units() const { return units_; }
    /** The unit holding `instr`, which must belong to the computation. */
    const SchedUnit* unit_of(const HloInstruction* instr) const;

    /**
     * Expands a unit order into an instruction schedule (members of each
     * unit stay in computation order).
     */
    static std::vector<HloInstruction*> ExpandToInstructions(
        const std::vector<const SchedUnit*>& order);

    /**
     * Groups a computation's sequence into unit order (first occurrence
     * of each unit wins; members must be contiguous per unit for a valid
     * kernel schedule, which all schedulers in this library produce).
     */
    std::vector<const SchedUnit*> UnitOrderOf(
        const std::vector<HloInstruction*>& sequence) const;

  private:
    /// An instruction id's occupant and its unit's id. Holding the
    /// pointer (as the verifier's slots do) makes `unit_of` reject an
    /// instruction of another computation that shares a local id.
    struct Slot {
        const HloInstruction* instr = nullptr;
        int64_t unit = -1;
    };

    /** The id of `instr`'s unit (checked as `unit_of`). */
    int64_t UnitIndex(const HloInstruction* instr) const;

    std::vector<SchedUnit> units_;
    std::vector<HloInstruction*> members_;
    std::vector<const SchedUnit*> operands_;
    std::vector<const SchedUnit*> users_;
    /// By instruction id; empty for ids of dead-code-removed instructions.
    std::vector<Slot> slots_;
};

}  // namespace overlap

#endif  // OVERLAP_SIM_SCHED_GRAPH_H_
