#ifndef OVERLAP_SIM_SCHED_GRAPH_H_
#define OVERLAP_SIM_SCHED_GRAPH_H_

#include <memory>
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
 */
struct SchedUnit {
    /// Dense: a graph's units are numbered 0..units-1 in computation
    /// order, so schedulers index per-unit state by it.
    int64_t id = 0;
    /// Members in computation order (singletons have exactly one).
    std::vector<HloInstruction*> members;
    /// Distinct units this one reads from (external edges only).
    std::vector<SchedUnit*> operands;
    /// Distinct units reading this one.
    std::vector<SchedUnit*> users;
    /// Kernel wall time on the device (communication excluded: a Start's
    /// latency is its issue cost, a Done's is zero — the transfer itself
    /// is modeled by the simulator's link engine).
    double latency = 0.0;
    /// For CollectivePermuteStart/Done units: the one-hop wire time of
    /// the transfer (used by schedulers to space Start and Done apart;
    /// the simulator computes the actual time from link state).
    double transfer_seconds = 0.0;
    int64_t loop_group = -1;

    bool IsPermuteStart() const
    {
        return members.size() == 1 &&
               members[0]->opcode() == HloOpcode::kCollectivePermuteStart;
    }
    bool IsPermuteDone() const
    {
        return members.size() == 1 &&
               members[0]->opcode() == HloOpcode::kCollectivePermuteDone;
    }
    /** The Start half of any async pair (permute or all-to-all). */
    bool IsAsyncStart() const
    {
        return members.size() == 1 &&
               overlap::IsAsyncStart(members[0]->opcode());
    }
    /** The Done half of any async pair (permute or all-to-all). */
    bool IsAsyncDone() const
    {
        return members.size() == 1 &&
               overlap::IsAsyncDone(members[0]->opcode());
    }
    /** Bytes a Start unit puts on the wire. */
    int64_t TransferBytes() const
    {
        return members[0]->shape().byte_size();
    }
};

/**
 * The unit-level dependence graph of a computation, with per-unit kernel
 * latencies from the cost model. Fused element-wise work is charged at
 * `kFusedElementwiseDiscount` of its standalone memory cost (fusion keeps
 * intermediates in registers/VMEM).
 */
class SchedGraph {
  public:
    static constexpr double kFusedElementwiseDiscount = 0.25;

    /** Builds the graph over `computation` in sequence order. */
    SchedGraph(const HloComputation& computation, const CostModel& cost);

    SchedGraph(const SchedGraph&) = delete;
    SchedGraph& operator=(const SchedGraph&) = delete;

    const std::vector<std::unique_ptr<SchedUnit>>& units() const
    {
        return units_;
    }
    /** The unit holding `instr`, which must belong to the computation. */
    SchedUnit* unit_of(const HloInstruction* instr) const;

    /**
     * Expands a unit order into an instruction schedule (members of each
     * unit stay in computation order).
     */
    static std::vector<HloInstruction*> ExpandToInstructions(
        const std::vector<SchedUnit*>& order);

    /**
     * Groups a computation's sequence into unit order (first occurrence
     * of each unit wins; members must be contiguous per unit for a valid
     * kernel schedule, which all schedulers in this library produce).
     */
    std::vector<SchedUnit*> UnitOrderOf(
        const std::vector<HloInstruction*>& sequence) const;

  private:
    std::vector<std::unique_ptr<SchedUnit>> units_;
    /// By instruction id; null for ids of dead-code-removed instructions.
    std::vector<SchedUnit*> unit_of_;
};

}  // namespace overlap

#endif  // OVERLAP_SIM_SCHED_GRAPH_H_
