#ifndef OVERLAP_PASSES_SCHEDULE_H_
#define OVERLAP_PASSES_SCHEDULE_H_

#include "hlo/computation.h"
#include "sim/sched_graph.h"
#include "support/status.h"

namespace overlap {

/** Which §5.2 scheduling approach hides the communication latency. */
enum class SchedulerKind {
    /**
     * No overlap-aware reordering: the memory-minimizing list order is
     * used as-is (what a system without the paper's technique runs).
     * In a CompilerOptions it selects that system whole: the compiler
     * then skips the overlap passes (decomposition, async creation, the
     * concat rewrites) and only fuses and schedules the module — the
     * "original" system of Figures 4/5 that every evaluation section
     * compares against.
     */
    kBaselineOnly,
    /** The bottom-up list scheduler of Algorithm 2 (default; §6.3 shows
     *  it ~5% ahead of top-down). */
    kBottomUp,
    /** The top-down ASAP-Start / ALAP-Done scheduler with cost-based
     *  rebalancing. */
    kTopDown,
};

/**
 * Produces the memory-minimizing baseline order the paper's schedulers
 * take as input: a greedy list schedule that at each step picks the ready
 * unit with the smallest live-memory delta (bytes allocated minus operand
 * bytes freed), tie-breaking by program order.
 */
std::vector<const SchedUnit*> BaselineMemorySchedule(const SchedGraph& graph);

/**
 * Algorithm 2: bottom-up (reverse) list scheduling. Works through the
 * unit graph from the roots, prioritizing async Dones and
 * their users so that, after the final reversal, Starts sit as early and
 * Dones as late as the dependences and the in-flight budget
 * (`max_in_flight`) allow. The budget is a bound: no more than
 * `max_in_flight` transfers are ever outstanding (0 or less: no bound).
 * Falls back to the input order's relative positions to keep memory
 * pressure low.
 */
std::vector<const SchedUnit*> BottomUpSchedule(
    const SchedGraph& graph, const std::vector<const SchedUnit*>& input,
    int64_t max_in_flight);

/**
 * Top-down scheduling: each async Start moves as early as its
 * operands allow and each Done as late as its first user allows, after a
 * rebalancing step that redistributes the computation between the
 * permutes of each decomposed loop chain. Simpler than bottom-up but
 * keeps non-permute units in input order, which can leave overlap on the
 * table (§6.3).
 */
std::vector<const SchedUnit*> TopDownSchedule(
    const SchedGraph& graph, const std::vector<const SchedUnit*>& input,
    int64_t max_in_flight);

/**
 * Runs the requested scheduler over `computation` and attaches the
 * resulting instruction schedule. Checks only the schedule itself with
 * VerifySchedule (one entry per instruction, none repeated, every
 * instruction after its operands) and detaches it on failure. The rest
 * of the computation is the caller's to verify: the guarded pipeline
 * verifies the whole module once after this pass, as after every pass.
 */
Status ScheduleComputation(HloComputation* computation,
                           const CostModel& cost, SchedulerKind kind);

}  // namespace overlap

#endif  // OVERLAP_PASSES_SCHEDULE_H_
