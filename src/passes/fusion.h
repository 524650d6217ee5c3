#ifndef OVERLAP_PASSES_FUSION_H_
#define OVERLAP_PASSES_FUSION_H_

#include "hlo/computation.h"
#include "support/status.h"

namespace overlap {

/** Which producer an accumulation fuses with (Figure 11). */
enum class FusionHeuristic {
    /**
     * XLA's default producer-consumer greed: an element-wise combiner
     * (Add / DynamicUpdateSlice / Maximum) fuses with its first einsum
     * operand in program order. In the unrolled CollectiveEinsum loop
     * this is typically the einsum *independent* of the in-flight
     * CollectivePermute, which makes the fused kernel transitively depend
     * on the async Done and serializes the three nodes (Figure 11 (a)).
     */
    kDefault,

    /**
     * The paper's fix: prioritize fusing the combiner with the einsum
     * that (directly or through the accumulator chain) consumes the
     * async Done, leaving the independent einsum free to overlap the
     * transfer (Figure 11 (b)).
     */
    kOverlapAware,
};

/**
 * Forms fusion groups over the computation. Fusion is modeled as a group
 * attribute (see DESIGN.md): the scheduler treats a group as one atomic
 * kernel whose dependencies are the union of the members' external
 * dependencies, and the simulator charges fused element-wise work at a
 * reduced memory cost. Groups already present (e.g. the concatenated
 * bidirectional einsum pairs emitted by the decomposer) are preserved.
 *
 * @return the number of groups formed.
 */
StatusOr<int64_t> RunFusionPass(HloComputation* computation,
                                FusionHeuristic heuristic);

/** True if one of `instr`'s operands is an async Done. */
bool DependsOnAsyncDone(const HloInstruction* instr);

}  // namespace overlap

#endif  // OVERLAP_PASSES_FUSION_H_
