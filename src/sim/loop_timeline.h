#ifndef OVERLAP_SIM_LOOP_TIMELINE_H_
#define OVERLAP_SIM_LOOP_TIMELINE_H_

#include <cstdint>

namespace overlap {

/**
 * The loop structures the decomposer can emit (passes/decompose.cc,
 * LoopEmitter). The cost model's timeline replay is specialized per
 * structure because the dependency shape — which transfers chain on
 * which channel, which combines fuse into the partial einsums, where
 * the prologue/epilogue sits — is what the old closed-form §5.5
 * estimate got wrong.
 *
 * The two AllToAll structures (DESIGN.md §18) differ from the ring
 * loops in that their per-peer exchanges do not chain: every chunk is
 * sliced straight from the loop input (dispatch) or produced by an
 * independent partial einsum (combine), so all of them can be in
 * flight at once, spread over both ring directions by each chunk's
 * shorter way around.
 */
enum class LoopStructure {
    kAllGatherUnidirectional = 0,
    kAllGatherBidirectional = 1,
    kAllGatherTwoWay = 2,
    kReduceScatterSingleChain = 3,
    kReduceScatterTwoChain = 4,
    kReduceScatterBidirectional = 5,
    kAllToAllDispatch = 6,
    kAllToAllCombine = 7,
};

inline constexpr int kNumLoopStructures = 8;

const char* LoopStructureName(LoopStructure structure);

/**
 * Everything the timeline replay needs to know about one decomposed
 * loop, reduced to per-unit seconds (no HLO). Filled by the §5.5 gate
 * from the matched site's shapes and the (possibly fault-derated)
 * CostModel; every field mirrors what SchedGraph/the engine would
 * compute for the emitted loop:
 *
 *  - `wire_seconds` is one ring hop's channel occupancy for the
 *    circulating buffer (bytes / derated link bandwidth, no latency);
 *    `hop_latency_seconds` is the per-hop arrival latency. The engine
 *    serializes transfers per (axis, direction) channel and delivers at
 *    channel-free + hops * latency; the replay does the same.
 *  - `partial_seconds` is one partial-einsum kernel (1/ring of the
 *    original einsum's FLOPs plus launch overhead).
 *  - `combine_seconds` is one *unfused* combine (DynamicUpdateSlice or
 *    Add) at full cost; fused combines are discounted by
 *    `fused_discount` exactly as SchedGraph does.
 *  - `slice_seconds` is one per-iteration DynamicSlice of an operand
 *    (0 when the case slices nothing); `slices_per_partial` says how
 *    many ride along with each partial einsum.
 *  - `zeros_seconds` is one accumulator zero-fill; `accumulators` how
 *    many the structure carries (the two-chain RS loops carry two).
 *  - `copy_seconds` models the loop-carried aliasing copy inserted
 *    before every permute when unrolling is off.
 *  - `op_overhead_seconds` is the per-kernel launch overhead already
 *    included in the *_seconds fields; the replay needs it separately
 *    to derive half-shard kernel costs for the two-way exchange.
 */
struct LoopShape {
    LoopStructure structure = LoopStructure::kAllGatherUnidirectional;
    int64_t ring = 0;  ///< N, devices on the ring (>= 2)
    double wire_seconds = 0.0;
    double hop_latency_seconds = 0.0;
    double partial_seconds = 0.0;
    double combine_seconds = 0.0;
    double slice_seconds = 0.0;
    int64_t slices_per_partial = 0;
    double zeros_seconds = 0.0;
    int64_t accumulators = 1;
    double copy_seconds = 0.0;
    bool has_copies = false;
    double op_overhead_seconds = 0.0;
    /// Two-way exchange: the static Slice splitting the local shard
    /// into the two halves sent in opposite directions. AllToAll
    /// dispatch: one sender-side DynamicSlice carving a per-peer chunk
    /// out of the loop input.
    double send_slice_seconds = 0.0;
    /// Contracting-dimension AllGather: every combine is a full-output
    /// Add (so the two-way half-combines don't shrink with the shard).
    bool combine_is_full_add = false;
    /// Scheduler budget on concurrent in-flight transfers; issuing past
    /// it stalls the device on the oldest outstanding arrival.
    int64_t max_in_flight = 32;
    /// SchedGraph::kFusedElementwiseDiscount.
    double fused_discount = 0.25;
};

/**
 * What the replay predicts for the loop: the overlapped wall span, the
 * serialized wire time (union of in-flight transfer intervals across
 * both ring channels — the gate's comm_t_ring), and how much of it
 * the device actually sat idle for.
 */
struct LoopTimeline {
    double span_seconds = 0.0;      ///< device wall time of the loop
    double compute_seconds = 0.0;   ///< sum of device kernel time
    double wire_seconds = 0.0;      ///< union of in-flight intervals
    double exposed_seconds = 0.0;   ///< union of device wait intervals

    /** Share of wire time hidden under compute (1.0 when no wire). */
    double HiddenFraction() const
    {
        if (wire_seconds <= 0.0) return 1.0;
        return (wire_seconds - exposed_seconds) / wire_seconds;
    }
};

/**
 * The §5.5 gate's cost model (DESIGN.md §15): replays a LoopShape's
 * dependency graph against the engine's channel semantics — ring-step
 * serialization per direction, prologue contention, fused-kernel
 * granularity, in-flight-budget stalls, per-step launch overhead — and
 * returns the predicted overlapped timeline the decomposition gate
 * consumes.
 */
LoopTimeline PredictLoopTimeline(const LoopShape& shape);

}  // namespace overlap

#endif  // OVERLAP_SIM_LOOP_TIMELINE_H_
