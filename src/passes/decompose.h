#ifndef OVERLAP_PASSES_DECOMPOSE_H_
#define OVERLAP_PASSES_DECOMPOSE_H_

#include <algorithm>
#include <string>

#include "hlo/computation.h"
#include "sim/cost_model.h"
#include "sim/fault_model.h"
#include "sim/loop_timeline.h"
#include "support/status.h"
#include "tensor/mesh.h"

namespace overlap {

/**
 * Decision margin of the §5.5 gate, as a fraction of the blocking time
 * comp_t + comm_t. The loop-timeline replay still carries a residual
 * prediction error (bounded in cost_model_test, DESIGN.md §15), so a
 * predicted benefit inside that error bar is noise, not signal: the
 * gate only decomposes when benefit > kGateDecisionMargin * (comp_t +
 * comm_t). This is what rejects tiny sites whose predicted win is a
 * few hundred picoseconds — rewriting the graph for a benefit the
 * model cannot resolve is never worth it.
 */
inline constexpr double kGateDecisionMargin = 0.02;

/**
 * The §5.5 cost terms of one site under one cost model and loop
 * structure. comm_t_ring and extra_t come from the loop-timeline replay
 * (PredictLoopTimeline): comm_t_ring is the predicted serialized wire
 * time (union of in-flight transfer intervals across both ring
 * channels) and extra_t the replay span's residual over max(comp_t,
 * comm_t_ring), so OverlappedSeconds() is the replay span.
 * Benefit() is the gate inequality net of the decision margin: the
 * gate decomposes when it is non-negative.
 *
 * BenefitBound() needs no replay. OverlappedSeconds() is never below
 * comp_t, and the bound is Benefit()'s own expression with comp_t in
 * its place, so under IEEE rounding Benefit() <= BenefitBound() holds
 * exactly, whatever the replay predicts. Before the replay comm_t_ring
 * and extra_t are zero and the two are equal; the pass replays a
 * candidate only while its bound can still beat the best benefit
 * replayed (DESIGN.md §15), and a skipped candidate keeps that cost.
 */
struct GateCost {
    double comp_t = 0.0;       ///< einsum kernel time
    double comm_t = 0.0;       ///< blocking-collective time
    double comm_t_ring = 0.0;  ///< predicted serialized wire time
    double extra_t = 0.0;      ///< replay span over max(comp, ring)
    /// The replay's predicted hidden share of comm_t_ring.
    double predicted_hidden_fraction = 0.0;
    /// Absolute decision margin: kGateDecisionMargin * (comp_t + comm_t).
    double margin = 0.0;
    /// The exact replay input (loop structure included) the terms above
    /// came from.
    LoopShape shape;

    /** comp_t + comm_t: the blocking structure the gate compares to. */
    double OriginalSeconds() const { return comp_t + comm_t; }

    /** max(comp_t, comm_t_ring) + extra_t: the decomposed loop. */
    double OverlappedSeconds() const
    {
        return std::max(comp_t, comm_t_ring) + extra_t;
    }

    double Benefit() const
    {
        return OriginalSeconds() - OverlappedSeconds() - margin;
    }

    /** The most Benefit() can be, for any comm_t_ring and extra_t. */
    double BenefitBound() const
    {
        return OriginalSeconds() - comp_t - margin;
    }
};

/** Tuning knobs of the Looped CollectiveEinsum rewrite (paper §5.1/§5.4). */
struct DecomposeOptions {
    /**
     * Loop unrolling with degree 2 (§5.4.1). In this IR the loop is
     * emitted fully unrolled, so the option controls the *structural*
     * effects of unrolling: without it, a Copy of the transferred buffer
     * is inserted before every CollectivePermute (modeling the
     * loop-carried aliasing copies of the naive loop), and the
     * Einsum-ReduceScatter case uses a single accumulation chain; with
     * it, the copies disappear and the ReduceScatter case uses the two
     * interleaved accumulation chains of Figure 8 plus the alignment
     * epilogue.
     */
    bool unroll = true;

    /**
     * Bidirectional data transfer (§5.4.2): two data streams circulate in
     * opposite ring directions, halving the number of serial ring steps;
     * the paired partial Einsums of an iteration execute as one kernel
     * (same fusion group). Adds the Figure 9 prologue (AllGather case) or
     * the Figure 10 epilogue (ReduceScatter case). Requires an even
     * number of partitions and an even shard extent (see
     * BidirectionalRingEligible); ineligible sites fall back to the
     * unidirectional loop.
     */
    bool bidirectional = true;

    /**
     * Match AllToAll dispatch/combine sites for the §18 ring
     * decomposition. Off, every AllToAll stays a blocking collective
     * (it can still be split into Start/Done pairs by
     * CompilerOptions::async_all_to_all) — the "blocking exchange" arm
     * of the MoE ablation in bench/moe_sweep.
     */
    bool all_to_all = true;

    /**
     * §5.5 gating: decompose a site only when
     * comp_t + comm_t >= max(comp_t, comm_t_ring) + extra_t. When false,
     * every matched site is decomposed unconditionally and in its
     * configured structure, since the fault-aware lowering to a
     * unidirectional loop is the gate's decision too (used by the
     * ablation bench); an einsum's candidates are still ranked by the
     * cost of that structure.
     */
    bool use_cost_model = true;

    /**
     * Deliberate off-by-one in the loop's shard-id arithmetic
     * (TEST-ONLY): every ShardId(delta) computes delta + 1 instead.
     * Exists so the difftest minimizer has a real, reproducible
     * mismatch to shrink; never set outside tests.
     */
    bool test_shard_id_bug = false;
};

/**
 * True when the §5.4.2 two-stream bidirectional structures (Figures
 * 9/10) are structurally legal: the ring must have an even number of
 * partitions (>= 4; N == 2 has its own exchange, below) and the
 * partitioned label's per-shard extent must be even, so the two
 * counter-rotating streams split the work into equal halves. Sites that
 * fail the predicate fall back to the unidirectional loop. The pass
 * reads it in one place, where it picks each site's loop structure;
 * the gate costs that structure and the emitter builds it.
 */
bool BidirectionalRingEligible(int64_t ring_size, int64_t shard_extent);

/**
 * True when the N == 2 two-way half-shard exchange (the §5.4.2 idea at
 * its smallest scale) is structurally legal: exactly two partitions and
 * an even shard extent (each direction carries half the shard). Read
 * where BidirectionalRingEligible is.
 */
bool TwoWayExchangeEligible(int64_t ring_size, int64_t shard_extent);

/**
 * The shared divisibility core of every split-eligibility predicate:
 * an extent can be carved into `parts` equal chunks. The two-stream
 * predicates above call it with parts == 2; the AllToAll ring
 * decomposition with parts == ring size. Factored so the gate, the
 * emitter and the verifier-facing shape inference can never disagree
 * about what "splits evenly" means.
 */
bool ChunkSplitEligible(int64_t parts, int64_t extent);

/**
 * True when the ring-decomposed AllToAll (DESIGN.md §18) is
 * structurally legal: at least two partitions and the exchanged
 * dimension's extent divisible by the ring size, so every device can
 * carve one equal chunk per peer.
 */
bool AllToAllRingEligible(int64_t ring_size, int64_t dim_extent);

/**
 * The §5.5 gate's verdict for one matched overlap site, including the
 * variance-aware re-costing against the slowest link/chip of the ring
 * when a fault model is attached. Recorded into DecomposeStats (and
 * thence CompileReport) so degraded-pod fallbacks are auditable.
 */
struct SiteDecision {
    std::string collective;  ///< name of the AG/RS at the site
    std::string einsum;      ///< name of the paired einsum
    /// Estimated original-minus-overlapped time on a healthy pod
    /// (equals cost.Benefit() without a fault model).
    double benefit_nominal = 0.0;
    bool decomposed = false;
    /// Fault-aware lowering: the gate emitted a structure other than
    /// the configured one, because the bidirectional (or two-way) loop
    /// no longer won but a unidirectional loop over the healthier
    /// direction still did.
    bool lowered_to_unidirectional = false;
    /// "decomposed", "rejected_by_cost_model" (unprofitable even when
    /// healthy) or "fault_fallback_blocking" (profitable when healthy
    /// but not on the degraded ring).
    std::string reason;

    /// §5.5 cost terms the verdict was computed from, under the model
    /// the gate actually used (re-costed against the slowest ring link
    /// and chip when a fault model is attached) and for the structure
    /// the gate settled on (unidirectional when lowered).
    GateCost cost;

    /// Loop group tagged onto the emitted loop's instructions (-1 when
    /// not decomposed) — the join key between this decision and the
    /// simulator's TraceEvents in the overlap-efficiency report.
    int64_t loop_group = -1;
};

/**
 * What the pass did, for logging, tests and the ablation benches.
 *
 * Every gated site lands in exactly one of three buckets — decomposed
 * (allgather_sites + reduce_scatter_sites + all_to_all_sites),
 * rejected_by_cost_model, or fault_fallbacks — so `decisions.size() ==
 * total_decomposed() + rejected_by_cost_model + fault_fallbacks` always
 * holds (asserted in compiler_guard_test). `fault_lowered` is a
 * sub-count of the decomposed bucket (sites emitted unidirectionally by
 * the gate), never a fourth bucket; a site the gate lowers and *then*
 * sends back to the blocking collective counts only as a fallback.
 */
struct DecomposeStats {
    int64_t allgather_sites = 0;       ///< AllGather-Einsum loops built
    int64_t reduce_scatter_sites = 0;  ///< Einsum-ReduceScatter loops built
    /// Ring-decomposed AllToAll dispatch/combine loops built (§18).
    int64_t all_to_all_sites = 0;
    int64_t rejected_by_cost_model = 0;
    int64_t skipped_unsupported = 0;
    /// Sites the variance-aware gate sent back to the blocking
    /// collective because the degraded ring no longer won.
    int64_t fault_fallbacks = 0;
    /// Of the decomposed sites, how many the gate emitted in a
    /// structure other than the configured one: a bidirectional or
    /// two-way loop lowered to the unidirectional loop. A site whose
    /// configured structure is already unidirectional never counts.
    int64_t fault_lowered = 0;
    /// Loop-timeline replays (PredictLoopTimeline calls) the gate made:
    /// one per candidate that could still win on nominal rates, plus
    /// every fault re-costing.
    int64_t gate_replays = 0;
    /// Per-site gate verdicts, in program order of the einsums.
    std::vector<SiteDecision> decisions;

    int64_t total_decomposed() const
    {
        return allgather_sites + reduce_scatter_sites + all_to_all_sites;
    }

    /**
     * The bucket-partition invariant above; every Run() result
     * satisfies it.
     */
    bool BucketsConsistent() const
    {
        return static_cast<int64_t>(decisions.size()) ==
                   total_decomposed() + rejected_by_cost_model +
                       fault_fallbacks &&
               fault_lowered <= total_decomposed();
    }
};

/**
 * The paper's primary contribution (§5.1): rewrites AllGather-Einsum and
 * Einsum-ReduceScatter pairs into semantically equivalent sequences of
 * partial Einsums interleaved with point-to-point CollectivePermutes.
 *
 * Handles the three AllGather cases (gathered operand partitioned along a
 * non-contracting / contracting / batch dimension), the ReduceScatter
 * case, loop unrolling, and bidirectional transfer; AllToAll-Einsum and
 * Einsum-AllToAll pairs (MoE dispatch/combine, DESIGN.md §18) decompose
 * into per-peer chunk exchanges interleaved with expert einsum slices.
 * Emitted CollectivePermutes are synchronous; the AsyncCollectiveCreator
 * pass later splits them into Start/Done pairs (§5.2).
 *
 * When an Einsum has several overlap candidates (two AllGathers, or an
 * AllGather and a ReduceScatter), the candidate with the higher estimated
 * benefit is chosen (§5.5).
 */
class CollectiveEinsumDecomposer {
  public:
    CollectiveEinsumDecomposer(Mesh mesh, const CostModel* cost_model,
                               DecomposeOptions options)
        : mesh_(std::move(mesh)),
          cost_model_(cost_model),
          options_(options) {}

    /**
     * Makes the §5.5 gate variance-aware: each site is re-costed with
     * the cost model derated to the slowest link/chip on its ring, and
     * the site falls back to the blocking collective (or to a
     * unidirectional loop) when the decomposed ring no longer wins.
     * Pass nullptr (or a fault-free model) to gate on nominal rates.
     * The pointer must outlive Run().
     */
    void set_fault_model(const FaultModel* fault) { fault_model_ = fault; }

    /** Rewrites all profitable sites in `computation`; runs DCE. */
    StatusOr<DecomposeStats> Run(HloComputation* computation);

  private:
    Mesh mesh_;
    const CostModel* cost_model_;
    const FaultModel* fault_model_ = nullptr;
    DecomposeOptions options_;
};

/**
 * Returns the {source, target} pairs of a CollectivePermute that moves
 * data `step` positions *down* along every ring of `axis` (data on ring
 * position j arrives at position j - step, wrapping). Negative `step`
 * moves data up (clockwise). `step` must not be a multiple of the ring
 * size (that permute would be the identity). Returns a fresh list; the
 * pass itself builds each (axis, step mod N) list once per Run and
 * shares it between all the permutes that shift by it.
 */
std::vector<std::pair<int64_t, int64_t>> RingShiftPairs(const Mesh& mesh,
                                                        int64_t axis,
                                                        int64_t step);

}  // namespace overlap

#endif  // OVERLAP_PASSES_DECOMPOSE_H_
