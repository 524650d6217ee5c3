#include "passes/decompose.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <optional>
#include <tuple>
#include <unordered_map>

#include "hlo/builder.h"
#include "support/logging.h"
#include "support/strings.h"

namespace overlap {

std::vector<std::pair<int64_t, int64_t>>
RingShiftPairs(const Mesh& mesh, int64_t axis, int64_t step)
{
    int64_t n = mesh.axis_size(axis);
    OVERLAP_CHECK(((step % n) + n) % n != 0);
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (const auto& group : mesh.Groups(axis)) {
        for (int64_t j = 0; j < n; ++j) {
            int64_t dst = ((j - step) % n + n) % n;
            pairs.emplace_back(group[static_cast<size_t>(j)],
                               group[static_cast<size_t>(dst)]);
        }
    }
    return pairs;
}

bool
ChunkSplitEligible(int64_t parts, int64_t extent)
{
    return parts >= 2 && extent > 0 && extent % parts == 0;
}

bool
BidirectionalRingEligible(int64_t ring_size, int64_t shard_extent)
{
    return ring_size >= 4 && ring_size % 2 == 0 &&
           ChunkSplitEligible(2, shard_extent);
}

bool
TwoWayExchangeEligible(int64_t ring_size, int64_t shard_extent)
{
    return ring_size == 2 && ChunkSplitEligible(2, shard_extent);
}

bool
AllToAllRingEligible(int64_t ring_size, int64_t dim_extent)
{
    return ChunkSplitEligible(ring_size, dim_extent);
}

namespace {

/** The collective a loop structure decomposes. */
HloOpcode
ExchangeOf(LoopStructure structure)
{
    switch (structure) {
      case LoopStructure::kAllGatherUnidirectional:
      case LoopStructure::kAllGatherBidirectional:
      case LoopStructure::kAllGatherTwoWay:
          return HloOpcode::kAllGather;
      case LoopStructure::kReduceScatterSingleChain:
      case LoopStructure::kReduceScatterTwoChain:
      case LoopStructure::kReduceScatterBidirectional:
          return HloOpcode::kReduceScatter;
      case LoopStructure::kAllToAllDispatch:
      case LoopStructure::kAllToAllCombine:
          return HloOpcode::kAllToAll;
    }
    return HloOpcode::kAllGather;
}

/**
 * True for the loops whose exchange feeds the einsum (AllGather, AllToAll
 * dispatch): they accumulate the einsum's result and replace the einsum.
 * The others consume it (ReduceScatter, AllToAll combine) and replace
 * the collective.
 */
bool
FeedsEinsum(LoopStructure structure)
{
    return ExchangeOf(structure) == HloOpcode::kAllGather ||
           structure == LoopStructure::kAllToAllDispatch;
}

/**
 * A matched AllGather-Einsum, Einsum-ReduceScatter, AllToAll-Einsum
 * (MoE dispatch) or Einsum-AllToAll (MoE combine) overlap site.
 */
struct Site {
    HloInstruction* einsum = nullptr;
    /// The AG, RS or A2A to decompose.
    HloInstruction* collective = nullptr;
    /// The loop the gate costs and the emitter builds: the configured
    /// one (StructureFor under the pass's options) unless the
    /// variance-aware gate lowered it to the unidirectional loop.
    LoopStructure structure = LoopStructure::kAllGatherUnidirectional;
    /// Einsum operand index of the gathered/exchanged operand (AG and
    /// A2A-dispatch cases) or of the operand that carries the scattered
    /// or exchanged output label (RS and A2A-combine cases).
    int64_t side = 0;
    int64_t mesh_axis = -1;
    int64_t group_size = 0;  // N
    char label = 0;          // the partitioned einsum label
    EinsumDimKind kind = EinsumDimKind::kLhsFree;
    /// Shard extent of `label` per loop iteration.
    int64_t shard_extent = 0;
    /// §5.5 cost terms the gate judges this site by (derated when a
    /// fault model is attached), recorded into its SiteDecision.
    GateCost cost;
    /// Healthy-pod benefit (== cost.Benefit() without a fault model).
    double benefit_nominal = 0.0;
    /// Index of the site's SiteDecision in DecomposeStats::decisions.
    size_t decision = 0;
};

/**
 * The loop structure for `site` with or without the §5.4.2
 * bidirectional structures: the one place a structure is picked. The
 * site's collective and whether it feeds the einsum fix the family; the
 * ring size, the shard extent and the options pick within it.
 */
LoopStructure
StructureFor(const Site& site, bool bidirectional, bool unroll)
{
    const bool feeds = site.einsum->operand(site.side) == site.collective;
    if (site.collective->opcode() == HloOpcode::kAllToAll) {
        // The per-peer chunk exchanges route each chunk its shorter way
        // around the ring, so there is no bidirectional/unidirectional
        // structural distinction to pick from.
        return feeds ? LoopStructure::kAllToAllDispatch
                     : LoopStructure::kAllToAllCombine;
    }
    const int64_t n = site.group_size;
    const bool bidi =
        bidirectional && BidirectionalRingEligible(n, site.shard_extent);
    if (feeds) {
        // At N == 2 the two halves of the peer's shard travel the two
        // link directions at once (the §5.4.2 idea at its smallest
        // scale, and what makes the §7.1 inference case profitable).
        if (bidirectional && TwoWayExchangeEligible(n, site.shard_extent)) {
            return LoopStructure::kAllGatherTwoWay;
        }
        return bidi ? LoopStructure::kAllGatherBidirectional
                    : LoopStructure::kAllGatherUnidirectional;
    }
    if (bidi) return LoopStructure::kReduceScatterBidirectional;
    return unroll && n % 2 == 0 ? LoopStructure::kReduceScatterTwoChain
                                : LoopStructure::kReduceScatterSingleChain;
}

/**
 * The replay-free §5.5 terms of one site emitted as `structure`, under
 * the given cost model (possibly derated for a degraded ring): comp_t,
 * comm_t, the margin and the replay input. comm_t_ring and extra_t stay
 * zero until ReplayGate fills them in, so until then Benefit() is
 * exactly BenefitBound(). The blocking-collective term intentionally
 * uses healthy rates even on a derated model (see
 * CostModel::SetFaultDerating).
 *
 * The site's shapes are reduced to per-kernel seconds mirroring what
 * SchedGraph would compute for the emitted loop, for the loop-timeline
 * replay (sim/loop_timeline.h) to walk under the engine's channel
 * semantics.
 */
GateCost
GateTerms(const Site& site, LoopStructure structure,
          const CostModel& cost, bool unroll)
{
    double comp_t = cost.EinsumSeconds(site.einsum);
    double comm_t = cost.BlockingCollectiveSeconds(site.collective);
    int64_t n = site.group_size;
    double n_d = static_cast<double>(n);
    double oh = cost.spec().op_overhead;
    const bool feeds = FeedsEinsum(structure);
    // An AllToAll's input and output are the same size.
    int64_t shard_bytes =
        feeds ? site.collective->operand(0)->shape().byte_size()
              : site.collective->shape().byte_size();

    LoopShape shape;
    shape.structure = structure;
    shape.ring = n;
    shape.wire_seconds = cost.WireSeconds(shard_bytes);
    shape.hop_latency_seconds = cost.HopLatencySeconds();
    // One partial einsum carries 1/N of the FLOPs plus its own launch.
    shape.partial_seconds = (comp_t - oh) / n_d + oh;
    shape.op_overhead_seconds = oh;
    shape.max_in_flight = cost.spec().max_in_flight_async;
    shape.has_copies = !unroll;
    shape.copy_seconds =
        cost.ElementwiseBytesSeconds(2.0 * static_cast<double>(shard_bytes));

    if (ExchangeOf(structure) == HloOpcode::kAllToAll) {
        // The exchanged buffer splits into N equal per-peer chunks;
        // each chunk travels its own permute (shorter way around), so
        // the per-hop occupancy and the aliasing copy shrink to 1/N.
        int64_t chunk_bytes = shard_bytes / n;
        shape.wire_seconds = cost.WireSeconds(chunk_bytes);
        shape.copy_seconds = cost.ElementwiseBytesSeconds(
            2.0 * static_cast<double>(chunk_bytes));
        if (feeds) {
            // Sender-side DynamicSlice carving each chunk out of the
            // loop input.
            shape.send_slice_seconds = cost.ElementwiseBytesSeconds(
                2.0 * static_cast<double>(chunk_bytes));
        }
    }
    if (feeds) {
        double out_bytes =
            static_cast<double>(site.einsum->shape().byte_size());
        double other_bytes = static_cast<double>(
            site.einsum->operand(1 - site.side)->shape().byte_size());
        shape.zeros_seconds = cost.ElementwiseBytesSeconds(out_bytes);
        if (site.kind == EinsumDimKind::kContracting) {
            // Case 2 accumulates into the full result every iteration —
            // N passes over the output — which is what makes
            // decomposing large-N weight gathers unprofitable.
            shape.combine_seconds =
                cost.ElementwiseBytesSeconds(3.0 * out_bytes);
            shape.combine_is_full_add = true;
        } else {
            // Cases 1/3 DynamicUpdateSlice one 1/N output block.
            shape.combine_seconds =
                cost.ElementwiseBytesSeconds(2.0 * out_bytes / n_d);
        }
        if (site.kind == EinsumDimKind::kContracting ||
            site.kind == EinsumDimKind::kBatch) {
            shape.slices_per_partial = 1;
            shape.slice_seconds =
                cost.ElementwiseBytesSeconds(2.0 * other_bytes / n_d);
        }
        if (structure == LoopStructure::kAllGatherTwoWay) {
            // Each direction carries half the shard concurrently; the
            // two static Slices splitting it run on the device.
            shape.wire_seconds = cost.WireSeconds(shard_bytes / 2);
            shape.send_slice_seconds = cost.ElementwiseBytesSeconds(
                static_cast<double>(shard_bytes));
            // The aliasing copies move half a shard each; on
            // launch-overhead-dominated sites they are a third of the
            // whole span, so they are not negligible at N == 2.
            shape.copy_seconds = cost.ElementwiseBytesSeconds(
                static_cast<double>(shard_bytes));
        }
    } else {
        // The accumulator is the collective's result (for an AllToAll
        // combine, the A2A buffer itself), and every partial slices the
        // label-carrying operand. A ReduceScatter adds each partial
        // into the whole accumulator; an AllToAll combine DUSes each
        // received chunk into one 1/N block of it.
        double acc_bytes = static_cast<double>(shard_bytes);
        double sliced_bytes = static_cast<double>(
            site.einsum->operand(site.side)->shape().byte_size());
        shape.zeros_seconds = cost.ElementwiseBytesSeconds(acc_bytes);
        shape.combine_seconds = cost.ElementwiseBytesSeconds(
            ExchangeOf(structure) == HloOpcode::kAllToAll
                ? 2.0 * acc_bytes / n_d
                : 3.0 * acc_bytes);
        shape.slices_per_partial = 1;
        shape.slice_seconds =
            cost.ElementwiseBytesSeconds(2.0 * sliced_bytes / n_d);
    }

    GateCost gate;
    gate.comp_t = comp_t;
    gate.comm_t = comm_t;
    gate.margin = kGateDecisionMargin * (comp_t + comm_t);
    gate.shape = shape;
    return gate;
}

/**
 * Replays `gate`'s loop (PredictLoopTimeline) and fills in the terms
 * that need it: comm_t_ring is the predicted serialized wire time,
 * extra_t the span's residual over max(comp_t, comm_t_ring), so
 * Benefit() compares comp_t + comm_t against the replay span.
 */
void
ReplayGate(GateCost* gate)
{
    LoopTimeline timeline = PredictLoopTimeline(gate->shape);
    gate->comm_t_ring = timeline.wire_seconds;
    // Mapped so max(comp_t, comm_t_ring) + extra_t reproduces the
    // replay span (GateCost::OverlappedSeconds); the replay guarantees
    // span >= both terms.
    gate->extra_t = std::max(
        0.0, timeline.span_seconds -
                 std::max(gate->comp_t, timeline.wire_seconds));
    gate->predicted_hidden_fraction = timeline.HiddenFraction();
}

/** Labels of the einsum operand on the given side. */
const std::string&
SideLabels(const EinsumSpec& spec, int64_t side)
{
    return side == 0 ? spec.lhs_labels() : spec.rhs_labels();
}

int64_t
SideDimOf(const EinsumSpec& spec, int64_t side, char label)
{
    return side == 0 ? spec.LhsDimOf(label) : spec.RhsDimOf(label);
}

/**
 * The ring-shift pair lists of one Run: the list of each (axis, step
 * mod N) is built once and shared by every permute shifting by it, so
 * the per-device data is paid per distinct shift, not per permute.
 */
class RingShifts {
  public:
    explicit RingShifts(const Mesh& mesh) : mesh_(mesh) {}

    const SourceTargetPairs& Get(int64_t axis, int64_t step)
    {
        const int64_t n = mesh_.axis_size(axis);
        const int64_t normalized = ((step % n) + n) % n;
        SourceTargetPairs& pairs = lists_[{axis, normalized}];
        if (pairs.empty()) pairs = RingShiftPairs(mesh_, axis, normalized);
        return pairs;
    }

  private:
    const Mesh& mesh_;
    std::map<std::pair<int64_t, int64_t>, SourceTargetPairs> lists_;
};

/**
 * The loop-index scalars of one Run, shared the way RingShifts shares
 * pair lists: each is emitted at its first use and every later loop
 * reuses it. One table of s32 scalars, keyed by what makes two of them
 * the same value (opcode, operands, literal, mesh axis), holds
 *  - one AxisIndex per mesh axis;
 *  - one (axis_index + delta) mod N per (axis, N, delta mod N);
 *  - one shard_id * extent (+ extra) per (shard id, extent, extra);
 *  - one s32 constant per value, the zero start of every
 *    DynamicSlice/DynamicUpdateSlice included.
 * The f32 zero each loop broadcasts into its accumulator is not an
 * index and stays the loop's own (HloBuilder::Zeros): shared, it moves
 * the schedulers' picks and with them simulated step times.
 * The table starts from the scalars the computation already has, and a
 * repeat among those is replaced by its first occurrence (the Run's DCE
 * drops it), so the loops reuse the partitioner's axis indices and
 * constants too.
 *
 * Loop group: none. A shared scalar feeds the loops of several sites,
 * so it belongs to none of them; the store's instructions keep loop
 * group -1 and LoopEmitter::Emit() tags every other instruction it
 * adds. Scalar index arithmetic costs 0 s
 * (CostModel::InstructionSeconds), so sharing moves no simulated time,
 * only the 4-byte live buffers the repeats held.
 */
class IndexScalars {
  public:
    explicit IndexScalars(HloComputation* computation) : builder_(computation)
    {
        for (HloInstruction* instr : computation->instructions()) {
            std::optional<Key> key = KeyOf(instr);
            if (!key.has_value()) continue;
            auto [it, inserted] = table_.try_emplace(*key, instr);
            if (!inserted) computation->ReplaceAllUsesWith(instr, it->second);
        }
    }

    /** s32 constant `value`. */
    HloInstruction* Index(int64_t value)
    {
        return Get({HloOpcode::kConstant, nullptr, nullptr,
                    std::bit_cast<uint32_t>(static_cast<float>(value)), -1},
                   [&] { return builder_.ConstantIndex(value); });
    }

    HloInstruction* AxisIndex(int64_t axis)
    {
        return Get({HloOpcode::kAxisIndex, nullptr, nullptr, 0, axis},
                   [&] { return builder_.AxisIndex(axis); });
    }

    /** (axis_index + delta) mod n; delta may be negative. */
    HloInstruction* ShardId(int64_t axis, int64_t n, int64_t delta)
    {
        const int64_t normalized = ((delta % n) + n) % n;
        HloInstruction* sum =
            normalized == 0
                ? AxisIndex(axis)
                : Binary(HloOpcode::kAdd, AxisIndex(axis), Index(normalized));
        return Binary(HloOpcode::kRemainder, sum, Index(n));
    }

    /** shard_id * extent (+ extra). */
    HloInstruction* Offset(HloInstruction* shard_id, int64_t extent,
                           int64_t extra)
    {
        HloInstruction* off =
            Binary(HloOpcode::kMultiply, shard_id, Index(extent));
        return extra == 0 ? off
                          : Binary(HloOpcode::kAdd, off, Index(extra));
    }

    /**
     * True for a scalar the store holds or would hold. The emitter
     * builds no s32 scalar of its own, so every one it adds is shared.
     */
    static bool Shares(const HloInstruction* instr)
    {
        return KeyOf(instr).has_value();
    }

  private:
    /// opcode, up to two operands, literal bits, mesh axis.
    using Key = std::tuple<HloOpcode, const HloInstruction*,
                           const HloInstruction*, uint32_t, int64_t>;

    /** The key of an s32 scalar the store can share; nullopt otherwise. */
    static std::optional<Key> KeyOf(const HloInstruction* instr)
    {
        if (instr->shape().rank() != 0 ||
            instr->shape().dtype() != DType::kS32) {
            return std::nullopt;
        }
        switch (instr->opcode()) {
          case HloOpcode::kConstant:
              return Key{instr->opcode(), nullptr, nullptr,
                         std::bit_cast<uint32_t>(
                             instr->attrs().literal->data()[0]),
                         -1};
          case HloOpcode::kAxisIndex:
              return Key{instr->opcode(), nullptr, nullptr, 0,
                         instr->attrs().mesh_axis};
          default:
              if (!IsElementwiseBinary(instr->opcode())) return std::nullopt;
              return Key{instr->opcode(), instr->operand(0),
                         instr->operand(1), 0, -1};
        }
    }

    HloInstruction* Binary(HloOpcode opcode, HloInstruction* lhs,
                           HloInstruction* rhs)
    {
        return Get({opcode, lhs, rhs, 0, -1},
                   [&] { return builder_.Binary(opcode, lhs, rhs); });
    }

    template <typename Build>
    HloInstruction* Get(const Key& key, Build build)
    {
        auto it = table_.find(key);
        if (it != table_.end()) return it->second;
        HloInstruction* instr = build();
        table_.emplace(key, instr);
        return instr;
    }

    HloBuilder builder_;
    std::map<Key, HloInstruction*> table_;
};

/**
 * Emits the unrolled Looped CollectiveEinsum for one site in the
 * site's structure; the options only select the no-unroll forms and
 * the test-only shard-id bug. Every instruction added is tagged with a
 * fresh loop group; the loop-index scalars come from the Run's
 * IndexScalars and stay untagged.
 */
class LoopEmitter {
  public:
    LoopEmitter(HloComputation* computation, RingShifts* ring_shifts,
                IndexScalars* scalars, const DecomposeOptions& options,
                const Site& site)
        : computation_(computation),
          builder_(computation),
          ring_shifts_(ring_shifts),
          scalars_(scalars),
          options_(options),
          site_(site),
          n_(site.group_size)
    {
    }

    /** Builds the loop; returns the value replacing the matched root. */
    HloInstruction* Emit()
    {
        int64_t first_new = computation_->instruction_count();
        HloInstruction* result = nullptr;
        switch (site_.structure) {
          case LoopStructure::kAllGatherUnidirectional:
              result = EmitAllGatherUnidirectional();
              break;
          case LoopStructure::kAllGatherBidirectional:
              result = EmitAllGatherBidirectional();
              break;
          case LoopStructure::kAllGatherTwoWay:
              result = EmitAllGatherTwoWay();
              break;
          case LoopStructure::kReduceScatterSingleChain:
              result = EmitReduceScatterSingleChain();
              break;
          case LoopStructure::kReduceScatterTwoChain:
              result = EmitReduceScatterTwoChain();
              break;
          case LoopStructure::kReduceScatterBidirectional:
              result = EmitReduceScatterBidirectional();
              break;
          case LoopStructure::kAllToAllDispatch:
              result = EmitAllToAllDispatch();
              break;
          case LoopStructure::kAllToAllCombine:
              result = EmitAllToAllCombine();
              break;
        }
        int64_t group = computation_->NextLoopGroupId();
        std::vector<HloInstruction*> instrs = computation_->instructions();
        for (size_t i = static_cast<size_t>(first_new); i < instrs.size();
             ++i) {
            if (!IndexScalars::Shares(instrs[i])) {
                instrs[i]->set_loop_group(group);
            }
        }
        emitted_group_ = group;
        return result;
    }

    /** Loop group Emit() tagged onto the new instructions. */
    int64_t emitted_group() const { return emitted_group_; }

  private:
    /** Scalar shard id (axis_index + delta) mod N; delta may be negative. */
    HloInstruction* ShardId(int64_t delta)
    {
        if (options_.test_shard_id_bug) ++delta;  // deliberate, TEST-ONLY
        return scalars_->ShardId(site_.mesh_axis, n_, delta);
    }

    /** Scalar element offset shard_id * shard_extent (+ extra). */
    HloInstruction* OffsetOf(HloInstruction* shard_id, int64_t extra = 0)
    {
        return scalars_->Offset(shard_id, site_.shard_extent, extra);
    }

    /** The store's zero start for `operand`'s other dimensions. */
    HloInstruction* ZeroStartFor(const HloInstruction* operand)
    {
        return operand->shape().rank() > 1 ? scalars_->Index(0) : nullptr;
    }

    /** HloBuilder's helper, with the store's zero start. */
    HloInstruction* DynamicSliceOnDim(HloInstruction* operand, int64_t dim,
                                      HloInstruction* start, int64_t size)
    {
        return builder_.DynamicSliceOnDim(operand, dim, start, size,
                                          ZeroStartFor(operand));
    }

    /** HloBuilder's helper, with the store's zero start. */
    HloInstruction* DynamicUpdateSliceOnDim(HloInstruction* operand,
                                            HloInstruction* update,
                                            int64_t dim,
                                            HloInstruction* start)
    {
        return builder_.DynamicUpdateSliceOnDim(operand, update, dim, start,
                                                ZeroStartFor(operand));
    }

    /** Partial einsum keeping the original operand order. */
    HloInstruction* PartialEinsum(HloInstruction* looped_like,
                                  HloInstruction* other_like)
    {
        const std::string& spec = site_.einsum->attrs().einsum_spec;
        return site_.side == 0
                   ? builder_.Einsum(looped_like, other_like, spec)
                   : builder_.Einsum(other_like, looped_like, spec);
    }

    /** Copy inserted before a CollectivePermute when not unrolling
     *  (models the loop-carried aliasing copies of the naive loop). */
    HloInstruction* MaybeCopy(HloInstruction* value)
    {
        return options_.unroll ? value : builder_.Copy(value);
    }

    HloInstruction* Permute(HloInstruction* value, int64_t step)
    {
        if (((step % n_) + n_) % n_ == 0) return value;  // identity
        return builder_.CollectivePermute(
            MaybeCopy(value), ring_shifts_->Get(site_.mesh_axis, step));
    }

    /**
     * The chunk-k permute of a ring-decomposed AllToAll: a step-k ring
     * shift (the engine routes each pair its shorter way around), tagged
     * with the chunk index so the text form records which peer offset
     * the exchange serves. k == 0 is the device's own chunk — no
     * transfer.
     */
    HloInstruction* ChunkPermute(HloInstruction* value, int64_t k)
    {
        if (((k % n_) + n_) % n_ == 0) return value;
        HloInstruction* permute = builder_.CollectivePermute(
            MaybeCopy(value), ring_shifts_->Get(site_.mesh_axis, k));
        permute->mutable_attrs().a2a_chunk = k;
        return permute;
    }

    // ---- AllGather-Einsum ------------------------------------------------

    /**
     * Combines one partial result into the accumulator, per the case:
     *  - non-contracting (Case 1) and batch (Case 3): DynamicUpdateSlice
     *    along the output label dimension at shard_id * extent;
     *  - contracting (Case 2): Addition.
     */
    HloInstruction* CombineAllGatherPartial(HloInstruction* acc,
                                            HloInstruction* partial,
                                            HloInstruction* shard_id)
    {
        if (site_.kind == EinsumDimKind::kContracting) {
            return builder_.Add(acc, partial);
        }
        const EinsumSpec& spec = site_.einsum->einsum();
        int64_t out_dim = spec.OutDimOf(site_.label);
        return DynamicUpdateSliceOnDim(acc, partial, out_dim,
                                       OffsetOf(shard_id));
    }

    /**
     * The non-gathered operand, sliced for this iteration when the
     * partitioned label is contracting (Case 2) or batch (Case 3); the
     * whole operand in Case 1.
     */
    HloInstruction* OtherOperandFor(HloInstruction* shard_id)
    {
        HloInstruction* other = site_.einsum->operand(1 - site_.side);
        if (site_.kind == EinsumDimKind::kLhsFree ||
            site_.kind == EinsumDimKind::kRhsFree) {
            return other;
        }
        const EinsumSpec& spec = site_.einsum->einsum();
        int64_t other_dim = SideDimOf(spec, 1 - site_.side, site_.label);
        return DynamicSliceOnDim(other, other_dim, OffsetOf(shard_id),
                                 site_.shard_extent);
    }

    /**
     * N == 2 bidirectional AllGather-Einsum: the local shard is computed
     * immediately while its two halves travel to the peer on the two
     * opposite ring directions, halving the transfer time relative to a
     * single whole-shard permute.
     */
    HloInstruction* EmitAllGatherTwoWay()
    {
        HloInstruction* shard = site_.collective->operand(0);
        const EinsumSpec& spec = site_.einsum->einsum();
        int64_t dim = SideDimOf(spec, site_.side, site_.label);
        int64_t half = site_.shard_extent / 2;
        const Shape& shape = shard->shape();
        std::vector<int64_t> lo_starts(static_cast<size_t>(shape.rank()),
                                       0);
        std::vector<int64_t> hi_starts = lo_starts;
        hi_starts[static_cast<size_t>(dim)] = half;
        std::vector<int64_t> sizes(shape.dims().begin(),
                                   shape.dims().end());
        sizes[static_cast<size_t>(dim)] = half;
        HloInstruction* lo = builder_.Slice(shard, lo_starts, sizes);
        HloInstruction* hi = builder_.Slice(shard, hi_starts, sizes);
        HloInstruction* lo_recv = Permute(lo, /*step=*/1);
        HloInstruction* hi_recv = Permute(hi, /*step=*/-1);

        HloInstruction* own_id = ShardId(0);
        HloInstruction* peer_id = ShardId(1);
        HloInstruction* acc = builder_.Zeros(site_.einsum->shape());
        // Own shard computes while the halves are in flight.
        HloInstruction* own_partial =
            PartialEinsum(shard, OtherOperandFor(own_id));
        acc = CombineAllGatherPartial(acc, own_partial, own_id);
        acc = CombineTwoWayHalf(acc, lo_recv, peer_id, dim, half, 0);
        acc = CombineTwoWayHalf(acc, hi_recv, peer_id, dim, half, half);
        return acc;
    }

    /** Partial einsum + combine for one received half-shard. */
    HloInstruction* CombineTwoWayHalf(HloInstruction* acc,
                                      HloInstruction* received,
                                      HloInstruction* peer_id, int64_t dim,
                                      int64_t half, int64_t offset)
    {
        const EinsumSpec& spec = site_.einsum->einsum();
        HloInstruction* other = site_.einsum->operand(1 - site_.side);
        HloInstruction* partial;
        if (site_.kind == EinsumDimKind::kLhsFree ||
            site_.kind == EinsumDimKind::kRhsFree) {
            partial = PartialEinsum(received, other);
            int64_t out_dim = spec.OutDimOf(site_.label);
            return DynamicUpdateSliceOnDim(
                acc, partial, out_dim, OffsetOf(peer_id, offset));
        }
        int64_t other_dim = SideDimOf(spec, 1 - site_.side, site_.label);
        HloInstruction* slice = DynamicSliceOnDim(
            other, other_dim, OffsetOf(peer_id, offset), half);
        partial = PartialEinsum(received, slice);
        if (site_.kind == EinsumDimKind::kContracting) {
            return builder_.Add(acc, partial);
        }
        int64_t out_dim = spec.OutDimOf(site_.label);
        (void)dim;
        return DynamicUpdateSliceOnDim(
            acc, partial, out_dim, OffsetOf(peer_id, offset));
    }

    HloInstruction* EmitAllGatherUnidirectional()
    {
        HloInstruction* data = site_.collective->operand(0);
        HloInstruction* acc = builder_.Zeros(site_.einsum->shape());
        for (int64_t i = 0; i < n_; ++i) {
            HloInstruction* shard_id = ShardId(i);
            // Send the current shard while the partial einsum runs.
            HloInstruction* next_data =
                i < n_ - 1 ? Permute(data, /*step=*/1) : nullptr;
            HloInstruction* partial =
                PartialEinsum(data, OtherOperandFor(shard_id));
            acc = CombineAllGatherPartial(acc, partial, shard_id);
            data = next_data;
        }
        return acc;
    }

    HloInstruction* EmitAllGatherBidirectional()
    {
        HloInstruction* shard = site_.collective->operand(0);
        HloInstruction* data_left = shard;
        // Prologue (Figure 9): seed the clockwise stream with the right
        // neighbour's shard.
        HloInstruction* data_right = Permute(shard, /*step=*/-1);
        HloInstruction* acc = builder_.Zeros(site_.einsum->shape());
        int64_t half = n_ / 2;
        for (int64_t k = 0; k < half; ++k) {
            HloInstruction* id_left = ShardId(k);
            HloInstruction* id_right = ShardId(-1 - k);
            HloInstruction* next_left = nullptr;
            HloInstruction* next_right = nullptr;
            if (k < half - 1) {
                next_left = Permute(data_left, /*step=*/1);
                next_right = Permute(data_right, /*step=*/-1);
            }
            HloInstruction* partial_left =
                PartialEinsum(data_left, OtherOperandFor(id_left));
            HloInstruction* partial_right =
                PartialEinsum(data_right, OtherOperandFor(id_right));
            // The paired partials execute as one concatenated kernel
            // (§5.4.2); the shared fusion group models that.
            int64_t fusion = computation_->NextFusionGroupId();
            partial_left->set_fusion_group(fusion);
            partial_right->set_fusion_group(fusion);
            acc = CombineAllGatherPartial(acc, partial_left, id_left);
            acc = CombineAllGatherPartial(acc, partial_right, id_right);
            data_left = next_left;
            data_right = next_right;
        }
        return acc;
    }

    // ---- AllToAll-Einsum / Einsum-AllToAll (MoE, DESIGN.md §18) ----------

    /**
     * Ring-decomposed dispatch (AllToAll feeding the einsum): the
     * blocking A2A's output block j holds, for a device at ring
     * position i, peer j's input block i. Chunk k of the loop slices
     * the local input at block (i - k), ships it k positions down the
     * ring (so the device receives peer (i + k)'s block i), and the
     * partial einsum over the received chunk combines at output block
     * (i + k). k == 0 is the device's own block and needs no transfer;
     * every chunk is sliced straight from the loop input, so all N - 1
     * exchanges are in flight at once, spread over both ring
     * directions by each chunk's shorter way around.
     */
    HloInstruction* EmitAllToAllDispatch()
    {
        HloInstruction* input = site_.collective->operand(0);
        int64_t dim = site_.collective->attrs().dim;
        HloInstruction* acc = builder_.Zeros(site_.einsum->shape());
        for (int64_t k = 0; k < n_; ++k) {
            HloInstruction* src_id = ShardId(-k);
            HloInstruction* dst_id = ShardId(k);
            HloInstruction* chunk = DynamicSliceOnDim(
                input, dim, OffsetOf(src_id), site_.shard_extent);
            HloInstruction* received = ChunkPermute(chunk, k);
            HloInstruction* partial =
                PartialEinsum(received, OtherOperandFor(dst_id));
            acc = CombineAllGatherPartial(acc, partial, dst_id);
        }
        return acc;
    }

    /**
     * Ring-decomposed combine (einsum feeding the AllToAll): chunk k
     * einsums the label-carrying operand's block (i - k) — the output
     * block destined for peer (i - k) — ships the partial k positions
     * down the ring, and DUSes the received block (peer (i + k)'s
     * block i) into accumulator position (i + k). The partial einsums
     * are independent, so chunk k + 1 computes while chunk k flies.
     */
    HloInstruction* EmitAllToAllCombine()
    {
        const EinsumSpec& spec = site_.einsum->einsum();
        int64_t out_dim = spec.OutDimOf(site_.label);
        HloInstruction* other = site_.einsum->operand(1 - site_.side);
        HloInstruction* acc = builder_.Zeros(site_.collective->shape());
        for (int64_t k = 0; k < n_; ++k) {
            HloInstruction* src_id = ShardId(-k);
            HloInstruction* dst_id = ShardId(k);
            HloInstruction* partial =
                PartialEinsum(SlicedOperandFor(src_id), other);
            HloInstruction* received = ChunkPermute(partial, k);
            acc = DynamicUpdateSliceOnDim(acc, received, out_dim,
                                          OffsetOf(dst_id));
        }
        return acc;
    }

    // ---- Einsum-ReduceScatter --------------------------------------------

    /** The operand carrying the scattered label, sliced for `shard_id`;
     *  `half_offset`/`extent` select a sub-range for bidirectional mode. */
    HloInstruction* SlicedOperandFor(HloInstruction* shard_id)
    {
        HloInstruction* operand = site_.einsum->operand(site_.side);
        const EinsumSpec& spec = site_.einsum->einsum();
        int64_t dim = SideDimOf(spec, site_.side, site_.label);
        return DynamicSliceOnDim(operand, dim, OffsetOf(shard_id),
                                 site_.shard_extent);
    }

    HloInstruction* EmitReduceScatterSingleChain()
    {
        HloInstruction* acc = builder_.Zeros(site_.collective->shape());
        for (int64_t i = 0; i < n_; ++i) {
            HloInstruction* shard_id = ShardId(i + 1);
            // Send the pre-update accumulator while computing (Figure 5);
            // the first transfer carries the zero initializer, exactly as
            // in Algorithm 1.
            HloInstruction* received = Permute(acc, /*step=*/1);
            HloInstruction* partial =
                PartialEinsum(SlicedOperandFor(shard_id),
                              site_.einsum->operand(1 - site_.side));
            acc = builder_.Add(received, partial);
        }
        return acc;
    }

    HloInstruction* EmitReduceScatterTwoChain()
    {
        // Figure 8: two interleaved accumulation chains. Chain A
        // accumulates then transfers; chain B transfers then accumulates,
        // so chain B's in-flight permute can always overlap chain A's
        // einsum even when the accumulation is fused with it.
        const Shape& shard_shape = site_.collective->shape();
        HloInstruction* acc_a = builder_.Zeros(shard_shape);
        HloInstruction* acc_b = builder_.Zeros(shard_shape);
        int64_t half = n_ / 2;
        for (int64_t k = 0; k < half; ++k) {
            HloInstruction* id_a = ShardId(2 * k + 2);
            HloInstruction* id_b = ShardId(2 * k + 3);
            HloInstruction* received_b = Permute(acc_b, /*step=*/2);
            HloInstruction* partial_a =
                PartialEinsum(SlicedOperandFor(id_a),
                              site_.einsum->operand(1 - site_.side));
            acc_a = builder_.Add(acc_a, partial_a);
            if (k < half - 1) acc_a = Permute(acc_a, /*step=*/2);
            HloInstruction* partial_b =
                PartialEinsum(SlicedOperandFor(id_b),
                              site_.einsum->operand(1 - site_.side));
            acc_b = builder_.Add(received_b, partial_b);
        }
        // Epilogue: align chain B's result one step clockwise, then sum.
        HloInstruction* aligned_b = Permute(acc_b, /*step=*/-1);
        return builder_.Add(acc_a, aligned_b);
    }

    HloInstruction* EmitReduceScatterBidirectional()
    {
        // Two accumulator streams circulating in opposite directions
        // (Figure 10). With unrolling, the counter-clockwise stream
        // accumulates *then* transfers while the clockwise one transfers
        // *then* accumulates — the Figure 8 interleave applied across the
        // directions — so each stream's in-flight permute overlaps the
        // other stream's (possibly accumulation-fused) einsum. Without
        // unrolling both streams use the naive transfer-then-accumulate
        // shape and carry the aliasing copies.
        const Shape& shard_shape = site_.collective->shape();
        HloInstruction* acc_left = builder_.Zeros(shard_shape);
        HloInstruction* acc_right = builder_.Zeros(shard_shape);
        int64_t half = n_ / 2;
        for (int64_t k = 0; k < half; ++k) {
            HloInstruction* id_left = ShardId(k - half + 1);
            HloInstruction* id_right = ShardId(half - k);
            HloInstruction* received_right = Permute(acc_right, /*step=*/-1);
            HloInstruction* received_left =
                options_.unroll ? nullptr : Permute(acc_left, /*step=*/1);
            HloInstruction* partial_left =
                PartialEinsum(SlicedOperandFor(id_left),
                              site_.einsum->operand(1 - site_.side));
            if (options_.unroll) {
                acc_left = builder_.Add(acc_left, partial_left);
                if (k < half - 1) acc_left = Permute(acc_left, /*step=*/1);
            } else {
                acc_left = builder_.Add(received_left, partial_left);
            }
            HloInstruction* partial_right =
                PartialEinsum(SlicedOperandFor(id_right),
                              site_.einsum->operand(1 - site_.side));
            acc_right = builder_.Add(received_right, partial_right);
        }
        // Epilogue (Figure 10): shift the clockwise stream once more so
        // both partial shards carry the device's own shard id, then sum.
        HloInstruction* aligned_right = Permute(acc_right, /*step=*/-1);
        return builder_.Add(acc_left, aligned_right);
    }

    int64_t emitted_group_ = -1;
    HloComputation* computation_;
    HloBuilder builder_;
    RingShifts* ring_shifts_;
    IndexScalars* scalars_;
    const DecomposeOptions& options_;
    const Site& site_;
    int64_t n_;
};

}  // namespace

StatusOr<DecomposeStats>
CollectiveEinsumDecomposer::Run(HloComputation* computation)
{
    DecomposeStats stats;
    std::vector<HloInstruction*> snapshot = computation->instructions();
    // The mesh axis each distinct group list runs along: a list is
    // shared by every collective along one axis, so it is matched
    // against the mesh once per run.
    std::unordered_map<const ReplicaGroups::List*, int64_t> groups_axes;
    auto groups_axis = [&](const ReplicaGroups& groups) -> int64_t {
        auto [it, inserted] = groups_axes.try_emplace(groups.get(), -1);
        if (inserted) it->second = mesh_.InferGroupsAxis(groups.list());
        return it->second;
    };

    // The check every site shares: `producer` (the exchange feeding the
    // einsum, or the einsum feeding the exchange) has no use but the one
    // operand of the other, the exchange's groups run along one mesh
    // axis, the ring has more than one device and an AllToAll splits
    // into one equal chunk per peer.
    // Adds the site in its configured structure; a ring of one device is
    // no site, any other failure counts as unsupported.
    auto add_site = [&](Site site, const HloInstruction* producer,
                        std::vector<Site>* candidates) {
        const HloInstruction* exchange = site.collective;
        const std::vector<HloInstruction*>& users = producer->users();
        if (users.size() != 1 ||
            std::count(users[0]->operands().begin(),
                       users[0]->operands().end(), producer) != 1) {
            ++stats.skipped_unsupported;
            return;
        }
        site.mesh_axis = groups_axis(exchange->attrs().groups);
        if (site.mesh_axis < 0) {
            ++stats.skipped_unsupported;
            return;
        }
        site.group_size = mesh_.axis_size(site.mesh_axis);
        if (site.group_size <= 1) return;
        int64_t extent = exchange->shape().dim(exchange->attrs().dim);
        if (exchange->opcode() == HloOpcode::kAllToAll &&
            !AllToAllRingEligible(site.group_size, extent)) {
            ++stats.skipped_unsupported;
            return;
        }
        site.shard_extent = exchange->opcode() == HloOpcode::kReduceScatter
                                ? extent
                                : extent / site.group_size;
        site.structure =
            StructureFor(site, options_.bidirectional, options_.unroll);
        candidates->push_back(site);
    };

    // Every loop-timeline replay of the gate, counted.
    auto replay = [&stats](GateCost* gate) {
        ReplayGate(gate);
        ++stats.gate_replays;
    };

    // Collect candidate sites per einsum, then pick the best one each.
    std::vector<Site> chosen;
    std::vector<HloOpcode> feeding = {HloOpcode::kAllGather};
    if (options_.all_to_all) feeding.push_back(HloOpcode::kAllToAll);
    for (HloInstruction* einsum : snapshot) {
        if (einsum->opcode() != HloOpcode::kEinsum) continue;
        const EinsumSpec& spec = einsum->einsum();
        std::vector<Site> candidates;

        // The exchange feeding either operand: an AllGather, or an
        // AllToAll (MoE dispatch, §18).
        for (HloOpcode opcode : feeding) {
            for (int64_t side = 0; side < 2; ++side) {
                HloInstruction* operand = einsum->operand(side);
                if (operand->opcode() != opcode) continue;
                Site site;
                site.einsum = einsum;
                site.collective = operand;
                site.side = side;
                site.label = SideLabels(
                    spec, side)[static_cast<size_t>(operand->attrs().dim)];
                site.kind = spec.KindOf(site.label);
                add_site(site, operand, &candidates);
            }
        }

        // The exchange consuming the einsum: a ReduceScatter, or an
        // AllToAll (MoE combine, §18). The exchanged output label must
        // be non-contracting and belong to exactly one operand, so the
        // partial einsums can slice it (§5.1).
        HloInstruction* user =
            einsum->users().size() == 1 ? einsum->users()[0] : nullptr;
        if (user != nullptr &&
            (user->opcode() == HloOpcode::kReduceScatter ||
             (user->opcode() == HloOpcode::kAllToAll &&
              options_.all_to_all))) {
            Site site;
            site.einsum = einsum;
            site.collective = user;
            site.label =
                spec.out_labels()[static_cast<size_t>(user->attrs().dim)];
            site.kind = spec.KindOf(site.label);
            site.side = site.kind == EinsumDimKind::kLhsFree ? 0 : 1;
            if (site.kind != EinsumDimKind::kLhsFree &&
                site.kind != EinsumDimKind::kRhsFree) {
                ++stats.skipped_unsupported;
            } else {
                add_site(site, einsum, &candidates);
            }
        }

        if (candidates.empty()) continue;

        // §5.5: estimate original vs overlapped time for each candidate.
        // No candidate gains more than its replay-free bound, so replay
        // them in descending bound order (matcher order on ties) and
        // stop at the first whose bound is below the best benefit
        // replayed: it and every later one lose. A skipped candidate
        // keeps its replay-free cost, whose Benefit() is that bound.
        std::vector<Site*> by_bound;
        for (Site& site : candidates) {
            site.cost = GateTerms(site, site.structure, *cost_model_,
                                  options_.unroll);
            by_bound.push_back(&site);
        }
        std::stable_sort(by_bound.begin(), by_bound.end(),
                         [](const Site* a, const Site* b) {
                             return a->cost.BenefitBound() >
                                    b->cost.BenefitBound();
                         });
        double replayed_best = -std::numeric_limits<double>::infinity();
        for (Site* site : by_bound) {
            if (site->cost.BenefitBound() < replayed_best) break;
            replay(&site->cost);
            replayed_best = std::max(replayed_best, site->cost.Benefit());
        }
        for (Site& site : candidates) {
            site.benefit_nominal = site.cost.Benefit();
        }

        // Variance-aware re-costing (fault model attached): gate on the
        // slowest link/chip of the site's ring instead of nominal
        // rates. The configured structure is judged with both
        // directions derated; the unidirectional lowering only with the
        // emitter's fixed direction (Permute(step=+1) routes toward the
        // lower ring position, i.e. engine direction 0).
        bool faulted = fault_model_ != nullptr &&
                       !fault_model_->fault_free();
        if (faulted) {
            for (Site& site : candidates) {
                double chip = fault_model_->SlowestChipFactor(
                    mesh_.num_devices());
                double f0 = fault_model_->SlowestLinkFactor(
                    mesh_, site.mesh_axis, 0);
                double f1 = fault_model_->SlowestLinkFactor(
                    mesh_, site.mesh_axis, 1);
                double l0 = fault_model_->WorstLinkLatencyFactor(
                    mesh_, site.mesh_axis, 0);
                double l1 = fault_model_->WorstLinkLatencyFactor(
                    mesh_, site.mesh_axis, 1);
                CostModel both_cost = *cost_model_;
                both_cost.SetFaultDerating(chip, std::min(f0, f1),
                                           std::max(l0, l1));
                site.cost = GateTerms(site, site.structure, both_cost,
                                      options_.unroll);
                replay(&site.cost);
                // A2A chunks route both directions regardless of
                // options, so the worst-of-both derating is the only
                // sound verdict; there is no unidirectional lowering to
                // fall back to. Without the gate every site is emitted
                // as configured, so it is ranked by that cost too.
                if (!options_.use_cost_model ||
                    ExchangeOf(site.structure) == HloOpcode::kAllToAll) {
                    continue;
                }
                CostModel one_cost = *cost_model_;
                one_cost.SetFaultDerating(chip, f0, l0);
                LoopStructure lowered = StructureFor(
                    site, /*bidirectional=*/false, options_.unroll);
                GateCost lowered_cost =
                    GateTerms(site, lowered, one_cost, options_.unroll);
                replay(&lowered_cost);
                // Keep the configured structure while it still wins on
                // the degraded ring; lower to the healthier single
                // direction only once it no longer does.
                if (site.cost.Benefit() < 0.0 &&
                    lowered_cost.Benefit() > site.cost.Benefit()) {
                    site.cost = lowered_cost;
                    site.structure = lowered;
                }
            }
        }
        std::sort(candidates.begin(), candidates.end(),
                  [](const Site& a, const Site& b) {
                      return a.cost.Benefit() > b.cost.Benefit();
                  });
        Site& best = candidates.front();
        // The healthy-pod yardstick for the fallback classification:
        // the best nominal benefit over all candidates (the derated
        // ranking may have promoted a different candidate).
        double nominal_best = best.benefit_nominal;
        for (const Site& site : candidates) {
            nominal_best = std::max(nominal_best, site.benefit_nominal);
        }

        SiteDecision decision;
        decision.collective = best.collective->name();
        decision.einsum = best.einsum->name();
        decision.benefit_nominal = nominal_best;
        decision.cost = best.cost;
        if (options_.use_cost_model && best.cost.Benefit() < 0.0) {
            if (faulted && nominal_best >= 0.0) {
                // Profitable on a healthy pod, but the degraded ring no
                // longer wins: fall back to the blocking collective.
                ++stats.fault_fallbacks;
                decision.reason = "fault_fallback_blocking";
                OVERLAP_LOG(kInfo)
                    << "decompose: fault fallback for "
                    << best.collective->name() << " (nominal benefit "
                    << nominal_best << " s, derated "
                    << best.cost.Benefit() << " s)";
            } else {
                ++stats.rejected_by_cost_model;
                decision.reason = "rejected_by_cost_model";
                OVERLAP_LOG(kInfo)
                    << "decompose: rejected " << best.collective->name()
                    << " (benefit " << best.cost.Benefit() << " s)";
            }
            stats.decisions.push_back(std::move(decision));
            continue;
        }
        if (best.structure !=
            StructureFor(best, options_.bidirectional, options_.unroll)) {
            ++stats.fault_lowered;
            decision.lowered_to_unidirectional = true;
            OVERLAP_LOG(kInfo)
                << "decompose: lowered " << best.collective->name()
                << " to unidirectional (degraded ring direction)";
        }
        decision.decomposed = true;
        decision.reason = "decomposed";
        best.decision = stats.decisions.size();
        stats.decisions.push_back(std::move(decision));
        chosen.push_back(best);
    }

    if (chosen.empty()) return stats;
    RingShifts ring_shifts(mesh_);
    IndexScalars scalars(computation);
    for (const Site& site : chosen) {
        LoopEmitter emitter(computation, &ring_shifts, &scalars, options_,
                            site);
        HloInstruction* replacement = emitter.Emit();
        // Join key for the overlap-efficiency report: the decision of
        // this site learns the loop group its instructions now carry.
        stats.decisions[site.decision].loop_group = emitter.emitted_group();
        computation->ReplaceAllUsesWith(
            FeedsEinsum(site.structure) ? site.einsum : site.collective,
            replacement);
        switch (ExchangeOf(site.structure)) {
          case HloOpcode::kAllGather:
              ++stats.allgather_sites;
              break;
          case HloOpcode::kReduceScatter:
              ++stats.reduce_scatter_sites;
              break;
          default:
              ++stats.all_to_all_sites;
              break;
        }
    }
    computation->RemoveDeadInstructions();
    computation->SortTopologically();
    return stats;
}

}  // namespace overlap
