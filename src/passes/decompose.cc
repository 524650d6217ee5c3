#include "passes/decompose.h"

#include <algorithm>
#include <bit>
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

/**
 * A matched AllGather-Einsum, Einsum-ReduceScatter, AllToAll-Einsum
 * (MoE dispatch) or Einsum-AllToAll (MoE combine) overlap site.
 */
struct Site {
    HloInstruction* einsum = nullptr;
    /// The AG, RS or A2A to decompose.
    HloInstruction* collective = nullptr;
    bool is_allgather = false;
    /// AllToAll site (DESIGN.md §18): a2a_dispatch when the A2A feeds
    /// the einsum, combine when it consumes it.
    bool is_all_to_all = false;
    bool a2a_dispatch = false;
    /// Einsum operand index of the gathered/exchanged operand (AG and
    /// A2A-dispatch cases) or of the operand that carries the scattered
    /// or exchanged output label (RS and A2A-combine cases).
    int64_t side = 0;
    int64_t mesh_axis = -1;
    int64_t group_size = 0;  // N
    char label = 0;          // the partitioned einsum label
    EinsumDimKind kind = EinsumDimKind::kLhsFree;  // AG case only
    /// Shard extent of `label` per loop iteration.
    int64_t shard_extent = 0;
    /// §5.5 cost terms the gate judges this site by (derated when a
    /// fault model is attached), recorded into its SiteDecision.
    GateCost cost;
    /// Healthy-pod benefit (== cost.Benefit() without a fault model).
    double benefit_nominal = 0.0;
    /// Variance-aware lowering: emit a unidirectional loop even though
    /// bidirectional transfer is enabled and structurally possible.
    bool force_unidirectional = false;
};

/**
 * The loop structure the emitter would build for this site under these
 * options — must mirror LoopEmitter::Emit()'s selection exactly so the
 * gate costs the loop it actually gets.
 */
LoopStructure
StructureFor(const Site& site, const DecomposeOptions& options,
             bool bidi_enabled)
{
    int64_t n = site.group_size;
    if (site.is_all_to_all) {
        // The per-peer chunk exchanges route each chunk its shorter way
        // around the ring, so there is no bidirectional/unidirectional
        // structural distinction to pick from.
        return site.a2a_dispatch ? LoopStructure::kAllToAllDispatch
                                 : LoopStructure::kAllToAllCombine;
    }
    bool bidi =
        bidi_enabled && BidirectionalRingEligible(n, site.shard_extent);
    if (site.is_allgather) {
        if (bidi_enabled && TwoWayExchangeEligible(n, site.shard_extent)) {
            return LoopStructure::kAllGatherTwoWay;
        }
        return bidi ? LoopStructure::kAllGatherBidirectional
                    : LoopStructure::kAllGatherUnidirectional;
    }
    if (bidi) return LoopStructure::kReduceScatterBidirectional;
    return options.unroll && n % 2 == 0
               ? LoopStructure::kReduceScatterTwoChain
               : LoopStructure::kReduceScatterSingleChain;
}

/**
 * §5.5 estimate of original minus overlapped time for one site under
 * the given cost model (possibly derated for a degraded ring). The
 * blocking-collective term intentionally uses healthy rates even on a
 * derated model (see CostModel::SetFaultDerating).
 * `allow_bidirectional` gates the §5.4.2 structures so the variance-
 * aware caller can evaluate the unidirectional lowering separately.
 *
 * The overlapped time comes from the loop-timeline replay
 * (sim/loop_timeline.h): the site's shapes are reduced to per-kernel
 * seconds mirroring what SchedGraph would compute for the emitted
 * loop, and the replay walks the loop's dependency graph under the
 * engine's channel semantics. comm_t_ring is the predicted serialized
 * wire time, extra_t the span's residual over max(comp_t, comm_t_ring)
 * — so Benefit() compares comp_t + comm_t against the replay span.
 */
GateCost
EstimateBenefit(const Site& site, const CostModel& cost,
                const DecomposeOptions& options, bool allow_bidirectional)
{
    double comp_t = cost.EinsumSeconds(site.einsum);
    double comm_t = cost.BlockingCollectiveSeconds(site.collective);
    int64_t n = site.group_size;
    bool bidi_enabled = allow_bidirectional && options.bidirectional;
    double n_d = static_cast<double>(n);
    double oh = cost.spec().op_overhead;
    int64_t shard_bytes =
        site.is_allgather
            ? site.collective->operand(0)->shape().byte_size()
            : site.collective->shape().byte_size();

    LoopShape shape;
    shape.structure = StructureFor(site, options, bidi_enabled);
    shape.ring = n;
    shape.wire_seconds = cost.WireSeconds(shard_bytes);
    shape.hop_latency_seconds = cost.HopLatencySeconds();
    // One partial einsum carries 1/N of the FLOPs plus its own launch.
    shape.partial_seconds = (comp_t - oh) / n_d + oh;
    shape.op_overhead_seconds = oh;
    shape.max_in_flight = cost.spec().max_in_flight_async;
    shape.has_copies = !options.unroll;
    shape.copy_seconds =
        cost.ElementwiseBytesSeconds(2.0 * static_cast<double>(shard_bytes));

    if (site.is_all_to_all) {
        // The exchanged buffer splits into N equal per-peer chunks;
        // each chunk travels its own permute (shorter way around), so
        // the per-hop occupancy and the aliasing copy shrink to 1/N.
        int64_t chunk_bytes = shard_bytes / n;
        shape.wire_seconds = cost.WireSeconds(chunk_bytes);
        shape.copy_seconds = cost.ElementwiseBytesSeconds(
            2.0 * static_cast<double>(chunk_bytes));
        double out_bytes =
            static_cast<double>(site.einsum->shape().byte_size());
        if (site.a2a_dispatch) {
            // Sender-side DynamicSlice carving each chunk out of the
            // loop input.
            shape.send_slice_seconds = cost.ElementwiseBytesSeconds(
                2.0 * static_cast<double>(chunk_bytes));
            shape.zeros_seconds = cost.ElementwiseBytesSeconds(out_bytes);
            if (site.kind == EinsumDimKind::kContracting) {
                shape.combine_seconds =
                    cost.ElementwiseBytesSeconds(3.0 * out_bytes);
                shape.combine_is_full_add = true;
            } else {
                shape.combine_seconds =
                    cost.ElementwiseBytesSeconds(2.0 * out_bytes / n_d);
            }
            if (site.kind == EinsumDimKind::kContracting ||
                site.kind == EinsumDimKind::kBatch) {
                double other_bytes = static_cast<double>(
                    site.einsum->operand(1 - site.side)
                        ->shape()
                        .byte_size());
                shape.slices_per_partial = 1;
                shape.slice_seconds =
                    cost.ElementwiseBytesSeconds(2.0 * other_bytes / n_d);
            }
        } else {
            // Combine: the accumulator is the A2A buffer itself; each
            // received chunk is DUSed into one 1/N block of it, and
            // every partial slices the label-carrying operand.
            double sliced_bytes = static_cast<double>(
                site.einsum->operand(site.side)->shape().byte_size());
            shape.zeros_seconds = cost.ElementwiseBytesSeconds(
                static_cast<double>(shard_bytes));
            shape.combine_seconds = cost.ElementwiseBytesSeconds(
                2.0 * static_cast<double>(shard_bytes) / n_d);
            shape.slices_per_partial = 1;
            shape.slice_seconds =
                cost.ElementwiseBytesSeconds(2.0 * sliced_bytes / n_d);
        }
    } else if (site.is_allgather) {
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
        if (shape.structure == LoopStructure::kAllGatherTwoWay) {
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
        double rs_bytes = static_cast<double>(shard_bytes);
        double sliced_bytes = static_cast<double>(
            site.einsum->operand(site.side)->shape().byte_size());
        shape.zeros_seconds = cost.ElementwiseBytesSeconds(rs_bytes);
        shape.combine_seconds =
            cost.ElementwiseBytesSeconds(3.0 * rs_bytes);
        shape.slices_per_partial = 1;
        shape.slice_seconds =
            cost.ElementwiseBytesSeconds(2.0 * sliced_bytes / n_d);
    }

    LoopTimeline timeline = PredictLoopTimeline(shape);
    GateCost gate;
    gate.comp_t = comp_t;
    gate.comm_t = comm_t;
    gate.comm_t_ring = timeline.wire_seconds;
    // Mapped so max(comp_t, comm_t_ring) + extra_t reproduces the
    // replay span (GateCost::OverlappedSeconds); the replay guarantees
    // span >= both terms.
    gate.extra_t = std::max(
        0.0, timeline.span_seconds -
                 std::max(comp_t, timeline.wire_seconds));
    gate.predicted_hidden_fraction = timeline.HiddenFraction();
    gate.margin = kGateDecisionMargin * (comp_t + comm_t);
    gate.shape = shape;
    return gate;
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
 * Emits the unrolled Looped CollectiveEinsum for one site. Every
 * instruction added is tagged with a fresh loop group; the loop-index
 * scalars come from the Run's IndexScalars and stay untagged.
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
        HloInstruction* result;
        bool bidi = options_.bidirectional &&
                    BidirectionalRingEligible(n_, site_.shard_extent);
        if (site_.is_all_to_all) {
            result = site_.a2a_dispatch ? EmitAllToAllDispatch()
                                        : EmitAllToAllCombine();
        } else if (site_.is_allgather) {
            if (options_.bidirectional &&
                TwoWayExchangeEligible(n_, site_.shard_extent)) {
                // 2-way parallelism: circulate the two halves of the
                // peer's shard over the two opposite link directions
                // concurrently (the §5.4.2 idea at its smallest scale,
                // and what makes the §7.1 inference case profitable).
                result = EmitAllGatherTwoWay();
            } else {
                result = bidi ? EmitAllGatherBidirectional()
                              : EmitAllGatherUnidirectional();
            }
        } else {
            if (bidi) {
                result = EmitReduceScatterBidirectional();
            } else if (options_.unroll && n_ % 2 == 0) {
                result = EmitReduceScatterTwoChain();
            } else {
                result = EmitReduceScatterSingleChain();
            }
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

    // Collect candidate sites per einsum, then pick the best one each.
    std::vector<Site> chosen;
    for (HloInstruction* einsum : snapshot) {
        if (einsum->opcode() != HloOpcode::kEinsum) continue;
        const EinsumSpec& spec = einsum->einsum();
        std::vector<Site> candidates;

        // AllGather feeding either operand.
        for (int64_t side = 0; side < 2; ++side) {
            HloInstruction* operand = einsum->operand(side);
            if (operand->opcode() != HloOpcode::kAllGather) continue;
            if (operand->users().size() != 1 ||
                einsum->operand(0) == einsum->operand(1)) {
                ++stats.skipped_unsupported;
                continue;
            }
            int64_t axis = groups_axis(operand->attrs().groups);
            if (axis < 0) {
                ++stats.skipped_unsupported;
                continue;
            }
            int64_t n = mesh_.axis_size(axis);
            if (n <= 1) continue;
            Site site;
            site.einsum = einsum;
            site.collective = operand;
            site.is_allgather = true;
            site.side = side;
            site.mesh_axis = axis;
            site.group_size = n;
            site.label = SideLabels(
                spec, side)[static_cast<size_t>(operand->attrs().dim)];
            site.kind = spec.KindOf(site.label);
            site.shard_extent =
                operand->operand(0)->shape().dim(operand->attrs().dim);
            candidates.push_back(site);
        }

        // AllToAll feeding either operand (MoE dispatch, §18).
        for (int64_t side = 0; side < 2 && options_.all_to_all; ++side) {
            HloInstruction* operand = einsum->operand(side);
            if (operand->opcode() != HloOpcode::kAllToAll) continue;
            if (operand->users().size() != 1 ||
                einsum->operand(0) == einsum->operand(1)) {
                ++stats.skipped_unsupported;
                continue;
            }
            int64_t axis = groups_axis(operand->attrs().groups);
            if (axis < 0) {
                ++stats.skipped_unsupported;
                continue;
            }
            int64_t n = mesh_.axis_size(axis);
            if (n <= 1) continue;
            int64_t extent =
                operand->shape().dim(operand->attrs().dim);
            if (!AllToAllRingEligible(n, extent)) {
                ++stats.skipped_unsupported;
                continue;
            }
            Site site;
            site.einsum = einsum;
            site.collective = operand;
            site.is_all_to_all = true;
            site.a2a_dispatch = true;
            site.side = side;
            site.mesh_axis = axis;
            site.group_size = n;
            site.label = SideLabels(
                spec, side)[static_cast<size_t>(operand->attrs().dim)];
            site.kind = spec.KindOf(site.label);
            site.shard_extent = extent / n;
            candidates.push_back(site);
        }

        // AllToAll consuming the einsum (MoE combine, §18). Like the
        // ReduceScatter case, the exchanged output label must belong to
        // exactly one operand so the partial einsums can slice it.
        if (options_.all_to_all && einsum->users().size() == 1 &&
            einsum->users()[0]->opcode() == HloOpcode::kAllToAll) {
            HloInstruction* a2a = einsum->users()[0];
            int64_t axis = groups_axis(a2a->attrs().groups);
            char label = spec.out_labels()[static_cast<size_t>(
                a2a->attrs().dim)];
            EinsumDimKind kind = spec.KindOf(label);
            int64_t extent = a2a->shape().dim(a2a->attrs().dim);
            if (axis < 0) {
                ++stats.skipped_unsupported;
            } else if (kind != EinsumDimKind::kLhsFree &&
                       kind != EinsumDimKind::kRhsFree) {
                ++stats.skipped_unsupported;
            } else if (mesh_.axis_size(axis) > 1) {
                if (!AllToAllRingEligible(mesh_.axis_size(axis), extent)) {
                    ++stats.skipped_unsupported;
                } else {
                    Site site;
                    site.einsum = einsum;
                    site.collective = a2a;
                    site.is_all_to_all = true;
                    site.a2a_dispatch = false;
                    site.side =
                        kind == EinsumDimKind::kLhsFree ? 0 : 1;
                    site.mesh_axis = axis;
                    site.group_size = mesh_.axis_size(axis);
                    site.label = label;
                    site.kind = kind;
                    site.shard_extent =
                        extent / mesh_.axis_size(axis);
                    candidates.push_back(site);
                }
            }
        }

        // ReduceScatter consuming the einsum.
        if (einsum->users().size() == 1 &&
            einsum->users()[0]->opcode() == HloOpcode::kReduceScatter) {
            HloInstruction* rs = einsum->users()[0];
            int64_t axis = groups_axis(rs->attrs().groups);
            char label = spec.out_labels()[static_cast<size_t>(
                rs->attrs().dim)];
            EinsumDimKind kind = spec.KindOf(label);
            if (axis < 0) {
                ++stats.skipped_unsupported;
            } else if (kind != EinsumDimKind::kLhsFree &&
                       kind != EinsumDimKind::kRhsFree) {
                // The scattered dimension must be non-contracting and
                // belong to exactly one operand (§5.1).
                ++stats.skipped_unsupported;
            } else if (mesh_.axis_size(axis) > 1) {
                Site site;
                site.einsum = einsum;
                site.collective = rs;
                site.is_allgather = false;
                site.side = kind == EinsumDimKind::kLhsFree ? 0 : 1;
                site.mesh_axis = axis;
                site.group_size = mesh_.axis_size(axis);
                site.label = label;
                site.kind = kind;
                site.shard_extent =
                    rs->shape().dim(rs->attrs().dim);
                candidates.push_back(site);
            }
        }

        if (candidates.empty()) continue;

        // §5.5: estimate original vs overlapped time for each candidate.
        for (Site& site : candidates) {
            site.cost = EstimateBenefit(site, *cost_model_, options_,
                                        /*allow_bidirectional=*/true);
            site.benefit_nominal = site.cost.Benefit();
        }

        // Variance-aware re-costing (fault model attached): gate on the
        // slowest link/chip of the site's ring instead of nominal
        // rates. A bidirectional loop needs both directions healthy; a
        // unidirectional lowering only the emitter's fixed direction
        // (Permute(step=+1) routes toward the lower ring position,
        // i.e. engine direction 0).
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
                CostModel bidi_cost = *cost_model_;
                bidi_cost.SetFaultDerating(chip, std::min(f0, f1),
                                           std::max(l0, l1));
                GateCost bidi_gate =
                    EstimateBenefit(site, bidi_cost, options_,
                                    /*allow_bidirectional=*/true);
                if (site.is_all_to_all) {
                    // A2A chunks route both directions regardless of
                    // options, so the worst-of-both derating is the
                    // only sound verdict; there is no unidirectional
                    // lowering to fall back to.
                    site.cost = bidi_gate;
                    continue;
                }
                CostModel uni_cost = *cost_model_;
                uni_cost.SetFaultDerating(chip, f0, l0);
                GateCost uni_gate =
                    EstimateBenefit(site, uni_cost, options_,
                                    /*allow_bidirectional=*/false);
                // Prefer the configured (bidirectional) structure while
                // it still wins on the degraded ring; lower to the
                // healthier single direction only once it no longer
                // does (ISSUE: "fall back to blocking collective or
                // lower unroll degree when the decomposed ring no
                // longer wins").
                if (bidi_gate.Benefit() < 0.0 &&
                    uni_gate.Benefit() > bidi_gate.Benefit()) {
                    site.cost = uni_gate;
                    site.force_unidirectional = true;
                } else {
                    site.cost = bidi_gate;
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
        // Only honour the lowering when the gate is active and the
        // structure would actually have been bidirectional — otherwise
        // the "lowering" changes nothing and must not be counted.
        best.force_unidirectional =
            best.force_unidirectional && !best.is_all_to_all &&
            options_.use_cost_model &&
            options_.bidirectional &&
            (BidirectionalRingEligible(best.group_size,
                                       best.shard_extent) ||
             TwoWayExchangeEligible(best.group_size, best.shard_extent));
        if (best.force_unidirectional) {
            ++stats.fault_lowered;
            decision.lowered_to_unidirectional = true;
            OVERLAP_LOG(kInfo)
                << "decompose: lowered " << best.collective->name()
                << " to unidirectional (degraded ring direction)";
        }
        decision.decomposed = true;
        decision.reason = "decomposed";
        stats.decisions.push_back(std::move(decision));
        chosen.push_back(best);
    }

    if (chosen.empty()) return stats;
    RingShifts ring_shifts(mesh_);
    IndexScalars scalars(computation);
    for (const Site& site : chosen) {
        DecomposeOptions site_options = options_;
        if (site.force_unidirectional) {
            site_options.bidirectional = false;
        }
        LoopEmitter emitter(computation, &ring_shifts, &scalars,
                            site_options, site);
        HloInstruction* replacement = emitter.Emit();
        // Join key for the overlap-efficiency report: the decision of
        // this site learns the loop group its instructions now carry.
        for (SiteDecision& decision : stats.decisions) {
            if (decision.decomposed &&
                decision.collective == site.collective->name() &&
                decision.einsum == site.einsum->name()) {
                decision.loop_group = emitter.emitted_group();
                break;
            }
        }
        // Dispatch-shaped sites (AG-einsum, A2A-einsum) replace the
        // einsum; consumer-shaped sites (einsum-RS, einsum-A2A) replace
        // the collective.
        bool replaces_einsum =
            site.is_allgather ||
            (site.is_all_to_all && site.a2a_dispatch);
        HloInstruction* replaced =
            replaces_einsum ? site.einsum : site.collective;
        computation->ReplaceAllUsesWith(replaced, replacement);
        if (site.is_all_to_all) {
            ++stats.all_to_all_sites;
        } else if (site.is_allgather) {
            ++stats.allgather_sites;
        } else {
            ++stats.reduce_scatter_sites;
        }
    }
    computation->RemoveDeadInstructions();
    computation->SortTopologically();
    return stats;
}

}  // namespace overlap
