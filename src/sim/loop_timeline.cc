#include "sim/loop_timeline.h"

#include <algorithm>
#include <array>
#include <functional>
#include <initializer_list>
#include <queue>
#include <utility>
#include <vector>

#include "support/status.h"

namespace overlap {
namespace {

/**
 * A unit's dependency list, held inline: the builder's longest list has
 * five entries ({dl, dr, sl, sr, acc}), so a fixed capacity of eight
 * keeps every unit free of a heap allocation.
 */
class Deps {
  public:
    static constexpr size_t kCapacity = 8;

    Deps() = default;
    /** The non-negative entries of `deps` (a -1 marks "no value yet"). */
    explicit Deps(std::initializer_list<int> deps)
    {
        OVERLAP_CHECK(deps.size() <= kCapacity);
        for (int dep : deps) {
            if (dep >= 0) items_[size_++] = dep;
        }
    }

    size_t size() const { return size_; }
    int* begin() { return items_.data(); }
    int* end() { return items_.data() + size_; }
    const int* begin() const { return items_.data(); }
    const int* end() const { return items_.data() + size_; }
    /** Keeps the first `size` entries. */
    void truncate(size_t size) { size_ = size; }

  private:
    std::array<int, kCapacity> items_{};
    size_t size_ = 0;
};

/**
 * One node of the synthetic unit graph the replay executes: a fused
 * compute kernel, a permute's async Start (channel occupancy + arrival
 * latency) or its Done. Mirrors SchedGraph's units for the loop the
 * emitter would build, without needing the HLO to exist yet.
 */
struct Unit {
    enum Kind { kCompute, kStart, kDone };
    Kind kind = kCompute;
    double seconds = 0.0;   ///< compute latency
    double wire = 0.0;      ///< start: total channel occupancy
    double latency = 0.0;   ///< start: total arrival latency
    int direction = 0;      ///< start: 0, 1, or -1 (load-balanced)
    int start = -1;         ///< done: index of its Start
    Deps deps;              ///< indices that must complete first
};

struct Interval {
    double begin = 0.0;
    double end = 0.0;
};

double
UnionMeasure(std::vector<Interval> intervals)
{
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                  return a.begin < b.begin;
              });
    double total = 0.0;
    double hi = 0.0;
    bool any = false;
    for (const Interval& interval : intervals) {
        if (interval.end <= interval.begin) continue;
        if (!any || interval.begin > hi) {
            total += interval.end - interval.begin;
            hi = interval.end;
        } else if (interval.end > hi) {
            total += interval.end - hi;
            hi = interval.end;
        }
        any = true;
    }
    return total;
}

/**
 * The replay walks compute as early as data allows, while the bottom-up
 * scheduler quantizes compute into blocks between Done waits. On the
 * two structures whose paired streams alternate Done waits — the
 * bidirectional AllGather and the two-chain ReduceScatter interleave —
 * that makes each serialized wire step about 2% longer in the engine
 * than in the walk, so their wire time is scaled up by these constants.
 * Every other structure replays the engine with its wire time as is.
 * cost_model_test bounds the replay's span error against traced
 * simulation under these values (DESIGN.md §15).
 */
constexpr double kAllGatherBidirectionalWireScale = 1.02;
constexpr double kReduceScatterTwoChainWireScale = 1.02;

double
WireScale(LoopStructure structure)
{
    switch (structure) {
      case LoopStructure::kAllGatherBidirectional:
          return kAllGatherBidirectionalWireScale;
      case LoopStructure::kReduceScatterTwoChain:
          return kReduceScatterTwoChainWireScale;
      default:
          return 1.0;
    }
}

/**
 * Builds the synthetic unit graph of one loop structure, in emission
 * order (the replay breaks compute ties by program order, like the
 * scheduler breaks priority ties by the memory schedule). Dependency
 * edges copy LoopEmitter's data flow exactly: which transfer chains on
 * which Done, which combines fuse into their partial einsum (SchedGraph
 * fuses a combiner with the producer reading an async Done;
 * a combiner that itself reads a Done while no producer does stays
 * unfused), where the prologue/epilogue permutes sit.
 */
class UnitBuilder {
  public:
    explicit UnitBuilder(const LoopShape& shape) : s_(shape) {}

    std::vector<Unit> Build()
    {
        switch (s_.structure) {
          case LoopStructure::kAllGatherUnidirectional:
              AllGatherUnidirectional();
              break;
          case LoopStructure::kAllGatherBidirectional:
              AllGatherBidirectional();
              break;
          case LoopStructure::kAllGatherTwoWay:
              AllGatherTwoWay();
              break;
          case LoopStructure::kReduceScatterSingleChain:
              ReduceScatterSingleChain();
              break;
          case LoopStructure::kReduceScatterTwoChain:
              ReduceScatterTwoChain();
              break;
          case LoopStructure::kReduceScatterBidirectional:
              ReduceScatterBidirectional();
              break;
          case LoopStructure::kAllToAllDispatch:
              AllToAllDispatch();
              break;
          case LoopStructure::kAllToAllCombine:
              AllToAllCombine();
              break;
        }
        return std::move(units_);
    }

  private:
    int Compute(double seconds, std::initializer_list<int> deps)
    {
        Unit unit;
        unit.kind = Unit::kCompute;
        unit.seconds = seconds;
        unit.deps = Deps(deps);
        units_.push_back(unit);
        return static_cast<int>(units_.size()) - 1;
    }

    /** Start + Done pair; returns the Done's index. */
    int Transfer(int hops, int direction, std::initializer_list<int> deps)
    {
        Unit start;
        start.kind = Unit::kStart;
        start.wire = static_cast<double>(hops) * wire_;
        start.latency =
            static_cast<double>(hops) * s_.hop_latency_seconds;
        start.direction = direction;
        start.deps = Deps(deps);
        units_.push_back(start);
        int start_index = static_cast<int>(units_.size()) - 1;
        Unit done;
        done.kind = Unit::kDone;
        done.start = start_index;
        done.deps = Deps{start_index};
        units_.push_back(done);
        return static_cast<int>(units_.size()) - 1;
    }

    /** The loop-carried aliasing copy before a permute (no-unroll). */
    int MaybeCopy(int value)
    {
        if (!s_.has_copies) return value;
        return Compute(copy_, {value});
    }

    /** The Start unit feeding Done `done`, for launch-order deps. */
    int LaunchOf(int done) const
    {
        if (done < 0) return -1;
        return units_[static_cast<size_t>(done)].start;
    }

    /** Affine half-cost of a kernel (half the work, same launch). */
    double Half(double seconds) const
    {
        double oh = s_.op_overhead_seconds;
        return (seconds - oh) / 2.0 + oh;
    }

    void AllGatherUnidirectional()
    {
        // On comm-bound sites the bottom-up scheduler sinks every
        // partial-einsum group below the permute chain: copies and
        // launches run first, waiting on each arrival, and the
        // partials only start once the last permute is in flight (the
        // first flight is fully exposed — even the own-shard partial
        // does not cover it). On compute-bound sites the reverse
        // pass's transfer spacing finds enough kernels to interleave
        // and the flights hide instead. Pick the emission the
        // scheduler would produce for this shape.
        double group = partial_ + disc_ * combine_ +
                       (s_.slices_per_partial > 0 ? slice_ : 0.0);
        bool comm_bound = wire_ * static_cast<double>(s_.ring - 1) >
                          group * static_cast<double>(s_.ring);
        std::vector<int> data(static_cast<size_t>(s_.ring), -1);
        for (int64_t i = 0; i + 1 < s_.ring; ++i) {
            data[static_cast<size_t>(i + 1)] =
                Transfer(1, 0, {MaybeCopy(data[static_cast<size_t>(i)])});
        }
        int last_launch =
            comm_bound ? LaunchOf(data[static_cast<size_t>(s_.ring - 1)])
                       : -1;
        int acc = Compute(zeros_, {});
        for (int64_t i = 0; i < s_.ring; ++i) {
            int sl = s_.slices_per_partial > 0 ? Compute(slice_, {}) : -1;
            acc = Compute(partial_ + disc_ * combine_,
                          {data[static_cast<size_t>(i)], sl, acc,
                           last_launch});
        }
    }

    void AllGatherBidirectional()
    {
        // Figure 9 prologue seeds the counter-clockwise stream; it
        // shares the direction-1 channel with that whole stream, which
        // is the serialization the old closed form missed.
        int prologue = Transfer(1, 1, {});
        int acc = Compute(zeros_, {});
        int dl = -1;
        int dr = prologue;
        int64_t half = s_.ring / 2;
        for (int64_t k = 0; k < half; ++k) {
            int nl = -1;
            int nr = -1;
            if (k < half - 1) {
                nl = Transfer(1, 0, {MaybeCopy(dl)});
                nr = Transfer(1, 1, {MaybeCopy(dr)});
            }
            int sl = s_.slices_per_partial > 0 ? Compute(slice_, {}) : -1;
            int sr = s_.slices_per_partial > 0 ? Compute(slice_, {}) : -1;
            // The paired partials run as one kernel (§5.4.2) with both
            // combines fused behind them.
            acc = Compute(2.0 * partial_ + disc_ * 2.0 * combine_,
                          {dl, dr, sl, sr, acc});
            dl = nl;
            dr = nr;
        }
    }

    void AllGatherTwoWay()
    {
        double send = s_.send_slice_seconds;
        int slice_lo = Compute(send, {});
        int slice_hi = Compute(send, {});
        // N == 2 permutes are antipodal: the engine load-balances them
        // across the two directions.
        int lo = Transfer(1, -1, {MaybeCopy(slice_lo)});
        int hi = Transfer(1, -1, {MaybeCopy(slice_hi)});
        int acc = Compute(zeros_, {});
        double half_partial = Half(s_.partial_seconds);
        double half_combine = s_.combine_is_full_add
                                  ? s_.combine_seconds
                                  : Half(s_.combine_seconds);
        double half_slice = Half(s_.slice_seconds);
        int own_sl =
            s_.slices_per_partial > 0 ? Compute(slice_, {}) : -1;
        acc = Compute(partial_ + disc_ * combine_, {own_sl, acc});
        int lo_sl =
            s_.slices_per_partial > 0 ? Compute(half_slice, {}) : -1;
        acc = Compute(half_partial + disc_ * half_combine,
                      {lo, lo_sl, acc});
        int hi_sl =
            s_.slices_per_partial > 0 ? Compute(half_slice, {}) : -1;
        Compute(half_partial + disc_ * half_combine, {hi, hi_sl, acc});
    }

    void ReduceScatterSingleChain()
    {
        int acc = Compute(zeros_, {});
        for (int64_t i = 0; i < s_.ring; ++i) {
            // The pre-update accumulator travels while the partial
            // computes (Algorithm 1); the Add reads the Done directly,
            // so it stays unfused from the partial einsum. The engine
            // runs compute strictly in schedule order — slice and
            // partial fill iteration k's flight, never iteration
            // k+1's — so gate the slice on the launch to keep the
            // greedy walk from racing ahead of the Add by a hair and
            // sliding every later iteration (tiny sites exposed the
            // whole final flight, ~+15%).
            int received = Transfer(1, 0, {MaybeCopy(acc)});
            int sl = Compute(slice_, {LaunchOf(received)});
            int pe = Compute(partial_, {sl});
            acc = Compute(combine_, {received, pe});
        }
    }

    void ReduceScatterTwoChain()
    {
        // Figure 8: chain A accumulates then transfers, chain B
        // transfers then accumulates. Step-2 permutes take the 2-hop
        // short way (antipodal and load-balanced on a 4-ring).
        int hops = 2;
        int dir = s_.ring == 4 ? -1 : 0;
        int acc_a = Compute(zeros_, {});
        int acc_b = Compute(zeros_, {});
        int da = -1;  // Done delivering chain A's accumulator
        int64_t half = s_.ring / 2;
        for (int64_t k = 0; k < half; ++k) {
            // A step-2 permute on a 2-ring is the identity.
            int tb = s_.ring == 2
                         ? acc_b
                         : Transfer(hops, dir, {MaybeCopy(acc_b)});
            int sa = Compute(slice_, {});
            if (k == 0) {
                // Add(zeros, partial) reads no Done: fuses.
                acc_a = Compute(partial_ + disc_ * combine_, {sa, acc_a});
            } else {
                int pa = Compute(partial_, {sa});
                acc_a = Compute(combine_, {da, pa});
            }
            if (k < half - 1) {
                da = Transfer(hops, dir, {MaybeCopy(acc_a)});
            }
            int sb = Compute(slice_, {});
            int pb = Compute(partial_, {sb});
            acc_b = Compute(combine_, {tb, pb});
        }
        int epilogue = Transfer(1, 1, {MaybeCopy(acc_b)});
        Compute(combine_, {acc_a, epilogue});
    }

    void ReduceScatterBidirectional()
    {
        // Figure 10. Unrolled, the clockwise stream accumulates then
        // transfers (first Add fuses with its partial) while the
        // counter-clockwise one transfers then accumulates; without
        // unrolling both streams transfer first and carry copies.
        //
        // Compute-unit order matters: the real scheduler runs the
        // transfer-then-add stream's partial/Add *first* each
        // iteration, which launches that stream's next permute (and
        // eventually the alignment epilogue) early enough to hide it
        // behind the other stream's remaining compute. Emitting the
        // accumulate-then-transfer stream first instead delays the
        // epilogue by a whole iteration and fabricates an exposed
        // tail the simulator never shows.
        int acc_l = Compute(zeros_, {});
        int acc_r = Compute(zeros_, {});
        int64_t half = s_.ring / 2;
        if (s_.has_copies) {
            // Without unrolling both streams transfer first, and the
            // real schedule defers iteration k's *left* partial until
            // iteration k+1's right permute is in flight — the last
            // left partial is what hides the alignment epilogue. Emit
            // each left compute one iteration late so the greedy walk
            // holds the same filler in reserve.
            int prev_tl = -1;  // left Done for the previous iteration
            for (int64_t k = 0; k < half; ++k) {
                int tr = Transfer(1, 1, {MaybeCopy(acc_r)});
                if (k > 0) {
                    int sl = Compute(slice_, {});
                    int pl = Compute(partial_, {sl});
                    acc_l = Compute(combine_, {prev_tl, pl});
                }
                prev_tl = Transfer(1, 0, {MaybeCopy(acc_l)});
                int sr = Compute(slice_, {});
                int pr = Compute(partial_, {sr});
                acc_r = Compute(combine_, {tr, pr});
            }
            int epilogue = Transfer(1, 1, {MaybeCopy(acc_r)});
            int sl = Compute(slice_, {});
            int pl = Compute(partial_, {sl});
            acc_l = Compute(combine_, {prev_tl, pl});
            Compute(combine_, {acc_l, epilogue});
            return;
        }
        int dl = -1;
        for (int64_t k = 0; k < half; ++k) {
            int tr = Transfer(1, 1, {MaybeCopy(acc_r)});
            int sr = Compute(slice_, {});
            int pr = Compute(partial_, {sr});
            acc_r = Compute(combine_, {tr, pr});
            int sl = Compute(slice_, {});
            if (k == 0) {
                acc_l = Compute(partial_ + disc_ * combine_, {sl, acc_l});
            } else {
                int pl = Compute(partial_, {sl});
                acc_l = Compute(combine_, {dl, pl});
            }
            if (k < half - 1) {
                dl = Transfer(1, 0, {acc_l});
            }
        }
        int epilogue = Transfer(1, 1, {MaybeCopy(acc_r)});
        Compute(combine_, {acc_l, epilogue});
    }

    /**
     * Hop count of the A2A chunk-k permute (step +k on an N-ring): the
     * engine routes source→target pairs the short way around, so chunk
     * k travels min(k, N-k) hops.
     */
    int ChunkHops(int64_t k) const
    {
        return static_cast<int>(std::min(k, s_.ring - k));
    }

    /**
     * Channel direction of the chunk-k permute: direction 0 for the
     * clockwise short way, 1 counter-clockwise, -1 when antipodal (the
     * engine load-balances those onto the freer channel).
     */
    int ChunkDirection(int64_t k) const
    {
        if (2 * k == s_.ring) return -1;
        return k < s_.ring - k ? 0 : 1;
    }

    void AllToAllDispatch()
    {
        // A2A feeding an einsum operand: all N send slices come
        // straight off the loop input, so nothing data-chains between
        // exchanges. The bottom-up scheduler still staggers the
        // launches — it holds each Start until enough compute sits
        // between it and its Done (the transfer-spacing pass) — and
        // the engine traces pin the pattern: the first permute goes
        // out once chunk N-3's send slice exists, the second after the
        // last send slice (its deferred copy, without unrolling), the
        // third behind the own-chunk fused partial+DUS, and each later
        // one behind one more partial group. Without unrolling the
        // loop-carried copies for chunks <= N-3 run inline after their
        // slices; the last two are deferred past all the slices.
        int64_t n = s_.ring;
        double send = s_.send_slice_seconds;
        int acc = Compute(zeros_, {});
        std::vector<int> sl(static_cast<size_t>(n), -1);
        std::vector<int> cp(static_cast<size_t>(n), -1);
        for (int64_t k = 0; k < n; ++k) {
            sl[static_cast<size_t>(k)] = Compute(send, {});
            if (s_.has_copies && k >= 1 && k <= n - 3) {
                cp[static_cast<size_t>(k)] =
                    Compute(copy_, {sl[static_cast<size_t>(k)]});
            }
        }
        if (s_.has_copies) {
            for (int64_t k = std::max<int64_t>(1, n - 2); k < n; ++k) {
                if (cp[static_cast<size_t>(k)] < 0) {
                    cp[static_cast<size_t>(k)] =
                        Compute(copy_, {sl[static_cast<size_t>(k)]});
                }
            }
        }
        auto chunk_data = [&](int64_t k) {
            return s_.has_copies ? cp[static_cast<size_t>(k)]
                                 : sl[static_cast<size_t>(k)];
        };
        auto launch = [&](int64_t k, int gate) {
            return Transfer(ChunkHops(k), ChunkDirection(k),
                            {chunk_data(k), gate});
        };
        std::vector<int> recv(static_cast<size_t>(n), -1);
        int gate1 = s_.has_copies
                        ? sl[static_cast<size_t>(n - 1)]
                        : (n >= 4 ? sl[static_cast<size_t>(n - 3)] : -1);
        recv[1] = launch(1, gate1);
        if (n >= 3) {
            recv[2] = launch(2, s_.has_copies
                                    ? cp[static_cast<size_t>(n - 1)]
                                    : sl[static_cast<size_t>(n - 1)]);
        }
        // Own chunk first among the partials; its DUS reads no Done
        // and fuses (the later ones read their chunk's Done directly
        // through the fused einsum, like the AllGather loops).
        int osl = s_.slices_per_partial > 0 ? Compute(slice_, {}) : -1;
        acc = Compute(partial_ + disc_ * combine_, {sl[0], osl, acc});
        if (n >= 4) recv[3] = launch(3, acc);
        for (int64_t k = 1; k < n; ++k) {
            int psl = s_.slices_per_partial > 0 ? Compute(slice_, {}) : -1;
            acc = Compute(partial_ + disc_ * combine_,
                          {recv[static_cast<size_t>(k)], psl, acc});
            if (k + 3 < n) recv[static_cast<size_t>(k + 3)] =
                launch(k + 3, acc);
        }
    }

    void AllToAllCombine()
    {
        // Einsum feeding an A2A: partial k einsums an operand chunk,
        // chunk k != 0 is permuted to its peer, and every received
        // chunk is DUSed into the accumulator. Those DUSes read the
        // Done directly, so they stay unfused (the RS pattern); the
        // own-chunk DUS reads no Done, fuses with its partial, and the
        // scheduler sinks it below every peer partial — it is the
        // compute that hides the last flights. All N operand slices
        // hoist to the top. Launches stagger like dispatch: the first
        // two permutes go out behind peer partial N-2, the rest behind
        // partial N-1 (without unrolling, behind the deferred copies
        // of chunks N-2 and N-1; copies for chunks <= N-3 run inline).
        int64_t n = s_.ring;
        int acc = Compute(zeros_, {});
        std::vector<int> sl(static_cast<size_t>(n), -1);
        std::vector<int> pe(static_cast<size_t>(n), -1);
        std::vector<int> cp(static_cast<size_t>(n), -1);
        for (int64_t k = 0; k < n; ++k) {
            sl[static_cast<size_t>(k)] = Compute(slice_, {});
        }
        for (int64_t k = 1; k < n; ++k) {
            pe[static_cast<size_t>(k)] =
                Compute(partial_, {sl[static_cast<size_t>(k)]});
            if (s_.has_copies && k <= n - 3) {
                cp[static_cast<size_t>(k)] =
                    Compute(copy_, {pe[static_cast<size_t>(k)]});
            }
        }
        if (s_.has_copies) {
            for (int64_t k = std::max<int64_t>(1, n - 2); k < n; ++k) {
                if (cp[static_cast<size_t>(k)] < 0) {
                    cp[static_cast<size_t>(k)] =
                        Compute(copy_, {pe[static_cast<size_t>(k)]});
                }
            }
        }
        std::vector<int> recv(static_cast<size_t>(n), -1);
        for (int64_t k = 1; k < n; ++k) {
            int gate;
            if (s_.has_copies) {
                gate = k == 1 ? pe[static_cast<size_t>(n - 1)]
                       : k == 2
                           ? (n >= 3 ? cp[static_cast<size_t>(n - 2)] : -1)
                           : cp[static_cast<size_t>(n - 1)];
            } else {
                gate = k <= 2
                           ? (n >= 3 ? pe[static_cast<size_t>(n - 2)] : -1)
                           : pe[static_cast<size_t>(n - 1)];
            }
            int data = s_.has_copies ? cp[static_cast<size_t>(k)]
                                     : pe[static_cast<size_t>(k)];
            recv[static_cast<size_t>(k)] =
                Transfer(ChunkHops(k), ChunkDirection(k), {data, gate});
        }
        acc = Compute(partial_ + disc_ * combine_, {sl[0], acc});
        for (int64_t k = 1; k < n; ++k) {
            acc = Compute(combine_, {recv[static_cast<size_t>(k)], acc});
        }
    }

    const LoopShape& s_;
    std::vector<Unit> units_;

    const double wire_ = s_.wire_seconds * WireScale(s_.structure);
    const double partial_ = s_.partial_seconds;
    const double combine_ = s_.combine_seconds;
    const double slice_ = s_.slice_seconds;
    const double zeros_ = s_.zeros_seconds;
    const double copy_ = s_.copy_seconds;
    const double disc_ = s_.fused_discount;
};

}  // namespace

const char*
LoopStructureName(LoopStructure structure)
{
    switch (structure) {
      case LoopStructure::kAllGatherUnidirectional:
          return "ag_unidirectional";
      case LoopStructure::kAllGatherBidirectional:
          return "ag_bidirectional";
      case LoopStructure::kAllGatherTwoWay:
          return "ag_two_way";
      case LoopStructure::kReduceScatterSingleChain:
          return "rs_single_chain";
      case LoopStructure::kReduceScatterTwoChain:
          return "rs_two_chain";
      case LoopStructure::kReduceScatterBidirectional:
          return "rs_bidirectional";
      case LoopStructure::kAllToAllDispatch:
          return "a2a_dispatch";
      case LoopStructure::kAllToAllCombine:
          return "a2a_combine";
    }
    return "unknown";
}

LoopTimeline
PredictLoopTimeline(const LoopShape& shape)
{
    OVERLAP_CHECK(shape.ring >= 2);
    std::vector<Unit> units = UnitBuilder(shape).Build();
    const int count = static_cast<int>(units.size());

    // Dependents in CSR form and a pending-dependency count per unit. A
    // dependency listed twice (A2A dispatch at N = 4 gates chunk 1's
    // permute on the send slice it also carries) counts once.
    std::vector<int> pending(static_cast<size_t>(count), 0);
    std::vector<int> first_dependent(static_cast<size_t>(count) + 1, 0);
    for (Unit& unit : units) {
        std::sort(unit.deps.begin(), unit.deps.end());
        unit.deps.truncate(static_cast<size_t>(
            std::unique(unit.deps.begin(), unit.deps.end()) -
            unit.deps.begin()));
        for (int dep : unit.deps) {
            ++first_dependent[static_cast<size_t>(dep) + 1];
        }
    }
    for (int i = 0; i < count; ++i) {
        first_dependent[static_cast<size_t>(i) + 1] +=
            first_dependent[static_cast<size_t>(i)];
    }
    std::vector<int> dependents(
        static_cast<size_t>(first_dependent.back()));
    std::vector<int> next_slot(first_dependent.begin(),
                               first_dependent.end() - 1);
    for (int i = 0; i < count; ++i) {
        const Unit& unit = units[static_cast<size_t>(i)];
        pending[static_cast<size_t>(i)] = static_cast<int>(unit.deps.size());
        for (int dep : unit.deps) {
            dependents[static_cast<size_t>(
                next_slot[static_cast<size_t>(dep)]++)] = i;
        }
    }

    // Ready units by tier: Starts and computes by index, Dones by
    // (arrival, index) — a Done becomes ready with its Start, so its
    // arrival is known by then.
    using IndexHeap =
        std::priority_queue<int, std::vector<int>, std::greater<int>>;
    using ArrivalHeap =
        std::priority_queue<std::pair<double, int>,
                            std::vector<std::pair<double, int>>,
                            std::greater<std::pair<double, int>>>;
    IndexHeap starts;
    IndexHeap computes;
    ArrivalHeap dones;
    std::vector<double> arrival(static_cast<size_t>(count), 0.0);
    auto release = [&](int i) {
        const Unit& unit = units[static_cast<size_t>(i)];
        switch (unit.kind) {
          case Unit::kStart:
              starts.push(i);
              break;
          case Unit::kCompute:
              computes.push(i);
              break;
          case Unit::kDone:
              dones.push({arrival[static_cast<size_t>(unit.start)], i});
              break;
        }
    };
    int completed = 0;
    auto finish = [&](int i) {
        ++completed;
        for (int k = first_dependent[static_cast<size_t>(i)];
             k < first_dependent[static_cast<size_t>(i) + 1]; ++k) {
            int user = dependents[static_cast<size_t>(k)];
            if (--pending[static_cast<size_t>(user)] == 0) release(user);
        }
    };
    for (int i = 0; i < count; ++i) {
        if (pending[static_cast<size_t>(i)] == 0) release(i);
    }

    std::vector<Interval> in_flight;
    std::vector<Interval> exposed;
    double t = 0.0;
    double channel[2] = {0.0, 0.0};
    int64_t outstanding = 0;
    double compute_sum = 0.0;

    // Event-driven forward walk of the unit graph under the engine's
    // channel semantics. Priorities mirror the bottom-up scheduler's
    // classes: Starts issue as soon as their data exists (and the
    // in-flight budget allows), ready compute runs while transfers fly,
    // and the device stalls on a Done only when nothing else can make
    // progress — retiring the earliest arrival first, as the engine
    // does. Each step is one heap operation, so the walk is
    // O(units log units).
    while (completed < count) {
        // Retire every Done whose transfer has already arrived — in
        // the engine a Done past its arrival costs nothing, and its
        // consumers become schedulable immediately. Without this the
        // walk defers cheap combines behind all independent compute,
        // which delays the transfers they feed and fabricates an
        // exposed tail (the rs-bidirectional epilogue was the worst
        // case: ~40% span over-prediction).
        if (!dones.empty() && dones.top().first <= t) {
            while (!dones.empty() && dones.top().first <= t) {
                int i = dones.top().second;
                dones.pop();
                --outstanding;
                finish(i);
            }
            continue;
        }
        if (!starts.empty() && outstanding < shape.max_in_flight) {
            while (!starts.empty() && outstanding < shape.max_in_flight) {
                int i = starts.top();
                starts.pop();
                Unit& unit = units[static_cast<size_t>(i)];
                int direction = unit.direction;
                if (direction < 0) {
                    direction = channel[0] <= channel[1] ? 0 : 1;
                }
                double begin = std::max(t, channel[direction]);
                channel[direction] = begin + unit.wire;
                arrival[static_cast<size_t>(i)] =
                    channel[direction] + unit.latency;
                in_flight.push_back({t, arrival[static_cast<size_t>(i)]});
                ++outstanding;
                finish(i);
            }
            continue;
        }
        if (!computes.empty()) {
            int i = computes.top();
            computes.pop();
            t += units[static_cast<size_t>(i)].seconds;
            compute_sum += units[static_cast<size_t>(i)].seconds;
            finish(i);
            continue;
        }
        OVERLAP_CHECK(!dones.empty());  // graph acyclic by construction
        auto [when, i] = dones.top();
        dones.pop();
        if (when > t) {
            exposed.push_back({t, when});
            t = when;
        }
        --outstanding;
        finish(i);
    }

    LoopTimeline timeline;
    timeline.span_seconds = t;
    timeline.compute_seconds = compute_sum;
    timeline.wire_seconds = UnionMeasure(std::move(in_flight));
    timeline.exposed_seconds = UnionMeasure(std::move(exposed));
    return timeline;
}

}  // namespace overlap
