#ifndef OVERLAP_SIM_COST_MODEL_H_
#define OVERLAP_SIM_COST_MODEL_H_

#include "hlo/instruction.h"
#include "sim/hardware.h"

namespace overlap {

/**
 * Analytic per-instruction timing against peak FLOPS and interconnect
 * bandwidth (the paper's §5.5 estimation), shared by the compiler passes
 * (decomposition gating, scheduler latencies) and the pod simulator
 * (instruction durations).
 *
 * Blocking collectives are costed with standard bidirectional-ring
 * formulas on the torus dimension they run over; a decomposed
 * CollectivePermute step is a single unidirectional hop.
 */
class CostModel {
  public:
    explicit CostModel(HardwareSpec spec) : spec_(spec) {}

    const HardwareSpec& spec() const { return spec_; }

    /**
     * Derates the model for a degraded pod (the variance-aware §5.5
     * gate): compute-bound times divide by `compute_factor`, ring-hop
     * wire times by `link_bandwidth_factor`, and per-hop latencies
     * multiply by `link_latency_factor`. Blocking collectives stay at
     * healthy rates — the runtime's built-in collectives are assumed to
     * rebalance around a degraded link, while decomposed
     * CollectivePermutes are pinned to the compiler-chosen route (see
     * FaultModel). Factors of 1.0 leave every estimate bit-identical.
     */
    void SetFaultDerating(double compute_factor,
                          double link_bandwidth_factor,
                          double link_latency_factor)
    {
        compute_derate_ = compute_factor;
        link_derate_ = link_bandwidth_factor;
        link_latency_derate_ = link_latency_factor;
    }

    double compute_derate() const { return compute_derate_; }
    double link_derate() const { return link_derate_; }

    /** Wall time of `instr`'s local work (no queueing/contention). */
    double InstructionSeconds(const HloInstruction* instr) const;

    /** Dense einsum time from its FLOP count. */
    double EinsumSeconds(const HloInstruction* instr) const;

    /**
     * Memory-bound kernel time: total bytes read+written over HBM
     * bandwidth plus launch overhead.
     */
    double ElementwiseSeconds(const HloInstruction* instr) const;

    /**
     * Blocking collective time (AG/RS/AR/A2A, or an async Start wrapping
     * one) via ring formulas.
     */
    double BlockingCollectiveSeconds(const HloInstruction* instr) const;

    /**
     * Nominal wire time of the exchange a sync collective or an async
     * Start issues: one ring hop for a permute, the blocking formula for
     * the rest. An async Done's worst-case wait and a schedule unit's
     * transfer_seconds are both this, of the Start.
     */
    double ExchangeSeconds(const HloInstruction* instr) const;

    /** One unidirectional ring hop moving `bytes`. */
    double PermuteStepSeconds(int64_t bytes) const;

    /**
     * The channel-occupancy part of one ring hop (no arrival latency),
     * under the current link derating — what the engine charges a
     * (axis, direction) channel per transfer. The loop-timeline replay
     * needs wire and latency separately to model chained transfers.
     */
    double WireSeconds(int64_t bytes) const
    {
        return static_cast<double>(bytes) /
               (spec_.link_bandwidth * link_derate_);
    }

    /** Per-hop arrival latency under the current derating. */
    double HopLatencySeconds() const
    {
        return spec_.link_latency * link_latency_derate_;
    }

    /**
     * Memory-bound kernel time for a raw byte count (read+write total),
     * same formula ElementwiseSeconds applies to an instruction — lets
     * the §5.5 gate cost the loop's combines/slices/zero-fills before
     * they exist as HLO.
     */
    double ElementwiseBytesSeconds(double bytes) const
    {
        return bytes / (spec_.mem_bandwidth * compute_derate_) +
               spec_.op_overhead;
    }

    /**
     * Total wire time of a decomposed CollectivePermute sequence of
     * `steps` ring hops, each moving `shard_bytes` on one link — the
     * paper's comm_t_ring. Bidirectional transfer shows up as a halved
     * step count (both directions are active concurrently), not as
     * smaller steps.
     */
    double RingSequenceSeconds(int64_t shard_bytes, int64_t steps) const;

  private:
    HardwareSpec spec_;
    double compute_derate_ = 1.0;
    double link_derate_ = 1.0;
    double link_latency_derate_ = 1.0;
};

}  // namespace overlap

#endif  // OVERLAP_SIM_COST_MODEL_H_
