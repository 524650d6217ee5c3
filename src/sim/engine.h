#ifndef OVERLAP_SIM_ENGINE_H_
#define OVERLAP_SIM_ENGINE_H_

#include <string>
#include <vector>

#include "hlo/module.h"
#include "sim/cost_model.h"
#include "sim/fault_model.h"
#include "sim/sched_graph.h"
#include "support/status.h"
#include "tensor/mesh.h"

namespace overlap {

/** What a trace entry spent its time on. */
enum class TraceKind {
    kCompute,           ///< einsum / element-wise kernel
    kCollective,        ///< blocking collective occupying the device
    kTransferWait,      ///< stall at an async Done (permute or
                        ///< all-to-all)
    kTransferInFlight,  ///< async transfer on the wire (Start..arrival);
                        ///< does not occupy the device — the overlap the
                        ///< paper creates is this lane running under the
                        ///< compute lane
};

const char* TraceKindName(TraceKind kind);

/** One executed kernel/event on the modeled device's timeline. */
struct TraceEvent {
    std::string label;
    TraceKind kind;
    double start_seconds = 0.0;
    double end_seconds = 0.0;
    /// Loop group of the decomposition site that emitted the
    /// instruction (-1 for instructions outside any decomposed loop).
    /// What lets the overlap-efficiency report attribute trace time
    /// back to CompileReport site decisions.
    int64_t loop_group = -1;
};

/**
 * Aggregate outcome of the FaultSpec RetryPolicy over one simulated
 * step: every re-sent transfer, every attempt and the summed backoff
 * waits (the non-wire component of retry delay). Zero without a fault
 * model.
 */
struct RetryStats {
    /// CollectivePermute attempts that failed and were re-sent. A
    /// transfer killed by a fault counts none of its attempts.
    int64_t retries = 0;
    /// Total transfer attempts (first sends + retries).
    int64_t attempts = 0;
    /// Time spent waiting out RetryPolicy::BackoffSeconds.
    double backoff_seconds = 0.0;

    void Accumulate(const TransferOutcome& outcome)
    {
        retries += outcome.failures;
        attempts += 1 + outcome.failures;
        backoff_seconds += outcome.backoff_seconds;
    }
};

/** Timing outcome of one simulated step of an SPMD program. */
struct SimResult {
    /// End-to-end wall time of the program on every device.
    double step_seconds = 0.0;
    /// Device-busy kernel time (compute kernels only).
    double compute_seconds = 0.0;
    /// Time the device was blocked on communication: blocking
    /// collectives and sync permutes, plus stalls at async Dones
    /// (permute and all-to-all pairs alike). This is the *exposed*
    /// communication; overlapped transfer time does not count.
    double exposed_comm_seconds = 0.0;
    /// Useful model FLOPs executed per device (einsum kernels).
    double einsum_flops = 0.0;
    /// Total bytes each device put on ICI links, retries included. A
    /// transfer killed by a fault counts none.
    double transferred_bytes = 0.0;
    int64_t num_async_transfers = 0;
    int64_t num_blocking_collectives = 0;
    /// Peak live buffer bytes under the executed schedule (parameters
    /// plus every kernel result, freed after its last reader). The
    /// quantity the paper's 2-D strategy trades communication to keep
    /// low (§2.2), and what the baseline memory-minimizing scheduler
    /// optimizes.
    int64_t peak_memory_bytes = 0;
    /// Largest number of concurrently in-flight async transfers observed
    /// (permute and all-to-all pairs alike; a sync exchange is never in
    /// flight).
    int64_t peak_in_flight = 0;
    /// Fault model only: what the shared RetryPolicy did this step.
    RetryStats retry;
    /// Fault model only: extra device time attributable to compute-
    /// throughput stragglers (actual minus nominal kernel time).
    double straggler_stall_seconds = 0.0;
    /// SDC detectors only (DESIGN.md §16): device time spent hashing
    /// transfer payloads and running ABFT checksum-row checks, and how
    /// many of each ran. Zero when detection is off.
    double detector_seconds = 0.0;
    int64_t num_transfer_checksums = 0;
    int64_t num_abft_checks = 0;
    std::vector<TraceEvent> trace;

    /** Model FLOPS utilization against one chip's peak. */
    double Mfu(const HardwareSpec& spec) const
    {
        return step_seconds > 0.0
                   ? einsum_flops / (step_seconds * spec.peak_flops)
                   : 0.0;
    }

    /** §6.4: energy at constant chip power over the step. */
    double EnergyJoules(const HardwareSpec& spec, int64_t num_chips) const
    {
        return step_seconds * spec.chip_power_watts *
               static_cast<double>(num_chips);
    }
};

/**
 * Step-time distribution over seeded fault-model trials (per-trial
 * jitter and transient-failure draws differ; persistent degraded links
 * and stragglers are shared by every trial).
 */
struct TrialStats {
    int64_t num_trials = 0;
    double p50_step_seconds = 0.0;
    double p99_step_seconds = 0.0;
    double mean_step_seconds = 0.0;
    double min_step_seconds = 0.0;
    double max_step_seconds = 0.0;
    int64_t total_retries = 0;
    double total_backoff_seconds = 0.0;
    double total_straggler_stall_seconds = 0.0;
    /// Per-trial step times, in trial order (unsorted).
    std::vector<double> step_seconds;

    /**
     * Builds the distribution (mean, min/max, nearest-rank p50/p99)
     * from raw samples; retry/stall totals stay zero. Shared by
     * RunTrials and the elastic runner's per-step reporting.
     */
    static TrialStats FromSamples(std::vector<double> samples);
};

/** Why a simulated step could make no further progress. */
enum class FailureCause {
    kChipDeath,         ///< a PermanentFault chip died mid-run
    kLinkDeath,         ///< a PermanentFault link died mid-run
    kRetryExhaustion,   ///< a transfer failed every allowed attempt
    kSilentCorruption,  ///< a chip hit its SDC strike budget and is
                        ///< quarantined (synthesized by the recovery
                        ///< layer, not by the engine watchdog)
};

const char* FailureCauseName(FailureCause cause);

/**
 * The watchdog's structured account of a failed step: which entity
 * died, where the device got stuck (the blocked instructions, e.g. an
 * async Start whose partner will never post), how far the
 * run had progressed, and when the no-progress detector fired. The
 * recovery runtime (core/recovery) consumes this to compute a survivor
 * mesh and replan (DESIGN.md §11).
 */
struct FailureReport {
    FailureCause cause = FailureCause::kChipDeath;
    /// Dead chip id (kChipDeath), else -1.
    int64_t dead_chip = -1;
    /// Dead directed link (kLinkDeath / kRetryExhaustion: the
    /// representative ring link of the blocked channel), else -1/-1.
    int64_t dead_link_src = -1;
    int64_t dead_link_dst = -1;
    /// The step that failed, and the last step known to have completed.
    int64_t failed_step = 0;
    int64_t last_completed_step = -1;
    /// Within-step simulated time at which the entity died.
    double fail_time_seconds = 0.0;
    /// Within-step time of the last retired instruction — everything up
    /// to here is lost work that a checkpoint restore must replay.
    double last_progress_seconds = 0.0;
    /// When the watchdog fired: last progress + the no-progress window.
    double detected_at_seconds = 0.0;
    /// The instruction the device is stuck at, followed by the
    /// in-flight async Starts whose Dones can never retire.
    std::vector<std::string> blocked_instructions;

    std::string ToString() const;
};

/**
 * Result of simulating one step of a multi-step run: either the step
 * completed (`result` is valid) or a permanent failure manifested and
 * the watchdog produced a FailureReport (`result` then holds the
 * partial accounting up to the stall, for lost-work attribution).
 */
struct StepOutcome {
    bool failed = false;
    SimResult result;
    FailureReport failure;

    // ---- Silent-data-corruption outcome (DESIGN.md §16) -------------
    //
    // Orthogonal to `failed`: corruption crashes nothing. When the
    // fault model carries live SilentCorruption entries this step,
    // `sdc_injected` is set and exactly one of `corrupted` (a detector
    // fired; `corruption` + `corruption_detected_at_seconds` say which,
    // where and when) or `sdc_escaped` (no detector covers it — e.g.
    // cadence skipped the ordinal, or the relevant detector is off; the
    // poisoned state propagates) holds.
    bool sdc_injected = false;
    bool corrupted = false;
    bool sdc_escaped = false;
    CorruptionReport corruption;
    double corruption_detected_at_seconds = 0.0;
};

/**
 * Discrete-event simulator of an SPMD program on a TPU-pod-like torus
 * (DESIGN.md §2/§5).
 *
 * By SPMD symmetry every device executes the same scheduled sequence
 * with identical op durations, so the engine models one device's
 * timeline plus the state of its ICI link channels — one channel per
 * (mesh axis, ring direction). Every exchange is two halves (DESIGN.md
 * §20): a start half that hashes the payload on the sender (SDC
 * detectors on) and issues it onto the channels, and a wait half that
 * blocks until it arrives and hashes it on the receiver. Where an
 * exchange goes depends only on the collective it runs
 * (HloInstruction::collective_opcode), sync or async: a permute queues
 * on one channel (serializing with other traffic in the same direction,
 * which is why a decomposed unidirectional loop only reaches half the
 * ring bandwidth, §5.5), any other collective takes both channels of
 * its axis (every channel when its groups span several axes). An async
 * Start runs the start half and the device moves on; the matching Done
 * runs the wait half. Sync collectives run both halves back to back, so
 * they occupy the device *and* their channels.
 */
class PodSimulator {
  public:
    /**
     * `fault` injects deterministic link/chip degradation and transient
     * transfer failures; the default fault-free model leaves every
     * result bit-identical to a simulation without one.
     */
    PodSimulator(Mesh mesh, HardwareSpec spec,
                 FaultModel fault = FaultModel())
        : mesh_(std::move(mesh)),
          spec_(spec),
          cost_(spec),
          fault_(std::move(fault)) {}

    const CostModel& cost_model() const { return cost_; }
    const HardwareSpec& spec() const { return spec_; }
    const Mesh& mesh() const { return mesh_; }
    const FaultModel& fault_model() const { return fault_; }

    /**
     * Simulates one execution of the module's entry computation (using
     * its schedule when attached, else the instruction order).
     * `collect_trace` additionally records the device-0 timeline.
     * `trial` selects the fault model's per-trial noise draw (jitter,
     * transient failures); it is ignored by a fault-free model.
     */
    StatusOr<SimResult> Run(const HloModule& module,
                            bool collect_trace = false,
                            int64_t trial = 0) const;

    /**
     * Simulates step `step_index` of a multi-step run. Permanent faults
     * whose fail_step is at or before `step_index` are live. One rule
     * holds for every exchange kind: a transfer that needs the dead
     * entity dies when the death comes before its arrival (as does one
     * that exhausts its retries), and a killed transfer charges no bytes
     * and no retries. The device blocks where it waits for the first
     * killed transfer, the watchdog fires after the no-progress window,
     * and the outcome carries a FailureReport instead of spinning.
     * Malformed schedules that can never progress (orphaned Start/Done
     * pairs, async in-flight budget starvation) return an error Status
     * naming the blocked instructions.
     */
    StatusOr<StepOutcome> RunStep(const HloModule& module,
                                  int64_t step_index,
                                  bool collect_trace = false,
                                  int64_t trial = 0) const;

    /**
     * Runs `num_trials` seeded simulations (trial = 0..n-1) and reports
     * the step-time distribution; the same seed reproduces identical
     * statistics across calls.
     */
    StatusOr<TrialStats> RunTrials(const HloModule& module,
                                   int64_t num_trials) const;

  private:
    Mesh mesh_;
    HardwareSpec spec_;
    CostModel cost_;
    FaultModel fault_;
};

}  // namespace overlap

#endif  // OVERLAP_SIM_ENGINE_H_
