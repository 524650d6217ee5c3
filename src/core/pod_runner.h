#ifndef OVERLAP_CORE_POD_RUNNER_H_
#define OVERLAP_CORE_POD_RUNNER_H_

#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "core/overlap_report.h"
#include "core/recovery/elastic_session.h"
#include "core/recovery/step_program.h"
#include "models/model_config.h"
#include "support/status.h"

namespace overlap {

/** Step-level results for one model under one compiler configuration. */
struct StepReport {
    ModelConfig config;
    CompileReport compile;
    /// Results for the representative layer.
    SimResult layer;
    /// Whole-step wall time: layer time x layer count.
    double step_seconds = 0.0;
    /// Model FLOPS utilization against peak (the y-axis of Figure 12).
    double mfu = 0.0;
    /// Fraction of the step blocked on (exposed) communication — the
    /// communication share of Figure 1.
    double comm_fraction = 0.0;
    /// §6.4: energy of the whole step at constant chip power.
    double energy_joules = 0.0;

    std::string ToString() const;
};

/**
 * Builds a model's representative layer step, compiles it with the given
 * options and simulates it on the configured pod — the workflow every
 * evaluation figure uses. `options.fault` (when non-trivial) degrades
 * the pod for both the variance-aware gate and the simulation.
 */
StatusOr<StepReport> SimulateModelStep(const ModelConfig& config,
                                       const CompilerOptions& options);

/**
 * A model's overlap-efficiency analysis (DESIGN.md §13): the
 * representative layer compiled with overlap and simulated *with
 * tracing*, the blocking baseline simulated for the actual speedup, the
 * per-site predicted-versus-simulated report, and the unified Chrome
 * trace (compiler passes + simulator lanes) ready to write to disk.
 */
struct ModelOverlapAnalysis {
    /// The overlapped step (as SimulateModelStep would report it).
    StepReport overlap;
    /// The same layer under CompilerOptions::Baseline() with the same
    /// hardware/fault spec.
    StepReport baseline;
    /// Per-site §5.5 prediction vs. traced-simulation reality, with
    /// baseline_step_seconds / actual_speedup filled in (layer-level).
    OverlapReport report;
    /// UnifiedTraceToChromeJson of the overlapped compile + simulation.
    std::string trace_json;

    std::string ToJson() const;
};

/**
 * Runs the SimulateModelStep workflow twice (overlap and blocking
 * baseline, same hardware and fault spec), with the simulator trace
 * enabled, and joins the compile-time §5.5 verdicts against the
 * simulated timeline via BuildOverlapReport.
 */
StatusOr<ModelOverlapAnalysis> AnalyzeModelOverlap(
    const ModelConfig& config, const CompilerOptions& options);

/** Step-time distribution of one model over seeded fault trials. */
struct StepTrialReport {
    ModelConfig config;
    CompileReport compile;
    TrialStats trials;
    /// Whole-step percentiles: layer percentiles x layer count.
    double p50_step_seconds = 0.0;
    double p99_step_seconds = 0.0;
    /// Elastic runs only: what each mid-run failure cost (empty for the
    /// single-compile trial workflows).
    std::vector<RecoveryEvent> recoveries;

    std::string ToString() const;
};

/**
 * Like SimulateModelStep, but runs `num_trials` seeded simulations of
 * the compiled layer under `options.fault` and reports the step-time
 * distribution (the fault-sweep bench's workflow).
 */
StatusOr<StepTrialReport> SimulateModelStepTrials(
    const ModelConfig& config, const CompilerOptions& options,
    int64_t num_trials);

/** Configuration of an elastic multi-step run. */
struct ElasticRunOptions {
    int64_t num_steps = 8;
    /// Snapshot the logical state every this many completed steps.
    int64_t checkpoint_interval = 2;
    ElasticProgramSpec program;
    /// Compiler configuration; `compiler.fault` carries the permanent
    /// faults that make the run fail (and the watchdog window), plus the
    /// seeded SilentCorruptions and detector config (DESIGN.md §16).
    CompilerOptions compiler;
    /// Host-to-device bandwidth the checkpoint restore is charged at.
    double restore_bandwidth_bytes_per_second = 25e9;
    /// Modeled latency of the survivor-mesh recompile.
    double replan_latency_seconds = 2e-3;
    /// SDC containment: quarantine a chip (survivor-mesh replan, as if
    /// it died) once this many detected corruptions localize to it.
    int64_t sdc_strike_limit = 2;
};

/**
 * What silent-data-corruption containment did over an elastic run
 * (DESIGN.md §16): every detection triggers rollback to the last clean
 * checkpoint and a replay with the consumed injection removed, so
 * corrupted state is never committed; a chip that keeps producing
 * corruption is quarantined like a dead chip.
 */
struct SdcStats {
    /// Detections (each one also a rollback), and fresh injections no
    /// detector covered — the poisoned state propagates for these.
    int64_t detected = 0;
    int64_t escaped = 0;
    int64_t rollbacks = 0;
    int64_t replayed_steps = 0;
    bool quarantined = false;
    /// Culprit chip id (in the mesh ids current at quarantine time).
    int64_t quarantined_chip = -1;
    /// Sum of within-step times at which detectors fired.
    double detection_latency_seconds = 0.0;
    /// Restore + replan + replayed-step time attributed to SDC recovery.
    double rollback_seconds = 0.0;
    /// CorruptionReport::ToString() of the most recent detection.
    std::string last_report;

    std::string ToString() const;
};

/** Outcome of an elastic multi-step run. */
struct ElasticRunReport {
    int64_t num_steps = 0;
    /// The mesh the run finished on (the original one when no failure
    /// manifested).
    Mesh final_mesh{1};
    /// Simulated wall time: committed steps + detection + restore +
    /// replan + replayed steps.
    double total_seconds = 0.0;
    /// Distribution of the committed (non-replay) step times.
    TrialStats steps;
    /// One event per permanent failure, in order.
    std::vector<RecoveryEvent> recoveries;
    /// The final *logical* state (mesh-independent; comparable across
    /// recovered and never-failed runs with CompareOutputs).
    Tensor final_state;
    CompileReport initial_compile;
    /// SDC detections, rollbacks and quarantine over the run.
    SdcStats sdc;

    /** The step-trial view of this run, with recovery latency attached. */
    StepTrialReport AsStepTrialReport() const;

    std::string ToString() const;
};

/**
 * Drives the full elastic loop on the step program of `options.program`
 * through an ElasticSession: run, fail (when `options.compiler.fault`
 * injects a permanent fault), detect via the watchdog, restore the
 * latest checkpoint, replan onto the survivor mesh through the guarded
 * pipeline, and resume — replaying the steps since the checkpoint. Every
 * further failure shrinks the mesh again. The functional state advances
 * through the SPMD interpreter every committed step, so the final state
 * is a real computed value, not a timing artifact.
 */
StatusOr<ElasticRunReport> RunElasticTraining(const Mesh& mesh,
                                              const ElasticRunOptions& options);

}  // namespace overlap

#endif  // OVERLAP_CORE_POD_RUNNER_H_
