#ifndef OVERLAP_CORE_RECOVERY_ELASTIC_SESSION_H_
#define OVERLAP_CORE_RECOVERY_ELASTIC_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/overlap_compiler.h"
#include "core/recovery/checkpoint.h"
#include "core/recovery/step_program.h"
#include "models/step_builder.h"
#include "sim/engine.h"
#include "support/status.h"
#include "tensor/checksum.h"
#include "tensor/mesh.h"

namespace overlap {

/**
 * What one recovery cost (DESIGN.md §11). The caller owns the clock and
 * fills `at_seconds` and the replay fields; ElasticSession the rest.
 */
struct RecoveryEvent {
    /// FailureReport::ToString() of the watchdog (or quarantine) report
    /// and SurvivorPlan::ToString() of the replan.
    std::string failure_summary;
    std::string survivor_plan;
    int64_t failed_step = -1;
    /// The checkpoint restored from, its size, and the already-committed
    /// steps past it that are re-run.
    int64_t checkpoint_step = -1;
    int64_t checkpoint_bytes = 0;
    int64_t replayed_steps = 0;
    /// The caller's clock at detection, then the latency: detection (lost
    /// in-step progress + watchdog window), restore (checkpoint bytes /
    /// bandwidth), modeled recompile, and the replayed steps' time.
    double at_seconds = 0.0;
    double detection_seconds = 0.0;
    double restore_seconds = 0.0;
    double replan_seconds = 0.0;
    double replay_seconds = 0.0;
    /// The survivor compile failed the §5.5 gate, so every workload runs
    /// on blocking lowering: slower steps, but the run goes on.
    bool degraded_blocking = false;
    /// The survivor compile of the training program.
    CompileReport compile;

    double LatencySeconds() const
    {
        return detection_seconds + restore_seconds + replan_seconds +
               replay_seconds;
    }

    std::string ToString() const;
    std::string ToJson() const;
};

/** The workloads of an ElasticSession and the shared recovery options. */
struct ElasticSessionOptions {
    ElasticProgramSpec training;
    /// The §7.1 serving tower, compiled beside the training program.
    std::optional<InferenceTowerSpec> inference;
    /// `compiler.fault` is the initial fault spec.
    CompilerOptions compiler;
    int64_t checkpoint_interval = 2;
    double restore_bandwidth_bytes_per_second = 25e9;
    double replan_latency_seconds = 2e-3;
    int64_t sdc_strike_limit = 2;
};

/**
 * The elastic state of one pod behind RunElasticTraining and PodService
 * (DESIGN.md §11, §14, §16): mesh, fault spec, compiled workloads,
 * simulator, checkpoint store and SDC strike ledger. Each method is the
 * one copy of a step of detect → replan → restore → recompile; callers
 * keep only their own clock and accounting.
 */
class ElasticSession {
  public:
    /** Validates `options`, compiles on `mesh`, checkpoints step 0. */
    static StatusOr<ElasticSession> Create(const Mesh& mesh,
                                           ElasticSessionOptions options);

    const Mesh& mesh() const { return mesh_; }
    const FaultSpec& fault() const { return current_.fault; }
    const PodSimulator& simulator() const { return simulator_; }
    const ElasticProgram& training() const { return workloads_.program; }
    /** The inference tower; the session must have been given one. */
    const HloModule& inference_module() const { return *workloads_.tower; }

    /**
     * Advances the training state through the SPMD evaluator, injecting
     * and checking the fault spec's corruptions in line. A detection
     * leaves the state untouched and returns the primary report.
     */
    StatusOr<std::optional<CorruptionReport>> AdvanceTraining(
        int64_t step);

    /** Snapshots the training state if `step` lands on the interval. */
    Status Commit(int64_t step);

    /** Drops a detected injection, so the retry of its step is clean. */
    void ConsumeInjection(const CorruptionReport& report);

    /**
     * Charges a detected corruption to `chip`. At the strike limit the
     * kSilentCorruption report that quarantines the chip through Recover
     * is returned, with zero detection time: the caller charged that
     * when the detector fired.
     */
    std::optional<FailureReport> Strike(int64_t chip, int64_t step);

    /**
     * Plans the survivor mesh, restores the newest checkpoint at or
     * before `restore_at`, recompiles every workload — on blocking
     * lowering when the §5.5 gate distrusts the survivor compile — and
     * resets the simulator. Clears the strike ledger, whose ids the
     * survivor mesh reassigns.
     */
    StatusOr<RecoveryEvent> Recover(const FailureReport& failure,
                                    int64_t restore_at);

    /**
     * Same-mesh SDC rollback: restores the newest checkpoint at or before
     * `restore_at` and rebuilds the training program as it was compiled.
     */
    StatusOr<RecoveryEvent> Rollback(int64_t restore_at);

  private:
    struct Workloads {
        ElasticProgram program;
        std::unique_ptr<HloModule> tower;
        bool gate_failed = false;  // any workload failed the §5.5 gate
    };

    ElasticSession(const Mesh& mesh, ElasticSessionOptions options);

    StatusOr<Workloads> Compile(const Mesh& mesh,
                                const CompilerOptions& options,
                                const Tensor& state) const;
    StatusOr<Tensor> Restore(int64_t step, RecoveryEvent* event) const;
    void ResetSimulator();

    ElasticSessionOptions options_;
    Mesh mesh_;
    /// The live workloads' options, with the current fault spec.
    CompilerOptions current_;
    Workloads workloads_;
    PodSimulator simulator_;
    CheckpointStore store_;
    /// Detected corruptions per chip (current-mesh ids).
    std::unordered_map<int64_t, int64_t> strikes_;
};

}  // namespace overlap

#endif  // OVERLAP_CORE_RECOVERY_ELASTIC_SESSION_H_
