#ifndef OVERLAP_CORE_SERVICE_POD_SERVICE_H_
#define OVERLAP_CORE_SERVICE_POD_SERVICE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "core/recovery/elastic_session.h"
#include "core/recovery/step_program.h"
#include "core/service/request_queue.h"
#include "models/step_builder.h"
#include "support/status.h"
#include "tensor/mesh.h"

namespace overlap {

/**
 * Configuration of a continuous-operation pod service run
 * (DESIGN.md §14): the arrival process, the admission/shedding policy,
 * the two workloads (the elastic training program and the §7.1
 * inference tower), and the recovery cost model carried over from
 * ElasticRunOptions.
 */
struct ServiceOptions {
    ArrivalSpec arrivals;

    /// Admission bound: arrivals past this depth are shed on arrival.
    int64_t max_queue_depth = 64;
    /// After each completed request the queue is shed back down to
    /// `shed_watermark * max_queue_depth` — under sustained overload
    /// the backlog (and thus queueing delay) stays bounded and the
    /// sheds are *counted*, never silent.
    double shed_watermark = 0.75;

    ElasticProgramSpec training;
    InferenceTowerSpec inference;
    /// Snapshot the training state every this many committed steps.
    int64_t checkpoint_interval = 4;

    /// Compiler configuration; `compiler.fault` carries the fault
    /// model (transients, permanent faults, watchdog window).
    CompilerOptions compiler;

    /// Recovery cost model and SDC strike limit (as ElasticRunOptions).
    double restore_bandwidth_bytes_per_second = 25e9;
    double replan_latency_seconds = 2e-3;
    int64_t sdc_strike_limit = 2;

    /// Hard stop: the service gives up (shedding everything left and
    /// reporting `overloaded`) once simulated time exceeds
    /// `arrivals.duration_seconds * max_runtime_factor` — an unstable
    /// queue must surface as a bounded, flagged report, not a hang.
    double max_runtime_factor = 20.0;
};

/** Per-class accounting. Every arrival lands in exactly one bucket. */
struct ClassStats {
    int64_t arrivals = 0;
    int64_t admitted = 0;
    /// Shed on arrival by the admission bound.
    int64_t shed_at_admission = 0;
    int64_t completed = 0;
    /// Shed from the queue by the overload watermark or the hard stop.
    int64_t shed_under_backlog = 0;
    /// Dropped because the deadline passed while still queued.
    int64_t shed_expired = 0;
    /// Executed, but a detector flagged silent data corruption in the
    /// result — the response is rejected, never emitted (§16).
    int64_t corrupted_rejected = 0;
    /// Completed, but after the deadline.
    int64_t slo_violations = 0;
    /// Completed within the deadline.
    int64_t goodput = 0;

    /// Completion-latency distribution (arrival -> completion) of the
    /// completed requests, read off the service's metrics registry.
    double p50_latency_seconds = 0.0;
    double p99_latency_seconds = 0.0;
    double p999_latency_seconds = 0.0;
    double max_latency_seconds = 0.0;

    /**
     * The conservation laws of the accounting: arrivals == admitted +
     * shed_at_admission, admitted == completed + shed_under_backlog +
     * shed_expired + corrupted_rejected (up to the still-queued
     * remainder mid-run; exact in a final report), completed == goodput
     * + slo_violations.
     */
    bool Consistent() const
    {
        return arrivals == admitted + shed_at_admission &&
               admitted == completed + shed_under_backlog + shed_expired +
                               corrupted_rejected &&
               completed == goodput + slo_violations;
    }

    std::string ToJson() const;
};

/** Outcome of a continuous-operation service run. */
struct ServiceReport {
    ClassStats inference;
    ClassStats training;
    /// Pod steps executed (requests + replays) — the simulator's
    /// step_index clock, which is what permanent fault triggers key on.
    int64_t pod_steps = 0;
    /// Simulated time at which the last work finished.
    double end_seconds = 0.0;
    int64_t peak_queue_depth = 0;
    /// The hard stop fired: the offered load was not sustainable.
    bool overloaded = false;
    /// Any recovery left the service on blocking lowering.
    bool degraded_blocking = false;
    /// One event per recovery episode (at_seconds on the service clock).
    std::vector<RecoveryEvent> recoveries;
    /// SDC containment under load (§16): detector firings (each one a
    /// rejected-never-emitted response) and whether a chip hit the
    /// strike limit and was quarantined off the mesh.
    int64_t corruption_detections = 0;
    bool sdc_quarantined = false;
    int64_t sdc_quarantined_chip = -1;
    /// The mesh the service ended on (shrunk after chip/link death).
    Mesh final_mesh{1};
    /// SnapshotJson() of the service's own metrics registry.
    std::string metrics_json;

    std::string ToJson() const;
    std::string ToString() const;
};

/**
 * The continuous-operation pod service (DESIGN.md §14): one simulated
 * pod serving an open-loop stream of mixed training steps and §7.1
 * inference requests under admission control, deadline-aware
 * priority-EDF scheduling, and elastic fault recovery. Time is fully
 * simulated — arrivals, queueing, step execution, watchdog detection
 * and recovery all advance one deterministic clock, so a given
 * (options, mesh) pair always produces the identical report. Recovery
 * runs through the same ElasticSession as RunElasticTraining.
 */
class PodService {
  public:
    PodService(Mesh mesh, ServiceOptions options);

    StatusOr<ServiceReport> Run();

  private:
    Mesh mesh_;
    ServiceOptions options_;
};

}  // namespace overlap

#endif  // OVERLAP_CORE_SERVICE_POD_SERVICE_H_
