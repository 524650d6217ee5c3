#include "core/service/pod_service.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "support/metrics.h"
#include "support/strings.h"

namespace overlap {
namespace {

/**
 * Trial salt for a request's fault-model draw. Re-queued requests get a
 * fresh stream per attempt: a transfer whose transient draws exhausted
 * the retry budget re-draws on the retry instead of deterministically
 * exhausting again forever.
 */
int64_t
RequestTrial(const ServiceRequest& request)
{
    return request.id + 1000003 * request.attempts;
}

/** Mirrors the final per-class tallies into the registry. */
void
MirrorStats(MetricsRegistry* registry, const std::string& prefix,
            const ClassStats& stats)
{
    registry->counter(prefix + ".arrivals_total")->Add(stats.arrivals);
    registry->counter(prefix + ".completed_total")->Add(stats.completed);
    registry->counter(prefix + ".shed_total")
        ->Add(stats.shed_at_admission + stats.shed_under_backlog +
              stats.shed_expired);
    registry->counter(prefix + ".slo_violations_total")
        ->Add(stats.slo_violations);
    registry->counter(prefix + ".goodput_total")->Add(stats.goodput);
    registry->counter(prefix + ".corrupted_rejected_total")
        ->Add(stats.corrupted_rejected);
}

}  // namespace

std::string
ClassStats::ToJson() const
{
    return StrCat("{\"arrivals\": ", arrivals,
                  ", \"admitted\": ", admitted,
                  ", \"shed_at_admission\": ", shed_at_admission,
                  ", \"completed\": ", completed,
                  ", \"shed_under_backlog\": ", shed_under_backlog,
                  ", \"shed_expired\": ", shed_expired,
                  ", \"corrupted_rejected\": ", corrupted_rejected,
                  ", \"slo_violations\": ", slo_violations,
                  ", \"goodput\": ", goodput,
                  ", \"p50_latency_s\": ", p50_latency_seconds,
                  ", \"p99_latency_s\": ", p99_latency_seconds,
                  ", \"p999_latency_s\": ", p999_latency_seconds,
                  ", \"max_latency_s\": ", max_latency_seconds, "}");
}

std::string
ServiceReport::ToJson() const
{
    std::vector<std::string> recovery_json;
    recovery_json.reserve(recoveries.size());
    for (const RecoveryEvent& r : recoveries) {
        recovery_json.push_back(r.ToJson());
    }
    return StrCat(
        "{\"inference\": ", inference.ToJson(),
        ",\n \"training\": ", training.ToJson(),
        ",\n \"pod_steps\": ", pod_steps,
        ", \"end_s\": ", end_seconds,
        ", \"peak_queue_depth\": ", peak_queue_depth,
        ", \"overloaded\": ", overloaded ? "true" : "false",
        ", \"degraded_blocking\": ", degraded_blocking ? "true" : "false",
        ", \"corruption_detections\": ", corruption_detections,
        ", \"sdc_quarantined\": ", sdc_quarantined ? "true" : "false",
        ", \"sdc_quarantined_chip\": ", sdc_quarantined_chip,
        ", \"final_mesh\": \"", final_mesh.ToString(),
        "\",\n \"recoveries\": [", StrJoin(recovery_json, ", "),
        "],\n \"metrics\": ", metrics_json.empty() ? "{}" : metrics_json,
        "}");
}

std::string
ServiceReport::ToString() const
{
    return StrCat(
        "pod service on ", final_mesh.ToString(), ": inference ",
        inference.goodput, "/", inference.arrivals, " in-SLO (p99=",
        HumanTime(inference.p99_latency_seconds), "), training ",
        training.goodput, "/", training.arrivals, " in-SLO, ",
        recoveries.size(), " recoveries",
        corruption_detections > 0
            ? StrCat(", ", corruption_detections, " corruptions rejected")
            : "",
        sdc_quarantined ? StrCat(" (chip ", sdc_quarantined_chip,
                                 " quarantined)")
                        : "",
        degraded_blocking ? " (degraded to blocking)" : "",
        overloaded ? " OVERLOADED" : "",
        ", peak depth ", peak_queue_depth,
        ", end=", HumanTime(end_seconds));
}

PodService::PodService(Mesh mesh, ServiceOptions options)
    : mesh_(std::move(mesh)), options_(std::move(options))
{
}

StatusOr<ServiceReport>
PodService::Run()
{
    if (options_.max_queue_depth < 1) {
        return InvalidArgument("service queue depth must be >= 1");
    }
    if (options_.shed_watermark < 0.0 || options_.shed_watermark > 1.0) {
        return InvalidArgument("shed watermark must be in [0, 1]");
    }
    if (options_.arrivals.duration_seconds <= 0.0) {
        return InvalidArgument("service duration must be positive");
    }
    if (options_.max_runtime_factor < 1.0) {
        return InvalidArgument("max runtime factor must be >= 1");
    }

    MetricsRegistry registry;
    Histogram* inference_latency =
        registry.histogram("service.inference.latency_seconds");
    Histogram* training_latency =
        registry.histogram("service.training.latency_seconds");
    Histogram* recovery_latency =
        registry.histogram("service.recovery.latency_seconds");
    Gauge* peak_depth_gauge = registry.gauge("service.queue.peak_depth");

    // The two compiled workloads on the current (possibly survivor) mesh.
    auto session = ElasticSession::Create(
        mesh_, {.training = options_.training,
                .inference = options_.inference,
                .compiler = options_.compiler,
                .checkpoint_interval = options_.checkpoint_interval,
                .restore_bandwidth_bytes_per_second =
                    options_.restore_bandwidth_bytes_per_second,
                .replan_latency_seconds = options_.replan_latency_seconds,
                .sdc_strike_limit = options_.sdc_strike_limit});
    if (!session.ok()) return session.status();

    ServiceReport report;
    const std::vector<ServiceRequest> arrivals =
        GenerateArrivals(options_.arrivals);
    AdmissionQueue queue(options_.max_queue_depth);
    const int64_t watermark_depth = static_cast<int64_t>(
        options_.shed_watermark *
        static_cast<double>(options_.max_queue_depth));

    ClassStats* stats[2] = {nullptr, nullptr};
    stats[static_cast<int>(JobClass::kTraining)] = &report.training;
    stats[static_cast<int>(JobClass::kInference)] = &report.inference;
    auto stats_of = [&stats](JobClass job) -> ClassStats& {
        return *stats[static_cast<int>(job)];
    };

    double now = 0.0;
    const double hard_stop =
        options_.arrivals.duration_seconds * options_.max_runtime_factor;
    size_t next_arrival = 0;
    // Training-state step the current shards correspond to, and the
    // highest step the service ever committed — after a restore the gap
    // between them is the replay debt.
    int64_t committed = 0;
    int64_t max_committed = 0;
    int64_t replay_pending = 0;
    // Replay steps draw from their own trial stream, far away from any
    // request id (bit 40 set), so a replayed step never re-runs the
    // exact transient draws that just failed.
    int64_t replay_trial = int64_t{1} << 40;
    std::optional<FailureReport> failure;
    std::optional<ServiceRequest> inflight;

    // SDC containment (§16): a detected corruption is consumed so the
    // retry is clean, and its chip takes a strike; at the strike limit
    // the chip is quarantined through the regular recovery path.
    auto contain = [&](const CorruptionReport& corruption,
                       int64_t at_step) {
        ++report.corruption_detections;
        session->ConsumeInjection(corruption);
        auto quarantine = session->Strike(corruption.chip, at_step);
        if (!quarantine) return;
        failure = quarantine;
        report.sdc_quarantined = true;
        report.sdc_quarantined_chip = corruption.chip;
    };

    auto admit_up_to = [&](double time) {
        while (next_arrival < arrivals.size() &&
               arrivals[next_arrival].arrival_seconds <= time) {
            ServiceRequest request = arrivals[next_arrival++];
            ClassStats& s = stats_of(request.job);
            ++s.arrivals;
            if (queue.Admit(request)) {
                ++s.admitted;
            } else {
                // Queue full: shed queued low-priority work down to the
                // watermark to make room, so a high-priority arrival
                // displaces backlog instead of being turned away by it.
                for (const ServiceRequest& shed :
                     queue.ShedTo(watermark_depth)) {
                    ++stats_of(shed.job).shed_under_backlog;
                }
                if (queue.Admit(request)) {
                    ++s.admitted;
                } else {
                    ++s.shed_at_admission;
                }
            }
            report.peak_queue_depth =
                std::max(report.peak_queue_depth, queue.depth());
        }
    };

    while (true) {
        admit_up_to(now);

        if (failure) {
            // Elastic recovery under load: the session restores and
            // replans onto the survivor mesh; the service re-queues the
            // in-flight request and takes on the replay debt. A failure
            // during replay lands back here and shrinks the mesh again.
            auto recovery = session->Recover(*failure, committed);
            if (!recovery.ok()) return recovery.status();
            now += recovery->detection_seconds;
            recovery->at_seconds = now;
            now += recovery->restore_seconds;
            now += recovery->replan_seconds;
            if (recovery->degraded_blocking) report.degraded_blocking = true;

            if (inflight) {
                ++inflight->attempts;
                queue.Requeue(*inflight);
                report.peak_queue_depth =
                    std::max(report.peak_queue_depth, queue.depth());
                inflight.reset();
            }
            committed = recovery->checkpoint_step;
            replay_pending = max_committed - committed;
            recovery->replayed_steps = replay_pending;
            if (replay_pending == 0) {
                recovery_latency->Record(recovery->LatencySeconds());
            }
            report.recoveries.push_back(std::move(recovery).value());
            failure.reset();
            continue;
        }

        if (now > hard_stop) {
            // The offered load is not sustainable on this (possibly
            // degraded) pod: give up loudly. Everything still queued or
            // yet to arrive is counted shed, never silently dropped.
            report.overloaded = true;
            for (const ServiceRequest& shed :
                 queue.ShedTo(0)) {
                ++stats_of(shed.job).shed_under_backlog;
            }
            while (next_arrival < arrivals.size()) {
                ClassStats& s =
                    stats_of(arrivals[next_arrival++].job);
                ++s.arrivals;
                ++s.shed_at_admission;
            }
            break;
        }

        if (replay_pending > 0) {
            // Replay debt outranks new work: the training state must
            // catch back up to the last committed step before the
            // service resumes taking requests.
            const int64_t step_index = report.pod_steps;
            auto outcome = session->simulator().RunStep(
                *session->training().module, step_index,
                /*collect_trace=*/false, replay_trial++);
            if (!outcome.ok()) return outcome.status();
            if (outcome->failed) {
                failure = outcome->failure;
                continue;
            }
            if (outcome->corrupted) {
                // Corruption detected mid-replay: retry the same replay
                // step on a clean draw.
                now += outcome->corruption_detected_at_seconds;
                contain(outcome->corruption, step_index);
                continue;
            }
            ++report.pod_steps;
            now += outcome->result.step_seconds;
            report.recoveries.back().replay_seconds +=
                outcome->result.step_seconds;
            auto detected = session->AdvanceTraining(step_index);
            if (!detected.ok()) return detected.status();
            if (detected->has_value()) {
                contain(**detected, step_index);
                continue;
            }
            ++committed;
            --replay_pending;
            OVERLAP_RETURN_IF_ERROR(session->Commit(committed));
            if (replay_pending == 0) {
                recovery_latency->Record(
                    report.recoveries.back().LatencySeconds());
            }
            continue;
        }

        for (const ServiceRequest& expired : queue.DropExpired(now)) {
            ++stats_of(expired.job).shed_expired;
        }

        if (queue.empty()) {
            if (next_arrival >= arrivals.size()) break;
            // Idle until the next arrival.
            now = arrivals[next_arrival].arrival_seconds;
            continue;
        }

        ServiceRequest request;
        queue.Pop(&request);
        const HloModule& module = request.job == JobClass::kTraining
                                      ? *session->training().module
                                      : session->inference_module();
        const int64_t step_index = report.pod_steps;
        auto outcome = session->simulator().RunStep(
            module, step_index, /*collect_trace=*/false,
            RequestTrial(request));
        if (!outcome.ok()) return outcome.status();
        if (outcome->failed) {
            failure = outcome->failure;
            inflight = request;
            continue;
        }
        if (outcome->corrupted) {
            // Containment: the detector fired before the result left
            // the pod — the response is rejected, never emitted, and
            // the request lands in its own terminal bucket.
            ++stats_of(request.job).corrupted_rejected;
            now += outcome->corruption_detected_at_seconds;
            contain(outcome->corruption, step_index);
            continue;
        }
        ++report.pod_steps;
        now += outcome->result.step_seconds;
        if (request.job == JobClass::kTraining) {
            // Inject + detect at the data level too: the evaluator
            // aborts on detection, so corrupted shards never replace
            // clean training state.
            auto detected = session->AdvanceTraining(step_index);
            if (!detected.ok()) return detected.status();
            if (detected->has_value()) {
                ++stats_of(request.job).corrupted_rejected;
                contain(**detected, step_index);
                continue;
            }
            ++committed;
            max_committed = committed;
            OVERLAP_RETURN_IF_ERROR(session->Commit(committed));
        }
        ClassStats& s = stats_of(request.job);
        ++s.completed;
        double latency = now - request.arrival_seconds;
        (request.job == JobClass::kTraining ? training_latency
                                            : inference_latency)
            ->Record(latency);
        if (now <= request.deadline_seconds) {
            ++s.goodput;
        } else {
            ++s.slo_violations;
        }
    }

    report.end_seconds = now;
    report.final_mesh = session->mesh();
    {
        Histogram::Snapshot snap = inference_latency->snapshot();
        report.inference.p50_latency_seconds = snap.p50();
        report.inference.p99_latency_seconds = snap.p99();
        report.inference.p999_latency_seconds = snap.p999();
        report.inference.max_latency_seconds = snap.max;
    }
    {
        Histogram::Snapshot snap = training_latency->snapshot();
        report.training.p50_latency_seconds = snap.p50();
        report.training.p99_latency_seconds = snap.p99();
        report.training.p999_latency_seconds = snap.p999();
        report.training.max_latency_seconds = snap.max;
    }
    peak_depth_gauge->Set(
        static_cast<double>(report.peak_queue_depth));
    MirrorStats(&registry, "service.inference", report.inference);
    MirrorStats(&registry, "service.training", report.training);
    registry.counter("service.recoveries_total")
        ->Add(static_cast<int64_t>(report.recoveries.size()));
    report.metrics_json = registry.SnapshotJson();
    return report;
}

}  // namespace overlap
