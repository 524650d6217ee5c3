#include "core/recovery/elastic_session.h"

#include <utility>
#include <vector>

#include "core/recovery/recovery_planner.h"
#include "interp/evaluator.h"
#include "support/strings.h"

namespace overlap {
namespace {

/**
 * The §5.5 gate verdict on a survivor recompile: any guarded-pipeline
 * rollback, or a compile where every decomposition candidate was
 * rejected, means the replanned mesh gets no overlap.
 */
bool
GateFailed(const CompileReport& report)
{
    if (!report.pass_diagnostics.empty()) return true;
    const DecomposeStats& d = report.decompose;
    return !d.decisions.empty() && d.total_decomposed() == 0;
}

}  // namespace

std::string
RecoveryEvent::ToString() const
{
    return StrCat(
        degraded_blocking ? "recovered on blocking lowering" : "recovered",
        ": detection=", HumanTime(detection_seconds),
        " restore=", HumanTime(restore_seconds),
        " replan=", HumanTime(replan_seconds),
        " replay=", HumanTime(replay_seconds), " (", replayed_steps,
        " steps from checkpoint ", checkpoint_step,
        ") total=", HumanTime(LatencySeconds()));
}

std::string
RecoveryEvent::ToJson() const
{
    return StrCat("{\"at_s\": ", at_seconds,
                  ", \"detection_s\": ", detection_seconds,
                  ", \"restore_s\": ", restore_seconds,
                  ", \"replan_s\": ", replan_seconds,
                  ", \"replay_s\": ", replay_seconds,
                  ", \"recovery_latency_s\": ", LatencySeconds(),
                  ", \"replayed_steps\": ", replayed_steps,
                  ", \"degraded_blocking\": ",
                  degraded_blocking ? "true" : "false", "}");
}

StatusOr<ElasticSession>
ElasticSession::Create(const Mesh& mesh, ElasticSessionOptions options)
{
    if (options.checkpoint_interval < 1) {
        return InvalidArgument("checkpoint interval must be >= 1");
    }
    if (options.restore_bandwidth_bytes_per_second <= 0.0) {
        return InvalidArgument("restore bandwidth must be positive");
    }
    if (options.replan_latency_seconds < 0.0) {
        return InvalidArgument("replan latency must be >= 0");
    }
    if (options.sdc_strike_limit < 1) {
        return InvalidArgument("sdc strike limit must be >= 1");
    }
    ElasticSession session(mesh, std::move(options));
    auto workloads =
        session.Compile(mesh, session.current_,
                        InitialElasticState(session.options_.training));
    if (!workloads.ok()) return workloads.status();
    session.workloads_ = std::move(workloads).value();
    OVERLAP_RETURN_IF_ERROR(session.Commit(0));
    return session;
}

ElasticSession::ElasticSession(const Mesh& mesh,
                               ElasticSessionOptions options)
    : options_(std::move(options)),
      mesh_(mesh),
      current_(options_.compiler),
      simulator_(mesh_, current_.hardware, FaultModel(current_.fault)),
      store_(options_.checkpoint_interval)
{
}

StatusOr<std::optional<CorruptionReport>>
ElasticSession::AdvanceTraining(int64_t step)
{
    const FaultSpec& fault = current_.fault;
    SdcEvalConfig eval_sdc;
    SdcEvalSink sink;
    EvalOptions eval_options;
    if (!fault.silent_corruptions.empty() || fault.sdc.active()) {
        eval_sdc.corruptions = fault.silent_corruptions;
        eval_sdc.detectors = fault.sdc;
        eval_sdc.step = step;
        eval_options.sdc = &eval_sdc;
        eval_options.sdc_sink = &sink;
    }
    Status advanced = AdvanceElasticState(&workloads_.program, eval_options);
    if (!advanced.ok() && sink.detected()) {
        return std::optional<CorruptionReport>(*sink.Primary());
    }
    OVERLAP_RETURN_IF_ERROR(advanced);
    return std::optional<CorruptionReport>();
}

Status
ElasticSession::Commit(int64_t step)
{
    auto state = LogicalElasticState(workloads_.program);
    if (!state.ok()) return state.status();
    store_.MaybeSave(step, state.value());
    return Status::Ok();
}

void
ElasticSession::ConsumeInjection(const CorruptionReport& report)
{
    std::erase_if(current_.fault.silent_corruptions,
                  [&report](const SilentCorruption& c) {
                      return c.step == report.injected_step &&
                             c.chip == report.chip;
                  });
    ResetSimulator();
}

std::optional<FailureReport>
ElasticSession::Strike(int64_t chip, int64_t step)
{
    if (++strikes_[chip] < options_.sdc_strike_limit) return std::nullopt;
    FailureReport failure;
    failure.cause = FailureCause::kSilentCorruption;
    failure.dead_chip = chip;
    failure.failed_step = step;
    failure.last_completed_step = step - 1;
    return failure;
}

StatusOr<RecoveryEvent>
ElasticSession::Recover(const FailureReport& failure, int64_t restore_at)
{
    RecoveryEvent event;
    event.failure_summary = failure.ToString();
    event.failed_step = failure.failed_step;
    event.detection_seconds = failure.detected_at_seconds;
    auto plan =
        RecoveryPlanner::PlanSurvivorMesh(mesh_, current_.fault, failure);
    if (!plan.ok()) return plan.status();
    event.survivor_plan = plan->ToString();
    auto restored = Restore(restore_at, &event);
    if (!restored.ok()) return restored.status();

    CompilerOptions options = options_.compiler;
    options.fault = plan->fault;
    auto workloads = Compile(plan->mesh, options, restored.value());
    if (workloads.ok() && workloads->gate_failed) {
        options = CompilerOptions::Baseline();
        options.hardware = options_.compiler.hardware;
        options.fault = plan->fault;
        workloads = Compile(plan->mesh, options, restored.value());
        event.degraded_blocking = true;
    }
    if (!workloads.ok()) return workloads.status();
    event.replan_seconds = options_.replan_latency_seconds;
    event.compile = workloads->program.compile;

    mesh_ = plan->mesh;
    strikes_.clear();  // keyed by the old mesh's ids
    current_ = std::move(options);
    workloads_ = std::move(workloads).value();
    ResetSimulator();
    return event;
}

StatusOr<RecoveryEvent>
ElasticSession::Rollback(int64_t restore_at)
{
    RecoveryEvent event;
    auto restored = Restore(restore_at, &event);
    if (!restored.ok()) return restored.status();
    auto program = BuildElasticProgram(options_.training, mesh_, current_,
                                       restored.value());
    if (!program.ok()) return program.status();
    workloads_.program = std::move(program).value();
    ResetSimulator();
    return event;
}

StatusOr<ElasticSession::Workloads>
ElasticSession::Compile(const Mesh& mesh, const CompilerOptions& options,
                        const Tensor& state) const
{
    auto program =
        BuildElasticProgram(options_.training, mesh, options, state);
    if (!program.ok()) return program.status();
    Workloads workloads;
    workloads.program = std::move(program).value();
    workloads.gate_failed = GateFailed(workloads.program.compile);
    if (!options_.inference) return workloads;

    auto tower = BuildInferenceTowerModule(mesh, *options_.inference);
    if (!tower.ok()) return tower.status();
    auto compile = OverlapCompiler(options).Compile(tower->get());
    if (!compile.ok()) return compile.status();
    workloads.tower = std::move(tower).value();
    workloads.gate_failed =
        workloads.gate_failed || GateFailed(compile.value());
    return workloads;
}

StatusOr<Tensor>
ElasticSession::Restore(int64_t step, RecoveryEvent* event) const
{
    auto restored = store_.RestoreAtOrBefore(step);
    if (!restored.ok()) return restored.status();
    event->checkpoint_step = store_.StepAtOrBefore(step);
    event->checkpoint_bytes = store_.stored_bytes();
    event->restore_seconds = static_cast<double>(event->checkpoint_bytes) /
                             options_.restore_bandwidth_bytes_per_second;
    return restored;
}

void
ElasticSession::ResetSimulator()
{
    simulator_ =
        PodSimulator(mesh_, current_.hardware, FaultModel(current_.fault));
}

}  // namespace overlap
