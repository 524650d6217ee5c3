#include "core/pod_runner.h"

#include <algorithm>

#include "models/step_builder.h"
#include "sim/trace_export.h"
#include "support/strings.h"

namespace overlap {
namespace {

/** SimulateModelStep with an optional simulator trace (kept in
 * StepReport::layer::trace). */
StatusOr<StepReport>
SimulateStepImpl(const ModelConfig& config, const CompilerOptions& options,
                 bool collect_trace)
{
    auto module = BuildLayerStepModule(config);
    if (!module.ok()) return module.status();

    OverlapCompiler compiler(options);
    auto compile_report = compiler.Compile(module->get());
    if (!compile_report.ok()) return compile_report.status();

    PodSimulator simulator(config.mesh(), options.hardware,
                           FaultModel(options.fault));
    auto sim = simulator.Run(**module, collect_trace);
    if (!sim.ok()) return sim.status();

    StepReport report;
    report.config = config;
    report.compile = compile_report.value();
    report.layer = sim.value();
    double layers = static_cast<double>(config.num_layers);
    report.step_seconds = sim->step_seconds * layers;
    report.mfu = sim->Mfu(options.hardware);
    report.comm_fraction =
        sim->step_seconds > 0.0
            ? sim->exposed_comm_seconds / sim->step_seconds
            : 0.0;
    report.energy_joules =
        sim->EnergyJoules(options.hardware, config.num_chips) * layers;
    return report;
}

}  // namespace

std::string
StepReport::ToString() const
{
    return StrCat(config.name, ": step=", HumanTime(step_seconds),
                  " mfu=", mfu * 100.0,
                  "% comm=", comm_fraction * 100.0,
                  "% energy=", energy_joules / 1e6, " MJ");
}

StatusOr<StepReport>
SimulateModelStep(const ModelConfig& config, const CompilerOptions& options)
{
    return SimulateStepImpl(config, options, /*collect_trace=*/false);
}

std::string
ModelOverlapAnalysis::ToJson() const
{
    return StrCat(
        "{\"model\":\"", overlap.config.name,
        "\",\"overlap_step_seconds\":", overlap.step_seconds,
        ",\"baseline_step_seconds\":", baseline.step_seconds,
        ",\"overlap_mfu\":", overlap.mfu,
        ",\"baseline_mfu\":", baseline.mfu,
        ",\"report\":", report.ToJson(), "}");
}

StatusOr<ModelOverlapAnalysis>
AnalyzeModelOverlap(const ModelConfig& config,
                    const CompilerOptions& options)
{
    ModelOverlapAnalysis analysis;
    auto overlapped =
        SimulateStepImpl(config, options, /*collect_trace=*/true);
    if (!overlapped.ok()) return overlapped.status();
    analysis.overlap = std::move(overlapped).value();

    CompilerOptions baseline_options = CompilerOptions::Baseline();
    baseline_options.hardware = options.hardware;
    baseline_options.fault = options.fault;
    auto baseline =
        SimulateStepImpl(config, baseline_options, /*collect_trace=*/false);
    if (!baseline.ok()) return baseline.status();
    analysis.baseline = std::move(baseline).value();

    auto report =
        BuildOverlapReport(analysis.overlap.compile, analysis.overlap.layer);
    if (!report.ok()) return report.status();
    analysis.report = std::move(report).value();
    analysis.report.baseline_step_seconds =
        analysis.baseline.layer.step_seconds;
    analysis.report.actual_speedup =
        analysis.overlap.layer.step_seconds > 0.0
            ? analysis.baseline.layer.step_seconds /
                  analysis.overlap.layer.step_seconds
            : 1.0;

    UnifiedTrace trace;
    trace.passes = analysis.overlap.compile.pass_timings;
    trace.sim = &analysis.overlap.layer;
    analysis.trace_json = UnifiedTraceToChromeJson(trace);
    return analysis;
}

std::string
SdcStats::ToString() const
{
    if (detected == 0 && escaped == 0) return "no corruption";
    std::string out = StrCat(
        "sdc: detected=", detected, " escaped=", escaped,
        " rollbacks=", rollbacks, " replayed=", replayed_steps,
        " rollback_time=", HumanTime(rollback_seconds));
    if (quarantined) {
        out += StrCat(" quarantined_chip=", quarantined_chip);
    }
    return out;
}

std::string
StepTrialReport::ToString() const
{
    std::string out =
        StrCat(config.name, ": p50=", HumanTime(p50_step_seconds),
               " p99=", HumanTime(p99_step_seconds),
               " retries=", trials.total_retries, " over ",
               trials.num_trials, " trials");
    for (const RecoveryEvent& recovery : recoveries) {
        out += StrCat("; recovery: ", recovery.ToString());
    }
    return out;
}

StatusOr<StepTrialReport>
SimulateModelStepTrials(const ModelConfig& config,
                        const CompilerOptions& options, int64_t num_trials)
{
    auto module = BuildLayerStepModule(config);
    if (!module.ok()) return module.status();

    OverlapCompiler compiler(options);
    auto compile_report = compiler.Compile(module->get());
    if (!compile_report.ok()) return compile_report.status();

    PodSimulator simulator(config.mesh(), options.hardware,
                           FaultModel(options.fault));
    auto trials = simulator.RunTrials(**module, num_trials);
    if (!trials.ok()) return trials.status();

    StepTrialReport report;
    report.config = config;
    report.compile = compile_report.value();
    report.trials = std::move(trials).value();
    double layers = static_cast<double>(config.num_layers);
    report.p50_step_seconds = report.trials.p50_step_seconds * layers;
    report.p99_step_seconds = report.trials.p99_step_seconds * layers;
    return report;
}

StepTrialReport
ElasticRunReport::AsStepTrialReport() const
{
    StepTrialReport report;
    report.config.name = "elastic_step";
    report.config.num_layers = 1;
    report.compile = initial_compile;
    report.trials = steps;
    report.p50_step_seconds = steps.p50_step_seconds;
    report.p99_step_seconds = steps.p99_step_seconds;
    report.recoveries = recoveries;
    return report;
}

std::string
ElasticRunReport::ToString() const
{
    std::string out =
        StrCat("elastic run: ", num_steps, " steps on ",
               final_mesh.ToString(), " total=",
               HumanTime(total_seconds),
               " p50_step=", HumanTime(steps.p50_step_seconds));
    if (recoveries.empty()) out += "; no failure";
    for (const RecoveryEvent& recovery : recoveries) {
        out += StrCat("; ", recovery.ToString());
    }
    if (sdc.detected > 0 || sdc.escaped > 0) {
        out += StrCat("; ", sdc.ToString());
    }
    return out;
}

StatusOr<ElasticRunReport>
RunElasticTraining(const Mesh& mesh, const ElasticRunOptions& options)
{
    if (options.num_steps < 1) {
        return InvalidArgument("elastic run needs at least one step");
    }
    auto session = ElasticSession::Create(
        mesh, {.training = options.program,
               .inference = std::nullopt,
               .compiler = options.compiler,
               .checkpoint_interval = options.checkpoint_interval,
               .restore_bandwidth_bytes_per_second =
                   options.restore_bandwidth_bytes_per_second,
               .replan_latency_seconds = options.replan_latency_seconds,
               .sdc_strike_limit = options.sdc_strike_limit});
    if (!session.ok()) return session.status();

    ElasticRunReport report;
    report.num_steps = options.num_steps;
    report.initial_compile = session->training().compile;

    std::vector<double> committed_step_times;
    int64_t step = 0;
    // Steps below this index were already committed before a failure;
    // re-running them on the survivor mesh is replay, not progress.
    int64_t replay_until = 0;
    // Same marker for steps re-run after an SDC rollback.
    int64_t sdc_replay_until = 0;
    while (step < options.num_steps) {
        auto outcome =
            session->simulator().RunStep(*session->training().module, step);
        if (!outcome.ok()) return outcome.status();
        if (outcome->failed) {
            auto recovery = session->Recover(outcome->failure, step);
            if (!recovery.ok()) return recovery.status();
            report.total_seconds += recovery->detection_seconds;
            report.total_seconds += recovery->restore_seconds;
            report.total_seconds += recovery->replan_seconds;
            replay_until = std::max(replay_until, step);
            recovery->replayed_steps =
                replay_until - recovery->checkpoint_step;
            step = recovery->checkpoint_step;
            report.recoveries.push_back(std::move(recovery).value());
            continue;
        }

        // Data-model advance with SDC containment (§16): a detection
        // aborts the advance (state stays clean), consumes the injection
        // and rolls back to the newest checkpoint at or before the
        // injection step to replay; at the strike limit the culprit chip
        // is quarantined instead, like a dead chip. Corrupted state is
        // never committed.
        auto detected = session->AdvanceTraining(step);
        if (!detected.ok()) return detected.status();
        if (detected->has_value()) {
            const CorruptionReport primary = **detected;
            ++report.sdc.detected;
            ++report.sdc.rollbacks;
            report.sdc.last_report = primary.ToString();
            // Charge the aborted step up to the (modeled) moment the
            // detector fired.
            if (outcome->corrupted) {
                report.sdc.detection_latency_seconds +=
                    outcome->corruption_detected_at_seconds;
                report.total_seconds +=
                    outcome->corruption_detected_at_seconds;
            } else {
                report.total_seconds += outcome->result.step_seconds;
            }

            session->ConsumeInjection(primary);
            const auto quarantine = session->Strike(primary.chip, step);
            auto rollback =
                quarantine
                    ? session->Recover(*quarantine, primary.injected_step)
                    : session->Rollback(primary.injected_step);
            if (!rollback.ok()) return rollback.status();
            report.sdc.rollback_seconds += rollback->restore_seconds;
            report.total_seconds += rollback->restore_seconds;
            if (quarantine) {
                report.sdc.quarantined = true;
                report.sdc.quarantined_chip = primary.chip;
                report.sdc.rollback_seconds += rollback->replan_seconds;
                report.total_seconds += rollback->replan_seconds;
            }
            report.sdc.replayed_steps += step - rollback->checkpoint_step;
            sdc_replay_until = std::max(sdc_replay_until, step);
            step = rollback->checkpoint_step;
            continue;
        }
        // Fresh injections nothing caught this step: the poisoned state
        // has just been committed into the X shards.
        for (const SilentCorruption& c : session->fault().silent_corruptions) {
            if (c.step == step) ++report.sdc.escaped;
        }

        double step_time = outcome->result.step_seconds;
        report.total_seconds += step_time;
        if (step < sdc_replay_until) {
            report.sdc.rollback_seconds += step_time;
        } else if (step < replay_until) {
            report.recoveries.back().replay_seconds += step_time;
        } else {
            committed_step_times.push_back(step_time);
        }
        ++step;
        OVERLAP_RETURN_IF_ERROR(session->Commit(step));
    }

    report.final_mesh = session->mesh();
    report.steps = TrialStats::FromSamples(std::move(committed_step_times));
    auto final_state = LogicalElasticState(session->training());
    if (!final_state.ok()) return final_state.status();
    report.final_state = std::move(final_state).value();
    return report;
}

}  // namespace overlap
