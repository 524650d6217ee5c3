#include "core/overlap_compiler.h"

#include <utility>

#include "hlo/verifier.h"
#include "passes/async.h"
#include "passes/fusion_rewrites.h"
#include "support/logging.h"
#include "support/strings.h"

namespace overlap {
namespace {

/** A named pipeline stage operating on the module's current entry. */
struct PipelinePass {
    std::string name;
    std::function<Status()> run;
};

}  // namespace

std::string
PassDiagnostic::ToString() const
{
    return StrCat("pass '", pass_name, "' rolled back: ",
                  StatusCodeName(code), ": ", error);
}

StatusOr<CompileReport>
OverlapCompiler::Compile(HloModule* module) const
{
    if (module->entry() == nullptr || !module->mesh().has_value()) {
        return InvalidArgument(
            "compile needs a per-device module with a mesh");
    }
    OVERLAP_RETURN_IF_ERROR(VerifyModule(*module));
    // The verified input, kept only to replay the pipeline from after a
    // pass fails (see InjectedPass for the determinism this relies on).
    std::unique_ptr<HloComputation> input = module->entry()->Clone();
    CostModel cost(options_.hardware);
    FaultModel fault(options_.fault);
    CompileReport report;

    // The pipeline: each pass re-fetches module->entry() when it runs,
    // because a rollback replaces the entry computation wholesale.
    std::vector<PipelinePass> pipeline;
    if (options_.scheduler != SchedulerKind::kBaselineOnly) {
        pipeline.push_back(
            {"decompose", [&]() -> Status {
                 CollectiveEinsumDecomposer decomposer(
                     *module->mesh(), &cost, options_.decompose);
                 decomposer.set_fault_model(&fault);
                 auto stats = decomposer.Run(module->entry());
                 if (!stats.ok()) return stats.status();
                 report.decompose = std::move(stats).value();
                 return Status::Ok();
             }});
        pipeline.push_back(
            {"async-permute-creation", [&]() -> Status {
                 auto async = CreateAsyncPairs(module->entry(),
                                               HloOpcode::kCollectivePermute);
                 if (!async.ok()) return async.status();
                 report.async_permutes = async.value();
                 return Status::Ok();
             }});
        if (options_.async_all_to_all) {
            pipeline.push_back(
                {"async-a2a-creation", [&]() -> Status {
                     auto async = CreateAsyncPairs(module->entry(),
                                                   HloOpcode::kAllToAll);
                     if (!async.ok()) return async.status();
                     report.async_all_to_alls = async.value();
                     return Status::Ok();
                 }});
        }
        // §5.4.3 local rewrites that make operand pre-processing
        // fusable with the consumer einsums.
        pipeline.push_back(
            {"concat-fusion-rewrites", [&]() -> Status {
                 auto rewrites =
                     MakeConcatenatesFusionFriendly(module->entry());
                 if (!rewrites.ok()) return rewrites.status();
                 report.concat_rewrites = rewrites.value();
                 return Status::Ok();
             }});
    }
    for (const InjectedPass& injected : options_.extra_passes) {
        pipeline.push_back(
            {injected.name,
             [&injected, module]() { return injected.run(module); }});
    }
    pipeline.push_back({"fusion", [&]() -> Status {
                            auto fused = RunFusionPass(module->entry(),
                                                       options_.fusion);
                            if (!fused.ok()) return fused.status();
                            report.fusion_groups = fused.value();
                            return Status::Ok();
                        }});
    pipeline.push_back({"schedule", [&]() -> Status {
                            return ScheduleComputation(module->entry(),
                                                       cost,
                                                       options_.scheduler);
                        }});

    const double compile_start = NowSeconds();
    // Unlike the report, these survive a rollback: every pass execution
    // (replays included) and every diagnostic, in order.
    std::vector<PassTiming> timings;
    std::vector<PassDiagnostic> diagnostics;
    std::vector<bool> disabled(pipeline.size(), false);
    size_t next = 0;
    while (next < pipeline.size()) {
        const size_t i = next++;
        if (disabled[i]) continue;
        const PipelinePass& pass = pipeline[i];
        PassTiming timing;
        timing.pass_name = pass.name;
        timing.start_seconds = NowSeconds() - compile_start;
        timing.instructions_before = module->entry()->instruction_count();
        Status status = pass.run();
        timing.end_seconds = NowSeconds() - compile_start;
        timing.instructions_after = module->entry()->instruction_count();
        timings.push_back(std::move(timing));
        if (status.ok()) status = VerifyModule(*module);
        if (status.ok()) continue;
        // The pass errored or emitted invalid HLO: restore the verified
        // input, disable the pass for this module and replay the
        // pipeline from the top without it, surfacing a structured
        // diagnostic instead of a broken module.
        PassDiagnostic diagnostic;
        diagnostic.pass_name = pass.name;
        diagnostic.code = status.code();
        diagnostic.error = status.message();
        OVERLAP_LOG(kWarning)
            << "guarded pipeline: " << diagnostic.ToString();
        diagnostics.push_back(std::move(diagnostic));
        disabled[i] = true;
        module->ReplaceEntry(input->Clone());
        report = CompileReport();
        next = 0;
    }
    report.pass_timings = std::move(timings);
    report.pass_diagnostics = std::move(diagnostics);
    // The module needs no closing verify: the input was verified on
    // entry, and the last run of every enabled pass was verified.
    return report;
}

}  // namespace overlap
