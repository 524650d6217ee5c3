/**
 * @file
 * Guarded pass pipeline: a pass that emits invalid HLO or returns an
 * error Status is disabled and reported as a structured PassDiagnostic,
 * and the pipeline is replayed without it from the verified input --
 * compilation proceeds and the final module is exactly what the healthy
 * pipeline produces.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "hlo/verifier.h"
#include "models/fault_presets.h"
#include "models/model_config.h"
#include "models/step_builder.h"
#include "sim/engine.h"
#include "sim/fault_model.h"
#include "test_util.h"

namespace overlap {
namespace {

using testing_util::CorruptingPass;

std::unique_ptr<HloModule>
BuildModule()
{
    auto module = std::make_unique<HloModule>("m");
    Mesh mesh(8);
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {2048, 4096}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    return module;
}

/** A pass that mutates the graph and then reports failure itself. */
InjectedPass
SelfReportingBrokenPass()
{
    return {"self-reporting", [](HloModule* module) -> Status {
                HloComputation* comp = module->entry();
                HloBuilder b(comp);
                comp->set_root(b.Negate(comp->root()));
                return Internal("pass gave up halfway through");
            }};
}

TEST(CompilerGuardTest, CleanCompileHasNoDiagnostics)
{
    auto module = BuildModule();
    auto report = OverlapCompiler(CompilerOptions{}).Compile(module.get());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->pass_diagnostics.empty());
    EXPECT_TRUE(VerifyModule(*module).ok());
}

TEST(CompilerGuardTest, InvalidHloIsCaughtRolledBackAndReported)
{
    auto reference = BuildModule();
    auto guarded = BuildModule();

    CompilerOptions clean;
    ASSERT_TRUE(OverlapCompiler(clean).Compile(reference.get()).ok());

    CompilerOptions broken;
    broken.extra_passes.push_back(CorruptingPass());
    auto report = OverlapCompiler(broken).Compile(guarded.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    ASSERT_EQ(report->pass_diagnostics.size(), 1u);
    const PassDiagnostic& diagnostic = report->pass_diagnostics[0];
    EXPECT_EQ(diagnostic.pass_name, "corrupt-shapes");
    EXPECT_EQ(diagnostic.code, StatusCode::kInvalidArgument);
    EXPECT_NE(diagnostic.error.find("shape mismatch"), std::string::npos)
        << diagnostic.error;
    EXPECT_NE(diagnostic.ToString().find("corrupt-shapes"),
              std::string::npos);
    EXPECT_NE(diagnostic.ToString().find("rolled back"), std::string::npos);
    EXPECT_NE(diagnostic.ToString().find("INVALID_ARGUMENT"),
              std::string::npos);

    // The rollback is exact: the guarded module ends up instruction-for-
    // instruction identical to a compile without the broken pass.
    EXPECT_TRUE(VerifyModule(*guarded).ok());
    EXPECT_EQ(guarded->entry()->ToString(), reference->entry()->ToString());

    // And it still simulates.
    auto run = PodSimulator(Mesh(8), HardwareSpec()).Run(*guarded);
    ASSERT_TRUE(run.ok());
    EXPECT_GT(run->step_seconds, 0.0);
}

TEST(CompilerGuardTest, ErrorStatusRollsBackTheMutation)
{
    auto reference = BuildModule();
    auto guarded = BuildModule();

    ASSERT_TRUE(
        OverlapCompiler(CompilerOptions{}).Compile(reference.get()).ok());

    CompilerOptions broken;
    broken.extra_passes.push_back(SelfReportingBrokenPass());
    auto report = OverlapCompiler(broken).Compile(guarded.get());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->pass_diagnostics.size(), 1u);
    EXPECT_EQ(report->pass_diagnostics[0].pass_name, "self-reporting");
    EXPECT_EQ(report->pass_diagnostics[0].code, StatusCode::kInternal);
    // The Negate the pass added before failing must be gone.
    EXPECT_EQ(guarded->entry()->ToString(), reference->entry()->ToString());
}

TEST(CompilerGuardTest, EachBrokenPassGetsItsOwnDiagnostic)
{
    auto module = BuildModule();
    CompilerOptions options;
    options.extra_passes.push_back(CorruptingPass());
    options.extra_passes.push_back(SelfReportingBrokenPass());
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->pass_diagnostics.size(), 2u);
    EXPECT_EQ(report->pass_diagnostics[0].pass_name, "corrupt-shapes");
    EXPECT_EQ(report->pass_diagnostics[1].pass_name, "self-reporting");
    EXPECT_TRUE(VerifyModule(*module).ok());
}

TEST(CompilerGuardTest, ValidInjectedPassRunsThroughTheGuard)
{
    auto module = BuildModule();
    CompilerOptions options;
    options.extra_passes.push_back(
        {"extra-negate", [](HloModule* m) -> Status {
             HloBuilder b(m->entry());
             m->entry()->set_root(b.Negate(m->entry()->root()));
             return Status::Ok();
         }});
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->pass_diagnostics.empty());
    EXPECT_EQ(module->entry()->root()->opcode(), HloOpcode::kNegate);
}

TEST(CompilerGuardTest, RollbackPreservesEarlierPassResults)
{
    // The decompose stats gathered before the broken pass must survive
    // its rollback (the replay recomputes them).
    auto module = BuildModule();
    CompilerOptions options;
    options.decompose.use_cost_model = false;
    options.extra_passes.push_back(CorruptingPass());
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->decompose.total_decomposed(), 1);
    EXPECT_GT(report->async_permutes, 0);
    ASSERT_EQ(report->pass_diagnostics.size(), 1u);
}

// ---------------------------------------------------------------------------
// Replay contract: a rollback restores the verified input and reruns the
// pipeline without the failed pass, so the result must equal a clean
// compile on a real layer, passes ahead of the failure run twice, and
// the timings show every execution.
// ---------------------------------------------------------------------------

std::unique_ptr<HloModule>
Gpt32bLayer()
{
    return std::move(BuildLayerStepModule(*FindModel("GPT_32B"))).value();
}

void
ExpectSameDecompose(const DecomposeStats& a, const DecomposeStats& b)
{
    EXPECT_EQ(a.allgather_sites, b.allgather_sites);
    EXPECT_EQ(a.reduce_scatter_sites, b.reduce_scatter_sites);
    EXPECT_EQ(a.all_to_all_sites, b.all_to_all_sites);
    EXPECT_EQ(a.rejected_by_cost_model, b.rejected_by_cost_model);
    EXPECT_EQ(a.skipped_unsupported, b.skipped_unsupported);
    EXPECT_EQ(a.fault_fallbacks, b.fault_fallbacks);
    EXPECT_EQ(a.fault_lowered, b.fault_lowered);
    ASSERT_EQ(a.decisions.size(), b.decisions.size());
    for (size_t i = 0; i < a.decisions.size(); ++i) {
        const SiteDecision& x = a.decisions[i];
        const SiteDecision& y = b.decisions[i];
        EXPECT_EQ(x.collective, y.collective);
        EXPECT_EQ(x.einsum, y.einsum);
        EXPECT_EQ(x.decomposed, y.decomposed);
        EXPECT_EQ(x.reason, y.reason);
        EXPECT_EQ(x.cost.Benefit(), y.cost.Benefit());
        EXPECT_EQ(x.loop_group, y.loop_group);
    }
}

/** A valid pass that only counts how often it ran. */
InjectedPass
CountingPass(int* runs)
{
    return {"count", [runs](HloModule*) -> Status {
                ++*runs;
                return Status::Ok();
            }};
}

TEST(CompilerGuardTest, RollbackOnALayerMatchesACleanCompile)
{
    auto reference = Gpt32bLayer();
    auto guarded = Gpt32bLayer();
    auto clean = OverlapCompiler(CompilerOptions{}).Compile(reference.get());
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();

    CompilerOptions broken;
    broken.extra_passes.push_back(CorruptingPass());
    auto report = OverlapCompiler(broken).Compile(guarded.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->pass_diagnostics.size(), 1u);
    EXPECT_EQ(report->pass_diagnostics[0].pass_name, "corrupt-shapes");

    EXPECT_EQ(guarded->ToString(), reference->ToString());
    ExpectSameDecompose(report->decompose, clean->decompose);
    EXPECT_GT(report->decompose.total_decomposed(), 0);
    EXPECT_EQ(report->async_permutes, clean->async_permutes);
    EXPECT_EQ(report->concat_rewrites, clean->concat_rewrites);
    EXPECT_EQ(report->fusion_groups, clean->fusion_groups);
}

TEST(CompilerGuardTest, PassesAheadOfAFailureAreReplayed)
{
    int runs = 0;
    auto module = BuildModule();
    CompilerOptions options;
    options.extra_passes.push_back(CountingPass(&runs));
    options.extra_passes.push_back(CorruptingPass());
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok());
    ASSERT_EQ(report->pass_diagnostics.size(), 1u);
    // Once before the failure, once in the replay without it.
    EXPECT_EQ(runs, 2);

    // A pass behind the failure is not replayed.
    int after = 0;
    auto again = BuildModule();
    CompilerOptions behind;
    behind.extra_passes.push_back(CorruptingPass());
    behind.extra_passes.push_back(CountingPass(&after));
    ASSERT_TRUE(OverlapCompiler(behind).Compile(again.get()).ok());
    EXPECT_EQ(after, 1);
}

TEST(CompilerGuardTest, RollbackTimingsListEveryExecutionInOrder)
{
    int runs = 0;
    auto module = BuildModule();
    CompilerOptions options;
    options.extra_passes.push_back(CountingPass(&runs));
    options.extra_passes.push_back(CorruptingPass());
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok());

    const std::vector<std::string> expected = {
        "decompose", "async-permute-creation", "concat-fusion-rewrites",
        "count", "corrupt-shapes",
        // The replay, without the disabled pass.
        "decompose", "async-permute-creation", "concat-fusion-rewrites",
        "count", "fusion", "schedule"};
    ASSERT_EQ(report->pass_timings.size(), expected.size());
    double previous_end = 0.0;
    for (size_t i = 0; i < expected.size(); ++i) {
        const PassTiming& timing = report->pass_timings[i];
        EXPECT_EQ(timing.pass_name, expected[i]);
        EXPECT_GE(timing.start_seconds, previous_end) << timing.pass_name;
        EXPECT_GE(timing.seconds(), 0.0) << timing.pass_name;
        previous_end = timing.end_seconds;
    }
    // The replay starts from the input again, not from the broken graph.
    EXPECT_EQ(report->pass_timings[5].instructions_before,
              report->pass_timings[0].instructions_before);
    EXPECT_EQ(report->pass_timings[4].instructions_after,
              report->pass_timings[4].instructions_before + 1);
}

// ---------------------------------------------------------------------------
// Bucket-partition invariant: every decompose decision lands in exactly
// one of {decomposed, rejected_by_cost_model, fault_fallbacks}, with
// fault_lowered a refinement of the decomposed bucket. A site that was
// lowered to unidirectional must never also count as a fallback (the
// historical double-count), and a site the bidirectional emitter could
// never have used must not count as fault_lowered at all.
// ---------------------------------------------------------------------------

/**
 * Two sites: one large enough to decompose, one the gate rejects.
 * The rejected site is a contracting-dimension weight gather whose
 * full-output accumulation every iteration makes the decomposed loop
 * measurably slower than the blocking collective in traced simulation
 * (blocking ~99 us vs decomposed ~102 us on the default HardwareSpec)
 * — so the rejection is the verdict the simulator confirms, not just
 * the one the analytic formula prefers. (A latency-dominated tiny
 * free-dim site would no longer do: at eight partitions the blocking
 * collective pays seven serial hop latencies while the bidirectional
 * loop chains only three per direction, so the simulator shows a real
 * speedup and the gate rightly accepts it.)
 */
std::unique_ptr<HloModule>
BuildMixedSitesModule(const Mesh& mesh)
{
    auto module = std::make_unique<HloModule>("mixed");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* big_p = b.Parameter(0, Shape(DType::kBF16, {2048, 4096}));
    auto* big_w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}));
    auto* big = b.Einsum(b.AllGather(big_p, 0, mesh.Groups(0)), big_w,
                         "bf,fh->bh");
    auto* slow_p = b.Parameter(2, Shape({1024, 4096}));
    auto* slow_w = b.Parameter(3, Shape({512, 512}));
    auto* slow = b.Einsum(slow_p, b.AllGather(slow_w, 0, mesh.Groups(0)),
                          "bf,fh->bh");
    comp->set_root(b.Tuple({big, slow}));
    return module;
}

TEST(CompilerGuardTest, DecisionBucketsPartitionMixedOutcomes)
{
    Mesh mesh(8);
    auto module = BuildMixedSitesModule(mesh);
    auto report = OverlapCompiler(CompilerOptions{}).Compile(module.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const DecomposeStats& stats = report->decompose;
    ASSERT_EQ(stats.decisions.size(), 2u);
    EXPECT_EQ(stats.total_decomposed(), 1);
    EXPECT_EQ(stats.rejected_by_cost_model, 1);
    EXPECT_EQ(stats.fault_fallbacks, 0);
    EXPECT_EQ(stats.fault_lowered, 0);
    EXPECT_TRUE(stats.BucketsConsistent());
}

TEST(CompilerGuardTest, FaultFallbackLandsInExactlyOneBucket)
{
    Mesh mesh(8);
    auto module = BuildModule();
    CompilerOptions options;
    options.fault = SingleDegradedLink(mesh, 0, 0.02).spec;
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const DecomposeStats& stats = report->decompose;
    ASSERT_EQ(stats.decisions.size(), 1u);
    EXPECT_EQ(stats.fault_fallbacks, 1);
    EXPECT_EQ(stats.total_decomposed(), 0);
    EXPECT_EQ(stats.rejected_by_cost_model, 0);
    // The fallback must not *also* register as a lowering: that was the
    // double-count — a fault_lowered tick with no decomposed site.
    EXPECT_EQ(stats.fault_lowered, 0);
    EXPECT_TRUE(stats.BucketsConsistent());
}

TEST(CompilerGuardTest, FaultLoweredStaysInsideDecomposedBucket)
{
    Mesh mesh(8);
    auto module = BuildModule();
    CompilerOptions options;
    LinkFault fault;
    fault.src = 0;
    fault.dst = mesh.RingNeighbor(0, 0, 1);
    fault.bandwidth_factor = 0.05;
    fault.latency_factor = 20.0;
    options.fault.link_faults.push_back(fault);
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const DecomposeStats& stats = report->decompose;
    ASSERT_EQ(stats.decisions.size(), 1u);
    EXPECT_EQ(stats.total_decomposed(), 1);
    EXPECT_EQ(stats.fault_lowered, 1);
    EXPECT_EQ(stats.fault_fallbacks, 0);
    EXPECT_EQ(stats.rejected_by_cost_model, 0);
    EXPECT_TRUE(stats.BucketsConsistent());
    EXPECT_LE(stats.fault_lowered, stats.total_decomposed());
}

TEST(CompilerGuardTest, IneligibleSiteIsNeverCountedFaultLowered)
{
    // Odd shard extent: the bidirectional emitter would refuse this
    // site, so a one-direction fault has nothing to lower — the site
    // must stay a plain decomposed (unidirectional) entry, not leak a
    // fault_lowered tick for a lowering that never happened.
    Mesh mesh(8);
    auto module = std::make_unique<HloModule>("odd");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {2047, 4096}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));

    CompilerOptions options;
    LinkFault fault;
    fault.src = 0;
    fault.dst = mesh.RingNeighbor(0, 0, 1);
    fault.bandwidth_factor = 0.05;
    fault.latency_factor = 20.0;
    options.fault.link_faults.push_back(fault);
    auto report = OverlapCompiler(options).Compile(module.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    const DecomposeStats& stats = report->decompose;
    ASSERT_EQ(stats.decisions.size(), 1u);
    EXPECT_EQ(stats.fault_lowered, 0);
    EXPECT_TRUE(stats.BucketsConsistent());
}

}  // namespace
}  // namespace overlap
