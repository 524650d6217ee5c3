#include <gtest/gtest.h>

#include "core/overlap_compiler.h"
#include "core/pod_runner.h"
#include "hlo/verifier.h"
#include "interp/evaluator.h"
#include "models/step_builder.h"
#include "spmd/spmd_builder.h"
#include "test_util.h"

namespace overlap {
namespace {

using testing_util::UnshardTensor;

/**
 * Builds a small two-layer MLP per-device program (Figure 3 pattern)
 * suitable for functional interpretation.
 */
struct MlpProgram {
    std::unique_ptr<HloModule> module;
    std::vector<std::vector<Tensor>> params;
    Tensor expected;               // global output
    TensorSharding out_sharding;
};

MlpProgram
BuildSmallMlp(const Mesh& mesh)
{
    MlpProgram p;
    p.module = std::make_unique<HloModule>("mlp");
    p.module->set_mesh(mesh);
    HloComputation* comp = p.module->AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);

    const int64_t kB = 8, kF = 8, kH = 16;
    TensorSharding act_sh = TensorSharding::OnDims(2, 0, 1, 1, 0);
    TensorSharding w1_sh = TensorSharding::OnDims(2, 0, 1, 1, 0);
    TensorSharding w2_sh = TensorSharding::OnDims(2, 0, 0, 1, 1);
    auto x = spmd.Parameter(0, Shape({kB, kF}), act_sh, "x");
    auto w1 = spmd.Parameter(1, Shape({kF, kH}), w1_sh, "w1");
    auto w2 = spmd.Parameter(2, Shape({kH, kF}), w2_sh, "w2");
    auto h = spmd.Einsum(*x, *w1, "bf,fh->bh",
                         TensorSharding::OnDims(2, 0, 1, 1, 0));
    auto y = spmd.Einsum(*h, *w2, "bh,hf->bf", act_sh);
    comp->set_root(y->local);

    Tensor gx = Tensor::Random(Shape({kB, kF}), 21);
    Tensor gw1 = Tensor::Random(Shape({kF, kH}), 22);
    Tensor gw2 = Tensor::Random(Shape({kH, kF}), 23);
    p.params = {ShardTensor(gx, act_sh, mesh),
                ShardTensor(gw1, w1_sh, mesh),
                ShardTensor(gw2, w2_sh, mesh)};
    Tensor hh = EinsumSpec::Parse("bf,fh->bh")->Evaluate(gx, gw1).value();
    p.expected = EinsumSpec::Parse("bh,hf->bf")->Evaluate(hh, gw2).value();
    p.out_sharding = act_sh;
    return p;
}

TEST(PipelineTest, FullPipelinePreservesSemantics)
{
    Mesh mesh(2, 4);
    MlpProgram p = BuildSmallMlp(mesh);
    CompilerOptions options;
    options.decompose.use_cost_model = false;  // force every rewrite
    OverlapCompiler compiler(options);
    auto report = compiler.Compile(p.module.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->decompose.total_decomposed(), 0);
    EXPECT_GT(report->async_permutes, 0);
    ASSERT_TRUE(VerifyModule(*p.module).ok());

    SpmdEvaluator eval(mesh);
    auto result = eval.Evaluate(*p.module->entry(), p.params);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    Tensor assembled = UnshardTensor(*result, p.expected.shape(),
                                     p.out_sharding, mesh);
    EXPECT_TRUE(assembled.AllClose(p.expected, 1e-3f));
}

TEST(PipelineTest, BaselineLeavesCollectivesBlocking)
{
    Mesh mesh(2, 4);
    MlpProgram p = BuildSmallMlp(mesh);
    OverlapCompiler compiler(CompilerOptions::Baseline());
    auto report = compiler.Compile(p.module.get());
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->decompose.total_decomposed(), 0);
    EXPECT_EQ(report->async_permutes, 0);
    int64_t collectives = 0;
    for (const HloInstruction* instr :
         p.module->entry()->instructions()) {
        if (IsBlockingCollective(instr->opcode())) ++collectives;
    }
    EXPECT_GT(collectives, 0);
}

TEST(PipelineTest, OverlapNeverSlowerThanBaselineOnModels)
{
    // The §5.5 gating guarantees the rewrite is only applied when it is
    // estimated profitable; end-to-end that must show as step time less
    // than or approximately equal to the baseline's.
    for (const char* name :
         {"GPT_32B", "Meena_500B", "GLaM_1T", "BigSSL_10B"}) {
        const ModelConfig* config = FindModel(name);
        ASSERT_NE(config, nullptr);
        auto baseline =
            SimulateModelStep(*config, CompilerOptions::Baseline());
        ASSERT_TRUE(baseline.ok()) << name;
        auto overlapped = SimulateModelStep(*config, CompilerOptions());
        ASSERT_TRUE(overlapped.ok()) << name;
        EXPECT_LT(overlapped->step_seconds,
                  baseline->step_seconds * 1.02)
            << name;
        EXPECT_GT(overlapped->mfu, 0.0) << name;
    }
}

TEST(PipelineTest, OverlapReducesExposedCommunication)
{
    const ModelConfig* config = FindModel("GPT_1T");
    auto baseline =
        SimulateModelStep(*config, CompilerOptions::Baseline());
    auto overlapped = SimulateModelStep(*config, CompilerOptions());
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(overlapped.ok());
    // 2-3x communication-cost reduction is the paper's summary claim.
    EXPECT_LT(overlapped->comm_fraction, baseline->comm_fraction / 2.0);
}

TEST(PipelineTest, EnergyFollowsStepTime)
{
    const ModelConfig* config = FindModel("Meena_500B");
    auto baseline =
        SimulateModelStep(*config, CompilerOptions::Baseline());
    auto overlapped = SimulateModelStep(*config, CompilerOptions());
    ASSERT_TRUE(baseline.ok());
    ASSERT_TRUE(overlapped.ok());
    double time_ratio = baseline->step_seconds / overlapped->step_seconds;
    double energy_ratio =
        baseline->energy_joules / overlapped->energy_joules;
    EXPECT_NEAR(time_ratio, energy_ratio, 1e-9);
}

TEST(PipelineTest, CompileRejectsModuleWithoutMesh)
{
    HloModule module("no_mesh");
    module.AddEntryComputation("main");
    OverlapCompiler compiler((CompilerOptions()));
    EXPECT_FALSE(compiler.Compile(&module).ok());
}

TEST(PipelineTest, ReportsSpeedupInExpectedRange)
{
    // §6.2: every weak-scaling GPT size speeds up by roughly 1.1-1.4x.
    for (const ModelConfig& config : Table2GptModels()) {
        auto baseline =
            SimulateModelStep(config, CompilerOptions::Baseline());
        auto overlapped = SimulateModelStep(config, CompilerOptions());
        ASSERT_TRUE(baseline.ok());
        ASSERT_TRUE(overlapped.ok());
        double speedup =
            baseline->step_seconds / overlapped->step_seconds;
        EXPECT_GE(speedup, 1.05) << config.name;
        EXPECT_LE(speedup, 1.55) << config.name;
    }
}

}  // namespace
}  // namespace overlap
