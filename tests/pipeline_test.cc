#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <tuple>
#include <vector>

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

/**
 * The first s32 scalar (index arithmetic) of `computation` that repeats
 * an earlier one: same opcode, same operands, same literal bits and same
 * mesh axis. Empty when every index scalar is distinct. The f32 zero
 * each decomposed loop broadcasts into its accumulator is not an index
 * and stays one per loop: shared, it moves the schedulers' picks and
 * with them simulated step times.
 */
std::string
FirstDuplicateScalar(const HloComputation& computation)
{
    using Key = std::tuple<HloOpcode, std::vector<const HloInstruction*>,
                           uint32_t, int64_t>;
    std::map<Key, const HloInstruction*> seen;
    for (const HloInstruction* instr : computation.instructions()) {
        if (instr->shape().rank() != 0 ||
            instr->shape().dtype() != DType::kS32 ||
            instr->opcode() == HloOpcode::kParameter) {
            continue;
        }
        const Tensor* literal = instr->attrs().literal.get();
        Key key{instr->opcode(),
                {instr->operands().begin(), instr->operands().end()},
                literal != nullptr ? std::bit_cast<uint32_t>(literal->data()[0])
                                   : 0,
                instr->attrs().mesh_axis};
        auto [it, inserted] = seen.emplace(std::move(key), instr);
        if (!inserted) {
            return StrCat(instr->ToString(), " repeats ",
                          it->second->ToString());
        }
    }
    return "";
}

/**
 * The decomposed loops take their index scalars from one store per
 * computation, so no compiled overlap arm of a Table 1/2 model or of
 * the moe_sweep grid computes one index scalar twice.
 */
TEST(PipelineTest, CompiledModulesComputeEachIndexScalarOnce)
{
    std::vector<testing_util::ArmCompile> compiles =
        testing_util::MoeSweepArms();
    for (const ModelConfig& m : testing_util::PaperModels()) {
        compiles.push_back({m, CompilerOptions(), "overlap"});
    }
    for (const testing_util::ArmCompile& c : compiles) {
        auto module = BuildLayerStepModule(c.config);
        ASSERT_TRUE(module.ok()) << c.config.name;
        OverlapCompiler compiler(c.options);
        ASSERT_TRUE(compiler.Compile(module->get()).ok()) << c.config.name;
        EXPECT_EQ(FirstDuplicateScalar(*(*module)->entry()), "")
            << c.config.name << "/" << c.arm;
    }
}

}  // namespace
}  // namespace overlap
