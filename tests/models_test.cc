#include <gtest/gtest.h>

#include <set>

#include "core/overlap_compiler.h"
#include "hlo/verifier.h"
#include "models/model_config.h"
#include "models/step_builder.h"

namespace overlap {
namespace {

int64_t
CountOps(const HloComputation& comp, HloOpcode opcode)
{
    int64_t count = 0;
    for (const HloInstruction* instr : comp.instructions()) {
        if (instr->opcode() == opcode) ++count;
    }
    return count;
}

TEST(ModelConfigTest, Table1MatchesThePaper)
{
    auto models = Table1Models();
    ASSERT_EQ(models.size(), 6u);
    const ModelConfig* gpt = FindModel("GPT_1T");
    ASSERT_NE(gpt, nullptr);
    EXPECT_EQ(gpt->num_layers, 142);
    EXPECT_EQ(gpt->model_dim, 24576);
    EXPECT_EQ(gpt->ff_dim, 98304);
    EXPECT_EQ(gpt->batch_size, 4096);
    EXPECT_EQ(gpt->num_chips, 2048);
    const ModelConfig* glam = FindModel("GLaM_1T");
    ASSERT_NE(glam, nullptr);
    EXPECT_EQ(glam->num_experts, 64);
    EXPECT_EQ(glam->kind, ModelKind::kMoe);
    const ModelConfig* bigssl = FindModel("BigSSL_10B");
    ASSERT_NE(bigssl, nullptr);
    EXPECT_EQ(bigssl->mesh_y, 8);  // 1-D partitioning of size 8
}

TEST(ModelConfigTest, Table2IsTheWeakScalingFamily)
{
    auto models = Table2GptModels();
    ASSERT_EQ(models.size(), 6u);
    EXPECT_EQ(models.front().name, "GPT_32B");
    EXPECT_EQ(models.front().num_chips, 64);
    EXPECT_EQ(models.back().name, "GPT_1T");
    EXPECT_EQ(models.back().num_chips, 2048);
    for (const ModelConfig& m : models) {
        EXPECT_EQ(m.mesh_x * m.mesh_y, m.num_chips) << m.name;
        EXPECT_EQ(m.num_heads() * m.head_dim, m.model_dim) << m.name;
        EXPECT_EQ(m.num_heads() % m.mesh_x, 0) << m.name;
        EXPECT_EQ(m.batch_size % m.mesh_y, 0) << m.name;
    }
}

TEST(StepBuilderTest, EveryModelBuildsAndVerifies)
{
    for (const ModelConfig& config : Table1Models()) {
        auto module = BuildLayerStepModule(config);
        ASSERT_TRUE(module.ok()) << config.name;
        EXPECT_TRUE(VerifyModule(**module).ok()) << config.name;
        EXPECT_GT((*module)->entry()->instruction_count(), 20)
            << config.name;
    }
    for (const ModelConfig& config : Table2GptModels()) {
        auto module = BuildLayerStepModule(config);
        ASSERT_TRUE(module.ok()) << config.name;
        EXPECT_TRUE(VerifyModule(**module).ok()) << config.name;
    }
}

/**
 * Every collective of a built and compiled Table 1/2 layer carries one
 * of at most one group list per mesh axis (the SPMD builder shares a
 * list per axis and the passes copy the handle), and Clone shares the
 * lists rather than copying them.
 */
TEST(StepBuilderTest, CollectivesShareOneGroupListPerMeshAxis)
{
    std::vector<ModelConfig> configs = Table1Models();
    for (const ModelConfig& config : Table2GptModels()) {
        configs.push_back(config);
    }
    for (const ModelConfig& config : configs) {
        auto module = BuildLayerStepModule(config);
        ASSERT_TRUE(module.ok()) << config.name;
        auto report =
            OverlapCompiler(CompilerOptions()).Compile(module->get());
        ASSERT_TRUE(report.ok()) << config.name << ": "
                                 << report.status().ToString();
        const HloComputation& entry = *(*module)->entry();
        std::unique_ptr<HloComputation> clone = entry.Clone();
        const std::vector<HloInstruction*> instrs = entry.instructions();
        const std::vector<HloInstruction*> cloned = clone->instructions();
        ASSERT_EQ(instrs.size(), cloned.size()) << config.name;
        std::set<const ReplicaGroups::List*> lists;
        int64_t collectives = 0;
        for (size_t i = 0; i < instrs.size(); ++i) {
            const ReplicaGroups& groups = instrs[i]->attrs().groups;
            if (groups.empty()) continue;
            ++collectives;
            lists.insert(groups.get());
            EXPECT_EQ(cloned[i]->attrs().groups.get(), groups.get())
                << config.name << " %" << instrs[i]->name();
        }
        EXPECT_GT(collectives, 0) << config.name;
        EXPECT_LE(static_cast<int64_t>(lists.size()),
                  config.mesh().num_axes())
            << config.name;
    }
}

TEST(StepBuilderTest, DenseLayerHasTheFigure3CollectiveMix)
{
    auto module = BuildLayerStepModule(*FindModel("GPT_1T"));
    ASSERT_TRUE(module.ok());
    const HloComputation& comp = *(*module)->entry();
    // Forward + backward of a 2-D partitioned dense layer: activation
    // and weight AllGathers plus output/gradient ReduceScatters.
    EXPECT_GE(CountOps(comp, HloOpcode::kAllGather), 8);
    EXPECT_GE(CountOps(comp, HloOpcode::kReduceScatter), 4);
    EXPECT_EQ(CountOps(comp, HloOpcode::kAllToAll), 0);
    EXPECT_GE(CountOps(comp, HloOpcode::kEinsum), 12);
}

TEST(StepBuilderTest, MoeLayerHasAllToAlls)
{
    auto module = BuildLayerStepModule(*FindModel("GLaM_1T"));
    ASSERT_TRUE(module.ok());
    EXPECT_GE(CountOps(*(*module)->entry(), HloOpcode::kAllToAll), 4);
}

TEST(StepBuilderTest, EncoderDecoderHasBackwardAllToAlls)
{
    auto module = BuildLayerStepModule(*FindModel("T5_300B"));
    ASSERT_TRUE(module.ok());
    EXPECT_EQ(CountOps(*(*module)->entry(), HloOpcode::kAllToAll), 2);
}

TEST(StepBuilderTest, SpeechLayerUsesOneDimensionalStrategy)
{
    auto module = BuildLayerStepModule(*FindModel("BigSSL_10B"));
    ASSERT_TRUE(module.ok());
    const HloComputation& comp = *(*module)->entry();
    // Figure 2: weights AllGathered on demand; backward weight grads
    // ReduceScattered along the model axis and AllReduced across the
    // data-parallel replicas.
    EXPECT_GE(CountOps(comp, HloOpcode::kAllGather), 4);
    EXPECT_GE(CountOps(comp, HloOpcode::kReduceScatter), 2);
    EXPECT_GE(CountOps(comp, HloOpcode::kAllReduce), 2);
}

TEST(StepBuilderTest, RejectsInconsistentMesh)
{
    ModelConfig bad = *FindModel("GPT_32B");
    bad.mesh_x = 8;  // 8 * 16 != 64
    EXPECT_FALSE(BuildLayerStepModule(bad).ok());
}

}  // namespace
}  // namespace overlap
