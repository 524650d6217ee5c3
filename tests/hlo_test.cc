#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/overlap_compiler.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "hlo/verifier.h"
#include "models/model_config.h"
#include "models/step_builder.h"
#include "passes/schedule.h"
#include "support/strings.h"

namespace overlap {
namespace {

TEST(BuilderTest, EinsumShapeInference)
{
    HloModule module("m");
    HloBuilder b(module.AddEntryComputation("main"));
    auto* lhs = b.Parameter(0, Shape({4, 8}));
    auto* rhs = b.Parameter(1, Shape({8, 16}));
    auto* out = b.Einsum(lhs, rhs, "mk,kn->mn");
    EXPECT_EQ(out->shape().dims(), (std::vector<int64_t>{4, 16}));
    module.entry()->set_root(out);
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(BuilderTest, CollectiveShapes)
{
    HloModule module("m");
    module.set_mesh(Mesh(4));
    HloBuilder b(module.AddEntryComputation("main"));
    auto* p = b.Parameter(0, Shape({2, 8}));
    Mesh mesh(4);
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    EXPECT_EQ(ag->shape().dims(), (std::vector<int64_t>{8, 8}));
    auto* rs = b.ReduceScatter(ag, 1, mesh.Groups(0));
    EXPECT_EQ(rs->shape().dims(), (std::vector<int64_t>{8, 2}));
    auto* ar = b.AllReduce(rs, mesh.Groups(0));
    EXPECT_EQ(ar->shape().dims(), rs->shape().dims());
    module.entry()->set_root(ar);
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(BuilderTest, DynamicSliceHelpers)
{
    HloModule module("m");
    HloBuilder b(module.AddEntryComputation("main"));
    auto* p = b.Parameter(0, Shape({4, 8}));
    auto* idx = b.ConstantIndex(2);
    auto* slice = b.DynamicSliceOnDim(p, 1, idx, 4);
    EXPECT_EQ(slice->shape().dims(), (std::vector<int64_t>{4, 4}));
    auto* updated = b.DynamicUpdateSliceOnDim(p, slice, 1, idx);
    EXPECT_EQ(updated->shape().dims(), p->shape().dims());
    module.entry()->set_root(updated);
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(OpcodeTest, ExchangeOpsAreTheDataMovingCollectives)
{
    const std::set<HloOpcode> exchanges = {
        HloOpcode::kAllGather,         HloOpcode::kReduceScatter,
        HloOpcode::kAllReduce,         HloOpcode::kAllToAll,
        HloOpcode::kCollectivePermute, HloOpcode::kCollectivePermuteStart,
        HloOpcode::kAllToAllStart,
    };
    for (int op = 0; op <= static_cast<int>(HloOpcode::kTuple); ++op) {
        HloOpcode opcode = static_cast<HloOpcode>(op);
        EXPECT_EQ(IsExchangeOp(opcode), exchanges.count(opcode) == 1)
            << HloOpcodeName(opcode);
    }
}

TEST(ComputationTest, UsersTracked)
{
    HloModule module("m");
    HloBuilder b(module.AddEntryComputation("main"));
    auto* p = b.Parameter(0, Shape({2}));
    auto* neg = b.Negate(p);
    auto* add = b.Add(neg, neg);
    EXPECT_EQ(p->users().size(), 1u);
    EXPECT_EQ(neg->users().size(), 1u);  // duplicate operand counted once
    EXPECT_TRUE(neg->HasUser(add));
}

TEST(ComputationTest, ReplaceAllUsesWith)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* old_value = b.Negate(p);
    auto* user = b.Add(old_value, old_value);
    comp->set_root(user);
    auto* replacement = b.Copy(p);
    comp->ReplaceAllUsesWith(old_value, replacement);
    EXPECT_EQ(user->operand(0), replacement);
    EXPECT_EQ(user->operand(1), replacement);
    EXPECT_TRUE(old_value->users().empty());
    comp->SortTopologically();
    EXPECT_TRUE(VerifyComputation(*comp).ok());
}

TEST(ComputationTest, DeadCodeElimination)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* live = b.Negate(p);
    auto* dead = b.Add(p, p);
    b.Add(dead, dead);  // dead chain
    comp->set_root(live);
    EXPECT_EQ(comp->RemoveDeadInstructions(), 2);
    EXPECT_EQ(comp->instruction_count(), 2);
    EXPECT_TRUE(p->users().size() == 1);
}

TEST(ComputationTest, TopologicalSortIsStable)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* a = b.Negate(p);
    auto* c = b.Add(a, p);
    comp->set_root(c);
    // Replace a's use with a later-defined value -> order broken.
    auto* late = b.Copy(p);
    comp->ReplaceAllUsesWith(a, late);
    comp->RemoveDeadInstructions();
    comp->SortTopologically();
    EXPECT_TRUE(VerifyComputation(*comp).ok());
    // Stability: p stays first.
    EXPECT_EQ(comp->instructions().front(), p);
}

/**
 * After dead-code elimination leaves id gaps, and with an operand read
 * twice (x + x), the sort moves only what a dependence forces and keeps
 * every other instruction in its prior relative order.
 */
TEST(ComputationTest, TopologicalSortAcrossIdGapsAndRepeatedOperands)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    b.Negate(p);  // dead: leaves an id gap
    auto* a = b.Negate(p);
    auto* twice = b.Add(a, a);
    auto* y = b.Negate(a);
    auto* root = b.Add(twice, y);
    comp->set_root(root);
    auto* late = b.Copy(p);
    comp->ReplaceAllUsesWith(a, late);  // twice = late + late, y = -late
    EXPECT_EQ(comp->RemoveDeadInstructions(), 2);
    ASSERT_EQ(comp->instructions(),
              (std::vector<HloInstruction*>{p, twice, y, root, late}));

    // late moves up; twice, which reads it twice, still precedes y.
    comp->SortTopologically();
    EXPECT_EQ(comp->instructions(),
              (std::vector<HloInstruction*>{p, late, twice, y, root}));
    EXPECT_TRUE(VerifyComputation(*comp).ok());
}

TEST(VerifierTest, CatchesBadSchedule)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* n = b.Negate(p);
    comp->set_root(n);
    comp->set_schedule({n, p});
    EXPECT_FALSE(VerifyComputation(*comp).ok());
    comp->set_schedule({p, n});
    EXPECT_TRUE(VerifyComputation(*comp).ok());
}

TEST(VerifierTest, CatchesRaggedCollectiveGroups)
{
    HloModule module("m");
    module.set_mesh(Mesh(4));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    InstrAttrs attrs;
    attrs.dim = 0;
    attrs.groups = {{0, 1, 2}, {3}};
    comp->AddInstruction(HloOpcode::kAllReduce, p->shape(), {p},
                         std::move(attrs));
    EXPECT_FALSE(VerifyModule(module).ok());
}

/** VerifyModule's message for one all-reduce over `groups` on `mesh`. */
std::string
AllReduceGroupsError(const Mesh& mesh,
                     std::vector<std::vector<int64_t>> groups)
{
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    InstrAttrs attrs;
    attrs.groups = std::move(groups);
    comp->set_root(comp->AddInstruction(HloOpcode::kAllReduce, p->shape(),
                                        {p}, std::move(attrs)));
    Status status = VerifyModule(module);
    return status.ok() ? "ok" : status.message();
}

TEST(VerifierTest, CatchesDeviceTwiceInGroups)
{
    EXPECT_NE(AllReduceGroupsError(Mesh(4), {{0, 1}, {1, 2}})
                  .find("device 1 appears twice in groups at %"),
              std::string::npos);
    // The first repeat in iteration order is the one reported.
    EXPECT_NE(AllReduceGroupsError(Mesh(4), {{3, 0}, {0, 3}})
                  .find("device 0 appears twice"),
              std::string::npos);
}

TEST(VerifierTest, CatchesGroupsNotCoveringTheMesh)
{
    EXPECT_NE(AllReduceGroupsError(Mesh(4), {{0, 1}})
                  .find("collective groups do not cover all 4 devices"),
              std::string::npos);
    // A declared mesh too large for dense device marks gets the same
    // verdict from the hash-set fallback.
    EXPECT_NE(AllReduceGroupsError(Mesh(1 << 20), {{0, 1}})
                  .find("do not cover all 1048576 devices"),
              std::string::npos);
    EXPECT_EQ(AllReduceGroupsError(Mesh(2, 2), {{0, 1}, {2, 3}}), "ok");
}

TEST(VerifierTest, CatchesGroupDeviceOutOfRange)
{
    EXPECT_NE(AllReduceGroupsError(Mesh(4), {{0, 1}, {2, 7}})
                  .find("device 7 out of range at %"),
              std::string::npos);
    EXPECT_NE(AllReduceGroupsError(Mesh(4), {{0, 1}, {-1, 3}})
                  .find("device -1 out of range"),
              std::string::npos);
    // The range check runs before the duplicate check on each device.
    EXPECT_NE(AllReduceGroupsError(Mesh(4), {{0, 1}, {4, 4}})
                  .find("device 4 out of range"),
              std::string::npos);
}

TEST(VerifierTest, NoMeshAcceptsAnyNonNegativeDeviceId)
{
    // Without a mesh the device ids are unbounded (the parser accepts any
    // int64): the verifier must still reach a verdict, without sizing
    // anything by an id.
    const int64_t huge = int64_t{1} << 40;
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    InstrAttrs attrs;
    attrs.groups = {{0, huge}, {huge + 1, 1}};
    auto* ar = comp->AddInstruction(HloOpcode::kAllReduce, p->shape(), {p},
                                    std::move(attrs));
    comp->set_root(ar);
    EXPECT_TRUE(VerifyComputation(*comp).ok());
    ar->mutable_attrs().groups = {{0, huge}, {huge, 1}};
    Status status = VerifyComputation(*comp);
    EXPECT_NE(status.message().find(
                  StrCat("device ", huge, " appears twice in groups")),
              std::string::npos)
        << status.ToString();
}

TEST(VerifierTest, CatchesDuplicatePermuteSource)
{
    HloModule module("m");
    module.set_mesh(Mesh(4));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    InstrAttrs attrs;
    attrs.source_target_pairs = {{0, 1}, {0, 2}};
    comp->AddInstruction(HloOpcode::kCollectivePermute, p->shape(), {p},
                         std::move(attrs));
    EXPECT_FALSE(VerifyModule(module).ok());
}

/**
 * A pair list shared by several permutes is checked once, and a bad one
 * is reported with the usual message at the first permute carrying it.
 */
TEST(VerifierTest, SharedPairListIsCheckedAtItsFirstPermute)
{
    struct Case {
        SourceTargetPairs::List pairs;
        const char* message;
    };
    const Case cases[] = {
        {{{0, 1}, {1, 4}}, "permute pair out of range at %"},
        {{{0, 1}, {0, 2}}, "duplicate permute source at %"},
        {{{0, 1}, {2, 1}}, "duplicate permute target at %"},
    };
    for (const Case& c : cases) {
        HloModule module("m");
        module.set_mesh(Mesh(4));
        HloComputation* comp = module.AddEntryComputation("main");
        HloBuilder b(comp);
        const SourceTargetPairs good = {{0, 1}, {1, 2}, {2, 3}, {3, 0}};
        const SourceTargetPairs bad = c.pairs;
        auto* p = b.Parameter(0, Shape({2}));
        auto* first_good = b.CollectivePermute(p, good);
        auto* second_good = b.CollectivePermute(first_good, good);
        auto* first_bad = b.CollectivePermute(second_good, bad);
        comp->set_root(b.CollectivePermute(first_bad, bad));
        EXPECT_EQ(first_good->attrs().source_target_pairs.get(),
                  second_good->attrs().source_target_pairs.get());
        Status status = VerifyModule(module);
        EXPECT_EQ(status.message(),
                  StrCat(c.message, first_bad->name()))
            << status.ToString();
    }
}

TEST(VerifierTest, StartNeedsExactlyOneDone)
{
    HloModule module("m");
    module.set_mesh(Mesh(2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* start = b.CollectivePermuteStart(p, {{0, 1}, {1, 0}});
    comp->set_root(start);
    EXPECT_FALSE(VerifyModule(module).ok());
    auto* done = b.CollectivePermuteDone(start);
    comp->set_root(done);
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(VerifierTest, ShapeMismatchDetected)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2, 3}));
    // Deliberately wrong declared shape.
    comp->AddInstruction(HloOpcode::kNegate, Shape({3, 2}), {p}, {});
    EXPECT_FALSE(VerifyComputation(*comp).ok());
}

TEST(PrinterTest, DumpsReadableText)
{
    HloModule module("m");
    HloBuilder b(module.AddEntryComputation("main"));
    auto* lhs = b.Parameter(0, Shape({4, 8}), "activations");
    auto* rhs = b.Parameter(1, Shape({8, 16}));
    auto* out = b.Einsum(lhs, rhs, "mk,kn->mn");
    module.entry()->set_root(out);
    std::string text = module.ToString();
    EXPECT_NE(text.find("activations"), std::string::npos);
    EXPECT_NE(text.find("spec=mk,kn->mn"), std::string::npos);
    EXPECT_NE(text.find("ROOT"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Clone: the guarded pipeline restores its input from a clone and replays
// the passes on it, so a clone must be indistinguishable from the
// original to every pass -- ids, names, groups, user order, schedule,
// root and counters.
// ---------------------------------------------------------------------------

std::unique_ptr<HloModule>
Gpt32bLayer()
{
    return std::move(BuildLayerStepModule(*FindModel("GPT_32B"))).value();
}

std::unique_ptr<HloModule>
CompiledGpt32bLayer()
{
    auto module = Gpt32bLayer();
    auto report = OverlapCompiler(CompilerOptions()).Compile(module.get());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return module;
}

std::vector<int64_t>
Ids(const std::vector<HloInstruction*>& instrs)
{
    std::vector<int64_t> ids;
    ids.reserve(instrs.size());
    for (const HloInstruction* instr : instrs) ids.push_back(instr->id());
    return ids;
}

TEST(CloneTest, CompiledLayerClonesExactly)
{
    auto module = CompiledGpt32bLayer();
    const HloComputation& original = *module->entry();
    ASSERT_TRUE(original.has_schedule());
    std::unique_ptr<HloComputation> clone = original.Clone();

    EXPECT_EQ(clone->ToString(), original.ToString());
    const std::vector<HloInstruction*> before = original.instructions();
    const std::vector<HloInstruction*> after = clone->instructions();
    ASSERT_EQ(after.size(), before.size());
    for (size_t i = 0; i < before.size(); ++i) {
        ASSERT_NE(after[i], before[i]);
        EXPECT_EQ(after[i]->id(), before[i]->id());
        EXPECT_EQ(Ids(after[i]->operands()), Ids(before[i]->operands()))
            << before[i]->name();
        // User lists keep the original's order, not just its contents.
        EXPECT_EQ(Ids(after[i]->users()), Ids(before[i]->users()))
            << before[i]->name();
    }
    EXPECT_EQ(Ids(clone->schedule()), Ids(original.schedule()));
    EXPECT_EQ(clone->root()->id(), original.root()->id());
    EXPECT_TRUE(VerifyComputation(*clone).ok());
}

TEST(CloneTest, CloneContinuesTheOriginalsCounters)
{
    auto module = CompiledGpt32bLayer();
    HloComputation* original = module->entry();
    std::unique_ptr<HloComputation> clone = original->Clone();
    EXPECT_EQ(clone->NextLoopGroupId(), original->NextLoopGroupId());
    EXPECT_EQ(clone->NextFusionGroupId(), original->NextFusionGroupId());
    EXPECT_EQ(clone->NextChannelId(), original->NextChannelId());
    // Fresh instructions get the same id on both sides.
    HloInstruction* root = original->root();
    HloInstruction* clone_root = clone->root();
    EXPECT_EQ(HloBuilder(clone.get()).Negate(clone_root)->id(),
              HloBuilder(original).Negate(root)->id());
}

TEST(CloneTest, PassesOnACloneMatchTheOriginal)
{
    // The full pipeline on a clone of the input (what a guarded rollback
    // replays) gives the module a compile of the input itself gives.
    auto input = Gpt32bLayer();
    auto replica = input->Clone();
    ASSERT_TRUE(OverlapCompiler(CompilerOptions()).Compile(input.get()).ok());
    ASSERT_TRUE(
        OverlapCompiler(CompilerOptions()).Compile(replica.get()).ok());
    EXPECT_EQ(replica->ToString(), input->ToString());

    // And a user-walking pass on a clone of the compiled layer, whose
    // user lists were reordered by the rewrites, matches it too.
    std::unique_ptr<HloComputation> clone = input->entry()->Clone();
    CostModel cost{HardwareSpec()};
    ASSERT_TRUE(ScheduleComputation(input->entry(), cost,
                                    SchedulerKind::kTopDown)
                    .ok());
    ASSERT_TRUE(
        ScheduleComputation(clone.get(), cost, SchedulerKind::kTopDown)
            .ok());
    EXPECT_EQ(Ids(clone->schedule()), Ids(input->entry()->schedule()));
    EXPECT_EQ(clone->ToString(), input->entry()->ToString());
}

}  // namespace
}  // namespace overlap
