#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <set>
#include <vector>

#include "core/overlap_compiler.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "hlo/verifier.h"
#include "models/model_config.h"
#include "models/step_builder.h"
#include "passes/async.h"
#include "passes/decompose.h"
#include "passes/schedule.h"
#include "support/strings.h"
#include "test_util.h"

namespace overlap {
namespace {

using testing_util::DimsOf;
using testing_util::ArmCompile;
using testing_util::MoeSweepArms;
using testing_util::PaperModels;

TEST(BuilderTest, EinsumShapeInference)
{
    HloModule module("m");
    HloBuilder b(module.AddEntryComputation("main"));
    auto* lhs = b.Parameter(0, Shape({4, 8}));
    auto* rhs = b.Parameter(1, Shape({8, 16}));
    auto* out = b.Einsum(lhs, rhs, "mk,kn->mn");
    EXPECT_EQ(DimsOf(out->shape()), (std::vector<int64_t>{4, 16}));
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
    EXPECT_EQ(DimsOf(ag->shape()), (std::vector<int64_t>{8, 8}));
    auto* rs = b.ReduceScatter(ag, 1, mesh.Groups(0));
    EXPECT_EQ(DimsOf(rs->shape()), (std::vector<int64_t>{8, 2}));
    auto* ar = b.AllReduce(rs, mesh.Groups(0));
    EXPECT_EQ(DimsOf(ar->shape()), DimsOf(rs->shape()));
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
    EXPECT_EQ(DimsOf(slice->shape()), (std::vector<int64_t>{4, 4}));
    auto* updated = b.DynamicUpdateSliceOnDim(p, slice, 1, idx);
    EXPECT_EQ(DimsOf(updated->shape()), DimsOf(p->shape()));
    module.entry()->set_root(updated);
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(OpcodeTest, ExchangeOpsAreTheDataMovingCollectives)
{
    const std::set<HloOpcode> exchanges = {
        HloOpcode::kAllGather,         HloOpcode::kReduceScatter,
        HloOpcode::kAllReduce,         HloOpcode::kAllToAll,
        HloOpcode::kCollectivePermute, HloOpcode::kAsyncStart,
    };
    for (int op = 0; op <= static_cast<int>(HloOpcode::kTuple); ++op) {
        HloOpcode opcode = static_cast<HloOpcode>(op);
        EXPECT_EQ(IsExchangeOp(opcode), exchanges.count(opcode) == 1)
            << HloOpcodeName(opcode);
    }
}

/**
 * An instruction built without a name is named "<opcode>.<id>", byte for
 * byte what StrCat formats, for ids of every width.
 */
TEST(InstructionTest, DefaultNameIsOpcodeDotId)
{
    const int64_t ids[] = {0, 9, 10, 12345, int64_t{1} << 40};
    for (int op = 0; op <= static_cast<int>(HloOpcode::kTuple); ++op) {
        HloOpcode opcode = static_cast<HloOpcode>(op);
        for (int64_t id : ids) {
            HloInstruction instr(id, opcode, Shape(), {}, {});
            EXPECT_EQ(instr.name(), StrCat(HloOpcodeName(opcode), ".", id));
        }
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

/**
 * The reference the sort must match: Kahn's algorithm with a binary
 * min-heap on list position, over pointer-keyed maps, counting each
 * distinct operand once; instructions a dependence cycle leaves behind
 * follow in their old order.
 */
std::vector<HloInstruction*>
HeapKahn(const std::vector<HloInstruction*>& list)
{
    std::map<const HloInstruction*, size_t> position;
    std::map<const HloInstruction*, size_t> missing;
    std::priority_queue<size_t, std::vector<size_t>, std::greater<>> ready;
    for (size_t i = 0; i < list.size(); ++i) {
        position[list[i]] = i;
        const std::set<const HloInstruction*> distinct(
            list[i]->operands().begin(), list[i]->operands().end());
        missing[list[i]] = distinct.size();
        if (distinct.empty()) ready.push(i);
    }
    std::vector<HloInstruction*> sorted;
    std::vector<bool> placed(list.size(), false);
    while (!ready.empty()) {
        const size_t i = ready.top();
        ready.pop();
        sorted.push_back(list[i]);
        placed[i] = true;
        for (const HloInstruction* user : list[i]->users()) {
            if (--missing[user] == 0) ready.push(position[user]);
        }
    }
    for (size_t i = 0; i < list.size(); ++i) {
        if (!placed[i]) sorted.push_back(list[i]);
    }
    return sorted;
}

/**
 * Breaks `comp`'s order the way the rewriting passes do: every
 * `stride`-th non-parameter instruction is re-emitted at the end of the
 * list and its uses redirected there, so its users now precede what
 * they read. With `dce`, the originals are then swept, leaving id gaps.
 */
void
Disorder(HloComputation* comp, size_t stride, bool dce)
{
    const std::vector<HloInstruction*> instrs = comp->instructions();
    for (size_t i = 0; i < instrs.size(); i += stride) {
        HloInstruction* old = instrs[i];
        if (old->opcode() == HloOpcode::kParameter) continue;
        HloInstruction* late = comp->AddInstruction(
            old->opcode(), old->shape(), old->operands(), old->attrs());
        comp->ReplaceAllUsesWith(old, late);
    }
    if (dce) comp->RemoveDeadInstructions();
}

/** SortTopologically(comp) == HeapKahn(comp's list), on a clone. */
void
ExpectSortMatchesHeapKahn(const HloComputation& original,
                          const std::string& where)
{
    for (size_t stride : {size_t{0}, size_t{3}, size_t{11}}) {
        // Without the sweep, a re-emitted async start leaves its
        // original without a done, which the verifier rejects.
        const bool dce = stride != 11;
        std::unique_ptr<HloComputation> comp = original.Clone();
        if (stride > 0) Disorder(comp.get(), stride, dce);
        const std::vector<HloInstruction*> expected =
            HeapKahn(comp->instructions());
        comp->SortTopologically();
        ASSERT_EQ(comp->instructions(), expected)
            << where << ", disorder stride " << stride;
        if (dce) {
            Status status = VerifyComputation(*comp);
            EXPECT_TRUE(status.ok()) << where << ": " << status.ToString();
        }
    }
}

/**
 * Checks the sort on `config`'s layer step as built (the baseline
 * arm's input) and, with `overlap`, after decompose and after each
 * async pass `options` runs.
 */
void
ExpectSortMatchesOnLayer(const ModelConfig& config,
                         const CompilerOptions& options, bool overlap,
                         const std::string& label)
{
    auto built = BuildLayerStepModule(config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    HloModule* module = built->get();
    const std::string where = config.name + "/" + label;
    ExpectSortMatchesHeapKahn(*module->entry(), where + " input");
    if (!overlap) return;
    CostModel cost(options.hardware);
    CollectiveEinsumDecomposer decomposer(*module->mesh(), &cost,
                                          options.decompose);
    ASSERT_TRUE(decomposer.Run(module->entry()).ok());
    ExpectSortMatchesHeapKahn(*module->entry(), where + " decompose");
    ASSERT_TRUE(CreateAsyncPairs(module->entry(),
                                 HloOpcode::kCollectivePermute)
                    .ok());
    ExpectSortMatchesHeapKahn(*module->entry(), where + " async");
    if (options.async_all_to_all) {
        ASSERT_TRUE(
            CreateAsyncPairs(module->entry(), HloOpcode::kAllToAll).ok());
        ExpectSortMatchesHeapKahn(*module->entry(), where + " async-a2a");
    }
}

/**
 * A seeded random DAG of `count` elementwise instructions over two
 * parameters: binary ops on random earlier values (an operand may be
 * read twice) and concatenates of up to five, some repeated.
 */
std::unique_ptr<HloModule>
RandomDag(uint32_t seed, int64_t count)
{
    auto module = std::make_unique<HloModule>(StrCat("dag", seed));
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    std::mt19937 rng(seed);
    std::vector<HloInstruction*> values = {b.Parameter(0, Shape({2})),
                                           b.Parameter(1, Shape({2}))};
    auto pick = [&]() {
        return values[std::uniform_int_distribution<size_t>(
            0, values.size() - 1)(rng)];
    };
    for (int64_t i = 0; i < count; ++i) {
        const int kind = std::uniform_int_distribution<int>(0, 9)(rng);
        HloInstruction* value;
        if (kind == 0) {
            std::vector<HloInstruction*> parts;
            const int n = std::uniform_int_distribution<int>(2, 5)(rng);
            for (int k = 0; k < n; ++k) parts.push_back(pick());
            // Back to f32[2], so every value can feed every op.
            value = b.Slice(b.Concatenate(parts, 0), {0}, {2});
        } else if (kind == 1) {
            HloInstruction* x = pick();
            value = b.Add(x, x);
        } else {
            value = b.Multiply(pick(), pick());
        }
        values.push_back(value);
    }
    comp->set_root(values.back());
    return module;
}

/**
 * The bitset sort pops what the heap Kahn pops: on every Table 1/2
 * layer x {baseline, overlap} after decompose and after async, on the
 * moe_sweep grid under its three AllToAll arms, and on seeded random
 * DAGs, each as built and with its order broken by re-emission (with
 * and without dead-code gaps).
 */
TEST(ComputationTest, SortMatchesHeapKahn)
{
    for (const ModelConfig& m : PaperModels()) {
        ExpectSortMatchesOnLayer(m, CompilerOptions::Baseline(), false,
                                 "baseline");
        ExpectSortMatchesOnLayer(m, CompilerOptions(), true, "overlap");
    }
    for (const ArmCompile& c : MoeSweepArms()) {
        ExpectSortMatchesOnLayer(c.config, c.options, true, c.arm);
    }
    for (uint32_t seed = 1; seed <= 20; ++seed) {
        auto module = RandomDag(seed, 40 + 37 * seed);
        ExpectSortMatchesHeapKahn(*module->entry(), StrCat("dag ", seed));
    }
}

/**
 * A dependence cycle (a caller's bug) leaves its members, and all that
 * depends on them, after the sorted part in their old relative order,
 * as the heap Kahn does.
 */
TEST(ComputationTest, SortKeepsACycleInItsOldOrder)
{
    auto module = RandomDag(7, 300);
    HloComputation* comp = module->entry();
    Disorder(comp, 5, false);
    const std::vector<HloInstruction*> before = comp->instructions();
    // Close a cycle: the root's first operand now reads the root.
    HloInstruction* root = comp->root();
    HloInstruction* feeder = root->operand(0);
    ASSERT_NE(feeder->opcode(), HloOpcode::kParameter);
    feeder->ReplaceOperand(0, root);
    const std::vector<HloInstruction*> expected = HeapKahn(before);
    comp->SortTopologically();
    const std::vector<HloInstruction*> sorted = comp->instructions();
    EXPECT_EQ(sorted, expected);
    // The tail the sort could not place is in its old list order.
    std::map<const HloInstruction*, size_t> old_position;
    for (size_t i = 0; i < before.size(); ++i) old_position[before[i]] = i;
    auto root_at = std::find(sorted.begin(), sorted.end(), root);
    auto feeder_at = std::find(sorted.begin(), sorted.end(), feeder);
    auto tail = std::min(root_at, feeder_at);
    ASSERT_NE(tail, sorted.end());
    for (auto it = tail; it + 1 != sorted.end(); ++it) {
        EXPECT_LT(old_position[*it], old_position[*(it + 1)]);
    }
    EXPECT_FALSE(VerifyComputation(*comp).ok());
}

/**
 * Instructions keep their addresses while the computation lives: across
 * 10k more AddInstructions (many storage blocks), after dead-code
 * elimination unlinks them, and while a clone is made and destroyed.
 */
TEST(ComputationTest, InstructionAddressesAreStable)
{
    HloComputation comp("main");
    HloBuilder b(&comp);
    HloInstruction* p = b.Parameter(0, Shape({2}));
    HloInstruction* first = b.Negate(p);
    HloInstruction* dead = b.Add(first, first);
    comp.set_root(first);
    const std::string dead_name = dead->name();
    HloInstruction* value = first;
    std::vector<HloInstruction*> added;
    for (int i = 0; i < 10000; ++i) {
        value = b.Negate(value);
        added.push_back(value);
    }
    comp.set_root(value);
    EXPECT_EQ(first->operand(0), p);
    EXPECT_EQ(p->users().front(), first);
    for (size_t i = 0; i < added.size(); ++i) {
        ASSERT_EQ(added[i]->id(), static_cast<int64_t>(i) + 3);
        ASSERT_EQ(added[i]->operand(0), i == 0 ? first : added[i - 1]);
    }

    EXPECT_EQ(comp.RemoveDeadInstructions(), 1);
    EXPECT_EQ(comp.instruction_count(), 10002);
    // Unlinked, not destroyed: the dead instruction is still readable.
    EXPECT_EQ(dead->name(), dead_name);
    EXPECT_EQ(dead->operand(0), first);
    EXPECT_EQ(first->users().size(), 1u);

    {
        std::unique_ptr<HloComputation> clone = comp.Clone();
        EXPECT_EQ(clone->ToString(), comp.ToString());
        EXPECT_TRUE(VerifyComputation(*clone).ok());
        HloBuilder(clone.get()).Negate(clone->root());
    }
    EXPECT_EQ(comp.root(), value);
    EXPECT_EQ(added.back()->operand(0), added[added.size() - 2]);
    EXPECT_TRUE(VerifyComputation(comp).ok());
}

/**
 * The user-edge check looks at the user after the last one it found
 * first; a user list out of instruction order, and an operand read
 * twice, still verify.
 */
TEST(VerifierTest, UserListOutOfInstructionOrderVerifies)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* shared = b.Parameter(0, Shape({2}));
    auto* old = b.Parameter(1, Shape({2}));
    auto* first = b.Add(old, old);
    auto* second = b.Negate(shared);
    comp->set_root(b.Add(first, second));
    // shared's users become {second, first}: the reverse of the list.
    comp->ReplaceAllUsesWith(old, shared);
    ASSERT_EQ(shared->users().size(), 2u);
    EXPECT_EQ(shared->users()[0], second);
    EXPECT_EQ(first->operand(0), shared);
    EXPECT_EQ(first->operand(1), shared);
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

/**
 * A group list shared by several collectives is checked once, at the
 * first collective carrying it, with the usual message; a bad list that
 * no other collective shares is still rejected after a good shared one.
 */
TEST(VerifierTest, SharedGroupListIsCheckedAtItsFirstCollective)
{
    struct Case {
        ReplicaGroups::List groups;
        const char* message;
    };
    const Case cases[] = {
        {{{0, 1}, {2}}, "ragged collective groups at %"},
        {{{0, 1}, {2, 7}}, "device 7 out of range at %"},
        {{{0, 1}, {1, 2}}, "device 1 appears twice in groups at %"},
        {{{0, 1}}, "collective groups do not cover all 4 devices at %"},
    };
    for (const Case& c : cases) {
        for (int bad_count : {2, 1}) {
            HloModule module("m");
            module.set_mesh(Mesh(4));
            HloComputation* comp = module.AddEntryComputation("main");
            HloBuilder b(comp);
            const ReplicaGroups good = {{0, 1}, {2, 3}};
            const ReplicaGroups bad = c.groups;
            auto* p = b.Parameter(0, Shape({2}));
            auto* first_good = b.AllReduce(p, good);
            auto* second_good = b.AllReduce(first_good, good);
            auto* first_bad = b.AllReduce(second_good, bad);
            comp->set_root(bad_count == 2 ? b.AllReduce(first_bad, bad)
                                          : first_bad);
            EXPECT_EQ(first_good->attrs().groups.get(),
                      second_good->attrs().groups.get());
            Status status = VerifyModule(module);
            EXPECT_EQ(status.message(), StrCat(c.message, first_bad->name()))
                << status.ToString();
        }
    }
}

/**
 * Reassigning an einsum's spec through mutable_attrs() drops the cached
 * parse: einsum() and the verifier see the new spec, and one that does
 * not parse is reported as before.
 */
TEST(VerifierTest, ReassignedEinsumSpecIsVerified)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* lhs = b.Parameter(0, Shape({2, 3}));
    auto* rhs = b.Parameter(1, Shape({3, 4}));
    auto* e = b.Einsum(lhs, rhs, "bf,fh->bh");
    comp->set_root(e);
    ASSERT_TRUE(VerifyModule(module).ok());
    EXPECT_EQ(e->einsum().ToString(), "bf,fh->bh");

    e->mutable_attrs().einsum_spec = "bf,fh->hb";
    EXPECT_EQ(e->einsum().ToString(), "bf,fh->hb");
    EXPECT_EQ(VerifyModule(module).message(),
              StrCat("shape mismatch at %", e->name(),
                     ": declared f32[2,4] inferred f32[4,2]"));

    e->mutable_attrs().einsum_spec = "bf,fh";
    EXPECT_EQ(VerifyModule(module).message(),
              StrCat("shape inference failed at %", e->name(),
                     ": einsum spec missing '->': bf,fh"));

    e->mutable_attrs().einsum_spec = "bf,fh->bh";
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(VerifierTest, StartNeedsExactlyOneDone)
{
    HloModule module("m");
    module.set_mesh(Mesh(2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    auto* start = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                               PermuteAttrs({{0, 1}, {1, 0}}));
    comp->set_root(start);
    EXPECT_FALSE(VerifyModule(module).ok());
    auto* done = b.AsyncDone(start);
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
