#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <tuple>

#include "hlo/builder.h"
#include "hlo/module.h"
#include "hlo/verifier.h"
#include "interp/evaluator.h"
#include "passes/async.h"
#include "passes/decompose.h"
#include "passes/schedule.h"
#include "test_util.h"

namespace overlap {
namespace {

using testing_util::ShardTensor;

/** A ready-to-evaluate SPMD scenario with its expected per-device output. */
struct Scenario {
    std::unique_ptr<HloModule> module;
    std::vector<std::vector<Tensor>> params;
    std::vector<Tensor> expected;
};

/** Counts instructions with the given opcode. */
int64_t
CountOps(const HloComputation& comp, HloOpcode opcode)
{
    int64_t count = 0;
    for (const HloInstruction* instr : comp.instructions()) {
        if (instr->opcode() == opcode) ++count;
    }
    return count;
}

/**
 * AllGather-Einsum on `axis` of `mesh`. The gathered operand sits on
 * `gathered_side` and is partitioned along a dimension of the given
 * `kind` (non-contracting / contracting / batch — the paper's three
 * cases).
 */
Scenario
BuildAllGatherScenario(const Mesh& mesh, int64_t axis, EinsumDimKind kind,
                       int64_t gathered_side, int64_t shard = 2)
{
    const int64_t n = mesh.axis_size(axis);
    Scenario s;
    s.module = std::make_unique<HloModule>("ag_scenario");
    s.module->set_mesh(mesh);
    HloComputation* comp = s.module->AddEntryComputation("main");
    HloBuilder b(comp);

    std::string spec;
    Shape lhs_global, rhs_global;
    int64_t gathered_dim = 0;
    if (kind == EinsumDimKind::kBatch) {
        spec = "bmf,bfh->bmh";
        lhs_global = Shape({n * shard, 3, 4});
        rhs_global = Shape({n * shard, 4, 5});
        gathered_dim = 0;  // 'b' in both operands
    } else if (kind == EinsumDimKind::kContracting) {
        spec = "bf,fh->bh";
        lhs_global = Shape({3, n * shard});
        rhs_global = Shape({n * shard, 5});
        gathered_dim = gathered_side == 0 ? 1 : 0;  // 'f'
    } else {
        spec = "bf,fh->bh";
        if (gathered_side == 0) {
            lhs_global = Shape({n * shard, 4});  // 'b' partitioned
            rhs_global = Shape({4, 5});
            gathered_dim = 0;
        } else {
            lhs_global = Shape({3, 4});
            rhs_global = Shape({4, n * shard});  // 'h' partitioned
            gathered_dim = 1;
        }
    }
    const Shape& gathered_global =
        gathered_side == 0 ? lhs_global : rhs_global;
    const Shape& other_global = gathered_side == 0 ? rhs_global : lhs_global;

    TensorSharding sharding = TensorSharding::OnDim(
        gathered_global.rank(), gathered_dim, axis);
    Shape shard_shape = sharding.ShardShape(gathered_global, mesh);

    auto* shard_param = b.Parameter(0, shard_shape, "gathered_shard");
    auto* other_param = b.Parameter(1, other_global, "other");
    auto* ag = b.AllGather(shard_param, gathered_dim, mesh.Groups(axis));
    auto* einsum = gathered_side == 0 ? b.Einsum(ag, other_param, spec)
                                      : b.Einsum(other_param, ag, spec);
    comp->set_root(einsum);

    Tensor gathered_data = Tensor::Random(gathered_global, 11);
    Tensor other_data = Tensor::Random(other_global, 22);
    s.params.push_back(ShardTensor(gathered_data, sharding, mesh));
    s.params.push_back({other_data});

    // Ground truth: the unpartitioned einsum, replicated on every device.
    auto parsed = EinsumSpec::Parse(spec);
    auto global = gathered_side == 0
                      ? parsed->Evaluate(gathered_data, other_data)
                      : parsed->Evaluate(other_data, gathered_data);
    s.expected.assign(static_cast<size_t>(mesh.num_devices()),
                      global.value());
    return s;
}

/**
 * Einsum-ReduceScatter on `axis`: the operands are contracted along a
 * dimension that was sharded, so each device produces a partial result
 * that the ReduceScatter sums and scatters along the output label owned
 * by `sliced_side`.
 */
Scenario
BuildReduceScatterScenario(const Mesh& mesh, int64_t axis,
                           int64_t sliced_side, int64_t out_shard = 2)
{
    const int64_t n = mesh.axis_size(axis);
    const int64_t f_shard = 3;
    Scenario s;
    s.module = std::make_unique<HloModule>("rs_scenario");
    s.module->set_mesh(mesh);
    HloComputation* comp = s.module->AddEntryComputation("main");
    HloBuilder b(comp);

    // "bf,fh->bh"; scatter along 'b' (lhs-free) or 'h' (rhs-free).
    int64_t b_size = sliced_side == 0 ? out_shard * n : 3;
    int64_t h_size = sliced_side == 1 ? out_shard * n : 5;
    Shape lhs_global({b_size, n * f_shard});
    Shape rhs_global({n * f_shard, h_size});
    TensorSharding lhs_sharding = TensorSharding::OnDim(2, 1, axis);
    TensorSharding rhs_sharding = TensorSharding::OnDim(2, 0, axis);

    auto* lhs = b.Parameter(0, lhs_sharding.ShardShape(lhs_global, mesh));
    auto* rhs = b.Parameter(1, rhs_sharding.ShardShape(rhs_global, mesh));
    auto* einsum = b.Einsum(lhs, rhs, "bf,fh->bh");
    int64_t rs_dim = sliced_side == 0 ? 0 : 1;
    auto* rs = b.ReduceScatter(einsum, rs_dim, mesh.Groups(axis));
    comp->set_root(rs);

    Tensor lhs_data = Tensor::Random(lhs_global, 33);
    Tensor rhs_data = Tensor::Random(rhs_global, 44);
    s.params.push_back(ShardTensor(lhs_data, lhs_sharding, mesh));
    s.params.push_back(ShardTensor(rhs_data, rhs_sharding, mesh));

    auto parsed = EinsumSpec::Parse("bf,fh->bh");
    Tensor global = parsed->Evaluate(lhs_data, rhs_data).value();
    TensorSharding out_sharding = TensorSharding::OnDim(2, rs_dim, axis);
    s.expected = ShardTensor(global, out_sharding, mesh);
    return s;
}

/**
 * AllToAll-Einsum (MoE dispatch) or Einsum-AllToAll (MoE combine) on
 * `axis` — the §18 sites. Each device holds its own token block; the
 * exchange routes chunk j to ring peer j. Ground truth is the blocking
 * program's own evaluation (the §10 oracle property: every lowering of
 * the exchange must agree with the blocking reference).
 */
Scenario
BuildAllToAllScenario(const Mesh& mesh, int64_t axis, bool dispatch,
                      int64_t shard = 2)
{
    const int64_t n = mesh.axis_size(axis);
    const int64_t t = n * shard;  // exchanged rows: one chunk per peer
    Scenario s;
    s.module = std::make_unique<HloModule>("a2a_scenario");
    s.module->set_mesh(mesh);
    HloComputation* comp = s.module->AddEntryComputation("main");
    HloBuilder b(comp);

    Shape tokens_shape({t, 4});
    Shape w_shape({4, 5});
    auto* tokens = b.Parameter(0, tokens_shape, "tokens");
    auto* w = b.Parameter(1, w_shape, "w_expert");
    if (dispatch) {
        auto* a2a = b.AllToAll(tokens, 0, mesh.Groups(axis));
        comp->set_root(b.Einsum(a2a, w, "td,dh->th"));
    } else {
        auto* einsum = b.Einsum(tokens, w, "td,dh->th");
        comp->set_root(b.AllToAll(einsum, 0, mesh.Groups(axis)));
    }

    std::vector<Tensor> token_blocks;
    for (int64_t d = 0; d < mesh.num_devices(); ++d) {
        token_blocks.push_back(Tensor::Random(tokens_shape, 55 + d));
    }
    s.params.push_back(std::move(token_blocks));
    s.params.push_back({Tensor::Random(w_shape, 66)});

    SpmdEvaluator eval(mesh);
    auto blocking = eval.Evaluate(*comp, s.params);
    s.expected = blocking.value();
    return s;
}

void
CheckEquivalence(Scenario& s, const DecomposeOptions& options)
{
    HloComputation* comp = s.module->entry();
    const Mesh& mesh = *s.module->mesh();
    SpmdEvaluator eval(mesh);

    ASSERT_TRUE(VerifyModule(*s.module).ok());
    auto before = eval.Evaluate(*comp, s.params);
    ASSERT_TRUE(before.ok());
    for (int64_t d = 0; d < mesh.num_devices(); ++d) {
        ASSERT_TRUE((*before)[static_cast<size_t>(d)].AllClose(
            s.expected[static_cast<size_t>(d)], 1e-3f))
            << "pre-pass program disagrees with ground truth on device "
            << d;
    }

    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->total_decomposed(), 1);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllGather), 0);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kReduceScatter), 0);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllToAll), 0);
    ASSERT_TRUE(VerifyModule(*s.module).ok());

    auto after = eval.Evaluate(*comp, s.params);
    ASSERT_TRUE(after.ok());
    for (int64_t d = 0; d < mesh.num_devices(); ++d) {
        EXPECT_TRUE((*after)[static_cast<size_t>(d)].AllClose(
            s.expected[static_cast<size_t>(d)], 1e-3f))
            << "decomposed program wrong on device " << d;
    }

    // Async split + scheduling must also preserve semantics.
    auto converted = CreateAsyncCollectivePermutes(comp);
    ASSERT_TRUE(converted.ok());
    ASSERT_TRUE(VerifyModule(*s.module).ok());
    ASSERT_TRUE(
        ScheduleComputation(comp, cost, SchedulerKind::kBottomUp).ok());
    auto final_result = eval.Evaluate(*comp, s.params);
    ASSERT_TRUE(final_result.ok());
    for (int64_t d = 0; d < mesh.num_devices(); ++d) {
        EXPECT_TRUE((*final_result)[static_cast<size_t>(d)].AllClose(
            s.expected[static_cast<size_t>(d)], 1e-3f))
            << "scheduled program wrong on device " << d;
    }
}

// ---------------------------------------------------------------------------
// Property sweep: every case x partition count x optimization combination.
// ---------------------------------------------------------------------------

class DecomposeEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {
  protected:
    DecomposeOptions Options() const
    {
        DecomposeOptions options;
        options.unroll = std::get<1>(GetParam());
        options.bidirectional = std::get<2>(GetParam());
        options.use_cost_model = false;  // always rewrite for the sweep
        return options;
    }
    int64_t N() const { return std::get<0>(GetParam()); }
};

TEST_P(DecomposeEquivalence, AllGatherNonContractingLhs)
{
    Mesh mesh(N());
    auto s = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kLhsFree, 0);
    CheckEquivalence(s, Options());
}

TEST_P(DecomposeEquivalence, AllGatherNonContractingRhs)
{
    Mesh mesh(N());
    auto s = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kRhsFree, 1);
    CheckEquivalence(s, Options());
}

TEST_P(DecomposeEquivalence, AllGatherContracting)
{
    Mesh mesh(N());
    auto s =
        BuildAllGatherScenario(mesh, 0, EinsumDimKind::kContracting, 0);
    CheckEquivalence(s, Options());
}

TEST_P(DecomposeEquivalence, AllGatherContractingRhs)
{
    Mesh mesh(N());
    auto s =
        BuildAllGatherScenario(mesh, 0, EinsumDimKind::kContracting, 1);
    CheckEquivalence(s, Options());
}

TEST_P(DecomposeEquivalence, AllGatherBatch)
{
    Mesh mesh(N());
    auto s = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kBatch, 0);
    CheckEquivalence(s, Options());
}

TEST_P(DecomposeEquivalence, ReduceScatterLhsFree)
{
    Mesh mesh(N());
    auto s = BuildReduceScatterScenario(mesh, 0, 0);
    CheckEquivalence(s, Options());
}

TEST_P(DecomposeEquivalence, ReduceScatterRhsFree)
{
    Mesh mesh(N());
    auto s = BuildReduceScatterScenario(mesh, 0, 1);
    CheckEquivalence(s, Options());
}

TEST_P(DecomposeEquivalence, AllGatherOnTorusSubgroups)
{
    Mesh mesh(2, N());
    auto s = BuildAllGatherScenario(mesh, 1, EinsumDimKind::kLhsFree, 0);
    CheckEquivalence(s, Options());
}

TEST_P(DecomposeEquivalence, ReduceScatterOnTorusSubgroups)
{
    Mesh mesh(2, N());
    auto s = BuildReduceScatterScenario(mesh, 1, 1);
    CheckEquivalence(s, Options());
}

TEST_P(DecomposeEquivalence, AllToAllDispatch)
{
    Mesh mesh(N());
    auto s = BuildAllToAllScenario(mesh, 0, /*dispatch=*/true);
    CheckEquivalence(s, Options());
}

TEST_P(DecomposeEquivalence, AllToAllCombine)
{
    Mesh mesh(N());
    auto s = BuildAllToAllScenario(mesh, 0, /*dispatch=*/false);
    CheckEquivalence(s, Options());
}

TEST_P(DecomposeEquivalence, AllToAllDispatchOnTorusSubgroups)
{
    Mesh mesh(2, N());
    auto s = BuildAllToAllScenario(mesh, 1, /*dispatch=*/true);
    CheckEquivalence(s, Options());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DecomposeEquivalence,
    ::testing::Combine(::testing::Values(2, 3, 4, 8),
                       ::testing::Bool(),   // unroll
                       ::testing::Bool()),  // bidirectional
    [](const ::testing::TestParamInfo<std::tuple<int, bool, bool>>& info) {
        return "N" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_unroll" : "_nounroll") +
               (std::get<2>(info.param) ? "_bidi" : "_uni");
    });

// ---------------------------------------------------------------------------
// Odd-shape oracle sweep: all four site cases with an odd shard extent,
// on both an odd ring (N=5, no §5.4.2 structure possible) and an even
// ring (N=4, where an odd extent must force the unidirectional
// fallback). Only even/even paths were exercised before.
// ---------------------------------------------------------------------------

class OddShapeEquivalence
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {
  protected:
    DecomposeOptions Options() const
    {
        DecomposeOptions options;
        options.unroll = std::get<1>(GetParam());
        options.bidirectional = std::get<2>(GetParam());
        options.use_cost_model = false;
        return options;
    }
    int64_t N() const { return std::get<0>(GetParam()); }
};

TEST_P(OddShapeEquivalence, AllGatherNonContractingOddExtent)
{
    Mesh mesh(N());
    auto s = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kLhsFree, 0,
                                    /*shard=*/3);
    CheckEquivalence(s, Options());
}

TEST_P(OddShapeEquivalence, AllGatherContractingOddExtent)
{
    Mesh mesh(N());
    auto s = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kContracting,
                                    0, /*shard=*/3);
    CheckEquivalence(s, Options());
}

TEST_P(OddShapeEquivalence, AllGatherBatchOddExtent)
{
    Mesh mesh(N());
    auto s = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kBatch, 0,
                                    /*shard=*/3);
    CheckEquivalence(s, Options());
}

TEST_P(OddShapeEquivalence, ReduceScatterOddExtent)
{
    Mesh mesh(N());
    auto s = BuildReduceScatterScenario(mesh, 0, 0, /*out_shard=*/3);
    CheckEquivalence(s, Options());
}

INSTANTIATE_TEST_SUITE_P(
    OddSweep, OddShapeEquivalence,
    ::testing::Combine(::testing::Values(2, 4, 5),
                       ::testing::Bool(),   // unroll
                       ::testing::Bool()),  // bidirectional
    [](const ::testing::TestParamInfo<std::tuple<int, bool, bool>>& info) {
        return "N" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_unroll" : "_nounroll") +
               (std::get<2>(info.param) ? "_bidi" : "_uni");
    });

// ---------------------------------------------------------------------------
// Bidirectional gating consistency (the predicate shared by estimator,
// emitter and gate).
// ---------------------------------------------------------------------------

TEST(BidirectionalEligibilityTest, PredicatesAgreeOnParity)
{
    EXPECT_TRUE(BidirectionalRingEligible(4, 2));
    EXPECT_TRUE(BidirectionalRingEligible(8, 4));
    EXPECT_FALSE(BidirectionalRingEligible(4, 3));  // odd shard extent
    EXPECT_FALSE(BidirectionalRingEligible(3, 2));  // odd ring
    EXPECT_FALSE(BidirectionalRingEligible(2, 2));  // two-way territory
    EXPECT_TRUE(TwoWayExchangeEligible(2, 2));
    EXPECT_FALSE(TwoWayExchangeEligible(2, 3));  // odd shard extent
    EXPECT_FALSE(TwoWayExchangeEligible(4, 2));
}

TEST(BidirectionalEligibilityTest, OddExtentFallsBackToUnidirectional)
{
    // N=4 with an odd shard extent: the two counter-rotating streams
    // cannot split the work evenly, so the emitter must fall back to
    // the unidirectional loop — whose partial einsums carry no fusion
    // pairing — instead of emitting a half-shard split.
    Mesh mesh(4);
    auto even = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kLhsFree,
                                       0, /*shard=*/2);
    auto odd = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kLhsFree,
                                      0, /*shard=*/3);
    DecomposeOptions options;
    options.use_cost_model = false;
    options.bidirectional = true;
    CostModel cost((HardwareSpec()));
    auto fused_einsums = [](const HloComputation& comp) {
        int64_t fused = 0;
        for (const HloInstruction* instr : comp.instructions()) {
            if (instr->opcode() == HloOpcode::kEinsum &&
                instr->fusion_group() >= 0) {
                ++fused;
            }
        }
        return fused;
    };
    CollectiveEinsumDecomposer even_decomposer(mesh, &cost, options);
    ASSERT_TRUE(even_decomposer.Run(even.module->entry()).ok());
    EXPECT_GT(fused_einsums(*even.module->entry()), 0);
    CollectiveEinsumDecomposer odd_decomposer(mesh, &cost, options);
    ASSERT_TRUE(odd_decomposer.Run(odd.module->entry()).ok());
    EXPECT_EQ(fused_einsums(*odd.module->entry()), 0);
    // Unidirectional AllGather over N=4: N-1 = 3 permutes, N einsums.
    EXPECT_EQ(CountOps(*odd.module->entry(),
                       HloOpcode::kCollectivePermute),
              3);
    EXPECT_EQ(CountOps(*odd.module->entry(), HloOpcode::kEinsum), 4);
}

TEST(BidirectionalEligibilityTest, OddExtentTwoWayFallsBack)
{
    // N=2 with an odd shard extent cannot halve the shard: no kSlice
    // half-split ops may appear; the plain unidirectional loop runs.
    Mesh mesh(2);
    auto even = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kLhsFree,
                                       0, /*shard=*/2);
    auto odd = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kLhsFree,
                                      0, /*shard=*/3);
    DecomposeOptions options;
    options.use_cost_model = false;
    options.bidirectional = true;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer even_decomposer(mesh, &cost, options);
    ASSERT_TRUE(even_decomposer.Run(even.module->entry()).ok());
    EXPECT_EQ(CountOps(*even.module->entry(), HloOpcode::kSlice), 2);
    CollectiveEinsumDecomposer odd_decomposer(mesh, &cost, options);
    ASSERT_TRUE(odd_decomposer.Run(odd.module->entry()).ok());
    EXPECT_EQ(CountOps(*odd.module->entry(), HloOpcode::kSlice), 0);
    EXPECT_EQ(CountOps(*odd.module->entry(),
                       HloOpcode::kCollectivePermute),
              1);
}

// ---------------------------------------------------------------------------
// Targeted behaviour tests.
// ---------------------------------------------------------------------------

TEST(RingShiftPairsTest, LeftShiftMovesDataDown)
{
    Mesh mesh(4);
    auto pairs = RingShiftPairs(mesh, 0, 1);
    ASSERT_EQ(pairs.size(), 4u);
    // Data at position j lands at j-1: source j targets j-1 (mod 4).
    EXPECT_EQ(pairs[0], (std::pair<int64_t, int64_t>{0, 3}));
    EXPECT_EQ(pairs[1], (std::pair<int64_t, int64_t>{1, 0}));
}

TEST(RingShiftPairsTest, TorusSubgroupPairsStayInGroup)
{
    Mesh mesh(2, 4);
    auto pairs = RingShiftPairs(mesh, 1, -1);
    ASSERT_EQ(pairs.size(), 8u);
    for (const auto& [src, dst] : pairs) {
        EXPECT_EQ(src / 4, dst / 4) << "pair crossed its ring";
    }
}

/** The distinct pair lists of `comp`'s permutes (sync or Start). */
std::set<const SourceTargetPairs::List*>
PairLists(const HloComputation& comp)
{
    std::set<const SourceTargetPairs::List*> lists;
    for (const HloInstruction* instr : comp.instructions()) {
        if (instr->opcode() == HloOpcode::kCollectivePermute ||
            instr->opcode() == HloOpcode::kCollectivePermuteStart) {
            lists.insert(instr->attrs().source_target_pairs.get());
        }
    }
    return lists;
}

/**
 * The pass builds one pair list per (axis, step mod N) and every permute
 * shifting by that step points at it; Clone and the async pass copy the
 * pointer, not the list.
 */
TEST(RingShiftPairsTest, PermutesOfOneShiftShareOneList)
{
    Scenario s = BuildAllGatherScenario(Mesh(2, 8), /*axis=*/1,
                                        EinsumDimKind::kLhsFree,
                                        /*gathered_side=*/0);
    HloComputation* comp = s.module->entry();
    CostModel cost{HardwareSpec{}};
    DecomposeOptions options;
    options.use_cost_model = false;
    CollectiveEinsumDecomposer decomposer(Mesh(2, 8), &cost, options);
    ASSERT_TRUE(decomposer.Run(comp).ok());

    // Bidirectional loop on a ring of 8: several permutes, each shifting
    // by +1 or -1 (7 mod 8), so exactly two lists.
    EXPECT_GT(CountOps(*comp, HloOpcode::kCollectivePermute), 2);
    const std::set<const SourceTargetPairs::List*> lists = PairLists(*comp);
    ASSERT_EQ(lists.size(), 2u);
    const Mesh mesh(2, 8);
    for (const HloInstruction* instr : comp->instructions()) {
        if (instr->opcode() != HloOpcode::kCollectivePermute) continue;
        const SourceTargetPairs::List& list =
            *instr->attrs().source_target_pairs.get();
        EXPECT_TRUE(list == RingShiftPairs(mesh, 1, 1) ||
                    list == RingShiftPairs(mesh, 1, -1))
            << instr->ToString();
    }

    std::unique_ptr<HloComputation> clone = comp->Clone();
    EXPECT_EQ(PairLists(*clone), lists);

    ASSERT_TRUE(CreateAsyncCollectivePermutes(comp).ok());
    EXPECT_EQ(CountOps(*comp, HloOpcode::kCollectivePermute), 0);
    EXPECT_EQ(PairLists(*comp), lists);
    EXPECT_TRUE(VerifyModule(*s.module).ok());
}

TEST(DecomposeTest, SkipsAllGatherWithMultipleUsers)
{
    Mesh mesh(4);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2, 4}));
    auto* w = b.Parameter(1, Shape({4, 5}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    auto* e = b.Einsum(ag, w, "bf,fh->bh");
    comp->set_root(b.Add(e, e));
    // Second user of the AllGather besides the einsum.
    b.Negate(ag);
    DecomposeOptions options;
    options.use_cost_model = false;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->total_decomposed(), 0);
    EXPECT_EQ(stats->skipped_unsupported, 1);
}

TEST(DecomposeTest, SkipsGroupsNotMatchingMeshAxis)
{
    Mesh mesh(2, 2);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1, 4}));
    auto* w = b.Parameter(1, Shape({4, 5}));
    // Groups spanning the whole mesh match no single axis.
    auto* ag = b.AllGather(p, 0, {{0, 1, 2, 3}});
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    DecomposeOptions options;
    options.use_cost_model = false;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->total_decomposed(), 0);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllGather), 1);
}

TEST(AllToAllEligibilityTest, RequiresChunkDivisibility)
{
    // Shared predicate with the verifier's divisibility rule: one equal
    // chunk per ring peer, at least two peers.
    EXPECT_TRUE(AllToAllRingEligible(4, 8));
    EXPECT_TRUE(AllToAllRingEligible(3, 9));   // odd rings are fine
    EXPECT_TRUE(AllToAllRingEligible(4, 4));   // single-row chunks
    EXPECT_FALSE(AllToAllRingEligible(4, 6));  // 6 % 4 != 0
    EXPECT_FALSE(AllToAllRingEligible(1, 8));  // no ring
    EXPECT_FALSE(AllToAllRingEligible(4, 0));
    EXPECT_TRUE(ChunkSplitEligible(4, 8));
    EXPECT_FALSE(ChunkSplitEligible(4, 2));
}

TEST(DecomposeTest, AllToAllKnobOffLeavesExchangeBlocking)
{
    // DecomposeOptions::all_to_all = false is the "blocking exchange"
    // arm of bench/moe_sweep: the matcher must not even judge the site.
    Mesh mesh(4);
    auto s = BuildAllToAllScenario(mesh, 0, /*dispatch=*/true);
    HloComputation* comp = s.module->entry();
    DecomposeOptions options;
    options.use_cost_model = false;
    options.all_to_all = false;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->all_to_all_sites, 0);
    EXPECT_EQ(stats->total_decomposed(), 0);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllToAll), 1);
}

TEST(DecomposeTest, SkipsAllToAllWithMultipleUsers)
{
    // The loop replaces the exchange wholesale, so a dispatch A2A with a
    // second consumer stays blocking (the step builder rematerializes
    // exchanges per consumer for exactly this reason).
    Mesh mesh(4);
    auto s = BuildAllToAllScenario(mesh, 0, /*dispatch=*/true);
    HloComputation* comp = s.module->entry();
    HloInstruction* a2a = nullptr;
    for (HloInstruction* instr : comp->instructions()) {
        if (instr->opcode() == HloOpcode::kAllToAll) a2a = instr;
    }
    ASSERT_NE(a2a, nullptr);
    HloBuilder b(comp);
    b.Negate(a2a);  // second user besides the expert einsum
    DecomposeOptions options;
    options.use_cost_model = false;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->all_to_all_sites, 0);
    EXPECT_EQ(stats->skipped_unsupported, 1);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllToAll), 1);
}

TEST(DecomposeTest, SkipsAllToAllWithIndivisibleChunks)
{
    // 6 rows across a 4-ring cannot carve equal per-peer chunks. Shape
    // inference already rejects such an exchange at build time, but the
    // matcher must not rely on the module having been verified — build
    // the malformed site directly and require the shared eligibility
    // predicate to keep it blocking.
    Mesh mesh(4);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* tokens = b.Parameter(0, Shape({6, 4}));
    auto* w = b.Parameter(1, Shape({4, 5}));
    InstrAttrs attrs;
    attrs.dim = 0;
    attrs.groups = mesh.Groups(0);
    HloInstruction* a2a = comp->AddInstruction(
        HloOpcode::kAllToAll, Shape({6, 4}), {tokens}, std::move(attrs));
    comp->set_root(b.Einsum(a2a, w, "td,dh->th"));
    DecomposeOptions options;
    options.use_cost_model = false;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->all_to_all_sites, 0);
    EXPECT_EQ(stats->skipped_unsupported, 1);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllToAll), 1);
}

TEST(DecomposeTest, CostModelRejectsTinySites)
{
    Mesh mesh(4);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2, 4}));
    auto* w = b.Parameter(1, Shape({4, 4}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    DecomposeOptions options;  // gating on
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->total_decomposed(), 0);
    EXPECT_EQ(stats->rejected_by_cost_model, 1);
}

TEST(DecomposeTest, CostModelAcceptsLargeSites)
{
    Mesh mesh(8);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    // Large enough that the saved AllGather clearly exceeds the loop's
    // fixed costs (combine traffic, prologue permute).
    auto* p = b.Parameter(0, Shape(DType::kBF16, {2048, 4096}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    DecomposeOptions options;  // gating on
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->total_decomposed(), 1);
}

TEST(DecomposeTest, PicksOneCandidatePerEinsum)
{
    // Einsum with two AllGather operands: exactly one is decomposed and
    // the other stays a blocking collective.
    Mesh mesh(4);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* act = b.Parameter(0, Shape(DType::kBF16, {512, 4096}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {1024, 8192}));
    auto* ag_act = b.AllGather(act, 0, mesh.Groups(0));
    auto* ag_w = b.AllGather(w, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(ag_act, ag_w, "bf,fh->bh"));
    DecomposeOptions options;
    options.use_cost_model = false;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(comp);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->allgather_sites, 1);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllGather), 1);
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(DecomposeTest, EmitsExpectedPermuteCounts)
{
    // Unidirectional AllGather over N=4 needs N-1 = 3 permutes.
    Mesh mesh(4);
    auto s = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kLhsFree, 0);
    DecomposeOptions options;
    options.use_cost_model = false;
    options.unroll = true;
    options.bidirectional = false;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    ASSERT_TRUE(decomposer.Run(s.module->entry()).ok());
    EXPECT_EQ(CountOps(*s.module->entry(), HloOpcode::kCollectivePermute),
              3);
    EXPECT_EQ(CountOps(*s.module->entry(), HloOpcode::kEinsum), 4);
}

TEST(DecomposeTest, NoCopiesWhenUnrolled)
{
    Mesh mesh(4);
    auto unrolled =
        BuildAllGatherScenario(mesh, 0, EinsumDimKind::kLhsFree, 0);
    auto naive =
        BuildAllGatherScenario(mesh, 0, EinsumDimKind::kLhsFree, 0);
    CostModel cost((HardwareSpec()));
    DecomposeOptions options;
    options.use_cost_model = false;
    options.bidirectional = false;
    options.unroll = true;
    CollectiveEinsumDecomposer with_unroll(mesh, &cost, options);
    ASSERT_TRUE(with_unroll.Run(unrolled.module->entry()).ok());
    options.unroll = false;
    CollectiveEinsumDecomposer without_unroll(mesh, &cost, options);
    ASSERT_TRUE(without_unroll.Run(naive.module->entry()).ok());
    EXPECT_EQ(CountOps(*unrolled.module->entry(), HloOpcode::kCopy), 0);
    EXPECT_EQ(CountOps(*naive.module->entry(), HloOpcode::kCopy), 3);
}

TEST(DecomposeTest, BidirectionalPairsShareFusionGroups)
{
    Mesh mesh(4);
    auto s = BuildAllGatherScenario(mesh, 0, EinsumDimKind::kLhsFree, 0);
    DecomposeOptions options;
    options.use_cost_model = false;
    options.bidirectional = true;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    ASSERT_TRUE(decomposer.Run(s.module->entry()).ok());
    // N=4 bidirectional: N/2 = 2 iterations x 2 paired einsums.
    std::vector<const HloInstruction*> einsums;
    for (const HloInstruction* instr : s.module->entry()->instructions()) {
        if (instr->opcode() == HloOpcode::kEinsum) einsums.push_back(instr);
    }
    ASSERT_EQ(einsums.size(), 4u);
    EXPECT_GE(einsums[0]->fusion_group(), 0);
    EXPECT_EQ(einsums[0]->fusion_group(), einsums[1]->fusion_group());
    EXPECT_EQ(einsums[2]->fusion_group(), einsums[3]->fusion_group());
    EXPECT_NE(einsums[0]->fusion_group(), einsums[2]->fusion_group());
}

}  // namespace
}  // namespace overlap
