#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "difftest/difftest.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "hlo/verifier.h"
#include "interp/evaluator.h"
#include "models/step_builder.h"
#include "passes/async.h"
#include "passes/decompose.h"
#include "test_util.h"

namespace overlap {
namespace {

using difftest::SiteCase;

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

// Structural tests of the decomposition pass. Its equivalence with the
// blocking collective + einsum is the difftest oracle's job
// (difftest_test); the modules here come from the same site builder.

/**
 * The blocking module of a difftest site with the default extents: for
 * kAllGatherFree the lhs (N*shard x 4) is gathered along its
 * non-contracting dimension and contracted with a (4 x 5) rhs; for
 * kAllToAll each device's (N*2 x 4) token block is dispatched. The
 * collective runs on the last axis of `mesh_dims`.
 */
std::unique_ptr<HloModule>
SiteModule(SiteCase site_case, std::vector<int64_t> mesh_dims,
           int64_t shard = 2)
{
    difftest::SiteSpec spec;
    spec.site_case = site_case;
    spec.axis = static_cast<int64_t>(mesh_dims.size()) - 1;
    spec.mesh_dims = std::move(mesh_dims);
    spec.shard_extent = shard;
    auto module = difftest::BuildSiteModule(spec);
    EXPECT_TRUE(module.ok()) << module.status().ToString();
    return std::move(module).value();
}

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
    auto even = SiteModule(SiteCase::kAllGatherFree, {4}, /*shard=*/2);
    auto odd = SiteModule(SiteCase::kAllGatherFree, {4}, /*shard=*/3);
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
    ASSERT_TRUE(even_decomposer.Run(even->entry()).ok());
    EXPECT_GT(fused_einsums(*even->entry()), 0);
    CollectiveEinsumDecomposer odd_decomposer(mesh, &cost, options);
    ASSERT_TRUE(odd_decomposer.Run(odd->entry()).ok());
    EXPECT_EQ(fused_einsums(*odd->entry()), 0);
    // Unidirectional AllGather over N=4: N-1 = 3 permutes, N einsums.
    EXPECT_EQ(CountOps(*odd->entry(), HloOpcode::kCollectivePermute), 3);
    EXPECT_EQ(CountOps(*odd->entry(), HloOpcode::kEinsum), 4);
}

TEST(BidirectionalEligibilityTest, OddExtentTwoWayFallsBack)
{
    // N=2 with an odd shard extent cannot halve the shard: no kSlice
    // half-split ops may appear; the plain unidirectional loop runs.
    Mesh mesh(2);
    auto even = SiteModule(SiteCase::kAllGatherFree, {2}, /*shard=*/2);
    auto odd = SiteModule(SiteCase::kAllGatherFree, {2}, /*shard=*/3);
    DecomposeOptions options;
    options.use_cost_model = false;
    options.bidirectional = true;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer even_decomposer(mesh, &cost, options);
    ASSERT_TRUE(even_decomposer.Run(even->entry()).ok());
    EXPECT_EQ(CountOps(*even->entry(), HloOpcode::kSlice), 2);
    CollectiveEinsumDecomposer odd_decomposer(mesh, &cost, options);
    ASSERT_TRUE(odd_decomposer.Run(odd->entry()).ok());
    EXPECT_EQ(CountOps(*odd->entry(), HloOpcode::kSlice), 0);
    EXPECT_EQ(CountOps(*odd->entry(), HloOpcode::kCollectivePermute), 1);
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
        if (instr->collective_opcode() == HloOpcode::kCollectivePermute &&
            !IsAsyncDone(instr->opcode())) {
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
    auto module = SiteModule(SiteCase::kAllGatherFree, {2, 8});
    HloComputation* comp = module->entry();
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

    ASSERT_TRUE(CreateAsyncPairs(comp, HloOpcode::kCollectivePermute).ok());
    EXPECT_EQ(CountOps(*comp, HloOpcode::kCollectivePermute), 0);
    EXPECT_EQ(PairLists(*comp), lists);
    EXPECT_TRUE(VerifyModule(*module).ok());
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
    auto module = SiteModule(SiteCase::kAllToAll, {4});
    HloComputation* comp = module->entry();
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
    auto module = SiteModule(SiteCase::kAllToAll, {4});
    HloComputation* comp = module->entry();
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

// ---------------------------------------------------------------------------
// The §5.5 gate's replay-free bound: a candidate is replayed only while
// its bound can still beat the best benefit replayed.
// ---------------------------------------------------------------------------

/** The values next to `x` on both sides, and `x` itself. */
std::vector<double>
Around(double x)
{
    const double inf = std::numeric_limits<double>::infinity();
    return {std::nextafter(x, -inf), x, std::nextafter(x, inf)};
}

/**
 * Benefit() <= BenefitBound() for every replay outcome, with every
 * operand on and next to the edges the argument rests on: extra_t = 0,
 * comm_t_ring == comp_t, and comp_t and comm_t magnitudes one ulp apart
 * or so far apart that comp_t + comm_t rounds back to comp_t. Without a
 * replay (comm_t_ring and extra_t zero) the two are bit-equal, and so
 * are they whenever the replay lands at comp_t exactly.
 */
TEST(GateBoundTest, BenefitNeverExceedsTheBound)
{
    const double denorm = std::numeric_limits<double>::denorm_min();
    for (double comp : {1e-3, 3e-7, 0.1}) {
        std::vector<double> comms = Around(comp);
        for (double comm : {comp * 0x1p-52, comp * 0x1p-54, 1e-300}) {
            comms.push_back(comm);
        }
        for (double comp_t : Around(comp)) {
            for (double comm_t : comms) {
                std::vector<double> rings = Around(comp_t);
                rings.push_back(0.0);
                rings.push_back(comm_t);
                for (double ring : rings) {
                    for (double extra : {0.0, denorm, comp_t * 0x1p-53,
                                         comp_t}) {
                        GateCost cost;
                        cost.comp_t = comp_t;
                        cost.comm_t = comm_t;
                        cost.margin = kGateDecisionMargin * (comp_t + comm_t);
                        EXPECT_EQ(cost.Benefit(), cost.BenefitBound());
                        cost.comm_t_ring = ring;
                        cost.extra_t = extra;
                        EXPECT_LE(cost.Benefit(), cost.BenefitBound())
                            << std::hexfloat << comp_t << " " << comm_t
                            << " " << ring << " " << extra;
                        if (ring <= comp_t && extra == 0.0) {
                            EXPECT_EQ(cost.Benefit(), cost.BenefitBound());
                        }
                    }
                }
            }
        }
    }
}

/**
 * The default compile replays only the candidates that can win. GPT_1T
 * and GPT_32B each match 24 candidates on 12 einsums, so replaying all
 * of them would be 24; GPT_1T replays only each einsum's winner and
 * GPT_32B four more. BigSSL_10B has one candidate on each of its 8
 * einsums and replays every one.
 */
TEST(GateBoundTest, ReplaysOnlyCandidatesThatCanWin)
{
    for (const auto& [model, replays] :
         std::vector<std::pair<std::string, int64_t>>{
             {"GPT_1T", 12}, {"GPT_32B", 16}, {"BigSSL_10B", 8}}) {
        auto module = BuildLayerStepModule(*FindModel(model));
        ASSERT_TRUE(module.ok()) << model;
        auto report = OverlapCompiler(CompilerOptions()).Compile(module->get());
        ASSERT_TRUE(report.ok()) << model;
        EXPECT_EQ(report->decompose.gate_replays, replays) << model;
    }
}

TEST(DecomposeTest, EmitsExpectedPermuteCounts)
{
    // Unidirectional AllGather over N=4 needs N-1 = 3 permutes.
    Mesh mesh(4);
    auto module = SiteModule(SiteCase::kAllGatherFree, {4});
    DecomposeOptions options;
    options.use_cost_model = false;
    options.unroll = true;
    options.bidirectional = false;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    ASSERT_TRUE(decomposer.Run(module->entry()).ok());
    EXPECT_EQ(CountOps(*module->entry(), HloOpcode::kCollectivePermute), 3);
    EXPECT_EQ(CountOps(*module->entry(), HloOpcode::kEinsum), 4);
}

TEST(DecomposeTest, NoCopiesWhenUnrolled)
{
    Mesh mesh(4);
    auto unrolled = SiteModule(SiteCase::kAllGatherFree, {4});
    auto naive = SiteModule(SiteCase::kAllGatherFree, {4});
    CostModel cost((HardwareSpec()));
    DecomposeOptions options;
    options.use_cost_model = false;
    options.bidirectional = false;
    options.unroll = true;
    CollectiveEinsumDecomposer with_unroll(mesh, &cost, options);
    ASSERT_TRUE(with_unroll.Run(unrolled->entry()).ok());
    options.unroll = false;
    CollectiveEinsumDecomposer without_unroll(mesh, &cost, options);
    ASSERT_TRUE(without_unroll.Run(naive->entry()).ok());
    EXPECT_EQ(CountOps(*unrolled->entry(), HloOpcode::kCopy), 0);
    EXPECT_EQ(CountOps(*naive->entry(), HloOpcode::kCopy), 3);
}

TEST(DecomposeTest, BidirectionalPairsShareFusionGroups)
{
    Mesh mesh(4);
    auto module = SiteModule(SiteCase::kAllGatherFree, {4});
    DecomposeOptions options;
    options.use_cost_model = false;
    options.bidirectional = true;
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    ASSERT_TRUE(decomposer.Run(module->entry()).ok());
    // N=4 bidirectional: N/2 = 2 iterations x 2 paired einsums.
    std::vector<const HloInstruction*> einsums;
    for (const HloInstruction* instr : module->entry()->instructions()) {
        if (instr->opcode() == HloOpcode::kEinsum) einsums.push_back(instr);
    }
    ASSERT_EQ(einsums.size(), 4u);
    EXPECT_GE(einsums[0]->fusion_group(), 0);
    EXPECT_EQ(einsums[0]->fusion_group(), einsums[1]->fusion_group());
    EXPECT_EQ(einsums[2]->fusion_group(), einsums[3]->fusion_group());
    EXPECT_NE(einsums[0]->fusion_group(), einsums[2]->fusion_group());
}

// ---------------------------------------------------------------------------
// Loop-index scalars shared across sites.
// ---------------------------------------------------------------------------

/**
 * Three overlap sites on the 4-rings (axis 1) of a 2 x 4 torus: x's
 * batch (AllGather, free label, shard extent 2) and z's features
 * (AllGather, contracting label, extent 4) feed two einsums whose sum
 * goes through a third einsum into a ReduceScatter over its output
 * features (extent 4). The extents differ so that a store keying an
 * offset without its extent computes wrong slices; all are even, so
 * each variant's bidirectional structures are eligible.
 */
std::unique_ptr<HloModule>
MultiSiteModule(const Mesh& mesh)
{
    auto module = std::make_unique<HloModule>("multi_site");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    const ReplicaGroups ring = mesh.Groups(1);
    auto* x = b.Parameter(0, Shape({2, 8}), "x");
    auto* z = b.Parameter(1, Shape({8, 4}), "z");
    auto* w1 = b.Parameter(2, Shape({8, 8}), "w1");
    auto* w2 = b.Parameter(3, Shape({16, 8}), "w2");
    auto* w3 = b.Parameter(4, Shape({8, 16}), "w3");
    auto* h = b.Einsum(b.AllGather(x, 0, ring), w1, "bf,fh->bh");
    auto* g = b.Einsum(b.AllGather(z, 1, ring), w2, "bf,fh->bh");
    auto* out = b.Einsum(b.Add(h, g), w3, "bh,hf->bf");
    comp->set_root(b.ReduceScatter(out, 1, ring));
    return module;
}

/** Small integers, so every partial sum is exact in f32. */
Tensor
IntegerTensor(const Shape& shape, int64_t seed)
{
    Tensor t(shape);
    for (int64_t i = 0; i < t.num_elements(); ++i) {
        t.data()[i] = static_cast<float>((i * 7 + seed * 3) % 5 - 2);
    }
    return t;
}

/** Decomposes every site of MultiSiteModule under `variant`. */
std::unique_ptr<HloModule>
DecomposedMultiSite(const Mesh& mesh, const difftest::DecomposeVariant& v)
{
    auto module = MultiSiteModule(mesh);
    CostModel cost{HardwareSpec{}};
    DecomposeOptions options;
    options.use_cost_model = false;
    v.ApplyTo(&options);
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    auto stats = decomposer.Run(module->entry());
    EXPECT_TRUE(stats.ok()) << v.name;
    if (stats.ok()) {
        EXPECT_EQ(stats->allgather_sites, 2) << v.name;
        EXPECT_EQ(stats->reduce_scatter_sites, 1) << v.name;
    }
    EXPECT_TRUE(VerifyModule(*module).ok()) << v.name;
    return module;
}

/**
 * The three loops share their index scalars; under every variant the
 * decomposed module computes, on every device, exactly what the
 * blocking one does.
 */
TEST(IndexScalarsTest, SharedScalarsKeepEveryVariantEqualToBlocking)
{
    const Mesh mesh(2, 4);
    auto blocking = MultiSiteModule(mesh);
    std::vector<std::vector<Tensor>> params;
    for (const HloInstruction* p : blocking->entry()->parameters()) {
        std::vector<Tensor> per_device;
        for (int64_t d = 0; d < mesh.num_devices(); ++d) {
            per_device.push_back(IntegerTensor(
                p->shape(), p->attrs().parameter_number * 8 + d));
        }
        params.push_back(std::move(per_device));
    }
    SpmdEvaluator eval(mesh);
    auto expected = eval.Evaluate(*blocking->entry(), params);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (const difftest::DecomposeVariant& v :
         difftest::AllDecomposeVariants()) {
        auto module = DecomposedMultiSite(mesh, v);
        auto actual = eval.Evaluate(*module->entry(), params);
        ASSERT_TRUE(actual.ok()) << v.name << ": "
                                 << actual.status().ToString();
        ASSERT_EQ(actual->size(), expected->size());
        for (size_t d = 0; d < expected->size(); ++d) {
            EXPECT_TRUE(testing_util::BitEqual((*actual)[d], (*expected)[d]))
                << v.name << " device " << d;
        }
    }
}

/**
 * One AxisIndex for the ring axis, one (axis_index + delta) mod N chain
 * per shift and one offset per (shard id, extent, extra) across all
 * three loops. The shared scalars carry no loop group (they belong to
 * no single loop), while each loop's own instructions carry its group.
 */
TEST(IndexScalarsTest, LoopsShareOneScalarPerKey)
{
    const Mesh mesh(2, 4);
    for (const difftest::DecomposeVariant& v :
         difftest::AllDecomposeVariants()) {
        auto module = DecomposedMultiSite(mesh, v);
        const HloComputation& comp = *module->entry();
        EXPECT_EQ(CountOps(comp, HloOpcode::kAxisIndex), 1) << v.name;
        std::set<int64_t> shifts;
        std::set<std::pair<const HloInstruction*, const HloInstruction*>>
            offsets;
        std::set<int64_t> groups;
        for (const HloInstruction* instr : comp.instructions()) {
            if (instr->shape().dtype() == DType::kS32) {
                EXPECT_EQ(instr->loop_group(), -1) << instr->ToString();
            } else if (instr->opcode() == HloOpcode::kEinsum) {
                groups.insert(instr->loop_group());
            }
            if (instr->opcode() == HloOpcode::kRemainder) {
                // The shard id's sum is the bare axis index for shift 0.
                const HloInstruction* sum = instr->operand(0);
                const int64_t shift =
                    sum->opcode() == HloOpcode::kAxisIndex
                        ? 0
                        : static_cast<int64_t>(
                              sum->operand(1)->attrs().literal->data()[0]);
                EXPECT_TRUE(shifts.insert(shift).second)
                    << v.name << ": second chain for shift " << shift;
            }
            if (instr->opcode() == HloOpcode::kMultiply) {
                EXPECT_TRUE(
                    offsets.insert({instr->operand(0), instr->operand(1)})
                        .second)
                    << v.name << ": repeated offset " << instr->ToString();
            }
        }
        // Every shift of a ring of 4 is used by some loop.
        EXPECT_EQ(shifts.size(), 4u) << v.name;
        EXPECT_EQ(groups, (std::set<int64_t>{0, 1, 2})) << v.name;
    }
}

}  // namespace
}  // namespace overlap
