#include <gtest/gtest.h>

#include "hlo/verifier.h"
#include "interp/evaluator.h"
#include "spmd/spmd_builder.h"
#include "test_util.h"

namespace overlap {
namespace {

using testing_util::DimsOf;

using testing_util::UnshardTensor;

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
 * Figure 2: 1-D strategy. Activations keep a batch shard; weights are
 * AllGathered on demand before each einsum.
 */
TEST(SpmdBuilderTest, OneDimensionalWeightGatherStrategy)
{
    Mesh mesh(4);
    HloModule module("mlp_1d");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);

    const int64_t kB = 8, kF = 4, kH = 8;
    auto x = spmd.Parameter(0, Shape({kB, kF}),
                            TensorSharding::OnDim(2, 0, 0), "x");
    ASSERT_TRUE(x.ok());
    // Weight sharded along the hidden dim; must be gathered for use.
    auto w1 = spmd.Parameter(1, Shape({kF, kH}),
                             TensorSharding::OnDim(2, 1, 0), "w1");
    ASSERT_TRUE(w1.ok());
    auto w2 = spmd.Parameter(2, Shape({kH, kF}),
                             TensorSharding::OnDim(2, 0, 0), "w2");
    ASSERT_TRUE(w2.ok());

    // Desired: activations stay batch-sharded through both layers.
    auto h = spmd.Einsum(*x, *w1, "bf,fh->bh",
                         TensorSharding::OnDim(2, 0, 0));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    auto y = spmd.Einsum(*h, *w2, "bh,hf->bf",
                         TensorSharding::OnDim(2, 0, 0));
    ASSERT_TRUE(y.ok()) << y.status().ToString();
    comp->set_root(y->local);
    ASSERT_TRUE(VerifyModule(module).ok());

    // Exactly the Figure 2 pattern: one AllGather per einsum, no
    // ReduceScatter/AllReduce in forward.
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllGather), 2);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kReduceScatter), 0);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllReduce), 0);

    // Functional check against the unpartitioned computation.
    Tensor gx = Tensor::Random(Shape({kB, kF}), 1);
    Tensor gw1 = Tensor::Random(Shape({kF, kH}), 2);
    Tensor gw2 = Tensor::Random(Shape({kH, kF}), 3);
    SpmdEvaluator eval(mesh);
    auto result = eval.Evaluate(
        *comp,
        {ShardTensor(gx, TensorSharding::OnDim(2, 0, 0), mesh),
         ShardTensor(gw1, TensorSharding::OnDim(2, 1, 0), mesh),
         ShardTensor(gw2, TensorSharding::OnDim(2, 0, 0), mesh)});
    ASSERT_TRUE(result.ok());
    Tensor hh = EinsumSpec::Parse("bf,fh->bh")->Evaluate(gx, gw1).value();
    Tensor yy = EinsumSpec::Parse("bh,hf->bf")->Evaluate(hh, gw2).value();
    Tensor assembled = UnshardTensor(
        *result, yy.shape(), TensorSharding::OnDim(2, 0, 0), mesh);
    EXPECT_TRUE(assembled.AllClose(yy, 1e-3f));
}

/**
 * Figure 3: 2-D strategy on an [M, N] torus. First einsum AllGathers the
 * activation along x and the weight along y; the second einsum contracts
 * a dimension sharded along x on both sides, producing a partial result
 * resolved by a subgroup ReduceScatter along x.
 */
TEST(SpmdBuilderTest, TwoDimensionalStrategyMatchesFigure3)
{
    Mesh mesh(2, 4);  // [M=2 (x), N=4 (y)]
    HloModule module("mlp_2d");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);

    const int64_t kB = 8, kF = 4, kH = 8;
    // A0: [B/N (y), F/M (x)]
    TensorSharding act_sharding = TensorSharding::OnDims(2, 0, 1, 1, 0);
    auto x = spmd.Parameter(0, Shape({kB, kF}), act_sharding, "x");
    ASSERT_TRUE(x.ok());
    // W1: [F/N (y), H/M (x)]
    auto w1 = spmd.Parameter(1, Shape({kF, kH}),
                             TensorSharding::OnDims(2, 0, 1, 1, 0), "w1");
    ASSERT_TRUE(w1.ok());
    // W2: [H/M (x), F/N (y)]
    auto w2 = spmd.Parameter(2, Shape({kH, kF}),
                             TensorSharding::OnDims(2, 0, 0, 1, 1), "w2");
    ASSERT_TRUE(w2.ok());

    // Einsum 1 -> A1 [B/N (y), H/M (x)].
    auto h = spmd.Einsum(*x, *w1, "bf,fh->bh",
                         TensorSharding::OnDims(2, 0, 1, 1, 0));
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    // Einsum 2 -> A2 with the activation sharding again.
    auto y = spmd.Einsum(*h, *w2, "bh,hf->bf", act_sharding);
    ASSERT_TRUE(y.ok()) << y.status().ToString();
    comp->set_root(y->local);
    ASSERT_TRUE(VerifyModule(module).ok());

    // Figure 3: three AllGathers (activation x, weight y; weight y) and
    // one subgroup ReduceScatter along x.
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllGather), 3);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kReduceScatter), 1);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllReduce), 0);

    Tensor gx = Tensor::Random(Shape({kB, kF}), 4);
    Tensor gw1 = Tensor::Random(Shape({kF, kH}), 5);
    Tensor gw2 = Tensor::Random(Shape({kH, kF}), 6);
    SpmdEvaluator eval(mesh);
    auto result = eval.Evaluate(
        *comp,
        {ShardTensor(gx, act_sharding, mesh),
         ShardTensor(gw1, TensorSharding::OnDims(2, 0, 1, 1, 0), mesh),
         ShardTensor(gw2, TensorSharding::OnDims(2, 0, 0, 1, 1), mesh)});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    Tensor hh = EinsumSpec::Parse("bf,fh->bh")->Evaluate(gx, gw1).value();
    Tensor yy = EinsumSpec::Parse("bh,hf->bf")->Evaluate(hh, gw2).value();
    Tensor assembled =
        UnshardTensor(*result, yy.shape(), act_sharding, mesh);
    EXPECT_TRUE(assembled.AllClose(yy, 1e-3f));
}

TEST(SpmdBuilderTest, WeightGradientGetsReduceScatter)
{
    // Backward wgrad: contraction over the (sharded) batch produces a
    // partial gradient; asking for the weight's sharding on the output
    // yields the paper's backward ReduceScatter.
    Mesh mesh(4);
    HloModule module("wgrad");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);
    const int64_t kB = 8, kF = 4, kH = 8;
    auto x = spmd.Parameter(0, Shape({kB, kF}),
                            TensorSharding::OnDim(2, 0, 0), "x");
    auto dy = spmd.Parameter(1, Shape({kB, kH}),
                             TensorSharding::OnDim(2, 0, 0), "dy");
    auto dw = spmd.Einsum(*x, *dy, "bf,bh->fh",
                          TensorSharding::OnDim(2, 1, 0));
    ASSERT_TRUE(dw.ok()) << dw.status().ToString();
    comp->set_root(dw->local);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kReduceScatter), 1);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllGather), 0);

    Tensor gx = Tensor::Random(Shape({kB, kF}), 7);
    Tensor gdy = Tensor::Random(Shape({kB, kH}), 8);
    SpmdEvaluator eval(mesh);
    auto result = eval.Evaluate(
        *comp, {ShardTensor(gx, TensorSharding::OnDim(2, 0, 0), mesh),
                ShardTensor(gdy, TensorSharding::OnDim(2, 0, 0), mesh)});
    ASSERT_TRUE(result.ok());
    Tensor expect =
        EinsumSpec::Parse("bf,bh->fh")->Evaluate(gx, gdy).value();
    Tensor assembled = UnshardTensor(*result, expect.shape(),
                                     TensorSharding::OnDim(2, 1, 0), mesh);
    EXPECT_TRUE(assembled.AllClose(expect, 1e-3f));
}

TEST(SpmdBuilderTest, ReplicatedDesiredGivesAllReduce)
{
    Mesh mesh(4);
    HloModule module("ar");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);
    auto x = spmd.Parameter(0, Shape({4, 8}),
                            TensorSharding::OnDim(2, 1, 0), "x");
    auto w = spmd.Parameter(1, Shape({8, 4}),
                            TensorSharding::OnDim(2, 0, 0), "w");
    auto y = spmd.Einsum(*x, *w, "bf,fh->bh", TensorSharding::Replicated(2));
    ASSERT_TRUE(y.ok());
    comp->set_root(y->local);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllReduce), 1);
}

TEST(SpmdBuilderTest, BatchShardedBothSidesStaysLocal)
{
    Mesh mesh(2, 2);
    HloModule module("attn");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);
    // Attention-score-like einsum: batch on y, heads on x, local.
    TensorSharding sharding = TensorSharding::OnDims(4, 0, 1, 1, 0);
    auto q = spmd.Parameter(0, Shape({4, 2, 6, 8}), sharding, "q");
    auto k = spmd.Parameter(1, Shape({4, 2, 6, 8}), sharding, "k");
    auto scores = spmd.Einsum(*q, *k, "bhqd,bhkd->bhqk",
                              TensorSharding::OnDims(4, 0, 1, 1, 0));
    ASSERT_TRUE(scores.ok()) << scores.status().ToString();
    comp->set_root(scores->local);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllGather), 0);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kAllReduce), 0);
    EXPECT_EQ(CountOps(*comp, HloOpcode::kReduceScatter), 0);

    // Functional spot check.
    Tensor gq = Tensor::Random(Shape({4, 2, 6, 8}), 9);
    Tensor gk = Tensor::Random(Shape({4, 2, 6, 8}), 10);
    SpmdEvaluator eval(mesh);
    auto result = eval.Evaluate(*comp, {ShardTensor(gq, sharding, mesh),
                                        ShardTensor(gk, sharding, mesh)});
    ASSERT_TRUE(result.ok());
    Tensor expect = EinsumSpec::Parse("bhqd,bhkd->bhqk")
                        ->Evaluate(gq, gk)
                        .value();
    TensorSharding out_sharding = TensorSharding::OnDims(4, 0, 1, 1, 0);
    Tensor assembled =
        UnshardTensor(*result, expect.shape(), out_sharding, mesh);
    EXPECT_TRUE(assembled.AllClose(expect, 1e-3f));
}

TEST(SpmdBuilderTest, AllToAllKeepsShapes)
{
    Mesh mesh(4);
    HloModule module("a2a");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);
    auto x = spmd.Parameter(0, Shape({16, 4}),
                            TensorSharding::OnDim(2, 0, 0), "tokens");
    auto moved = spmd.AllToAllDim(*x, 0, 0);
    ASSERT_TRUE(moved.ok());
    comp->set_root(moved->local);
    EXPECT_EQ(DimsOf(moved->local->shape()), (std::vector<int64_t>{4, 4}));
    EXPECT_TRUE(VerifyModule(module).ok());
}

TEST(SpmdBuilderTest, RejectsIndivisibleSharding)
{
    Mesh mesh(4);
    HloModule module("bad");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);
    auto bad = spmd.Parameter(0, Shape({6, 4}),
                              TensorSharding::OnDim(2, 0, 0), "x");
    EXPECT_FALSE(bad.ok());
}

}  // namespace
}  // namespace overlap
