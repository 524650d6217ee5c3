/**
 * @file
 * Structural tests on the emitted Looped CollectiveEinsum: permute and
 * einsum counts, ring directions and prologue/epilogue shapes for every
 * §5.1/§5.4 variant — complementing the behavioural equivalence sweeps.
 */
#include <gtest/gtest.h>

#include "hlo/builder.h"
#include "hlo/module.h"
#include "passes/decompose.h"
#include "sim/cost_model.h"

namespace overlap {
namespace {

struct Counts {
    int64_t permutes = 0;
    int64_t einsums = 0;
    int64_t copies = 0;
    int64_t left = 0;   // data moving toward lower ring positions
    int64_t right = 0;  // toward higher ring positions
};

Counts
CountLoop(const HloComputation& comp, const Mesh& mesh)
{
    Counts c;
    for (const HloInstruction* instr : comp.instructions()) {
        switch (instr->opcode()) {
          case HloOpcode::kEinsum:
              ++c.einsums;
              break;
          case HloOpcode::kCopy:
              ++c.copies;
              break;
          case HloOpcode::kCollectivePermute: {
              ++c.permutes;
              auto [src, dst] = instr->attrs().source_target_pairs.front();
              int64_t axis = 0;
              for (; axis < mesh.num_axes(); ++axis) {
                  if (mesh.Coords(src)[static_cast<size_t>(axis)] !=
                      mesh.Coords(dst)[static_cast<size_t>(axis)]) {
                      break;
                  }
              }
              int64_t n = mesh.axis_size(axis);
              int64_t delta =
                  (mesh.Coords(dst)[static_cast<size_t>(axis)] -
                       mesh.Coords(src)[static_cast<size_t>(axis)] + n) %
                  n;
              if (delta > n / 2 || (n == 2 && delta == 1)) {
                  // toward lower position (left) for long way around;
                  // n == 2 counted as left for determinism.
                  ++c.left;
              } else {
                  ++c.right;
              }
              break;
          }
          default:
              break;
        }
    }
    return c;
}

Counts
DecomposeAllGather(int64_t n, bool unroll, bool bidi)
{
    Mesh mesh(n);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {2 * n, 16}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {16, 8}));
    // Shard along the non-contracting dim (Case 1).
    auto* shard = b.Slice(p, {0, 0}, {2, 16});
    auto* ag = b.AllGather(shard, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    CostModel cost{HardwareSpec{}};
    DecomposeOptions options;
    options.use_cost_model = false;
    options.unroll = unroll;
    options.bidirectional = bidi;
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    // Not OVERLAP_CHECK: Release builds compile checks out without
    // evaluating the condition, and the pass must run.
    EXPECT_TRUE(decomposer.Run(comp).ok());
    return CountLoop(*comp, mesh);
}

Counts
DecomposeReduceScatter(int64_t n, bool unroll, bool bidi)
{
    Mesh mesh(n);
    HloModule module("m");
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* a = b.Parameter(0, Shape(DType::kBF16, {4 * n, 16}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {16, 8}));
    auto* e = b.Einsum(a, w, "bf,fh->bh");
    comp->set_root(b.ReduceScatter(e, 0, mesh.Groups(0)));
    CostModel cost{HardwareSpec{}};
    DecomposeOptions options;
    options.use_cost_model = false;
    options.unroll = unroll;
    options.bidirectional = bidi;
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    // Not OVERLAP_CHECK: Release builds compile checks out without
    // evaluating the condition, and the pass must run.
    EXPECT_TRUE(decomposer.Run(comp).ok());
    return CountLoop(*comp, mesh);
}

TEST(LoopStructureTest, UnidirectionalAllGatherHasNMinusOnePermutes)
{
    // Figure 6: N iterations, N-1 circular-shift transfers, all one way.
    for (int64_t n : {2, 4, 8}) {
        Counts c = DecomposeAllGather(n, /*unroll=*/true, /*bidi=*/false);
        EXPECT_EQ(c.permutes, n - 1) << "n=" << n;
        EXPECT_EQ(c.einsums, n) << "n=" << n;
        EXPECT_EQ(c.copies, 0) << "n=" << n;
        EXPECT_TRUE(c.left == c.permutes || c.right == c.permutes)
            << "n=" << n;
    }
}

TEST(LoopStructureTest, NoUnrollAddsAliasCopies)
{
    // §5.4.1: the naive loop carries one Copy per transfer.
    Counts c = DecomposeAllGather(8, /*unroll=*/false, /*bidi=*/false);
    EXPECT_EQ(c.copies, c.permutes);
}

TEST(LoopStructureTest, BidirectionalAllGatherSplitsDirections)
{
    // Figure 9: N/2 iterations; prologue shift + (N/2 - 1) transfers in
    // each direction, paired partial einsums.
    Counts c = DecomposeAllGather(8, /*unroll=*/true, /*bidi=*/true);
    EXPECT_EQ(c.einsums, 8);
    EXPECT_EQ(c.permutes, 2 * (8 / 2 - 1) + 1);
    EXPECT_GT(c.left, 0);
    EXPECT_GT(c.right, 0);
}

TEST(LoopStructureTest, UnidirectionalReduceScatterHasNPermutes)
{
    // Figure 5/7 (single chain): the pre-update accumulator is sent in
    // every iteration, the first one carrying the zero initializer.
    Counts c =
        DecomposeReduceScatter(5, /*unroll=*/false, /*bidi=*/false);
    EXPECT_EQ(c.permutes, 5);
    EXPECT_EQ(c.einsums, 5);
    EXPECT_EQ(c.copies, 5);
}

TEST(LoopStructureTest, TwoChainReduceScatterMatchesFigure8)
{
    // N/2-1 chain-A transfers + N/2 chain-B transfers + the alignment
    // epilogue = N permutes total ("no more data communication").
    for (int64_t n : {4, 8}) {
        Counts c =
            DecomposeReduceScatter(n, /*unroll=*/true, /*bidi=*/false);
        EXPECT_EQ(c.permutes, n) << "n=" << n;
        EXPECT_EQ(c.einsums, n) << "n=" << n;
        EXPECT_EQ(c.copies, 0) << "n=" << n;
    }
    // At n=8 the shift-by-2 hops are unambiguous: the epilogue permute
    // is the single transfer opposite to the accumulation shifts. (At
    // n=4 a shift of 2 is antipodal, so direction is ambiguous.)
    Counts c = DecomposeReduceScatter(8, /*unroll=*/true, /*bidi=*/false);
    EXPECT_EQ(c.right, 1);
}

TEST(LoopStructureTest, BidirectionalReduceScatterUsesBothDirections)
{
    Counts c = DecomposeReduceScatter(8, /*unroll=*/true, /*bidi=*/true);
    EXPECT_EQ(c.einsums, 8);
    // L chain: N/2-1, R chain: N/2, epilogue: 1.
    EXPECT_EQ(c.permutes, 8 / 2 - 1 + 8 / 2 + 1);
    EXPECT_GT(c.left, 0);
    EXPECT_GT(c.right, 0);
}

TEST(LoopStructureTest, TwoWayExchangeAtTwoPartitions)
{
    // N == 2 with bidirectional on: the peer shard's halves travel on
    // both links; three partial einsums (own + two halves).
    Counts c = DecomposeAllGather(2, /*unroll=*/true, /*bidi=*/true);
    EXPECT_EQ(c.permutes, 2);
    EXPECT_EQ(c.einsums, 3);
}

}  // namespace
}  // namespace overlap
