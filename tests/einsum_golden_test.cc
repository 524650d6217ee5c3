/**
 * Golden suite for the einsum kernels: the vectorized dispatch path
 * (EinsumSpec::Evaluate) must be *bitwise* identical to the scalar
 * reference kernel (EinsumSpec::EvaluateReference) for every spec and
 * shape — the difftest oracle rests on this invariant.
 *
 * The cases deliberately stress the kernel's blocking seams: run
 * extents that are not multiples of the SIMD width or register tile,
 * output-row counts that leave m-block tails, contracting extents
 * straddling the k-panel size, empty dimensions, unaligned run bases
 * (odd inner extents), and every f32/bf16 dtype combination (the
 * interpreter computes in f32 regardless; dtype must not perturb
 * results).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "tensor/einsum.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace overlap {
namespace {

/// Asserts two tensors carry byte-for-byte identical float payloads.
void
ExpectBitwiseEqual(const Tensor& got, const Tensor& want)
{
    ASSERT_EQ(got.shape(), want.shape());
    ASSERT_EQ(got.num_elements(), want.num_elements());
    if (got.num_elements() == 0) return;
    EXPECT_EQ(0,
              std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(got.num_elements()) *
                              sizeof(float)))
        << "vectorized einsum diverged bitwise from the scalar "
           "reference for shape "
        << got.shape().ToString();
}

/// Runs `spec` on random inputs of the given shapes through both the
/// dispatching Evaluate and the scalar EvaluateReference and asserts
/// bitwise equality.
void
CheckSpec(const std::string& spec_str, const Shape& lhs_shape,
          const Shape& rhs_shape, uint64_t seed)
{
    auto spec = EinsumSpec::Parse(spec_str);
    ASSERT_TRUE(spec.ok()) << spec.status().message();
    Tensor lhs = Tensor::Random(lhs_shape, seed);
    Tensor rhs = Tensor::Random(rhs_shape, seed + 1);
    auto got = spec->Evaluate(lhs, rhs);
    ASSERT_TRUE(got.ok()) << got.status().message();
    auto want = spec->EvaluateReference(lhs, rhs);
    ASSERT_TRUE(want.ok()) << want.status().message();
    ExpectBitwiseEqual(*got, *want);
}

TEST(EinsumGoldenTest, MatmulShapesBitwiseMatchReference)
{
    // (m, k, n) triples covering tiny, register-tile-exact, and
    // panel-straddling extents.
    const int64_t cases[][3] = {
        {1, 1, 1},   {3, 5, 7},    {8, 64, 16},   {24, 16, 24},
        {4, 64, 32}, {33, 17, 9},  {128, 40, 31}, {5, 63, 48},
        {6, 65, 16}, {16, 128, 8}, {2, 129, 40},  {7, 200, 100},
    };
    uint64_t seed = 1;
    for (const auto& c : cases) {
        CheckSpec("bf,fh->bh", Shape({c[0], c[1]}), Shape({c[1], c[2]}),
                  seed++);
    }
}

TEST(EinsumGoldenTest, RunExtentTailsNotDivisibleByVectorWidth)
{
    // n is the contiguous rhs-free run: sweep every residue around the
    // 8-lane SIMD width and the 16-lane register tile so partial
    // vectors and pure-tail runs both execute.
    uint64_t seed = 100;
    for (int64_t n = 1; n <= 19; ++n) {
        CheckSpec("bf,fh->bh", Shape({6, 40}), Shape({40, n}), seed++);
    }
    for (int64_t n : {23, 31, 33, 47, 65}) {
        CheckSpec("bf,fh->bh", Shape({6, 40}), Shape({40, n}), seed++);
    }
}

TEST(EinsumGoldenTest, MBlockTailRows)
{
    // Output-row counts that leave every possible m-block remainder.
    uint64_t seed = 200;
    for (int64_t m = 1; m <= 9; ++m) {
        CheckSpec("bf,fh->bh", Shape({m, 32}), Shape({32, 24}), seed++);
    }
}

TEST(EinsumGoldenTest, ContractingExtentStraddlesKPanels)
{
    uint64_t seed = 300;
    for (int64_t k : {1, 2, 63, 64, 65, 127, 128, 129, 191}) {
        CheckSpec("bf,fh->bh", Shape({5, k}), Shape({k, 17}), seed++);
    }
}

TEST(EinsumGoldenTest, UnalignedRunBases)
{
    // Odd inner extents make successive output/rhs rows start at
    // non-16-byte float offsets, so the SIMD loops see unaligned
    // bases on every row after the first.
    uint64_t seed = 400;
    for (int64_t n : {3, 7, 9, 11, 13, 21}) {
        CheckSpec("bf,fh->bh", Shape({9, 33}), Shape({33, n}), seed++);
    }
}

TEST(EinsumGoldenTest, BatchedAndMultiLabelSpecs)
{
    // Batch dims, multiple free labels on either side, and a
    // transposed output (run == 1, scalar dispatch path).
    CheckSpec("bmk,bkn->bmn", Shape({3, 10, 20}), Shape({3, 20, 12}),
              500);
    CheckSpec("bmk,bkn->bmn", Shape({2, 7, 65}), Shape({2, 65, 5}),
              501);
    CheckSpec("btf,fh->bth", Shape({2, 9, 24}), Shape({24, 18}), 502);
    CheckSpec("abk,kc->abc", Shape({2, 3, 40}), Shape({40, 19}), 503);
    CheckSpec("bf,fh->hb", Shape({12, 40}), Shape({40, 16}), 504);
    CheckSpec("bf,hf->bh", Shape({12, 40}), Shape({16, 40}), 505);
    CheckSpec("bf,f->b", Shape({12, 40}), Shape({40}), 506);
    CheckSpec("f,fh->h", Shape({40}), Shape({40, 24}), 507);
}

TEST(EinsumGoldenTest, EmptyDims)
{
    // Extent-0 contracting dim: every output element is an empty sum,
    // i.e. exactly 0.0f.
    auto spec = EinsumSpec::Parse("bf,fh->bh");
    ASSERT_TRUE(spec.ok());
    Tensor lhs = Tensor::Random(Shape({4, 0}), 600);
    Tensor rhs = Tensor::Random(Shape({0, 6}), 601);
    auto got = spec->Evaluate(lhs, rhs);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->num_elements(), 24);
    for (float v : got->values()) {
        EXPECT_EQ(v, 0.0f);
    }
    ExpectBitwiseEqual(*got, *spec->EvaluateReference(lhs, rhs));

    // Extent-0 free dims: empty outputs on both kernels.
    CheckSpec("bf,fh->bh", Shape({0, 8}), Shape({8, 6}), 602);
    CheckSpec("bf,fh->bh", Shape({4, 8}), Shape({8, 0}), 603);
}

TEST(EinsumGoldenTest, DTypeCombosDoNotPerturbResults)
{
    // The interpreter computes in f32 whatever the declared element
    // type; every f32/bf16 operand combination must produce the same
    // bits as the all-f32 run and as the scalar reference.
    auto spec = EinsumSpec::Parse("bf,fh->bh");
    ASSERT_TRUE(spec.ok());
    const Shape lhs_f32(DType::kF32, {10, 33});
    const Shape rhs_f32(DType::kF32, {33, 21});
    Tensor lhs = Tensor::Random(lhs_f32, 700);
    Tensor rhs = Tensor::Random(rhs_f32, 701);
    auto baseline = spec->Evaluate(lhs, rhs);
    ASSERT_TRUE(baseline.ok());

    for (DType lt : {DType::kF32, DType::kBF16}) {
        for (DType rt : {DType::kF32, DType::kBF16}) {
            Shape ls = lhs_f32;
            ls.set_dtype(lt);
            Shape rs = rhs_f32;
            rs.set_dtype(rt);
            Tensor l(ls, lhs.values());
            Tensor r(rs, rhs.values());
            auto got = spec->Evaluate(l, r);
            ASSERT_TRUE(got.ok()) << got.status().message();
            auto want = spec->EvaluateReference(l, r);
            ASSERT_TRUE(want.ok());
            ExpectBitwiseEqual(*got, *want);
            ASSERT_EQ(got->num_elements(), baseline->num_elements());
            EXPECT_EQ(0, std::memcmp(got->data(), baseline->data(),
                                     static_cast<size_t>(
                                         got->num_elements()) *
                                         sizeof(float)))
                << "dtype combo " << DTypeName(lt) << "/"
                << DTypeName(rt) << " changed einsum bits";
        }
    }
}

TEST(EinsumGoldenTest, LargeShapeSpotCheck)
{
    // One einsum-heavy shape in the perf-gate range; keeps the golden
    // suite honest about the configuration the benchmark leans on.
    CheckSpec("bf,fh->bh", Shape({128, 256}), Shape({256, 128}), 800);
}

}  // namespace
}  // namespace overlap
