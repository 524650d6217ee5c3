#include <gtest/gtest.h>

#include "tensor/einsum.h"
#include "tensor/mesh.h"
#include "tensor/shape.h"
#include "tensor/sharding.h"
#include "tensor/tensor.h"

namespace overlap {
namespace {

TEST(ShapeTest, Basics)
{
    Shape s(DType::kF32, {2, 3, 4});
    EXPECT_EQ(s.rank(), 3);
    EXPECT_EQ(s.num_elements(), 24);
    EXPECT_EQ(s.byte_size(), 96);
    EXPECT_EQ(s.ToString(), "f32[2,3,4]");
}

TEST(ShapeTest, ScalarAndDTypes)
{
    Shape scalar(DType::kBF16, {});
    EXPECT_EQ(scalar.rank(), 0);
    EXPECT_EQ(scalar.num_elements(), 1);
    EXPECT_EQ(scalar.byte_size(), 2);
    EXPECT_EQ(DTypeSize(DType::kF32), 4);
    EXPECT_EQ(DTypeSize(DType::kPred), 1);
}

TEST(ShapeTest, EqualityIgnoresNothing)
{
    Shape a(DType::kF32, {2, 2});
    Shape b(DType::kBF16, {2, 2});
    EXPECT_NE(a, b);
    EXPECT_TRUE(a.SameDims(b));
}

TEST(TensorTest, IotaAndIndexing)
{
    Tensor t = Tensor::Iota(Shape({2, 3}));
    EXPECT_FLOAT_EQ(t.at({0, 0}), 0.0f);
    EXPECT_FLOAT_EQ(t.at({1, 2}), 5.0f);
    t.set({1, 0}, 42.0f);
    EXPECT_FLOAT_EQ(t.at({1, 0}), 42.0f);
}

TEST(TensorTest, SliceAndUpdateSlice)
{
    Tensor t = Tensor::Iota(Shape({4, 4}));
    Tensor s = t.Slice({1, 2}, {2, 2});
    EXPECT_FLOAT_EQ(s.at({0, 0}), 6.0f);
    EXPECT_FLOAT_EQ(s.at({1, 1}), 11.0f);

    Tensor updated = t.UpdateSlice(Tensor::Full(Shape({2, 2}), -1.0f),
                                   {0, 0});
    EXPECT_FLOAT_EQ(updated.at({0, 0}), -1.0f);
    EXPECT_FLOAT_EQ(updated.at({1, 1}), -1.0f);
    EXPECT_FLOAT_EQ(updated.at({2, 2}), 10.0f);
}

TEST(TensorTest, SliceClampsLikeXla)
{
    // XLA DynamicSlice clamps start indices so the slice stays in bounds.
    Tensor t = Tensor::Iota(Shape({4}));
    Tensor s = t.Slice({3}, {2});
    EXPECT_FLOAT_EQ(s.at({0}), 2.0f);
    EXPECT_FLOAT_EQ(s.at({1}), 3.0f);
}

TEST(TensorTest, ConcatenatePadTranspose)
{
    Tensor a = Tensor::Full(Shape({1, 2}), 1.0f);
    Tensor b = Tensor::Full(Shape({1, 2}), 2.0f);
    Tensor c = Tensor::Concatenate({a, b}, 0);
    EXPECT_EQ(c.shape().dims(), (std::vector<int64_t>{2, 2}));
    EXPECT_FLOAT_EQ(c.at({1, 0}), 2.0f);

    Tensor padded = a.Pad({0, 1}, {0, 1}, 9.0f);
    EXPECT_EQ(padded.shape().dims(), (std::vector<int64_t>{1, 4}));
    EXPECT_FLOAT_EQ(padded.at({0, 0}), 9.0f);
    EXPECT_FLOAT_EQ(padded.at({0, 1}), 1.0f);

    Tensor t = Tensor::Iota(Shape({2, 3}));
    Tensor tt = t.Transpose({1, 0});
    EXPECT_EQ(tt.shape().dims(), (std::vector<int64_t>{3, 2}));
    EXPECT_FLOAT_EQ(tt.at({2, 1}), t.at({1, 2}));
}

TEST(TensorTest, AllCloseAndMaxAbsDiff)
{
    Tensor a = Tensor::Iota(Shape({4}));
    Tensor b = a;
    b.set({2}, 2.5f);
    EXPECT_FLOAT_EQ(Tensor::MaxAbsDiff(a, b), 0.5f);
    EXPECT_TRUE(a.AllClose(b, 0.6f));
    EXPECT_FALSE(a.AllClose(b, 0.4f));
}

TEST(TensorTest, RandomIsDeterministic)
{
    Tensor a = Tensor::Random(Shape({8}), 7);
    Tensor b = Tensor::Random(Shape({8}), 7);
    Tensor c = Tensor::Random(Shape({8}), 8);
    EXPECT_TRUE(a.AllClose(b, 0.0f));
    EXPECT_FALSE(a.AllClose(c, 1e-6f));
}

TEST(EinsumTest, ParseClassifiesDims)
{
    auto spec = EinsumSpec::Parse("bf,fh->bh");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec->KindOf('b'), EinsumDimKind::kLhsFree);
    EXPECT_EQ(spec->KindOf('f'), EinsumDimKind::kContracting);
    EXPECT_EQ(spec->KindOf('h'), EinsumDimKind::kRhsFree);
    EXPECT_EQ(spec->ToString(), "bf,fh->bh");
}

TEST(EinsumTest, BatchDims)
{
    auto spec = EinsumSpec::Parse("bmf,bfh->bmh");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec->KindOf('b'), EinsumDimKind::kBatch);
    EXPECT_EQ(spec->KindOf('m'), EinsumDimKind::kLhsFree);
    EXPECT_EQ(spec->KindOf('f'), EinsumDimKind::kContracting);
}

TEST(EinsumTest, RejectsMalformedSpecs)
{
    EXPECT_FALSE(EinsumSpec::Parse("bf,fh").ok());
    EXPECT_FALSE(EinsumSpec::Parse("bffh->bh").ok());
    EXPECT_FALSE(EinsumSpec::Parse("bb,bh->bh").ok());
    EXPECT_FALSE(EinsumSpec::Parse("bf,fh->bx").ok());
    // A label present in one input only and absent from the output is a
    // reduction this engine does not support.
    EXPECT_FALSE(EinsumSpec::Parse("bf,fh->h").ok());
}

TEST(EinsumTest, MatmulMatchesManual)
{
    auto spec = EinsumSpec::Parse("mk,kn->mn");
    ASSERT_TRUE(spec.ok());
    Tensor a = Tensor::Iota(Shape({2, 3}));
    Tensor b = Tensor::Iota(Shape({3, 2}));
    auto c = spec->Evaluate(a, b);
    ASSERT_TRUE(c.ok());
    // Row 0 of a = [0,1,2]; column 0 of b = [0,2,4] -> 10.
    EXPECT_FLOAT_EQ(c->at({0, 0}), 10.0f);
    EXPECT_FLOAT_EQ(c->at({0, 1}), 13.0f);
    EXPECT_FLOAT_EQ(c->at({1, 0}), 28.0f);
    EXPECT_FLOAT_EQ(c->at({1, 1}), 40.0f);
}

TEST(EinsumTest, BatchedMatmul)
{
    auto spec = EinsumSpec::Parse("bmk,bkn->bmn");
    ASSERT_TRUE(spec.ok());
    Tensor a = Tensor::Random(Shape({2, 3, 4}), 1);
    Tensor b = Tensor::Random(Shape({2, 4, 5}), 2);
    auto c = spec->Evaluate(a, b);
    ASSERT_TRUE(c.ok());
    EXPECT_EQ(c->shape().dims(), (std::vector<int64_t>{2, 3, 5}));
    // Check one element against a manual contraction.
    float expect = 0.0f;
    for (int64_t k = 0; k < 4; ++k) {
        expect += a.at({1, 2, k}) * b.at({1, k, 3});
    }
    EXPECT_NEAR(c->at({1, 2, 3}), expect, 1e-5f);
}

TEST(EinsumTest, FlopCount)
{
    auto spec = EinsumSpec::Parse("mk,kn->mn");
    ASSERT_TRUE(spec.ok());
    EXPECT_EQ(spec->FlopCount(Shape({8, 16}), Shape({16, 32})),
              2 * 8 * 16 * 32);
}

TEST(EinsumTest, ShapeMismatchReported)
{
    auto spec = EinsumSpec::Parse("mk,kn->mn");
    ASSERT_TRUE(spec.ok());
    auto bad = spec->InferOutputShape(Shape({2, 3}), Shape({4, 5}));
    EXPECT_FALSE(bad.ok());
}

TEST(MeshTest, CoordsRoundTrip)
{
    Mesh mesh(2, 4);
    EXPECT_EQ(mesh.num_devices(), 8);
    for (int64_t d = 0; d < 8; ++d) {
        EXPECT_EQ(mesh.DeviceAt(mesh.Coords(d)), d);
    }
    EXPECT_EQ(mesh.Coords(5), (std::vector<int64_t>{1, 1}));
}

TEST(MeshTest, GroupsAlongAxes)
{
    Mesh mesh(2, 3);
    auto y_groups = mesh.Groups(1);
    ASSERT_EQ(y_groups.size(), 2u);
    EXPECT_EQ(y_groups[0], (std::vector<int64_t>{0, 1, 2}));
    EXPECT_EQ(y_groups[1], (std::vector<int64_t>{3, 4, 5}));
    auto x_groups = mesh.Groups(0);
    ASSERT_EQ(x_groups.size(), 3u);
    EXPECT_EQ(x_groups[0], (std::vector<int64_t>{0, 3}));
}

TEST(MeshTest, RingNeighborWraps)
{
    Mesh mesh(4);
    EXPECT_EQ(mesh.RingNeighbor(3, 0, 1), 0);
    EXPECT_EQ(mesh.RingNeighbor(0, 0, -1), 3);
    Mesh torus(2, 4);
    EXPECT_EQ(torus.RingNeighbor(4, 1, 1), 5);
    EXPECT_EQ(torus.RingNeighbor(7, 1, 1), 4);
    EXPECT_EQ(torus.RingNeighbor(1, 0, 1), 5);
}

TEST(MeshTest, InferGroupsAxis)
{
    Mesh mesh(2, 4);
    EXPECT_EQ(mesh.InferGroupsAxis(mesh.Groups(0)), 0);
    EXPECT_EQ(mesh.InferGroupsAxis(mesh.Groups(1)), 1);
    EXPECT_EQ(mesh.InferGroupsAxis({{0, 1, 2, 3, 4, 5, 6, 7}}), -1);
}

/** The first axis whose Groups() equal `groups`, or -1. */
int64_t
ReferenceGroupsAxis(const Mesh& mesh,
                    const std::vector<std::vector<int64_t>>& groups)
{
    for (int64_t axis = 0; axis < mesh.num_axes(); ++axis) {
        if (mesh.Groups(axis) == groups) return axis;
    }
    return -1;
}

TEST(MeshTest, InferGroupsAxisMatchesGroupsOnEveryMeshShape)
{
    // InferGroupsAxis checks each axis's layout arithmetically; it must
    // answer exactly what comparing against Groups(axis) answers, on
    // every axis of 1-, 2- and 3-axis meshes (size-1 axes included) and
    // on every corruption of those group lists.
    const std::vector<Mesh> meshes = {
        Mesh(1),          Mesh(6),          Mesh(2, 3),
        Mesh(4, 1),       Mesh(1, 4),       Mesh(4, 4),
        Mesh({2, 3, 4}),  Mesh({3, 1, 2}),  Mesh({2, 2, 2}),
        Mesh({1, 5, 1})};
    for (const Mesh& mesh : meshes) {
        std::vector<std::vector<std::vector<int64_t>>> cases;
        for (int64_t axis = 0; axis < mesh.num_axes(); ++axis) {
            auto groups = mesh.Groups(axis);
            cases.push_back(groups);
            auto permuted = groups;  // two devices of one group swapped
            if (permuted[0].size() > 1) {
                std::swap(permuted[0][0], permuted[0][1]);
                cases.push_back(permuted);
            }
            auto reordered = groups;  // two groups swapped
            if (reordered.size() > 1) {
                std::swap(reordered[0], reordered.back());
                cases.push_back(reordered);
            }
            auto ragged = groups;  // one device short
            ragged.back().pop_back();
            cases.push_back(ragged);
            auto padded = groups;  // one device too many
            padded.back().push_back(mesh.num_devices());
            cases.push_back(padded);
            auto missing = groups;  // one group too few
            missing.pop_back();
            cases.push_back(missing);
            auto extra = groups;  // one group too many
            extra.push_back(groups.back());
            cases.push_back(extra);
            auto shifted = groups;  // right layout, wrong base
            for (auto& group : shifted) {
                for (int64_t& device : group) ++device;
            }
            cases.push_back(shifted);
        }
        for (const auto& groups : cases) {
            EXPECT_EQ(mesh.InferGroupsAxis(groups),
                      ReferenceGroupsAxis(mesh, groups))
                << mesh.ToString();
        }
    }

    Mesh cube({2, 3, 4});
    EXPECT_EQ(cube.InferGroupsAxis(cube.Groups(0)), 0);
    EXPECT_EQ(cube.InferGroupsAxis(cube.Groups(1)), 1);
    EXPECT_EQ(cube.InferGroupsAxis(cube.Groups(2)), 2);
    auto permuted = cube.Groups(1);
    std::swap(permuted[2][0], permuted[2][2]);
    EXPECT_EQ(cube.InferGroupsAxis(permuted), -1);
    auto ragged = cube.Groups(2);
    ragged[1].pop_back();
    EXPECT_EQ(cube.InferGroupsAxis(ragged), -1);
    auto wrong_count = cube.Groups(0);
    wrong_count.pop_back();
    EXPECT_EQ(cube.InferGroupsAxis(wrong_count), -1);
    EXPECT_EQ(cube.InferGroupsAxis({}), -1);
}

TEST(ShardingTest, ShardShapeAndOffsets)
{
    Mesh mesh(2, 4);
    Shape global(DType::kF32, {8, 12});
    TensorSharding sharding = TensorSharding::OnDims(2, 0, 0, 1, 1);
    ASSERT_TRUE(sharding.Validate(global, mesh).ok());
    EXPECT_EQ(sharding.ShardShape(global, mesh).dims(),
              (std::vector<int64_t>{4, 3}));
    EXPECT_EQ(sharding.ShardOffsets(global, mesh, 0),
              (std::vector<int64_t>{0, 0}));
    EXPECT_EQ(sharding.ShardOffsets(global, mesh, 6),
              (std::vector<int64_t>{4, 6}));
}

TEST(ShardingTest, ValidationCatchesBadConfigs)
{
    Mesh mesh(2, 4);
    Shape global(DType::kF32, {7, 12});
    // 7 not divisible by 2.
    EXPECT_FALSE(
        TensorSharding::OnDim(2, 0, 0).Validate(global, mesh).ok());
    // Axis out of range.
    EXPECT_FALSE(
        TensorSharding::OnDim(2, 1, 5).Validate(global, mesh).ok());
    // Same mesh axis on two dims.
    EXPECT_FALSE(TensorSharding::OnDims(2, 0, 1, 1, 1)
                     .Validate(Shape(DType::kF32, {8, 12}), mesh)
                     .ok());
    EXPECT_TRUE(TensorSharding::Replicated(2).Validate(global, mesh).ok());
}

}  // namespace
}  // namespace overlap
