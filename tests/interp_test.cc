#include <gtest/gtest.h>

#include "hlo/builder.h"
#include "hlo/module.h"
#include "interp/comparison.h"
#include "interp/evaluator.h"
#include "test_util.h"

namespace overlap {
namespace {

using testing_util::ShardTensor;

TEST(EvaluatorTest, GlobalEinsum)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* lhs = b.Parameter(0, Shape({2, 3}));
    auto* rhs = b.Parameter(1, Shape({3, 2}));
    comp->set_root(b.Einsum(lhs, rhs, "mk,kn->mn"));
    auto result = EvaluateGlobal(*comp, {Tensor::Iota(Shape({2, 3})),
                                         Tensor::Iota(Shape({3, 2}))});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ(result->at({0, 0}), 10.0f);
}

TEST(EvaluatorTest, PartitionIdAndAxisIndex)
{
    Mesh mesh(2, 3);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    comp->set_root(b.AxisIndex(1));
    SpmdEvaluator eval(mesh);
    auto result = eval.Evaluate(*comp, {});
    ASSERT_TRUE(result.ok());
    for (int64_t d = 0; d < 6; ++d) {
        EXPECT_FLOAT_EQ((*result)[static_cast<size_t>(d)].ScalarValue(),
                        static_cast<float>(d % 3));
    }
}

TEST(EvaluatorTest, AllGatherConcatenatesInGroupOrder)
{
    Mesh mesh(4);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1, 2}));
    comp->set_root(b.AllGather(p, 0, mesh.Groups(0)));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> shards;
    for (int64_t d = 0; d < 4; ++d) {
        shards.push_back(Tensor::Full(Shape({1, 2}),
                                      static_cast<float>(d)));
    }
    auto result = eval.Evaluate(*comp, {shards});
    ASSERT_TRUE(result.ok());
    for (int64_t d = 0; d < 4; ++d) {
        const Tensor& t = (*result)[static_cast<size_t>(d)];
        EXPECT_EQ(t.shape().dims(), (std::vector<int64_t>{4, 2}));
        for (int64_t row = 0; row < 4; ++row) {
            EXPECT_FLOAT_EQ(t.at({row, 0}), static_cast<float>(row));
        }
    }
}

TEST(EvaluatorTest, ReduceScatterSumsAndSlices)
{
    Mesh mesh(2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({4}));
    comp->set_root(b.ReduceScatter(p, 0, mesh.Groups(0)));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs = {
        Tensor(Shape({4}), {1, 2, 3, 4}),
        Tensor(Shape({4}), {10, 20, 30, 40}),
    };
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 11.0f);
    EXPECT_FLOAT_EQ((*result)[0].at({1}), 22.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 33.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({1}), 44.0f);
}

TEST(EvaluatorTest, AllReduceSubgroups)
{
    Mesh mesh(2, 2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    comp->set_root(b.AllReduce(p, mesh.Groups(1)));  // rows {0,1},{2,3}
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs;
    for (int64_t d = 0; d < 4; ++d) {
        inputs.push_back(Tensor(Shape({1}), {static_cast<float>(1 << d)}));
    }
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 3.0f);   // 1 + 2
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 3.0f);
    EXPECT_FLOAT_EQ((*result)[2].at({0}), 12.0f);  // 4 + 8
    EXPECT_FLOAT_EQ((*result)[3].at({0}), 12.0f);
}

TEST(EvaluatorTest, AllToAllTransposesShards)
{
    Mesh mesh(2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({2}));
    comp->set_root(b.AllToAll(p, 0, mesh.Groups(0)));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs = {Tensor(Shape({2}), {1, 2}),
                                  Tensor(Shape({2}), {3, 4})};
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 1.0f);
    EXPECT_FLOAT_EQ((*result)[0].at({1}), 3.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 2.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({1}), 4.0f);
}

TEST(EvaluatorTest, CollectivePermuteMovesAndZeroFills)
{
    Mesh mesh(3);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    // 0 -> 1, 1 -> 2; device 0 receives nothing.
    comp->set_root(b.CollectivePermute(p, {{0, 1}, {1, 2}}));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs = {Tensor(Shape({1}), {5}),
                                  Tensor(Shape({1}), {6}),
                                  Tensor(Shape({1}), {7})};
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 0.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 5.0f);
    EXPECT_FLOAT_EQ((*result)[2].at({0}), 6.0f);
}

TEST(EvaluatorTest, AsyncPermutePairBehavesLikeSync)
{
    Mesh mesh(2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    auto* start = b.CollectivePermuteStart(p, {{0, 1}, {1, 0}});
    comp->set_root(b.CollectivePermuteDone(start));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs = {Tensor(Shape({1}), {5}),
                                  Tensor(Shape({1}), {6})};
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 6.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 5.0f);
}

TEST(EvaluatorTest, CollectivePermuteRejectsDuplicateTarget)
{
    Mesh mesh(3);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    // Two sources feeding device 2: order-dependent, must be rejected.
    auto* permute = b.CollectivePermute(p, {{0, 2}, {1, 2}});
    comp->set_root(permute);
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs(3, Tensor(Shape({1}), {1}));
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(result.status().message(),
              permute->name() +
                  ": duplicate target 2 in source-target pairs");
}

TEST(EvaluatorTest, CollectivePermuteRejectsDuplicateSource)
{
    Mesh mesh(3);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    comp->set_root(b.CollectivePermute(p, {{0, 1}, {0, 2}}));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs(3, Tensor(Shape({1}), {1}));
    auto result = eval.Evaluate(*comp, {inputs});
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("duplicate source"),
              std::string::npos);
}

TEST(EvaluatorTest, CollectivePermuteRejectsOutOfRangeDevice)
{
    Mesh mesh(2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    comp->set_root(b.CollectivePermute(p, {{0, 5}}));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs(2, Tensor(Shape({1}), {1}));
    EXPECT_FALSE(eval.Evaluate(*comp, {inputs}).ok());
}

TEST(EvaluatorTest, AsyncStartValidatesPairsLikeSyncOp)
{
    // Start/Done must behave identically to the sync op, including the
    // rejection of duplicate targets.
    Mesh mesh(3);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({1}));
    auto* start = b.CollectivePermuteStart(p, {{0, 2}, {1, 2}});
    comp->set_root(b.CollectivePermuteDone(start));
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs(3, Tensor(Shape({1}), {1}));
    EXPECT_FALSE(eval.Evaluate(*comp, {inputs}).ok());
}

TEST(EvaluatorTest, OneDeviceParameterShapeMismatchFailsTheEvaluation)
{
    // Only device 2's binding has the wrong shape; the evaluation fails
    // with that binding's error before any collective runs, whether the
    // collective is a group reduction or a point-to-point permute.
    Mesh mesh(3);
    HloModule module("m");
    HloComputation* reduce = module.AddEntryComputation("reduce");
    {
        HloBuilder b(reduce);
        reduce->set_root(
            b.AllReduce(b.Parameter(0, Shape({4})), mesh.Groups(0)));
    }
    HloModule permute_module("p");
    HloComputation* permute =
        permute_module.AddEntryComputation("permute");
    {
        HloBuilder b(permute);
        permute->set_root(b.CollectivePermute(
            b.Parameter(0, Shape({4})), {{2, 0}}));
    }
    std::vector<Tensor> inputs = {Tensor(Shape({4}), {1, 2, 3, 4}),
                                  Tensor(Shape({4}), {5, 6, 7, 8}),
                                  Tensor(Shape({5}), {9, 10, 11, 12, 13})};
    SpmdEvaluator eval(mesh);
    for (const HloComputation* comp : {reduce, permute}) {
        auto result = eval.Evaluate(*comp, {inputs});
        ASSERT_FALSE(result.ok()) << comp->name();
        EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(result.status().message(),
                  "parameter 0 shape " + Shape({5}).ToString() +
                      " != declared " + Shape({4}).ToString());
    }
}

TEST(EvaluatorTest, EvaluateBatchSharesParams)
{
    Mesh mesh(2);
    HloModule add_module("add");
    HloComputation* add_comp = add_module.AddEntryComputation("main");
    {
        HloBuilder b(add_comp);
        auto* p = b.Parameter(0, Shape({1}));
        add_comp->set_root(b.Add(p, p));
    }
    HloModule neg_module("neg");
    HloComputation* neg_comp = neg_module.AddEntryComputation("main");
    {
        HloBuilder b(neg_comp);
        neg_comp->set_root(b.Negate(b.Parameter(0, Shape({1}))));
    }
    SpmdEvaluator eval(mesh);
    std::vector<Tensor> inputs = {Tensor(Shape({1}), {3}),
                                  Tensor(Shape({1}), {4})};
    auto outputs = eval.EvaluateBatch({add_comp, neg_comp}, {inputs});
    ASSERT_TRUE(outputs.ok());
    ASSERT_EQ(outputs->size(), 2u);
    EXPECT_FLOAT_EQ((*outputs)[0][0].at({0}), 6.0f);
    EXPECT_FLOAT_EQ((*outputs)[0][1].at({0}), 8.0f);
    EXPECT_FLOAT_EQ((*outputs)[1][0].at({0}), -3.0f);
    EXPECT_FLOAT_EQ((*outputs)[1][1].at({0}), -4.0f);

    // A failing computation fails the batch with its own Status.
    HloModule bad_module("bad");
    HloComputation* bad_comp = bad_module.AddEntryComputation("main");
    {
        HloBuilder b(bad_comp);
        bad_comp->set_root(b.Parameter(0, Shape({2})));
    }
    auto failed =
        eval.EvaluateBatch({add_comp, bad_comp, neg_comp}, {inputs});
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(failed.status().message(),
              "parameter 0 shape " + Shape({1}).ToString() +
                  " != declared " + Shape({2}).ToString());
}

TEST(ComparisonTest, ToleranceScalesWithDtypeAndReduction)
{
    EXPECT_LT(EquivalenceTolerance(DType::kF32, 16),
              EquivalenceTolerance(DType::kBF16, 16));
    EXPECT_LT(EquivalenceTolerance(DType::kF32, 4),
              EquivalenceTolerance(DType::kF32, 4096));
    EXPECT_EQ(EquivalenceTolerance(DType::kS32, 100), 0.0);
}

TEST(ComparisonTest, CompareOutputsFindsFirstMismatch)
{
    std::vector<Tensor> ref = {Tensor(Shape({2}), {1, 2}),
                               Tensor(Shape({2}), {3, 4})};
    std::vector<Tensor> same = ref;
    OutputComparison ok = CompareOutputs(ref, same, 1e-6);
    EXPECT_TRUE(ok.equal);
    EXPECT_EQ(ok.mismatched_devices, 0);
    EXPECT_EQ(ok.first_mismatch_device, -1);

    std::vector<Tensor> bad = {Tensor(Shape({2}), {1, 2}),
                               Tensor(Shape({2}), {3, 9})};
    OutputComparison cmp = CompareOutputs(ref, bad, 1e-6);
    EXPECT_FALSE(cmp.equal);
    EXPECT_EQ(cmp.mismatched_devices, 1);
    EXPECT_EQ(cmp.first_mismatch_device, 1);
    EXPECT_NEAR(cmp.max_abs_diff, 5.0, 1e-9);
    EXPECT_NE(cmp.ToString().find("MISMATCH"), std::string::npos);
}

TEST(ComparisonTest, ShapeDisagreementIsAMismatch)
{
    std::vector<Tensor> ref = {Tensor(Shape({2}), {1, 2})};
    std::vector<Tensor> other = {Tensor(Shape({3}), {1, 2, 3})};
    OutputComparison cmp = CompareOutputs(ref, other, 1e9);
    EXPECT_FALSE(cmp.equal);
}

TEST(EvaluatorTest, DynamicSliceUsesPerDeviceIndices)
{
    Mesh mesh(2);
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape({4}));
    auto* idx = b.Multiply(b.AxisIndex(0), b.ConstantIndex(2));
    comp->set_root(b.DynamicSliceOnDim(p, 0, idx, 2));
    SpmdEvaluator eval(mesh);
    Tensor data(Shape({4}), {1, 2, 3, 4});
    auto result = eval.Evaluate(*comp, {{data}});
    ASSERT_TRUE(result.ok());
    EXPECT_FLOAT_EQ((*result)[0].at({0}), 1.0f);
    EXPECT_FLOAT_EQ((*result)[1].at({0}), 3.0f);
}

TEST(EvaluatorTest, MissingParameterReported)
{
    HloModule module("m");
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    comp->set_root(b.Parameter(0, Shape({1})));
    SpmdEvaluator eval((Mesh(1)));
    auto result = eval.Evaluate(*comp, {});
    EXPECT_FALSE(result.ok());
}

TEST(EvaluatorTest, ShardRoundTripHelper)
{
    Mesh mesh(2, 2);
    Tensor global = Tensor::Iota(Shape({4, 4}));
    TensorSharding sharding = TensorSharding::OnDims(2, 0, 0, 1, 1);
    auto shards = ShardTensor(global, sharding, mesh);
    ASSERT_EQ(shards.size(), 4u);
    Tensor back = testing_util::UnshardTensor(shards, global.shape(),
                                              sharding, mesh);
    EXPECT_TRUE(back.AllClose(global, 0.0f));
}

}  // namespace
}  // namespace overlap
