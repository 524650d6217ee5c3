#include <gtest/gtest.h>

#include "hlo/builder.h"
#include "hlo/module.h"
#include "sim/engine.h"
#include "sim/trace_export.h"

namespace overlap {
namespace {

class EngineTest : public ::testing::Test {
  protected:
    HardwareSpec spec_;
};

TEST_F(EngineTest, ComputeOnlyProgramTakesKernelTime)
{
    HloModule module("m");
    module.set_mesh(Mesh(2));
    HloBuilder b(module.AddEntryComputation("main"));
    auto* a = b.Parameter(0, Shape(DType::kBF16, {256, 512}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {512, 256}));
    auto* e = b.Einsum(a, w, "mk,kn->mn");
    module.entry()->set_root(e);
    PodSimulator sim(Mesh(2), spec_);
    auto result = sim.Run(module);
    ASSERT_TRUE(result.ok());
    CostModel cost(spec_);
    EXPECT_NEAR(result->step_seconds, cost.EinsumSeconds(e), 1e-12);
    EXPECT_DOUBLE_EQ(result->exposed_comm_seconds, 0.0);
    EXPECT_NEAR(result->einsum_flops, 2.0 * 256 * 512 * 256, 1.0);
}

TEST_F(EngineTest, BlockingCollectiveIsExposed)
{
    HloModule module("m");
    Mesh mesh(4);
    module.set_mesh(mesh);
    HloBuilder b(module.AddEntryComputation("main"));
    auto* p = b.Parameter(0, Shape(DType::kBF16, {1024, 1024}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    module.entry()->set_root(ag);
    PodSimulator sim(mesh, spec_);
    auto result = sim.Run(module);
    ASSERT_TRUE(result.ok());
    CostModel cost(spec_);
    EXPECT_NEAR(result->exposed_comm_seconds,
                cost.BlockingCollectiveSeconds(ag), 1e-12);
    EXPECT_EQ(result->num_blocking_collectives, 1);
}

TEST_F(EngineTest, AsyncTransferHiddenBehindLongCompute)
{
    // Start, long einsum, Done: the transfer should cost nothing.
    HloModule module("m");
    Mesh mesh(2);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* small = b.Parameter(0, Shape(DType::kBF16, {64, 64}));
    auto* a = b.Parameter(1, Shape(DType::kBF16, {2048, 2048}));
    auto* w = b.Parameter(2, Shape(DType::kBF16, {2048, 2048}));
    auto* start = b.CollectivePermuteStart(small, {{0, 1}, {1, 0}});
    auto* big = b.Einsum(a, w, "mk,kn->mn");
    auto* done = b.CollectivePermuteDone(start);
    auto* both = b.Einsum(done, small, "mk,kn->mn");
    comp->set_root(b.Tuple({big, both}));
    PodSimulator sim(mesh, spec_);
    auto result = sim.Run(module);
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->exposed_comm_seconds, 0.0);
    EXPECT_EQ(result->num_async_transfers, 1);
}

TEST_F(EngineTest, AsyncTransferExposedWithoutCompute)
{
    HloModule module("m");
    Mesh mesh(2);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {4096, 4096}));
    auto* start = b.CollectivePermuteStart(p, {{0, 1}, {1, 0}});
    comp->set_root(b.CollectivePermuteDone(start));
    PodSimulator sim(mesh, spec_);
    auto result = sim.Run(module);
    ASSERT_TRUE(result.ok());
    CostModel cost(spec_);
    EXPECT_NEAR(result->exposed_comm_seconds,
                cost.PermuteStepSeconds(p->shape().byte_size()), 1e-12);
}

TEST_F(EngineTest, SameDirectionTransfersSerializeOnTheLink)
{
    // Two concurrent transfers in the same ring direction share one
    // channel: the second arrives one wire-time later.
    HloModule module("m");
    Mesh mesh(4);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {4096, 4096}));
    auto pairs = std::vector<std::pair<int64_t, int64_t>>{
        {0, 3}, {1, 0}, {2, 1}, {3, 2}};
    auto* s1 = b.CollectivePermuteStart(p, pairs);
    auto* s2 = b.CollectivePermuteStart(p, pairs);
    auto* d1 = b.CollectivePermuteDone(s1);
    auto* d2 = b.CollectivePermuteDone(s2);
    comp->set_root(b.Tuple({d1, d2}));
    PodSimulator sim(mesh, spec_);
    auto result = sim.Run(module);
    ASSERT_TRUE(result.ok());
    double wire = static_cast<double>(p->shape().byte_size()) /
                  spec_.link_bandwidth;
    EXPECT_NEAR(result->step_seconds, 2.0 * wire + spec_.link_latency,
                wire * 0.01);
}

TEST_F(EngineTest, OppositeDirectionTransfersRunConcurrently)
{
    HloModule module("m");
    Mesh mesh(4);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {4096, 4096}));
    auto left = std::vector<std::pair<int64_t, int64_t>>{
        {0, 3}, {1, 0}, {2, 1}, {3, 2}};
    auto right = std::vector<std::pair<int64_t, int64_t>>{
        {0, 1}, {1, 2}, {2, 3}, {3, 0}};
    auto* s1 = b.CollectivePermuteStart(p, left);
    auto* s2 = b.CollectivePermuteStart(p, right);
    auto* d1 = b.CollectivePermuteDone(s1);
    auto* d2 = b.CollectivePermuteDone(s2);
    comp->set_root(b.Tuple({d1, d2}));
    PodSimulator sim(mesh, spec_);
    auto result = sim.Run(module);
    ASSERT_TRUE(result.ok());
    double wire = static_cast<double>(p->shape().byte_size()) /
                  spec_.link_bandwidth;
    EXPECT_NEAR(result->step_seconds, wire + spec_.link_latency,
                wire * 0.01);
}

TEST_F(EngineTest, MultiHopPermuteChargesEachHop)
{
    HloModule module("m");
    Mesh mesh(8);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {4096, 4096}));
    // Shift by 2: two ring hops.
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int64_t j = 0; j < 8; ++j) pairs.emplace_back(j, (j + 6) % 8);
    auto* start = b.CollectivePermuteStart(p, pairs);
    comp->set_root(b.CollectivePermuteDone(start));
    PodSimulator sim(mesh, spec_);
    auto result = sim.Run(module);
    ASSERT_TRUE(result.ok());
    double wire = static_cast<double>(p->shape().byte_size()) /
                  spec_.link_bandwidth;
    EXPECT_NEAR(result->step_seconds,
                2.0 * wire + 2.0 * spec_.link_latency, wire * 0.01);
}

TEST_F(EngineTest, TraceCoversTheTimeline)
{
    HloModule module("m");
    Mesh mesh(2);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* a = b.Parameter(0, Shape(DType::kBF16, {512, 512}));
    auto* ag = b.AllGather(a, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(ag, a, "mk,kn->mn"));
    PodSimulator sim(mesh, spec_);
    auto result = sim.Run(module, /*collect_trace=*/true);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->trace.size(), 2u);
    EXPECT_EQ(result->trace[0].kind, TraceKind::kCollective);
    EXPECT_EQ(result->trace[1].kind, TraceKind::kCompute);
    EXPECT_DOUBLE_EQ(result->trace.back().end_seconds,
                     result->step_seconds);
}

/**
 * With the SDC detectors on, a traced run labels the checksum and ABFT
 * kernels "sdc_checksum:<collective>" and "sdc_abft:<einsum>"; an
 * untraced run takes the same time and records nothing.
 */
TEST_F(EngineTest, DetectorKernelsAreLabeledOnlyInATrace)
{
    HloModule module("m");
    Mesh mesh(2);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* a = b.Parameter(0, Shape(DType::kBF16, {512, 512}));
    auto* ag = b.AllGather(a, 0, mesh.Groups(0));
    auto* e = b.Einsum(ag, a, "mk,kn->mn");
    comp->set_root(e);
    FaultSpec faults;
    faults.sdc.enabled = true;
    PodSimulator sim(mesh, spec_, FaultModel(faults));

    auto traced = sim.Run(module, /*collect_trace=*/true);
    ASSERT_TRUE(traced.ok());
    std::vector<std::string> labels;
    for (const TraceEvent& event : traced->trace) {
        labels.push_back(event.label);
    }
    EXPECT_EQ(labels,
              (std::vector<std::string>{ag->name(),
                                        "sdc_checksum:" + ag->name(),
                                        e->name(), "sdc_abft:" + e->name()}));

    auto untraced = sim.Run(module);
    ASSERT_TRUE(untraced.ok());
    EXPECT_TRUE(untraced->trace.empty());
    EXPECT_EQ(untraced->step_seconds, traced->step_seconds);
    EXPECT_EQ(untraced->detector_seconds, traced->detector_seconds);
}

TEST_F(EngineTest, EnergyScalesWithTimeAndChips)
{
    HloModule module("m");
    module.set_mesh(Mesh(4));
    HloBuilder b(module.AddEntryComputation("main"));
    auto* a = b.Parameter(0, Shape(DType::kBF16, {512, 512}));
    module.entry()->set_root(b.Einsum(a, a, "mk,kn->mn"));
    PodSimulator sim(Mesh(4), spec_);
    auto result = sim.Run(module);
    ASSERT_TRUE(result.ok());
    EXPECT_NEAR(result->EnergyJoules(spec_, 4),
                result->step_seconds * spec_.chip_power_watts * 4.0,
                1e-12);
}

TEST_F(EngineTest, PeakMemoryCountsLiveBuffers)
{
    // x (alloc) -> a = negate(x) (alloc; x still live: it feeds c)
    // -> c = add(a, x) (alloc; frees a and x).
    HloModule module("m");
    module.set_mesh(Mesh(2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* x = b.Parameter(0, Shape(DType::kBF16, {1024}));
    auto* a = b.Negate(x);
    comp->set_root(b.Add(a, x));
    PodSimulator sim(Mesh(2), spec_);
    auto result = sim.Run(module);
    ASSERT_TRUE(result.ok());
    // Peak: x + a + c live at once = 3 buffers of 2 KiB.
    EXPECT_EQ(result->peak_memory_bytes, 3 * 2048);
}

TEST_F(EngineTest, AccumulatorChainKeepsMemoryFlat)
{
    // A chain of DynamicUpdateSlices reuses the accumulator; peak memory
    // must stay O(1) in the chain length.
    HloModule module("m");
    module.set_mesh(Mesh(2));
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* update = b.Parameter(0, Shape(DType::kBF16, {1, 512}));
    HloInstruction* acc = b.Zeros(Shape(DType::kBF16, {8, 512}));
    for (int i = 0; i < 8; ++i) {
        acc = b.DynamicUpdateSliceOnDim(acc, update, 0,
                                        b.ConstantIndex(i));
    }
    comp->set_root(acc);
    PodSimulator sim(Mesh(2), spec_);
    auto result = sim.Run(module);
    ASSERT_TRUE(result.ok());
    // Accumulator (8 KiB) + previous version + update: well under 4
    // accumulator-sizes.
    EXPECT_LT(result->peak_memory_bytes, 4 * 8 * 512 * 2);
}

TEST_F(EngineTest, AntipodalTransfersLoadBalanceAcrossDirections)
{
    // On a 2-ring every hop is antipodal; two concurrent transfers must
    // use the two opposite links rather than queueing on one.
    HloModule module("m");
    Mesh mesh(2);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {4096, 4096}));
    auto pairs =
        std::vector<std::pair<int64_t, int64_t>>{{0, 1}, {1, 0}};
    auto* s1 = b.CollectivePermuteStart(p, pairs);
    auto* s2 = b.CollectivePermuteStart(p, pairs);
    auto* d1 = b.CollectivePermuteDone(s1);
    auto* d2 = b.CollectivePermuteDone(s2);
    comp->set_root(b.Tuple({d1, d2}));
    PodSimulator sim(mesh, spec_);
    auto result = sim.Run(module);
    ASSERT_TRUE(result.ok());
    double wire = static_cast<double>(p->shape().byte_size()) /
                  spec_.link_bandwidth;
    EXPECT_NEAR(result->step_seconds, wire + spec_.link_latency,
                wire * 0.01);
}

TEST_F(EngineTest, ChromeTraceExportIsWellFormed)
{
    HloModule module("m");
    Mesh mesh(2);
    module.set_mesh(mesh);
    HloComputation* comp = module.AddEntryComputation("main");
    HloBuilder b(comp);
    auto* a = b.Parameter(0, Shape(DType::kBF16, {512, 512}));
    auto* ag = b.AllGather(a, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(ag, a, "mk,kn->mn"));
    PodSimulator sim(mesh, spec_);
    auto result = sim.Run(module, /*collect_trace=*/true);
    ASSERT_TRUE(result.ok());
    std::string json = TraceToChromeJson(*result, "dev");
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("all-gather"), std::string::npos);
    EXPECT_NE(json.find("einsum"), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"collective\""), std::string::npos);
    // Balanced braces as a cheap well-formedness check.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace overlap
