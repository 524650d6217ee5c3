#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>

#include "hlo/builder.h"
#include "hlo/module.h"
#include "hlo/verifier.h"
#include "interp/evaluator.h"
#include "sim/engine.h"
#include "sim/trace_export.h"
#include "support/strings.h"
#include "test_util.h"

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
    auto* start = b.AsyncStart(HloOpcode::kCollectivePermute, small,
                               PermuteAttrs({{0, 1}, {1, 0}}));
    auto* big = b.Einsum(a, w, "mk,kn->mn");
    auto* done = b.AsyncDone(start);
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
    auto* start = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                               PermuteAttrs({{0, 1}, {1, 0}}));
    comp->set_root(b.AsyncDone(start));
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
    auto* s1 = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                            PermuteAttrs(pairs));
    auto* s2 = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                            PermuteAttrs(pairs));
    auto* d1 = b.AsyncDone(s1);
    auto* d2 = b.AsyncDone(s2);
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
    auto* s1 = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                            PermuteAttrs(left));
    auto* s2 = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                            PermuteAttrs(right));
    auto* d1 = b.AsyncDone(s1);
    auto* d2 = b.AsyncDone(s2);
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
    auto* start = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                               PermuteAttrs(pairs));
    comp->set_root(b.AsyncDone(start));
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
              (std::vector<std::string>{"sdc_checksum:" + ag->name(),
                                        ag->name(),
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
    auto* s1 = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                            PermuteAttrs(pairs));
    auto* s2 = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                            PermuteAttrs(pairs));
    auto* d1 = b.AsyncDone(s1);
    auto* d2 = b.AsyncDone(s2);
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

// ---- Outcome table --------------------------------------------------
//
// Every exchange kind the engine models, under every fault class it
// handles, pinned field by field (doubles as hex floats) together with
// the traced (label, kind, start, end) list. Any change to the engine's
// link, failure or detector accounting moves a line here.

constexpr const char* kOutcomeGoldenPath =
    OVERLAP_TESTDATA_DIR "/engine_outcomes.golden";

/** Pairs moving every device `shift` positions along `axis`. */
std::vector<std::pair<int64_t, int64_t>>
ShiftPairs(const Mesh& mesh, int64_t axis, int64_t shift)
{
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (int64_t d = 0; d < mesh.num_devices(); ++d) {
        pairs.push_back({d, mesh.RingNeighbor(d, axis, shift)});
    }
    return pairs;
}

/** A small hand-made module exercising one kind of traffic. */
struct TrafficCase {
    std::string name;
    Mesh mesh;
    std::function<void(HloBuilder&, const Mesh&)> build;
};

std::vector<TrafficCase>
TrafficCases()
{
    const Shape tile(DType::kBF16, {1024, 1024});
    // Compute before the exchange, the exchange, compute consuming it.
    auto blocking = [tile](HloOpcode opcode) {
        return [tile, opcode](HloBuilder& b, const Mesh& mesh) {
            auto* p = b.Parameter(0, tile);
            auto* e = b.Einsum(p, p, "mk,kn->mn");
            HloInstruction* c = nullptr;
            switch (opcode) {
              case HloOpcode::kAllGather:
                  c = b.AllGather(e, 0, mesh.Groups(0));
                  break;
              case HloOpcode::kReduceScatter:
                  c = b.ReduceScatter(e, 0, mesh.Groups(0));
                  break;
              case HloOpcode::kAllReduce:
                  c = b.AllReduce(e, mesh.Groups(0));
                  break;
              default:
                  c = b.AllToAll(e, 0, mesh.Groups(0));
                  break;
            }
            b.computation()->set_root(b.Einsum(c, p, "mk,kn->mn"));
        };
    };
    std::vector<TrafficCase> cases;
    cases.push_back({"sync_permute", Mesh(4),
                     [tile](HloBuilder& b, const Mesh& mesh) {
                         auto* p = b.Parameter(0, tile);
                         auto* e = b.Einsum(p, p, "mk,kn->mn");
                         auto* cp = b.CollectivePermute(
                             e, ShiftPairs(mesh, 0, 1));
                         b.computation()->set_root(
                             b.Einsum(cp, p, "mk,kn->mn"));
                     }});
    // Every hop of a 2-ring is antipodal: two async permutes and a sync
    // one pick whichever direction is free first.
    cases.push_back({"antipodal_2ring", Mesh(2),
                     [tile](HloBuilder& b, const Mesh& mesh) {
                         auto* p = b.Parameter(0, tile);
                         auto pairs = ShiftPairs(mesh, 0, 1);
                         auto* s1 = b.AsyncStart(HloOpcode::kCollectivePermute,
                                                 p, PermuteAttrs(pairs));
                         auto* s2 = b.AsyncStart(HloOpcode::kCollectivePermute,
                                                 p, PermuteAttrs(pairs));
                         auto* cp = b.CollectivePermute(p, pairs);
                         auto* d1 = b.AsyncDone(s1);
                         auto* d2 = b.AsyncDone(s2);
                         b.computation()->set_root(b.Tuple({cp, d1, d2}));
                     }});
    // A one-hop and a three-hop transfer in flight under an einsum.
    cases.push_back({"async_permute", Mesh(8),
                     [tile](HloBuilder& b, const Mesh& mesh) {
                         auto* p = b.Parameter(0, tile);
                         auto* w = b.Parameter(1, tile);
                         auto* s1 = b.AsyncStart(
                             HloOpcode::kCollectivePermute, p,
                             PermuteAttrs(ShiftPairs(mesh, 0, 1)));
                         auto* s2 = b.AsyncStart(
                             HloOpcode::kCollectivePermute, p,
                             PermuteAttrs(ShiftPairs(mesh, 0, -3)));
                         auto* e = b.Einsum(w, w, "mk,kn->mn");
                         auto* d1 = b.AsyncDone(s1);
                         auto* f = b.Einsum(d1, e, "mk,kn->mn");
                         auto* d2 = b.AsyncDone(s2);
                         b.computation()->set_root(b.Tuple({f, d2}));
                     }});
    cases.push_back({"blocking_all_gather", Mesh(4),
                     blocking(HloOpcode::kAllGather)});
    cases.push_back({"blocking_reduce_scatter", Mesh(4),
                     blocking(HloOpcode::kReduceScatter)});
    cases.push_back({"blocking_all_reduce", Mesh(4),
                     blocking(HloOpcode::kAllReduce)});
    cases.push_back({"blocking_all_to_all", Mesh(4),
                     blocking(HloOpcode::kAllToAll)});
    cases.push_back({"async_all_to_all", Mesh(4),
                     [tile](HloBuilder& b, const Mesh& mesh) {
                         auto* p = b.Parameter(0, tile);
                         auto* w = b.Parameter(1, tile);
                         auto* s = b.AsyncStart(HloOpcode::kAllToAll, p,
                                                GroupAttrs(0, mesh.Groups(0)));
                         auto* e = b.Einsum(w, w, "mk,kn->mn");
                         auto* d = b.AsyncDone(s);
                         b.computation()->set_root(
                             b.Einsum(d, e, "mk,kn->mn"));
                     }});
    // Singleton groups occupy no link.
    cases.push_back({"async_all_to_all_singleton", Mesh(4),
                     [tile](HloBuilder& b, const Mesh&) {
                         auto* p = b.Parameter(0, tile);
                         const ReplicaGroups singletons = {{0}, {1}, {2}, {3}};
                         auto* s = b.AsyncStart(HloOpcode::kAllToAll, p,
                                                GroupAttrs(0, singletons));
                         b.computation()->set_root(b.AsyncDone(s));
                     }});
    // One group over the whole 2 x 4 torus occupies every channel; it
    // queues behind an async permute on axis 1 and an async all-to-all
    // on axis 0.
    cases.push_back({"group_spanning_both_axes", Mesh(2, 4),
                     [tile](HloBuilder& b, const Mesh& mesh) {
                         auto* p = b.Parameter(0, tile);
                         auto* s = b.AsyncStart(
                             HloOpcode::kCollectivePermute, p,
                             PermuteAttrs(ShiftPairs(mesh, 1, 1)));
                         auto* a = b.AsyncStart(HloOpcode::kAllToAll, p,
                                                GroupAttrs(0, mesh.Groups(0)));
                         std::vector<int64_t> all;
                         for (int64_t d = 0; d < mesh.num_devices(); ++d) {
                             all.push_back(d);
                         }
                         auto* ar = b.AllReduce(p, ReplicaGroups({all}));
                         auto* d = b.AsyncDone(s);
                         auto* ad = b.AsyncDone(a);
                         b.computation()->set_root(b.Tuple({ar, d, ad}));
                     }});
    return cases;
}

/** A fault scenario, given the case's fault-free traced run. */
struct FaultCase {
    std::string name;
    int64_t step_index = 0;
    std::function<FaultSpec(const Mesh&, const SimResult&)> spec;
};

/** The first communication event of a trace. */
const TraceEvent&
FirstCommEvent(const SimResult& clean)
{
    for (const TraceEvent& event : clean.trace) {
        if (event.kind == TraceKind::kCollective ||
            event.kind == TraceKind::kTransferInFlight) {
            return event;
        }
    }
    ADD_FAILURE() << "no communication in the trace";
    static const TraceEvent kNone{};
    return kNone;
}

std::vector<FaultCase>
FaultCases(const HardwareSpec& hw)
{
    std::vector<FaultCase> cases;
    cases.push_back({"fault_free", 0,
                     [](const Mesh&, const SimResult&) {
                         return FaultSpec();
                     }});
    cases.push_back(
        {"derated_straggler", 0, [](const Mesh& mesh, const SimResult&) {
             FaultSpec spec;
             spec.link_faults.push_back(
                 {0, mesh.RingNeighbor(0, mesh.num_axes() - 1, 1), 0.5,
                  3.0});
             spec.link_faults.push_back(
                 {1, mesh.RingNeighbor(1, 0, -1), 0.8, 1.5});
             spec.chip_faults.push_back({1, 0.6});
             return spec;
         }});
    // Chip 1 dies halfway through the first exchange.
    cases.push_back(
        {"chip_death_mid_transfer", 0,
         [](const Mesh&, const SimResult& clean) {
             const TraceEvent& comm = FirstCommEvent(clean);
             FaultSpec spec;
             PermanentFault fault;
             fault.chip = 1;
             fault.fail_time_seconds =
                 0.5 * (comm.start_seconds + comm.end_seconds);
             spec.permanent_faults.push_back(fault);
             return spec;
         }});
    // Chip 1 dies after the first exchange's wire time but before its
    // last hop's latency has elapsed.
    cases.push_back({"chip_death_in_hop_latency", 0,
                     [hw](const Mesh&, const SimResult& clean) {
                         FaultSpec spec;
                         PermanentFault fault;
                         fault.chip = 1;
                         fault.fail_time_seconds =
                             FirstCommEvent(clean).end_seconds -
                             0.5 * hw.link_latency;
                         spec.permanent_faults.push_back(fault);
                         return spec;
                     }});
    // Link 0 -> 1 died in an earlier step: dead from time 0.
    cases.push_back({"link_death", 1, [](const Mesh&, const SimResult&) {
                         FaultSpec spec;
                         PermanentFault fault;
                         fault.link_src = 0;
                         fault.link_dst = 1;
                         spec.permanent_faults.push_back(fault);
                         return spec;
                     }});
    cases.push_back({"transient_retries", 0,
                     [](const Mesh&, const SimResult&) {
                         FaultSpec spec;
                         spec.seed = 5;
                         spec.transient_failure_probability = 0.5;
                         return spec;
                     }});
    cases.push_back({"retry_exhaustion", 0,
                     [](const Mesh&, const SimResult&) {
                         FaultSpec spec;
                         spec.transient_failure_probability = 1.0;
                         return spec;
                     }});
    // Detectors on; chip 1 corrupts the first exchange's payload.
    cases.push_back({"sdc_transfer_payload", 0,
                     [](const Mesh&, const SimResult&) {
                         FaultSpec spec;
                         spec.sdc.enabled = true;
                         SilentCorruption c;
                         c.chip = 1;
                         c.instruction = 0;
                         c.target = CorruptionTarget::kTransferPayload;
                         spec.silent_corruptions.push_back(c);
                         return spec;
                     }});
    return cases;
}

std::string
Hex(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

/** One row's lines: every outcome field, then the trace. */
std::vector<std::string>
OutcomeLines(const std::string& row, const StatusOr<StepOutcome>& outcome)
{
    if (!outcome.ok()) {
        return {StrCat(row, " error ", outcome.status().ToString())};
    }
    const SimResult& r = outcome->result;
    std::vector<std::string> lines = {
        StrCat(row, " step=", Hex(r.step_seconds),
               " exposed=", Hex(r.exposed_comm_seconds),
               " compute=", Hex(r.compute_seconds),
               " straggler=", Hex(r.straggler_stall_seconds),
               " flops=", Hex(r.einsum_flops)),
        StrCat(row, " bytes=", Hex(r.transferred_bytes),
               " async=", r.num_async_transfers,
               " blocking=", r.num_blocking_collectives,
               " peak_in_flight=", r.peak_in_flight,
               " peak_memory=", r.peak_memory_bytes),
        StrCat(row, " retry=", r.retry.retries, "/", r.retry.attempts, "/",
               Hex(r.retry.backoff_seconds),
               " checksums=", r.num_transfer_checksums,
               " abft=", r.num_abft_checks,
               " detector=", Hex(r.detector_seconds))};
    if (outcome->failed) {
        const FailureReport& f = outcome->failure;
        lines.push_back(StrCat(row, " failed ", f.ToString()));
        lines.push_back(StrCat(row, " failed at=", Hex(f.fail_time_seconds),
                               " progress=", Hex(f.last_progress_seconds),
                               " detected=", Hex(f.detected_at_seconds)));
    }
    if (outcome->sdc_injected) {
        lines.push_back(StrCat(
            row, " sdc corrupted=", outcome->corrupted ? 1 : 0,
            " escaped=", outcome->sdc_escaped ? 1 : 0, " ",
            outcome->corruption.ToString(),
            " at=", Hex(outcome->corruption_detected_at_seconds)));
    }
    for (const TraceEvent& e : r.trace) {
        lines.push_back(StrCat(row, " trace ", e.label, " ",
                               TraceKindName(e.kind), " ",
                               Hex(e.start_seconds), " ",
                               Hex(e.end_seconds)));
    }
    return lines;
}

/**
 * Must match the committed table bit for bit. Regenerate with
 * OVERLAP_REGEN_GOLDEN=1 only after an intentional change of the
 * engine's semantics.
 */
TEST(EngineOutcomeTableTest, OutcomesMatchGolden)
{
    const HardwareSpec hw;
    const std::vector<FaultCase> faults = FaultCases(hw);
    std::vector<std::string> lines;
    for (const TrafficCase& traffic : TrafficCases()) {
        HloModule module("m");
        module.set_mesh(traffic.mesh);
        HloBuilder b(module.AddEntryComputation("main"));
        traffic.build(b, traffic.mesh);
        auto clean = PodSimulator(traffic.mesh, hw).Run(
            module, /*collect_trace=*/true);
        ASSERT_TRUE(clean.ok()) << traffic.name;
        for (const FaultCase& fault : faults) {
            PodSimulator sim(traffic.mesh, hw,
                             FaultModel(fault.spec(traffic.mesh, *clean)));
            auto outcome = sim.RunStep(module, fault.step_index,
                                       /*collect_trace=*/true);
            for (std::string& line : OutcomeLines(
                     traffic.name + "/" + fault.name, outcome)) {
                lines.push_back(std::move(line));
            }
        }
    }

    if (std::getenv("OVERLAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(kOutcomeGoldenPath);
        ASSERT_TRUE(out.good()) << "cannot write " << kOutcomeGoldenPath;
        for (const std::string& line : lines) out << line << "\n";
        GTEST_SKIP() << "regenerated " << kOutcomeGoldenPath;
    }
    std::ifstream in(kOutcomeGoldenPath);
    ASSERT_TRUE(in.good()) << "missing " << kOutcomeGoldenPath;
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);) golden.push_back(line);
    for (size_t i = 0; i < std::max(lines.size(), golden.size()); ++i) {
        ASSERT_EQ(i < lines.size() ? lines[i] : "<end>",
                  i < golden.size() ? golden[i] : "<end>")
            << "engine outcome moved at line " << i + 1;
    }
}

// Every exchange kind dies by one rule: a chip death before the
// transfer's arrival kills it, one after the arrival kills nothing. For a
// permute the arrival comes one hop latency after its wire time ends, so
// a death inside that latency still kills it. A killed transfer charges
// no bytes and no retries.
TEST_F(EngineTest, OneKillRuleForEveryExchangeKind)
{
    const Mesh mesh(4);
    const Shape tile(DType::kBF16, {1024, 1024});
    const std::vector<
        std::pair<std::string, std::function<HloInstruction*(HloBuilder&)>>>
        kinds = {
            {"sync_permute",
             [&](HloBuilder& b) {
                 return b.CollectivePermute(b.Parameter(0, tile),
                                            ShiftPairs(mesh, 0, 1));
             }},
            {"async_permute",
             [&](HloBuilder& b) {
                 return b.AsyncDone(b.AsyncStart(
                     HloOpcode::kCollectivePermute, b.Parameter(0, tile),
                     PermuteAttrs(ShiftPairs(mesh, 0, 1))));
             }},
            {"blocking_all_gather",
             [&](HloBuilder& b) {
                 return b.AllGather(b.Parameter(0, tile), 0,
                                    mesh.Groups(0));
             }},
            {"async_all_to_all",
             [&](HloBuilder& b) {
                 return b.AsyncDone(
                     b.AsyncStart(HloOpcode::kAllToAll, b.Parameter(0, tile),
                                  GroupAttrs(0, mesh.Groups(0))));
             }},
        };
    for (const auto& [kind, build] : kinds) {
        HloModule module(kind);
        module.set_mesh(mesh);
        HloBuilder b(module.AddEntryComputation("main"));
        b.computation()->set_root(build(b));
        auto clean =
            PodSimulator(mesh, spec_).Run(module, /*collect_trace=*/true);
        ASSERT_TRUE(clean.ok()) << kind;
        const double arrival = FirstCommEvent(*clean).end_seconds;
        auto chip_dies_at = [&](double at) {
            FaultSpec faults;
            PermanentFault fault;
            fault.chip = 1;
            fault.fail_time_seconds = at;
            faults.permanent_faults.push_back(fault);
            return PodSimulator(mesh, spec_, FaultModel(faults))
                .RunStep(module, /*step_index=*/0);
        };

        auto before = chip_dies_at(arrival - 0.5 * spec_.link_latency);
        ASSERT_TRUE(before.ok()) << kind;
        EXPECT_TRUE(before->failed) << kind;
        EXPECT_EQ(before->failure.cause, FailureCause::kChipDeath) << kind;
        EXPECT_EQ(before->result.transferred_bytes, 0.0) << kind;
        EXPECT_EQ(before->result.retry.attempts, 0) << kind;
        EXPECT_EQ(before->result.retry.retries, 0) << kind;

        auto after = chip_dies_at(arrival + spec_.link_latency);
        ASSERT_TRUE(after.ok()) << kind;
        EXPECT_FALSE(after->failed) << kind;
        EXPECT_EQ(after->result.step_seconds, clean->step_seconds) << kind;
        EXPECT_EQ(after->result.transferred_bytes, clean->transferred_bytes)
            << kind;
    }
}

// An async pair may wrap any of the five sync exchange collectives, and
// no layer branches on which. For each kind, on a 4-ring and on the two
// 4-rings of a 2 x 4 torus, the Start/Done pair evaluates to the sync
// form's values bit for bit and, with the Done right after its Start,
// simulates to the sync form's step and exposed time.
TEST_F(EngineTest, AsyncPairOfEveryKindMatchesItsSyncForm)
{
    const HloOpcode kinds[] = {
        HloOpcode::kAllGather, HloOpcode::kReduceScatter,
        HloOpcode::kAllReduce, HloOpcode::kAllToAll,
        HloOpcode::kCollectivePermute,
    };
    const std::pair<Mesh, int64_t> rings[] = {{Mesh(4), 0}, {Mesh(2, 4), 1}};
    const Shape shape({8, 16});
    for (const auto& [mesh, axis] : rings) {
        std::vector<Tensor> values;
        for (int64_t d = 0; d < mesh.num_devices(); ++d) {
            std::vector<float> v(static_cast<size_t>(shape.num_elements()));
            for (size_t i = 0; i < v.size(); ++i) {
                v[i] = 0.37f * static_cast<float>(i) -
                       1.5f * static_cast<float>(d);
            }
            values.emplace_back(shape, std::move(v));
        }
        for (HloOpcode kind : kinds) {
            SCOPED_TRACE(StrCat(HloOpcodeName(kind), " on ", mesh.ToString()));
            const InstrAttrs attrs =
                kind == HloOpcode::kCollectivePermute
                    ? PermuteAttrs(ShiftPairs(mesh, axis, 1))
                    : GroupAttrs(kind == HloOpcode::kAllReduce ? -1 : 0,
                                 mesh.Groups(axis));
            HloModule sync("sync");
            HloModule async("async");
            for (HloModule* module : {&sync, &async}) {
                module->set_mesh(mesh);
                HloComputation* comp = module->AddEntryComputation("main");
                HloBuilder b(comp);
                auto* p = b.Parameter(0, shape);
                if (module == &sync) {
                    auto inferred = InferInstructionShape(kind, {p}, attrs);
                    ASSERT_TRUE(inferred.ok()) << inferred.status().message();
                    comp->set_root(
                        comp->AddInstruction(kind, *inferred, {p}, attrs));
                    continue;
                }
                auto* start = b.AsyncStart(kind, p, attrs);
                auto* done = b.AsyncDone(start);
                comp->set_root(done);
                EXPECT_EQ(start->collective_opcode(), kind);
                EXPECT_EQ(done->collective_opcode(), kind);
                EXPECT_EQ(start->name(),
                          StrCat(HloOpcodeName(kind), "-start.1"));
                EXPECT_EQ(done->name(), StrCat(HloOpcodeName(kind), "-done.2"));
            }
            ASSERT_TRUE(VerifyModule(sync).ok());
            ASSERT_TRUE(VerifyModule(async).ok());

            auto outputs = SpmdEvaluator(mesh).EvaluateBatch(
                {sync.entry(), async.entry()}, {values});
            ASSERT_TRUE(outputs.ok()) << outputs.status().message();
            for (int64_t d = 0; d < mesh.num_devices(); ++d) {
                EXPECT_TRUE(testing_util::BitEqual(
                    (*outputs)[0][static_cast<size_t>(d)],
                    (*outputs)[1][static_cast<size_t>(d)]))
                    << "device " << d;
            }

            PodSimulator sim(mesh, spec_);
            auto blocking = sim.Run(sync);
            auto pair = sim.Run(async);
            ASSERT_TRUE(blocking.ok()) << blocking.status().message();
            ASSERT_TRUE(pair.ok()) << pair.status().message();
            EXPECT_EQ(pair->num_async_transfers, 1);
            EXPECT_GT(blocking->step_seconds, 0.0);
            EXPECT_EQ(pair->step_seconds, blocking->step_seconds);
            EXPECT_EQ(pair->exposed_comm_seconds,
                      blocking->exposed_comm_seconds);
        }
    }
}

}  // namespace
}  // namespace overlap
