#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/overlap_report.h"
#include "difftest/difftest.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "sim/cost_model.h"
#include "sim/loop_timeline.h"

namespace overlap {
namespace {

class CostModelTest : public ::testing::Test {
  protected:
    CostModelTest() : cost_(spec_) {}

    HardwareSpec spec_;
    CostModel cost_;
    HloModule module_{"m"};
};

TEST_F(CostModelTest, EinsumScalesWithFlops)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    auto* lhs = b.Parameter(0, Shape(DType::kBF16, {512, 1024}));
    auto* rhs = b.Parameter(1, Shape(DType::kBF16, {1024, 2048}));
    auto* e = b.Einsum(lhs, rhs, "mk,kn->mn");
    double flops = 2.0 * 512 * 1024 * 2048;
    double expect =
        flops / (spec_.peak_flops * spec_.einsum_efficiency) +
        spec_.op_overhead;
    EXPECT_NEAR(cost_.EinsumSeconds(e), expect, expect * 1e-9);
}

TEST_F(CostModelTest, AllGatherUsesBidirectionalRing)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    Mesh mesh(8);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {128, 256}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    double out_bytes = 8.0 * 128 * 256 * 2;
    double expect = 7.0 * out_bytes / (8.0 * 2.0 * spec_.link_bandwidth) +
                    7.0 * spec_.link_latency;
    EXPECT_NEAR(cost_.BlockingCollectiveSeconds(ag), expect,
                expect * 1e-9);
}

TEST_F(CostModelTest, AllReduceIsTwiceReduceScatter)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    Mesh mesh(8);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {128, 256}));
    auto* rs = b.ReduceScatter(p, 0, mesh.Groups(0));
    auto* ar = b.AllReduce(p, mesh.Groups(0));
    double rs_t = cost_.BlockingCollectiveSeconds(rs);
    double ar_t = cost_.BlockingCollectiveSeconds(ar);
    EXPECT_NEAR(ar_t, 2.0 * rs_t, rs_t * 1e-6);
}

TEST_F(CostModelTest, DecomposedRingUsesHalfTheBandwidth)
{
    // §5.5: the unidirectional CollectivePermute sequence of N-1 steps
    // takes about twice the bidirectional-ring AllGather time.
    HloBuilder b(module_.AddEntryComputation("main"));
    Mesh mesh(8);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {4096, 4096}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    double ag_t = cost_.BlockingCollectiveSeconds(ag);
    double ring_t =
        cost_.RingSequenceSeconds(p->shape().byte_size(), /*steps=*/7);
    EXPECT_NEAR(ring_t / ag_t, 2.0, 0.05);
}

TEST_F(CostModelTest, PermuteStartIsFreeDoneCostsTransfer)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    auto* p = b.Parameter(0, Shape(DType::kBF16, {1024}));
    auto* start = b.AsyncStart(HloOpcode::kCollectivePermute, p,
                               PermuteAttrs({{0, 1}, {1, 0}}));
    auto* done = b.AsyncDone(start);
    EXPECT_DOUBLE_EQ(cost_.InstructionSeconds(start), 0.0);
    EXPECT_GT(cost_.InstructionSeconds(done), 0.0);
}

TEST_F(CostModelTest, ScalarIndexArithmeticIsFree)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    auto* i = b.AxisIndex(0);
    auto* j = b.Remainder(b.Add(i, b.ConstantIndex(1)),
                          b.ConstantIndex(4));
    EXPECT_DOUBLE_EQ(cost_.InstructionSeconds(j), 0.0);
}

TEST_F(CostModelTest, ElementwiseIsMemoryBound)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    auto* p = b.Parameter(0, Shape(DType::kBF16, {1024, 1024}));
    auto* add = b.Add(p, p);
    double bytes = 3.0 * 1024 * 1024 * 2;  // two reads + one write
    EXPECT_NEAR(cost_.InstructionSeconds(add),
                bytes / spec_.mem_bandwidth + spec_.op_overhead, 1e-9);
}

TEST_F(CostModelTest, AllToAllScalesWithSqrtGroup)
{
    HloBuilder b(module_.AddEntryComputation("main"));
    Mesh mesh4(4);
    Mesh mesh64(8, 8);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {4096, 64}));
    auto* a4 = b.AllToAll(p, 0, mesh4.Groups(0));
    auto* a64 = b.AllToAll(p, 0, {{0,  1,  2,  3,  4,  5,  6,  7,
                                   8,  9,  10, 11, 12, 13, 14, 15,
                                   16, 17, 18, 19, 20, 21, 22, 23,
                                   24, 25, 26, 27, 28, 29, 30, 31,
                                   32, 33, 34, 35, 36, 37, 38, 39,
                                   40, 41, 42, 43, 44, 45, 46, 47,
                                   48, 49, 50, 51, 52, 53, 54, 55,
                                   56, 57, 58, 59, 60, 61, 62, 63}});
    double t4 = cost_.BlockingCollectiveSeconds(a4);
    double t64 = cost_.BlockingCollectiveSeconds(a64);
    // sqrt(64)/sqrt(4) = 4x for the same payload.
    EXPECT_NEAR(t64 / t4, 4.0, 0.2);
}

// ---------------------------------------------------------------------
// Replay accuracy on real sites (DESIGN.md §15): the span,
// hidden-fraction and speedup predictions the §5.5 gate acts on must
// track what the traced engine simulation measures, per decomposition
// case. Runs under `ctest -L calibration`.
// ---------------------------------------------------------------------

/** The forced-decomposed compile of `spec`, graded against its own
 * traced simulation: the decomposed verdict plus the overlap-report
 * site row carrying predicted vs. simulated hidden fraction. */
struct ForcedSite {
    SiteDecision decision;
    SiteOverlapReport report_site;
};

ForcedSite
ForcedDecision(const difftest::SiteSpec& spec, const char* variant_name)
{
    ForcedSite result;
    auto variant = difftest::FindVariant(variant_name);
    EXPECT_TRUE(variant.ok());
    CompilerOptions options;
    options.decompose.use_cost_model = false;
    variant->ApplyTo(&options.decompose);
    auto site = difftest::SimulateSite(spec, options);
    EXPECT_TRUE(site.ok()) << site.status().ToString();
    auto report = BuildOverlapReport(site->compile, site->sim);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    for (const SiteDecision& d : site->compile.decompose.decisions) {
        if (d.decomposed) result.decision = d;
    }
    for (const SiteOverlapReport& site : report->sites) {
        if (site.decomposed) result.report_site = site;
    }
    EXPECT_TRUE(result.decision.decomposed)
        << spec.ToString() << ": no decomposed site";
    return result;
}

TEST(CostModelSiteTest, PredictionsMatchSimulationPerCase)
{
    // The default lowering the gate judges: on every §5.1 case of the
    // shared site space the predicted span is within 3% of the traced
    // simulation, the hidden fraction within 0.05, and the predicted
    // speedup within 0.05 of the simulated end-to-end speedup. For the
    // AG/RS cases that is bidirectional + unrolled; the A2A ring has
    // no bidirectional split (every chunk already takes its short way
    // around), so its default lowering is the uni_unroll sample — the
    // bidi variants dedup onto it in CollectReplaySamples.
    for (const difftest::SiteSpec& spec :
         difftest::OverlapReportSiteSpace()) {
        const char* default_variant =
            spec.site_case == difftest::SiteCase::kAllToAll
                ? "uni_unroll"
                : "bidi_unroll";
        auto samples =
            difftest::CollectReplaySamples({spec}, HardwareSpec());
        ASSERT_TRUE(samples.ok()) << samples.status().ToString();
        bool saw_default = false;
        for (const difftest::ReplaySample& sample : *samples) {
            if (sample.variant != default_variant) continue;
            saw_default = true;
            double err = sample.RelativeSpanError();
            EXPECT_LE(std::fabs(err), 0.03)
                << spec.ToString() << ": span error " << err;

            ForcedSite forced = ForcedDecision(spec, default_variant);
            EXPECT_NEAR(forced.report_site.PredictedSpeedup(),
                        sample.SimulatedSpeedup(), 0.05)
                << spec.ToString();

            ASSERT_TRUE(forced.report_site.has_prediction_error)
                << spec.ToString();
            EXPECT_LE(
                std::fabs(forced.report_site.hidden_fraction_error),
                0.05)
                << spec.ToString() << ": predicted hidden "
                << forced.report_site.PredictedHiddenFraction()
                << " vs simulated "
                << forced.report_site.sim_hidden_fraction;
        }
        EXPECT_TRUE(saw_default) << spec.ToString();
    }
}

TEST(CostModelSiteTest, OddExtentSitesLowerToUnidirectionalAndPredict)
{
    // Odd shard extents cannot split into two bidirectional
    // half-streams; the pass falls back to the unidirectional loop and
    // the replay must still predict that structure. Odd-extent
    // versions of the big report sites, unrolled lowering. The A2A
    // sites stay ring-eligible at any shard extent (the exchanged dim
    // is always N blocks of it) and their dispatch/combine loops are
    // themselves the odd-extent-capable structure, so they grade here
    // too rather than being skipped.
    for (difftest::SiteSpec spec : difftest::OverlapReportSiteSpace()) {
        spec.shard_extent += 1;  // 64→65, 2048→2049, 8→9, 256→257
        auto samples =
            difftest::CollectReplaySamples({spec}, HardwareSpec());
        ASSERT_TRUE(samples.ok()) << samples.status().ToString();
        bool saw_uni = false;
        for (const difftest::ReplaySample& sample : *samples) {
            LoopStructure structure = sample.cost.shape.structure;
            if (structure != LoopStructure::kAllGatherUnidirectional &&
                structure != LoopStructure::kReduceScatterSingleChain &&
                structure != LoopStructure::kReduceScatterTwoChain &&
                structure != LoopStructure::kAllToAllDispatch &&
                structure != LoopStructure::kAllToAllCombine) {
                continue;
            }
            if (sample.variant != "uni_unroll") continue;
            saw_uni = true;
            double err = sample.RelativeSpanError();
            EXPECT_LE(std::fabs(err), 0.05)
                << spec.ToString() << " (" << sample.variant
                << "): span error " << err;
        }
        EXPECT_TRUE(saw_uni) << spec.ToString();

        // The bidirectional request itself must come back as a
        // unidirectional structure: an odd shard extent cannot split
        // into two half-streams.
        auto module = difftest::BuildSiteModule(spec);
        ASSERT_TRUE(module.ok());
        CompilerOptions options;
        options.decompose.use_cost_model = false;
        auto compile = OverlapCompiler(options).Compile(module->get());
        ASSERT_TRUE(compile.ok());
        for (const SiteDecision& d : compile->decompose.decisions) {
            if (!d.decomposed) continue;
            LoopStructure structure = d.cost.shape.structure;
            EXPECT_TRUE(structure !=
                            LoopStructure::kAllGatherBidirectional &&
                        structure != LoopStructure::kAllGatherTwoWay &&
                        structure !=
                            LoopStructure::kReduceScatterBidirectional)
                << spec.ToString() << ": odd extent emitted "
                << LoopStructureName(structure);
        }
    }
}

TEST(CostModelSiteTest, ReplayResidualsStayBoundedOverTheSampleSpace)
{
    // Every (site, lowering) of the replay sample space — the six
    // overlap-report sites plus 16 generated ones — compiled with the
    // gate forced open: the replay's span, under the fixed wire scales
    // of sim/loop_timeline.cc, must track the traced simulation.
    // Measured: mean 2.7%, worst 17.9% (tiny latency-dominated
    // unidirectional loops). Both sides are deterministic, so the
    // headroom is for model changes, not noise.
    auto samples = difftest::CollectReplaySamples(
        difftest::ReplaySiteSpace(/*seed=*/11, /*generated=*/16),
        HardwareSpec());
    ASSERT_TRUE(samples.ok()) << samples.status().ToString();
    ASSERT_FALSE(samples->empty());
    std::vector<int64_t> per_structure(kNumLoopStructures, 0);
    double sum = 0.0;
    double worst = 0.0;
    for (const difftest::ReplaySample& sample : *samples) {
        double err = std::fabs(sample.RelativeSpanError());
        sum += err;
        worst = std::max(worst, err);
        ++per_structure[static_cast<size_t>(sample.cost.shape.structure)];
    }
    EXPECT_LE(sum / static_cast<double>(samples->size()), 0.05);
    EXPECT_LE(worst, 0.25);
    for (int s = 0; s < kNumLoopStructures; ++s) {
        EXPECT_GT(per_structure[static_cast<size_t>(s)], 0)
            << "no replay sample emits "
            << LoopStructureName(static_cast<LoopStructure>(s));
    }
}

/** Whether the decomposer can emit `structure` on a ring of `ring`. */
bool
RingEmittable(LoopStructure structure, int64_t ring)
{
    switch (structure) {
      case LoopStructure::kAllGatherTwoWay:
          return ring == 2;
      case LoopStructure::kAllGatherBidirectional:
      case LoopStructure::kReduceScatterBidirectional:
          return ring >= 4 && ring % 2 == 0;
      case LoopStructure::kReduceScatterTwoChain:
          return ring % 2 == 0;
      default:
          return true;
    }
}

/**
 * Per-unit cost mixes for the golden replay: comm-bound, compute-bound,
 * and one built from powers of two with zero latency, overhead and
 * fill costs, so arrivals land exactly on the device clock and on each
 * other and every tie-break of the walk decides the result.
 */
LoopShape
GoldenMix(int mix)
{
    LoopShape shape;
    switch (mix) {
      case 0:
          shape.wire_seconds = 4e-3;
          shape.hop_latency_seconds = 2e-6;
          shape.partial_seconds = 1e-3;
          shape.combine_seconds = 2e-4;
          shape.slice_seconds = 1e-4;
          shape.slices_per_partial = 1;
          shape.zeros_seconds = 5e-5;
          shape.copy_seconds = 3e-4;
          shape.op_overhead_seconds = 1e-5;
          shape.send_slice_seconds = 1.5e-4;
          break;
      case 1:
          shape.wire_seconds = 5e-4;
          shape.hop_latency_seconds = 1e-6;
          shape.partial_seconds = 6e-3;
          shape.combine_seconds = 3e-4;
          shape.zeros_seconds = 1e-4;
          shape.copy_seconds = 1e-4;
          shape.op_overhead_seconds = 2e-5;
          shape.send_slice_seconds = 5e-5;
          shape.combine_is_full_add = true;
          break;
      default:
          shape.wire_seconds = std::ldexp(1.0, -10);
          shape.partial_seconds = std::ldexp(1.0, -10);
          shape.combine_seconds = std::ldexp(1.0, -12);
          shape.slice_seconds = std::ldexp(1.0, -12);
          shape.slices_per_partial = 1;
          shape.copy_seconds = std::ldexp(1.0, -11);
          break;
    }
    return shape;
}

const char* const kLoopTimelineGoldenPath =
    OVERLAP_TESTDATA_DIR "/loop_timeline.golden";

/**
 * The §5.5 replay's exact output — span, compute, wire and exposed time
 * as hex floats — for every loop structure at every ring it can be
 * emitted at, with and without aliasing copies, in-flight budgets 1, 2
 * and 32 and three cost mixes, must match the
 * committed golden bit for bit: a faster replay must not move a single
 * gate decision. Regenerate with OVERLAP_REGEN_GOLDEN=1 only after an
 * intentional change of the replay's semantics.
 */
TEST(LoopTimelineGoldenTest, PredictionsMatchGolden)
{
    const int64_t rings[] = {2, 3, 4, 8, 16, 31, 64, 128};
    const int64_t budgets[] = {1, 2, 32};
    std::vector<std::string> lines;
    for (int s = 0; s < kNumLoopStructures; ++s) {
        auto structure = static_cast<LoopStructure>(s);
        for (int64_t ring : rings) {
            if (!RingEmittable(structure, ring)) continue;
            for (bool copies : {false, true}) {
                for (int64_t budget : budgets) {
                    for (int mix = 0; mix < 3; ++mix) {
                        LoopShape shape = GoldenMix(mix);
                        shape.structure = structure;
                        shape.ring = ring;
                        shape.has_copies = copies;
                        shape.max_in_flight = budget;
                        LoopTimeline t = PredictLoopTimeline(shape);
                        char buf[256];
                        std::snprintf(buf, sizeof(buf),
                                      "%s %lld %d %lld %d %a %a %a %a",
                                      LoopStructureName(structure),
                                      static_cast<long long>(ring),
                                      copies ? 1 : 0,
                                      static_cast<long long>(budget), mix,
                                      t.span_seconds, t.compute_seconds,
                                      t.wire_seconds, t.exposed_seconds);
                        lines.push_back(buf);
                    }
                }
            }
        }
    }

    if (std::getenv("OVERLAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(kLoopTimelineGoldenPath);
        ASSERT_TRUE(out.good()) << "cannot write " << kLoopTimelineGoldenPath;
        for (const std::string& line : lines) out << line << "\n";
        GTEST_SKIP() << "regenerated " << kLoopTimelineGoldenPath;
    }

    std::ifstream in(kLoopTimelineGoldenPath);
    ASSERT_TRUE(in.good()) << "missing " << kLoopTimelineGoldenPath;
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);) golden.push_back(line);
    ASSERT_EQ(golden.size(), lines.size());
    for (size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i], golden[i]) << "replay moved";
    }
}

}  // namespace
}  // namespace overlap
