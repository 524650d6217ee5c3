#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>

#include "core/overlap_compiler.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "hlo/verifier.h"
#include "models/model_config.h"
#include "models/step_builder.h"
#include "passes/async.h"
#include "passes/decompose.h"
#include "passes/schedule.h"
#include "sim/engine.h"
#include "tensor/checksum.h"

namespace overlap {
namespace {

const char* const kScheduleGoldenPath =
    OVERLAP_TESTDATA_DIR "/paper_model_schedules.golden";

/** Builds a decomposed, async AG-einsum loop over `n` devices. */
std::unique_ptr<HloModule>
BuildLoopModule(int64_t n, const HardwareSpec& spec)
{
    auto module = std::make_unique<HloModule>("m");
    Mesh mesh(n);
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {1024, 4096}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(0));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    CostModel cost(spec);
    DecomposeOptions options;
    options.use_cost_model = false;
    options.bidirectional = false;
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    // Not OVERLAP_CHECK: Release builds compile checks out without
    // evaluating the condition, and these calls must run.
    if (!decomposer.Run(comp).ok()) return nullptr;
    if (!CreateAsyncCollectivePermutes(comp).ok()) return nullptr;
    return module;
}

/** True if `sched` places every Start before its Done with at least one
 *  compute unit in between. */
int64_t
CountOverlappedTransfers(const std::vector<HloInstruction*>& sched)
{
    int64_t overlapped = 0;
    for (size_t i = 0; i < sched.size(); ++i) {
        if (sched[i]->opcode() != HloOpcode::kCollectivePermuteStart) {
            continue;
        }
        for (size_t j = i + 1; j < sched.size(); ++j) {
            if (sched[j]->opcode() == HloOpcode::kCollectivePermuteDone &&
                sched[j]->operand(0) == sched[i]) {
                for (size_t k = i + 1; k < j; ++k) {
                    if (sched[k]->opcode() == HloOpcode::kEinsum) {
                        ++overlapped;
                        break;
                    }
                }
                break;
            }
        }
    }
    return overlapped;
}

class SchedulerTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(SchedulerTest, ProducesValidTopologicalOrder)
{
    HardwareSpec spec;
    auto module = BuildLoopModule(4, spec);
    CostModel cost(spec);
    ASSERT_TRUE(
        ScheduleComputation(module->entry(), cost, GetParam()).ok());
    EXPECT_TRUE(module->entry()->has_schedule());
    EXPECT_TRUE(VerifyModule(*module).ok());
}

TEST_P(SchedulerTest, RespectsAsyncBudget)
{
    HardwareSpec spec;
    spec.max_in_flight_async = 2;
    auto module = BuildLoopModule(8, spec);
    CostModel cost(spec);
    ASSERT_TRUE(
        ScheduleComputation(module->entry(), cost, GetParam()).ok());
    int64_t in_flight = 0;
    int64_t peak = 0;
    for (const HloInstruction* instr : module->entry()->schedule()) {
        if (instr->opcode() == HloOpcode::kCollectivePermuteStart) {
            ++in_flight;
        }
        if (instr->opcode() == HloOpcode::kCollectivePermuteDone) {
            --in_flight;
        }
        peak = std::max(peak, in_flight);
    }
    EXPECT_LE(peak, 2 + 1);  // the heuristics may exceed by one when forced
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, SchedulerTest,
                         ::testing::Values(SchedulerKind::kBaselineOnly,
                                           SchedulerKind::kBottomUp,
                                           SchedulerKind::kTopDown),
                         [](const auto& info) {
                             switch (info.param) {
                               case SchedulerKind::kBaselineOnly:
                                   return "baseline";
                               case SchedulerKind::kBottomUp:
                                   return "bottomup";
                               default:
                                   return "topdown";
                             }
                         });

TEST(ScheduleOverlapTest, BottomUpOverlapsEveryTransfer)
{
    HardwareSpec spec;
    auto module = BuildLoopModule(4, spec);
    CostModel cost(spec);
    ASSERT_TRUE(ScheduleComputation(module->entry(), cost,
                                    SchedulerKind::kBottomUp)
                    .ok());
    // 3 transfers in a 4-way loop; each should have an einsum inside its
    // start-done window.
    EXPECT_EQ(CountOverlappedTransfers(module->entry()->schedule()), 3);
}

TEST(ScheduleOverlapTest, TopDownOverlapsEveryTransfer)
{
    HardwareSpec spec;
    auto module = BuildLoopModule(4, spec);
    CostModel cost(spec);
    ASSERT_TRUE(ScheduleComputation(module->entry(), cost,
                                    SchedulerKind::kTopDown)
                    .ok());
    EXPECT_EQ(CountOverlappedTransfers(module->entry()->schedule()), 3);
}

TEST(ScheduleOverlapTest, SchedulersBeatBaselineInSimulation)
{
    HardwareSpec spec;
    CostModel cost(spec);
    double times[3];
    SchedulerKind kinds[] = {SchedulerKind::kBaselineOnly,
                             SchedulerKind::kBottomUp,
                             SchedulerKind::kTopDown};
    for (int i = 0; i < 3; ++i) {
        auto module = BuildLoopModule(8, spec);
        ASSERT_TRUE(
            ScheduleComputation(module->entry(), cost, kinds[i]).ok());
        PodSimulator sim(Mesh(8), spec);
        auto result = sim.Run(*module);
        ASSERT_TRUE(result.ok());
        times[i] = result->step_seconds;
    }
    EXPECT_LT(times[1], times[0]);  // bottom-up beats baseline order
    EXPECT_LT(times[2], times[0]);  // top-down beats baseline order
    // §6.3: bottom-up is at least as good as top-down.
    EXPECT_LE(times[1], times[2] * 1.001);
}

TEST(ScheduleTest, BaselineMemoryOrderIsDeterministic)
{
    HardwareSpec spec;
    auto m1 = BuildLoopModule(4, spec);
    auto m2 = BuildLoopModule(4, spec);
    CostModel cost(spec);
    SchedGraph g1(*m1->entry(), cost);
    SchedGraph g2(*m2->entry(), cost);
    auto o1 = BaselineMemorySchedule(g1);
    auto o2 = BaselineMemorySchedule(g2);
    ASSERT_EQ(o1.size(), o2.size());
    for (size_t i = 0; i < o1.size(); ++i) {
        EXPECT_EQ(o1[i]->id, o2[i]->id);
    }
}

/**
 * "<instructions> <FNV-1a of the newline-joined names>" of the schedule
 * the full pipeline attaches to `config`'s layer step under `options`.
 */
std::string
ScheduleFingerprint(const ModelConfig& config, const CompilerOptions& options)
{
    auto module = BuildLayerStepModule(config);
    if (!module.ok()) return "build failed: " + module.status().ToString();
    OverlapCompiler compiler(options);
    auto report = compiler.Compile(module->get());
    if (!report.ok()) return "compile failed: " + report.status().ToString();
    std::string names;
    const auto& schedule = (*module)->entry()->schedule();
    for (const HloInstruction* instr : schedule) {
        names += instr->name();
        names += '\n';
    }
    char line[64];
    std::snprintf(line, sizeof(line), "%zu %016" PRIx64, schedule.size(),
                  BytesChecksum(reinterpret_cast<const uint8_t*>(names.data()),
                                names.size()));
    return line;
}

/**
 * Every Table 1 / Table 2 model x {baseline, default overlap}, plus the
 * top-down scheduler on a dense and an MoE model, must schedule exactly
 * the instruction sequence in the committed golden: scheduler and
 * verifier speed-ups must not move a single instruction. Regenerate with
 * OVERLAP_REGEN_GOLDEN=1 only after an intentional change of schedule.
 */
TEST(ScheduleGoldenTest, PaperModelSchedulesMatchGolden)
{
    std::vector<ModelConfig> models = Table1Models();
    std::set<std::string> seen;
    for (const ModelConfig& m : models) seen.insert(m.name);
    for (const ModelConfig& m : Table2GptModels()) {
        if (seen.insert(m.name).second) models.push_back(m);
    }
    CompilerOptions top_down;
    top_down.scheduler = SchedulerKind::kTopDown;
    std::map<std::string, std::string> fingerprints;
    for (const ModelConfig& m : models) {
        fingerprints[m.name + "/baseline"] =
            ScheduleFingerprint(m, CompilerOptions::Baseline());
        fingerprints[m.name + "/overlap"] =
            ScheduleFingerprint(m, CompilerOptions());
        if (m.name == "GPT_32B" || m.name == "GLaM_1T") {
            fingerprints[m.name + "/topdown"] =
                ScheduleFingerprint(m, top_down);
        }
    }

    if (std::getenv("OVERLAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(kScheduleGoldenPath);
        ASSERT_TRUE(out.good()) << "cannot write " << kScheduleGoldenPath;
        for (const auto& [label, fingerprint] : fingerprints) {
            out << label << " " << fingerprint << "\n";
        }
        GTEST_SKIP() << "regenerated " << kScheduleGoldenPath;
    }

    std::ifstream in(kScheduleGoldenPath);
    ASSERT_TRUE(in.good()) << "missing " << kScheduleGoldenPath;
    std::map<std::string, std::string> golden;
    std::string label;
    std::string fingerprint;
    while (in >> label && std::getline(in >> std::ws, fingerprint)) {
        golden[label] = fingerprint;
    }
    EXPECT_EQ(golden.size(), fingerprints.size());
    for (const auto& [name, value] : fingerprints) {
        auto it = golden.find(name);
        ASSERT_NE(it, golden.end()) << name << " missing from the golden";
        EXPECT_EQ(value, it->second) << name << ": schedule moved";
    }
}

}  // namespace
}  // namespace overlap
