#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <span>
#include <string>

#include "core/overlap_compiler.h"
#include "core/pod_runner.h"
#include "hlo/builder.h"
#include "hlo/module.h"
#include "hlo/verifier.h"
#include "models/fault_presets.h"
#include "models/model_config.h"
#include "models/step_builder.h"
#include "passes/async.h"
#include "passes/decompose.h"
#include "passes/schedule.h"
#include "sim/engine.h"
#include "tensor/checksum.h"
#include "test_util.h"

namespace overlap {
namespace {

using testing_util::MoeSweepModel;
using testing_util::PaperModels;

const char* const kScheduleGoldenPath =
    OVERLAP_TESTDATA_DIR "/paper_model_schedules.golden";
const char* const kOutcomeGoldenPath =
    OVERLAP_TESTDATA_DIR "/simulated_outcomes.golden";
const char* const kSiteDecisionGoldenPath =
    OVERLAP_TESTDATA_DIR "/site_decisions.golden";

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
    if (!CreateAsyncPairs(comp, HloOpcode::kCollectivePermute).ok()) {
        return nullptr;
    }
    return module;
}

/** True if `sched` places every Start before its Done with at least one
 *  compute unit in between. */
int64_t
CountOverlappedTransfers(const std::vector<HloInstruction*>& sched)
{
    int64_t overlapped = 0;
    for (size_t i = 0; i < sched.size(); ++i) {
        if (sched[i]->opcode() != HloOpcode::kAsyncStart) continue;
        for (size_t j = i + 1; j < sched.size(); ++j) {
            if (sched[j]->opcode() == HloOpcode::kAsyncDone &&
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

/** The most async transfers `schedule` has outstanding at once. */
int64_t
PeakInFlight(const std::vector<HloInstruction*>& schedule)
{
    int64_t in_flight = 0;
    int64_t peak = 0;
    for (const HloInstruction* instr : schedule) {
        if (instr->opcode() == HloOpcode::kAsyncStart) ++in_flight;
        if (instr->opcode() == HloOpcode::kAsyncDone) --in_flight;
        peak = std::max(peak, in_flight);
    }
    return peak;
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
    EXPECT_LE(PeakInFlight(module->entry()->schedule()), 2);
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

/** One compile the golden tests below pin: a label, a model, options. */
struct GoldenCompile {
    std::string label;
    ModelConfig config;
    CompilerOptions options;
};

/**
 * Every Table 1 / Table 2 model x {baseline, default overlap}, plus the
 * top-down scheduler on a dense and an MoE model, the decomposition
 * without unrolling and a two-transfer in-flight budget on dense
 * models, and one moe_sweep point under its three AllToAll arms
 * (blocking, ring-decomposed, micro-batch pipelined).
 */
std::vector<GoldenCompile>
GoldenCompiles()
{
    CompilerOptions top_down;
    top_down.scheduler = SchedulerKind::kTopDown;
    CompilerOptions no_unroll;
    no_unroll.decompose.unroll = false;
    CompilerOptions budget2;
    budget2.hardware.max_in_flight_async = 2;
    std::vector<GoldenCompile> compiles;
    for (const ModelConfig& m : PaperModels()) {
        compiles.push_back(
            {m.name + "/baseline", m, CompilerOptions::Baseline()});
        compiles.push_back({m.name + "/overlap", m, CompilerOptions()});
        if (m.name == "GPT_32B" || m.name == "GLaM_1T") {
            compiles.push_back({m.name + "/topdown", m, top_down});
        }
        if (m.name == "GPT_32B") {
            compiles.push_back({m.name + "/no_unroll", m, no_unroll});
        }
        if (m.name == "GPT_64B") {
            compiles.push_back({m.name + "/budget2", m, budget2});
        }
    }
    CompilerOptions blocking;
    blocking.decompose.all_to_all = false;
    CompilerOptions pipelined = blocking;
    pipelined.async_all_to_all = true;
    const ModelConfig moe = MoeSweepModel(1);
    compiles.push_back({moe.name + "/blocking", moe, blocking});
    compiles.push_back({moe.name + "/decomposed", moe, CompilerOptions()});
    compiles.push_back({moe.name + "/pipelined", MoeSweepModel(4), pipelined});
    return compiles;
}

/**
 * The in-flight budget is a bound, not a preference: under budgets 1, 2,
 * 3 and 32, no schedule of any GoldenCompiles() entry ever has more
 * Starts outstanding than the budget, and the two-transfer budget's
 * dense compile simulates.
 */
TEST(ScheduleTest, InFlightBudgetBoundsOutstandingStarts)
{
    for (int64_t budget : {1, 2, 3, 32}) {
        for (const GoldenCompile& c : GoldenCompiles()) {
            CompilerOptions options = c.options;
            options.hardware.max_in_flight_async = budget;
            auto module = BuildLayerStepModule(c.config);
            ASSERT_TRUE(module.ok()) << c.label;
            ASSERT_TRUE(OverlapCompiler(options).Compile(module->get()).ok())
                << c.label;
            EXPECT_LE(PeakInFlight((*module)->entry()->schedule()), budget)
                << c.label << " under budget " << budget;
        }
    }
    for (const GoldenCompile& c : GoldenCompiles()) {
        if (c.label != "GPT_64B/budget2") continue;
        auto step = SimulateModelStep(c.config, c.options);
        EXPECT_TRUE(step.ok()) << step.status().ToString();
    }
}

/**
 * Every GoldenCompiles() entry must schedule exactly the instruction
 * sequence in the committed golden: scheduler and verifier speed-ups
 * must not move a single instruction. Regenerate with
 * OVERLAP_REGEN_GOLDEN=1 only after an intentional change of schedule.
 */
TEST(ScheduleGoldenTest, PaperModelSchedulesMatchGolden)
{
    std::map<std::string, std::string> fingerprints;
    for (const GoldenCompile& c : GoldenCompiles()) {
        fingerprints[c.label] = ScheduleFingerprint(c.config, c.options);
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

std::string
Hex(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

/**
 * Rewrites the golden at `path` from `lines` when OVERLAP_REGEN_GOLDEN
 * is set (and returns true); otherwise expects `lines` to match it line
 * for line.
 */
bool
RegenerateOrCompare(const char* path, const std::vector<std::string>& lines)
{
    if (std::getenv("OVERLAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path);
        EXPECT_TRUE(out.good()) << "cannot write " << path;
        for (const std::string& line : lines) out << line << "\n";
        return true;
    }
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::vector<std::string> golden;
    for (std::string line; std::getline(in, line);) golden.push_back(line);
    for (size_t i = 0; i < std::max(lines.size(), golden.size()); ++i) {
        EXPECT_EQ(i < lines.size() ? lines[i] : "<end>",
                  i < golden.size() ? golden[i] : "<end>")
            << path << " moved at line " << i + 1;
    }
    return false;
}

/**
 * The simulated outcome of every GoldenCompiles() entry, one field per
 * line ("<label> <field> <value>"; doubles as %a, counts in decimal),
 * must match the committed table. A compile the simulator refuses
 * records its error text up to the first instruction name. Unlike the schedule fingerprint it
 * does not read instruction names, so a compile-side change that only
 * renames or merges instructions must leave every line but possibly
 * peak_memory_bytes in place. Regenerate with OVERLAP_REGEN_GOLDEN=1
 * only after an intentional change of simulated numbers.
 */
TEST(SimulatedOutcomeTableTest, OutcomesMatchGolden)
{
    std::vector<std::string> lines;
    for (const GoldenCompile& c : GoldenCompiles()) {
        auto step = SimulateModelStep(c.config, c.options);
        if (!step.ok()) {
            // Up to the first quoted instruction name: names are not
            // part of the outcome.
            const std::string error = step.status().ToString();
            lines.push_back(c.label + " error " +
                            error.substr(0, error.find(" '")));
            continue;
        }
        const SimResult& r = step->layer;
        lines.push_back(c.label + " step_seconds " + Hex(r.step_seconds));
        lines.push_back(c.label + " compute_seconds " +
                        Hex(r.compute_seconds));
        lines.push_back(c.label + " exposed_comm_seconds " +
                        Hex(r.exposed_comm_seconds));
        lines.push_back(c.label + " transferred_bytes " +
                        Hex(r.transferred_bytes));
        lines.push_back(c.label + " peak_in_flight " +
                        std::to_string(r.peak_in_flight));
        lines.push_back(c.label + " peak_memory_bytes " +
                        std::to_string(r.peak_memory_bytes));
    }

    if (RegenerateOrCompare(kOutcomeGoldenPath, lines)) {
        GTEST_SKIP() << "regenerated " << kOutcomeGoldenPath;
    }
}

/**
 * One line per field of every SiteDecision (doubles as %a) and one per
 * DecomposeStats counter that `label`'s compile produced.
 */
void
AppendDecisionLines(const std::string& label, const ModelConfig& config,
                    const CompilerOptions& options,
                    std::vector<std::string>* lines)
{
    auto module = BuildLayerStepModule(config);
    if (!module.ok()) {
        lines->push_back(label + " build failed");
        return;
    }
    auto report = OverlapCompiler(options).Compile(module->get());
    if (!report.ok()) {
        lines->push_back(label + " compile failed");
        return;
    }
    const DecomposeStats& stats = report->decompose;
    for (size_t i = 0; i < stats.decisions.size(); ++i) {
        const SiteDecision& d = stats.decisions[i];
        const GateCost& c = d.cost;
        const LoopShape& s = c.shape;
        lines->push_back(StrCat(
            label, " site ", i, " ", d.collective, " ", d.einsum, " ",
            d.reason, " decomposed=", d.decomposed ? 1 : 0,
            " lowered=", d.lowered_to_unidirectional ? 1 : 0,
            " group=", d.loop_group, " ", LoopStructureName(s.structure),
            " nominal=", Hex(d.benefit_nominal), " comp=", Hex(c.comp_t),
            " comm=", Hex(c.comm_t), " ring=", Hex(c.comm_t_ring),
            " extra=", Hex(c.extra_t),
            " hidden=", Hex(c.predicted_hidden_fraction),
            " margin=", Hex(c.margin)));
        lines->push_back(StrCat(
            label, " shape ", i, " n=", s.ring, " wire=",
            Hex(s.wire_seconds), " hop=", Hex(s.hop_latency_seconds),
            " partial=", Hex(s.partial_seconds),
            " combine=", Hex(s.combine_seconds),
            " slice=", Hex(s.slice_seconds), "x", s.slices_per_partial,
            " zeros=", Hex(s.zeros_seconds), "x", s.accumulators,
            " copy=", Hex(s.copy_seconds), s.has_copies ? "+" : "-",
            " oh=", Hex(s.op_overhead_seconds),
            " send=", Hex(s.send_slice_seconds),
            " full_add=", s.combine_is_full_add ? 1 : 0,
            " budget=", s.max_in_flight,
            " fused=", Hex(s.fused_discount)));
    }
    lines->push_back(StrCat(
        label, " stats ag=", stats.allgather_sites,
        " rs=", stats.reduce_scatter_sites, " a2a=", stats.all_to_all_sites,
        " rejected=", stats.rejected_by_cost_model,
        " skipped=", stats.skipped_unsupported,
        " fallbacks=", stats.fault_fallbacks,
        " lowered=", stats.fault_lowered));
}

/**
 * bench/fault_sweep's compiles of GPT_32B under its seven fault specs
 * (one ring link of mesh axis 0 at 1.0 ... 0.05 of its bandwidth, with
 * the sweep's seed and per-trial jitter) and of GPT_1T (rings of 128)
 * under its 0.4 spec, each with the gate on ("/fault") and off
 * ("/forced_fault"). They are the only compiles that reach the gate's
 * unidirectional lowering and its fallback to the blocking collective.
 */
std::vector<GoldenCompile>
FaultCompiles()
{
    const ModelConfig gpt_32b = Table2GptModels()[0];
    std::vector<std::pair<ModelConfig, double>> faults;
    for (double severity : {1.0, 0.8, 0.6, 0.4, 0.25, 0.1, 0.05}) {
        faults.emplace_back(gpt_32b, severity);
    }
    faults.emplace_back(*FindModel("GPT_1T"), 0.4);
    std::vector<GoldenCompile> compiles;
    for (const auto& [model, severity] : faults) {
        CompilerOptions options;
        if (severity < 1.0) {
            options.fault =
                SingleDegradedLink(model.mesh(), /*axis=*/0, severity).spec;
        }
        options.fault.seed = 13;
        options.fault.link_jitter = 0.02;
        options.fault.compute_jitter = 0.01;
        compiles.push_back(
            {StrCat(model.name, "/fault", severity), model, options});
        // Without the gate every site is decomposed as configured,
        // ranked by that structure's fault-derated cost.
        options.decompose.use_cost_model = false;
        compiles.push_back(
            {StrCat(model.name, "/forced_fault", severity), model, options});
    }
    return compiles;
}

/** GoldenCompiles() followed by FaultCompiles(). */
std::vector<GoldenCompile>
GateCompiles()
{
    std::vector<GoldenCompile> compiles = GoldenCompiles();
    for (GoldenCompile& c : FaultCompiles()) compiles.push_back(std::move(c));
    return compiles;
}

/**
 * Every §5.5 gate verdict of every GateCompiles() entry must match the
 * committed table: the matched sites, the structure each is costed as,
 * every cost term, the loop group and the pass's counters.
 * Regenerate with OVERLAP_REGEN_GOLDEN=1 only after an intentional
 * change of the gate or the matchers.
 */
TEST(SiteDecisionTableTest, DecisionsMatchGolden)
{
    std::vector<std::string> lines;
    for (const GoldenCompile& c : GateCompiles()) {
        AppendDecisionLines(c.label, c.config, c.options, &lines);
    }
    if (RegenerateOrCompare(kSiteDecisionGoldenPath, lines)) {
        GTEST_SKIP() << "regenerated " << kSiteDecisionGoldenPath;
    }
}

/**
 * No verdict of any GateCompiles() entry records a benefit above its
 * replay-free bound, the premise on which the gate skips the replay of
 * candidates that cannot win.
 */
TEST(SiteDecisionTableTest, BenefitNeverExceedsItsBound)
{
    for (const GoldenCompile& c : GateCompiles()) {
        auto module = BuildLayerStepModule(c.config);
        ASSERT_TRUE(module.ok()) << c.label;
        auto report = OverlapCompiler(c.options).Compile(module->get());
        ASSERT_TRUE(report.ok()) << c.label;
        for (const SiteDecision& d : report->decompose.decisions) {
            EXPECT_LE(d.cost.Benefit(), d.cost.BenefitBound())
                << c.label << " " << d.collective;
        }
    }
}

/** A unit as the graph was first built: one heap object per unit. */
struct ReferenceUnit {
    std::vector<const HloInstruction*> members;
    std::vector<int64_t> operands;
    std::vector<int64_t> users;
    double latency = 0.0;
    double transfer_seconds = 0.0;
    int64_t loop_group = -1;
};

/**
 * The unit graph built the straightforward way: fusion groups through a
 * std::map, edges deduplicated with std::find. SchedGraph's flat arrays
 * must reproduce it exactly.
 */
std::vector<ReferenceUnit>
ReferenceGraph(const HloComputation& computation, const CostModel& cost)
{
    std::vector<ReferenceUnit> units;
    std::map<int64_t, int64_t> group_units;
    std::map<const HloInstruction*, int64_t> unit_of;
    for (const HloInstruction* instr : computation.instructions()) {
        int64_t unit = -1;
        if (instr->fusion_group() >= 0) {
            auto it = group_units.find(instr->fusion_group());
            if (it != group_units.end()) unit = it->second;
        }
        if (unit < 0) {
            unit = static_cast<int64_t>(units.size());
            units.emplace_back();
            if (instr->fusion_group() >= 0) {
                group_units[instr->fusion_group()] = unit;
            }
        }
        ReferenceUnit& u = units[static_cast<size_t>(unit)];
        u.members.push_back(instr);
        if (instr->loop_group() >= 0) u.loop_group = instr->loop_group();
        unit_of[instr] = unit;
    }
    for (ReferenceUnit& u : units) {
        const bool fused = u.members.size() > 1;
        for (const HloInstruction* instr : u.members) {
            double t = cost.InstructionSeconds(instr);
            if (fused && instr->opcode() != HloOpcode::kEinsum) {
                t *= SchedGraph::kFusedElementwiseDiscount;
            }
            u.latency += t;
        }
        if (fused) continue;  // only a singleton is an async half
        const HloOpcode head = u.members[0]->opcode();
        if (IsAsyncDone(head)) u.latency = 0.0;
        if (IsAsyncStart(head) || IsAsyncDone(head)) {
            const HloInstruction* start = IsAsyncStart(head)
                                              ? u.members[0]
                                              : u.members[0]->operand(0);
            u.transfer_seconds =
                start->collective_opcode() == HloOpcode::kCollectivePermute
                    ? cost.PermuteStepSeconds(start->shape().byte_size())
                    : cost.BlockingCollectiveSeconds(start);
        }
    }
    for (size_t id = 0; id < units.size(); ++id) {
        ReferenceUnit& u = units[id];
        for (const HloInstruction* instr : u.members) {
            for (const HloInstruction* operand : instr->operands()) {
                int64_t producer = unit_of.at(operand);
                if (producer == static_cast<int64_t>(id)) continue;
                if (std::find(u.operands.begin(), u.operands.end(),
                              producer) == u.operands.end()) {
                    u.operands.push_back(producer);
                    units[static_cast<size_t>(producer)].users.push_back(
                        static_cast<int64_t>(id));
                }
            }
        }
    }
    return units;
}

std::vector<int64_t>
UnitIds(std::span<const SchedUnit* const> units)
{
    std::vector<int64_t> ids;
    for (const SchedUnit* unit : units) ids.push_back(unit->id);
    return ids;
}

/** Checks `computation`'s SchedGraph field by field against the
 *  reference construction. */
void
ExpectMatchesReference(const HloComputation& computation,
                       const std::string& label)
{
    SCOPED_TRACE(label);
    CostModel cost{HardwareSpec{}};
    SchedGraph graph(computation, cost);
    std::vector<ReferenceUnit> reference = ReferenceGraph(computation, cost);
    ASSERT_EQ(graph.units().size(), reference.size());
    for (size_t id = 0; id < reference.size(); ++id) {
        const SchedUnit& unit = graph.units()[id];
        const ReferenceUnit& want = reference[id];
        ASSERT_EQ(unit.id, static_cast<int64_t>(id));
        ASSERT_EQ(std::vector<const HloInstruction*>(unit.members.begin(),
                                                     unit.members.end()),
                  want.members)
            << "unit " << id;
        ASSERT_EQ(UnitIds(unit.operands), want.operands) << "unit " << id;
        ASSERT_EQ(UnitIds(unit.users), want.users) << "unit " << id;
        ASSERT_EQ(unit.latency, want.latency) << "unit " << id;
        ASSERT_EQ(unit.transfer_seconds, want.transfer_seconds)
            << "unit " << id;
        ASSERT_EQ(unit.loop_group, want.loop_group) << "unit " << id;
        ASSERT_EQ(unit.output_bytes,
                  want.members.back()->shape().byte_size())
            << "unit " << id;
        for (const HloInstruction* member : want.members) {
            ASSERT_EQ(graph.unit_of(member), &unit);
        }
    }
}

/** Compiles `config`'s layer step under `options` and checks its graph. */
void
ExpectCompiledMatchesReference(const ModelConfig& config,
                               const CompilerOptions& options,
                               const std::string& label)
{
    auto module = BuildLayerStepModule(config);
    ASSERT_TRUE(module.ok()) << module.status().ToString();
    auto report = OverlapCompiler(options).Compile(module->get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectMatchesReference(*(*module)->entry(), config.name + "/" + label);
}

/**
 * Every Table 1/2 layer x {baseline, overlap} and the moe_sweep grid
 * under its three AllToAll arms, compiled: the flat graph has the same
 * ids, member, operand and user order, latencies, transfer times, loop
 * groups and output bytes as the reference, so every schedule built on
 * it is unchanged. One compiled layer with its fusion group ids spread
 * far past the instruction count covers the renumbering of sparse ids.
 */
TEST(SchedGraphTest, MatchesReferenceOnEveryModelLayer)
{
    for (const ModelConfig& m : PaperModels()) {
        ExpectCompiledMatchesReference(m, CompilerOptions::Baseline(),
                                       "baseline");
        ExpectCompiledMatchesReference(m, CompilerOptions(), "overlap");
    }
    CompilerOptions blocking;
    blocking.decompose.all_to_all = false;
    CompilerOptions pipelined = blocking;
    pipelined.async_all_to_all = true;
    for (int64_t mesh_y : {4, 8, 16}) {
        for (int64_t experts : {16, 64}) {
            const ModelConfig moe = MoeSweepModel(1, mesh_y, experts);
            ExpectCompiledMatchesReference(moe, blocking, "blocking");
            ExpectCompiledMatchesReference(moe, CompilerOptions(),
                                           "decomposed");
            ExpectCompiledMatchesReference(
                MoeSweepModel(4, mesh_y, experts), pipelined, "pipelined");
        }
    }

    auto module = BuildLayerStepModule(*FindModel("GPT_32B"));
    ASSERT_TRUE(module.ok());
    ASSERT_TRUE(OverlapCompiler(CompilerOptions()).Compile(module->get())
                    .ok());
    HloComputation* entry = (*module)->entry();
    int64_t fused = 0;
    for (HloInstruction* instr : entry->instructions()) {
        if (instr->fusion_group() < 0) continue;
        ++fused;
        instr->set_fusion_group(instr->fusion_group() * 1000003 + 7);
    }
    ASSERT_GT(fused, 0);
    ExpectMatchesReference(*entry, "GPT_32B/sparse fusion ids");
}

/**
 * unit_of takes an instruction by its id slot, so an instruction of
 * another computation that reuses a local id must be rejected, not
 * answered with the local instruction's unit.
 */
TEST(SchedGraphTest, ForeignInstructionSharingALocalIdIsRejected)
{
    HloComputation local("local");
    HloBuilder b(&local);
    HloInstruction* p = b.Parameter(0, Shape({4, 4}));
    local.set_root(b.Negate(p));
    HloComputation foreign("foreign");
    HloBuilder fb(&foreign);
    HloInstruction* q = fb.Parameter(0, Shape({4, 4}));
    foreign.set_root(q);
    ASSERT_EQ(q->id(), p->id());

    CostModel cost{HardwareSpec{}};
    SchedGraph graph(local, cost);
    EXPECT_EQ(graph.unit_of(p)->members[0], p);
#if OVERLAP_CHECKS_ENABLED
    EXPECT_THROW(graph.unit_of(q), std::logic_error);
#else
    GTEST_SKIP() << "OVERLAP_CHECK is compiled out in this build";
#endif
}

}  // namespace
}  // namespace overlap
