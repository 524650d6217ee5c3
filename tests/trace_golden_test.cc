/**
 * @file
 * Golden-trace schema tests (DESIGN.md §13): a tiny fixed model goes
 * through the full pipeline with tracing on, and the unified trace must
 * keep its shape — the compiler lane lists the pipeline passes in
 * order, simulator events pair every async Start with its Done-wait
 * inside the in-flight window, the export names exactly the compiler
 * and simulator processes, and the set of simulator event names
 * matches the golden list committed under tests/golden/.
 *
 * The golden check pins *names and kinds*, never timestamps; regenerate
 * with OVERLAP_REGEN_GOLDEN=1 after an intentional schema change.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "sim/engine.h"
#include "sim/trace_export.h"
#include "spmd/spmd_builder.h"

namespace overlap {
namespace {

const char* const kGoldenPath =
    OVERLAP_TESTDATA_DIR "/trace_events.golden";

/** The fixed two-layer MLP every golden assertion runs against. */
std::unique_ptr<HloModule>
BuildFixture(const Mesh& mesh)
{
    auto module = std::make_unique<HloModule>("mlp");
    module->set_mesh(mesh);
    HloComputation* comp = module->AddEntryComputation("main");
    SpmdBuilder spmd(comp, mesh);

    const int64_t kB = 8, kF = 8, kH = 16;
    TensorSharding act_sh = TensorSharding::OnDims(2, 0, 1, 1, 0);
    TensorSharding w1_sh = TensorSharding::OnDims(2, 0, 1, 1, 0);
    TensorSharding w2_sh = TensorSharding::OnDims(2, 0, 0, 1, 1);
    auto x = spmd.Parameter(0, Shape({kB, kF}), act_sh, "x");
    auto w1 = spmd.Parameter(1, Shape({kF, kH}), w1_sh, "w1");
    auto w2 = spmd.Parameter(2, Shape({kH, kF}), w2_sh, "w2");
    auto h = spmd.Einsum(*x, *w1, "bf,fh->bh",
                         TensorSharding::OnDims(2, 0, 1, 1, 0));
    auto y = spmd.Einsum(*h, *w2, "bh,hf->bf", act_sh);
    comp->set_root(y->local);
    return module;
}

const char*
KindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::kCompute: return "compute";
      case TraceKind::kCollective: return "collective";
      case TraceKind::kTransferWait: return "transfer_wait";
      case TraceKind::kTransferInFlight: return "transfer_in_flight";
    }
    return "unknown";
}

/** Compiles the fixture (every site decomposed) and simulates it with
 * tracing; also returns the compile report for the pass lane. */
struct TracedRun {
    std::unique_ptr<HloModule> module;
    CompileReport compile;
    SimResult sim;
};

TracedRun
RunTraced()
{
    TracedRun run;
    run.module = BuildFixture(Mesh(2, 4));
    CompilerOptions options;
    options.decompose.use_cost_model = false;  // deterministic rewrites
    OverlapCompiler compiler(options);
    auto compile = compiler.Compile(run.module.get());
    EXPECT_TRUE(compile.ok()) << compile.status().ToString();
    run.compile = std::move(compile).value();

    PodSimulator simulator(*run.module->mesh(), options.hardware);
    auto sim = simulator.Run(*run.module, /*collect_trace=*/true);
    EXPECT_TRUE(sim.ok()) << sim.status().ToString();
    run.sim = std::move(sim).value();
    return run;
}

TEST(TraceGoldenTest, CompilerLaneListsPipelinePassesInOrder)
{
    TracedRun run = RunTraced();
    const std::vector<std::string> expected = {
        "decompose", "async-permute-creation", "concat-fusion-rewrites",
        "fusion", "schedule"};
    ASSERT_EQ(run.compile.pass_timings.size(), expected.size());
    double cursor = 0.0;
    for (size_t i = 0; i < expected.size(); ++i) {
        const PassTiming& t = run.compile.pass_timings[i];
        EXPECT_EQ(t.pass_name, expected[i]);
        // Offsets are relative to Compile() start and passes run
        // back-to-back: each span begins at or after the previous end.
        EXPECT_GE(t.start_seconds, cursor);
        EXPECT_GE(t.end_seconds, t.start_seconds);
        EXPECT_GT(t.instructions_before, 0);
        EXPECT_GT(t.instructions_after, 0);
        cursor = t.end_seconds;
    }
}

TEST(TraceGoldenTest, SimulatorEventsAreWellFormed)
{
    TracedRun run = RunTraced();
    ASSERT_FALSE(run.sim.trace.empty());
    int64_t in_flight = 0;
    int64_t collectives = 0;
    for (const TraceEvent& ev : run.sim.trace) {
        EXPECT_FALSE(ev.label.empty());
        EXPECT_GE(ev.end_seconds, ev.start_seconds) << ev.label;
        EXPECT_GE(ev.start_seconds, 0.0) << ev.label;
        switch (ev.kind) {
          case TraceKind::kTransferInFlight:
              ++in_flight;
              EXPECT_NE(ev.label.find("collective-permute-start"),
                        std::string::npos)
                  << ev.label;
              break;
          case TraceKind::kTransferWait:
              EXPECT_NE(ev.label.find("collective-permute-done"),
                        std::string::npos)
                  << ev.label;
              break;
          case TraceKind::kCollective:
              ++collectives;
              break;
          case TraceKind::kCompute:
              break;
        }
    }
    // Every async Start issued by the schedule shows up as exactly one
    // in-flight span, and blocking collectives match the sim counters.
    EXPECT_EQ(in_flight, run.sim.num_async_transfers);
    EXPECT_EQ(collectives, run.sim.num_blocking_collectives);
    EXPECT_GT(in_flight, 0);  // the forced pipeline decomposed something
}

TEST(TraceGoldenTest, EveryDoneWaitNestsInsideAnInFlightWindow)
{
    TracedRun run = RunTraced();
    struct Window {
        double begin;
        double end;
    };
    std::vector<Window> windows;
    for (const TraceEvent& ev : run.sim.trace) {
        if (ev.kind == TraceKind::kTransferInFlight) {
            windows.push_back({ev.start_seconds, ev.end_seconds});
        }
    }
    // In-flight spans cover Start issue .. arrival, so a stall at the
    // matching Done can never poke outside every window (the invariant
    // the overlap report's hidden = total − exposed arithmetic needs).
    constexpr double kTol = 1e-12;
    for (const TraceEvent& ev : run.sim.trace) {
        if (ev.kind != TraceKind::kTransferWait) continue;
        bool contained = false;
        for (const Window& w : windows) {
            if (ev.start_seconds >= w.begin - kTol &&
                ev.end_seconds <= w.end + kTol) {
                contained = true;
                break;
            }
        }
        EXPECT_TRUE(contained)
            << ev.label << " [" << ev.start_seconds << ", "
            << ev.end_seconds << ") escapes every in-flight window";
    }
}

TEST(TraceGoldenTest, SimulatorEventNamesMatchGoldenList)
{
    TracedRun run = RunTraced();
    std::set<std::string> names;
    for (const TraceEvent& ev : run.sim.trace) {
        names.insert(std::string(KindName(ev.kind)) + " " + ev.label);
    }

    if (std::getenv("OVERLAP_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(kGoldenPath);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
        for (const std::string& name : names) out << name << "\n";
        GTEST_SKIP() << "regenerated " << kGoldenPath;
    }

    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in.good())
        << "missing " << kGoldenPath
        << " — run with OVERLAP_REGEN_GOLDEN=1 to create it";
    std::set<std::string> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) golden.insert(line);
    }
    // Set comparison with named diffs: schema drift should say exactly
    // which event appeared or vanished.
    for (const std::string& name : names) {
        EXPECT_TRUE(golden.count(name) > 0)
            << "event not in golden list (regenerate with "
               "OVERLAP_REGEN_GOLDEN=1 if intentional): "
            << name;
    }
    for (const std::string& name : golden) {
        EXPECT_TRUE(names.count(name) > 0)
            << "golden event missing from trace: " << name;
    }
}

TEST(TraceGoldenTest, UnifiedExportNamesCompilerAndSimulatorProcesses)
{
    TracedRun run = RunTraced();
    UnifiedTrace unified;
    unified.passes = run.compile.pass_timings;
    unified.sim = &run.sim;
    std::string json = UnifiedTraceToChromeJson(unified);
    EXPECT_NE(json.find("\"compiler\""), std::string::npos);
    EXPECT_NE(json.find("\"simulator:"), std::string::npos);
    // Exactly the two processes: compiler (pid 0) and simulator (pid 1).
    EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
    EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
    EXPECT_EQ(json.find("\"pid\":2"), std::string::npos);
}

}  // namespace
}  // namespace overlap
