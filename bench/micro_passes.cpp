/**
 * @file
 * google-benchmark microbenchmarks of the compiler passes themselves:
 * decomposition and its §5.5 loop-timeline replay, async conversion,
 * fusion, the schedulers and their unit graph, the topological sort,
 * and the guarded pipeline's verify, input clone and rollback replay.
 * These
 * measure *compile time* of the technique (the paper's optimization runs
 * automatically during compilation), not simulated device time.
 */
#include <benchmark/benchmark.h>

#include "core/overlap_compiler.h"
#include "hlo/builder.h"
#include "hlo/verifier.h"
#include "models/step_builder.h"
#include "passes/async.h"
#include "passes/decompose.h"
#include "passes/fusion.h"
#include "passes/schedule.h"
#include "sim/loop_timeline.h"
#include "sim/sched_graph.h"
#include "support/logging.h"

namespace overlap {
namespace {

/** AllGather-einsum over the last axis of `mesh` (a ring of n). */
std::unique_ptr<HloModule>
BuildAgEinsum(const Mesh& mesh)
{
    auto module = std::make_unique<HloModule>("m");
    module->set_mesh(mesh);
    const int64_t axis = mesh.num_axes() - 1;
    const int64_t n = mesh.axis_size(axis);
    HloComputation* comp = module->AddEntryComputation("main");
    HloBuilder b(comp);
    auto* p = b.Parameter(0, Shape(DType::kBF16, {8192 / n, 4096}));
    auto* w = b.Parameter(1, Shape(DType::kBF16, {4096, 8192}));
    auto* ag = b.AllGather(p, 0, mesh.Groups(axis));
    comp->set_root(b.Einsum(ag, w, "bf,fh->bh"));
    return module;
}

std::unique_ptr<HloModule>
BuildAgEinsum(int64_t n)
{
    return BuildAgEinsum(Mesh(n));
}

/** Args: {rows, partitions}: the ring runs along a `rows` x
 *  `partitions` mesh, so rows scales the device count, not the loop. */
void
BM_DecomposeLoop(benchmark::State& state)
{
    const Mesh mesh(state.range(0), state.range(1));
    HardwareSpec spec;
    CostModel cost(spec);
    DecomposeOptions options;
    options.use_cost_model = false;
    for (auto _ : state) {
        auto module = BuildAgEinsum(mesh);
        CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
        auto stats = decomposer.Run(module->entry());
        benchmark::DoNotOptimize(stats);
    }
    state.SetLabel("mesh=" + mesh.ToString());
}
BENCHMARK(BM_DecomposeLoop)
    ->Args({1, 4})->Args({1, 16})->Args({1, 64})->Args({1, 128})
    ->Args({16, 128});

// The §5.5 gate's replay of one bidirectional AllGather loop (the
// structure the dense models' ring-128 sites get), comm-bound so that
// every tier of the walk runs. Args: {ring, in-flight budget}.
void
BM_LoopTimelinePredict(benchmark::State& state)
{
    LoopShape shape;
    shape.structure = LoopStructure::kAllGatherBidirectional;
    shape.ring = state.range(0);
    shape.max_in_flight = state.range(1);
    shape.wire_seconds = 4e-3;
    shape.hop_latency_seconds = 2e-6;
    shape.partial_seconds = 1e-3;
    shape.combine_seconds = 2e-4;
    shape.slice_seconds = 1e-4;
    shape.slices_per_partial = 1;
    shape.zeros_seconds = 5e-5;
    shape.op_overhead_seconds = 1e-5;
    for (auto _ : state) {
        LoopTimeline timeline = PredictLoopTimeline(shape);
        benchmark::DoNotOptimize(timeline);
    }
}
BENCHMARK(BM_LoopTimelinePredict)
    ->Args({8, 32})->Args({32, 32})->Args({128, 32})
    ->Args({8, 2})->Args({32, 2})->Args({128, 2})
    ->Unit(benchmark::kMicrosecond);

void
BM_FullPipelineOnLayerStep(benchmark::State& state)
{
    const ModelConfig* config = FindModel(
        state.range(0) == 0 ? "GPT_32B" : "GPT_1T");
    CompilerOptions options;
    for (auto _ : state) {
        auto module = BuildLayerStepModule(*config);
        OverlapCompiler compiler(options);
        auto report = compiler.Compile(module->get());
        benchmark::DoNotOptimize(report);
    }
    state.SetLabel(config->name);
}
BENCHMARK(BM_FullPipelineOnLayerStep)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

/** The compiled (default overlap) layer step of GPT_32B (0) or GPT_1T. */
std::unique_ptr<HloModule>
CompiledLayerStep(benchmark::State& state)
{
    const ModelConfig* config = FindModel(
        state.range(0) == 0 ? "GPT_32B" : "GPT_1T");
    auto module = std::move(BuildLayerStepModule(*config)).value();
    auto report = OverlapCompiler(CompilerOptions()).Compile(module.get());
    if (!report.ok()) state.SkipWithError(report.status().ToString().c_str());
    state.SetLabel(config->name);
    return module;
}

// The guarded pipeline's costs: one verify after every pass, and one
// clone of the (pre-decompose, much smaller) input per compile plus one
// more per rollback. BM_CloneEntry clones the compiled layer, the
// largest entry any caller clones.
void
BM_VerifyModule(benchmark::State& state)
{
    auto module = CompiledLayerStep(state);
    for (auto _ : state) {
        Status status = VerifyModule(*module);
        benchmark::DoNotOptimize(status);
    }
    state.counters["instructions"] =
        static_cast<double>(module->entry()->instruction_count());
}
BENCHMARK(BM_VerifyModule)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void
BM_CloneEntry(benchmark::State& state)
{
    auto module = CompiledLayerStep(state);
    for (auto _ : state) {
        auto clone = module->entry()->Clone();
        benchmark::DoNotOptimize(clone);
    }
}
BENCHMARK(BM_CloneEntry)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// Decompose and both async passes end with a topological sort of the
// whole entry; here the compiled layer is already in order, so every
// iteration does the same work.
void
BM_SortTopologically(benchmark::State& state)
{
    auto module = CompiledLayerStep(state);
    for (auto _ : state) {
        module->entry()->SortTopologically();
        benchmark::DoNotOptimize(module->entry()->root());
    }
    state.counters["instructions"] =
        static_cast<double>(module->entry()->instruction_count());
}
BENCHMARK(BM_SortTopologically)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// The memory-minimizing input order every scheduler starts from.
void
BM_BaselineMemorySchedule(benchmark::State& state)
{
    auto module = CompiledLayerStep(state);
    CostModel cost{HardwareSpec{}};
    SchedGraph graph(*module->entry(), cost);
    for (auto _ : state) {
        auto order = BaselineMemorySchedule(graph);
        benchmark::DoNotOptimize(order);
    }
    state.counters["units"] = static_cast<double>(graph.units().size());
}
BENCHMARK(BM_BaselineMemorySchedule)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// The unit graph every scheduler and the simulator build over the
// compiled layer.
void
BM_SchedGraph(benchmark::State& state)
{
    auto module = CompiledLayerStep(state);
    CostModel cost{HardwareSpec{}};
    for (auto _ : state) {
        SchedGraph graph(*module->entry(), cost);
        benchmark::DoNotOptimize(graph.units().data());
    }
    state.counters["instructions"] =
        static_cast<double>(module->entry()->instruction_count());
}
BENCHMARK(BM_SchedGraph)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The failure path: a pass that emits invalid HLO just before fusion, so
// the guard restores the input and replays decompose, async creation and
// the rewrites before it can fuse and schedule. Compare with
// BM_FullPipelineOnLayerStep for the price of one rollback.
void
BM_CompileWithRollback(benchmark::State& state)
{
    const ModelConfig* config = FindModel(
        state.range(0) == 0 ? "GPT_32B" : "GPT_1T");
    CompilerOptions options;
    options.extra_passes.push_back(
        {"corrupt-shapes", [](HloModule* module) -> Status {
             HloComputation* comp = module->entry();
             comp->set_root(comp->AddInstruction(
                 HloOpcode::kNegate, Shape({3, 3}), {comp->root()}));
             return Status::Ok();
         }});
    OverlapCompiler compiler(options);
    // One rollback warning per iteration would flood the output.
    const LogLevel level = GetLogLevel();
    SetLogLevel(LogLevel::kError);
    for (auto _ : state) {
        auto module = BuildLayerStepModule(*config);
        auto report = compiler.Compile(module->get());
        if (!report.ok() || report->pass_diagnostics.size() != 1) {
            state.SkipWithError("the corrupting pass was not rolled back");
            break;
        }
        benchmark::DoNotOptimize(report);
    }
    SetLogLevel(level);
    state.SetLabel(config->name);
}
BENCHMARK(BM_CompileWithRollback)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_BottomUpScheduler(benchmark::State& state)
{
    int64_t n = state.range(0);
    HardwareSpec spec;
    CostModel cost(spec);
    auto module = BuildAgEinsum(n);
    DecomposeOptions options;
    options.use_cost_model = false;
    CollectiveEinsumDecomposer decomposer(Mesh(n), &cost, options);
    (void)decomposer.Run(module->entry());
    (void)CreateAsyncCollectivePermutes(module->entry());
    for (auto _ : state) {
        auto status = ScheduleComputation(module->entry(), cost,
                                          SchedulerKind::kBottomUp);
        benchmark::DoNotOptimize(status);
    }
    state.SetLabel("partitions=" + std::to_string(n));
}
BENCHMARK(BM_BottomUpScheduler)->Arg(8)->Arg(32)->Arg(128);

void
BM_TopDownScheduler(benchmark::State& state)
{
    int64_t n = state.range(0);
    HardwareSpec spec;
    CostModel cost(spec);
    auto module = BuildAgEinsum(n);
    DecomposeOptions options;
    options.use_cost_model = false;
    CollectiveEinsumDecomposer decomposer(Mesh(n), &cost, options);
    (void)decomposer.Run(module->entry());
    (void)CreateAsyncCollectivePermutes(module->entry());
    for (auto _ : state) {
        auto status = ScheduleComputation(module->entry(), cost,
                                          SchedulerKind::kTopDown);
        benchmark::DoNotOptimize(status);
    }
    state.SetLabel("partitions=" + std::to_string(n));
}
BENCHMARK(BM_TopDownScheduler)->Arg(8)->Arg(32);

}  // namespace
}  // namespace overlap

BENCHMARK_MAIN();
