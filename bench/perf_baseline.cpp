/**
 * @file
 * Tracked performance baseline for the execution stack (DESIGN.md §12):
 *
 *   perf_baseline [--threads N] [--quick] [--out FILE] [--json]
 *
 * Measures, on this machine:
 *   - SpmdEvaluator throughput (cases/sec) on a decomposed-loop module;
 *   - simulator throughput (SimulateModelStep steps/sec);
 *   - wall time of a 64-case difftest slice at --threads 1 vs. the
 *     requested thread count, with a byte-identical summary check;
 *   - tensor heap-allocation counts for the same evaluation with the
 *     BufferPool disabled vs. enabled (the memory-reuse win);
 *   - a per-phase breakdown of the serial evaluation (einsum seconds,
 *     collective seconds, alloc seconds) from the evaluator's phase
 *     timers, so a regression names the layer that slowed down.
 *
 * Writes the numbers as JSON to --out (default BENCH_perf.json) and to
 * stdout. Results depend on the host; hardware_concurrency is recorded,
 * and a 1-core box marks the whole run `"degenerate": true` — its
 * parallel "speedups" measure scheduling, not parallelism, and
 * perf_baseline.sh --check refuses to gate on them. `--threads` takes
 * a whole integer >= 1; an unknown argument or a malformed value exits
 * with status 2 and the usage line.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "difftest/difftest.h"
#include "interp/evaluator.h"
#include "passes/async.h"
#include "passes/decompose.h"
#include "support/thread_pool.h"
#include "tensor/buffer_pool.h"

using namespace overlap;
using namespace overlap::difftest;

namespace {

double
Now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The decomposed-loop workload the evaluator numbers run on. */
StatusOr<SiteScenario>
BuildDecomposedScenario(bool quick)
{
    SiteSpec spec;
    spec.site_case = SiteCase::kAllGatherContracting;
    spec.mesh_dims = {4};
    spec.axis = 0;
    spec.side = 0;
    spec.shard_extent = quick ? 8 : 16;
    spec.free0 = 24;
    spec.free1 = 24;
    spec.dtype = DType::kF32;
    spec.data_seed = 42;

    auto scenario = BuildSiteScenario(spec);
    if (!scenario.ok()) return scenario.status();

    auto variant = FindVariant("bidi_unroll");
    if (!variant.ok()) return variant.status();
    DecomposeOptions options;
    options.unroll = variant->unroll;
    options.bidirectional = variant->bidirectional;
    options.force_unidirectional = variant->force_unidirectional;
    options.use_cost_model = false;
    const Mesh& mesh = *scenario->module->mesh();
    CostModel cost((HardwareSpec()));
    CollectiveEinsumDecomposer decomposer(mesh, &cost, options);
    HloComputation* comp = scenario->module->entry();
    auto stats = decomposer.Run(comp);
    if (!stats.ok()) return stats.status();
    if (stats->total_decomposed() != 1) {
        return Internal("perf scenario: expected 1 decomposed site");
    }
    auto converted = CreateAsyncCollectivePermutes(comp);
    if (!converted.ok()) return converted.status();
    return scenario;
}

std::string
JsonBool(bool b)
{
    return b ? "true" : "false";
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    bool json_only = false;
    // Default to the cores this box actually has: the old
    // max(4, cores) floor quadruple-booked a 1-core CI box, and the
    // "parallel" difftest slice it timed there measured contention,
    // not speedup. --threads still overrides for deliberate
    // oversubscription experiments.
    int64_t threads = DefaultThreadCount();
    std::string out_file = "BENCH_perf.json";
    const char* usage = "usage: perf_baseline [--quick] [--json] "
                        "[--threads N] [--out FILE]\n";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--json") {
            json_only = true;
        } else if (arg == "--threads" && i + 1 < argc) {
            auto parsed = ParseFlag<int64_t>(arg, argv[++i], 1);
            if (!parsed) {
                std::fputs(usage, stderr);
                return 2;
            }
            threads = *parsed;
        } else if (arg == "--out" && i + 1 < argc) {
            out_file = argv[++i];
        } else {
            std::fprintf(stderr, "unknown argument: %s\n%s", arg.c_str(),
                         usage);
            return 2;
        }
    }

    if (!json_only) {
        bench::Banner(
            StrCat("Perf baseline: evaluator / simulator / difftest "
                   "throughput, ",
                   threads, " threads"),
            "the execution-stack numbers DESIGN.md §12 tracks");
        if (threads > DefaultThreadCount()) {
            std::printf("note: %lld threads on %lld cores — parallel "
                        "timings below measure oversubscription\n",
                        static_cast<long long>(threads),
                        static_cast<long long>(DefaultThreadCount()));
        }
    }

    // ---- 1. Evaluator throughput. ----
    auto scenario = BuildDecomposedScenario(quick);
    if (!scenario.ok()) {
        std::fprintf(stderr, "scenario: %s\n",
                     scenario.status().ToString().c_str());
        return 1;
    }
    const Mesh& mesh = *scenario->module->mesh();
    const HloComputation& comp = *scenario->module->entry();
    const int64_t eval_iters = quick ? 10 : 60;

    SpmdEvaluator serial_eval(mesh);

    // Warm the code path (and the buffer pool) before timing.
    auto serial_out = serial_eval.Evaluate(comp, scenario->params);
    if (!serial_out.ok()) {
        std::fprintf(stderr, "evaluation failed: %s\n",
                     serial_out.status().ToString().c_str());
        return 1;
    }

    double t0 = Now();
    for (int64_t i = 0; i < eval_iters; ++i) {
        auto r = serial_eval.Evaluate(comp, scenario->params);
        if (!r.ok()) return 1;
    }
    const double serial_eval_s = Now() - t0;
    const double serial_cps = eval_iters / serial_eval_s;

    if (!json_only) {
        std::printf("evaluator: %.1f cases/s serial\n", serial_cps);
    }

    // ---- 1b. Per-phase breakdown of the serial evaluation. The phase
    // timers read the clock inside the hot path, so this runs as its
    // own pass — the throughput numbers above stay untimed.
    SetEvalPhaseTimingEnabled(true);
    SetAllocTimingEnabled(true);
    ConsumeEvalPhaseSeconds();
    ConsumeAllocSeconds();
    t0 = Now();
    for (int64_t i = 0; i < eval_iters; ++i) {
        auto r = serial_eval.Evaluate(comp, scenario->params);
        if (!r.ok()) return 1;
    }
    const double phases_wall_s = Now() - t0;
    const EvalPhaseSeconds phases = ConsumeEvalPhaseSeconds();
    const double alloc_s = ConsumeAllocSeconds();
    SetEvalPhaseTimingEnabled(false);
    SetAllocTimingEnabled(false);
    if (!json_only) {
        std::printf(
            "serial phases over %lld evaluations: einsum %.1fms, "
            "collective %.1fms, alloc %.1fms, other %.1fms "
            "(wall %.1fms)\n",
            static_cast<long long>(eval_iters), phases.einsum_seconds * 1e3,
            phases.collective_seconds * 1e3, alloc_s * 1e3,
            (phases_wall_s - phases.einsum_seconds -
             phases.collective_seconds - alloc_s) *
                1e3,
            phases_wall_s * 1e3);
    }

    // ---- 2. Allocation counts: BufferPool off vs. on. ----
    BufferPool& pool = ThreadLocalBufferPool();
    const int64_t alloc_iters = quick ? 4 : 10;
    pool.set_enabled(false);
    pool.Clear();
    int64_t before = TensorHeapAllocCount();
    for (int64_t i = 0; i < alloc_iters; ++i) {
        auto r = serial_eval.Evaluate(comp, scenario->params);
        if (!r.ok()) return 1;
    }
    const int64_t allocs_disabled = TensorHeapAllocCount() - before;
    pool.set_enabled(true);
    pool.ResetStats();
    // One warm-up pass fills the free lists; then measure steady state.
    {
        auto r = serial_eval.Evaluate(comp, scenario->params);
        if (!r.ok()) return 1;
    }
    before = TensorHeapAllocCount();
    for (int64_t i = 0; i < alloc_iters; ++i) {
        auto r = serial_eval.Evaluate(comp, scenario->params);
        if (!r.ok()) return 1;
    }
    const int64_t allocs_enabled = TensorHeapAllocCount() - before;
    const BufferPool::Stats pool_stats = pool.stats();
    const double alloc_drop =
        allocs_disabled > 0
            ? 1.0 - static_cast<double>(allocs_enabled) /
                        static_cast<double>(allocs_disabled)
            : 0.0;

    if (!json_only) {
        std::printf("allocations over %lld evaluations: %lld pool-off, "
                    "%lld pool-on (%.1f%% fewer); %s\n",
                    static_cast<long long>(alloc_iters),
                    static_cast<long long>(allocs_disabled),
                    static_cast<long long>(allocs_enabled),
                    100.0 * alloc_drop, pool_stats.ToString().c_str());
    }

    // ---- 3. Simulator throughput. ----
    const ModelConfig* model = FindModel("GPT_32B");
    if (model == nullptr) {
        std::fprintf(stderr, "model GPT_32B not found\n");
        return 1;
    }
    const int64_t sim_iters = quick ? 3 : 10;
    t0 = Now();
    for (int64_t i = 0; i < sim_iters; ++i) {
        auto report = SimulateModelStep(*model, CompilerOptions());
        if (!report.ok()) {
            std::fprintf(stderr, "simulate: %s\n",
                         report.status().ToString().c_str());
            return 1;
        }
    }
    const double sim_s = Now() - t0;
    const double sim_sps = sim_iters / sim_s;
    if (!json_only) {
        std::printf("simulator: %.1f steps/s (%s)\n", sim_sps,
                    model->name.c_str());
    }

    // ---- 4. Difftest slice: serial vs. parallel wall time. ----
    DiffTestConfig dt;
    dt.num_cases = quick ? 16 : 64;
    dt.seed = 1;
    dt.threads = 1;
    t0 = Now();
    auto serial_summary = RunDiffTest(dt);
    const double dt_serial_s = Now() - t0;
    dt.threads = threads;
    t0 = Now();
    auto parallel_summary = RunDiffTest(dt);
    const double dt_parallel_s = Now() - t0;
    if (!serial_summary.ok() || !parallel_summary.ok()) {
        std::fprintf(stderr, "difftest slice failed\n");
        return 1;
    }
    const bool dt_byte_identical =
        serial_summary->ToString() == parallel_summary->ToString() &&
        serial_summary->mismatches == parallel_summary->mismatches &&
        serial_summary->variants_run == parallel_summary->variants_run;
    const double dt_speedup = dt_serial_s / dt_parallel_s;
    if (!json_only) {
        std::printf("difftest %lld cases: %.2fs serial, %.2fs at %lld "
                    "threads (%.2fx, summaries %s)\n",
                    static_cast<long long>(dt.num_cases), dt_serial_s,
                    dt_parallel_s, static_cast<long long>(threads),
                    dt_speedup,
                    dt_byte_identical ? "byte-identical" : "DIFFER");
    }

    // ---- JSON. ----
    // A 1-core host can't run the difftest slice in parallel: its
    // "speedup" measures context switching. Mark the whole run so
    // perf_baseline.sh --check (and readers) skip the gate.
    const bool degenerate = DefaultThreadCount() == 1;
    std::string json = StrCat(
        "{\n"
        "  \"hardware_concurrency\": ",
        DefaultThreadCount(),
        ",\n  \"threads\": ", threads,
        ",\n  \"oversubscribed\": ",
        JsonBool(threads > DefaultThreadCount()),
        ",\n  \"degenerate\": ", JsonBool(degenerate),
        ",\n  \"quick\": ", JsonBool(quick),
        ",\n  \"evaluator\": {\"iters\": ", eval_iters,
        ", \"serial_cases_per_sec\": ", serial_cps, "},");
    json += StrCat(
        "\n  \"phases\": {\"evaluations\": ", eval_iters,
        ", \"einsum_seconds\": ", phases.einsum_seconds,
        ", \"collective_seconds\": ", phases.collective_seconds,
        ", \"alloc_seconds\": ", alloc_s,
        ", \"wall_seconds\": ", phases_wall_s, "},");
    json += StrCat(
        "\n  \"allocations\": {\"evaluations\": ", alloc_iters,
        ", \"pool_disabled\": ", allocs_disabled,
        ", \"pool_enabled\": ", allocs_enabled,
        ", \"drop_ratio\": ", alloc_drop,
        ", \"pool_hits\": ", pool_stats.hits,
        ", \"pool_misses\": ", pool_stats.misses, "},");
    json += StrCat(
        "\n  \"simulator\": {\"model\": \"", model->name,
        "\", \"iters\": ", sim_iters,
        ", \"steps_per_sec\": ", sim_sps, "},");
    json += StrCat(
        "\n  \"difftest_slice\": {\"cases\": ", dt.num_cases,
        ", \"serial_seconds\": ", dt_serial_s,
        ", \"parallel_seconds\": ", dt_parallel_s,
        ", \"parallel_threads\": ", threads,
        ", \"speedup\": ", dt_speedup,
        ", \"byte_identical\": ", JsonBool(dt_byte_identical), "}\n}\n");

    std::ofstream out(out_file);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_file.c_str());
        return 1;
    }
    out << json;
    out.close();
    if (!json_only) std::printf("\nwrote %s\n", out_file.c_str());
    std::printf("%s", json.c_str());

    return dt_byte_identical ? 0 : 1;
}
