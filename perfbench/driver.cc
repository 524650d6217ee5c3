/**
 * @file
 * Benchmark driver: runs one workload of the repository's benchmark
 * closed-loop (one client, one thread, the next job starts when the
 * previous one ends) in whole passes over a fixed job set until the time
 * is up, checks every output, and prints one JSON object as its last
 * line of output. A job's latency is its best over the passes.
 *
 *   perfbench_driver --workload paper_models --seed 1 --seconds 36 --trace 0
 *
 * Workloads (perfbench/README.md says why each was chosen):
 *  - paper_models:    every Table 1 and Table 2 model x {baseline,
 *                     overlap}; a job is BuildLayerStepModule ->
 *                     OverlapCompiler::Compile -> PodSimulator::Run.
 *  - moe_exchange:    the moe_sweep grid x {blocking, ring-decomposed,
 *                     micro-batch-pipelined} AllToAll; same job shape.
 *  - oracle_difftest: seeded difftest cases; a job is one case run
 *                     through RunSingleCase under all six variants.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 runs every job
 * untraced and then traced (each layer call timed from outside, the
 * evaluator's phase and allocation timers on) and reports the
 * per-layer metrics, after checking that tracing changed no output.
 * --setup-only stops after set-up and reports only setup_s.
 *
 * The seed shuffles the job order of every pass and seeds the difftest
 * case generator; the libraries never learn which workload runs.
 */
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "core/overlap_report.h"
#include "difftest/difftest.h"
#include "hlo/verifier.h"
#include "interp/comparison.h"
#include "interp/evaluator.h"
#include "models/model_config.h"
#include "models/step_builder.h"
#include "sim/engine.h"
#include "support/strings.h"
#include "tensor/buffer_pool.h"

using namespace overlap;

namespace {

using Clock = std::chrono::steady_clock;

/// Allowance for reading one steady clock as doubles from two places.
constexpr double kClockSlackSeconds = 1e-6;

double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
MsSince(Clock::time_point start)
{
    return SecondsSince(start) * 1e3;
}

// ---------------------------------------------------------------------
// Metric names and units. BENCHMARK.json lists a subset of these; the
// self-test (run.py --self-test) checks that every listed metric is
// emitted here with the same unit.

struct MetricDef {
    const char* name;
    const char* unit;
};

/// End-to-end metrics, reported by the untraced run. The sim_* metrics
/// are simulated and deterministic; they are zero on oracle_difftest,
/// which simulates nothing.
constexpr MetricDef kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"jobs_per_s", "1/s"},
    {"job_p50_ms", "ms"},
    {"job_p90_ms", "ms"},
    {"peak_rss_mib", "MiB"},
    {"failed_frac", "ratio"},
    {"sim_speedup_geomean", "x"},
    {"sim_speedup_min", "x"},
    {"sim_mfu_mean", "ratio"},
    {"sim_exposed_comm_frac", "ratio"},
    {"sim_peak_mem_mib", "MiB"},
};

/// Per-layer metrics, reported by the traced run as per-job means over
/// the traced jobs (ratios and per-instruction costs are ratios of
/// sums). A layer that does no work on a workload reports 0. Simulated
/// quantities carry the unit sim_s so they never read as host time.
constexpr MetricDef kPerLayerMetrics[] = {
    {"models.build_ms", "ms"},
    {"models.instructions", "count"},
    {"core.compile_ms", "ms"},
    {"core.guard_ms", "ms"},
    {"core.report_ms", "ms"},
    {"core.hidden_fraction_error", "ratio"},
    {"core.error_sites", "count"},
    {"hlo.verify_ms", "ms"},
    {"hlo.verify_us_per_instr", "us"},
    {"hlo.clone_ms", "ms"},
    {"passes.decompose_ms", "ms"},
    {"passes.async_ms", "ms"},
    {"passes.rewrites_ms", "ms"},
    {"passes.fusion_ms", "ms"},
    {"passes.schedule_ms", "ms"},
    {"passes.sites_decomposed", "count"},
    {"passes.sites_rejected", "count"},
    {"passes.accept_ratio", "ratio"},
    {"passes.async_pairs", "count"},
    {"passes.fusion_groups", "count"},
    {"passes.instructions_out", "count"},
    {"sim.run_ms", "ms"},
    {"sim.us_per_instr", "us"},
    {"sim.trace_ms", "ms"},
    {"sim.compute_s", "sim_s"},
    {"sim.blocking_collective_s", "sim_s"},
    {"sim.transfer_wait_s", "sim_s"},
    {"sim.hidden_comm_s", "sim_s"},
    {"sim.transferred_gib", "GiB"},
    {"sim.peak_in_flight", "count"},
    {"interp.eval_ms", "ms"},
    {"interp.einsum_s", "s"},
    {"interp.collective_s", "s"},
    {"interp.compare_ms", "ms"},
    {"tensor.alloc_s", "s"},
    {"tensor.heap_allocs", "count"},
    {"tensor.pool_hit_ratio", "ratio"},
    {"difftest.case_ms", "ms"},
    {"difftest.build_ms", "ms"},
    {"difftest.variants", "count"},
    // The same two layers over the treated (overlap) arms only.
    {"treated.core.guard_ms", "ms"},
    {"treated.passes.schedule_ms", "ms"},
};

/// Pipeline pass name (PassTiming::pass_name) -> per-layer metric. The
/// time of a pass missing here counts as core.guard_ms; the traced run
/// lists such passes and the self-test fails on them.
const std::map<std::string, std::string>&
PassMetricNames()
{
    static const auto* names = new std::map<std::string, std::string>{
        {"decompose", "passes.decompose_ms"},
        {"async-permute-creation", "passes.async_ms"},
        {"async-a2a-creation", "passes.async_ms"},
        {"concat-fusion-rewrites", "passes.rewrites_ms"},
        {"fusion", "passes.fusion_ms"},
        {"schedule", "passes.schedule_ms"},
    };
    return *names;
}

/** Named sums over the traced jobs. */
class LayerSums {
  public:
    void Add(const std::string& name, double value) { sums_[name] += value; }
    void Merge(const LayerSums& other)
    {
        for (const auto& [name, value] : other.sums_) sums_[name] += value;
    }
    double Get(const std::string& name) const
    {
        auto it = sums_.find(name);
        return it == sums_.end() ? 0.0 : it->second;
    }

  private:
    std::map<std::string, double> sums_;
};

/** Metric values in emission order, units looked up by name. */
class MetricSet {
  public:
    void Set(const std::string& name, double value)
    {
        if (UnitOf(name) == nullptr) {
            std::fprintf(stderr, "undeclared metric %s\n", name.c_str());
            std::abort();
        }
        values_.emplace_back(name, value);
    }

    std::string ToJson() const
    {
        std::string out = "{";
        for (size_t i = 0; i < values_.size(); ++i) {
            char number[64];
            std::snprintf(number, sizeof(number), "%.17g",
                          values_[i].second);
            out += StrCat(i == 0 ? "" : ", ", "\"", values_[i].first,
                          "\": {\"value\": ", number, ", \"unit\": \"",
                          UnitOf(values_[i].first), "\"}");
        }
        return out + "}";
    }

  private:
    static const char* UnitOf(const std::string& name)
    {
        for (const MetricDef& m : kEndToEndMetrics) {
            if (name == m.name) return m.unit;
        }
        for (const MetricDef& m : kPerLayerMetrics) {
            if (name == m.name) return m.unit;
        }
        return nullptr;
    }

    std::vector<std::pair<std::string, double>> values_;
};

/** Linear-interpolation quantile (q in [0, 1]) of unsorted samples. */
double
Quantile(std::vector<double> samples, double q)
{
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    double pos = q * static_cast<double>(samples.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

/** Fisher-Yates shuffle of 0..n-1 under (seed, pass). */
std::vector<size_t>
ShuffledOrder(size_t n, uint64_t seed, int64_t pass)
{
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL +
                        static_cast<uint64_t>(pass));
    for (size_t i = n; i > 1; --i) {
        size_t j = static_cast<size_t>(rng() % i);
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

// ---------------------------------------------------------------------
// Passes over a fixed job set.

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
};

/** What one execution of a job did. */
struct JobResult {
    /// Host seconds of the job's own calls: its latency sample.
    double seconds = 0.0;
    /// Operations the job attempted (one; six (spec, variant) pairs for
    /// a difftest case) and how many of them failed.
    int64_t operations = 1;
    int64_t failed = 0;
    /// The first failure, empty when every output checked out.
    std::string problem;
};

struct RunState {
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::string> errors;
    int64_t passes = 0;
    /// Untraced executions and their summed host seconds.
    int64_t executions = 0;
    double busy_seconds = 0.0;
    /// Each job's best (lowest) untraced latency over the passes.
    std::vector<double> best_seconds;
    /// Peak RSS when the first pass ended (every job has run once; the
    /// buffer pools keep growing slowly after that, with run length).
    double first_pass_rss_mib = 0.0;
    /// Traced run: jobs traced, and the summed seconds of the same calls
    /// untraced and traced, whose ratio is the tracing overhead.
    int64_t traced_jobs = 0;
    double untraced_core_seconds = 0.0;
    double traced_core_seconds = 0.0;
    LayerSums layers;

    void Fail(const JobResult& result)
    {
        failed += result.failed;
        if (errors.size() < 8) errors.push_back(result.problem);
    }
};

double
PeakRssMib()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/**
 * Snapshot of the process-wide tensor counters a traced job reads
 * before and after its calls.
 */
struct TensorCounters {
    int64_t heap_allocs = TensorHeapAllocCount();
    BufferPool::Stats pool = ThreadLocalBufferPool().stats();
};

/**
 * Turns the evaluator's phase and allocation timers on for one traced
 * job and adds what they and the tensor counters saw to `layers`.
 */
class ScopedLayerTimers {
  public:
    explicit ScopedLayerTimers(LayerSums* layers) : layers_(layers)
    {
        ConsumeEvalPhaseSeconds();
        ConsumeAllocSeconds();
        SetEvalPhaseTimingEnabled(true);
        SetAllocTimingEnabled(true);
    }
    ~ScopedLayerTimers()
    {
        SetEvalPhaseTimingEnabled(false);
        SetAllocTimingEnabled(false);
        EvalPhaseSeconds phases = ConsumeEvalPhaseSeconds();
        layers_->Add("interp.einsum_s", phases.einsum_seconds);
        layers_->Add("interp.collective_s", phases.collective_seconds);
        layers_->Add("tensor.alloc_s", ConsumeAllocSeconds());
        TensorCounters after;
        const BufferPool::Stats& a = after.pool;
        const BufferPool::Stats& b = before_.pool;
        layers_->Add("tensor.heap_allocs",
                     static_cast<double>(after.heap_allocs -
                                         before_.heap_allocs));
        layers_->Add("tensor.pool_hits",
                     static_cast<double>(a.hits + a.arena_hits - b.hits -
                                         b.arena_hits));
        layers_->Add("tensor.pool_acquires",
                     static_cast<double>(a.hits + a.arena_hits + a.misses -
                                         b.hits - b.arena_hits - b.misses));
    }
    ScopedLayerTimers(const ScopedLayerTimers&) = delete;
    ScopedLayerTimers& operator=(const ScopedLayerTimers&) = delete;

  private:
    LayerSums* layers_;
    TensorCounters before_;
};

/**
 * Whole passes over the runner's jobs, each pass in its own seeded
 * order, until the time is up. Traced, every job runs untraced and then
 * traced; the runner checks both against the job's first result.
 */
template <typename Runner>
void
RunPasses(Runner& runner, const Args& args, RunState* state)
{
    state->best_seconds.assign(runner.size(),
                               std::numeric_limits<double>::infinity());
    const Clock::time_point start = Clock::now();
    for (; state->passes == 0 || SecondsSince(start) < args.seconds;
         ++state->passes) {
        for (size_t id :
             ShuffledOrder(runner.size(), args.seed, state->passes)) {
            JobResult result = runner.Run(id, state->passes == 0, nullptr);
            state->attempted += result.operations;
            ++state->executions;
            state->busy_seconds += result.seconds;
            state->best_seconds[id] =
                std::min(state->best_seconds[id], result.seconds);
            if (result.failed == 0 && args.trace) {
                LayerSums layers;
                JobResult traced;
                {
                    ScopedLayerTimers timers(&layers);
                    traced = runner.Run(id, false, &layers);
                }
                if (traced.failed == 0) {
                    ++state->traced_jobs;
                    state->untraced_core_seconds += result.seconds;
                    state->traced_core_seconds += traced.seconds;
                    state->layers.Merge(layers);
                } else {
                    result = traced;
                }
            }
            if (result.failed > 0) state->Fail(result);
        }
        if (state->passes == 0) state->first_pass_rss_mib = PeakRssMib();
    }
}

// ---------------------------------------------------------------------
// paper_models and moe_exchange: build -> compile -> simulate jobs.

struct ModelJob {
    std::string label;
    ModelConfig config;
    CompilerOptions options;
    /// Index of the control-arm job this treated job is compared
    /// against; -1 for a control job.
    int64_t control = -1;
};

/** Every distinct Table 1 / Table 2 model x {baseline, overlap}. */
std::vector<ModelJob>
PaperModelJobs()
{
    std::vector<ModelConfig> models = Table1Models();
    for (const ModelConfig& gpt : Table2GptModels()) {
        bool seen = false;
        for (const ModelConfig& m : models) seen |= m.name == gpt.name;
        if (!seen) models.push_back(gpt);
    }
    std::vector<ModelJob> jobs;
    for (const ModelConfig& config : models) {
        int64_t control = static_cast<int64_t>(jobs.size());
        jobs.push_back({config.name + "/baseline", config,
                        CompilerOptions::Baseline(), -1});
        jobs.push_back(
            {config.name + "/overlap", config, CompilerOptions(), control});
    }
    return jobs;
}

/** One moe_sweep grid point: a scaled-down GLaM layer whose expert
 * axis is mesh y (the AllToAll ring); mirrors bench/moe_sweep.cpp. */
ModelConfig
MoeModel(int64_t mesh_y, int64_t experts, int64_t micro_batches)
{
    ModelConfig config;
    config.name = StrCat("moe_", 4 * mesh_y, "chip_", experts, "e");
    config.kind = ModelKind::kMoe;
    config.num_layers = 24;
    config.model_dim = 4096;
    config.ff_dim = 32768;
    config.batch_size = 16;
    config.seq_len = 1024;
    config.mesh_x = 4;
    config.mesh_y = mesh_y;
    config.num_chips = config.mesh_x * config.mesh_y;
    config.num_experts = experts;
    config.moe_micro_batches = micro_batches;
    return config;
}

/** The moe_sweep grid x {blocking, decomposed, pipelined} AllToAll. */
std::vector<ModelJob>
MoeExchangeJobs()
{
    std::vector<ModelJob> jobs;
    for (int64_t ring : {4, 8, 16}) {
        for (int64_t experts : {16, 64}) {
            ModelConfig config = MoeModel(ring, experts, 1);
            int64_t control = static_cast<int64_t>(jobs.size());
            CompilerOptions blocking;
            blocking.decompose.all_to_all = false;
            jobs.push_back({config.name + "/blocking", config, blocking, -1});
            jobs.push_back({config.name + "/decomposed", config,
                            CompilerOptions(), control});
            CompilerOptions pipelined = blocking;
            pipelined.async_all_to_all = true;
            jobs.push_back({config.name + "/pipelined",
                            MoeModel(ring, experts, 4), pipelined, control});
        }
    }
    return jobs;
}

/** The simulated outcome of one job; must repeat exactly. */
struct SimSummary {
    double step_seconds = 0.0;
    double compute_seconds = 0.0;
    double exposed_comm_seconds = 0.0;
    double mfu = 0.0;
    double transferred_bytes = 0.0;
    int64_t peak_memory_bytes = 0;
    int64_t peak_in_flight = 0;

    static SimSummary Of(const SimResult& sim, const HardwareSpec& hardware)
    {
        return {sim.step_seconds,         sim.compute_seconds,
                sim.exposed_comm_seconds, sim.Mfu(hardware),
                sim.transferred_bytes,    sim.peak_memory_bytes,
                sim.peak_in_flight};
    }
    bool operator==(const SimSummary&) const = default;
};

struct CompiledJob {
    std::unique_ptr<HloModule> module;
    int64_t input_instructions = 0;
    CompileReport report;
    SimResult sim;
};

/**
 * The job itself: build, compile and simulate, with the host time of
 * each call added to `layers` when tracing (and no clock read for it
 * otherwise). `seconds` receives the whole job's host time.
 */
StatusOr<CompiledJob>
BuildCompileSimulate(const ModelJob& job, LayerSums* layers,
                     double* seconds)
{
    const Clock::time_point start = Clock::now();
    CompiledJob out;
    auto module = BuildLayerStepModule(job.config);
    if (!module.ok()) return module.status();
    out.module = std::move(module).value();
    Clock::time_point lap;
    if (layers != nullptr) {
        layers->Add("models.build_ms", MsSince(start));
        lap = Clock::now();
    }
    out.input_instructions = out.module->entry()->instruction_count();

    OverlapCompiler compiler(job.options);
    auto report = compiler.Compile(out.module.get());
    if (!report.ok()) return report.status();
    out.report = std::move(report).value();
    if (layers != nullptr) {
        layers->Add("core.compile_ms", MsSince(lap));
        lap = Clock::now();
    }

    PodSimulator simulator(job.config.mesh(), job.options.hardware,
                           FaultModel(job.options.fault));
    auto sim = simulator.Run(*out.module);
    if (!sim.ok()) return sim.status();
    out.sim = std::move(sim).value();
    if (layers != nullptr) layers->Add("sim.run_ms", MsSince(lap));
    *seconds = SecondsSince(start);
    return out;
}

/** Output checks of a compiled job; returns the first problem found. */
std::string
CheckCompiledJob(const CompiledJob& job, bool verify)
{
    if (!job.report.decompose.BucketsConsistent()) {
        return "DecomposeStats buckets inconsistent";
    }
    if (!job.report.pass_diagnostics.empty()) {
        return job.report.pass_diagnostics.front().ToString();
    }
    if (verify) {
        Status status = VerifyModule(*job.module);
        if (!status.ok()) return status.ToString();
    }
    return "";
}

/**
 * The traced half of a job beyond BuildCompileSimulate's calls:
 * compile-report counters, one VerifyModule and one Clone of the
 * compiled module, a traced simulation (which must match the untraced
 * one) and the overlap report built from it.
 */
Status
TraceCompiledJob(const ModelJob& job, const CompiledJob& compiled,
                 LayerSums* layers, std::set<std::string>* unmapped_passes)
{
    const CompileReport& report = compiled.report;
    const HloComputation& entry = *compiled.module->entry();
    layers->Add("models.instructions",
                static_cast<double>(compiled.input_instructions));
    layers->Add("passes.instructions_out",
                static_cast<double>(entry.instruction_count()));

    // The compiler times its passes from inside Compile, on the same
    // steady clock this driver reads. They run one after another, so
    // they must not overlap and must end within the compile time
    // measured from outside; otherwise core.guard_ms would be wrong.
    const double compile_ms = layers->Get("core.compile_ms");
    double previous_end = 0.0;
    for (const PassTiming& timing : report.pass_timings) {
        if (timing.start_seconds < previous_end - kClockSlackSeconds ||
            timing.seconds() < 0.0 ||
            timing.end_seconds * 1e3 >
                compile_ms + kClockSlackSeconds * 1e3) {
            return Internal(StrCat(
                "pass ", timing.pass_name, " timed ", timing.start_seconds,
                "..", timing.end_seconds, " s, outside the compile's ",
                compile_ms / 1e3, " s or overlapping the pass before"));
        }
        previous_end = timing.end_seconds;
    }

    const bool treated = job.control >= 0;
    double pass_ms = 0.0;
    for (const PassTiming& timing : report.pass_timings) {
        auto it = PassMetricNames().find(timing.pass_name);
        if (it == PassMetricNames().end()) {
            unmapped_passes->insert(timing.pass_name);
            continue;
        }
        const double ms = timing.seconds() * 1e3;
        layers->Add(it->second, ms);
        pass_ms += ms;
        if (treated && it->first == "schedule") {
            layers->Add("treated.passes.schedule_ms", ms);
        }
    }
    const double guard_ms = compile_ms - pass_ms;
    layers->Add("core.guard_ms", guard_ms);
    if (treated) {
        layers->Add("treated.core.guard_ms", guard_ms);
        layers->Add("treated_jobs", 1.0);
    }

    const DecomposeStats& decompose = report.decompose;
    layers->Add("passes.sites_decomposed",
                static_cast<double>(decompose.total_decomposed()));
    layers->Add("passes.sites_rejected",
                static_cast<double>(decompose.rejected_by_cost_model +
                                    decompose.fault_fallbacks));
    layers->Add("passes.sites_judged",
                static_cast<double>(decompose.decisions.size()));
    layers->Add("passes.async_pairs",
                static_cast<double>(report.async_permutes +
                                    report.async_all_to_alls));
    layers->Add("passes.fusion_groups",
                static_cast<double>(report.fusion_groups));

    Clock::time_point lap = Clock::now();
    Status verified = VerifyModule(*compiled.module);
    layers->Add("hlo.verify_ms", MsSince(lap));
    if (!verified.ok()) return verified;
    lap = Clock::now();
    std::unique_ptr<HloComputation> clone = entry.Clone();
    layers->Add("hlo.clone_ms", MsSince(lap));
    clone.reset();

    PodSimulator simulator(job.config.mesh(), job.options.hardware,
                           FaultModel(job.options.fault));
    lap = Clock::now();
    auto traced = simulator.Run(*compiled.module, /*collect_trace=*/true);
    layers->Add("sim.trace_ms", MsSince(lap));
    if (!traced.ok()) return traced.status();
    const HardwareSpec& hardware = job.options.hardware;
    if (!(SimSummary::Of(*traced, hardware) ==
          SimSummary::Of(compiled.sim, hardware))) {
        return Internal("the traced simulation differs from the untraced");
    }

    lap = Clock::now();
    auto overlap = BuildOverlapReport(report, *traced);
    layers->Add("core.report_ms", MsSince(lap));
    if (!overlap.ok()) return overlap.status();
    layers->Add("core.hidden_fraction_error",
                overlap->mean_abs_hidden_fraction_error);
    layers->Add("core.error_sites",
                static_cast<double>(overlap->error_sites));
    layers->Add("sim.hidden_comm_s", overlap->hidden_comm_seconds);

    double blocking = 0.0;
    double waiting = 0.0;
    for (const TraceEvent& event : traced->trace) {
        double span = event.end_seconds - event.start_seconds;
        if (event.kind == TraceKind::kCollective) blocking += span;
        if (event.kind == TraceKind::kTransferWait) waiting += span;
    }
    layers->Add("sim.compute_s", traced->compute_seconds);
    layers->Add("sim.blocking_collective_s", blocking);
    layers->Add("sim.transfer_wait_s", waiting);
    layers->Add("sim.transferred_gib",
                traced->transferred_bytes / (1024.0 * 1024.0 * 1024.0));
    layers->Add("sim.peak_in_flight",
                static_cast<double>(traced->peak_in_flight));
    return Status::Ok();
}

/** Runs model jobs; remembers each job's first simulated result. */
class ModelRunner {
  public:
    explicit ModelRunner(std::vector<ModelJob> jobs)
        : jobs_(std::move(jobs)), sims_(jobs_.size()) {}

    size_t size() const { return jobs_.size(); }

    /** Untimed warm-up: the first job in canonical order. */
    Status WarmUp() const
    {
        double seconds = 0.0;
        return BuildCompileSimulate(jobs_.front(), nullptr, &seconds)
            .status();
    }

    JobResult Run(size_t id, bool first_pass, LayerSums* layers)
    {
        const ModelJob& job = jobs_[id];
        JobResult result;
        auto compiled = BuildCompileSimulate(job, layers, &result.seconds);
        if (compiled.ok()) {
            // The guard verified every pass already; verify once more
            // from outside on the first untraced run of each job.
            result.problem = CheckCompiledJob(*compiled, first_pass);
            if (result.problem.empty() && layers != nullptr) {
                Status traced = TraceCompiledJob(job, *compiled, layers,
                                                 &unmapped_passes_);
                if (!traced.ok()) result.problem = traced.ToString();
            }
            SimSummary sim =
                SimSummary::Of(compiled->sim, job.options.hardware);
            if (result.problem.empty() && !sims_[id]) sims_[id] = sim;
            if (result.problem.empty() && !(*sims_[id] == sim)) {
                result.problem =
                    "simulated result differs from the job's first run";
            }
        } else {
            result.problem = compiled.status().ToString();
        }
        if (!result.problem.empty()) {
            result.failed = 1;
            result.problem = job.label + ": " + result.problem;
        }
        return result;
    }

    /** Pipeline passes the traced jobs ran that have no metric. */
    const std::set<std::string>& unmapped_passes() const
    {
        return unmapped_passes_;
    }

    /** Simulated end-to-end metrics over the (control, treated) pairs. */
    void SetSimMetrics(MetricSet* metrics) const
    {
        double log_speedup = 0.0;
        double min_speedup = 0.0;
        double mfu = 0.0;
        double exposed = 0.0;
        double peak_mib = 0.0;
        int64_t pairs = 0;
        for (size_t i = 0; i < jobs_.size(); ++i) {
            const ModelJob& job = jobs_[i];
            if (job.control < 0 || !sims_[i] ||
                !sims_[static_cast<size_t>(job.control)]) {
                continue;
            }
            const SimSummary& treated = *sims_[i];
            const SimSummary& control =
                *sims_[static_cast<size_t>(job.control)];
            double speedup = control.step_seconds / treated.step_seconds;
            log_speedup += std::log(speedup);
            min_speedup =
                pairs == 0 ? speedup : std::min(min_speedup, speedup);
            mfu += treated.mfu;
            exposed += treated.exposed_comm_seconds / treated.step_seconds;
            peak_mib += static_cast<double>(treated.peak_memory_bytes) /
                        (1024.0 * 1024.0);
            ++pairs;
        }
        double n = pairs > 0 ? static_cast<double>(pairs) : 1.0;
        metrics->Set("sim_speedup_geomean",
                     pairs > 0 ? std::exp(log_speedup / n) : 0.0);
        metrics->Set("sim_speedup_min", min_speedup);
        metrics->Set("sim_mfu_mean", mfu / n);
        metrics->Set("sim_exposed_comm_frac", exposed / n);
        metrics->Set("sim_peak_mem_mib", peak_mib / n);
    }

  private:
    std::vector<ModelJob> jobs_;
    std::vector<std::optional<SimSummary>> sims_;
    std::set<std::string> unmapped_passes_;
};

// ---------------------------------------------------------------------
// oracle_difftest: seeded difftest cases through the SPMD evaluator.

/// Cases in the oracle_difftest job set (the first of the seed's stream).
constexpr int64_t kOracleCases = 1024;
/// RunDiffTest over this many leading cases must agree with the jobs.
constexpr int64_t kSweepCheckCases = 32;

/** One case under all six variants. */
StatusOr<std::vector<OutputComparison>>
RunOracleCase(const difftest::SiteSpec& spec)
{
    std::vector<OutputComparison> out;
    for (const difftest::DecomposeVariant& variant :
         difftest::AllDecomposeVariants()) {
        auto comparison = difftest::RunSingleCase(spec, variant, false);
        if (!comparison.ok()) return comparison.status();
        out.push_back(std::move(comparison).value());
    }
    return out;
}

bool
SameComparisons(const std::vector<OutputComparison>& a,
                const std::vector<OutputComparison>& b)
{
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].equal != b[i].equal ||
            a[i].mismatched_devices != b[i].mismatched_devices ||
            std::memcmp(&a[i].max_abs_diff, &b[i].max_abs_diff,
                        sizeof(double)) != 0) {
            return false;
        }
    }
    return true;
}

/**
 * The traced case: one probe of the blocking scenario, built, evaluated
 * and compared against its analytic ground truth on its own, then the
 * six RunSingleCase calls the job makes. RunSingleCase exposes no
 * timing of its inner calls, so difftest.build_ms, interp.eval_ms and
 * interp.compare_ms time the probe's calls (one each, blocking program
 * only), not the job's; interp.einsum_s/collective_s and tensor.* come
 * from the evaluator's timers and counters over the whole traced case.
 */
StatusOr<std::vector<OutputComparison>>
TraceOracleCase(const difftest::SiteSpec& spec, LayerSums* layers,
                double* case_seconds)
{
    Clock::time_point lap = Clock::now();
    auto scenario = difftest::BuildSiteScenario(spec);
    layers->Add("difftest.build_ms", MsSince(lap));
    if (!scenario.ok()) return scenario.status();

    SpmdEvaluator evaluator(*scenario->module->mesh());
    lap = Clock::now();
    auto outputs =
        evaluator.Evaluate(*scenario->module->entry(), scenario->params);
    layers->Add("interp.eval_ms", MsSince(lap));
    if (!outputs.ok()) return outputs.status();

    lap = Clock::now();
    OutputComparison truth = CompareOutputs(
        scenario->expected, *outputs,
        EquivalenceTolerance(spec.dtype, spec.reduction_extent()));
    layers->Add("interp.compare_ms", MsSince(lap));
    if (!truth.equal) {
        return Internal("blocking scenario disagrees with ground truth: " +
                        truth.ToString());
    }

    lap = Clock::now();
    auto comparisons = RunOracleCase(spec);
    *case_seconds = SecondsSince(lap);
    layers->Add("difftest.case_ms", *case_seconds * 1e3);
    if (comparisons.ok()) {
        layers->Add("difftest.variants",
                    static_cast<double>(comparisons->size()));
    }
    return comparisons;
}

/** Runs difftest cases; remembers each case's first comparisons. */
class OracleRunner {
  public:
    OracleRunner(uint64_t seed, int64_t cases) : seed_(seed)
    {
        for (int64_t i = 0; i < cases; ++i) {
            specs_.push_back(difftest::GenerateSiteSpec(seed, i));
        }
        reference_.resize(specs_.size());
    }

    size_t size() const { return specs_.size(); }

    /** Untimed warm-up: one case that no seed's job set depends on. */
    Status WarmUp() const
    {
        return RunOracleCase(difftest::GenerateSiteSpec(0, 0)).status();
    }

    JobResult Run(size_t id, bool /*first_pass*/, LayerSums* layers)
    {
        const difftest::SiteSpec& spec = specs_[id];
        JobResult result;
        result.operations =
            static_cast<int64_t>(difftest::AllDecomposeVariants().size());
        StatusOr<std::vector<OutputComparison>> comparisons =
            Internal("not run");
        if (layers != nullptr) {
            comparisons = TraceOracleCase(spec, layers, &result.seconds);
        } else {
            const Clock::time_point start = Clock::now();
            comparisons = RunOracleCase(spec);
            result.seconds = SecondsSince(start);
        }
        if (!comparisons.ok()) {
            result.failed = result.operations;
            result.problem = comparisons.status().ToString();
        } else {
            for (size_t v = 0; v < comparisons->size(); ++v) {
                if ((*comparisons)[v].equal) continue;
                ++result.failed;
                if (result.problem.empty()) {
                    result.problem =
                        StrCat("[", difftest::AllDecomposeVariants()[v].name,
                               "] ", (*comparisons)[v].ToString());
                }
            }
            if (!reference_[id]) reference_[id] = *comparisons;
            if (!SameComparisons(*reference_[id], *comparisons)) {
                result.failed = result.operations;
                result.problem = "comparisons differ from the case's first run";
            }
        }
        if (!result.problem.empty()) {
            result.problem = spec.ToString() + ": " + result.problem;
        }
        return result;
    }

    /**
     * The sweep entry point over the leading cases, untimed: the same
     * seed must give the same verdicts as the job runs did.
     */
    std::string CheckSweep() const
    {
        difftest::DiffTestConfig config;
        config.seed = seed_;
        config.num_cases = std::min<int64_t>(
            kSweepCheckCases, static_cast<int64_t>(specs_.size()));
        config.max_failures = 0;
        config.threads = 1;
        int64_t mismatches = 0;
        for (int64_t i = 0; i < config.num_cases; ++i) {
            const auto& reference = reference_[static_cast<size_t>(i)];
            if (!reference) return "";  // the job failed; already counted
            for (const OutputComparison& c : *reference) {
                mismatches += c.equal ? 0 : 1;
            }
        }
        auto summary = difftest::RunDiffTest(config);
        if (!summary.ok()) return "RunDiffTest: " + summary.status().ToString();
        const int64_t variants =
            static_cast<int64_t>(difftest::AllDecomposeVariants().size());
        if (summary->cases_run != config.num_cases ||
            summary->variants_run != config.num_cases * variants ||
            summary->mismatches != mismatches) {
            return "RunDiffTest disagrees with the case jobs: " +
                   summary->ToString();
        }
        return "";
    }

  private:
    uint64_t seed_;
    std::vector<difftest::SiteSpec> specs_;
    std::vector<std::optional<std::vector<OutputComparison>>> reference_;
};

// ---------------------------------------------------------------------
// Reporting.

std::string
JsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
HostJson()
{
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    return StrCat("{\"nproc\": ", sysconf(_SC_NPROCESSORS_ONLN),
                  ", \"threads\": 1, \"build_type\": ",
                  JsonString(PERFBENCH_BUILD_TYPE), ", \"compiler\": ",
                  JsonString(PERFBENCH_COMPILER),
                  ", \"optimized\": ", optimized ? "true" : "false", "}");
}

/** End-to-end host metrics from each job's best latency. */
void
SetEndToEndMetrics(const RunState& state, double setup_seconds,
                   MetricSet* metrics)
{
    double best_total = 0.0;
    for (double s : state.best_seconds) best_total += s;
    metrics->Set("setup_s", setup_seconds);
    metrics->Set("jobs_per_s",
                 static_cast<double>(state.best_seconds.size()) /
                     best_total);
    metrics->Set("job_p50_ms", Quantile(state.best_seconds, 0.5) * 1e3);
    metrics->Set("job_p90_ms", Quantile(state.best_seconds, 0.9) * 1e3);
    metrics->Set("peak_rss_mib", state.first_pass_rss_mib);
    metrics->Set("failed_frac",
                 static_cast<double>(state.failed) /
                     static_cast<double>(std::max<int64_t>(state.attempted,
                                                           1)));
}

/** Per-layer metrics: per-traced-job means, ratios of sums. */
void
SetPerLayerMetrics(const RunState& state, MetricSet* metrics)
{
    const LayerSums& sums = state.layers;
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double jobs = static_cast<double>(state.traced_jobs);
    for (const MetricDef& m : kPerLayerMetrics) {
        const std::string name = m.name;
        double value = ratio(sums.Get(name), jobs);
        if (name == "hlo.verify_us_per_instr") {
            value = ratio(sums.Get("hlo.verify_ms") * 1e3,
                          sums.Get("passes.instructions_out"));
        } else if (name == "sim.us_per_instr") {
            value = ratio(sums.Get("sim.run_ms") * 1e3,
                          sums.Get("passes.instructions_out"));
        } else if (name == "passes.accept_ratio") {
            value = ratio(sums.Get("passes.sites_decomposed"),
                          sums.Get("passes.sites_judged"));
        } else if (name == "tensor.pool_hit_ratio") {
            value = ratio(sums.Get("tensor.pool_hits"),
                          sums.Get("tensor.pool_acquires"));
        } else if (name.rfind("treated.", 0) == 0) {
            value = ratio(sums.Get(name), sums.Get("treated_jobs"));
        }
        metrics->Set(name, value);
    }
}

int
Usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "{paper_models|moe_exchange|oracle_difftest} --seed N "
                 "--seconds S --trace {0|1} [--setup-only]\n");
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    const Clock::time_point process_start = Clock::now();
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--setup-only") {
            args.setup_only = true;
            continue;
        }
        if (i + 1 >= argc) return Usage();
        std::string value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else {
            return Usage();
        }
    }

    // Set-up: the job set and one untimed warm-up job.
    std::unique_ptr<ModelRunner> models;
    std::unique_ptr<OracleRunner> oracle;
    if (args.workload == "paper_models") {
        models = std::make_unique<ModelRunner>(PaperModelJobs());
    } else if (args.workload == "moe_exchange") {
        models = std::make_unique<ModelRunner>(MoeExchangeJobs());
    } else if (args.workload == "oracle_difftest") {
        oracle = std::make_unique<OracleRunner>(args.seed, kOracleCases);
    } else {
        return Usage();
    }
    const Status warm_up = models ? models->WarmUp() : oracle->WarmUp();
    if (!warm_up.ok()) {
        std::fprintf(stderr, "warm-up failed: %s\n",
                     warm_up.ToString().c_str());
        return 1;
    }
    const double setup_seconds = SecondsSince(process_start);
    if (args.setup_only) {
        std::printf("{\"setup_s\": %.17g}\n", setup_seconds);
        return 0;
    }

    RunState state;
    const Clock::time_point run_start = Clock::now();
    if (models) {
        RunPasses(*models, args, &state);
    } else {
        RunPasses(*oracle, args, &state);
        std::string sweep = oracle->CheckSweep();
        if (!sweep.empty()) state.Fail({0.0, 1, 1, sweep});
    }
    const double run_seconds = SecondsSince(run_start);

    MetricSet metrics;
    if (args.trace) {
        SetPerLayerMetrics(state, &metrics);
    } else {
        SetEndToEndMetrics(state, setup_seconds, &metrics);
    }
    std::vector<std::string> unmapped;
    if (models) {
        models->SetSimMetrics(&metrics);
        for (const std::string& pass : models->unmapped_passes()) {
            unmapped.push_back(JsonString(pass));
        }
    } else {
        for (const char* name :
             {"sim_speedup_geomean", "sim_speedup_min", "sim_mfu_mean",
              "sim_exposed_comm_frac", "sim_peak_mem_mib"}) {
            metrics.Set(name, 0.0);
        }
    }

    std::vector<std::string> errors;
    for (const std::string& e : state.errors) errors.push_back(JsonString(e));
    const double overhead =
        state.untraced_core_seconds > 0.0
            ? state.traced_core_seconds / state.untraced_core_seconds - 1.0
            : 0.0;
    const double raw_jobs_per_s =
        state.busy_seconds > 0.0
            ? static_cast<double>(state.executions) / state.busy_seconds
            : 0.0;
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
        "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"jobs\": %zu, \"passes\": %lld, \"run_seconds\": %.6f, "
        "\"raw_jobs_per_s\": %.6f, \"end_rss_mib\": %.3f, "
        "\"traced_jobs\": %lld, \"trace_overhead\": %.6f, "
        "\"unmapped_passes\": [%s], \"host\": %s, \"errors\": [%s], "
        "\"metrics\": %s}\n",
        JsonString(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
        state.failed == 0 ? "true" : "false",
        static_cast<long long>(state.attempted),
        static_cast<long long>(state.failed), state.best_seconds.size(),
        static_cast<long long>(state.passes), run_seconds, raw_jobs_per_s,
        PeakRssMib(), static_cast<long long>(state.traced_jobs), overhead,
        StrJoin(unmapped, ", ").c_str(), HostJson().c_str(),
        StrJoin(errors, ", ").c_str(), metrics.ToJson().c_str());
    return 0;
}
