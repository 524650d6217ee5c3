#ifndef OVERLAP_DIFFTEST_DIFFTEST_H_
#define OVERLAP_DIFFTEST_DIFFTEST_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "hlo/module.h"
#include "interp/comparison.h"
#include "passes/decompose.h"
#include "sim/engine.h"
#include "sim/hardware.h"
#include "support/status.h"
#include "tensor/mesh.h"
#include "tensor/tensor.h"

namespace overlap {
namespace difftest {

/**
 * The five overlap-site shapes: the three AllGather-Einsum cases of
 * §5.1 (gathered operand partitioned along a non-contracting /
 * contracting / batch dimension), the Einsum-ReduceScatter case, and
 * the AllToAll-Einsum case of §18 (`side` 0: dispatch, the AllToAll
 * feeds the einsum; `side` 1: combine, the einsum feeds the AllToAll).
 */
enum class SiteCase {
    kAllGatherFree = 0,
    kAllGatherContracting = 1,
    kAllGatherBatch = 2,
    kReduceScatter = 3,
    kAllToAll = 4,
};

/** Number of SiteCase values (coverage arrays index by case). */
inline constexpr int64_t kNumSiteCases = 5;

const char* SiteCaseName(SiteCase c);

/**
 * A complete, deterministic description of one differential-test case:
 * everything needed to rebuild the module, its parameter data and its
 * ground truth. Serializes to a single `key=value` line — the repro
 * format the minimizer writes to disk.
 */
struct SiteSpec {
    SiteCase site_case = SiteCase::kAllGatherFree;
    /// Mesh dims (1 or 2 axes); `axis` is the ring the collective runs on.
    std::vector<int64_t> mesh_dims = {4};
    int64_t axis = 0;
    /// Operand carrying the gathered (AG) or scattered (RS) label; for
    /// the A2A case, 0 selects the dispatch position and 1 the combine.
    int64_t side = 0;
    /// Per-device extent of the partitioned label (odd extents stress
    /// the bidirectional-eligibility predicates).
    int64_t shard_extent = 2;
    /// Extents of the non-partitioned labels.
    int64_t free0 = 3;
    int64_t free1 = 5;
    int64_t contract = 4;
    DType dtype = DType::kF32;
    uint64_t data_seed = 0;

    Mesh mesh() const;
    int64_t ring_size() const;
    /// Global extent of the summed-over dimension (drives the tolerance).
    int64_t reduction_extent() const;

    /** One line, e.g. "case=ag_free mesh=4 axis=0 side=0 extent=3 ...". */
    std::string ToString() const;
    static StatusOr<SiteSpec> Parse(const std::string& line);
};

/**
 * Deterministic stratified generator: case index `index` under `seed`
 * cycles through the five site cases and both shard-extent parities
 * (so any 10 consecutive indices cover all case x parity combinations),
 * with ring size, mesh rank, dims, dtype and data drawn pseudo-randomly.
 */
SiteSpec GenerateSiteSpec(uint64_t seed, int64_t index);

/**
 * Like GenerateSiteSpec but pinned to one site case: the remaining
 * fields (parity stratification, ring, mesh rank, dtype, data) draw
 * from the same deterministic stream. Used to mass-produce A2A sites
 * for the §18 equivalence wall without paying for a 5x larger sweep.
 */
SiteSpec GenerateSiteSpecForCase(uint64_t seed, int64_t index,
                                 SiteCase site_case);

/** One decomposition configuration the driver compiles a case under. */
struct DecomposeVariant {
    const char* name;
    bool unroll;
    bool bidirectional;

    /** Sets the lowering knobs this variant names on `options`. */
    void ApplyTo(DecomposeOptions* options) const
    {
        options->unroll = unroll;
        options->bidirectional = bidirectional;
    }
};

/**
 * All four variants, {uni, bidi} x {no unroll, unroll}, simplest
 * structure first.
 */
const std::vector<DecomposeVariant>& AllDecomposeVariants();

/** Variant lookup by name; error on unknown names. */
StatusOr<DecomposeVariant> FindVariant(const std::string& name);

/** A built scenario: module + parameter bindings + ground truth. */
struct SiteScenario {
    std::unique_ptr<HloModule> module;
    std::vector<std::vector<Tensor>> params;
    std::vector<Tensor> expected;
};

/**
 * Builds only the blocking (pre-pass) HLO module for `spec` — no
 * parameter data and no analytic ground truth. The overlap-report
 * bench drives gate-profitable (large) sites through the compiler and
 * simulator with this; materializing tensors at those sizes would cost
 * minutes per case for data nothing reads.
 */
StatusOr<std::unique_ptr<HloModule>> BuildSiteModule(const SiteSpec& spec);

/** Materializes the blocking (pre-pass) module for `spec`, with
 * per-device parameter data and the analytic expected outputs. */
StatusOr<SiteScenario> BuildSiteScenario(const SiteSpec& spec);

/**
 * The equivalence oracle's driver: builds `spec`'s scenario once,
 * lowers one module copy per variant (use_cost_model off, then the
 * async split), evaluates reference and lowerings in one EvaluateBatch,
 * checks the reference against the analytic ground truth and compares
 * each lowering with it under the dtype-aware tolerance. One comparison
 * per variant, in order; errors only on harness bugs.
 * `inject_shard_id_bug` forwards to DecomposeOptions::test_shard_id_bug.
 */
StatusOr<std::vector<OutputComparison>>
RunCaseVariants(const SiteSpec& spec,
                const std::vector<DecomposeVariant>& variants,
                bool inject_shard_id_bug);

/** RunCaseVariants under one variant. */
StatusOr<OutputComparison> RunSingleCase(const SiteSpec& spec,
                                         const DecomposeVariant& variant,
                                         bool inject_shard_id_bug);

struct DiffTestConfig {
    int64_t num_cases = 64;
    uint64_t seed = 1;
    /// When set, every generated spec is pinned to this site case
    /// (GenerateSiteSpecForCase) instead of cycling through all five.
    std::optional<SiteCase> only_case;
    /// Forward the deliberate off-by-one to the pass (minimizer tests).
    bool inject_shard_id_bug = false;
    /// Stop after this many failing (spec, variant) pairs (0 = no cap).
    int64_t max_failures = 16;
    /// Worker threads for the case sweep. 1 runs the historical serial
    /// loop; N > 1 fans cases across a ThreadPool and merges outcomes
    /// in case order, so the summary (counters, failure list, first
    /// harness error, failure-cap cut-off) is byte-identical to serial.
    int64_t threads = 1;
};

struct CaseFailure {
    SiteSpec spec;
    std::string variant;
    OutputComparison comparison;
};

struct DiffTestSummary {
    int64_t cases_run = 0;
    int64_t variants_run = 0;
    int64_t mismatches = 0;
    std::vector<CaseFailure> failures;
    /// Coverage: cases per SiteCase, and per shard-extent parity.
    std::array<int64_t, kNumSiteCases> cases_by_site = {0, 0, 0, 0, 0};
    int64_t odd_extent_cases = 0;
    int64_t even_extent_cases = 0;

    std::string ToString() const;
};

/** Runs the seeded sweep; errors only on harness bugs, not mismatches. */
StatusOr<DiffTestSummary> RunDiffTest(const DiffTestConfig& config);

/**
 * Configuration of the seeded silent-data-corruption sweep (§16): each
 * case builds one overlap site (cycling blocking plus every decompose
 * variant), proves the detectors-on clean run is report-free and
 * bit-identical to detectors-off, then injects one corruption derived
 * from DeriveTaskSeed(seed, index) and requires it to be either detected
 * with the culprit chip localized, or provably masked (out-of-range
 * target, outputs bit-identical to the clean run).
 */
struct SdcSweepConfig {
    int64_t num_cases = 64;
    uint64_t seed = 1;
    /// Worker threads; every thread count yields a byte-identical
    /// summary because each case's corruption derives from
    /// DeriveTaskSeed(seed, index), never from scheduling order.
    int64_t threads = 1;
};

/** Outcome of the SDC sweep. The sweep passes iff Clean(). */
struct SdcSweepSummary {
    int64_t cases_run = 0;
    /// Injections caught by a detector before any output was produced.
    int64_t detected = 0;
    int64_t transfer_detections = 0;
    int64_t abft_detections = 0;
    /// Deliberately out-of-range injections that touched nothing,
    /// proven harmless by bit-exact comparison against the clean run.
    int64_t masked = 0;
    /// Detector fired on a clean (or provably untouched) run. Must be 0:
    /// the transfer checksum is exact and the ABFT tolerance is orders
    /// of magnitude above f32 reassociation noise.
    int64_t false_positives = 0;
    /// Detected, but the report blamed the wrong chip. Must be 0.
    int64_t localization_errors = 0;
    /// Injected in range, undetected, and the outputs differ from the
    /// clean run — corruption would have been emitted. Must be 0.
    int64_t escaped = 0;
    /// One line per failing case.
    std::vector<std::string> failures;

    bool Clean() const
    {
        return false_positives == 0 && localization_errors == 0 &&
               escaped == 0;
    }
    std::string ToString() const;
};

/** Runs the SDC sweep; errors only on harness bugs, not detections. */
StatusOr<SdcSweepSummary> RunSdcSweep(const SdcSweepConfig& config);

/*
 * Replay-vs-engine samples (DESIGN.md §15). The §5.5 gate predicts a
 * decomposed loop's span with the loop-timeline replay
 * (sim/loop_timeline.h); these helpers compile sites with the gate
 * forced open and simulate them, so tests and benches can grade that
 * prediction against the engine.
 */

/**
 * One site compiled and simulated: the compile report, the traced
 * simulation of the compiled module, and the simulated step of the
 * same site compiled as the blocking baseline on the same hardware.
 */
struct SiteSimulation {
    CompileReport compile;
    SimResult sim;
    double baseline_step_seconds = 0.0;

    /** Blocking-baseline step over the compiled module's step. */
    double ActualSpeedup() const
    {
        return sim.step_seconds > 0.0
                   ? baseline_step_seconds / sim.step_seconds
                   : 1.0;
    }
};

/**
 * Builds `spec`'s blocking module, compiles it under `options`,
 * simulates it with tracing on `options.hardware`, and simulates the
 * CompilerOptions::Baseline() compile of a second copy for the step the
 * speedup is measured against.
 */
StatusOr<SiteSimulation> SimulateSite(const SiteSpec& spec,
                                      const CompilerOptions& options);

/**
 * The six gate-profitable bench sites of the overlap-efficiency
 * report (one per §5.1 decomposition case, plus MoE dispatch and
 * combine) — shared by bench/overlap_report and the replay-accuracy
 * tests so "the overlap-report site space" means one thing everywhere.
 */
std::vector<SiteSpec> OverlapReportSiteSpace();

/**
 * The replay-vs-engine sample space: the overlap-report sites plus
 * `generated` difftest-generator sites under `seed` (stratified over
 * the four §5.1 cases and both shard-extent parities, so small
 * latency-dominated loops and odd-extent unidirectional fallbacks are
 * represented alongside the big bench shapes).
 */
std::vector<SiteSpec> ReplaySiteSpace(uint64_t seed, int64_t generated);

/** One (site, lowering variant) replay-vs-engine measurement. */
struct ReplaySample {
    SiteSpec spec;
    std::string variant;  ///< DecomposeVariant name, e.g. "bidi_unroll"
    /// The gate's cost terms for this site under the variant's options;
    /// cost.shape.structure names the emitted loop structure.
    GateCost cost;
    /// Traced-simulator step of the forced-decomposed module.
    double simulated_span_seconds = 0.0;
    /// Simulator step of the blocking (baseline-compiled) module.
    double blocking_span_seconds = 0.0;

    /// Simulated end-to-end speedup of decomposing this site.
    double SimulatedSpeedup() const
    {
        return simulated_span_seconds > 0.0
                   ? blocking_span_seconds / simulated_span_seconds
                   : 1.0;
    }

    /** The replay's signed relative span error against the engine:
     * (predicted - simulated) / simulated. */
    double RelativeSpanError() const
    {
        if (simulated_span_seconds <= 0.0) return 0.0;
        return (cost.OverlappedSeconds() - simulated_span_seconds) /
               simulated_span_seconds;
    }
};

/**
 * Compiles every (spec, variant) with the cost gate forced open,
 * simulates the decomposed and blocking modules, and returns one
 * sample per distinct emitted structure per site. Variants that lower
 * to a structure already sampled for the same site (e.g. an
 * odd-extent site where "bidi" falls back to the unidirectional loop)
 * are deduplicated.
 */
StatusOr<std::vector<ReplaySample>>
CollectReplaySamples(const std::vector<SiteSpec>& specs,
                     const HardwareSpec& hardware);

}  // namespace difftest
}  // namespace overlap

#endif  // OVERLAP_DIFFTEST_DIFFTEST_H_
