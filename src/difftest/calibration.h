#ifndef OVERLAP_DIFFTEST_CALIBRATION_H_
#define OVERLAP_DIFFTEST_CALIBRATION_H_

#include <array>
#include <string>
#include <vector>

#include "difftest/difftest.h"
#include "sim/hardware.h"
#include "sim/loop_timeline.h"
#include "support/status.h"

namespace overlap {
namespace difftest {

/**
 * Calibration of the §5.5 gate's loop-timeline replay against traced
 * simulation (DESIGN.md §15).
 *
 * The replay (sim/loop_timeline.h) predicts a decomposed loop's span
 * from a LoopShape; its greedy walk follows true data dependencies,
 * while the simulator's bottom-up scheduler quantizes compute between
 * Done retirements. The residual bias is absorbed by per-structure
 * wire scales fitted here: every (site, lowering variant) in the
 * sample space is compiled with the gate forced open, simulated, and
 * the scales chosen to minimize the squared relative span error.
 * CalibrationFit::Fitted() commits the result; calibration_test keeps
 * it honest against drift.
 */

/**
 * The six gate-profitable bench sites of the overlap-efficiency
 * report (one per §5.1 decomposition case, plus MoE dispatch and
 * combine) — shared by
 * bench/overlap_report, the calibration fit and the regression tests
 * so "the overlap-report site space" means one thing everywhere.
 */
std::vector<SiteSpec> OverlapReportSiteSpace();

/**
 * The calibration sample space: the overlap-report sites plus
 * `generated` difftest-generator sites under `seed` (stratified over
 * the four §5.1 cases and both shard-extent parities, so small
 * latency-dominated loops and odd-extent unidirectional fallbacks are
 * represented alongside the big bench shapes).
 */
std::vector<SiteSpec> CalibrationSiteSpace(uint64_t seed,
                                           int64_t generated);

/** One (site, lowering variant) measurement. */
struct CalibrationSample {
    SiteSpec spec;
    std::string variant;  ///< DecomposeVariant name, e.g. "bidi_unroll"
    /// The replay input the gate built for this site under the
    /// variant's options (shape.structure identifies the fit bucket).
    LoopShape shape;
    double comp_t = 0.0;  ///< gate's einsum-kernel seconds
    double comm_t = 0.0;  ///< gate's blocking-collective seconds
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
};

/**
 * Compiles every (spec, variant) with the cost gate forced open,
 * simulates the decomposed and blocking modules, and returns one
 * sample per distinct emitted structure per site. Variants that lower
 * to a structure already sampled for the same site (e.g. an
 * odd-extent site where "bidi" falls back to the unidirectional loop)
 * are deduplicated.
 */
StatusOr<std::vector<CalibrationSample>>
CollectCalibrationSamples(const std::vector<SiteSpec>& specs,
                          const HardwareSpec& hardware);

/** The replay's span for `sample` under a candidate fit. */
double PredictedSpanSeconds(const CalibrationSample& sample,
                            const CalibrationFit& fit);

/** Signed relative span error: (predicted - simulated) / simulated. */
double RelativeSpanError(const CalibrationSample& sample,
                         const CalibrationFit& fit);

/** Fit result plus the residuals backing DESIGN.md §15's error gate. */
struct CalibrationSummary {
    CalibrationFit fit;
    /// Samples per LoopStructure (index = enum value).
    std::array<int64_t, kNumLoopStructures> samples_per_structure{};
    /// Mean |relative span error| per structure under `fit`.
    std::array<double, kNumLoopStructures> mean_abs_error{};
    /// Worst |relative span error| over all samples under `fit`.
    double max_abs_error = 0.0;
    /// Mean |relative span error| over all samples under `fit`.
    double overall_mean_abs_error = 0.0;

    std::string ToJson() const;
};

/**
 * Fits one wire scale per loop structure by deterministic grid search
 * (scale in [0.80, 1.50], step 0.005) minimizing the wire-share
 * weighted sum of squared relative span errors of that structure's
 * samples, with a small (scale - 1)^2 pull so latency-dominated
 * buckets with no wire signal settle at the uncalibrated replay.
 * Structures with no samples keep scale 1.0.
 */
CalibrationSummary
FitCalibration(const std::vector<CalibrationSample>& samples);

}  // namespace difftest
}  // namespace overlap

#endif  // OVERLAP_DIFFTEST_CALIBRATION_H_
