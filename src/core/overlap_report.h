#ifndef OVERLAP_CORE_OVERLAP_REPORT_H_
#define OVERLAP_CORE_OVERLAP_REPORT_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/overlap_compiler.h"
#include "sim/engine.h"
#include "support/status.h"

namespace overlap {

/**
 * Prediction-versus-reality for one §5.5 gate verdict: the cost-model
 * inputs the gate decided on, joined against what the traced pod
 * simulator actually did at that site. Decomposed sites are matched by
 * the loop group stamped on every instruction the LoopEmitter produced
 * (and propagated through the async and fusion passes into the trace);
 * blocking sites are matched by the collective's instruction name.
 */
struct SiteOverlapReport {
    // --- identity, copied from the SiteDecision ---
    std::string collective;
    std::string einsum;
    bool decomposed = false;
    bool lowered_to_unidirectional = false;
    std::string reason;
    int64_t loop_group = -1;

    // --- §5.5 prediction: the decision's cost terms (seconds) ---
    GateCost cost;

    /// cost.OriginalSeconds() / cost.OverlappedSeconds(): the speedup
    /// the gate predicted for decomposing this site.
    double PredictedSpeedup() const
    {
        double overlapped = cost.OverlappedSeconds();
        return overlapped > 0.0 ? cost.OriginalSeconds() / overlapped
                                : 1.0;
    }

    /// The replay's predicted hidden share of comm_t_ring, clamped to a
    /// probability.
    double PredictedHiddenFraction() const
    {
        return std::clamp(cost.predicted_hidden_fraction, 0.0, 1.0);
    }

    // --- simulated reality (interval-union seconds from the trace) ---
    /// Union of the site's in-flight transfer intervals (Start issue to
    /// arrival) plus any blocking-collective intervals at the site.
    double sim_total_comm_seconds = 0.0;
    /// Union of the site's Done-wait stalls and blocking collectives —
    /// comm the device actually sat idle for.
    double sim_exposed_comm_seconds = 0.0;
    /// total − exposed; every exposed interval is a subset of a total
    /// interval by construction, so this is exact, not a residual.
    double sim_hidden_comm_seconds = 0.0;
    /// hidden / total (0 when the site moved no bytes).
    double sim_hidden_fraction = 0.0;
    /// Union of the site's compute-kernel intervals.
    double sim_compute_seconds = 0.0;
    /// Wall span first-event-start to last-event-end at this site.
    double sim_span_seconds = 0.0;

    // --- prediction error (the §5.5 replay-accuracy gate) ---
    /// PredictedHiddenFraction() − sim_hidden_fraction, populated for
    /// decomposed sites whose trace moved bytes (the replay predicts
    /// the loop, so only the emitted loop can grade it; rejected sites
    /// are graded by the bench via a forced-decomposed compile).
    double hidden_fraction_error = 0.0;
    /// True when hidden_fraction_error above is meaningful.
    bool has_prediction_error = false;

    std::string ToJson() const;
};

/**
 * The overlap-efficiency report (DESIGN.md §13): every decomposition
 * site's predicted §5.5 economics next to its simulated behavior, plus
 * the step-level roll-up. Built from a CompileReport and the *traced*
 * SimResult of the same module.
 */
struct OverlapReport {
    std::vector<SiteOverlapReport> sites;

    // Step-level roll-up over the whole trace (all sites and
    // non-site events together), same union semantics as per site.
    double step_seconds = 0.0;
    double total_comm_seconds = 0.0;
    double exposed_comm_seconds = 0.0;
    double hidden_comm_seconds = 0.0;
    double hidden_fraction = 0.0;

    /// (step + Σ decomposed-site predicted benefit) / step: what §5.5
    /// promised the decompositions bought, measured against this step.
    double predicted_speedup = 1.0;

    /// Filled by callers that also simulated the blocking baseline
    /// (e.g. pod_runner): baseline step / overlapped step. Zero when no
    /// baseline was run.
    double baseline_step_seconds = 0.0;
    double actual_speedup = 0.0;

    /// Mean |predicted − simulated| hidden fraction over the sites
    /// with a populated prediction error (error_sites of them). The
    /// replay-accuracy gate fails CI when this drifts past
    /// 0.15 (DESIGN.md §15).
    double mean_abs_hidden_fraction_error = 0.0;
    int64_t error_sites = 0;

    int64_t decomposed_sites() const
    {
        int64_t n = 0;
        for (const SiteOverlapReport& s : sites) n += s.decomposed ? 1 : 0;
        return n;
    }

    std::string ToJson() const;
    std::string ToString() const;
};

/**
 * Joins the compile report's per-site §5.5 verdicts against a traced
 * simulation of the compiled module. `sim` must carry a trace
 * (PodSimulator::Run with collect_trace); returns InvalidArgument when
 * it does not, since every simulated column would silently read zero.
 */
StatusOr<OverlapReport> BuildOverlapReport(const CompileReport& compile,
                                           const SimResult& sim);

}  // namespace overlap

#endif  // OVERLAP_CORE_OVERLAP_REPORT_H_
