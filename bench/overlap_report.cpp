/**
 * @file
 * Overlap-efficiency report (DESIGN.md §13): how well did the §5.5 cost
 * model predict what the simulator measured?
 *
 *   overlap_report [--quick] [--json] [--force] [--check] [--out FILE]
 *                  [--trace FILE] [--model NAME]
 *
 * Part 1 drives the shared overlap-report site space
 * (difftest::OverlapReportSiteSpace(): one site per §5.1 decomposition
 * case) through the full pipeline with the §5.5 gate,
 * simulates each compiled module with tracing, and emits one JSON
 * record per site: the gate's cost inputs (comp_t, comm_t, comm_t_ring,
 * extra_t), the predicted hidden-comm fraction and speedup, the
 * simulated total / exposed / hidden comm from the trace, the blocking
 * baseline's step for the actual speedup, and the per-site prediction
 * error. Sites the gate rejects are additionally re-compiled with the
 * gate forced open ("forced" record) so their hidden-fraction
 * prediction is graded against a real decomposed trace too — and so
 * the rejection itself is auditable (forced actual speedup < 1).
 *
 * Part 2 (skipped with --quick) runs the same analysis on a whole model
 * layer (--model, default the 32B GPT (GPT_32B) of Table 2) via
 * AnalyzeModelOverlap; --trace additionally writes that run's unified
 * Chrome trace (compiler + simulator lanes) for chrome://tracing.
 *
 * The JSON report goes to stdout with --json; --out FILE also writes it
 * to FILE. Without --out nothing is written to disk.
 *
 * --force disables the cost gate (every site decomposed) — the same
 * ablation knob as DecomposeOptions::use_cost_model=false.
 *
 * --check is the CI regression gate (DESIGN.md §15): exit nonzero when
 * the mean absolute hidden-fraction prediction error exceeds 0.15, when
 * any gate-accepted site (or the model run) simulates an actual
 * speedup below 1 − kGateDecisionMargin, or when any gate-rejected
 * site's forced run simulates a speedup of 1 + kGateDecisionMargin or
 * more (a win the gate should have taken).
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/overlap_report.h"
#include "difftest/difftest.h"
#include "sim/trace_export.h"

using namespace overlap;
using namespace overlap::difftest;

namespace {

struct SiteRun {
    SiteSpec spec;
    OverlapReport report;
    double baseline_step_seconds = 0.0;
    /// Filled for gate-rejected sites: the same site re-compiled with
    /// the gate forced open, so the hidden-fraction prediction can be
    /// graded against the decomposed loop it describes.
    bool has_forced = false;
    OverlapReport forced_report;
};

StatusOr<SiteRun>
RunSite(const SiteSpec& spec, bool force)
{
    SiteRun run;
    run.spec = spec;
    CompilerOptions options;
    options.decompose.use_cost_model = !force;
    auto site = SimulateSite(spec, options);
    if (!site.ok()) return site.status();
    auto report = BuildOverlapReport(site->compile, site->sim);
    if (!report.ok()) return report.status();
    run.report = std::move(report).value();
    run.baseline_step_seconds = site->baseline_step_seconds;
    run.report.baseline_step_seconds = run.baseline_step_seconds;
    run.report.actual_speedup = site->ActualSpeedup();
    return run;
}

/**
 * The site's hidden-fraction prediction error, graded against whichever
 * run actually traced the decomposed loop (the gated run when the gate
 * accepted, the forced run otherwise). Returns false when neither run
 * produced a graded site.
 */
bool
GradedError(const SiteRun& run, double* error)
{
    if (run.report.error_sites > 0) {
        *error = run.report.mean_abs_hidden_fraction_error;
        return true;
    }
    if (run.has_forced && run.forced_report.error_sites > 0) {
        *error = run.forced_report.mean_abs_hidden_fraction_error;
        return true;
    }
    return false;
}

/**
 * False when the gate rejected a site whose forced-decomposed run
 * simulates a speedup outside the gate's decision margin — a win the
 * gate should have taken. True when the site was not rejected.
 */
bool
RejectionJustified(const SiteRun& run)
{
    return !run.has_forced ||
           run.forced_report.actual_speedup < 1.0 + kGateDecisionMargin;
}

std::string
SiteRunJson(const SiteRun& run)
{
    std::string forced = run.has_forced
                             ? run.forced_report.ToJson()
                             : std::string("null");
    return StrCat("{\"case\":\"", SiteCaseName(run.spec.site_case),
                  "\",\"spec\":\"", run.spec.ToString(),
                  "\",\"report\":", run.report.ToJson(),
                  ",\"forced\":", forced, "}");
}

void
PrintSiteRun(const SiteRun& run)
{
    std::printf("case %-14s", SiteCaseName(run.spec.site_case));
    for (const SiteOverlapReport& site : run.report.sites) {
        std::printf(
            "  %s: predicted hidden %.1f%% speedup %.3fx | simulated "
            "hidden %.1f%% actual %.3fx\n",
            site.reason.c_str(), site.PredictedHiddenFraction() * 100.0,
            site.PredictedSpeedup(), site.sim_hidden_fraction * 100.0,
            run.report.actual_speedup);
    }
    if (run.report.sites.empty()) std::printf("  (no matched sites)\n");
    if (run.has_forced) {
        std::printf(
            "    forced-decomposed audit: simulated hidden %.1f%%, "
            "actual %.3fx (gate rejection %s)\n",
            run.forced_report.hidden_fraction * 100.0,
            run.forced_report.actual_speedup,
            RejectionJustified(run) ? "justified" : "questionable");
    }
    double err = 0.0;
    if (GradedError(run, &err)) {
        std::printf("    |hidden-fraction error| %.3f\n", err);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    bool json_only = false;
    bool force = false;
    bool check = false;
    std::string out_path;
    std::string trace_path;
    std::string model_name = "GPT_32B";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
        else if (std::strcmp(argv[i], "--json") == 0) json_only = true;
        else if (std::strcmp(argv[i], "--force") == 0) force = true;
        else if (std::strcmp(argv[i], "--check") == 0) check = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            out_path = argv[++i];
        else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
            trace_path = argv[++i];
        else if (std::strcmp(argv[i], "--model") == 0 && i + 1 < argc)
            model_name = argv[++i];
        else {
            std::fprintf(stderr,
                         "usage: overlap_report [--quick] [--json] "
                         "[--force] [--check] [--out FILE] "
                         "[--trace FILE] [--model NAME]\n");
            return 2;
        }
    }

    // DESIGN.md §15 gate thresholds.
    const double kMaxMeanHiddenFractionError = 0.15;
    const double kSpeedupTolerance = kGateDecisionMargin;

    if (!json_only) {
        bench::Banner("Overlap-efficiency report",
                      "§5.5 cost model vs. simulated timeline, DESIGN.md "
                      "§13");
    }

    std::vector<std::string> site_json;
    std::vector<std::string> gate_failures;
    double error_sum = 0.0;
    int64_t error_count = 0;
    for (const SiteSpec& spec : OverlapReportSiteSpace()) {
        auto run = RunSite(spec, force);
        if (!run.ok()) {
            std::fprintf(stderr, "site %s failed: %s\n",
                         SiteCaseName(spec.site_case),
                         run.status().ToString().c_str());
            return 1;
        }
        // Grade rejected sites against the loop they would have
        // emitted: without this the error gate only ever sees the
        // gate's accepted predictions, and a model drifting toward
        // "reject everything" would pass trivially.
        if (run->report.error_sites == 0) {
            auto forced_run = RunSite(spec, /*force=*/true);
            if (!forced_run.ok()) {
                std::fprintf(stderr, "forced site %s failed: %s\n",
                             SiteCaseName(spec.site_case),
                             forced_run.status().ToString().c_str());
                return 1;
            }
            run->has_forced = true;
            run->forced_report = std::move(forced_run->report);
        }
        double err = 0.0;
        if (GradedError(run.value(), &err)) {
            error_sum += err;
            ++error_count;
        }
        for (const SiteOverlapReport& site : run->report.sites) {
            if (site.decomposed &&
                run->report.actual_speedup < 1.0 - kSpeedupTolerance) {
                gate_failures.push_back(StrCat(
                    "site ", SiteCaseName(spec.site_case),
                    " decomposed but simulated actual speedup ",
                    run->report.actual_speedup, " < ",
                    1.0 - kSpeedupTolerance));
            }
            if (!site.decomposed && !RejectionJustified(run.value())) {
                gate_failures.push_back(StrCat(
                    "site ", SiteCaseName(spec.site_case),
                    " rejected but its forced decomposition simulates "
                    "actual speedup ",
                    run->forced_report.actual_speedup, " >= ",
                    1.0 + kSpeedupTolerance));
            }
        }
        if (!json_only) PrintSiteRun(run.value());
        site_json.push_back(SiteRunJson(run.value()));
    }
    double mean_error =
        error_count > 0 ? error_sum / static_cast<double>(error_count)
                        : 0.0;
    if (mean_error > kMaxMeanHiddenFractionError) {
        gate_failures.push_back(
            StrCat("mean |hidden-fraction error| ", mean_error, " > ",
                   kMaxMeanHiddenFractionError));
    }

    std::string model_json = "null";
    if (!quick) {
        const ModelConfig* model = FindModel(model_name);
        if (model == nullptr) {
            std::fprintf(stderr, "unknown model '%s'\n",
                         model_name.c_str());
            return 1;
        }
        auto analysis = AnalyzeModelOverlap(*model, CompilerOptions());
        if (!analysis.ok()) {
            std::fprintf(stderr, "model analysis failed: %s\n",
                         analysis.status().ToString().c_str());
            return 1;
        }
        model_json = analysis->ToJson();
        if (analysis->report.actual_speedup > 0.0 &&
            analysis->report.actual_speedup < 1.0 - kSpeedupTolerance &&
            analysis->report.decomposed_sites() > 0) {
            gate_failures.push_back(StrCat(
                "model ", model->name, " decomposed ",
                analysis->report.decomposed_sites(),
                " sites but simulated actual speedup ",
                analysis->report.actual_speedup, " < ",
                1.0 - kSpeedupTolerance));
        }
        if (!json_only) {
            std::printf("\nmodel %s: overlap %.3f ms vs baseline %.3f ms "
                        "(%.3fx), layer comm %.1f%% hidden\n",
                        model->name.c_str(),
                        analysis->overlap.step_seconds * 1e3,
                        analysis->baseline.step_seconds * 1e3,
                        analysis->report.actual_speedup,
                        analysis->report.hidden_fraction * 100.0);
        }
        if (!trace_path.empty()) {
            std::ofstream trace_file(trace_path);
            trace_file << analysis->trace_json;
            if (!json_only) {
                std::printf("unified Chrome trace written to %s\n",
                            trace_path.c_str());
            }
        }
    }

    std::string doc = StrCat(
        "{\"sites\":[", StrJoin(site_json, ","),
        "],\"mean_abs_hidden_fraction_error\":", mean_error,
        ",\"error_sites\":", error_count,
        ",\"error_gate\":{\"threshold\":", kMaxMeanHiddenFractionError,
        ",\"pass\":", gate_failures.empty() ? "true" : "false",
        "},\"model\":", model_json, "}\n");
    if (json_only) std::printf("%s", doc.c_str());
    if (!out_path.empty()) {
        std::ofstream out(out_path);
        out << doc;
    }
    if (!json_only) {
        std::printf("\nmean |hidden-fraction error| %.3f over %lld "
                    "graded sites (gate %.2f)\n",
                    mean_error, static_cast<long long>(error_count),
                    kMaxMeanHiddenFractionError);
        if (!out_path.empty()) {
            std::printf("report written to %s\n", out_path.c_str());
        }
    }
    if (check && !gate_failures.empty()) {
        for (const std::string& failure : gate_failures) {
            std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
        }
        return 1;
    }
    return 0;
}
