/**
 * @file
 * Resilience sweep: step-time distribution (p50/p99 over seeded trials)
 * of the decomposed-overlap compiler versus the blocking baseline as one
 * ring link degrades from healthy to nearly dead. Shows the
 * variance-aware §5.5 gate flipping sites back to blocking collectives
 * once the degraded ring no longer wins, and emits the sweep as JSON
 * (pass --json for machine-readable output only).
 */
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "models/fault_presets.h"

using namespace overlap;

namespace {

struct SweepPoint {
    double bandwidth_factor = 1.0;
    StepTrialReport overlapped;
    StepTrialReport baseline;
};

std::string
PointJson(const SweepPoint& point)
{
    const DecomposeStats& stats = point.overlapped.compile.decompose;
    return StrCat(
        "    {\"link_bandwidth_factor\": ", point.bandwidth_factor,
        ", \"overlap_p50_s\": ", point.overlapped.p50_step_seconds,
        ", \"overlap_p99_s\": ", point.overlapped.p99_step_seconds,
        ", \"baseline_p50_s\": ", point.baseline.p50_step_seconds,
        ", \"baseline_p99_s\": ", point.baseline.p99_step_seconds,
        ", \"decomposed_sites\": ", stats.total_decomposed(),
        ", \"fault_fallbacks\": ", stats.fault_fallbacks,
        ", \"fault_lowered\": ", stats.fault_lowered,
        ", \"retries\": ", point.overlapped.trials.total_retries, "}");
}

}  // namespace

int
main(int argc, char** argv)
{
    bool json_only = false;
    if (!bench::ParseJsonFlag(argc, argv, &json_only)) return 2;

    const ModelConfig config = Table2GptModels()[0];
    const int64_t kTrials = 16;
    const std::vector<double> severities = {1.0,  0.8, 0.6, 0.4,
                                            0.25, 0.1, 0.05};

    if (!json_only) {
        bench::Banner(
            StrCat("Fault sweep on ", config.name,
                   ": single degraded ring link, ", kTrials,
                   " trials/point"),
            "the robustness analysis the paper's §5.5 gate motivates");
        std::printf("%-8s  %10s %10s   %10s %10s   %5s %5s %5s\n",
                    "link-bw", "ovl-p50", "ovl-p99", "base-p50",
                    "base-p99", "sites", "fall", "lower");
    }

    std::vector<SweepPoint> sweep;
    for (double severity : severities) {
        SweepPoint point;
        point.bandwidth_factor = severity;

        FaultSpec spec;
        if (severity < 1.0) {
            spec = SingleDegradedLink(config.mesh(), /*axis=*/0, severity)
                       .spec;
        }
        // Mild per-trial noise so the percentiles are a distribution,
        // not a point mass.
        spec.seed = 13;
        spec.link_jitter = 0.02;
        spec.compute_jitter = 0.01;

        CompilerOptions overlapped;
        overlapped.fault = spec;
        auto overlap_report =
            SimulateModelStepTrials(config, overlapped, kTrials);

        CompilerOptions baseline = CompilerOptions::Baseline();
        baseline.fault = spec;
        auto baseline_report =
            SimulateModelStepTrials(config, baseline, kTrials);

        if (!overlap_report.ok() || !baseline_report.ok()) {
            std::fprintf(stderr, "sweep point %.2f FAILED\n", severity);
            return 1;
        }
        point.overlapped = std::move(overlap_report).value();
        point.baseline = std::move(baseline_report).value();

        if (!json_only) {
            const DecomposeStats& stats =
                point.overlapped.compile.decompose;
            std::printf(
                "%-8.2f  %10s %10s   %10s %10s   %5lld %5lld %5lld\n",
                severity,
                HumanTime(point.overlapped.p50_step_seconds).c_str(),
                HumanTime(point.overlapped.p99_step_seconds).c_str(),
                HumanTime(point.baseline.p50_step_seconds).c_str(),
                HumanTime(point.baseline.p99_step_seconds).c_str(),
                static_cast<long long>(stats.total_decomposed()),
                static_cast<long long>(stats.fault_fallbacks),
                static_cast<long long>(stats.fault_lowered));
        }
        sweep.push_back(std::move(point));
    }

    if (!json_only) {
        std::printf(
            "\nAs the link degrades, the gate first lowers sites to the "
            "healthy ring\ndirection, then falls back to blocking "
            "collectives entirely; the baseline's\nstep time is flat "
            "because the runtime's collectives route around the link."
            "\n\nJSON:\n");
    }
    std::printf("{\n  \"model\": \"%s\",\n  \"trials\": %lld,\n"
                "  \"sweep\": [\n",
                config.name.c_str(), static_cast<long long>(kTrials));
    for (size_t i = 0; i < sweep.size(); ++i) {
        std::printf("%s%s\n", PointJson(sweep[i]).c_str(),
                    i + 1 < sweep.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
}
