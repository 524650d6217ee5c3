#ifndef OVERLAP_BENCH_BENCH_UTIL_H_
#define OVERLAP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/pod_runner.h"
#include "support/strings.h"

namespace overlap {
namespace bench {

/** Prints a section banner for a reproduced table/figure. */
inline void
Banner(const std::string& title, const std::string& paper_reference)
{
    std::printf("\n=============================================="
                "==============================\n");
    std::printf("%s\n", title.c_str());
    std::printf("(reproduces %s)\n", paper_reference.c_str());
    std::printf("================================================"
                "============================\n");
}

/** Runs baseline + overlapped simulations for one model config. */
struct ComparisonRow {
    StepReport baseline;
    StepReport overlapped;

    double speedup() const
    {
        return baseline.step_seconds / overlapped.step_seconds;
    }
};

inline StatusOr<ComparisonRow>
CompareModel(const ModelConfig& config,
             const CompilerOptions& overlap_options = CompilerOptions())
{
    auto baseline = SimulateModelStep(config, CompilerOptions::Baseline());
    if (!baseline.ok()) return baseline.status();
    auto overlapped = SimulateModelStep(config, overlap_options);
    if (!overlapped.ok()) return overlapped.status();
    ComparisonRow row;
    row.baseline = std::move(baseline).value();
    row.overlapped = std::move(overlapped).value();
    return row;
}

/** `value` as a JSON number that round-trips exactly (%.17g). */
inline std::string
Json17(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/**
 * The per-model JSON fields of a comparison row: step seconds, MFU and
 * exposed-communication share of both arms, plus the speedup. The
 * paper-figure benches emit these under --json, and their committed
 * BENCH_fig*.json gate the figures byte for byte.
 */
inline std::string
ComparisonJsonFields(const ComparisonRow& row)
{
    return StrCat("\"baseline_step_s\": ", Json17(row.baseline.step_seconds),
                  ", \"overlapped_step_s\": ",
                  Json17(row.overlapped.step_seconds),
                  ", \"baseline_mfu\": ", Json17(row.baseline.mfu),
                  ", \"overlapped_mfu\": ", Json17(row.overlapped.mfu),
                  ", \"baseline_comm_frac\": ",
                  Json17(row.baseline.comm_fraction),
                  ", \"overlapped_comm_frac\": ",
                  Json17(row.overlapped.comm_fraction),
                  ", \"speedup\": ", Json17(row.speedup()));
}

/**
 * Parses the paper-figure benches' one flag: `--json` sets *json_only.
 * Reports any other argument on stderr and returns false; the bench
 * then exits 2.
 */
inline bool
ParseJsonFlag(int argc, char** argv, bool* json_only)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") != 0) {
            std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
            return false;
        }
        *json_only = true;
    }
    return true;
}

/** One model's row of a paper-figure JSON document. */
inline std::string
ModelJsonRow(const ModelConfig& config, const std::string& fields)
{
    return StrCat("    {\"model\": \"", config.name, "\", ", fields, "}");
}

/**
 * The --json document of a paper-figure bench: `{"models": [rows]}`,
 * the shape every committed BENCH_fig*.json has.
 */
inline void
PrintModelsJson(const std::vector<std::string>& rows)
{
    std::printf("{\n  \"models\": [\n%s\n  ]\n}\n",
                StrJoin(rows, ",\n").c_str());
}

/** ASCII bar of `value` out of `full_scale`. */
inline std::string
Bar(double value, double full_scale, int width = 40)
{
    int n = static_cast<int>(value / full_scale * width + 0.5);
    if (n < 0) n = 0;
    if (n > width) n = width;
    return std::string(static_cast<size_t>(n), '#');
}

}  // namespace bench
}  // namespace overlap

#endif  // OVERLAP_BENCH_BENCH_UTIL_H_
