/**
 * @file
 * Reproduces Figure 1: training step time breakdown (computation vs data
 * communication) of the six Table 1 models under the *baseline* system —
 * blocking collectives, no overlap. The paper's point: every large model
 * spends a substantial fraction of its step communicating.
 *
 *   fig01_breakdown [--json]
 *
 * --json prints only the per-model numbers as JSON (BENCH_fig01.json,
 * written by scripts/refresh_baselines.sh and gated byte for byte by
 * `ctest -L sweep`); it exits nonzero if any model fails.
 */
#include <cstdio>

#include "bench_util.h"

using namespace overlap;

int
main(int argc, char** argv)
{
    bool json_only = false;
    if (!bench::ParseJsonFlag(argc, argv, &json_only)) return 2;
    if (!json_only) {
        bench::Banner("Training step time breakdown (baseline, no overlap)",
                      "Figure 1 and Table 1 of the paper");
        std::printf("%-12s %6s %7s %10s  %7s %7s  breakdown\n", "model",
                    "chips", "mesh", "step", "compute", "comm");
    }
    bool failed = false;
    std::vector<std::string> rows;
    for (const ModelConfig& config : Table1Models()) {
        auto report =
            SimulateModelStep(config, CompilerOptions::Baseline());
        if (!report.ok()) {
            std::fprintf(json_only ? stderr : stdout, "%-12s FAILED: %s\n",
                         config.name.c_str(),
                         report.status().ToString().c_str());
            failed = true;
            continue;
        }
        double comm = report->comm_fraction;
        rows.push_back(bench::ModelJsonRow(
            config, StrCat("\"chips\": ", config.num_chips,
                           ", \"mesh\": \"", config.mesh_x, "x",
                           config.mesh_y, "\", \"step_s\": ",
                           bench::Json17(report->step_seconds),
                           ", \"comm_frac\": ", bench::Json17(comm))));
        if (json_only) continue;
        std::printf("%-12s %6lld %3lldx%-3lld %10s  %6.1f%% %6.1f%%  |%s|\n",
                    config.name.c_str(),
                    static_cast<long long>(config.num_chips),
                    static_cast<long long>(config.mesh_x),
                    static_cast<long long>(config.mesh_y),
                    HumanTime(report->step_seconds).c_str(),
                    (1.0 - comm) * 100.0, comm * 100.0,
                    bench::Bar(comm, 1.0).c_str());
    }
    if (json_only) {
        bench::PrintModelsJson(rows);
        return failed ? 1 : 0;
    }
    std::printf("\nTable 1 configurations:\n");
    for (const ModelConfig& config : Table1Models()) {
        std::printf("  %s\n", config.ToString().c_str());
    }
    std::printf("\nPaper: all six models spend a substantial share of the "
                "step on communication\n(roughly 15-60%% depending on the "
                "architecture); the same shape holds above.\n");
    return 0;
}
