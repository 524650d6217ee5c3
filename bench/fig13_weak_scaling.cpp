/**
 * @file
 * Reproduces Figure 13 (and Table 2): weak-scaling study on GPT models
 * from 32B to 1T parameters on 64 to 2048 chips. The paper reports a
 * consistent 1.1-1.4x speedup at every size.
 *
 *   fig13_weak_scaling [--json]
 *
 * --json prints only the per-model numbers as JSON (BENCH_fig13.json,
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
        bench::Banner("Weak scaling: GPT 32B to 1T",
                      "Figure 13 and Table 2 of the paper");
        std::printf("%-9s %6s %7s  %10s %10s  %7s  %8s\n", "model", "chips",
                    "mesh", "base-step", "over-step", "speedup",
                    "over-MFU");
    }
    bool failed = false;
    std::vector<std::string> rows;
    for (const ModelConfig& config : Table2GptModels()) {
        auto row = bench::CompareModel(config);
        if (!row.ok()) {
            std::fprintf(json_only ? stderr : stdout, "%-9s FAILED: %s\n",
                         config.name.c_str(),
                         row.status().ToString().c_str());
            failed = true;
            continue;
        }
        rows.push_back(bench::ModelJsonRow(
            config, StrCat("\"chips\": ", config.num_chips,
                           ", \"mesh\": \"", config.mesh_x, "x",
                           config.mesh_y, "\", ",
                           bench::ComparisonJsonFields(*row))));
        if (json_only) continue;
        std::printf("%-9s %6lld %3lldx%-3lld  %10s %10s  %6.2fx  %7.1f%%\n",
                    config.name.c_str(),
                    static_cast<long long>(config.num_chips),
                    static_cast<long long>(config.mesh_x),
                    static_cast<long long>(config.mesh_y),
                    HumanTime(row->baseline.step_seconds).c_str(),
                    HumanTime(row->overlapped.step_seconds).c_str(),
                    row->speedup(), row->overlapped.mfu * 100.0);
    }
    if (json_only) {
        bench::PrintModelsJson(rows);
        return failed ? 1 : 0;
    }
    std::printf("\nTable 2 configurations:\n");
    for (const ModelConfig& config : Table2GptModels()) {
        std::printf("  %s\n", config.ToString().c_str());
    }
    std::printf("\nPaper: the technique consistently improves every size "
                "by 1.1-1.4x.\n");
    return 0;
}
