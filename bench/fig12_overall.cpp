/**
 * @file
 * Reproduces Figure 12: achieved throughput of the six Table 1 models as
 * a fraction of peak FLOPS (MFU), baseline vs overlapped, plus the
 * speedup the decomposition technique delivers.
 *
 *   fig12_overall [--json]
 *
 * --json prints only the per-model numbers as JSON (BENCH_fig12.json,
 * written by scripts/refresh_baselines.sh and gated byte for byte by
 * `ctest -L sweep`); it exits nonzero if any model fails.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"

using namespace overlap;

int
main(int argc, char** argv)
{
    bool json_only = false;
    if (!bench::ParseJsonFlag(argc, argv, &json_only)) return 2;
    if (!json_only) {
        bench::Banner("Overall performance: baseline vs overlapped "
                      "(peak-FLOPS fraction)",
                      "Figure 12 of the paper");
        std::printf("%-12s  %8s %8s  %8s %8s  %7s\n", "model", "base-MFU",
                    "over-MFU", "base-comm", "over-comm", "speedup");
    }
    double speedup_product = 1.0;
    double best_speedup = 0.0;
    int count = 0;
    bool failed = false;
    std::vector<std::string> rows;
    for (const ModelConfig& config : Table1Models()) {
        auto row = bench::CompareModel(config);
        if (!row.ok()) {
            std::fprintf(json_only ? stderr : stdout, "%-12s FAILED: %s\n",
                         config.name.c_str(),
                         row.status().ToString().c_str());
            failed = true;
            continue;
        }
        rows.push_back(
            bench::ModelJsonRow(config, bench::ComparisonJsonFields(*row)));
        if (!json_only) {
            std::printf("%-12s  %7.1f%% %7.1f%%  %7.1f%% %8.1f%%  %6.2fx\n",
                        config.name.c_str(), row->baseline.mfu * 100.0,
                        row->overlapped.mfu * 100.0,
                        row->baseline.comm_fraction * 100.0,
                        row->overlapped.comm_fraction * 100.0,
                        row->speedup());
        }
        speedup_product *= row->speedup();
        best_speedup = std::max(best_speedup, row->speedup());
        ++count;
    }
    if (json_only) {
        bench::PrintModelsJson(rows);
        return failed ? 1 : 0;
    }
    if (count > 0) {
        std::printf("\ngeometric-mean speedup: %.2fx   best: %.2fx\n",
                    std::pow(speedup_product, 1.0 / count), best_speedup);
    }
    std::printf(
        "\nPaper: 1.14-1.38x speedups (avg ~1.2x); the dense models reach "
        ">60%% MFU\n(72%% peak on Meena_500B); T5_300B is the lowest dense "
        "model because of its\nbackward AllToAlls; GLaM_1T (MoE) and "
        "BigSSL_10B (1-D partitioning) sit near 40%%.\n");
    return 0;
}
