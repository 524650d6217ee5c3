/**
 * @file
 * Reproduces Figure 16: bottom-up (Algorithm 2) vs top-down scheduling
 * of the asynchronous CollectivePermutes. The paper reports the
 * bottom-up approach ~5% faster on average, and adopts it.
 *
 *   fig16_scheduling [--json]
 *
 * --json prints only the per-model numbers as JSON (BENCH_fig16.json,
 * written by scripts/refresh_baselines.sh and gated byte for byte by
 * `ctest -L sweep`); it exits nonzero if any model fails.
 */
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
        bench::Banner("Scheduling approaches: bottom-up vs top-down",
                      "Figure 16 of the paper");
        std::printf("%-9s  %12s %12s  %s\n", "model", "top-down",
                    "bottom-up", "bottom-up advantage");
    }
    double product = 1.0;
    int count = 0;
    bool failed = false;
    std::vector<std::string> rows;
    for (const ModelConfig& config : Table2GptModels()) {
        CompilerOptions top_down;
        top_down.scheduler = SchedulerKind::kTopDown;
        auto td = SimulateModelStep(config, top_down);
        auto bu = SimulateModelStep(config, CompilerOptions());
        if (!td.ok() || !bu.ok()) {
            std::fprintf(json_only ? stderr : stdout, "%-9s FAILED\n",
                         config.name.c_str());
            failed = true;
            continue;
        }
        double advantage = td->step_seconds / bu->step_seconds;
        rows.push_back(bench::ModelJsonRow(
            config,
            StrCat("\"top_down_step_s\": ", bench::Json17(td->step_seconds),
                   ", \"bottom_up_step_s\": ",
                   bench::Json17(bu->step_seconds),
                   ", \"advantage\": ", bench::Json17(advantage))));
        product *= advantage;
        ++count;
        if (json_only) continue;
        std::printf("%-9s  %11.3fx %12s  %+5.1f%%\n", config.name.c_str(),
                    advantage, "1.000x", (advantage - 1.0) * 100.0);
    }
    if (json_only) {
        bench::PrintModelsJson(rows);
        return failed ? 1 : 0;
    }
    if (count > 0) {
        std::printf("\naverage bottom-up advantage: %+.1f%%\n",
                    (std::pow(product, 1.0 / count) - 1.0) * 100.0);
    }
    std::printf("\nPaper: the bottom-up scheduler is ~5%% faster on "
                "average and is the one the\nfinal system uses.\n");
    return 0;
}
