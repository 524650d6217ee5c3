/**
 * @file
 * Reproduces Figure 15: the bidirectional-data-transfer ablation on the
 * Table 2 GPT family. Bidirectional transfer halves the serial ring
 * steps by circulating two streams in opposite directions (§5.4.2); the
 * benefit is small when the per-iteration computation already covers the
 * unidirectional transfers (few partitions along the overlapped
 * dimension — GPT_32B in this reproduction) and large otherwise.
 *
 *   fig15_bidirectional [--json]
 *
 * --json prints only the per-model numbers as JSON (BENCH_fig15.json,
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
        bench::Banner(
            "Bidirectional-transfer ablation (normalized step time)",
            "Figure 15 of the paper");
        std::printf("%-9s %7s  %14s %12s  %s\n", "model", "mesh-x",
                    "unidirectional", "bidirectional", "bidi benefit");
    }
    bool failed = false;
    std::vector<std::string> rows;
    for (const ModelConfig& config : Table2GptModels()) {
        CompilerOptions uni;
        uni.decompose.bidirectional = false;
        auto without = SimulateModelStep(config, uni);
        auto with = SimulateModelStep(config, CompilerOptions());
        if (!without.ok() || !with.ok()) {
            std::fprintf(json_only ? stderr : stdout, "%-9s FAILED\n",
                         config.name.c_str());
            failed = true;
            continue;
        }
        double normalized = without->step_seconds / with->step_seconds;
        rows.push_back(bench::ModelJsonRow(
            config,
            StrCat("\"mesh_x\": ", config.mesh_x,
                   ", \"unidirectional_step_s\": ",
                   bench::Json17(without->step_seconds),
                   ", \"bidirectional_step_s\": ",
                   bench::Json17(with->step_seconds),
                   ", \"normalized\": ", bench::Json17(normalized))));
        if (json_only) continue;
        std::printf("%-9s %7lld  %13.3fx %12s  %+5.1f%%  |%s|\n",
                    config.name.c_str(),
                    static_cast<long long>(config.mesh_x), normalized,
                    "1.000x", (normalized - 1.0) * 100.0,
                    bench::Bar(normalized - 1.0, 0.6, 30).c_str());
    }
    if (json_only) {
        bench::PrintModelsJson(rows);
        return failed ? 1 : 0;
    }
    std::printf(
        "\nPaper: GPT_32B and GPT_128B gain <5%% (computation already "
        "covers the\nunidirectional transfers); the other sizes gain "
        "more. In this reproduction the\n128B mesh keeps more attention "
        "ReduceScatter ring time exposed, so its gain is\nlarger than the "
        "paper's (see EXPERIMENTS.md).\n");
    return 0;
}
