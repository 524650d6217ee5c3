/**
 * @file
 * Reproduces Figure 14: the loop-unrolling ablation on the Table 2 GPT
 * family. Without unrolling the decomposed loops carry the loop-carried
 * aliasing Copies and the Einsum-ReduceScatter case collapses to a
 * single accumulation chain whose fused accumulation blocks the overlap
 * (§5.4.1); y-axis is step time normalized to the fully-optimized run.
 *
 *   fig14_unrolling [--json]
 *
 * --json prints only the per-model numbers as JSON (BENCH_fig14.json,
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
        bench::Banner("Loop-unrolling ablation (normalized step time)",
                      "Figure 14 of the paper");
        std::printf("%-9s  %12s %12s  %s\n", "model", "no-unroll",
                    "with-unroll", "unroll benefit");
    }
    bool failed = false;
    std::vector<std::string> rows;
    for (const ModelConfig& config : Table2GptModels()) {
        CompilerOptions no_unroll;
        no_unroll.decompose.unroll = false;
        auto without = SimulateModelStep(config, no_unroll);
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
            StrCat("\"no_unroll_step_s\": ",
                   bench::Json17(without->step_seconds),
                   ", \"unroll_step_s\": ",
                   bench::Json17(with->step_seconds),
                   ", \"normalized\": ", bench::Json17(normalized))));
        if (json_only) continue;
        std::printf("%-9s  %11.3fx %12s  %+5.1f%%  |%s|\n",
                    config.name.c_str(), normalized, "1.000x",
                    (normalized - 1.0) * 100.0,
                    bench::Bar(normalized - 1.0, 0.5, 30).c_str());
    }
    if (json_only) {
        bench::PrintModelsJson(rows);
        return failed ? 1 : 0;
    }
    std::printf("\nPaper: unrolling helps every size by a similar margin "
                "(step time without it\nis several percent higher across "
                "the family).\n");
    return 0;
}
