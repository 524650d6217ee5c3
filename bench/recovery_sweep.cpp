/**
 * @file
 * Elastic-recovery sweep (DESIGN.md §11): recovery latency and total run
 * overhead of a mid-run permanent chip failure, swept over checkpoint
 * intervals and failure times. Short intervals pay checkpoint traffic
 * but replay little; long intervals replay most of the work since the
 * last snapshot. Emits the sweep as JSON (--json for machine-readable
 * output only, --quick for the sanitize-suite subset, --threads N to
 * fan the independent sweep points across a worker pool — output order
 * and contents are identical at every thread count). `--threads` takes
 * a whole integer >= 1; an unknown argument or a malformed value exits
 * with status 2 and the usage line.
 */
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "models/fault_presets.h"
#include "support/thread_pool.h"

using namespace overlap;

namespace {

struct SweepPoint {
    int64_t checkpoint_interval = 0;
    int64_t fail_step = 0;
    ElasticRunReport report;
    /// Non-empty when this point's run failed (reported in grid order).
    std::string error;
};

std::string
PointJson(const SweepPoint& point)
{
    const RecoveryEvent& r = point.report.recoveries.front();
    return StrCat(
        "    {\"checkpoint_interval\": ", point.checkpoint_interval,
        ", \"fail_step\": ", point.fail_step,
        ", \"recovered\": true",
        ", \"detection_s\": ", r.detection_seconds,
        ", \"restore_s\": ", r.restore_seconds,
        ", \"replan_s\": ", r.replan_seconds,
        ", \"replay_s\": ", r.replay_seconds,
        ", \"recovery_latency_s\": ", r.LatencySeconds(),
        ", \"replayed_steps\": ", r.replayed_steps,
        ", \"checkpoint_bytes\": ", r.checkpoint_bytes,
        ", \"total_s\": ", point.report.total_seconds,
        ", \"p50_step_s\": ", point.report.steps.p50_step_seconds, "}");
}

}  // namespace

int
main(int argc, char** argv)
{
    bool json_only = false;
    bool quick = false;
    int64_t threads = DefaultThreadCount();
    const char* usage =
        "usage: recovery_sweep [--json] [--quick] [--threads N]\n";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_only = true;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
            auto parsed = ParseFlag<int64_t>(argv[i], argv[i + 1], 1);
            if (!parsed) {
                std::fputs(usage, stderr);
                return 2;
            }
            threads = *parsed;
            ++i;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n%s", argv[i], usage);
            return 2;
        }
    }

    const Mesh mesh(4);
    const int64_t kNumSteps = quick ? 8 : 16;
    const std::vector<int64_t> intervals =
        quick ? std::vector<int64_t>{1, 2, 4}
              : std::vector<int64_t>{1, 2, 4, 8};
    // Odd steps land between checkpoints, so longer intervals actually
    // replay work instead of resuming from a snapshot taken at the
    // failure point.
    const std::vector<int64_t> fail_steps =
        quick ? std::vector<int64_t>{kNumSteps - 1}
              : std::vector<int64_t>{3, kNumSteps / 2 + 1, kNumSteps - 3};

    ElasticProgramSpec program;
    program.logical_rows = 8;
    program.feature = 4;

    if (!json_only) {
        bench::Banner(
            StrCat("Recovery sweep on ", mesh.ToString(), ": ",
                   kNumSteps, " steps, chip 1 dies mid-run"),
            "checkpoint interval vs. replay: the elastic runtime's "
            "core trade-off");
        std::printf("%-9s %-6s  %10s %10s %10s %10s   %6s\n", "interval",
                    "fail@", "detect", "restore", "replay", "latency",
                    "replay#");
    }

    // The sweep points are independent: fan them across a pool and
    // print in grid order afterwards, so --threads never changes the
    // output.
    std::vector<std::pair<int64_t, int64_t>> grid;
    for (int64_t interval : intervals) {
        for (int64_t fail_step : fail_steps) {
            grid.emplace_back(interval, fail_step);
        }
    }
    auto run_point = [&](int64_t i) {
        SweepPoint point;
        point.checkpoint_interval = grid[static_cast<size_t>(i)].first;
        point.fail_step = grid[static_cast<size_t>(i)].second;
        ElasticRunOptions options;
        options.num_steps = kNumSteps;
        options.checkpoint_interval = point.checkpoint_interval;
        options.program = program;
        options.compiler.decompose.use_cost_model = false;
        options.compiler.fault =
            ChipDeath(/*chip=*/1, point.fail_step).spec;
        auto report = RunElasticTraining(mesh, options);
        if (!report.ok()) {
            point.error = report.status().ToString();
            return point;
        }
        point.report = std::move(report).value();
        if (point.report.recoveries.size() != 1) {
            point.error = StrCat("expected one recovery, got ",
                                 point.report.recoveries.size());
        }
        return point;
    };
    std::vector<SweepPoint> sweep;
    if (threads > 1) {
        ThreadPool pool(std::min<int64_t>(
            threads, static_cast<int64_t>(grid.size())));
        sweep = pool.ParallelFor(static_cast<int64_t>(grid.size()),
                                 run_point);
    } else {
        for (size_t i = 0; i < grid.size(); ++i) {
            sweep.push_back(run_point(static_cast<int64_t>(i)));
        }
    }
    for (const SweepPoint& point : sweep) {
        if (!point.error.empty()) {
            std::fprintf(stderr, "sweep point (k=%lld, t=%lld): %s\n",
                         static_cast<long long>(point.checkpoint_interval),
                         static_cast<long long>(point.fail_step),
                         point.error.c_str());
            return 1;
        }
        if (!json_only) {
            const RecoveryEvent& r = point.report.recoveries.front();
            std::printf("%-9lld %-6lld  %10s %10s %10s %10s   %6lld\n",
                        static_cast<long long>(point.checkpoint_interval),
                        static_cast<long long>(point.fail_step),
                        HumanTime(r.detection_seconds).c_str(),
                        HumanTime(r.restore_seconds).c_str(),
                        HumanTime(r.replay_seconds).c_str(),
                        HumanTime(r.LatencySeconds()).c_str(),
                        static_cast<long long>(r.replayed_steps));
        }
    }

    if (!json_only) {
        std::printf(
            "\nReplay grows with the checkpoint interval (work since the "
            "last snapshot is\nlost); detection and restore are "
            "interval-independent. The survivor ring is\nodd, so the "
            "recompile's §5.5 gate lowers the replanned loops to "
            "unidirectional.\n\nJSON:\n");
    }
    std::printf("{\n  \"mesh\": \"%s\",\n  \"num_steps\": %lld,\n"
                "  \"sweep\": [\n",
                mesh.ToString().c_str(),
                static_cast<long long>(kNumSteps));
    for (size_t i = 0; i < sweep.size(); ++i) {
        std::printf("%s%s\n", PointJson(sweep[i]).c_str(),
                    i + 1 < sweep.size() ? "," : "");
    }
    std::printf("  ]\n}\n");
    return 0;
}
