/**
 * @file
 * Silent-data-corruption sweep (DESIGN.md §16): what detection costs
 * and what containment buys. Two parts, emitted as one JSON document:
 *
 *  - Detector overhead at realistic layer scale: a transformer layer
 *    simulated (timing only) with every detector armed, swept over the
 *    ABFT check cadence and both lowerings, against the detectors-off
 *    baseline. The detectors must cost at most 10% of step time at the
 *    default cadence — checksums are bandwidth-bound (O(bytes)) while
 *    the einsums they guard are compute-bound (O(MKN) flops).
 *  - Containment on the elastic step program, where real data flows:
 *    clean runs with detectors armed must stay report-free (zero false
 *    positives) and end bit-identical to the detectors-off run; one
 *    seeded einsum-output and one transfer-payload corruption mid-run
 *    must each be detected before any state commits, rolled back to
 *    the last clean checkpoint and replayed to a final state
 *    bit-identical to the clean run; a chip that keeps corrupting must
 *    hit the strike limit and be quarantined via the survivor-mesh
 *    replan, finishing within decomposition tolerance on the shrunk
 *    mesh.
 *
 * Any violated invariant prints to stderr and fails the bench (exit 1).
 * `--threads` takes a whole integer >= 1; an unknown argument or a
 * malformed value exits with status 2 and the usage line.
 * Emits JSON (--json for machine-readable output only, --quick for the
 * sanitize-suite subset, --out FILE to also write the JSON to FILE).
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "interp/comparison.h"
#include "models/fault_presets.h"
#include "support/thread_pool.h"

using namespace overlap;

namespace {

constexpr double kOverheadLimit = 0.10;

/** The layer the overhead measurement runs on: a mid-size dense model
 * on a 4x4 pod — large enough that per-kernel launch overhead is
 * amortized the way it is at the paper's scales. */
ModelConfig
OverheadModel()
{
    ModelConfig config;
    config.name = "dense_16chip";
    config.kind = ModelKind::kDense;
    config.num_layers = 32;
    config.model_dim = 4096;
    config.ff_dim = 16384;
    config.batch_size = 512;
    config.seq_len = 1024;
    config.num_chips = 16;
    config.mesh_x = 4;
    config.mesh_y = 4;
    return config;
}

struct OverheadPoint {
    std::string lowering;
    int64_t cadence = 0;
    double step_seconds = 0.0;
    double overhead_fraction = 0.0;
    double detector_seconds = 0.0;
    int64_t transfer_checksums = 0;
    int64_t abft_checks = 0;
    std::string error;
};

std::string
OverheadJson(const OverheadPoint& p)
{
    return StrCat(
        "    {\"lowering\": \"", p.lowering, "\", \"cadence\": ",
        p.cadence, ", \"step_s\": ", p.step_seconds,
        ", \"overhead_fraction\": ", p.overhead_fraction,
        ", \"detector_s\": ", p.detector_seconds,
        ", \"transfer_checksums\": ", p.transfer_checksums,
        ", \"abft_checks\": ", p.abft_checks, "}");
}

struct ContainmentPoint {
    std::string lowering;
    std::string scenario;
    ElasticRunReport report;
    /// Final state vs. the same lowering's detectors-off clean run.
    bool state_equal = false;
    double state_max_diff = 0.0;
    std::string error;
};

std::string
ContainmentJson(const ContainmentPoint& p)
{
    const SdcStats& s = p.report.sdc;
    return StrCat(
        "    {\"lowering\": \"", p.lowering, "\", \"scenario\": \"",
        p.scenario, "\", \"total_s\": ", p.report.total_seconds,
        ", \"detected\": ", s.detected, ", \"escaped\": ", s.escaped,
        ", \"rollbacks\": ", s.rollbacks,
        ", \"replayed_steps\": ", s.replayed_steps,
        ", \"detection_latency_s\": ", s.detection_latency_seconds,
        ", \"rollback_s\": ", s.rollback_seconds,
        ", \"quarantined\": ", s.quarantined ? "true" : "false",
        ", \"final_mesh\": \"", p.report.final_mesh.ToString(),
        "\", \"state_equal\": ", p.state_equal ? "true" : "false",
        ", \"state_max_diff\": ", p.state_max_diff, "}");
}

}  // namespace

int
main(int argc, char** argv)
{
    bool json_only = false;
    bool quick = false;
    std::string out_path;
    int64_t threads = DefaultThreadCount();
    const char* usage =
        "usage: sdc_sweep [--json] [--quick] [--threads N] [--out FILE]\n";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json_only = true;
        } else if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
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
    bool failed = false;

    if (!json_only) {
        bench::Banner(
            "SDC sweep: detector overhead, detection latency, "
            "containment and quarantine",
            "DESIGN.md §16");
    }

    // ------------------------------------------------------------------
    // Part 1: detector overhead vs. ABFT cadence at layer scale (timing
    // only — the engine charges the checksum and ABFT kernels).
    // ------------------------------------------------------------------
    const ModelConfig model = OverheadModel();
    const std::vector<int64_t> cadences =
        quick ? std::vector<int64_t>{1, 4}
              : std::vector<int64_t>{1, 2, 4, 8};
    const std::vector<std::string> lowerings = {"decomposed", "blocking"};

    auto model_options = [&](const std::string& lowering) {
        CompilerOptions options;
        if (lowering == "blocking") {
            options = CompilerOptions::Baseline();
        } else {
            options.decompose.use_cost_model = false;
        }
        return options;
    };

    std::vector<OverheadPoint> overhead;
    for (const std::string& lowering : lowerings) {
        auto off = SimulateModelStep(model, model_options(lowering));
        if (!off.ok()) {
            std::fprintf(stderr, "overhead baseline (%s): %s\n",
                         lowering.c_str(),
                         off.status().ToString().c_str());
            return 1;
        }
        for (int64_t cadence : cadences) {
            OverheadPoint point;
            point.lowering = lowering;
            point.cadence = cadence;
            CompilerOptions options = model_options(lowering);
            options.fault.sdc.enabled = true;
            options.fault.sdc.einsum_check_cadence = cadence;
            auto on = SimulateModelStep(model, options);
            if (!on.ok()) {
                point.error = on.status().ToString();
            } else {
                point.step_seconds = on->step_seconds;
                point.overhead_fraction =
                    on->step_seconds / off->step_seconds - 1.0;
                point.detector_seconds = on->layer.detector_seconds;
                point.transfer_checksums =
                    on->layer.num_transfer_checksums;
                point.abft_checks = on->layer.num_abft_checks;
                if (cadence == 1 &&
                    point.overhead_fraction > kOverheadLimit) {
                    point.error = StrCat("detector overhead ",
                                         point.overhead_fraction,
                                         " exceeds ", kOverheadLimit);
                }
            }
            if (!point.error.empty()) {
                failed = true;
                std::fprintf(stderr, "overhead point (%s, cadence %lld)"
                             ": %s\n", lowering.c_str(),
                             static_cast<long long>(cadence),
                             point.error.c_str());
            }
            overhead.push_back(std::move(point));
        }
    }

    if (!json_only) {
        std::printf("Detector overhead on %s (%s):\n",
                    model.name.c_str(), model.mesh().ToString().c_str());
        std::printf("%-11s %7s  %9s %10s %9s %6s\n", "lowering",
                    "cadence", "overhead", "detector_s", "checksums",
                    "abft");
        for (const OverheadPoint& p : overhead) {
            std::printf("%-11s %7lld  %8.2f%% %10.2e %9lld %6lld\n",
                        p.lowering.c_str(),
                        static_cast<long long>(p.cadence),
                        p.overhead_fraction * 100.0, p.detector_seconds,
                        static_cast<long long>(p.transfer_checksums),
                        static_cast<long long>(p.abft_checks));
        }
    }

    // ------------------------------------------------------------------
    // Part 2: containment on the elastic step program (real data).
    // ------------------------------------------------------------------
    const Mesh mesh(4);
    const int64_t kNumSteps = quick ? 8 : 12;
    const int64_t kCheckpointInterval = 2;
    ElasticProgramSpec program;
    program.logical_rows = 24;
    program.feature = 12;
    const int64_t kInjectStep = kNumSteps / 2 + 1;  // between checkpoints
    const int64_t kRepeatStep = kNumSteps - 2;

    auto elastic_options = [&](const std::string& lowering) {
        ElasticRunOptions options;
        options.num_steps = kNumSteps;
        options.checkpoint_interval = kCheckpointInterval;
        options.program = program;
        options.compiler = model_options(lowering);
        return options;
    };

    // The detectors-off clean baselines, one per lowering — every
    // containment point compares its final state against them.
    std::vector<ElasticRunReport> baselines;
    for (const std::string& lowering : lowerings) {
        auto report = RunElasticTraining(mesh, elastic_options(lowering));
        if (!report.ok()) {
            std::fprintf(stderr, "containment baseline (%s): %s\n",
                         lowering.c_str(),
                         report.status().ToString().c_str());
            return 1;
        }
        baselines.push_back(std::move(report).value());
    }

    struct GridEntry {
        size_t lowering = 0;
        std::string scenario;
    };
    std::vector<GridEntry> grid;
    for (size_t l = 0; l < lowerings.size(); ++l) {
        grid.push_back({l, "clean_detectors_on"});
        grid.push_back({l, "inject_compute"});
        grid.push_back({l, "inject_transfer"});
        grid.push_back({l, "quarantine"});
    }

    auto run_point = [&](int64_t i) {
        const GridEntry& entry = grid[static_cast<size_t>(i)];
        const std::string& lowering = lowerings[entry.lowering];
        const ElasticRunReport& baseline = baselines[entry.lowering];
        ContainmentPoint point;
        point.lowering = lowering;
        point.scenario = entry.scenario;

        ElasticRunOptions options = elastic_options(lowering);
        FaultSpec& fault = options.compiler.fault;
        if (entry.scenario == "inject_compute") {
            fault = SdcCompute(/*chip=*/1, kInjectStep).spec;
        } else if (entry.scenario == "inject_transfer") {
            fault = SdcTransfer(/*chip=*/1, kInjectStep).spec;
        } else if (entry.scenario == "quarantine") {
            fault = SdcCompute(/*chip=*/1, kInjectStep).spec;
            fault.silent_corruptions.push_back(
                SdcCompute(/*chip=*/1, kRepeatStep).spec
                    .silent_corruptions.front());
            options.sdc_strike_limit = 2;
        } else {
            fault.sdc.enabled = true;
        }

        auto report = RunElasticTraining(mesh, options);
        if (!report.ok()) {
            point.error = report.status().ToString();
            return point;
        }
        point.report = std::move(report).value();

        const SdcStats& sdc = point.report.sdc;
        // Same-mesh runs must end bit-identical to the clean baseline
        // (detectors never perturb data; rollback + replay recomputes
        // the exact committed trajectory). The quarantine run finishes
        // on the survivor mesh, where the ring reassociates the einsum
        // reduction — decomposition tolerance applies.
        const bool same_mesh = entry.scenario != "quarantine";
        double tolerance =
            same_mesh ? 0.0
                      : EquivalenceTolerance(DType::kF32,
                                             program.logical_rows);
        OutputComparison cmp =
            CompareOutputs({baseline.final_state},
                           {point.report.final_state}, tolerance);
        point.state_equal = cmp.equal;
        point.state_max_diff = cmp.max_abs_diff;

        if (!cmp.equal) {
            point.error = StrCat("final state diverged from clean run: ",
                                 cmp.ToString());
        } else if (sdc.escaped > 0) {
            point.error = StrCat(sdc.escaped, " corruption(s) escaped");
        } else if (entry.scenario == "clean_detectors_on") {
            if (sdc.detected > 0) {
                point.error = StrCat("false positive: ", sdc.last_report);
            }
        } else if (sdc.detected == 0) {
            point.error = "injected corruption was not detected";
        } else if (entry.scenario == "quarantine" && !sdc.quarantined) {
            point.error = "strike limit reached but no quarantine";
        }
        return point;
    };

    std::vector<ContainmentPoint> containment;
    if (threads > 1) {
        ThreadPool pool(std::min<int64_t>(
            threads, static_cast<int64_t>(grid.size())));
        containment = pool.ParallelFor(static_cast<int64_t>(grid.size()),
                                       run_point);
    } else {
        for (size_t i = 0; i < grid.size(); ++i) {
            containment.push_back(run_point(static_cast<int64_t>(i)));
        }
    }
    for (const ContainmentPoint& point : containment) {
        if (!point.error.empty()) {
            failed = true;
            std::fprintf(stderr, "containment point (%s, %s): %s\n",
                         point.lowering.c_str(),
                         point.scenario.c_str(), point.error.c_str());
        }
    }

    if (!json_only) {
        std::printf("\nContainment on the elastic program (%s, %lld "
                    "steps):\n", mesh.ToString().c_str(),
                    static_cast<long long>(kNumSteps));
        std::printf("%-11s %-18s %6s  %9s %9s %7s %9s\n", "lowering",
                    "scenario", "detect", "latency_s", "rollback",
                    "replay#", "max|d|");
        for (const ContainmentPoint& p : containment) {
            std::printf("%-11s %-18s %6lld  %9.2e %9.2e %7lld %9.2e\n",
                        p.lowering.c_str(), p.scenario.c_str(),
                        static_cast<long long>(p.report.sdc.detected),
                        p.report.sdc.detection_latency_seconds,
                        p.report.sdc.rollback_seconds,
                        static_cast<long long>(
                            p.report.sdc.replayed_steps),
                        p.state_max_diff);
        }
        std::printf(
            "\nClean runs are report-free and bit-identical to the "
            "detectors-off baseline;\ninjected corruptions are detected "
            "before any state commits and rolled back to\nthe last "
            "clean checkpoint; a repeat offender is quarantined off the "
            "mesh.\n\nJSON:\n");
    }

    std::string json = StrCat(
        "{\n  \"bench\": \"sdc_sweep\",\n  \"quick\": ",
        quick ? "true" : "false", ",\n  \"overhead_model\": \"",
        model.name, "\",\n  \"overhead_limit\": ", kOverheadLimit,
        ",\n  \"elastic_mesh\": \"", mesh.ToString(),
        "\",\n  \"num_steps\": ", kNumSteps,
        ",\n  \"checkpoint_interval\": ", kCheckpointInterval,
        ",\n  \"inject_step\": ", kInjectStep,
        ",\n  \"overhead\": [\n");
    for (size_t i = 0; i < overhead.size(); ++i) {
        json += OverheadJson(overhead[i]);
        json += i + 1 < overhead.size() ? ",\n" : "\n";
    }
    json += "  ],\n  \"containment\": [\n";
    for (size_t i = 0; i < containment.size(); ++i) {
        json += ContainmentJson(containment[i]);
        json += i + 1 < containment.size() ? ",\n" : "\n";
    }
    json += StrCat("  ],\n  \"checks_passed\": ",
                   failed ? "false" : "true", "\n}\n");
    std::printf("%s", json.c_str());

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
            return 1;
        }
        out << json;
    }
    return failed ? 1 : 0;
}
