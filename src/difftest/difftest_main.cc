/**
 * Differential-equivalence sweep over the decomposition space.
 *
 *   difftest_runner [--cases N] [--seed S] [--quick] [--inject-bug]
 *                   [--inject-sdc] [--only-case NAME] [--threads N]
 *                   [--out DIR] [--repro FILE]
 *
 * Generates N seeded random overlap sites, compiles each one blocking
 * vs. decomposed under all six {unroll, bidirectional, forced-uni}
 * variants, and diffs per-device outputs through the SpmdEvaluator.
 * `--only-case NAME` (ag_free, ag_contract, ag_batch, rs, a2a) pins
 * every generated site to one case — the §18 AllToAll wall runs
 * `--only-case a2a --cases 512` without paying for a 5x larger sweep.
 * `--threads N` fans cases across a worker pool (default: hardware
 * concurrency); the summary is byte-identical at every thread count,
 * and `--threads 1` runs the historical serial loop. `--cases`,
 * `--threads` and `--seed` take whole decimal integers (cases and
 * threads at least 1); anything else, or an unknown argument, exits
 * with status 2 and the usage line.
 * `--inject-sdc` runs the silent-data-corruption sweep instead: each
 * case arms the §16 detectors, proves the clean run is report-free and
 * bit-identical to detectors-off, then injects one seeded corruption
 * and requires it detected (with the culprit chip localized) or
 * provably masked; exit status 1 on any false positive, localization
 * error or escape.
 * On a mismatch the first failing case is greedily minimized and a
 * one-line repro (+ round-trippable HLO) is written under --out; exit
 * status 1. `--repro X` re-runs a previously written .spec file, or,
 * if X is not a readable file, X itself as a literal repro line.
 */
#include <fstream>
#include <iostream>
#include <string>

#include "difftest/difftest.h"
#include "difftest/minimizer.h"
#include "support/strings.h"
#include "support/thread_pool.h"

int
main(int argc, char** argv)
{
    using namespace overlap;
    using namespace overlap::difftest;

    DiffTestConfig config;
    config.num_cases = 5000;
    config.seed = 1;
    config.threads = DefaultThreadCount();
    bool inject_sdc = false;
    bool explicit_cases = false;
    std::string out_dir = "difftest_repros";
    std::string repro_file;
    const char* usage =
        "usage: difftest_runner [--cases N] [--seed S] [--quick] "
        "[--inject-bug] [--inject-sdc] [--only-case NAME] [--threads N] "
        "[--out DIR] [--repro FILE]\n";
    auto bad_flag = [usage] {
        std::cerr << usage;
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--cases" && i + 1 < argc) {
            auto cases = ParseFlag<int64_t>(arg, argv[++i], 1);
            if (!cases) return bad_flag();
            config.num_cases = *cases;
            explicit_cases = true;
        } else if (arg == "--seed" && i + 1 < argc) {
            auto seed = ParseFlag<uint64_t>(arg, argv[++i], 0);
            if (!seed) return bad_flag();
            config.seed = *seed;
        } else if (arg == "--quick") {
            config.num_cases = 256;
            explicit_cases = true;
        } else if (arg == "--inject-bug") {
            config.inject_shard_id_bug = true;
        } else if (arg == "--inject-sdc") {
            inject_sdc = true;
        } else if (arg == "--only-case" && i + 1 < argc) {
            // Reuse the spec parser's case-name vocabulary.
            auto spec = SiteSpec::Parse(
                std::string("case=") + argv[++i]);
            if (!spec.ok()) {
                std::cerr << spec.status().message() << "\n";
                return bad_flag();
            }
            config.only_case = spec->site_case;
        } else if (arg == "--threads" && i + 1 < argc) {
            auto threads = ParseFlag<int64_t>(arg, argv[++i], 1);
            if (!threads) return bad_flag();
            config.threads = *threads;
        } else if (arg == "--out" && i + 1 < argc) {
            out_dir = argv[++i];
        } else if (arg == "--repro" && i + 1 < argc) {
            repro_file = argv[++i];
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            return bad_flag();
        }
    }

    if (!repro_file.empty()) {
        std::string line = repro_file;  // literal repro line fallback
        std::ifstream in(repro_file);
        if (in) {
            std::getline(in, line);
        }
        auto repro = ParseReproLine(line);
        if (!repro.ok()) {
            std::cerr << repro.status().message() << "\n";
            return 2;
        }
        auto comparison =
            RunSingleCase(repro->spec, repro->variant,
                          repro->inject_shard_id_bug);
        if (!comparison.ok()) {
            std::cerr << comparison.status().message() << "\n";
            return 2;
        }
        std::cout << "[" << repro->variant.name << "] "
                  << repro->spec.ToString() << " -> "
                  << comparison->ToString() << "\n";
        return comparison->equal ? 0 : 1;
    }

    if (inject_sdc) {
        SdcSweepConfig sdc;
        // Each SDC case runs three full evaluations; default to a
        // smaller sweep than the equivalence oracle unless asked.
        sdc.num_cases = explicit_cases ? config.num_cases : 512;
        sdc.seed = config.seed;
        sdc.threads = config.threads;
        auto sdc_summary = RunSdcSweep(sdc);
        if (!sdc_summary.ok()) {
            std::cerr << "harness error: "
                      << sdc_summary.status().message() << "\n";
            return 2;
        }
        std::cout << sdc_summary->ToString() << "\n";
        return sdc_summary->Clean() ? 0 : 1;
    }

    auto summary = RunDiffTest(config);
    if (!summary.ok()) {
        std::cerr << "harness error: " << summary.status().message()
                  << "\n";
        return 2;
    }
    std::cout << summary->ToString() << "\n";
    if (summary->mismatches == 0) return 0;

    const CaseFailure& first = summary->failures.front();
    auto variant = FindVariant(first.variant);
    if (!variant.ok()) {
        std::cerr << variant.status().message() << "\n";
        return 2;
    }
    auto minimized = MinimizeFailure(first.spec, variant.value(),
                                     config.inject_shard_id_bug);
    if (!minimized.ok()) {
        std::cerr << "minimizer error: " << minimized.status().message()
                  << "\n";
        return 1;
    }
    std::cout << "minimized repro: " << minimized->repro_line << "\n";
    auto written = WriteRepro(*minimized, out_dir, "repro");
    if (!written.ok()) {
        std::cerr << written.message() << "\n";
        return 1;
    }
    std::cout << "wrote " << out_dir << "/repro.spec and " << out_dir
              << "/repro.hlo (" << minimized->module_instructions
              << " instructions)\n";
    return 1;
}
