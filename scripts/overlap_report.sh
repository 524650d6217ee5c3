#!/usr/bin/env bash
# Builds (if needed) and runs the overlap-efficiency report
# (DESIGN.md §13): the §5.5 cost-model predictions vs. the simulated
# timeline for all four decomposition cases and the two AllToAll
# sites, plus a whole-model
# analysis, written as BENCH_overlap_report.json at the repo root
# (or --out).
#
# Usage: scripts/overlap_report.sh [--quick] [--force] [--check]
#                                  [--model NAME] [--build-dir DIR]
#                                  [--out FILE] [--trace FILE]
#
# --quick   skips the whole-model section (the six sites still run);
# --force   disables the cost gate (every site decomposed) — the
#           ablation view;
# --check   fails (nonzero exit) when the mean hidden-fraction
#           prediction error exceeds 0.15 or a gate-accepted site
#           simulates a slowdown (DESIGN.md §15);
# --trace   additionally writes the model run's unified Chrome trace.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
out_file="${repo_root}/BENCH_overlap_report.json"
bench_args=()

while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick) bench_args+=(--quick); shift ;;
        --force) bench_args+=(--force); shift ;;
        --check) bench_args+=(--check); shift ;;
        --model) bench_args+=(--model "$2"); shift 2 ;;
        --trace) bench_args+=(--trace "$2"); shift 2 ;;
        --build-dir) build_dir="$2"; shift 2 ;;
        --out) out_file="$2"; shift 2 ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

if [[ ! -x "${build_dir}/bench/overlap_report" ]]; then
    cmake -B "${build_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "${build_dir}" -j "$(nproc)" --target overlap_report
fi

"${build_dir}/bench/overlap_report" "${bench_args[@]+"${bench_args[@]}"}" \
    --out "${out_file}"
echo "overlap report written to ${out_file}"
