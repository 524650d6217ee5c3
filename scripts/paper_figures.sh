#!/usr/bin/env bash
# Builds and runs the paper-figure benches whose per-model numbers are
# gated (bench/fig01_breakdown, fig12_overall, fig13_weak_scaling,
# fig14_unrolling, fig15_bidirectional, fig16_scheduling) with --json,
# and writes the committed BENCH_fig01.json ... BENCH_fig16.json at the
# repo root (or into --out-dir). `ctest -L sweep` fails when any file no
# longer matches its bench byte for byte; rerun this script when a change
# moves the simulated numbers on purpose, then refresh the matching
# figure sections of EXPERIMENTS.md from the new files.
#
# Usage: scripts/paper_figures.sh [--out-dir DIR] [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out_dir="${repo_root}"
build_dir="${repo_root}/build"
while [[ $# -gt 0 ]]; do
    case "$1" in
      --out-dir) out_dir="$2"; shift 2 ;;
      *) build_dir="$1"; shift ;;
    esac
done

cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
figures=(01:fig01_breakdown 12:fig12_overall 13:fig13_weak_scaling
         14:fig14_unrolling 15:fig15_bidirectional 16:fig16_scheduling)
targets=()
for figure in "${figures[@]}"; do targets+=("${figure#*:}"); done
cmake --build "${build_dir}" -j "$(nproc)" --target "${targets[@]}"

for figure in "${figures[@]}"; do
    "${build_dir}/bench/${figure#*:}" --json \
        > "${out_dir}/BENCH_fig${figure%%:*}.json"
done
echo "paper figures written to ${out_dir}/BENCH_fig{01,12,13,14,15,16}.json"
