#!/usr/bin/env bash
# Builds and runs the paper-figure benches whose per-model numbers are
# gated (bench/fig12_overall, bench/fig13_weak_scaling) with --json, and
# writes the committed BENCH_fig12.json and BENCH_fig13.json at the repo
# root (or into --out-dir). `ctest -L sweep` fails when either file no
# longer matches its bench byte for byte; rerun this script when a change
# moves the simulated numbers on purpose, then refresh the fig12/fig13
# tables in EXPERIMENTS.md from the new files.
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
cmake --build "${build_dir}" -j "$(nproc)" \
    --target fig12_overall fig13_weak_scaling

"${build_dir}/bench/fig12_overall" --json > "${out_dir}/BENCH_fig12.json"
"${build_dir}/bench/fig13_weak_scaling" --json > "${out_dir}/BENCH_fig13.json"
echo "paper figures written to ${out_dir}/BENCH_fig1{2,3}.json"
