#!/usr/bin/env bash
# Regenerates the committed sweep baselines (BENCH_*.json) after a change
# that moves their numbers on purpose. For every *_sweep_fresh gate that
# ctest lists, it runs that gate's bench with --json and writes the
# output to the file the gate byte-compares against: the same command the
# gate runs, so the list of baselines lives only in tests/CMakeLists.txt.
# Refresh the matching sections of EXPERIMENTS.md from the new files.
#
# Usage: scripts/refresh_baselines.sh [build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"

cmake -B "${build_dir}" -S "${repo_root}" >/dev/null

# One "<bench binary><TAB><baseline file>" line per freshness gate, read
# off the gate's -DSWEEP/-DEXPECTED arguments.
gates="$(ctest --test-dir "${build_dir}" --show-only=json-v1 |
    python3 -c '
import json, sys
for test in json.load(sys.stdin)["tests"]:
    if test["name"].endswith("_sweep_fresh"):
        args = dict(arg[2:].split("=", 1)
                    for arg in test["command"] if arg.startswith("-D"))
        print(args["SWEEP"], args["EXPECTED"], sep="\t")
')"

targets=()
while IFS=$'\t' read -r sweep expected; do
    targets+=("$(basename "${sweep}")")
done <<< "${gates}"
cmake --build "${build_dir}" -j "$(nproc)" --target "${targets[@]}"

while IFS=$'\t' read -r sweep expected; do
    "${sweep}" --json > "${expected}.tmp"
    mv "${expected}.tmp" "${expected}"
    echo "wrote ${expected}"
done <<< "${gates}"
