#!/usr/bin/env bash
# Differential-equivalence sweep: random CollectiveEinsum sites are
# built once, lowered under every {unroll, bidirectional} variant and
# executed per-device on the SpmdEvaluator beside the blocking
# reference; any output divergence is minimized
# to a one-line repro plus a round-trippable .hlo under the output dir.
#
# Usage: scripts/difftest_sweep.sh [--quick] [extra difftest_runner args]
#   --quick   256 cases (the CI tier); default is the 5000-case sweep.
#
# Extra args are forwarded verbatim, e.g.:
#   scripts/difftest_sweep.sh --seed 7 --cases 800 --out /tmp/repros
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"

args=()
for arg in "$@"; do
    args+=("${arg}")
done

cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" --target difftest_runner

exec "${build_dir}/src/difftest/difftest_runner" "${args[@]}"
