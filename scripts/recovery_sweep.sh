#!/usr/bin/env bash
# Builds and runs the elastic-recovery sweep (bench/recovery_sweep):
# recovery latency vs. checkpoint interval and failure time, as JSON.
# Regenerates the committed BENCH_recovery.json when run from the repo
# root without --out.
#
# Usage: scripts/recovery_sweep.sh [--quick] [--out FILE] [build-dir]
#   --quick    the small sweep the sanitize suite runs (3 intervals,
#              one failure time, 8 steps)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
quick_flag=""
out_path="${repo_root}/BENCH_recovery.json"
build_dir="${repo_root}/build"
while [[ $# -gt 0 ]]; do
    case "$1" in
      --quick) quick_flag="--quick"; shift ;;
      --out) out_path="$2"; shift 2 ;;
      *) build_dir="$1"; shift ;;
    esac
done

cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
cmake --build "${build_dir}" -j "$(nproc)" --target recovery_sweep

# ${quick_flag} expands to nothing for the full sweep; --json keeps the
# output machine-readable for downstream plotting.
"${build_dir}/bench/recovery_sweep" --json ${quick_flag:+${quick_flag}} \
    > "${out_path}"
