#!/usr/bin/env bash
# Builds (if needed) and runs the tracked perf baseline, writing
# BENCH_perf.json at the repo root (or --out).
#
# Usage: scripts/perf_baseline.sh [--quick] [--threads N]
#                                 [--build-dir DIR] [--out FILE]
#                                 [--check]
#
# --quick shrinks every measurement (the sanitize suite uses it as a
# correctness cross-check; the numbers themselves need a clean
# RelWithDebInfo build and an idle machine).
#
# --check runs a fresh measurement to a temp file and compares it
# against the committed BENCH_perf.json: the difftest slice's
# byte-identity flag must hold unconditionally, and throughput metrics must not regress
# more than 20%. The throughput comparison is skipped when either run
# is degenerate (hardware_concurrency == 1) — wall-clock numbers from
# a single-core box are frequency noise, not signal.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build"
out_file="${repo_root}/BENCH_perf.json"
bench_args=()
check=0

while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick) bench_args+=(--quick); shift ;;
        --threads) bench_args+=(--threads "$2"); shift 2 ;;
        --build-dir) build_dir="$2"; shift 2 ;;
        --out) out_file="$2"; shift 2 ;;
        --check) check=1; shift ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done

if [[ ! -x "${build_dir}/bench/perf_baseline" ]]; then
    cmake -B "${build_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "${build_dir}" -j "$(nproc)" --target perf_baseline
fi

if [[ "${check}" == "1" ]]; then
    baseline_file="${repo_root}/BENCH_perf.json"
    if [[ ! -f "${baseline_file}" ]]; then
        echo "perf check: no committed BENCH_perf.json; nothing to" \
             "compare against" >&2
        exit 2
    fi
    fresh_file="$(mktemp /tmp/perf_check.XXXXXX.json)"
    trap 'rm -f "${fresh_file}"' EXIT
    "${build_dir}/bench/perf_baseline" \
        "${bench_args[@]+"${bench_args[@]}"}" --out "${fresh_file}"
    python3 - "${baseline_file}" "${fresh_file}" <<'PYEOF'
import json
import sys

baseline = json.load(open(sys.argv[1]))
fresh = json.load(open(sys.argv[2]))

failures = []

# Byte identity is correctness, not throughput: it must hold on
# every box, degenerate or not.
if not fresh.get("difftest_slice", {}).get("byte_identical", False):
    failures.append("difftest parallel summaries are no longer"
                    " byte-identical to serial")

def degenerate(doc):
    if "degenerate" in doc:
        return bool(doc["degenerate"])
    return doc.get("hardware_concurrency", 0) <= 1

if degenerate(fresh) or degenerate(baseline):
    print("perf check: degenerate single-core measurement; skipping"
          " throughput comparison (byte-identity flag checked)")
else:
    # Higher-is-better throughput metrics; fail on >20% regression.
    metrics = [
        ("evaluator", "serial_cases_per_sec"),
        ("simulator", "steps_per_sec"),
    ]
    for section, key in metrics:
        base = baseline.get(section, {}).get(key)
        now = fresh.get(section, {}).get(key)
        if not base or now is None:
            continue
        if now < 0.8 * base:
            failures.append(
                f"{section}.{key} regressed {now:.1f} vs baseline"
                f" {base:.1f} (-{100 * (1 - now / base):.1f}%)")
        else:
            print(f"perf check: {section}.{key} {now:.1f} vs"
                  f" baseline {base:.1f} ok")

if failures:
    for f in failures:
        print(f"perf check FAILED: {f}", file=sys.stderr)
    sys.exit(1)
print("perf check passed")
PYEOF
    exit $?
fi

"${build_dir}/bench/perf_baseline" "${bench_args[@]+"${bench_args[@]}"}" \
    --out "${out_file}"
echo "perf baseline written to ${out_file}"
