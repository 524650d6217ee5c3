#!/usr/bin/env bash
# Builds the project with AddressSanitizer + UndefinedBehaviorSanitizer
# in a separate build tree and runs the full test suite under them,
# then builds a ThreadSanitizer tree and runs the concurrency tests
# (thread pool, buffer pool, case-level difftest/SDC fan-out, metrics
# registry, service loop) under it.
#
# Usage: scripts/check_sanitize.sh [build-dir] [tsan-build-dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-asan}"
tsan_dir="${2:-${repo_root}/build-tsan}"

cmake -B "${build_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DOVERLAP_SANITIZE=ON
cmake --build "${build_dir}" -j "$(nproc)"

# abort_on_error gives non-zero exit (and a stack) on the first report.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"

# Quick differential-equivalence sweep (256 seeded cases x 4 variants)
# under the same sanitizers; mismatches leave a minimized repro in the
# build tree and fail the script.
"${build_dir}/src/difftest/difftest_runner" --quick \
    --out "${build_dir}/difftest_repros"

# Quick elastic-recovery sweep under the sanitizers: a chip death must
# recover (detect -> restore -> replan -> resume) at every checkpoint
# interval, with no leaks or UB along the recovery path.
"${build_dir}/bench/recovery_sweep" --quick --json > /dev/null

# Quick continuous-operation service sweep under the sanitizers: the
# open-loop queue, the SLO accounting and the recovery-under-load path
# (including chip death mid-traffic) must run clean end to end.
"${build_dir}/bench/service_sweep" --quick --json > /dev/null

# Quick silent-data-corruption sweep under the sanitizers (DESIGN.md
# §16): detector overhead within budget, zero false positives,
# corruption contained (rollback to a bit-identical state) and the
# repeat offender quarantined — all with no leaks or UB along the
# detection/rollback path.
"${build_dir}/bench/sdc_sweep" --quick --json > /dev/null

# Seeded corruption sweep through the evaluator-level detectors: every
# injection detected (culprit chip localized) or provably masked, zero
# false positives on clean runs.
"${build_dir}/src/difftest/difftest_runner" --inject-sdc --cases 96 \
    > /dev/null

# Quick MoE AllToAll overlap sweep under the sanitizers (DESIGN.md
# §18): the §5.5 gate must emit ring-decomposed A2A loops and both the
# decomposed and the micro-batch pipelined arm must beat the blocking
# exchange somewhere on the grid.
"${build_dir}/bench/moe_sweep" --quick --json > /dev/null

# The §18 AllToAll difftest wall: 512 seeded dispatch/combine sites,
# every decomposed/pipelined lowering bit-compared against the
# blocking reference evaluation.
"${build_dir}/src/difftest/difftest_runner" --only-case a2a \
    --cases 512 > /dev/null

# Overlap-report prediction-error gate under ASan (DESIGN.md §15):
# every gate-accepted site must simulate an actual speedup >= 1 -
# 0.02, every rejection must audit as justified when forced open, and
# the mean |hidden-fraction prediction error| must stay <= 0.15 — all
# while the hidden+exposed==total accounting closes without a
# sanitizer report. --check turns any violation into a nonzero exit.
"${build_dir}/bench/overlap_report" --quick --check --json > /dev/null

# The replay-accuracy suite (span residual bounds over the replay
# sample space, per-case prediction accuracy, gate outcomes) also runs
# in the ASan ctest pass above via the `calibration` label.

# ThreadSanitizer pass over the concurrency layer: the thread pool, the
# thread-local buffer pool, evaluations running concurrently as
# case-level fan-out (pooled difftest and SDC sweeps) and the service
# loop must be race-free.
cmake -B "${tsan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DOVERLAP_TSAN=ON
cmake --build "${tsan_dir}" -j "$(nproc)" --target \
    thread_pool_test buffer_pool_test parallel_eval_test \
    interp_test difftest_test metrics_test trace_golden_test \
    service_test service_sweep
export TSAN_OPTIONS="halt_on_error=1"
ctest --test-dir "${tsan_dir}" --output-on-failure -j "$(nproc)" \
    -R "thread_pool_test|buffer_pool_test|parallel_eval_test|interp_test|difftest_test|metrics_test|trace_golden_test|service_test"

# Each service run records into its own metrics registry from the pod
# loop; the quick sweep must be race-free under TSan too
# (service_test above also runs two services at once).
"${tsan_dir}/bench/service_sweep" --quick --json > /dev/null
