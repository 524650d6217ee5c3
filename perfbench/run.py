#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_models --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds
perfbench_driver (the repository's libraries plus driver.cc) under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench. A run prints
the host record, every metric with its unit, and as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics listed in BENCHMARK.json, --trace 1 the per-layer ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper_models", "moe_exchange", "oracle_difftest")
# setup_s is the median over the main run and this many set-up-only runs.
SETUP_PROBES = 10
RUN_TIMEOUT_S = 170
# The end-to-end metrics every untraced run prints (BENCHMARK.json gates
# the host-time subset; the simulated ones are deterministic).
END_TO_END = ("setup_s", "jobs_per_s", "job_p50_ms", "job_p90_ms",
              "peak_rss_mib", "failed_frac", "sim_speedup_geomean",
              "sim_speedup_min", "sim_mfu_mean", "sim_exposed_comm_frac",
              "sim_peak_mem_mib")
SIM_METRICS = END_TO_END[6:]


class BenchError(Exception):
    pass


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no repository sources under {ROOT / 'src'}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return out / "perfbench_driver"


def run_driver(driver, args):
    """Runs the driver; returns the JSON object on its last output line."""
    try:
        proc = subprocess.run([str(driver)] + args, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"driver timed out: {' '.join(args)}")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"driver failed ({proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(driver, workload, seed, seconds, trace):
    common = ["--workload", workload, "--seed", str(seed)]

    def probe_setups(count):
        return [run_driver(driver, common + ["--setup-only"])["setup_s"]
                for _ in range(count)]

    # Set-up is measured untraced only, half the probes before the run and
    # half after, so that a slow spell of the host does not set all of them.
    setups = [] if trace else probe_setups(SETUP_PROBES // 2)
    result = run_driver(driver, common + ["--seconds", str(seconds),
                                          "--trace", str(trace)])
    if not trace:
        setups += probe_setups(SETUP_PROBES - SETUP_PROBES // 2)
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def contract_metrics():
    """(end_to_end, per_layer) metric names and units from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def print_report(result):
    host = result["host"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  jobs {result['jobs']}  "
          f"passes {result['passes']}  run {result['run_seconds']:.2f} s")
    print(f"host nproc={host['nproc']} threads={host['threads']} "
          f"build={host['build_type']} compiler={host['compiler']} "
          f"optimized={host['optimized']}")
    if not host["optimized"]:
        print("WARNING: non-optimized build; times are not comparable")
    if host["threads"] > host["nproc"]:
        print("WARNING: more threads than cores")
    if not result["trace"]:
        print(f"latency = each job's best of {result['passes']} passes; "
              f"all runs together: {result['raw_jobs_per_s']:.4g} jobs/s")
        print(f"peak_rss_mib is taken after the first pass; "
              f"{result['end_rss_mib']:.1f} MiB at the end of the run")
    else:
        print(f"traced jobs {result['traced_jobs']}  tracing overhead "
              f"{result['trace_overhead'] * 100:+.1f}% on the untraced calls")
        for name in result["unmapped_passes"]:
            print(f"WARNING: pipeline pass {name} has no passes.*_ms "
                  "metric; its time counts as core.guard_ms")
    print(f"attempted {result['attempted']}  failed {result['failed']}")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    for name, metric in result["metrics"].items():
        print(f"  {name:30s} {metric['value']:>16.6g} {metric['unit']}")


def final_line(result):
    """The contract's last line: the BENCHMARK.json metrics of this mode."""
    end_to_end, per_layer = contract_metrics()
    wanted = per_layer if result["trace"] else end_to_end
    metrics = {}
    for name, unit in wanted.items():
        metric = result["metrics"].get(name)
        if metric is None or metric["unit"] != unit:
            raise BenchError(f"metric {name} [{unit}] not emitted")
        metrics[name] = metric
    return json.dumps({"correct": bool(result["correct"]),
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def self_test(driver):
    """Runs each workload briefly both ways and checks what it emits."""
    end_to_end, per_layer = contract_metrics()
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        plain = run_workload(driver, workload, 1, 1, 0)
        traced = run_workload(driver, workload, 1, 1, 1)
        for result in (plain, traced):
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload}: failed {result['errors']}")
        for name in END_TO_END:
            expect(name in plain["metrics"],
                   f"{workload}: untraced run lacks {name}")
        for mode, result, wanted in ((0, plain, end_to_end),
                                     (1, traced, per_layer)):
            for name, unit in wanted.items():
                got = result["metrics"].get(name, {}).get("unit")
                expect(got == unit, f"{workload} trace={mode}: {name} "
                       f"emitted with unit {got}, expected {unit}")
        # Simulated numbers do not depend on tracing.
        for name in SIM_METRICS:
            expect(plain["metrics"][name]["value"] ==
                   traced["metrics"][name]["value"],
                   f"{workload}: {name} differs between traced and "
                   "untraced runs")
        # The driver fails a traced job whose pass timings overlap or do
        # not fit inside the compile time it measured, so guard_ms (the
        # rest of compile_ms) is never negative on a run that passed.
        # Every pass the pipeline ran must also have its metric.
        expect(not traced["unmapped_passes"], f"{workload}: passes "
               f"{traced['unmapped_passes']} have no passes.*_ms metric")
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"{workload}: {plain['jobs']} jobs untraced, "
              f"{traced['traced_jobs']} traced; tracing overhead "
              f"{traced['trace_overhead'] * 100:+.1f}%; compile "
              f"{m['core.compile_ms']:.3f} ms, of which guard "
              f"{m['core.guard_ms']:.3f}")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        driver = build()
        if args.self_test:
            return self_test(driver)
        result = run_workload(driver, args.workload, args.seed,
                              args.seconds, args.trace)
        print_report(result)
        line = final_line(result)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
