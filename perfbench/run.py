#!/usr/bin/env python3
"""Simulator benchmark: one workload, one run, one JSON result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: single_link_wtp, fabric_k8_rpc, single_link_monitored (see
perfbench/NOTES.md). The first call configures and builds the simulator and
the two benchmark binaries in Release mode under .bench_build/ (or the
directory named by CARGO_TARGET_DIR, relative to the checkout root); later
calls rebuild only what changed.

--trace 0 runs the untraced binary and reports the end-to-end metrics;
--trace 1 runs the traced binary and reports the per-layer metrics. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the binaries' check lines go to stderr. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("single_link_wtp", "fabric_k8_rpc", "single_link_monitored")
# A run must finish within 180 s (900 s when it builds); keep headroom.
BUILD_TIMEOUT_S = 700
RUN_GRACE_S = 140


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    name = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(name)
    return path if path.is_absolute() else ROOT / path


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (out / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", str(out), "--parallel", jobs,
                 "--target", "pdsbench", "pdsbench_traced"],
                max(1.0, deadline - time.monotonic()))


def parse_result(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        fail("binary printed nothing")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys: {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            fail(f"metric {name} is malformed")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    build(out)

    # Telemetry sinks of the monitored workload write here; removed after
    # the run. Span aggregates of traced runs are kept under traces/.
    work = out / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    common = [f"--workload={args.workload}", f"--seed={args.seed}",
              f"--seconds={args.seconds}", f"--work-dir={work}"]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        spans = traces / f"{args.workload}-seed{args.seed}.spans.tsv"
        cmd = [str(out / "pdsbench_traced"), *common, f"--spans-out={spans}"]
    else:
        cmd = [str(out / "pdsbench"), *common]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        fail("binary timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"binary exited with {proc.returncode}")
    result = parse_result(proc.stdout)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
