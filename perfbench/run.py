#!/usr/bin/env python3
"""The repo benchmark: builds perfbench against this checkout and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds
the `perfbench` executable (perfbench/CMakeLists.txt, which compiles the
ptest library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
rebuild what changed.  Build output goes to stderr.  The executable then
runs the workload and prints its notes, a fingerprint line, and as the
last line of stdout one JSON object with the keys correct, attempted,
failed and metrics.  See BENCHMARK.json for the workloads and metrics,
and perfbench/layers.json for what each metric measures and what each
per-layer metric should move.

Exits non-zero without printing a result when the checkout has no
ptest sources, the build fails, or the run fails or overruns.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(command):
    """Runs a build step; its output goes to stderr only on failure."""
    step = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if step.returncode != 0:
        sys.stderr.write(step.stdout)
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(command))
        sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "ptest", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no ptest sources in %s\n" % ROOT)
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "-j", jobs])
    return os.path.join(out, "perfbench")


def main():
    binary = build()
    try:
        run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        sys.exit(3)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        sys.stderr.write("perfbench: run failed (exit %d)\n" % run.returncode)
        sys.exit(run.returncode or 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(run.stdout)
        sys.stderr.write("perfbench: the last line is not a result object\n")
        sys.exit(1)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
