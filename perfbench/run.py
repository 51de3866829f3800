#!/usr/bin/env python3
"""Closed-loop DFS-window benchmark of the Pro-Temp controller.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload paper-mpc --seed 1 --seconds 10 --trace 0

Builds the protemp library and the benchmark driver from source (CMake,
Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset, then runs the driver. The driver's last line of
stdout is the JSON result; build output goes to stderr. Workloads are
paper-mpc, overload-mpc and table-sim (see BENCHMARK.json), or "all".
--trace 1 prints the per-layer metrics instead of the end-to-end ones and
writes the traced episode's per-window spans next to the driver binary.

The benchmark's unit tests:

    cmake --build .bench_build/perfbench --target perfbench_test
    ctest --test-dir .bench_build/perfbench -R perfbench
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build_dir() -> Path:
    root = Path.cwd() / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return root / "perfbench"


def run_quiet(cmd) -> None:
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True)


def build() -> Path:
    out = build_dir()
    run_quiet(["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", str(out), "--target", "perfbench",
               "-j", BUILD_JOBS])
    return out / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans", str(binary.parent)]
    with subprocess.Popen(cmd) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
