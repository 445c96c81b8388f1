#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig7|fleet|monitor_replica|monitor \\
        --seed N --seconds S --trace 0|1

Builds the benchmark and the gpupm libraries and CLI it measures from
the sources of this checkout (into $CARGO_TARGET_DIR, default
.bench_build, relative to the checkout root), then runs one workload.
Build output goes to standard error; standard output carries the
benchmark's report, whose last line is the JSON result. The exit
status is the benchmark's: non-zero when an output check failed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fig7", "fleet", "monitor_replica", "monitor")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run that has not finished by then is killed (with the daemon it
# started), so the command always ends within 180 seconds of a build.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure once, then build (a no-op when up to date)."""
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j",
                  str(os.cpu_count() or 1), "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no gpupm sources in {ROOT}", file=sys.stderr)
        return 2

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work = build_dir / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work", str(work),
           "--benchmark", str(ROOT / "BENCHMARK.json")]
    # Its own process group, so a timeout also stops the monitor
    # daemon it spawned.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
