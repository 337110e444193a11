#!/usr/bin/env python3
"""Build the benchmark harness from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The harness and the libraries it links
are built under .bench_build/ (Release), incrementally after the
first run. Build output goes to stderr, so the last line of stdout is
the harness's JSON result. Exits non-zero, printing no result, when
the sources are missing or the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # The Makefile exists only once a configure step has succeeded.
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release",
                      "-DCMAKE_PROJECT_gables_INCLUDE="
                      + str(ROOT / "perfbench" / "hook.cmake")])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness's own tests")
    args = parser.parse_args()

    if args.self_test:
        build("perfbench_test")
        return subprocess.run([str(BUILD / "perfbench_test")], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    build("perfbench")
    scratch = ROOT / ".bench_build" / "run"
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--corpus", str(ROOT / "tests" / "corpus"),
           "--scratch", str(scratch / "artifacts"),
           "--spans", str(scratch / f"spans-{args.workload}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as err:
        sys.exit(f"perfbench: timed out: {err.cmd[0]}")
    except FileNotFoundError as err:
        sys.exit(f"perfbench: {err}")
