#!/usr/bin/env python3
"""Builds the repository benchmark from the sources next to it and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --check

The first form builds `perfbench` (Release, into .bench_build/ at the root of
the checkout) and runs one workload; the last line of standard output is the
result object. Chrome traces of traced runs go to .bench_out/. `--check`
runs the span self-time test and the smoke mode (one op of every workload
through its oracle, clean and deliberately corrupted).

Build output goes to standard error. Exits non-zero when the build fails,
when an op's output is wrong, or when the run does not finish in time.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("poisson_cold", "heat_transient", "odin_analytics", "service_mix")
RUN_TIMEOUT_S = 170  # one run must finish well inside 180 s


def build():
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring again is cheap and recovers a build tree left half made.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-G", "Unix Makefiles",
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs,
              "--target", "perfbench", "trace_test"]]
    for cmd in steps:
        if run(cmd, stdout=sys.stderr, env=env) != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run(cmd, timeout=None, **kwargs):
    """Runs cmd to completion; the child never outlives this process."""
    proc = subprocess.Popen(cmd, **kwargs)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: no result within %d s" % timeout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()
    if not args.check and None in (args.workload, args.seed, args.seconds,
                                   args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    binary = os.path.join(BUILD, "perfbench")
    if args.check:
        rc = run([os.path.join(BUILD, "trace_test")], RUN_TIMEOUT_S)
        return rc or run([binary, "--smoke"], RUN_TIMEOUT_S)
    os.makedirs(OUT, exist_ok=True)
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--out", OUT], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
