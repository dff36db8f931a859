#!/usr/bin/env python3
"""Wall time of the tier-1 suite, repeated in fresh interpreters.

Runs the tier-1 command

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

k times, each in a new subprocess from the root of the source tree, after
one untimed warm-up run.  Prints each run's pytest summary line, the min and
median wall time (from interpreter start to exit), and the ten slowest tests
by their median time over the timed runs (setup, call and teardown summed,
from pytest's --durations).  Arguments after ``--`` go to pytest.

    python3 scripts/tier1_time.py -k 3
    python3 scripts/tier1_time.py -k 5 -- tests/test_spectra.py

Exits with the first nonzero pytest status, so a failing suite is never
reported as a timing alone.
"""

import argparse
import collections
import os
import pathlib
import re
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
DURATION = re.compile(r"^([0-9.]+)s (?:setup|call|teardown)\s+(\S+)$")
SUMMARY = re.compile(r"^=* ?\d+ (?:passed|failed|error).* in [0-9.]+s")
WARMUP = 1
SLOWEST = 10


def run_once(pytest_args):
    """(wall seconds, pytest status, summary line, {test: seconds})."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=0", *pytest_args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    per_test = collections.Counter()
    summary = ""
    for line in proc.stdout.splitlines():
        if m := DURATION.match(line):
            per_test[m.group(2)] += float(m.group(1))
        elif SUMMARY.match(line):
            summary = line.strip("= ")
    return wall, proc.returncode, summary, per_test


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=3, help="timed runs (default 3)")
    ap.add_argument("pytest_args", nargs="*", help="passed to pytest after --")
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error("need k >= 1")

    status = 0
    walls, tests = [], collections.defaultdict(list)
    for i in range(WARMUP + args.k):
        wall, code, summary, per_test = run_once(args.pytest_args)
        status = status or code
        timed = i >= WARMUP
        tag = f"run {i - WARMUP + 1}/{args.k}" if timed else f"warm-up {i + 1}/{WARMUP}"
        print(f"{tag}: {wall:.1f} s  {summary or f'pytest exit {code}'}", flush=True)
        if timed:
            walls.append(wall)
            for name, seconds in per_test.items():
                tests[name].append(seconds)

    print(f"tier-1 wall: min {min(walls):.1f} s, median {statistics.median(walls):.1f} s over {args.k} runs")
    # a test missing from a run's durations took under pytest's 5 ms floor there
    median = {name: statistics.median(times + [0.0] * (args.k - len(times))) for name, times in tests.items()}
    print(f"slowest tests (median of {args.k} runs):")
    for name in sorted(median, key=median.get, reverse=True)[:SLOWEST]:
        print(f"  {median[name]:7.2f} s  {name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
