#!/usr/bin/env python3
"""Process cost of nel jobs, kernel side included, for one or two source trees.

Each job (one nel argv, shell-quoted) runs k times per tree, each time in a
fresh interpreter, the trees alternating in turn and in which goes first.  Per
job and tree it prints the median over the k runs of the wall time (start to
exit), and of the user and system time, minor page faults and maximum RSS from
the child's ``os.wait4`` rusage; output is discarded.  A first row, ``import
nel.cli``, is the floor that every job pays before it runs.

    python3 scripts/job_rusage.py -k 8 --tree . --tree ../base \\
        "laxcheck --dim 2 --grid 64 --t-end 0.2" "darboux --nx 2048 --ny 256"
"""

import argparse
import os
import pathlib
import shlex
import statistics
import subprocess
import sys
import time

CODE = "import sys; from nel.cli import main; sys.exit(main(sys.argv[1:]))"
FLOOR = "import nel.cli"


def run_once(tree, argv):
    """(wall s, user s, sys s, minor faults, max RSS MB) of one run; no argv: the import alone."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(tree, "src").resolve())}
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CODE if argv else FLOOR, *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{tree}: nel {shlex.join(argv)} exited with status {proc.returncode}")
    return wall, ru.ru_utime, ru.ru_stime, ru.ru_minflt, ru.ru_maxrss / 1024


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=5, help="runs per job and tree (default 5)")
    ap.add_argument("--tree", action="append", required=True, help="a source tree; give one or two")
    ap.add_argument("jobs", nargs="+", help="nel argv of one job, shell-quoted")
    args = ap.parse_args(argv)
    print(f"{'job':<44} {'tree':<16} {'wall s':>7} {'user s':>7} {'sys s':>7} {'minflt':>8} {'maxrss MB':>9}")
    for job in [FLOOR, *args.jobs]:
        argv = [] if job == FLOOR else shlex.split(job)
        runs = {tree: [] for tree in args.tree}
        for i in range(args.k):
            for tree in args.tree[:: 1 if i % 2 == 0 else -1]:
                runs[tree].append(run_once(tree, argv))
        for tree, rows in runs.items():
            wall, user, sys_s, minflt, rss = (statistics.median(col) for col in zip(*rows))
            print(f"{job[:44]:<44} {tree[-16:]:<16} {wall:7.3f} {user:7.3f} {sys_s:7.3f} {minflt:8.0f} {rss:9.1f}")


if __name__ == "__main__":
    main()
