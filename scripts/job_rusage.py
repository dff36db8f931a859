#!/usr/bin/env python3
"""Process cost of nel jobs, kernel side included, for one or two source trees.

Each job (one nel argv, shell-quoted) runs k times per tree, each time in a
fresh interpreter, the trees alternating in turn and in which goes first.  Per
job and tree it prints the median over the k runs of the wall time (start to
exit), and of the user and system time, minor page faults and maximum RSS from
the child's ``os.wait4`` rusage; output is discarded.  A first row, ``import
nel.cli``, is the floor that every job pays before it runs.

Every run caps BLAS at one thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1), as the benchmark's sessions do, so that a zvtrack
row measures zvtrack's own pool of solves and not threads that OpenBLAS
starts inside them.  Transport jobs call no BLAS, so the caps leave their
rows as they were.

    python3 scripts/job_rusage.py -k 8 --tree . --tree ../base \\
        "laxcheck --dim 2 --grid 64 --t-end 0.2" "darboux --nx 2048 --ny 256"

With ``--session`` the jobs run in order in one fresh interpreter per repeat,
each writing its result to a file, as a benchmark session does; the trees
alternate as above.  Per tree it prints the medians of ``ru_maxrss`` after
``import nel.cli`` and after each job, and of each job's own wall time, so
the table shows which job raises a session's peak memory.  Beside it, the
``RUSAGE_CHILDREN`` ``ru_maxrss`` is the largest peak of the session's reaped
children: the child that steps lyapunov's reference orbit, and the ``git
status`` that the first result's build id runs, which reads the session's
RSS at that moment because exec keeps ``ru_maxrss``:

    python3 scripts/job_rusage.py --session -k 10 --tree . --tree ../base \\
        "simulate --model dernls --eps 0.05 --t-end 20 --sample-every 1" \\
        "lyapunov --model dernls --eps 0.05 --t-end 10"
"""

import argparse
import json
import os
import pathlib
import shlex
import statistics
import subprocess
import sys
import time

CODE = "import sys; from nel.cli import main; sys.exit(main(sys.argv[1:]))"
FLOOR = "import nel.cli"
# one session: the jobs in order, each to a file; prints
# [[0, rss, children's rss], [job s, rss, children's rss], ...]
SESSION = """import resource
import nel.cli
import os, shlex, sys, tempfile, time
def rss():
    return [resource.getrusage(who).ru_maxrss / 1024 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
rows = [[0.0, *rss()]]
with tempfile.TemporaryDirectory() as tmp:
    for i, job in enumerate(sys.argv[1:]):
        t0 = time.perf_counter()
        if nel.cli.main([*shlex.split(job), "--out", os.path.join(tmp, f"job{i}")]) != 0:
            sys.exit(f"nel {job} failed")
        rows.append([time.perf_counter() - t0, *rss()])
print(rows)
"""
BLAS_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def tree_env(tree):
    return {**os.environ, **BLAS_CAPS, "PYTHONPATH": str(pathlib.Path(tree, "src").resolve())}


def run_once(tree, argv):
    """(wall s, user s, sys s, minor faults, max RSS MB) of one run; no argv: the import alone."""
    env = tree_env(tree)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CODE if argv else FLOOR, *argv], env=env, stdout=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"{tree}: nel {shlex.join(argv)} exited with status {proc.returncode}")
    return wall, ru.ru_utime, ru.ru_stime, ru.ru_minflt, ru.ru_maxrss / 1024


def run_session(tree, jobs):
    """[(job s, max RSS MB so far, children's max RSS MB so far)] after the
    import (0 s) and after each job of one session."""
    proc = subprocess.run(
        [sys.executable, "-c", SESSION, *jobs], env=tree_env(tree), capture_output=True, text=True
    )
    if proc.returncode:
        sys.exit(f"{tree}: session exited with status {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def session_table(k, trees, jobs):
    runs = {tree: [] for tree in trees}
    for i in range(k):
        for tree in trees[:: 1 if i % 2 == 0 else -1]:
            runs[tree].append(run_session(tree, jobs))
    print(f"{'after':<44} {'tree':<16} {'job s':>7} {'maxrss MB':>9} {'child MB':>9}")
    for j, job in enumerate([FLOOR, *jobs]):
        for tree, sessions in runs.items():
            wall, rss, child = (statistics.median(s[j][c] for s in sessions) for c in (0, 1, 2))
            print(f"{job[:44]:<44} {tree[-16:]:<16} {wall:7.3f} {rss:9.1f} {child:9.1f}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-k", type=int, default=5, help="runs per job and tree (default 5)")
    ap.add_argument("--tree", action="append", required=True, help="a source tree; give one or two")
    ap.add_argument("--session", action="store_true", help="run the jobs in order in one interpreter")
    ap.add_argument("jobs", nargs="+", help="nel argv of one job, shell-quoted")
    args = ap.parse_args(argv)
    if args.session:
        return session_table(args.k, args.tree, args.jobs)
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
