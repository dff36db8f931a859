#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run it from the root of a nel source tree.  At reduced job sizes it runs
every workload untraced and traced, and checks that each run is correct and
emits exactly the metrics ``BENCHMARK.json`` names, each with its unit.  It
stresses the tracer with more threads than cores and checks that no span or
count is lost and every span's parent is in its own thread.  As a
negative control it then tampers with finished result files (a wrong ν*, a
NaN in a payload, a flipped label, a changed digit, a failed exit) and checks
that each is counted as a failed job, while the untouched files pass.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile
import threading

import numpy as np

import run
from tracer import Tracer

SEED = 3


def expect_metrics(bench: dict, trace: int) -> dict:
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_workload(root: str, bench: dict, workload: str, problems: list) -> None:
    for trace in (0, 1):
        result, detail = run.run(workload, SEED, 0, trace, root, small=True)
        where = f"{workload} trace {trace}"
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{where}: not correct: {detail['failures']}")
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        want = expect_metrics(bench, trace)
        if got != want:
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
            problems.append(f"{where}: missing {missing}, unnamed {extra}, wrong unit {wrong}")
        print(f"selftest: {where}: {len(got)} metrics, {result['attempted']} jobs", flush=True)


def tracer_stress(problems: list, threads: int = 8, calls: int = 2000) -> None:
    """Nested spans and counts from many threads at once: none may be lost."""
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: tracer.count("calls"))
    outer = tracer.wrap("outer", lambda: inner())

    def work():
        for _ in range(calls):
            outer()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    if any(t.is_alive() for t in pool):
        problems.append("tracer stress: a thread did not finish")
        return
    table = tracer.table()
    totals = tracer.totals(table)
    n = threads * calls
    by_sid = dict(zip(table["sid"].tolist(), range(len(table["sid"]))))
    inner_rows = np.flatnonzero(table["name"] == list(table["names"]).index("inner"))
    parents = [by_sid.get(p) for p in table["parent"][inner_rows].tolist()]
    if (
        tracer.counts["calls"] != n
        or totals["outer"][0] != n
        or totals["inner"][0] != n
        or len(by_sid) != 2 * n
        or None in parents
        or any(table["thread"][i] != table["thread"][p] for i, p in zip(inner_rows, parents))
        or table["self"].min() < 0.0
    ):
        problems.append(f"tracer stress: lost or misattributed spans: {totals}, {dict(tracer.counts)}")
    print(f"selftest: tracer stress: {threads} threads, {2 * n} spans", flush=True)


def _edit(path: str, pattern: str, replacement: str, line: int) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    edited = re.sub(pattern, replacement, lines[line], count=1)
    if edited == lines[line]:
        raise AssertionError(f"tamper pattern {pattern!r} not found in line {line} of {path}")
    lines[line] = edited
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def negative_control(root: str, problems: list) -> None:
    """Tampered result files must each count as one failed job."""
    src = os.path.join(root, "src")
    out = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(root, run.OUT_DIR))
    try:
        jobs = run.workload_jobs("spectra", small=True)
        rec, error, sdir = run.run_session(root, src, jobs, SEED, 0, out, 0)
        if rec is None:
            problems.append(f"negative control: session failed: {error}")
            return
        ledger = run.Ledger(out, "selftest")
        paths = [os.path.join(sdir, f"job{i}.{job['fmt']}") for i, job in enumerate(jobs)]
        for i, (job, path) in enumerate(zip(jobs, paths)):
            ledger.job(i, job, 0, path, SEED, "untouched")
        if ledger.failures:
            problems.append(f"negative control: untouched results fail: {ledger.failures}")
            return

        # (name, job index, line, pattern, replacement, exit code)
        cases = [
            ("wrong nu*", 0, 1, r'"nu_star":[^,}]+', '"nu_star":0.2', 0),
            ("NaN in a JSON payload", 0, 1, r'"refine_delta":[^,}]+', '"refine_delta":NaN', 0),
            ("NaN in a CSV payload", 3, 3, r",[^,]+$", ",nan", 0),
            ("flipped zvtrack label", 1, 0, r'"class_label":"Persistence"', '"class_label":"Singularity"', 0),
            ("changed payload digit", 2, 1, r'"nus":\[0\.1,', '"nus":[0.10000000000000002,', 0),
            ("failed exit", 0, 1, None, None, 3),
        ]
        for name, index, line, pattern, replacement, rc in cases:
            tampered = paths[index] + ".tampered"
            shutil.copyfile(paths[index], tampered)
            if pattern is not None:
                _edit(tampered, pattern, replacement, line)
            before = len(ledger.failures)
            ledger.job(index, jobs[index], rc, tampered, SEED, name)
            counted = len(ledger.failures) - before
            verdict = ledger.failures[-1] if counted else "passed"
            print(f"selftest: tampered ({name}): {verdict}", flush=True)
            if counted != 1:
                problems.append(f"negative control: {name} counted {counted} failures, want 1")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nel", "cli.py")):
        print("selftest: run from the root of a nel source tree", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems: list[str] = []
    for workload in run.WORKLOADS:
        check_workload(root, bench, workload, problems)
    tracer_stress(problems)
    negative_control(root, problems)
    for p in problems:
        print("selftest: FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
