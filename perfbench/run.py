#!/usr/bin/env python3
"""nel's benchmark: three research sessions, timed end to end, traced per layer.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 25 --trace 0

Run it from the root of a source tree (one with ``src/nel``).  One run
byte-compiles ``src/nel``, then repeats sessions of the chosen workload until
``--seconds`` have passed (at least ``MIN_SESSIONS``).  A session is a fresh
interpreter (``session.py``) that imports ``nel.cli`` and calls
``nel.cli.main(argv)`` for a fixed list of jobs, writing each result to a
file.  Every result is parsed strictly and checked (``checks.py``).

Thread limits are part of every workload: BLAS runs one thread and
``NEL_THREADS`` is the number of usable CPUs, so zvtrack's own pool is the
only parallelism.

With ``--trace 0`` the last stdout line reports the end-to-end metrics over
the run's sessions: the median set-up time and peak memory, and the mean time
to the first result and wall time of the jobs.  The three times are given at
a reference host speed.  The benchmark was written on a host whose cores are
shared with other machines: its speed shifts by a quarter or more, for
minutes at a time, so the raw times of two runs of the same code differed
more than the bounds allow.  Before each session the run therefore times
``hostspeed.py``, fixed work that no change to nel can move, and multiplies
each time by the square root of ``HOST_REFERENCE_S`` over the probe's median
in the run.  The square root, not the full ratio, because the probe has
noise of its own and tracks the sessions only in part: the slope of log
session time on log probe time ranged from 0.1 to 1.1 across workloads and
sets of runs, and half the log ratio gave the smallest spread overall.  The
raw times and the probe's figures are printed and kept in the result file.
The mean of the job times is used because every second of a session samples
the drift; the median of a handful of sessions follows whichever state most
of them fell in.  None of the metrics reads 0 on any workload, so the time
of each of the eight commands is a per-layer metric instead (0 where a
workload does not run the command, and not scaled), and the failure fraction
is the result line's ``failed`` over ``attempted``.  With ``--trace 1`` the
run alternates untraced and traced sessions and reports the per-layer
metrics (``layers.py``) of the traced ones, the per-command times of the
untraced ones, and the tracing overhead.  Exact work counts must repeat:
counts that differ between traced sessions, or from an earlier run of the
same source and seed in this tree, fail the run, as does a payload that
differs from an earlier one.

Results, the environment record and the spans of the last traced session are
kept in ``.perfbench_out/``.  The workloads, and why each is there:

* ``spectra``: the ν* search at a tight tolerance, zvtrack for classes (1,0)
  and (2,0), and one large class spectrum.  Eigensolves and the ν* search do
  nearly all the work: no FFT, no time stepping.  It is the one workload
  that needs scipy, so making scipy's import lazy shows up here as cost moved
  into the first job.
* ``transport``: 2D laxcheck at 64², 3D laxcheck at 32³ in curl and free
  mode, and darboux on a 2048x256 grid.  Large n-D FFTs and the bracket and
  advection operators do the work; no eigensolves, no models; one output
  line per job.
* ``chaos``: simulate of dernls from its limit cycle at every step (about
  1 MB of output), poincare of dernls (section search with bisection) and of
  sg (strobe), lyapunov of abc and of dernls.  Per-step Python overhead, many
  tiny 1-D FFTs and the outer loops (section search, renormalization) do the
  work, the opposite use of the transform layer to ``transport``; the one
  workload that writes heavily.

The seed is passed to every job as ``--seed``; laxcheck and lyapunov draw
their inputs from it.  Every job runs about a second at the time of writing.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
MIN_SESSIONS = {0: 3, 1: 4}  # trace 1: at least two untraced and two traced
LAST_START = 100.0  # no session starts later than this into a run
DEADLINE = 170.0  # a session still running this long into a run is stopped

# hostspeed.py's median wall time on the host the benchmark was tuned on
# (2 shared x86_64 vCPUs); the end-to-end times read as seconds at that speed
HOST_REFERENCE_S = 0.65
HOST_SCALE_EXPONENT = 0.5

# name: (unit, summary over the run's sessions); times in "s" are scaled
END_TO_END = {
    "setup_s": ("s", "median"),
    "first_result_s": ("s", "mean"),
    "wall_s": ("s", "mean"),
    "peak_rss_mb": ("MB", "median"),
}
COMMANDS = ("spectrum", "nustar", "zvtrack", "laxcheck", "darboux", "simulate", "poincare", "lyapunov")


def _job(command, fmt, *argv, **gate):
    return {"command": command, "fmt": fmt, "argv": [command, *map(str, argv)], **gate}


def workload_jobs(workload: str, small: bool = False) -> list[dict]:
    """The jobs of one session, in order; ``small`` is the self-test size."""
    if workload == "spectra":
        trunc_ns, tol, trunc_zv, nus, trunc_sp = (40, 1e-6, 40, 12, 60) if small else (150, 1e-9, 150, 40, 400)
        zv = ("--trunc", trunc_zv, "--n-nus", nus)
        return [
            _job("nustar", "jsonl", "--trunc", trunc_ns, "--tol", tol),
            _job("zvtrack", "jsonl", "--k1", 1, "--k2", 0, *zv, label="Persistence", cls=[1, 0], trunc=trunc_zv),
            _job("zvtrack", "jsonl", "--k1", 2, "--k2", 0, *zv, label="Condensation", cls=[2, 0], trunc=trunc_zv),
            _job("spectrum", "csv", "--k1", 1, "--k2", 0, "--nu", 0.05, "--trunc", trunc_sp, trunc=trunc_sp),
        ]
    if workload == "transport":
        grid2, t2, grid3, t3, nx, ny = (32, 0.01, 16, 0.005, 256, 16) if small else (64, 0.2, 32, 0.03, 2048, 256)
        lax3 = ("--dim", 3, "--grid", grid3, "--dt", 5e-3, "--t-end", t3)
        return [
            _job("laxcheck", "jsonl", "--dim", 2, "--grid", grid2, "--t-end", t2, check="transport-compatibility-2d"),
            _job("laxcheck", "jsonl", *lax3, "--mode", "curl", check="transport-compatibility-3d-curl"),
            _job("laxcheck", "jsonl", *lax3, "--mode", "free", check="transport-compatibility-3d-free"),
            _job("darboux", "jsonl", "--nx", nx, "--ny", ny),
        ]
    if workload == "chaos":
        t_sim, hits, strobes, t_abc, t_dn = (1.0, 1, 1, 500.0, 1.0) if small else (20.0, 5, 10, 2500.0, 10.0)
        dn = ("--model", "dernls", "--eps", 0.05)
        return [
            _job("simulate", "jsonl", *dn, "--t-end", t_sim, "--dt", 0.01, "--sample-every", 1, t_end=t_sim, dt=0.01),
            _job("poincare", "csv", *dn, "--iterates", hits, model="dernls", iterates=hits),
            _job("poincare", "csv", "--model", "sg", "--u0", 3.0, "--iterates", strobes, model="sg", iterates=strobes),
            _job("lyapunov", "csv", "--model", "abc", "--t-end", t_abc, model="abc", t_end=t_abc),
            _job("lyapunov", "csv", *dn, "--t-end", t_dn, model="dernls", t_end=t_dn),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("spectra", "transport", "chaos")


# ---------------------------------------------------------------------------
# the tree under test and its environment


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def thread_caps() -> dict:
    n = str(nproc())
    return {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "NEL_THREADS": n}


def session_env(src: str) -> dict:
    env = dict(os.environ)
    env.update(thread_caps())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def source_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git(root: str, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_state(root: str) -> dict:
    """HEAD and a dirty-tree flag, or nulls outside a git work tree of its own."""
    top = _git(root, "rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top.strip()) != os.path.realpath(root):
        return {"head": None, "dirty": None}
    head = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "head": head.strip() if head else None,
        "dirty": None if status is None else bool(status.strip()),
    }


_PROBE = """
import json, platform, nel.cli, numpy, scipy
def blas(mod):
    deps = mod.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": deps.get("name"), "version": deps.get("version")}
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}))
"""


def build(root: str, src: str) -> dict:
    """Byte-compile nel, check that it imports, and record the environment."""
    if not compileall.compile_dir(os.path.join(src, "nel"), quiet=1):
        raise SystemExit("perfbench: src/nel does not compile")
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE], env=session_env(src), cwd=root,
        capture_output=True, text=True, timeout=DEADLINE,
    )
    if probe.returncode != 0:
        raise SystemExit(f"perfbench: cannot import nel.cli:\n{probe.stderr}")
    env = json.loads(probe.stdout)
    env.update(
        nproc=nproc(),
        cpu_count=os.cpu_count(),
        machine=platform.machine(),
        thread_caps=thread_caps(),
        git=git_state(root),
        source_sha256=source_digest(src),
    )
    return env


# ---------------------------------------------------------------------------
# one session


def parse_importtime(stderr: str) -> dict:
    """Self time by top-level package of the imports done by ``import nel.cli``."""
    per = {"numpy": 0.0, "scipy": 0.0, "nel": 0.0}
    for line in stderr.splitlines():
        if line.startswith("perfbench: nel.cli imported"):
            break
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        top = fields[2].strip().split(".")[0]
        if top in per and fields[0].strip().isdigit():
            per[top] += int(fields[0]) / 1e6
    return {f"startup.{k}_s": v for k, v in per.items()}


def run_session(root, src, jobs, seed, trace, workdir, index, timeout=DEADLINE):
    """Start one session, wait for it, and return its raw record (or None)."""
    sdir = os.path.join(workdir, f"session{index}")
    os.mkdir(sdir)
    spec = {
        "src": src,
        "trace": trace,
        "record": os.path.join(sdir, "record.json"),
        "spans": os.path.join(sdir, "spans.npz"),
        "jobs": [
            {"argv": job["argv"] + ["--seed", str(seed), "--out", os.path.join(sdir, f"job{i}.{job['fmt']}")]}
            for i, job in enumerate(jobs)
        ],
    }
    spec_path = os.path.join(sdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    cmd = [sys.executable, *(["-X", "importtime"] if trace else []), os.path.join(HERE, "session.py"), spec_path]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=session_env(src), cwd=root, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, "session timed out", sdir
    if proc.returncode != 0 or not os.path.exists(spec["record"]):
        return None, f"session exited {proc.returncode}: {proc.stderr[-2000:]}", sdir
    with open(spec["record"], encoding="utf-8") as fh:
        rec = json.load(fh)
    rec["t_spawn"] = t_spawn
    rec["stderr"] = proc.stderr
    rec["spans_path"] = spec["spans"]
    return rec, None, sdir


def host_probe(root: str, src: str, timeout: float) -> dict:
    """Run ``hostspeed.py`` once: its kernel times and its own wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "hostspeed.py")], env=session_env(src), cwd=root,
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: host-speed probe failed:\n{proc.stderr}")
    return {**json.loads(proc.stdout), "total": time.perf_counter() - t0}


def session_metrics(rec: dict, jobs: list[dict]) -> dict:
    runs = rec["jobs"]
    out = {
        "setup_s": rec["imported"] - rec["t_spawn"],
        "first_result_s": runs[0]["end"] - rec["t_spawn"],
        "wall_s": runs[-1]["end"] - runs[0]["start"],
        "peak_rss_mb": rec["peak_rss_mb"],
    }
    for cmd in COMMANDS:
        out[f"{cmd}_s"] = sum(r["end"] - r["start"] for r, j in zip(runs, jobs) if j["command"] == cmd)
    return out


# ---------------------------------------------------------------------------
# checks shared by every session of a run


class Ledger:
    """Job outcomes of one run, checked against what this tree produced before.

    ``reference.json`` keeps, per source digest, workload and seed, the
    payload digest of every job and the exact counts of a traced session.
    """

    def __init__(self, out_dir: str, key: str):
        self.path = os.path.join(out_dir, "reference.json")
        self.key = key
        self.attempted = 0
        self.failures: list[str] = []
        try:
            with open(self.path, encoding="utf-8") as fh:
                self.ref = json.load(fh)
        except (OSError, ValueError):
            self.ref = {}
        self.ref.setdefault(key, {})

    def job(self, index: int, job: dict, rc, path: str, seed: int, where: str) -> None:
        self.attempted += 1
        if rc != 0:
            return self.failures.append(f"{where} job {index} ({job['command']}): exit {rc}")
        try:
            with open(path, encoding="utf-8") as fh:
                digest = checks.check(job, fh.read(), seed)
        except (OSError, checks.Rejected) as exc:
            return self.failures.append(f"{where} job {index} ({job['command']}): {exc}")
        known = self.ref[self.key].setdefault(f"digest{index}", digest)
        if known != digest:
            self.failures.append(f"{where} job {index} ({job['command']}): payload digest differs from an earlier run")

    def counts(self, counts: dict, where: str) -> None:
        """Exact counts must repeat; a session whose counts differ is one failure."""
        known = self.ref[self.key].setdefault("counts", counts)
        differ = [
            f"{name} = {counts.get(name)}, earlier {known.get(name)}"
            for name in sorted(set(known) | set(counts))
            if known.get(name) != counts.get(name)
        ]
        if differ:
            self.failures.append(f"{where}: counts differ: {'; '.join(differ)}")

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.ref, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def summary(values: list[float]) -> dict:
    q1, q3 = (values[0], values[0]) if len(values) == 1 else statistics.quantiles(values, n=4)[::2]
    return {
        "median": statistics.median(values), "mean": statistics.fmean(values), "q1": q1, "q3": q3, "n": len(values)
    }


def traced_metrics(rec: dict, jobs: list[dict]) -> tuple[dict, dict]:
    """(per-layer metrics, exact counts among them) of one traced session."""
    totals = {k: tuple(v) for k, v in rec["totals"].items()}
    nustar = [i for i, j in enumerate(jobs) if j["command"] == "nustar"]
    metrics = layers.per_layer(
        totals, rec["counts"], sum(rec["eigs_by_job"][i] for i in nustar), len(nustar)
    )
    metrics.update({k: (v, "s") for k, v in parse_importtime(rec["stderr"]).items()})
    exact = {k: v for k, (v, unit) in metrics.items() if unit not in ("s", "us")}
    return metrics, exact


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: int, root: str, small: bool = False):
    """One benchmark run: (the result object, the run's detail)."""
    start = time.perf_counter()
    src = os.path.join(root, "src")
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    env = build(root, src)
    jobs = workload_jobs(workload, small)
    ledger = Ledger(out_dir, f"{env['source_sha256']}/{workload}/seed{seed}/{'small' if small else 'full'}")
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    plain, traced, probes = [], [], []
    spent = {0: 0.0, 1: 0.0}
    try:
        for index in itertools.count():
            kind = index % 2 if trace else 0
            elapsed = time.perf_counter() - start
            guess = spent[kind] / max(1, len(traced if kind else plain))
            if index >= MIN_SESSIONS[trace] and (elapsed + guess > seconds or elapsed > LAST_START):
                break
            t0 = time.perf_counter()
            if not trace:
                probes.append(host_probe(root, src, max(1.0, DEADLINE - elapsed)))
            timeout = max(1.0, DEADLINE - (time.perf_counter() - start))
            rec, error, sdir = run_session(root, src, jobs, seed, kind, workdir, index, timeout)
            spent[kind] += time.perf_counter() - t0
            where = f"session {index}{' (traced)' if kind else ''}"
            if rec is None:
                ledger.attempted += len(jobs)
                ledger.failures += [f"{where}: {error}"] * len(jobs)
                continue
            for i, (job, outcome) in enumerate(zip(jobs, rec["jobs"])):
                ledger.job(i, job, outcome["rc"], os.path.join(sdir, f"job{i}.{job['fmt']}"), seed, where)
            if kind:
                metrics, exact = traced_metrics(rec, jobs)
                ledger.counts(exact, where)
                shutil.copyfile(rec["spans_path"], os.path.join(out_dir, f"spans-{workload}.npz"))
                traced.append((session_metrics(rec, jobs), metrics))
            else:
                plain.append(session_metrics(rec, jobs))
        ledger.save()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = {name: summary([s[name] for s in plain]) for name in plain[0]} if plain else {}
    if trace:
        metrics = per_layer_result(plain, traced, e2e)
    else:
        host_factor = (HOST_REFERENCE_S / statistics.median(p["total"] for p in probes)) ** HOST_SCALE_EXPONENT
        metrics = {
            name: {"value": e2e[name][stat] * (host_factor if unit == "s" else 1.0), "unit": unit}
            for name, (unit, stat) in END_TO_END.items()
        } if plain else {}
    result = {
        "correct": not ledger.failures and bool(metrics),
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "sessions": {"untraced": len(plain), "traced": len(traced)},
        "jobs": [j["argv"] for j in jobs],
        "end_to_end": e2e,
        "hostspeed": {name: summary([p[name] for p in probes]) for name in probes[0]} if probes else None,
        "failures": ledger.failures,
        "env": env,
    }
    return result, detail


def per_layer_result(plain, traced, e2e) -> dict:
    if not plain or not traced:
        return {}
    layer = {}
    for name, (_, unit) in traced[0][1].items():
        values = [m[name][0] for _, m in traced]
        middle = statistics.median if unit in ("s", "us") else statistics.median_low  # counts stay whole
        layer[name] = {"value": middle(values), "unit": unit}
    for cmd in COMMANDS:
        layer[f"{cmd}_s"] = {"value": e2e[f"{cmd}_s"]["median"], "unit": "s"}
    traced_wall = statistics.median(s["wall_s"] for s, _ in traced)
    layer["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    layer["trace.overhead"] = {"value": traced_wall / e2e["wall_s"]["median"], "unit": "ratio"}

    def share(*names):
        return {"value": sum(layer[n]["value"] for n in names) / traced_wall, "unit": "ratio"}

    layer["share.eig"] = share("spectra.eig_s")
    layer["share.fft"] = share("transform.fftnd_s", "transform.fft1d_s")
    layer["share.models_fft1d"] = share("models.step_s", "models.nonlinear_s", "transform.fft1d_s")
    return layer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nel's benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nel", "cli.py")):
        print("perfbench: run from the root of a nel source tree (no src/nel/cli.py here)", file=sys.stderr)
        return 2
    result, detail = run(args.workload, args.seed, args.seconds, args.trace, root)
    path = os.path.join(root, OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**detail, "result": result}, fh, indent=1)
    for name, q in detail["end_to_end"].items():
        print(f"{name:>16} median {q['median']:.4f}  mean {q['mean']:.4f}  q1 {q['q1']:.4f}  q3 {q['q3']:.4f}  n {q['n']}")
    if detail["hostspeed"]:
        q = detail["hostspeed"]["total"]
        print(f"{'host probe':>16} median {q['median']:.4f}  times scaled by ({HOST_REFERENCE_S} / {q['median']:.4f}) ** {HOST_SCALE_EXPONENT}")
    for failure in detail["failures"]:
        print("FAILED", failure)
    print("env", json.dumps(detail["env"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
