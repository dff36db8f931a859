"""The dense eigensolve and zvtrack's threads.

``block_eigvals`` calls numpy's own LAPACK without the GIL: ``dgebal`` and
``dhseqr`` as ``dgeev`` calls them, or ``dgeev`` itself where that would
differ; every block nel solves must come out bit for bit as
``np.linalg.eigvals`` gives it, with numpy's dtype and errors.
``track_zero_viscosity`` solves its schedule on as many threads as the
affinity mask has CPUs (none on one CPU), matching each spectrum as it
arrives, and its payload must not depend on how many.
"""

import ctypes
import os
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import nel.spectra
from nel.cli import main
from nel.errors import ComputationalError
from nel.spectra import (
    ModeClass,
    Tridiagonal,
    assemble_suboperator,
    block_eigvals,
    class_spectrum,
    compute_spectrum,
    track_zero_viscosity,
    viscosity_schedule,
)

ALPHA = 0.7
GAMMA = 0.5
SCHEDULE = viscosity_schedule(0.1, 1e-4, 40)  # the benchmark's zvtrack schedule


def same_bytes(got, want):
    """The same dtype and bits: uint64 views tell -0.0 from 0.0."""
    return got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def solved_blocks(cases):
    """Every block that class_spectrum hands the eigensolve, for (cls, nu, trunc) cases."""
    blocks = []
    solve = nel.spectra.block_eigvals

    def spy(t):
        blocks.append(t)
        return solve(t)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(nel.spectra, "block_eigvals", spy)
        for cls, nu, trunc in cases:
            class_spectrum(cls, ALPHA, GAMMA, nu, trunc)
    return blocks


BLOCK_CASES = {
    # the two reflection sectors over zvtrack's schedule
    "sectors-15": [(ModeClass(k1, 0), nu, 15) for k1 in (1, 2) for nu in SCHEDULE],
    "sectors-40": [(ModeClass(k1, 0), nu, 40) for k1 in (1, 2) for nu in SCHEDULE],
    "sectors-150": [(ModeClass(k1, 0), nu, 150) for k1 in (1, 2) for nu in SCHEDULE],
    "trunc-400": [(ModeClass(1, 0), 0.05, 400)],
    # nu = 0: the odd-row blocks CB of the parity split
    "parity": [(ModeClass(k1, k2), 0.0, trunc) for k1, k2 in ((1, 0), (2, 0), (1, 1), (2, 1)) for trunc in (40, 150)],
    "k2-nonzero": [(ModeClass(k1, k2), nu, 40) for k1, k2 in ((1, 1), (2, 1), (3, 2)) for nu in (0.05, 1e-3, 1e-4)],
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocks_solve_as_numpy_does(case):
    blocks = solved_blocks(BLOCK_CASES[case])
    assert blocks
    for t in blocks:
        assert same_bytes(block_eigvals(t), np.linalg.eigvals(t.dense()))


@pytest.mark.parametrize(
    "t",
    [
        Tridiagonal(np.zeros(0), np.zeros(0), np.zeros(0)),
        Tridiagonal(np.array([-0.25]), np.zeros(0), np.zeros(0)),
        Tridiagonal(np.array([0.0]), np.zeros(0), np.zeros(0)),
        Tridiagonal(np.array([-0.0, -0.0]), np.array([1.0]), np.array([-1.0])),  # -0 +/- i: wr + 1j wi gives +0
    ],
    ids=["0x0", "1x1", "1x1-zero", "2x2-signed-zeros"],
)
def test_small_blocks(t):
    assert same_bytes(block_eigvals(t), np.linalg.eigvals(t.dense()))


def test_all_real_spectrum_is_a_real_array():
    rng = np.random.default_rng(0)
    off = rng.standard_normal(59)
    t = Tridiagonal(rng.standard_normal(60), off, off)  # symmetric: every wi is 0
    got = block_eigvals(t)
    assert got.dtype == np.float64
    assert same_bytes(got, np.linalg.eigvals(t.dense()))
    # and one with complex pairs stays complex
    t = Tridiagonal(t.diag, off, -off)
    assert block_eigvals(t).dtype == np.complex128
    assert same_bytes(block_eigvals(t), np.linalg.eigvals(t.dense()))


# classes whose balanced blocks are not Hessenberg: |k_n| = 1 at n = -1 isolates an interior column
PERMUTED = {"1-1-alpha-1": (ModeClass(1, 1), 1.0), "2-1-alpha-0.5": (ModeClass(2, 1), 0.5)}


def after_solves(monkeypatch, after):
    """Run after(name, args) after each solve of dgeev and of dhseqr (not
    after dgeev's workspace query)."""
    lapack = nel.spectra._lapack

    def wrapped(name):
        real = lapack(name)
        if name == "dgebal" or real is None:
            return real

        def routine(*args):
            real(*args)
            if ctypes.c_int64.from_address(args[12]).value > 0:  # lwork; the query passes -1
                after(name, args)

        return routine

    monkeypatch.setattr(nel.spectra, "_lapack", wrapped)


def solves(monkeypatch):
    """Count the solves of dgeev and of dhseqr."""
    counts = {"dgeev": 0, "dhseqr": 0}

    def count(name, args):
        counts[name] += 1

    after_solves(monkeypatch, count)
    return counts


def failing_solves(monkeypatch):
    """Plant info = 1 (no convergence) after each solve, of dgeev and of dhseqr."""

    def fail(name, args):
        ctypes.c_int64.from_address(args[13]).value = 1

    after_solves(monkeypatch, fail)


@pytest.mark.parametrize("case", PERMUTED)
@pytest.mark.parametrize("trunc", [40, 150])
def test_permuted_blocks_solve_as_numpy_does(case, trunc, monkeypatch):
    """Balancing moves the isolated column to the front, out of Hessenberg
    form, where dhseqr would give other eigenvalues: dgeev solves these."""
    cls, alpha = PERMUTED[case]
    counts = solves(monkeypatch)
    for nu in (0.05, 1e-3, 1e-4):
        t = assemble_suboperator(cls, alpha, GAMMA, nu, trunc).bands
        assert same_bytes(block_eigvals(t), np.linalg.eigvals(t.dense()))
    assert counts == {"dgeev": 3, "dhseqr": 0}


@pytest.mark.parametrize("norm", [1e-140, 1e140])
def test_blocks_dgeev_scales_solve_as_numpy_does(norm, monkeypatch):
    t = assemble_suboperator(ModeClass(1, 1), ALPHA, GAMMA, 0.05, 40).bands
    s = norm / np.max(np.abs(t.diag))  # the diagonal holds the largest entry
    t = Tridiagonal(s * t.diag, s * t.lower, s * t.upper)
    counts = solves(monkeypatch)
    assert same_bytes(block_eigvals(t), np.linalg.eigvals(t.dense()))
    assert counts == {"dgeev": 1, "dhseqr": 0}
    counts["dgeev"] = 0
    t = Tridiagonal(t.diag / s, t.lower / s, t.upper / s)  # within dgeev's range again
    assert same_bytes(block_eigvals(t), np.linalg.eigvals(t.dense()))
    assert counts == {"dgeev": 0, "dhseqr": 1}


FALLBACK_CASES = BLOCK_CASES["sectors-40"][::7] + BLOCK_CASES["parity"] + BLOCK_CASES["k2-nonzero"]


def test_fallback_gives_the_same_bytes(monkeypatch):
    ops = [assemble_suboperator(cls, ALPHA, GAMMA, nu, trunc) for cls, nu, trunc in FALLBACK_CASES]
    want = [compute_spectrum(op) for op in ops]
    monkeypatch.setattr(nel.spectra, "_lapack", lambda name: None)  # numpy without the symbols
    for op, w in zip(ops, want):
        got = compute_spectrum(op)
        assert same_bytes(got.values, w.values) and np.array_equal(got.sectors, w.sectors)


@pytest.mark.parametrize("missing", ["dgebal", "dhseqr"])
def test_dgeev_alone_gives_the_same_bytes(missing, monkeypatch):
    ops = [assemble_suboperator(cls, ALPHA, GAMMA, nu, trunc) for cls, nu, trunc in FALLBACK_CASES]
    want = [compute_spectrum(op) for op in ops]
    lapack = nel.spectra._lapack
    monkeypatch.setattr(nel.spectra, "_lapack", lambda name: None if name == missing else lapack(name))
    counts = solves(monkeypatch)
    for op, w in zip(ops, want):
        got = compute_spectrum(op)
        assert same_bytes(got.values, w.values) and np.array_equal(got.sectors, w.sectors)
    assert counts["dgeev"] > 0 and counts["dhseqr"] == 0


def test_dgeev_is_found_where_numpy_exports_it():
    # numpy 2 wheels bundle scipy-openblas; other builds fall back to np.linalg.eigvals
    try:
        ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_dgeev_64_
    except AttributeError:
        pytest.skip("this numpy's LAPACK is not scipy-openblas")
    assert all(nel.spectra._lapack(name) is not None for name in ("dgeev", "dgebal", "dhseqr"))


def test_no_convergence_is_a_linalg_error(monkeypatch):
    failing_solves(monkeypatch)
    cls, alpha = PERMUTED["1-1-alpha-1"]
    for t in (  # solved by dhseqr, then by dgeev
        assemble_suboperator(ModeClass(1, 1), ALPHA, GAMMA, 0.05, 8).bands,
        assemble_suboperator(cls, alpha, GAMMA, 0.05, 8).bands,
    ):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            block_eigvals(t)


def test_non_finite_block_is_a_linalg_error():
    t = assemble_suboperator(ModeClass(1, 1), ALPHA, GAMMA, 0.05, 8).bands
    t.lower[3] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        block_eigvals(t)
    with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
        np.linalg.eigvals(t.dense())


@pytest.mark.parametrize("plant", ["info", "nan"])
def test_failed_solve_exits_3(plant, monkeypatch, tmp_path, capsys):
    if plant == "info":
        failing_solves(monkeypatch)
    else:
        assemble = nel.spectra.assemble_suboperator

        def with_nan(*args):
            op = assemble(*args)
            op.bands.diag[-1] = np.inf  # a row of every sector
            return op

        monkeypatch.setattr(nel.spectra, "assemble_suboperator", with_nan)
    out = tmp_path / "out.jsonl"
    argv = ["zvtrack", "--trunc", "12", "--n-nus", "6", "--out", str(out)]
    assert main(argv) == 3
    assert "numerical failure: eigensolver failed" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ComputationalError):
        class_spectrum(ModeClass(2, 1), ALPHA, GAMMA, 0.05, 8)


# ---------------------------------------------------------------------------
# zvtrack's threads


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def zvtrack_payload(k1, k2, out):
    argv = ["zvtrack", "--k1", str(k1), "--k2", str(k2), "--trunc", "24", "--n-nus", "40", "--out", str(out)]
    assert main(argv) == 0
    return out.read_text().splitlines()[1:]


@pytest.mark.parametrize("k1,k2", [(1, 0), (2, 1)])
def test_payload_does_not_depend_on_the_cpu_count(k1, k2, monkeypatch, tmp_path):
    payloads = []
    for n in (1, 2, 3):  # 3 splits the 40 viscosities unevenly
        cpus(monkeypatch, n)
        payloads.append(zvtrack_payload(k1, k2, tmp_path / f"zv{n}.jsonl"))
    assert payloads[0] == payloads[1] == payloads[2]
    assert len(payloads[0]) > 1


def test_cpu_count_without_an_affinity_mask(monkeypatch, tmp_path):
    want = zvtrack_payload(1, 0, tmp_path / "mask.jsonl")
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # macOS and Windows have none
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert zvtrack_payload(1, 0, tmp_path / "count.jsonl") == want


def planted_failures(monkeypatch, fail):
    """class_spectrum raising ComputationalError at the viscosities fail(nu) picks."""
    real = nel.spectra.class_spectrum

    def spectrum(cls, alpha, gamma, nu, trunc):
        if fail(nu):
            raise ComputationalError(f"planted at nu = {float(nu)!r}")
        return real(cls, alpha, gamma, nu, trunc)

    monkeypatch.setattr(nel.spectra, "class_spectrum", spectrum)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_first_failing_viscosity_in_schedule_order_wins(n, monkeypatch):
    cpus(monkeypatch, n)
    # the later failure comes first in time: the earlier one waits
    slow, fast = SCHEDULE[3], SCHEDULE[5]

    def fail(nu):
        if nu == slow:
            time.sleep(0.05)
        return nu in (slow, fast)

    planted_failures(monkeypatch, fail)
    with pytest.raises(ComputationalError, match=re.escape(f"planted at nu = {slow!r}")):
        track_zero_viscosity(ModeClass(1, 0), ALPHA, GAMMA, SCHEDULE, 8)


def test_threads_are_joined(monkeypatch):
    cpus(monkeypatch, 3)
    baseline = threading.active_count()
    track_zero_viscosity(ModeClass(1, 0), ALPHA, GAMMA, SCHEDULE, 8)
    assert threading.active_count() == baseline

    def fail(nu):
        if nu == SCHEDULE[21]:
            time.sleep(0.05)  # still being solved when SCHEDULE[20]'s error is raised
        return nu == SCHEDULE[20]

    planted_failures(monkeypatch, fail)
    with pytest.raises(ComputationalError):
        track_zero_viscosity(ModeClass(1, 0), ALPHA, GAMMA, SCHEDULE, 8)
    assert threading.active_count() == baseline


def test_one_cpu_starts_no_thread(monkeypatch, tmp_path):
    want = zvtrack_payload(2, 1, tmp_path / "two.jsonl")
    cpus(monkeypatch, 1)

    def start(thread):
        raise AssertionError(f"{thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", start)
    assert zvtrack_payload(2, 1, tmp_path / "one.jsonl") == want


def test_failed_matching_cancels_the_queued_solves(monkeypatch):
    cpus(monkeypatch, 3)
    baseline = threading.active_count()
    started = []
    real = nel.spectra.class_spectrum

    def spectrum(*args):
        started.append(args)
        time.sleep(0.01)
        return real(*args)

    def assignment(cost):
        raise ComputationalError("planted in the matching of step 1")

    monkeypatch.setattr(nel.spectra, "class_spectrum", spectrum)
    monkeypatch.setattr(nel.spectra, "linear_sum_assignment", assignment)
    with pytest.raises(ComputationalError, match="planted in the matching") as failure:
        track_zero_viscosity(ModeClass(1, 0), ALPHA, GAMMA, SCHEDULE, 8)
    # joined on the way out, not when the traceback (held here) is collected
    assert failure.tb is not None and threading.active_count() == baseline
    assert 2 <= len(started) < len(SCHEDULE)


def test_import_loads_neither_a_pool_nor_scipy():
    code = "import sys, nel.cli; sys.exit(3 if {'concurrent.futures', 'scipy'} & set(sys.modules) else 0)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
