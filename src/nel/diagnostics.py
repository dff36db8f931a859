"""Section/strobe sampling and largest-Lyapunov-exponent estimates.

Works on any state of one flow protocol, which the wave and envelope states
of `models` and the angle flow `forcing.ABCState` share: ``step(dt)``; the
flat real ``vector()`` and ``with_vector(vec)``, which keeps the state's
clock; ``gap(other)``, the flat vector from the state to other (angle gaps
wrapped into [-pi, pi)); the shadow's unnormalised ``direction(seed)``;
``advance(n, h)``, the state after n steps of h; ``frozen``, true for a flow
that does not move; and ``coeffs()``, the (re, im) lists of an output record.

Driven states (those with a forcing clock) are strobed at the forcing period
(2*pi for the cos t drive); states with a ``section_angle`` (the autonomous
envelopes) are cut by that phase section, crossings located by bisection on
the step.  The Lyapunov estimate is the two-orbit method: renormalize the
shadow's separation to d0 after every window and average the log growth.
The reference orbit never reads its shadow, so where a second CPU is free a
forked child steps it ahead while this process steps the shadow
(`_reference_ends`).
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ComputationalError, ValidationError, step_count, usable_cpus

__all__ = ["LyapunovResult", "PoincareResult", "poincare_samples", "lyapunov_max"]

ESCAPE_NORM = 1e6
BISECT_TOL = 1e-10
MAX_SECTION_WAIT = 1000.0  # time units allowed between consecutive section hits


@dataclass(frozen=True)
class PoincareResult:
    """Successive map iterates (initial state excluded); each carries its time ``t``."""

    samples: tuple
    escaped: bool = False


@dataclass(frozen=True)
class LyapunovResult:
    lam: float
    series: tuple  # (t, running estimate) pairs, one per renormalization
    escaped: bool = False

    def last_decade_spread(self) -> float:
        """Relative spread of the running estimate over the last 10x of time."""
        if not self.series:
            return math.inf
        t_end = self.series[-1][0]
        tail = [lam for t, lam in self.series if t >= t_end / 10.0]
        lo, hi = min(tail), max(tail)
        scale = max(abs(hi), abs(lo), 1e-12)
        return (hi - lo) / scale


def model_step(state, dt: float):
    """One step of any protocol state; the strobe and section searches step through it."""
    return state.step(dt)


def _norm(v) -> float:  # the loop's one metric: fsum rounds correctly, whatever the BLAS core
    return math.sqrt(math.fsum(v * v))


def _escaped(state) -> bool:
    return not np.abs(state.vector()).max() <= ESCAPE_NORM  # also true for nan


def poincare_samples(state0, n_iterates: int, dt: float = 0.01, period: float | None = None) -> PoincareResult:
    """Sample the flow map: strobe each forcing period (driven states) or cut
    the state's phase section (autonomous states that define one).

    A trajectory whose sup norm passes 1e6, or that stops being finite,
    truncates the sample list and sets the escaped flag.  An orbit that goes
    MAX_SECTION_WAIT time units without crossing the section (a phase-locked
    state never returns to it) raises ComputationalError rather than
    integrating forever.
    """
    if n_iterates < 1:
        raise ValidationError(f"n_iterates must be >= 1, got {n_iterates}")
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if getattr(state0, "forcing", None) is not None:
        return _strobe_samples(state0, n_iterates, dt, period)
    if not hasattr(state0, "section_angle"):
        raise ValidationError(f"no section map for state of type {type(state0).__name__}")
    if period is not None:
        raise ValidationError("the phase section map takes no period")
    return _section_samples(state0, n_iterates, dt)


def _strobe_samples(state0, n_iterates: int, dt: float, period: float | None) -> PoincareResult:
    if period is None:
        if state0.forcing.mode != "cos_t":
            raise ValidationError(
                "the quasiperiodic drive has no strobe period; pass one explicitly"
            )
        period = 2.0 * math.pi
    if period <= 0:
        raise ValidationError(f"period must be positive, got {period}")
    steps = max(1, step_count(period, dt, "period"))
    h = period / steps
    samples = []
    st = state0
    for _ in range(n_iterates):
        try:
            for _ in range(steps):
                st = model_step(st, h)
        except ComputationalError:
            return PoincareResult(tuple(samples), escaped=True)
        if _escaped(st):
            return PoincareResult(tuple(samples), escaped=True)
        samples.append(st)
    return PoincareResult(tuple(samples))


def _section_samples(state0, n_iterates: int, dt: float) -> PoincareResult:
    samples = []
    st = state0
    s_prev = st.section_angle()
    waited = 0.0
    while len(samples) < n_iterates:
        try:
            nxt = model_step(st, dt)
        except ComputationalError:
            return PoincareResult(tuple(samples), escaped=True)
        if _escaped(nxt):
            return PoincareResult(tuple(samples), escaped=True)
        s_new = nxt.section_angle()
        # downward pass through 0; the pi -> -pi seam is not the section
        if s_prev > 0.0 >= s_new and s_prev - s_new < math.pi:
            lo, hi = 0.0, dt
            while hi - lo > BISECT_TOL:
                mid = 0.5 * (lo + hi)
                if model_step(st, mid).section_angle() > 0.0:
                    lo = mid
                else:
                    hi = mid
            samples.append(model_step(st, hi))
            waited = 0.0
        else:
            waited += dt
            if waited > MAX_SECTION_WAIT:
                raise ComputationalError(
                    f"no section crossing within {MAX_SECTION_WAIT:g} time units "
                    f"(got {len(samples)} of {n_iterates} iterates); the orbit has "
                    "locked off the section or rotates the wrong way"
                )
        st, s_prev = nxt, s_new
    return PoincareResult(tuple(samples))


def _windows(x, n_windows: int, steps: int, h: float):
    """x's flat vector at the end of each of n_windows windows of steps steps
    of h; None, and no more, once x blows up."""
    for _ in range(n_windows):
        try:
            x = x.advance(steps, h)
        except ComputationalError:
            yield None
            return
        yield x.vector()


@contextlib.contextmanager
def _reference_ends(x, n_windows: int, steps: int, h: float):
    """An iterator over `_windows` of the reference orbit x.

    Where os.fork exists, more than one CPU is usable and no other Python
    thread runs (so none holds a lock the child would inherit), a forked
    child steps x and writes each window end to a pipe as one record: a
    status byte (1 for a window end, 0 once x blows up) and the raw float64
    bytes of the vector, which is exact.  Elsewhere the windows are stepped
    here, as they are read; either way the ends are the same bits.  The
    child runs only the stepper: it calls no BLAS, writes nothing but the
    pipe, ignores Ctrl-C (the parent handles it) and leaves by os._exit, so
    no atexit handler, stdout buffer or payload spool is flushed twice.
    However the block is left (return, escape, collapse, exception or
    Ctrl-C), the child is killed and reaped; a child that ends before its
    last record raises ComputationalError.

    This is a fork, not a `multiprocessing` spawn: on a 2-vCPU x86-64 Xeon
    host a fresh interpreter importing `nel.models` took 220-300 ms, against
    2.6 ms for a fork round trip.  That is about half the saving on the
    angle flow's benchmark job (about 0.5 s), and more than the whole saving
    on the envelope's (about 0.15 s).
    """
    if not (hasattr(os, "fork") and usable_cpus() > 1 and threading.active_count() == 1):
        yield _windows(x, n_windows, steps, h)
        return
    size = x.vector().nbytes
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, 1)
            os.dup2(null, 2)
            with os.fdopen(w, "wb") as out:
                for end in _windows(x, n_windows, steps, h):
                    out.write(bytes(1 + size) if end is None else b"\1" + end.tobytes())
                    out.flush()
        finally:
            os._exit(0)
    try:
        os.close(w)
        with os.fdopen(r, "rb") as src:
            yield (_window_end(src.read(1 + size), size) for _ in range(n_windows))
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _window_end(record: bytes, size: int):
    if len(record) < 1 + size:
        raise ComputationalError("the process stepping the reference orbit ended early")
    return np.frombuffer(record, offset=1) if record[0] else None


def lyapunov_max(
    state0,
    t_end: float,
    dt: float = 0.01,
    renorm_dt: float = 0.5,
    d0: float = 1e-8,
    seed: int = 0,
) -> LyapunovResult:
    """Largest Lyapunov exponent of a trajectory by shadow separation.

    The run is round(t_end / renorm_dt) windows (at least one) of exactly
    renorm_dt >= dt, each taken in round(renorm_dt / dt) equal steps, so the
    k-th entry of the running series (t, S(t)/t) sits at t = k * renorm_dt.
    The shadow starts d0 from state0 along ``state0.direction(seed)``, and
    each window puts it back at d0 along its gap.  The reference orbit is
    read only at window ends (`_reference_ends`), rebuilt on the shadow's
    clock, which a driven pair shares: both take the same steps from the same
    time.  An escaping or blowing-up orbit truncates the series and sets the
    escaped flag, a separation that collapses to exactly zero raises, and a
    frozen flow returns exactly 0.
    """
    if t_end <= 0 or dt <= 0 or d0 <= 0:
        raise ValidationError("t_end, dt, and d0 must all be positive")
    if renorm_dt < dt:
        raise ValidationError("renorm_dt must be at least dt")
    steps = max(1, step_count(renorm_dt, dt, "renorm_dt"))
    h = renorm_dt / steps
    n_windows = max(1, step_count(t_end, renorm_dt, "t_end"))
    if state0.frozen:
        return LyapunovResult(0.0, tuple((w * renorm_dt, 0.0) for w in range(1, n_windows + 1)))
    direction = state0.direction(seed)
    y = state0.with_vector(state0.vector() + d0 * (direction / _norm(direction)))
    log_sum = 0.0
    series = []
    with _reference_ends(state0, n_windows, steps, h) as ends:
        for w in range(1, n_windows + 1):
            try:
                y = y.advance(steps, h)
                escaped = _escaped(y)
            except ComputationalError:
                escaped = True
            end = None if escaped else next(ends)  # the shadow's window first: the child runs meanwhile
            if end is None or _escaped(x := y.with_vector(end)):
                return LyapunovResult(lam=series[-1][1] if series else math.nan, series=tuple(series), escaped=True)
            g = x.gap(y)
            d = _norm(g)
            if d == 0.0:
                raise ComputationalError("shadow separation collapsed to zero; increase d0")
            log_sum += math.log(d / d0)
            t = w * renorm_dt
            series.append((t, log_sum / t))
            y = x.with_vector(x.vector() + (d0 / d) * g)
    return LyapunovResult(lam=series[-1][1], series=tuple(series))
