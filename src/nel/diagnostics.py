"""Section/strobe sampling and largest-Lyapunov-exponent estimates.

Works on any state of one flow protocol, which the wave and envelope states
of `models` and the angle flow `forcing.ABCState` share: ``step(dt)``; the
flat real ``vector()`` and ``with_vector(vec)``; ``separation(other)`` (the
torus metric for angles) and ``toward(other, s)``, the state s of the way to
other; the Lyapunov ``shadow(d0, seed)``; ``advance(shadow, n, h)``, both
after n steps of h; ``frozen``, true for a flow that does not move; and
``coeffs()``, the (re, im) lists of an output record.

Driven states (those with a forcing clock) are strobed at the forcing period
(2*pi for the cos t drive); states with a ``section_angle`` (the autonomous
envelopes) are cut by that phase section, crossings located by bisection on
the step.  The Lyapunov estimate is the two-orbit method: renormalize the
shadow's separation to d0 after every window and average the log growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationalError, ValidationError

__all__ = ["LyapunovResult", "PoincareResult", "poincare_samples", "lyapunov_max"]

ESCAPE_NORM = 1e6
BISECT_TOL = 1e-10
MAX_SECTION_WAIT = 1000.0  # time units allowed between consecutive section hits


@dataclass(frozen=True)
class PoincareResult:
    """Successive map iterates (initial state excluded) and their times."""

    samples: tuple
    times: tuple
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
    steps = max(1, round(period / dt))
    h = period / steps
    samples, times = [], []
    st = state0
    for _ in range(n_iterates):
        try:
            for _ in range(steps):
                st = model_step(st, h)
        except ComputationalError:
            return PoincareResult(tuple(samples), tuple(times), escaped=True)
        if _escaped(st):
            return PoincareResult(tuple(samples), tuple(times), escaped=True)
        samples.append(st)
        times.append(st.t)
    return PoincareResult(tuple(samples), tuple(times))


def _section_samples(state0, n_iterates: int, dt: float) -> PoincareResult:
    samples, times = [], []
    st = state0
    s_prev = st.section_angle()
    waited = 0.0
    while len(samples) < n_iterates:
        try:
            nxt = model_step(st, dt)
        except ComputationalError:
            return PoincareResult(tuple(samples), tuple(times), escaped=True)
        if _escaped(nxt):
            return PoincareResult(tuple(samples), tuple(times), escaped=True)
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
            hit = model_step(st, hi)
            samples.append(hit)
            times.append(hit.t)
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
    return PoincareResult(tuple(samples), tuple(times))


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
    The shadow starts as ``state0.shadow(d0, seed)``; a driven pair shares
    the forcing clock.  An escaping or blowing-up pair truncates the series
    and sets the escaped flag, a separation that collapses to exactly zero
    raises, and a frozen flow returns exactly 0.
    """
    if t_end <= 0 or dt <= 0 or d0 <= 0:
        raise ValidationError("t_end, dt, and d0 must all be positive")
    if renorm_dt < dt:
        raise ValidationError("renorm_dt must be at least dt")
    steps = max(1, round(renorm_dt / dt))
    h = renorm_dt / steps
    n_windows = max(1, round(t_end / renorm_dt))
    if state0.frozen:
        return LyapunovResult(0.0, tuple((w * renorm_dt, 0.0) for w in range(1, n_windows + 1)))
    x, y = state0, state0.shadow(d0, seed)
    log_sum = 0.0
    series = []
    for w in range(1, n_windows + 1):
        try:
            x, y = x.advance(y, steps, h)
            escaped = _escaped(x) or _escaped(y)
        except ComputationalError:
            escaped = True
        if escaped:
            return LyapunovResult(lam=series[-1][1] if series else math.nan, series=tuple(series), escaped=True)
        d = x.separation(y)
        if d == 0.0:
            raise ComputationalError("shadow separation collapsed to zero; increase d0")
        log_sum += math.log(d / d0)
        t = w * renorm_dt
        series.append((t, log_sum / t))
        y = x.toward(y, d0 / d)
    return LyapunovResult(lam=series[-1][1], series=tuple(series))
