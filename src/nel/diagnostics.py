"""Section/strobe sampling and largest-Lyapunov-exponent estimates.

Works on the wave and envelope states from `models`.  Periodically driven
wave runs are strobed at the forcing period (2*pi for the cos t drive); the
autonomous envelopes use a phase section anchored to the spatial-mean mode,
arg(q_0) = -gamma mod 2*pi, with crossings located by bisection on the step.

The Lyapunov estimator is the standard two-orbit method: displace a shadow
trajectory by 1e-8 in a random direction of the flattened coefficient space
(not in slots the parity forbids), step the pair as one (2, n) batch state,
renormalize the separation on a fixed cadence, and average the log growth.
The three-angle clock flow has its own torus-aware estimator in `forcing`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationalError, ValidationError
from .forcing import LyapunovResult
from .models import GLState, SGState, model_step, stack_states, state_row, state_vector, with_state_vector

__all__ = ["PoincareResult", "poincare_samples", "lyapunov_max"]

ESCAPE_NORM = 1e6
BISECT_TOL = 1e-10
MAX_SECTION_WAIT = 1000.0  # time units allowed between consecutive section hits


@dataclass(frozen=True)
class PoincareResult:
    """Successive map iterates (initial state excluded) and their times."""

    samples: tuple
    times: tuple
    escaped: bool = False


def _section_angle(state: GLState) -> float:
    q0 = state.q[0]  # arg(q_0) + gamma, wrapped into [-pi, pi)
    return (math.atan2(q0.imag, q0.real) + state.params.gamma + math.pi) % (2.0 * math.pi) - math.pi


def _escaped(state) -> bool:
    v = state_vector(state)
    return bool(np.abs(v).max() > ESCAPE_NORM) or not np.all(np.isfinite(v))


def poincare_samples(state0, n_iterates: int, dt: float = 0.01, period: float | None = None) -> PoincareResult:
    """Sample the flow map: strobe each forcing period (wave model) or cut
    the mode-0 phase section (envelope models).

    A trajectory whose sup norm passes 1e6, or that stops being finite,
    truncates the sample list and sets the escaped flag.  An envelope orbit
    that goes MAX_SECTION_WAIT time units without crossing the section (a
    phase-locked state never returns to it) raises ComputationalError rather
    than integrating forever.
    """
    if n_iterates < 1:
        raise ValidationError(f"n_iterates must be >= 1, got {n_iterates}")
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if isinstance(state0, SGState):
        return _strobe_samples(state0, n_iterates, dt, period)
    if isinstance(state0, GLState):
        if period is not None:
            raise ValidationError("the envelope section map takes no period")
        return _section_samples(state0, n_iterates, dt)
    raise ValidationError(f"no section map for state of type {type(state0).__name__}")


def _strobe_samples(state0: SGState, n_iterates: int, dt: float, period: float | None) -> PoincareResult:
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


def _section_samples(state0: GLState, n_iterates: int, dt: float) -> PoincareResult:
    samples, times = [], []
    st = state0
    s_prev = _section_angle(st)
    waited = 0.0
    while len(samples) < n_iterates:
        try:
            nxt = model_step(st, dt)
        except ComputationalError:
            return PoincareResult(tuple(samples), tuple(times), escaped=True)
        if _escaped(nxt):
            return PoincareResult(tuple(samples), tuple(times), escaped=True)
        s_new = _section_angle(nxt)
        # downward pass through 0; the pi -> -pi seam is not the section
        if s_prev > 0.0 >= s_new and s_prev - s_new < math.pi:
            lo, hi = 0.0, dt
            while hi - lo > BISECT_TOL:
                mid = 0.5 * (lo + hi)
                if _section_angle(model_step(st, mid)) > 0.0:
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
    """Largest Lyapunov exponent of a model trajectory by shadow separation.

    The shadow starts displaced by d0 along a seeded random direction of the
    flat state vector and both orbits share the forcing clock.  Returns the
    final estimate and the running series (t, S(t)/t); an escaping or
    blowing-up pair truncates the series and sets the escaped flag.
    """
    if t_end <= 0 or dt <= 0 or d0 <= 0:
        raise ValidationError("t_end, dt, and d0 must all be positive")
    if renorm_dt < dt:
        raise ValidationError("renorm_dt must be at least dt")
    rng = np.random.default_rng(seed)
    v0 = state_vector(state0)
    direction = rng.standard_normal(v0.size)
    # zero the slots the parity forbids: the rebuilt ones are 1 where free
    direction *= state_vector(with_state_vector(state0, np.ones(v0.size)))
    direction /= np.linalg.norm(direction)
    x = state0
    y = with_state_vector(state0, v0 + d0 * direction)

    steps_per = max(1, round(renorm_dt / dt))
    n_windows = max(1, round(t_end / (steps_per * dt)))
    log_sum = 0.0
    series = []
    for w in range(1, n_windows + 1):
        pair = stack_states(x, y)
        try:
            for _ in range(steps_per):
                pair = model_step(pair, dt)
            escaped = _escaped(pair)
        except ComputationalError:
            escaped = True
        if escaped:
            return LyapunovResult(lam=series[-1][1] if series else math.nan, series=tuple(series), escaped=True)
        vx, vy = state_vector(pair)
        d = float(np.linalg.norm(vy - vx))
        if d == 0.0:
            raise ComputationalError("shadow separation collapsed to zero; increase d0")
        log_sum += math.log(d / d0)
        t = w * steps_per * dt
        series.append((t, log_sum / t))
        x = state_row(pair, 0)
        y = with_state_vector(x, vx + (d0 / d) * (vy - vx))
    return LyapunovResult(lam=series[-1][1], series=tuple(series))
