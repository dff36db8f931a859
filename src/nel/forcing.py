"""Scalar forcing signals for the wave models.

Two modes: the plain `cos_t` drive f = cos t, and a quasiperiodic sum

    f(t) = alpha0 + sum_n beta_n cos(theta_n),
    theta_n = omega_n t + phase_n + eps^mu * angle_n   (n = 1..3),
    theta_4 = omega_4 t + phase_4,

where the three slow angles are driven by the ABC flow

    d(angle_1)/dt = A sin(angle_3) + C cos(angle_2)
    d(angle_2)/dt = B sin(angle_1) + A cos(angle_3)
    d(angle_3)/dt = C sin(angle_2) + B cos(angle_1)

so the forcing carries a chaotic clock when (A, B, C) is in the chaotic
regime.  Everything here is plain-float arithmetic: the ABC integration is
the hot loop of the Lyapunov runs.

`ABCState` is the angle flow as a state of the flow protocol of
`diagnostics`: separations use the torus metric, so angle reduction never
produces spurious jumps, and `advance` takes each orbit through a whole
window in one `_advance` call, reducing the angles mod 2*pi once at its end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import LyapunovResult, lyapunov_max
from .errors import ValidationError

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# ABC flow


@dataclass(frozen=True)
class ABCState:
    theta: tuple[float, float, float]
    abc: tuple[float, float, float]  # (A, B, C)

    @property
    def frozen(self) -> bool:
        return self.abc == (0.0, 0.0, 0.0)

    def step(self, dt: float) -> ABCState:
        """One classical RK4 step; angles are reduced mod 2*pi."""
        return ABCState(_advance(self.theta, self.abc, dt, dt), self.abc)

    def vector(self) -> np.ndarray:
        return np.array(self.theta)

    def with_vector(self, vec) -> ABCState:
        return ABCState(tuple(float(v) for v in vec), self.abc)

    def _gap(self, other):
        """other - self per angle, wrapped into [-pi, pi)."""
        return tuple((b - a + math.pi) % TWO_PI - math.pi for a, b in zip(self.theta, other.theta))

    def separation(self, other) -> float:
        return math.sqrt(sum(v * v for v in self._gap(other)))

    def toward(self, other, s: float) -> ABCState:
        return ABCState(tuple(a + v * s for a, v in zip(self.theta, self._gap(other))), self.abc)

    def shadow(self, d0: float, seed: int) -> ABCState:
        """Angle 1 shifted by d0; the seed is not used."""
        return ABCState((self.theta[0] + d0, *self.theta[1:]), self.abc)

    def advance(self, shadow, n: int, h: float):
        """Both orbits after n RK4 steps of h, one `_advance` call each."""
        return tuple(ABCState(_advance(s.theta, s.abc, n * h, h), s.abc) for s in (self, shadow))

    def coeffs(self):
        return list(self.theta), []


def _advance(theta, abc, delta, dt_sub):
    """RK4-substep theta forward by delta (without the dataclass overhead)."""
    n = max(1, int(math.ceil(delta / dt_sub - 1e-12)))
    h = delta / n
    hh, h6 = 0.5 * h, h / 6.0  # 0.5 * h * k evaluates as (0.5 * h) * k
    t1, t2, t3 = theta
    sin, cos = math.sin, math.cos
    a, b, c = abc
    for _ in range(n):
        k11 = a * sin(t3) + c * cos(t2)
        k12 = b * sin(t1) + a * cos(t3)
        k13 = c * sin(t2) + b * cos(t1)
        u1, u2, u3 = t1 + hh * k11, t2 + hh * k12, t3 + hh * k13
        k21 = a * sin(u3) + c * cos(u2)
        k22 = b * sin(u1) + a * cos(u3)
        k23 = c * sin(u2) + b * cos(u1)
        u1, u2, u3 = t1 + hh * k21, t2 + hh * k22, t3 + hh * k23
        k31 = a * sin(u3) + c * cos(u2)
        k32 = b * sin(u1) + a * cos(u3)
        k33 = c * sin(u2) + b * cos(u1)
        u1, u2, u3 = t1 + h * k31, t2 + h * k32, t3 + h * k33
        k41 = a * sin(u3) + c * cos(u2)
        k42 = b * sin(u1) + a * cos(u3)
        k43 = c * sin(u2) + b * cos(u1)
        t1 += h6 * (k11 + 2 * k21 + 2 * k31 + k41)
        t2 += h6 * (k12 + 2 * k22 + 2 * k32 + k42)
        t3 += h6 * (k13 + 2 * k23 + 2 * k33 + k43)
    return (t1 % TWO_PI, t2 % TWO_PI, t3 % TWO_PI)


def abc_lyapunov(
    abc: tuple[float, float, float],
    t_end: float,
    renorm_dt: float = 0.5,
    dt: float = 0.02,
    d0: float = 1e-8,
    theta0: tuple[float, float, float] = (4.0, 1.0, 5.5),
) -> LyapunovResult:
    """Largest Lyapunov exponent of the ABC flow: `diagnostics.lyapunov_max`
    on an `ABCState`.  The frozen flow A=B=C=0 returns exactly 0.

    The default start sits in the chaotic web of the 1:1:1 flow.  Beware the
    diagonal t1=t2=t3: it is invariant and falls into the saddle at 3*pi/4,
    where the two-orbit estimate returns the saddle eigenvalue sqrt(2)/2
    instead of a streamline exponent.
    """
    return lyapunov_max(ABCState(tuple(theta0), tuple(abc)), t_end, dt=dt, renorm_dt=renorm_dt, d0=d0)


# ---------------------------------------------------------------------------
# forcing specification


@dataclass(frozen=True)
class ForcingSpec:
    """Forcing config plus the live ABC substate.

    force_eval threads the advanced spec back to the caller, so a stepper
    that owns a ForcingSpec stays fully deterministic and replayable.  eps
    must equal the model's perturbation parameter (it sets the eps^mu phase
    coupling); mu > 1 keeps the coupling sub-linear.
    """

    mode: str = "cos_t"
    alpha0: float = 0.0
    betas: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    omegas: tuple[float, float, float, float] = (
        1.0,
        math.sqrt(2.0),
        math.sqrt(3.0),
        math.sqrt(5.0),
    )
    phases: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    mu: float = 2.0
    eps: float = 0.0
    abc: tuple[float, float, float] = (1.0, 1.0, 1.0)
    abc_state: tuple[float, float, float] = (0.0, 0.0, 0.0)
    abc_t: float = 0.0

    def __post_init__(self):
        if self.mode not in ("cos_t", "quasiperiodic"):
            raise ValidationError(f"unknown forcing mode {self.mode!r}")
        if self.mu <= 1.0:
            raise ValidationError("mu must exceed 1")
        if self.eps < 0:
            raise ValidationError("eps must be nonnegative")
        for name in ("betas", "omegas", "phases"):
            if len(getattr(self, name)) != 4:
                raise ValidationError(f"{name} must have exactly 4 entries")


def force_eval(spec: ForcingSpec, t: float, dt_sub: float):
    """Evaluate f(t); returns (value, advanced spec).

    Time must be nondecreasing across calls on the same threaded spec (RK4
    stage times satisfy this).  The ABC angles advance with substeps of at
    most dt_sub.
    """
    if spec.mode == "cos_t":
        return math.cos(t), spec
    delta = t - spec.abc_t
    if delta < -1e-9:
        raise ValidationError(
            f"forcing clock runs backwards: t={t} < abc_t={spec.abc_t}"
        )
    th = spec.abc_state
    if delta > 1e-15:
        if dt_sub <= 0:
            raise ValidationError("dt_sub must be positive")
        th = _advance(th, spec.abc, delta, dt_sub)
        spec = replace(spec, abc_state=th, abc_t=t)
    coupling = spec.eps**spec.mu
    f = spec.alpha0
    for n in range(4):
        theta_n = spec.omegas[n] * t + spec.phases[n]
        if n < 3:
            theta_n += coupling * th[n]
        f += spec.betas[n] * math.cos(theta_n)
    return f, spec
