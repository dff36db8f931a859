"""Parity-restricted pseudo-spectral steppers for the wave and envelope models.

Two families on x in [0, 2*pi]:

* a driven sine-Gordon wave  u_tt = c^2 u_xx + sin u + eps*(-a*u + f(t)*sin^3 u)
  under an even (cosine series) or odd (sine series) constraint, and
* complex envelope equations for q(t, x) under the even constraint: a
  derivative-regularized NLS perturbation
      i q_t = q_xx + 2|q|^2 q + i*eps*[(9/16 - |q|^2) q + mu*|Dx q|^2 conj(q)]
  with Dx the truncated first-derivative multiplier over modes 1..K, and a
  dissipatively perturbed NLS
      i q_t = q_xx + 2(|q|^2 - omega^2) q + i*eps*[q_xx - alpha*q + beta].

States store only the parity coefficients (cosine or sine amplitudes), so
opposite-parity content is zero by construction rather than by projection.
Time stepping is an integrating-factor RK4: the linear symbol is applied
exactly in coefficient space (a 2x2 wave rotation per mode for sine-Gordon,
a complex exponential per mode for the envelopes) and nonlinearities are
evaluated on a physical grid of ~4x the retained modes, which keeps cubic
products alias-free.  Coefficient arrays may carry leading batch axes (one
orbit per row, on one clock; transforms run along the last axis).  The
factors e^{lam h} and the wave propagators are cached, read-only, per
(params, dt).

Both state classes implement the flow protocol of `diagnostics` in one base
class: Euclidean separations of the flat coefficient vector, a shadow along a
seeded random direction, and `advance` stepping the orbit and its shadow as
one (2, n) batch state.

The chaos windows quoted for these models (the (eps, a) rectangle for the
wave equation, |mu| > 5.8 for the derivative envelope, the alpha = 1/kappa
surface for the dissipative one) are not baked in as defaults; parameters
come from configuration and the defaults below are merely representative.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationalError, ValidationError
from .forcing import ForcingSpec, force_eval

__all__ = [
    "SGParams",
    "SGState",
    "GLParams",
    "GLState",
    "sg_zero_state",
    "sg_uniform_state",
    "sg_state",
    "sg_step",
    "sg_energy",
    "gl_uniform_state",
    "gl_limit_cycle",
    "gl_limit_cycle_state",
    "gl_state",
    "gl_step",
    "gl_mass",
]


# ---------------------------------------------------------------------------
# the flow protocol, shared by both families


class _CoefficientState:
    """The protocol on top of `step`, `vector` and `with_vector`."""

    frozen = False  # both flows always move

    def separation(self, other) -> float:
        return float(np.linalg.norm(other.vector() - self.vector()))

    def toward(self, other, s: float):
        v = self.vector()
        return self.with_vector(v + s * (other.vector() - v))

    def shadow(self, d0: float, seed: int):
        """Displaced by d0 along a seeded random direction of the flat vector,
        zero on the slots the parity forbids."""
        v = self.vector()
        direction = np.random.default_rng(seed).standard_normal(v.size)
        direction *= self.with_vector(np.ones(v.size)).vector()  # rebuilt ones are 1 where free
        direction /= np.linalg.norm(direction)
        return self.with_vector(v + d0 * direction)

    def advance(self, shadow, n: int, h: float):
        pair = self.with_vector(np.stack([self.vector(), shadow.vector()]))
        for _ in range(n):
            pair = pair.step(h)
        return tuple(pair.with_vector(v) for v in pair.vector())

    def coeffs(self):
        v = self.vector()
        return v[: v.size // 2].tolist(), v[v.size // 2 :].tolist()


# ---------------------------------------------------------------------------
# driven sine-Gordon under a parity constraint


@dataclass(frozen=True)
class SGParams:
    """Wave-model parameters; the evolving data lives in `SGState`."""

    c: float = 0.9
    a: float = 1.0
    eps: float = 0.0
    parity: str = "even"
    n_modes: int = 128
    forcing: ForcingSpec = field(default_factory=ForcingSpec)

    def __post_init__(self):
        if not 0.5 < self.c < 1.0:
            raise ValidationError(f"wave speed c must lie in (1/2, 1), got {self.c}")
        if self.a <= 0:
            raise ValidationError(f"parameter a must be positive, got {self.a}")
        if self.eps < 0:
            raise ValidationError(f"eps must be >= 0, got {self.eps}")
        if self.parity not in ("even", "odd"):
            raise ValidationError(f"parity must be 'even' or 'odd', got {self.parity!r}")
        if self.n_modes < 4:
            raise ValidationError("need at least 4 modes")


@dataclass(frozen=True)
class SGState(_CoefficientState):
    """(u, u_t) as parity coefficient vectors of length n_modes+1.

    Slot k holds the amplitude of cos(kx) (even) or sin(kx) (odd); for odd
    parity slot 0 is structurally zero.  `forcing` is the forcing clock
    advanced alongside t.  u and v may carry leading batch axes, one orbit
    per row, all on this clock.
    """

    params: SGParams
    u: np.ndarray = field(repr=False, default=None)
    v: np.ndarray = field(repr=False, default=None)
    t: float = 0.0
    forcing: ForcingSpec = None

    def __post_init__(self):
        n = self.params.n_modes + 1
        for name, arr in (("u", self.u), ("v", self.v)):
            ok = isinstance(arr, np.ndarray) and arr.shape[-1:] == (n,) and np.isrealobj(arr)
            if not ok or arr.shape != self.u.shape:
                raise ValidationError(f"{name} must be a real array of trailing length {n}, shaped as u")
        if self.params.parity == "odd" and (np.any(self.u[..., 0] != 0.0) or np.any(self.v[..., 0] != 0.0)):
            raise ValidationError("odd parity has no uniform mode; slot 0 must be 0")
        if self.forcing is None:
            object.__setattr__(self, "forcing", self.params.forcing)

    def step(self, dt: float) -> SGState:
        return sg_step(self, dt)

    def vector(self) -> np.ndarray:
        return np.concatenate([self.u, self.v], axis=-1)

    def with_vector(self, vec: np.ndarray) -> SGState:
        """Same kind and clock, from a flat vector (per row); slots the
        parity forbids are set to zero."""
        n = self.params.n_modes + 1
        u, v = vec[..., :n].copy(), vec[..., n:].copy()
        if self.params.parity == "odd":
            u[..., 0] = v[..., 0] = 0.0
        return dataclasses.replace(self, u=u, v=v)


def sg_state(params: SGParams, u, v, t: float = 0.0) -> SGState:
    u = np.asarray(u, dtype=float).copy()
    v = np.asarray(v, dtype=float).copy()
    return SGState(params=params, u=u, v=v, t=t)


def sg_zero_state(params: SGParams) -> SGState:
    n = params.n_modes + 1
    return SGState(params=params, u=np.zeros(n), v=np.zeros(n))


def sg_uniform_state(params: SGParams, u0: float, v0: float = 0.0) -> SGState:
    """Spatially uniform initial data (even parity only)."""
    if params.parity != "even":
        raise ValidationError("a uniform state is even; odd parity cannot hold one")
    u, v = np.zeros((2, params.n_modes + 1))
    u[0], v[0] = u0, v0
    return SGState(params=params, u=u, v=v)


def _sg_to_phys(params: SGParams, coeffs: np.ndarray, deriv: bool = False):
    m = params.n_modes
    n = 4 * m
    spec = np.zeros((*coeffs.shape[:-1], n // 2 + 1), dtype=complex)
    if params.parity == "even":
        spec[..., 0] = n * coeffs[..., 0]
        spec[..., 1 : m + 1] = 0.5 * n * coeffs[..., 1:]
    else:
        spec[..., 1 : m + 1] = -0.5j * n * coeffs[..., 1:]
    u = np.fft.irfft(spec, n)
    if not deriv:
        return u
    dspec = spec * (1j * np.arange(n // 2 + 1))
    return u, np.fft.irfft(dspec, n)


def _sg_from_phys(params: SGParams, g: np.ndarray) -> np.ndarray:
    # taking the real (even) or negated-imaginary (odd) part of the half
    # spectrum is the exact parity projection; slot 0 of an odd state stays
    # bitwise zero because mode 0 of an rfft of real data is purely real
    m = params.n_modes
    n = 4 * m
    r = np.fft.rfft(g)
    out = np.zeros((*g.shape[:-1], m + 1))
    if params.parity == "even":
        out[..., 0] = r[..., 0].real / n
        out[..., 1:] = 2.0 * r[..., 1 : m + 1].real / n
    else:
        out[..., 1:] = -2.0 * r[..., 1 : m + 1].imag / n
    return out


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)  # the section bisection steps at many dt values
def _sg_factors(params: SGParams, dt: float):
    """E(dt/2) and E(dt), read-only: per-mode matrix exponentials of
    (u, v)' = (v, -c^2 k^2 u), each as (P00, P01, P10) with P11 = P00.  Mode 0
    degenerates to the shear [[1, tau], [0, 1]]."""
    w = params.c * np.arange(params.n_modes + 1, dtype=float)
    factors = []
    for tau in (0.5 * dt, dt):
        wt = w * tau
        p01 = np.empty_like(w)
        p01[0] = tau
        p01[1:] = np.sin(wt[1:]) / w[1:]
        factors += [np.cos(wt), p01, -w * np.sin(wt)]
    return _read_only(*factors)


def _sg_nonlinear(params: SGParams, u_coeffs: np.ndarray, f: float) -> np.ndarray:
    u = _sg_to_phys(params, u_coeffs)
    g = np.sin(u)
    if params.eps:
        g = g + params.eps * (-params.a * u + f * g * g * g)
    return _sg_from_phys(params, g)


def sg_step(state: SGState, dt: float) -> SGState:
    """One integrating-factor RK4 step; the forcing clock rides along.

    With E(tau) the exact wave propagator, h = dt/2, and n(.) the nonlinear
    acceleration, the classical RK4 applied in the moving frame reads

        n1 = n(u)
        n2 = n([E(h)(y + h k1)]_u),   k1 = (0, n1)
        n3 = n([E(h)y]_u)             (+ h k2, whose u-slot is zero)
        n4 = n([E(dt)y + dt E(h)k3]_u)
        y+ = E(dt)y + dt/6 (E(dt)k1 + 2E(h)(k2 + k3) + k4).
    """
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    p = state.params
    t = state.t
    h = 0.5 * dt
    a00, a01, a10, b00, b01, b10 = _sg_factors(p, dt)  # E(h), E(dt)
    u, v = state.u, state.v

    fs = state.forcing
    f1, fs = force_eval(fs, t, h)
    f2, fs = force_eval(fs, t + h, h)
    f4, fs = force_eval(fs, t + dt, h)

    with np.errstate(over="ignore", invalid="ignore"):  # blowup caught below
        n1 = _sg_nonlinear(p, u, f1)
        n2 = _sg_nonlinear(p, a00 * u + a01 * (v + h * n1), f2)
        eu = a00 * u + a01 * v
        n3 = _sg_nonlinear(p, eu, f2)
        bu = b00 * u + b01 * v
        n4 = _sg_nonlinear(p, bu + dt * a01 * n3, f4)

        w = dt / 6.0
        u_new = bu + w * (b01 * n1 + 2.0 * a01 * (n2 + n3))
        v_new = b10 * u + b00 * v + w * (b00 * n1 + 2.0 * a00 * (n2 + n3) + n4)
    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        raise ComputationalError(
            f"wave state blew up; last valid time t={state.t:.6g}, reduce dt"
        )
    return SGState(params=p, u=u_new, v=v_new, t=t + dt, forcing=fs)


def sg_energy(state: SGState) -> float:
    """Grid quadrature of int [v^2/2 + c^2 u_x^2/2 + cos u] dx.

    Conserved by the flow when eps = 0.
    """
    p = state.params
    u, ux = _sg_to_phys(p, state.u, deriv=True)
    v = _sg_to_phys(p, state.v)
    dens = 0.5 * v * v + 0.5 * p.c * p.c * ux * ux + np.cos(u)
    return float(dens.mean() * 2.0 * np.pi)


# ---------------------------------------------------------------------------
# complex envelope models under the even constraint


@dataclass(frozen=True)
class GLParams:
    """Envelope-model parameters.

    variant 'dernls' uses (eps, mu, K, gamma); variant 'pnls' uses
    (eps, omega, alpha, beta).  gamma only positions the reference orbit's
    phase.  beta > alpha*omega is where the interesting saddle regime lives,
    but only positivity is enforced.
    """

    variant: str = "dernls"
    eps: float = 0.0
    mu: float = 6.0
    K: int = 32
    gamma: float = 0.0
    omega: float = 0.8
    alpha: float = 1.0
    beta: float = 1.0
    n_modes: int = 64

    def __post_init__(self):
        if self.variant not in ("dernls", "pnls"):
            raise ValidationError(f"variant must be 'dernls' or 'pnls', got {self.variant!r}")
        if self.eps < 0:
            raise ValidationError(f"eps must be >= 0, got {self.eps}")
        if self.n_modes < 4:
            raise ValidationError("need at least 4 modes")
        if self.variant == "dernls":
            if not 1 <= self.K <= self.n_modes:
                raise ValidationError(f"multiplier cutoff K must lie in [1, n_modes], got {self.K}")
        else:
            if not 0.5 < self.omega < 1.0:
                raise ValidationError(f"omega must lie in (1/2, 1), got {self.omega}")
            if self.alpha <= 0 or self.beta <= 0:
                raise ValidationError("alpha and beta must be positive")


@dataclass(frozen=True)
class GLState(_CoefficientState):
    """Complex cosine coefficients q_k, k = 0..n_modes, at time t; q may
    carry leading batch axes, one orbit per row."""

    params: GLParams
    q: np.ndarray = field(repr=False, default=None)
    t: float = 0.0

    def __post_init__(self):
        n = self.params.n_modes + 1
        if not isinstance(self.q, np.ndarray) or self.q.shape[-1:] != (n,) or not np.iscomplexobj(self.q):
            raise ValidationError(f"q must be a complex array of trailing length {n}")

    def step(self, dt: float) -> GLState:
        return gl_step(self, dt)

    def vector(self) -> np.ndarray:
        return np.concatenate([self.q.real, self.q.imag], axis=-1)

    def with_vector(self, vec: np.ndarray) -> GLState:
        n = self.params.n_modes + 1
        q = np.empty((*vec.shape[:-1], n), dtype=complex)
        q.real, q.imag = vec[..., :n], vec[..., n:]  # exact: keeps -0.0 and infinities
        return dataclasses.replace(self, q=q)

    def section_angle(self) -> float:
        """arg(q_0) + gamma, wrapped into [-pi, pi); the section is its zero."""
        q0 = self.q[0]
        return (math.atan2(q0.imag, q0.real) + self.params.gamma + math.pi) % (2.0 * math.pi) - math.pi


def gl_state(params: GLParams, q, t: float = 0.0) -> GLState:
    return GLState(params=params, q=np.asarray(q, dtype=complex).copy(), t=t)


def gl_uniform_state(params: GLParams, q0: complex) -> GLState:
    q = np.zeros(params.n_modes + 1, dtype=complex)
    q[0] = q0
    return GLState(params=params, q=q)


def gl_limit_cycle(params: GLParams, t: float) -> complex:
    """The x-independent reference orbit (3/4) e^{-i(9t/8 + gamma)}.

    Exact for the dernls flow at every eps and mu: |q|^2 = 9/16 kills the
    eps-term and the truncated derivative of a constant vanishes.
    """
    return 0.75 * np.exp(-1j * (1.125 * t + params.gamma))


def gl_limit_cycle_state(params: GLParams, t: float = 0.0) -> GLState:
    st = gl_uniform_state(params, gl_limit_cycle(params, t))
    return dataclasses.replace(st, t=t)


def _gl_grid_size(n_modes: int) -> int:
    # smallest power of two with all cubic products of modes <= n_modes
    # landing below the fold line
    return 1 << (4 * n_modes + 1).bit_length()


def _gl_to_phys(params: GLParams, q: np.ndarray, dx=None) -> np.ndarray:
    """q, and given the Dx multipliers dx also Dx q = -sum_{k=1..K} k q_k sin kx,
    on the physical grid as rows of a (..., 1 or 2, N) array: one inverse FFT."""
    m = params.n_modes
    n = _gl_grid_size(m)
    a = np.zeros((*q.shape[:-1], 1 if dx is None else 2, n), dtype=complex)
    a[..., 0, 0] = n * q[..., 0]
    a[..., 0, 1 : m + 1] = 0.5 * n * q[..., 1:]
    a[..., 0, n - m :] = 0.5 * n * q[..., :0:-1]
    if dx is not None:
        kk = params.K
        a[..., 1, 1 : kk + 1] = dx[0] * q[..., 1 : kk + 1] * n
        a[..., 1, n - kk :] = (dx[1] * q[..., 1 : kk + 1] * n)[..., ::-1]
    return np.fft.ifft(a)


def _gl_from_phys(params: GLParams, g: np.ndarray) -> np.ndarray:
    # folding a[k] + a[-k] is the exact even projection
    m = params.n_modes
    n = _gl_grid_size(m)
    a = np.fft.fft(g) / n
    out = np.empty((*g.shape[:-1], m + 1), dtype=complex)
    out[..., 0] = a[..., 0]
    out[..., 1:] = a[..., 1 : m + 1] + a[..., n - 1 : n - m - 1 : -1]
    return out


@functools.lru_cache(maxsize=8)  # the section bisection steps at many dt values
def _gl_factors(params: GLParams, dt: float):
    """e^{lam dt/2}, e^{lam dt} and the Dx multipliers (i k/2, -i k/2), k = 1..K,
    read-only; lam is the diagonal linear symbol per cosine mode (the i q_xx
    part, plus the viscous/damping part for pnls)."""
    k2 = np.arange(params.n_modes + 1, dtype=float) ** 2
    lam = 1j * k2 if params.variant == "dernls" else 1j * k2 - params.eps * k2 - params.eps * params.alpha
    k = np.arange(1, params.K + 1)
    return _read_only(np.exp(lam * (0.5 * dt)), np.exp(lam * dt), 0.5j * k, -0.5j * k)


def _gl_nonlinear(params: GLParams, q: np.ndarray, dx) -> np.ndarray:
    deriv = params.variant == "dernls" and params.eps != 0.0
    phys = _gl_to_phys(params, q, dx if deriv else None)
    qp = phys[..., 0, :]
    aq2 = qp.real * qp.real + qp.imag * qp.imag
    if params.variant == "dernls":
        g = -2j * aq2 * qp
        if deriv:
            dq = phys[..., 1, :]
            ad2 = dq.real * dq.real + dq.imag * dq.imag
            g = g + params.eps * ((0.5625 - aq2) * qp + params.mu * ad2 * np.conj(qp))
    else:
        g = -2j * (aq2 - params.omega**2) * qp
        if params.eps:
            g = g + params.eps * params.beta
    return _gl_from_phys(params, g)


def gl_step(state: GLState, dt: float) -> GLState:
    """One integrating-factor RK4 step (autonomous flow)."""
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    p = state.params
    e1, e2, *dx = _gl_factors(p, dt)
    q = state.q
    h = 0.5 * dt

    with np.errstate(over="ignore", invalid="ignore"):  # blowup caught below
        n1 = _gl_nonlinear(p, q, dx)
        n2 = _gl_nonlinear(p, e1 * (q + h * n1), dx)
        n3 = _gl_nonlinear(p, e1 * q + h * n2, dx)
        n4 = _gl_nonlinear(p, e2 * q + dt * e1 * n3, dx)
        q_new = e2 * q + (dt / 6.0) * (e2 * n1 + 2.0 * e1 * (n2 + n3) + n4)
    if not np.all(np.isfinite(q_new)):
        raise ComputationalError(
            f"envelope state blew up; last valid time t={state.t:.6g}, reduce dt"
        )
    return GLState(params=p, q=q_new, t=state.t + dt)


def gl_mass(state: GLState) -> float:
    """Grid quadrature of int |q|^2 dx (conserved by the eps = 0 flow)."""
    qp = _gl_to_phys(state.params, state.q)[..., 0, :]
    return float((qp.real**2 + qp.imag**2).mean() * 2.0 * np.pi)
