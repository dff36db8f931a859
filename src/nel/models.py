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
(params, dt), and a transform plan (grid size, extension slots and weights)
per params.  The envelope FFTs are normalised "forward" (inverse unscaled,
forward times 1/N), which gives the values of scaling the coefficients by N
for a backward inverse and dividing the forward by N: N is a power of two,
so each scaling is exact unless a value is subnormal or within a factor N of
overflow.  The wave grid 4*n_modes need not be one, so the wave transforms
keep the backward normalisation and divide by n after weighting.

Both state classes implement the flow protocol of `diagnostics` in one base
class: the gap is the difference of the flat coefficient vectors, the shadow
direction a seeded normal draw, and `advance` takes n steps of one orbit (the
two-orbit loop steps its reference orbit and its shadow apart, on two CPUs
where it can).

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
    "sg_uniform_state",
    "sg_state",
    "sg_step",
    "gl_uniform_state",
    "gl_limit_cycle",
    "gl_limit_cycle_state",
    "gl_step",
]


# ---------------------------------------------------------------------------
# the flow protocol, shared by both families


class _CoefficientState:
    """The protocol on top of `step`, `vector` and `with_vector`."""

    frozen = False  # both flows always move

    def gap(self, other) -> np.ndarray:
        return other.vector() - self.vector()

    def direction(self, seed: int) -> np.ndarray:
        """A seeded normal draw over the flat vector, zero on the slots the parity forbids."""
        n = self.vector().size
        return np.random.default_rng(seed).standard_normal(n) * self.with_vector(np.ones(n)).vector()

    def advance(self, n: int, h: float):
        st = self
        for _ in range(n):
            st = st.step(h)
        return st

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
    n_modes: int = 64
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
    return SGState(params=params, u=np.array(u, dtype=float), v=np.array(v, dtype=float), t=t)


def sg_uniform_state(params: SGParams, u0: float, v0: float = 0.0) -> SGState:
    """Spatially uniform initial data (even parity only)."""
    if params.parity != "even":
        raise ValidationError("a uniform state is even; odd parity cannot hold one")
    u, v = np.zeros((2, params.n_modes + 1))
    u[0], v[0] = u0, v0
    return SGState(params=params, u=u, v=v)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=8)
def _sg_plan(params: SGParams):
    """(n, lo, w_in, w_out): grid size n, the first slot the parity leaves free,
    and read-only weights of slots lo..n_modes: [n, n/2, ...] on the way in and
    [1, 2, ...] (then / n) on the way out, on the real part of the half
    spectrum for even parity, negated and on its imaginary part for odd."""
    m, n = params.n_modes, 4 * params.n_modes
    lo = 0 if params.parity == "even" else 1
    w_in, w_out = np.full(m + 1, (1 - 2 * lo) * 0.5 * n), np.full(m + 1, (1 - 2 * lo) * 2.0)
    w_in[0], w_out[0] = n, 1.0  # even parity only
    return (n, lo, *_read_only(w_in[lo:], w_out[lo:]))


def _sg_to_phys(plan, coeffs: np.ndarray):
    n, lo, w_in, _ = plan
    spec = np.zeros((*coeffs.shape[:-1], n // 2 + 1), dtype=complex)
    np.multiply(coeffs[..., lo:], w_in, out=(spec.imag if lo else spec.real)[..., lo : coeffs.shape[-1]])
    return np.fft.irfft(spec, n)


@functools.lru_cache(maxsize=8)  # the wave model is strobed, never bisected: few dt values per run
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


def _sg_nonlinear(params: SGParams, u_coeffs: np.ndarray, f: float, plan) -> np.ndarray:
    u = _sg_to_phys(plan, u_coeffs)
    g = np.sin(u)
    if params.eps:
        g = g + params.eps * (-params.a * u + f * g * g * g)
    # taking the real (even) or negated-imaginary (odd) part of the half
    # spectrum is the exact parity projection; slot 0 of odd parity stays zero
    n, lo, _, w_out = plan
    r = np.fft.rfft(g)
    out = np.zeros(u_coeffs.shape)
    np.multiply((r.imag if lo else r.real)[..., lo : out.shape[-1]], w_out, out=out[..., lo:])
    out[..., lo:] /= n
    return out


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
    plan = _sg_plan(p)
    u, v = state.u, state.v

    fs = state.forcing
    f1, fs = force_eval(fs, t, h)
    f2, fs = force_eval(fs, t + h, h)
    f4, fs = force_eval(fs, t + dt, h)

    with np.errstate(over="ignore", invalid="ignore"):  # blowup caught below
        n1 = _sg_nonlinear(p, u, f1, plan)
        n2 = _sg_nonlinear(p, a00 * u + a01 * (v + h * n1), f2, plan)
        n3 = _sg_nonlinear(p, a00 * u + a01 * v, f2, plan)
        bu = b00 * u + b01 * v
        n4 = _sg_nonlinear(p, bu + dt * a01 * n3, f4, plan)

        w = dt / 6.0
        n2 += n3
        u_new = bu + w * (b01 * n1 + 2.0 * a01 * n2)
        v_new = b10 * u + b00 * v + w * (b00 * n1 + 2.0 * a00 * n2 + n4)
    if not (np.isfinite(u_new).all() and np.isfinite(v_new).all()):
        raise ComputationalError(f"wave state blew up; last valid time t={state.t:.6g}, reduce dt")
    return SGState(params=p, u=u_new, v=v_new, t=t + dt, forcing=fs)


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


@functools.lru_cache(maxsize=8)
def _gl_plan(params: GLParams):
    """(n, m, rows, slots, src, w): grid size n, n_modes m and, read-only, the
    even extension onto `rows` physical rows.

    Slot slots[j] of the flattened (rows, n) spectrum takes w[j] * q[src[j]]:
    row 0 takes q_0 at 0 and q_k/2 at k and n-k, k = 1..m; row 1, there only
    when the |Dx q|^2 term is on, takes (i k/2) q_k at k and (-i k/2) q_k at
    n-k, k = 1..K."""
    m = params.n_modes
    n = 1 << (4 * m + 1).bit_length()  # the smallest power of two keeping cubic products below the fold
    k = np.arange(1, m + 1)
    slots, src, w = [[0], k, n - k], [[0], k, k], [[1.0], np.full(2 * m, 0.5)]
    rows = 2 if params.variant == "dernls" and params.eps != 0.0 else 1
    if rows == 2:
        kk = np.arange(1, params.K + 1)
        slots, src, w = slots + [n + kk, 2 * n - kk], src + [kk, kk], w + [0.5j * kk, -0.5j * kk]
    cat = np.concatenate
    return (n, m, rows, *_read_only(cat(slots), cat(src), cat(w).astype(complex)))


def _gl_to_phys(plan, q: np.ndarray) -> np.ndarray:
    """q, and on a plan of two rows also Dx q = -sum_{k=1..K} k q_k sin kx, on
    the physical grid as the rows of a (..., rows, n) array: one inverse FFT."""
    n, _, rows, slots, src, w = plan
    a = np.zeros((*q.shape[:-1], rows, n), dtype=complex)
    a.reshape(*q.shape[:-1], rows * n)[..., slots] = q[..., src] * w
    return np.fft.ifft(a, norm="forward")


@functools.lru_cache(maxsize=8)  # the section bisection steps at many dt values
def _gl_factors(params: GLParams, dt: float):
    """e^{lam dt/2} and e^{lam dt}, read-only; lam is the diagonal linear
    symbol per cosine mode (the i q_xx part, plus the viscous/damping part
    for pnls)."""
    k2 = np.arange(params.n_modes + 1, dtype=float) ** 2
    lam = 1j * k2 if params.variant == "dernls" else 1j * k2 - params.eps * k2 - params.eps * params.alpha
    return _read_only(np.exp(lam * (0.5 * dt)), np.exp(lam * dt))


def _gl_nonlinear(params: GLParams, q: np.ndarray, plan) -> np.ndarray:
    n, m, rows = plan[:3]
    phys = _gl_to_phys(plan, q)
    sq = phys.real * phys.real
    sq += phys.imag * phys.imag  # |q|^2 and |Dx q|^2 at once
    qp, aq2 = phys[..., 0, :], sq[..., 0, :]
    if params.variant == "dernls":
        g = aq2 * -2j
        g *= qp
        if rows == 2:
            g += params.eps * ((0.5625 - aq2) * qp + params.mu * sq[..., 1, :] * np.conj(qp))
    else:
        g = (aq2 - params.omega**2) * -2j
        g *= qp
        if params.eps:
            g += params.eps * params.beta
    a = np.fft.fft(g, norm="forward")
    out = a[..., : m + 1].copy()
    out[..., 1:] += a[..., n - 1 : n - m - 1 : -1]  # folding a[k] + a[-k] is the exact even projection
    return out


def gl_step(state: GLState, dt: float) -> GLState:
    """One integrating-factor RK4 step (autonomous flow)."""
    if dt <= 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    p = state.params
    e1, e2 = _gl_factors(p, dt)
    plan = _gl_plan(p)
    q = state.q
    h = 0.5 * dt

    with np.errstate(over="ignore", invalid="ignore"):  # blowup caught below
        n1 = _gl_nonlinear(p, q, plan)
        n2 = _gl_nonlinear(p, e1 * (q + h * n1), plan)
        n3 = _gl_nonlinear(p, e1 * q + h * n2, plan)
        n4 = _gl_nonlinear(p, e2 * q + dt * e1 * n3, plan)
        q_new = e2 * q + (dt / 6.0) * (e2 * n1 + 2.0 * e1 * (n2 + n3) + n4)
    if not np.isfinite(q_new).all():
        raise ComputationalError(f"envelope state blew up; last valid time t={state.t:.6g}, reduce dt")
    return GLState(params=p, q=q_new, t=state.t + dt)
