"""Transport compatibility structure of the inviscid vorticity equations and
the associated gauge transform.

2D: a scalar eigenfield phi of L(phi) = {Omega, phi} = lam phi is transported
by A(phi) = {Psi, phi}: if Omega solves the Euler equation and both phi and
q = {Omega, phi} are advected passively, then q(t) = {Omega(t), phi(t)} stays
true (Jacobi identity).  3D: the same holds for L(phi) = (Omega . grad) phi
and A(phi) = (u . grad) phi, u the Biot-Savart velocity of Omega or a given
u(t) -- remarkably with no constraint tying u to Omega (neither div u = 0 nor
Omega = curl u is needed for the compatibility).
Both checks march (Omega, phi, q) as one stacked ``SpectralField`` of real
rows -- the rows of Omega, then phi, then q -- so each RK4 stage transports
the whole stack with one bracket by Psi (2D) or one advection by u (3D).  A
complex phi (and so q) is carried as its (re, im) rows: in 3D the stack is
(Omega_1..3, Re phi, Im phi, Re q, Im q).  The residual is measured on |q|.

The gauge transform acts on eigenfields of the 2D system at lam = 0:

    p~ = (p_x - (d_x log f) p) / Omega_x,
    Psi~ = Psi + F,   Omega~ = Omega + Lap F,

valid when {Omega, Lap F} = 0 and {Lap F, F} = 0; the new pair solves the
same eigen-system.  Points where |Omega_x| falls below a relative threshold
are masked and excluded from residual norms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationalError, ValidationError, step_count
from .fields import (
    SpectralField,
    bracket_core,
    complex_norm_inf,
    gradient_values,
    invert_laplacian,
    laplacian,
    require_mean_zero,
)
from .fields3d import advect_3d, biot_savart_3d, divergence_3d
from .grids import TorusGrid

CONSTRAINT_TOL = 1e-8


# ---------------------------------------------------------------------------
# compatibility checks


@dataclass(frozen=True)
class LaxCheckResult:
    check: str
    residual_inf: float
    residual_l2: float
    grid: tuple[int, ...]
    dt: float
    masked_fraction: float | None = None

    def to_json_dict(self, params: dict) -> dict:
        return {
            "check": self.check,
            "params": params,
            "residual_inf": self.residual_inf,
            "residual_l2": self.residual_l2,
            "masked_fraction": self.masked_fraction,
            "grid": list(self.grid),
            "dt": self.dt,
        }


def _rk4(y: SpectralField, t, dt, rhs) -> SpectralField:
    k1 = rhs(y, t)
    k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(y + dt * k3, t + dt)
    return y + dt / 6 * k1 + dt / 3 * k2 + dt / 3 * k3 + dt / 6 * k4


def _rows(f: SpectralField) -> np.ndarray:
    return f.coeffs.reshape(-1, *f.grid.spectral_shape)


def _transport_check(check, omega0, phi0, t_end, dt, rhs, L) -> LaxCheckResult:
    """March the stack y = (Omega rows, phi rows, q rows), q(0) = L(Omega0,
    phi0), by RK4 of ``rhs(y, t)`` and measure L(Omega(T), phi(T)) - q(T);
    phi is a real scalar or a complex one as (re, im) rows."""
    if dt <= 0 or t_end <= 0:
        raise ValidationError("t_end and dt must be positive")
    steps = step_count(t_end, dt, "t_end")
    if steps < 1:
        raise ValidationError("t_end must cover at least one step")
    grid = omega0.grid
    q0 = L(omega0, phi0)
    n_om = len(_rows(omega0))
    y = SpectralField(grid, np.concatenate([_rows(omega0), _rows(phi0), _rows(q0)]))
    t = 0.0
    for _ in range(steps):
        y = _rk4(y, t, dt, rhs)
        t += dt
        if not np.isfinite(y.coeffs).all():
            raise ComputationalError(f"{check} blew up at t={t:.4g}; reduce dt")
    om = SpectralField(grid, y.coeffs[:n_om].reshape(omega0.coeffs.shape))
    phi, q = (SpectralField(grid, c.reshape(phi0.coeffs.shape)) for c in np.split(y.coeffs[n_om:], 2))
    resid = L(om, phi) - q
    return LaxCheckResult(
        check=check,
        residual_inf=complex_norm_inf(resid),
        residual_l2=resid.norm_l2(),
        grid=grid.shape,
        dt=dt,
    )


def transported_eigenfield_check_2d(
    omega0: SpectralField,
    phi0: SpectralField,
    t_end: float,
    dt: float,
    negative_control: bool = False,
) -> LaxCheckResult:
    """Co-evolve (Omega, phi, q) and measure |{Omega(T), phi(T)} - q(T)|.

    Omega follows inviscid vorticity transport, phi and q are passively
    advected, q(0) = {Omega(0), phi(0)}; the final mismatch vanishes in exact
    arithmetic.  phi is real, or complex as (re, im) rows.  The negative
    control flips the sign of the vorticity's own advection, which destroys
    the compatibility.
    """
    if omega0.coeffs.ndim != 2:
        raise ValidationError("omega0 must be one real scalar field")
    require_mean_zero(omega0, "omega0")
    signs = np.full((1 + 2 * len(_rows(phi0)), 1, 1), -1.0)
    signs[0] = 1.0 if negative_control else -1.0

    def rhs(y, t):  # one bracket by Psi of the whole stack
        return bracket_core(invert_laplacian(SpectralField(y.grid, y.coeffs[0])), y) * signs

    check = "transport-compatibility-2d" + ("-control" if negative_control else "")
    return _transport_check(check, omega0, phi0, t_end, dt, rhs, bracket_core)


def transported_eigenfield_check_3d(
    omega0: SpectralField,
    phi0: SpectralField,
    t_end: float,
    dt: float,
    velocity=None,
    negative_control: bool = False,
) -> LaxCheckResult:
    """Co-evolve (Omega, phi, q) in 3D; q(0) = (Omega . grad) phi, with phi
    real or complex as (re, im) rows.

    With velocity None, Omega is transported by its own Biot-Savart velocity
    (the self-consistent flow; omega0 must be divergence-free).  Otherwise
    velocity is a callable t -> SpectralField and Omega evolves by
    transport-stretching under that prescribed field: the compatibility holds
    with no constraint tying u to Omega.  The negative control flips the sign
    of the stretching term.
    """
    require_mean_zero(omega0, "omega0")
    if velocity is None:
        div = divergence_3d(omega0).norm_inf()
        if div > 1e-10:
            raise ValidationError(f"omega0 must be divergence-free, got {div:.3e}")

    stretch = -1.0 if negative_control else 1.0

    def rhs(y, t):  # one advection by u of the whole stack, one of u by Omega
        om = SpectralField(y.grid, y.coeffs[:3])
        u = biot_savart_3d(om) if velocity is None else velocity(t)
        adv = advect_3d(u, y).coeffs
        dom = stretch * advect_3d(om, u).coeffs - adv[:3]
        return SpectralField(y.grid, np.concatenate([dom, -1.0 * adv[3:]]))

    tag = "-curl" if velocity is None else "-free"
    if negative_control:
        tag += "-control"
    return _transport_check("transport-compatibility-3d" + tag, omega0, phi0, t_end, dt, rhs, advect_3d)


# ---------------------------------------------------------------------------
# gauge transform


@dataclass(frozen=True)
class DarbouxInput:
    omega: SpectralField
    p: SpectralField
    f: SpectralField
    F: SpectralField
    eta: float = 1e-3  # mask points with |Omega_x| < eta * max|Omega_x|

    @property
    def psi(self) -> SpectralField:
        return invert_laplacian(self.omega)


@dataclass(frozen=True)
class DarbouxResult:
    omega_t: SpectralField
    psi_t: SpectralField
    p_t: np.ndarray = field(repr=False)  # physical values, 0 at masked points
    mask: np.ndarray = field(repr=False)  # True where the gauge factor degenerates
    masked_fraction: float = 0.0


def _gauge_factor(inp: DarbouxInput):
    """p~ and its mask; raise unless p, f are eigenfields, F is a gauge and
    neither f nor Omega_x vanishes.  Each derivative is transformed once, and
    every gradient but Omega's is freed, or cut to its x part, before a
    residual's norm; the quotient is formed in the gradients' own buffers."""
    om = inp.omega
    lapF = laplacian(inp.F)
    lapF_grad = gradient_values(lapF)
    r2 = bracket_core(lapF, inp.F, lapF_grad).norm_inf()
    om_grad = gradient_values(om)
    r1 = bracket_core(om, lapF, om_grad, lapF_grad)
    del lapF, lapF_grad
    r1 = r1.norm_inf()
    x_parts = []
    for name, g in (("p", inp.p), ("f", inp.f)):
        g_grad = gradient_values(g)
        r, g_x = bracket_core(om, g, om_grad, g_grad), g_grad[0].copy()
        del g_grad
        r = r.norm_inf()
        if not r <= CONSTRAINT_TOL:  # a NaN residual fails too
            raise ValidationError(f"{{Omega, {name}}} residual {r:.3e} exceeds {CONSTRAINT_TOL}")
        x_parts.append(g_x)
    if not (r1 <= CONSTRAINT_TOL and r2 <= CONSTRAINT_TOL):
        raise ValidationError(f"gauge constraints violated: |{{Omega, Lap F}}|={r1:.3e}, |{{Lap F, F}}|={r2:.3e}")
    om_x, buf = om_grad
    f_v = inp.f.physical()
    fvals = np.abs(f_v, out=buf)
    if not np.min(fvals) > 1e-12 * np.max(fvals):  # f = 0 too
        raise ValidationError("f vanishes on the grid; log f is undefined")
    top = np.max(np.abs(om_x, out=buf))
    if not top > 0.0:
        raise ValidationError("Omega_x vanishes on the whole grid; the gauge factor 1/Omega_x is undefined")
    mask = buf < inp.eta * top
    p_x, f_x = x_parts
    numer = np.multiply(p_x, f_v, out=p_x)
    numer -= np.multiply(f_x, inp.p.physical(), out=f_x)
    denom = np.multiply(f_v, om_x, out=om_x)
    np.divide(numer, denom, out=numer, where=~mask)
    numer[mask] = 0.0
    return numer, mask


def darboux_apply(inp: DarbouxInput) -> DarbouxResult:
    """Apply the gauge transform; masked points get p~ = 0.

    The quotient is computed as (p_x f - f_x p) / (f Omega_x) so that p = f
    returns an exact zero field.  Omega_x = 0 everywhere raises ValidationError.
    """
    if inp.eta <= 0:
        raise ValidationError("eta must be positive")
    p_t, mask = _gauge_factor(inp)
    return DarbouxResult(
        omega_t=inp.omega + laplacian(inp.F),
        psi_t=inp.psi + inp.F,
        p_t=p_t,
        mask=mask,
        masked_fraction=float(np.mean(mask)),
    )


def darboux_verify(res: DarbouxResult) -> LaxCheckResult:
    """Residuals of the eigen-system at the transformed pair, off the mask.

    The stationary residual is {Omega~, p~}; for a steady configuration the
    time equation reduces to {Psi~, p~}.  Only the result is read, so a
    caller may free its input first; each residual is cut to |r| off the
    mask before the next is formed.
    """
    grid = res.omega_t.grid
    p_t_grad = gradient_values(SpectralField.from_physical(grid, res.p_t))  # p~'s spectrum is not kept
    keep = ~res.mask
    allv = np.concatenate(
        [np.abs(bracket_core(a, None, g_grad=p_t_grad).physical()[keep]) for a in (res.omega_t, res.psi_t)]
    )
    return LaxCheckResult(
        check="gauge-transform",
        residual_inf=float(np.max(allv)) if allv.size else 0.0,
        residual_l2=float(np.sqrt(np.mean(allv**2))) if allv.size else 0.0,
        grid=grid.shape,
        dt=0.0,
        masked_fraction=res.masked_fraction,
    )


def darboux_shear_example(nx: int = 128, ny: int = 8, eta: float = 1e-3) -> DarbouxInput:
    """Fully solvable x-only configuration on a square-period torus.

    Omega = cos x (gradient vanishes on two grid columns, exercising the
    mask), p = sin x, f = 2 + sin x, F = -cos(2x)/4, each built from its exact
    Fourier coefficients, so every other mode is an exact zero and the
    transforms skip the dropped lines.  Closed forms:
    p~ = -2 cos x / (sin x (2 + sin x)) off the mask, Omega~ = cos x + cos 2x.
    """
    grid = TorusGrid((nx, ny))

    def fld(modes):  # {m: coefficient of e^{imx}, m >= 0} of a real x-only field
        c = np.zeros(grid.spectral_shape, complex)
        for m, a in modes.items():
            c[-m, 0], c[m, 0] = np.conj(a), a
        return SpectralField(grid, c)

    return DarbouxInput(
        omega=fld({1: 0.5}),
        p=fld({1: -0.5j}),
        f=fld({0: 2.0, 1: -0.5j}),
        F=fld({2: -0.125}),
        eta=eta,
    )
