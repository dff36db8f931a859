"""Transport compatibility structure of the inviscid vorticity equations and
the associated gauge transform.

2D: a scalar eigenfield phi of L(phi) = {Omega, phi} = lam phi is transported
by A(phi) = {Psi, phi}: if Omega solves the Euler equation and both phi and
q = {Omega, phi} are advected passively, then q(t) = {Omega(t), phi(t)} stays
true (Jacobi identity).  3D: the same holds for L(phi) = (Omega . grad) phi
and A(phi) = (u . grad) phi -- remarkably with no constraint tying u to Omega
(neither div u = 0 nor Omega = curl u is needed for the compatibility).

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

from .errors import ComputationalError, ValidationError
from .fields import (
    SpectralField,
    bracket_core,
    dx,
    dy,
    invert_laplacian,
    laplacian,
    require_mean_zero,
)
from .fields3d import advect_3d, biot_savart_3d, divergence_3d
from .grids import TorusGrid2D

CONSTRAINT_TOL = 1e-8


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class LaxState2D:
    """Vorticity, a complex-valued eigenfield candidate, and its eigenvalue.

    The stream function is always derived from omega, never stored.
    """

    omega: SpectralField
    phi: SpectralField
    lam: complex = 0j

    def __post_init__(self):
        if not self.omega.is_real():
            raise ValidationError("omega must be real-valued")
        require_mean_zero(self.omega, "omega")

    @property
    def psi(self) -> SpectralField:
        return invert_laplacian(self.omega)


@dataclass(frozen=True)
class LaxState3D:
    """3D analogue; the transport velocity is Biot-Savart of omega when the
    curl constraint is active, otherwise a prescribed velocity field."""

    omega: SpectralField  # vector
    phi: SpectralField  # scalar
    lam: complex = 0j
    enforce_curl: bool = True
    prescribed_u: SpectralField | None = None

    def __post_init__(self):
        if not self.enforce_curl and self.prescribed_u is None:
            raise ValidationError("constraint-free state needs a prescribed velocity")

    @property
    def u(self) -> SpectralField:
        if self.enforce_curl:
            return biot_savart_3d(self.omega)
        return self.prescribed_u


def lax_operators_2d(state: LaxState2D):
    """(L phi, A phi) = ({Omega, phi}, {Psi, phi})."""
    return (
        bracket_core(state.omega, state.phi),
        bracket_core(state.psi, state.phi),
    )


def lax_operators_3d(state: LaxState3D):
    """(L phi, A phi) = ((Omega . grad) phi, (u . grad) phi)."""
    return advect_3d(state.omega, state.phi), advect_3d(state.u, state.phi)


def eigen_residual(state) -> float:
    """sup-norm of L phi - lam phi for a user-supplied candidate pair."""
    lphi = lax_operators_2d(state)[0] if isinstance(state, LaxState2D) else \
        lax_operators_3d(state)[0]
    return (lphi - state.lam * state.phi).norm_inf()


# ---------------------------------------------------------------------------
# small RK4 combinator over tuples of fields


def _axpy(state, a, incr):
    return tuple(s + a * k for s, k in zip(state, incr))


def _rk4(state, t, dt, rhs):
    k1 = rhs(state, t)
    k2 = rhs(_axpy(state, 0.5 * dt, k1), t + 0.5 * dt)
    k3 = rhs(_axpy(state, 0.5 * dt, k2), t + 0.5 * dt)
    k4 = rhs(_axpy(state, dt, k3), t + dt)
    out = state
    for c, k in ((dt / 6, k1), (dt / 3, k2), (dt / 3, k3), (dt / 6, k4)):
        out = _axpy(out, c, k)
    return out


def _march(state, t_end, dt, rhs, what):
    steps = int(round(t_end / dt))
    t = 0.0
    for _ in range(steps):
        state = _rk4(state, t, dt, rhs)
        t += dt
        if not all(np.isfinite(f.coeffs).all() for f in state):
            raise ComputationalError(f"{what} blew up at t={t:.4g}; reduce dt")
    return state, steps


# ---------------------------------------------------------------------------
# compatibility checks


@dataclass(frozen=True)
class LaxCheckResult:
    check: str
    residual_inf: float
    residual_l2: float
    grid: tuple[int, ...]
    dt: float
    steps: int
    masked_fraction: float | None = None

    def to_json_dict(self, params: dict | None = None) -> dict:
        return {
            "check": self.check,
            "params": params or {},
            "residual_inf": self.residual_inf,
            "residual_l2": self.residual_l2,
            "masked_fraction": self.masked_fraction,
            "grid": list(self.grid),
            "dt": self.dt,
        }


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
    arithmetic.  The negative control flips the sign of the vorticity's own
    advection, which destroys the compatibility.
    """
    if dt <= 0 or t_end <= 0:
        raise ValidationError("t_end and dt must be positive")
    sign = 1.0 if negative_control else -1.0

    def rhs(state, t):
        om, phi, q = state
        psi = invert_laplacian(om)
        return (
            sign * bracket_core(psi, om),
            -1.0 * bracket_core(psi, phi),
            -1.0 * bracket_core(psi, q),
        )

    state = (omega0, phi0, bracket_core(omega0, phi0))
    (om, phi, q), steps = _march(state, t_end, dt, rhs, "2d transport check")
    resid = bracket_core(om, phi) - q
    return LaxCheckResult(
        check="transport-compatibility-2d" + ("-control" if negative_control else ""),
        residual_inf=resid.norm_inf(),
        residual_l2=resid.norm_l2(),
        grid=omega0.grid.shape,
        dt=dt,
        steps=steps,
    )


def transported_eigenfield_check_3d(
    omega0: SpectralField,
    phi0: SpectralField,
    t_end: float,
    dt: float,
    enforce_curl: bool = True,
    velocity=None,
    negative_control: bool = False,
) -> LaxCheckResult:
    """Co-evolve (Omega, phi, q) in 3D; q(0) = (Omega . grad) phi.

    enforce_curl=True transports by the Biot-Savart velocity of Omega (the
    self-consistent flow; omega0 must be divergence-free).  With
    enforce_curl=False, velocity must be a callable t -> SpectralField and
    Omega evolves by transport-stretching under that prescribed field: the
    compatibility holds with no constraint tying u to Omega.  The negative
    control flips the sign of the stretching term.
    """
    if dt <= 0 or t_end <= 0:
        raise ValidationError("t_end and dt must be positive")
    require_mean_zero(omega0, "omega0")
    if enforce_curl:
        if velocity is not None:
            raise ValidationError("velocity is only used when enforce_curl=False")
        div = divergence_3d(omega0).norm_inf()
        if div > 1e-10:
            raise ValidationError(f"omega0 must be divergence-free, got {div:.3e}")
    elif velocity is None:
        raise ValidationError("enforce_curl=False requires a velocity callable")

    stretch = -1.0 if negative_control else 1.0

    def rhs(state, t):
        om, phi, q = state
        u = biot_savart_3d(om) if enforce_curl else velocity(t)
        dom = stretch * advect_3d(om, u) - advect_3d(u, om)
        return (dom, -1.0 * advect_3d(u, phi), -1.0 * advect_3d(u, q))

    state = (omega0, phi0, advect_3d(omega0, phi0))
    (om, phi, q), steps = _march(state, t_end, dt, rhs, "3d transport check")
    resid = advect_3d(om, phi) - q
    tag = "-curl" if enforce_curl else "-free"
    if negative_control:
        tag += "-control"
    return LaxCheckResult(
        check="transport-compatibility-3d" + tag,
        residual_inf=resid.norm_inf(),
        residual_l2=resid.norm_l2(),
        grid=omega0.grid.shape,
        dt=dt,
        steps=steps,
    )


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


def _check_eigen_preconditions(inp: DarbouxInput):
    om = inp.omega
    for name, g in (("p", inp.p), ("f", inp.f)):
        r = bracket_core(om, g).norm_inf()
        if r > CONSTRAINT_TOL:
            raise ValidationError(
                f"{{Omega, {name}}} residual {r:.3e} exceeds {CONSTRAINT_TOL}"
            )
    lapF = laplacian(inp.F)
    r1 = bracket_core(om, lapF).norm_inf()
    r2 = bracket_core(lapF, inp.F).norm_inf()
    if r1 > CONSTRAINT_TOL or r2 > CONSTRAINT_TOL:
        raise ValidationError(
            f"gauge constraints violated: |{{Omega, Lap F}}|={r1:.3e}, "
            f"|{{Lap F, F}}|={r2:.3e}"
        )
    fvals = np.abs(inp.f.physical())
    if np.min(fvals) < 1e-12 * np.max(fvals):
        raise ValidationError("f vanishes on the grid; log f is undefined")


def darboux_apply(inp: DarbouxInput) -> DarbouxResult:
    """Apply the gauge transform; masked points get p~ = 0.

    The quotient is computed as (p_x f - f_x p) / (f Omega_x) so that p = f
    returns an exact zero field.
    """
    if inp.eta <= 0:
        raise ValidationError("eta must be positive")
    _check_eigen_preconditions(inp)
    om, p, f = inp.omega, inp.p, inp.f
    om_x = dx(om).physical().real
    p_x = dx(p).physical()
    f_x = dx(f).physical()
    p_v = p.physical()
    f_v = f.physical()
    mask = np.abs(om_x) < inp.eta * np.max(np.abs(om_x))
    numer = p_x * f_v - f_x * p_v
    denom = f_v * om_x
    p_t = np.zeros_like(numer)
    np.divide(numer, denom, out=p_t, where=~mask)
    p_t[mask] = 0.0
    return DarbouxResult(
        omega_t=om + laplacian(inp.F),
        psi_t=inp.psi + inp.F,
        p_t=p_t,
        mask=mask,
        masked_fraction=float(np.mean(mask)),
    )


def darboux_verify(
    inp: DarbouxInput,
    res: DarbouxResult | None = None,
    series: tuple[list[DarbouxResult], list[float]] | None = None,
) -> LaxCheckResult:
    """Residuals of the eigen-system at the transformed pair, off the mask.

    The stationary residual is {Omega~, p~}.  For a steady configuration the
    time equation reduces to {Psi~, p~}; when a time series of transforms is
    supplied, the discrete d/dt p~ (centered differences) is added to it.
    """
    if res is None:
        res = darboux_apply(inp)
    grid = inp.omega.grid
    p_t_field = SpectralField.from_physical(grid, res.p_t)
    r_eig = bracket_core(res.omega_t, p_t_field).physical()
    r_time = bracket_core(res.psi_t, p_t_field).physical()
    keep = ~res.mask
    vals = [np.abs(r_eig[keep]), np.abs(r_time[keep])]
    if series is not None:
        snaps, times = series
        if len(snaps) != len(times) or len(snaps) < 3:
            raise ValidationError("series needs >= 3 snapshots with matching times")
        for i in range(1, len(snaps) - 1):
            dt2 = times[i + 1] - times[i - 1]
            ddt = (snaps[i + 1].p_t - snaps[i - 1].p_t) / dt2
            mid = SpectralField.from_physical(grid, snaps[i].p_t)
            adv = bracket_core(snaps[i].psi_t, mid).physical()
            m = ~(snaps[i - 1].mask | snaps[i].mask | snaps[i + 1].mask)
            vals.append(np.abs(ddt + adv)[m])
    allv = np.concatenate([v.ravel() for v in vals])
    return LaxCheckResult(
        check="gauge-transform",
        residual_inf=float(np.max(allv)) if allv.size else 0.0,
        residual_l2=float(np.sqrt(np.mean(allv**2))) if allv.size else 0.0,
        grid=grid.shape,
        dt=0.0,
        steps=0,
        masked_fraction=res.masked_fraction,
    )


def gauge_identity_residual(
    omega: SpectralField,
    p: SpectralField,
    f: SpectralField,
    floor: float = 0.2,
) -> float:
    """Max mismatch of the two quotient forms of the transform.

    On eigenfields ({Omega, p} = 0) the x- and y-quotients agree wherever
    both |Omega_x| and |Omega_y| exceed floor * their max.
    """
    om_x = dx(omega).physical().real
    om_y = dy(omega).physical().real
    p_x, p_y = dx(p).physical(), dy(p).physical()
    f_x, f_y = dx(f).physical(), dy(f).physical()
    pv, fv = p.physical(), f.physical()
    good = (np.abs(om_x) > floor * np.max(np.abs(om_x))) & (
        np.abs(om_y) > floor * np.max(np.abs(om_y))
    )
    if not np.any(good):
        raise ValidationError("no grid points clear the gauge floor")
    qx = (p_x - (f_x / fv) * pv) / om_x
    qy = (p_y - (f_y / fv) * pv) / om_y
    return float(np.max(np.abs((qx - qy)[good])))


def reflect_xy(fld: SpectralField) -> SpectralField:
    """The spatial part of the (t, x, y) -> (-t, y, x) symmetry (needs a square
    grid with alpha = 1)."""
    g = fld.grid
    if g.nx != g.ny or g.alpha != 1.0:
        raise ValidationError("reflection requires a square grid with alpha = 1")
    return SpectralField(g, fld.coeffs.T.copy())


def darboux_shear_example(nx: int = 128, ny: int = 8, eta: float = 1e-3) -> DarbouxInput:
    """Fully solvable x-only configuration on a square-period torus.

    Omega = cos x (gradient vanishes on two grid columns, exercising the
    mask), p = sin x, f = 2 + sin x, F = -cos(2x)/4.  Closed forms:
    p~ = -2 cos x / (sin x (2 + sin x)) off the mask, Omega~ = cos x + cos 2x.
    """
    grid = TorusGrid2D(alpha=1.0, nx=nx, ny=ny)
    x = grid.x[:, None] + 0.0 * grid.y[None, :]

    def fld(vals):
        return SpectralField.from_physical(grid, vals)

    return DarbouxInput(
        omega=fld(np.cos(x)),
        p=fld(np.sin(x)),
        f=fld(2.0 + np.sin(x)),
        F=fld(-np.cos(2.0 * x) / 4.0),
        eta=eta,
    )
