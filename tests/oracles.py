"""Reference computations the tests compare nel against; no command uses them."""

import itertools
import math

import numpy as np

from nel.errors import ValidationError
from nel.fields import (
    SpectralField,
    _check_same_grid,
    _zero_mode,
    bracket_core,
    complex_norm_inf,
    full_spectrum,
    gradient_values,
    invert_laplacian,
    laplacian,
    require_mean_zero,
)
from nel.fields3d import advect_3d, biot_savart_3d
from nel.grids import TorusGrid
from nel.models import GLState, SGState, _gl_plan, _gl_to_phys, _sg_plan, _sg_to_phys
from nel.spectra import DEFAULT_GAMMA, ModeClass, Tridiagonal, assemble_suboperator


def mesh(grid) -> list[np.ndarray]:
    """The coordinates of a grid's points, one full array per axis (ij
    indexing): x in [0, 2pi/alpha), the other axes in [0, 2pi)."""
    periods = [2.0 * np.pi / grid.alpha] + [2.0 * np.pi] * (len(grid.shape) - 1)
    return np.meshgrid(*(np.arange(n) * p / n for n, p in zip(grid.shape, periods)), indexing="ij")


def dealias_mask(grid) -> np.ndarray:
    """The half-spectrum modes the grid's dealias cut keeps, as a boolean array."""
    mask = np.zeros(grid.spectral_shape, dtype=bool)
    for block in itertools.product(*(kept for kept, _ in grid.dealias_slices)):
        mask[block] = True
    return mask


def project_mean(f: SpectralField) -> SpectralField:
    c = f.coeffs.copy()
    c[_zero_mode(f.grid)] = 0.0
    return SpectralField(f.grid, c)


def eigen_residual(lphi: SpectralField, phi: SpectralField, lam: complex) -> float:
    """sup-norm of L phi - lam phi; phi is real, or complex as (re, im) rows."""
    lc, pc, lam = lphi.coeffs, phi.coeffs, complex(lam)
    if pc.ndim == len(phi.grid.shape):  # a real phi: its imaginary row is 0
        lc, pc = (np.stack([c, np.zeros_like(c)]) for c in (lc, pc))
    lam_phi = np.stack([lam.real * pc[0] - lam.imag * pc[1], lam.real * pc[1] + lam.imag * pc[0]])
    return complex_norm_inf(SpectralField(phi.grid, lc - lam_phi))


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
    om_x, om_y = gradient_values(omega)
    p_x, p_y = gradient_values(p)
    f_x, f_y = gradient_values(f)
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
    if g.shape[0] != g.shape[1] or g.alpha != 1.0:
        raise ValidationError("reflection requires a square grid with alpha = 1")
    return SpectralField(g, full_spectrum(fld).swapaxes(-1, -2)[..., : g.shape[1] // 2 + 1])


def ns_rhs_2d(
    omega: SpectralField, nu: float, forcing: SpectralField
) -> SpectralField:
    """Right side of the vorticity equation: -{Psi, Omega} + nu [Lap(Omega) + f].

    The forcing f is a full-space field on the same grid.  Both omega and f
    must be mean-zero so the mean mode stays exactly zero.
    """
    _check_same_grid(omega, forcing)
    if nu < 0:
        raise ValidationError(f"viscosity must be nonnegative, got {nu}")
    require_mean_zero(omega, "omega")
    require_mean_zero(forcing, "forcing")
    psi = invert_laplacian(omega)
    adv = bracket_core(psi, omega)
    visc = (laplacian(omega) + forcing) * nu
    return project_mean(visc - adv)


def ns_rhs_3d(
    omega: SpectralField,
    nu: float,
    forcing: SpectralField,
    velocity: SpectralField | None = None,
) -> SpectralField:
    """-(u.grad)Omega + (Omega.grad)u + nu[Lap(Omega) + f].

    By default u is the Biot-Savart velocity of omega; a prescribed velocity
    can be supplied instead (the transport structure does not require
    Omega = curl u).
    """
    if nu < 0:
        raise ValidationError(f"viscosity must be nonnegative, got {nu}")
    require_mean_zero(omega, "omega")
    require_mean_zero(forcing, "forcing")
    u = biot_savart_3d(omega) if velocity is None else velocity
    stretch = advect_3d(omega, u) - advect_3d(u, omega)
    return project_mean(stretch + (laplacian(omega) + forcing) * nu)


def transport_march(omega0: SpectralField, phi0: SpectralField, L, steps: int, dt: float, rhs) -> np.ndarray:
    """The stack (Omega rows, phi rows, q rows), q = L(Omega, phi), after
    ``steps`` classical RK4 steps of ``rhs(y, t)``, every stage and sum in
    new arrays: the plain form of ``nel.lax._march``."""
    rows = [f.coeffs.reshape(-1, *f.grid.spectral_shape) for f in (omega0, phi0, L(omega0, phi0))]
    y = SpectralField(omega0.grid, np.concatenate(rows))
    t = 0.0
    for _ in range(steps):
        k1 = rhs(y, t)
        k2 = rhs(y + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(y + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(y + dt * k3, t + dt)
        y = y + dt / 6 * k1 + dt / 3 * k2 + dt / 3 * k3 + dt / 6 * k4
        t += dt
    return y.coeffs


def bracket_stack_rhs(negative_control: bool = False):
    """rhs of the 2D stack (Omega, phi rows, q rows): -{Psi, .} of every row,
    +{Psi, Omega} for Omega in the negative control."""

    def rhs(y, t):
        signs = np.full((len(y.coeffs), 1, 1), -1.0)
        signs[0] = 1.0 if negative_control else -1.0
        return bracket_core(invert_laplacian(SpectralField(y.grid, y.coeffs[0])), y) * signs

    return rhs


def advection_stack_rhs(velocity=None, negative_control: bool = False):
    """rhs of the 3D stack (Omega_1..3, phi rows, q rows): -(u . grad) of
    every row, plus the stretching (Omega . grad) u for Omega, with the sign
    flipped in the negative control; u is Omega's Biot-Savart velocity, or
    velocity(t)."""
    stretch = -1.0 if negative_control else 1.0

    def rhs(y, t):
        om = SpectralField(y.grid, y.coeffs[:3])
        u = biot_savart_3d(om) if velocity is None else velocity(t)
        adv = advect_3d(u, y).coeffs
        dom = stretch * advect_3d(om, u).coeffs - adv[:3]
        return SpectralField(y.grid, np.concatenate([dom, -1.0 * adv[3:]]))

    return rhs


def jacobian_oracle_check(
    cls: ModeClass,
    alpha: float,
    gamma: float,
    nu: float,
    trunc: int,
    delta: float = 1e-5,
) -> float:
    """Max entrywise deviation between the assembled matrix and a centered
    finite-difference Jacobian of ns_rhs_2d at the shear fixed point.

    The right side is quadratic, so central differences are exact up to
    rounding; a mismatch indicates a wrong sign or coefficient in assembly.
    """
    matrix = assemble_suboperator(cls, alpha, gamma, nu, trunc).dense()
    # the y wavenumber of each row, ascending: [-N, N], or for k1 = 0 [1 - N, 1 + N] without the mean mode
    window = list(range(-trunc, trunc + 1)) if cls.k1 else [ky for ky in range(1 - trunc, trunc + 2) if ky]
    # grid big enough that products of class modes with cos y are unaliased
    need_y = 3 * (abs(cls.k2) + trunc + 2)
    ny = 1 << max(4, math.ceil(math.log2(need_y)))
    nx = 1 << max(4, math.ceil(math.log2(3 * (abs(cls.k1) + 2))))
    grid = TorusGrid((nx, ny), alpha)
    X, Y = mesh(grid)
    base = SpectralField.from_physical(grid, gamma * np.cos(Y))  # also the forcing: a fixed point at every nu
    worst = 0.0
    for j, ky in enumerate(window):
        phase = alpha * cls.k1 * X + ky * Y
        # complex column via two real perturbations: cos and sin of the mode
        parts = []
        for pert in (np.cos(phase), np.sin(phase)):
            m = SpectralField.from_physical(grid, pert)
            plus = ns_rhs_2d(SpectralField(grid, base.coeffs + delta * m.coeffs), nu, base)
            minus = ns_rhs_2d(SpectralField(grid, base.coeffs - delta * m.coeffs), nu, base)
            parts.append(full_spectrum(plus - minus) / (2 * delta))
        fd = parts[0] + 1j * parts[1]
        col = np.array([fd[cls.k1 % nx, w % ny] for w in window])
        worst = max(worst, float(np.max(np.abs(col - matrix[:, j]))))
    return worst


def shifted_window_bands(cls: ModeClass, alpha: float, gamma: float, nu: float, trunc: int) -> Tridiagonal:
    """The bands of a k1 != 0 class on the off-centre window of wavenumbers
    k2 + n, n in [-N, N].  Where |k_n| = 1 falls inside it (n = -k2 at
    alpha k1 = 1), balancing isolates an interior column and permutes the block
    out of Hessenberg form, which no centred window that nel assembles does:
    these blocks keep block_eigvals' permuted-block guard covered."""
    n = np.arange(-trunc, trunc + 1)
    ksq = (alpha * cls.k1) ** 2 + (cls.k2 + n) ** 2
    rho = 1.0 - 1.0 / ksq
    c = gamma * alpha * cls.k1 / 2.0
    return Tridiagonal(-nu * ksq, c * rho[:-1], -c * rho[1:])


def three_mode_lambda0(alpha: float, gamma: float = DEFAULT_GAMMA) -> float:
    """Unstable inviscid growth rate of the N=1 truncation of class (1,0)."""
    if not (0 < alpha < 1):
        raise ValidationError("the unstable class requires 0 < alpha < 1")
    return math.sqrt(gamma**2 * alpha**2 * (1 - alpha**2) / (2 * (alpha**2 + 1)))


def five_mode_lambda0(alpha: float, gamma: float = DEFAULT_GAMMA) -> float:
    """Growth rate of the N=2 truncation; a lower bound for the full rate."""
    if not (0 < alpha < 1):
        raise ValidationError("the unstable class requires 0 < alpha < 1")
    inner = alpha**2 * (1 - alpha**2) / (2 * (alpha**2 + 1)) - alpha**4 * (
        alpha**2 + 3
    ) / (4 * (alpha**2 + 1) * (alpha**2 + 4))
    return gamma * math.sqrt(inner)


def lambda0_bounds(alpha: float, gamma: float = DEFAULT_GAMMA) -> tuple[float, float]:
    """Two-sided analytic bracket for the inviscid growth rate."""
    return five_mode_lambda0(alpha, gamma), three_mode_lambda0(alpha, gamma)


def unstable_eig_bounds(
    alpha: float, nu: float, gamma: float = DEFAULT_GAMMA
) -> tuple[float, float]:
    """Viscous growth-rate bracket: the inviscid bracket shifted by the
    diffusion rates of the widest and narrowest class modes."""
    lo, hi = lambda0_bounds(alpha, gamma)
    return lo - nu * (alpha**2 + 1), hi - nu * alpha**2


def gl_mass(state: GLState) -> float:
    """Grid quadrature of int |q|^2 dx (conserved by the eps = 0 flow)."""
    qp = _gl_to_phys(_gl_plan(state.params), state.q)[..., 0, :]
    return float((qp.real**2 + qp.imag**2).mean() * 2.0 * np.pi)


def sg_energy(state: SGState) -> float:
    """Grid quadrature of int [v^2/2 + c^2 u_x^2/2 + cos u] dx (conserved when eps = 0)."""
    p = state.params
    plan = _sg_plan(p)
    n, lo, w_in, _ = plan
    spec = np.zeros(n // 2 + 1, dtype=complex)
    (spec.imag if lo else spec.real)[lo : p.n_modes + 1] = state.u[lo:] * w_in
    u, ux = (np.fft.irfft(s, n) for s in (spec, spec * (1j * np.arange(n // 2 + 1))))
    v = _sg_to_phys(plan, state.v)
    dens = 0.5 * v * v + 0.5 * p.c * p.c * ux * ux + np.cos(u)
    return float(dens.mean() * 2.0 * np.pi)
