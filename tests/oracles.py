"""Reference computations the tests compare nel against; no command uses them."""

import math

import numpy as np

from nel.errors import ValidationError
from nel.fields import (
    SpectralField,
    complex_norm_inf,
    full_spectrum,
    gradient_values,
    laplacian,
    project_mean,
    require_mean_zero,
)
from nel.fields3d import advect_3d, biot_savart_3d
from nel.models import GLState, _gl_plan, _gl_to_phys
from nel.spectra import DEFAULT_GAMMA, three_mode_lambda0


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
    if g.nx != g.ny or g.alpha != 1.0:
        raise ValidationError("reflection requires a square grid with alpha = 1")
    return SpectralField(g, full_spectrum(fld).swapaxes(-1, -2)[..., : g.ny // 2 + 1])


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
