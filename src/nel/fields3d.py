"""Vector spectral calculus on the periodic cube [0, 2pi]^3.

Implements the vorticity form of 3D flow,

    d/dt Omega + (u . grad) Omega - (Omega . grad) u = nu [Lap(Omega) + f],

with u recovered from mean-zero vorticity by u = -Lap^{-1}(curl Omega)
(Biot-Savart on the torus; divergence-free by construction).  Fields are
``fields.SpectralField``s on a ``TorusGrid3D``: scalars, or vectors with the
three components on a leading axis.  Products are dealiased with the grid
mask and the mean of every product is projected out.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .fields import (
    SpectralField,
    _check_same_grid,
    _scaled,
    invert_laplacian,
    laplacian,
    project_mean,
    require_mean_zero,
)
from .grids import TorusGrid3D

__all__ = [
    "curl_3d",
    "divergence_3d",
    "biot_savart_3d",
    "advect_3d",
    "ns_rhs_3d",
    "random_solenoidal_field",
    "random_scalar_field",
]


def curl_3d(u: SpectralField) -> SpectralField:
    kx, ky, kz = u.grid.k
    cx, cy, cz = u.coeffs
    out = np.stack(
        [
            1j * (ky * cz - kz * cy),
            1j * (kz * cx - kx * cz),
            1j * (kx * cy - ky * cx),
        ]
    )
    return SpectralField(u.grid, out)


def divergence_3d(u: SpectralField) -> SpectralField:
    kx, ky, kz = u.grid.k
    cx, cy, cz = u.coeffs
    return SpectralField(u.grid, 1j * (kx * cx + ky * cy + kz * cz))


def biot_savart_3d(omega: SpectralField) -> SpectralField:
    """Velocity from vorticity: u = -Lap^{-1}(curl omega); div u = 0 exactly."""
    require_mean_zero(omega, "the vorticity of biot_savart_3d")
    return invert_laplacian(curl_3d(omega)) * (-1.0)


def _advected(a_phys, fc, grid) -> np.ndarray:
    """Coefficients of (a . grad) of one component: dealiased, mean zeroed in place."""
    gf = [np.fft.ifftn(fc * (1j * kk)) * grid.size for kk in grid.k]
    prod = sum(a_phys[j] * gf[j] for j in range(3))
    c = np.where(grid.dealias_mask, np.fft.fftn(prod) / grid.size, 0.0)
    c[0, 0, 0] = 0.0
    return c


def advect_3d(a: SpectralField, f: SpectralField) -> SpectralField:
    """(a . grad) f for scalar or vector f, dealiased and mean-projected."""
    _check_same_grid(a, f)
    a_phys = a.physical()
    if f.coeffs.ndim == 3:
        return SpectralField(a.grid, _advected(a_phys, f.coeffs, a.grid))
    out = np.empty_like(f.coeffs)
    for i in range(3):
        out[i] = _advected(a_phys, f.coeffs[i], a.grid)
    return SpectralField(a.grid, out)


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


def _low_modes(grid: TorusGrid3D, kmax: int) -> np.ndarray:
    kx, ky, kz = grid.k
    return (np.abs(kx) <= kmax) & (np.abs(ky) <= kmax) & (np.abs(kz) <= kmax)


def random_solenoidal_field(
    grid: TorusGrid3D, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> SpectralField:
    """Random real divergence-free vector field with modes |k_i| <= kmax."""
    vals = rng.standard_normal((3, *grid.shape))
    c = np.where(_low_modes(grid, kmax), SpectralField.from_physical(grid, vals).coeffs, 0.0)
    # Leray projection: remove the gradient part so div = 0 exactly
    kx, ky, kz = grid.k
    k2 = grid.k_squared.copy()
    k2[0, 0, 0] = 1.0
    kdotc = kx * c[0] + ky * c[1] + kz * c[2]
    c = np.stack([c[j] - kk * kdotc / k2 for j, kk in enumerate((kx, ky, kz))])
    c[:, 0, 0, 0] = 0.0
    return _scaled(SpectralField(grid, c), amplitude)


def random_scalar_field(
    grid: TorusGrid3D, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> SpectralField:
    """Random complex scalar with modes |k_i| <= kmax, sup-norm ~ amplitude."""
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return _scaled(SpectralField(grid, np.where(_low_modes(grid, kmax), vals, 0.0)), amplitude)
