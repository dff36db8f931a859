"""Vector spectral calculus on the periodic box [0, 2pi/alpha] x [0, 2pi]^2.

The operators of the vorticity form of 3D flow,

    d/dt Omega + (u . grad) Omega - (Omega . grad) u = nu [Lap(Omega) + f],

with u recovered from mean-zero vorticity by u = -Lap^{-1}(curl Omega)
(Biot-Savart on the torus; divergence-free by construction).  Fields are
``fields.SpectralField``s on a 3D ``TorusGrid``, held as half spectra:
scalars, or vectors with the three components on a leading axis.  A complex
scalar, such as a transported eigenfield, is carried as (re, im) rows.
Products are dealiased with the grid mask and the mean of every product is
projected out.  The command line's 3D grids are cubes: alpha = 1, equal sizes.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    SpectralField,
    _check_same_grid,
    _forward_dealiased,
    _gradient,
    _inverse,
    _real_and_imag,
    _scaled,
    complex_norm_inf,
    invert_laplacian,
    require_mean_zero,
    take,
)
from .grids import TorusGrid

__all__ = [
    "curl_3d",
    "divergence_3d",
    "biot_savart_3d",
    "advect_3d",
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


def advect_3d(a: SpectralField, f: SpectralField, out=None, work=None) -> SpectralField:
    """(a . grad) f for a scalar, vector or any stack f, dealiased and mean-projected.

    A caller that advects again and again passes the spectrum's ``out`` and
    a ``work`` dict (see ``fields.take``) for the grid values of a and of
    grad f, which are formed in it.
    """
    _check_same_grid(a, f)
    grid = a.grid
    ac = take(work, "spectra", a.coeffs.shape)
    np.copyto(ac, a.coeffs)
    av = _inverse(grid, ac, take(work, "a values", (3, *grid.shape), float))
    grad = _gradient(f, work, "f values")
    np.multiply(av.reshape(3, *(1,) * (f.coeffs.ndim - 3), *grid.shape), grad, out=grad)
    prod = np.add(grad[0], grad[1], out=grad[0])
    prod += grad[2]
    return SpectralField(grid, _forward_dealiased(grid, prod, out))


def random_solenoidal_field(
    grid: TorusGrid, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> SpectralField:
    """Random real divergence-free vector field with modes |k_i| <= kmax and
    |k_i| < n_i/2: the projection of a Nyquist mode, whose wavenumber has no
    sign, would not be Hermitian, so the field would not be real."""
    vals = rng.standard_normal((3, *grid.shape))
    low = grid.low_modes(kmax, nyquist=False)[..., : grid.spectral_shape[-1]]
    c = np.where(low, SpectralField.from_physical(grid, vals).coeffs, 0.0)
    # Leray projection: remove the gradient part so div = 0 exactly
    kx, ky, kz = grid.k
    k2 = grid.k_squared.copy()
    k2[0, 0, 0] = 1.0
    kdotc = kx * c[0] + ky * c[1] + kz * c[2]
    c = np.stack([c[j] - kk * kdotc / k2 for j, kk in enumerate((kx, ky, kz))])
    c[:, 0, 0, 0] = 0.0
    return _scaled(SpectralField(grid, c), amplitude)


def random_scalar_field(
    grid: TorusGrid, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> SpectralField:
    """Random complex scalar with modes |k_i| <= kmax, sup-norm ~ amplitude,
    as (re, im) rows; the complex coefficients are drawn on the full spectrum."""
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = SpectralField(grid, _real_and_imag(grid, np.where(grid.low_modes(kmax), vals, 0.0)))
    return _scaled(f, amplitude, complex_norm_inf)
