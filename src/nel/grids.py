"""Periodic grids for the rectangular torus [0, 2pi/alpha] x [0, 2pi] and the
cube [0, 2pi]^3.

Spectral layout follows numpy's FFT ordering.  A 2D coefficient array c[m, n]
holds the amplitude of exp(i(alpha*m*x + n*y)), so the x wavenumber of row m
is alpha*m with integer m.  Both grids give the ``shape`` of a scalar
coefficient array, its ``size`` and the transform ``axes``, which the one
spectral field of ``fields`` works with.  Grids are immutable; derived index
arrays are cached on first use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

DEALIAS_DEFAULT = 2.0 / 3.0


def _int_freqs(n: int) -> np.ndarray:
    # integer mode numbers in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1
    return np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)


def _check_sizes(grid, names) -> None:
    for name in names:
        n = getattr(grid, name)
        if n < 4 or n % 2 != 0:
            raise ValidationError(f"{name} must be even and >= 4, got {n}")
    if not (0.0 < grid.dealias_fraction <= 1.0):
        raise ValidationError(
            f"dealias_fraction must lie in (0, 1], got {grid.dealias_fraction}"
        )


def _dealias_mask(shape, fraction) -> np.ndarray:
    # keep |m| <= floor(fraction * n/2) on every axis, and never the Nyquist mode
    mask = np.ones(shape, dtype=bool)
    for axis, n in enumerate(shape):
        cut = min(int(np.floor(fraction * (n // 2))), n // 2 - 1)
        m = _int_freqs(n).reshape([n if a == axis else 1 for a in range(len(shape))])
        mask &= np.abs(m) <= cut
    return mask


@dataclass(frozen=True)
class TorusGrid2D:
    """Uniform grid on [0, 2pi/alpha] x [0, 2pi]."""

    alpha: float
    nx: int
    ny: int
    dealias_fraction: float = DEALIAS_DEFAULT

    axes = (-2, -1)  # the transform axes of a coefficient array

    def __post_init__(self):
        if not (0.0 < self.alpha):
            raise ValidationError(f"alpha must be positive, got {self.alpha}")
        _check_sizes(self, ("nx", "ny"))

    @cached_property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @cached_property
    def size(self) -> int:
        return self.nx * self.ny

    @cached_property
    def mx(self) -> np.ndarray:
        return _int_freqs(self.nx)[:, None]

    @cached_property
    def ny_modes(self) -> np.ndarray:
        return _int_freqs(self.ny)[None, :]

    @cached_property
    def kx(self) -> np.ndarray:
        return self.alpha * self.mx

    @cached_property
    def ky(self) -> np.ndarray:
        return self.ny_modes.astype(np.float64)

    @cached_property
    def k_squared(self) -> np.ndarray:
        return self.kx**2 + self.ky**2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        return _dealias_mask(self.shape, self.dealias_fraction)

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * (2.0 * np.pi / self.alpha) / self.nx

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * 2.0 * np.pi / self.ny


@dataclass(frozen=True)
class TorusGrid3D:
    """Uniform grid on the cube [0, 2pi]^3."""

    nx: int
    ny: int
    nz: int
    dealias_fraction: float = DEALIAS_DEFAULT

    axes = (-3, -2, -1)

    def __post_init__(self):
        _check_sizes(self, ("nx", "ny", "nz"))

    @cached_property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @cached_property
    def size(self) -> int:
        return self.nx * self.ny * self.nz

    @cached_property
    def k(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        kx = _int_freqs(self.nx).astype(np.float64)[:, None, None]
        ky = _int_freqs(self.ny).astype(np.float64)[None, :, None]
        kz = _int_freqs(self.nz).astype(np.float64)[None, None, :]
        return kx, ky, kz

    @cached_property
    def k_squared(self) -> np.ndarray:
        kx, ky, kz = self.k
        return kx**2 + ky**2 + kz**2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        return _dealias_mask(self.shape, self.dealias_fraction)
