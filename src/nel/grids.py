"""Periodic grids for the rectangular torus [0, 2pi/alpha] x [0, 2pi] and the
cube [0, 2pi]^3.

Spectral layout follows numpy's FFT ordering.  A 2D coefficient array c[m, n]
holds the amplitude of exp(i(alpha*m*x + n*y)), so the x wavenumber of row m
is alpha*m with integer m.  Both grids give the ``shape`` of a scalar
coefficient array, its ``size`` and the transform ``axes``, which the one
spectral field of ``fields`` works with, and ``dealias_slices``, the modes
the dealias mask keeps and drops on each axis, which its transforms use.
Grids are immutable; derived index arrays are cached on first use.
"""

from __future__ import annotations

import itertools
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


class _Torus:
    """What both grids derive from their ``shape`` and ``dealias_fraction``."""

    @cached_property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def dealias_slices(self) -> tuple[tuple[slice, slice, slice], ...]:
        """Per axis: the kept modes 0..cut and n-cut..n-1, and the dropped
        modes cut+1..n-cut-1 between them, as slices in FFT order."""
        # keep |m| <= floor(fraction * n/2), and never the Nyquist mode
        cuts = [min(int(np.floor(self.dealias_fraction * (n // 2))), n // 2 - 1) for n in self.shape]
        return tuple((slice(0, c + 1), slice(n - c, n), slice(c + 1, n - c)) for n, c in zip(self.shape, cuts))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        mask = np.zeros(self.shape, dtype=bool)
        for block in itertools.product(*(s[:2] for s in self.dealias_slices)):
            mask[block] = True
        return mask


@dataclass(frozen=True)
class TorusGrid2D(_Torus):
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
    def mx(self) -> np.ndarray:
        return _int_freqs(self.nx)[:, None]

    @cached_property
    def ny_modes(self) -> np.ndarray:
        return _int_freqs(self.ny)[None, :]

    @cached_property
    def k(self) -> tuple[np.ndarray, np.ndarray]:
        return self.alpha * self.mx, self.ny_modes.astype(np.float64)

    @cached_property
    def k_squared(self) -> np.ndarray:
        kx, ky = self.k
        return kx**2 + ky**2

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * (2.0 * np.pi / self.alpha) / self.nx

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * 2.0 * np.pi / self.ny


@dataclass(frozen=True)
class TorusGrid3D(_Torus):
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
    def k(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        kx = _int_freqs(self.nx).astype(np.float64)[:, None, None]
        ky = _int_freqs(self.ny).astype(np.float64)[None, :, None]
        kz = _int_freqs(self.nz).astype(np.float64)[None, None, :]
        return kx, ky, kz

    @cached_property
    def k_squared(self) -> np.ndarray:
        kx, ky, kz = self.k
        return kx**2 + ky**2 + kz**2
