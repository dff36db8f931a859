"""Periodic grids for the rectangular torus [0, 2pi/alpha] x [0, 2pi] and the
cube [0, 2pi]^3.

Fields are real, so a coefficient array is a half spectrum, as ``rfftn``
lays it out: numpy's FFT ordering on every axis but the last, which holds
only the modes 0..n/2.  A 2D coefficient array c[m, n] holds the amplitude
of exp(i(alpha*m*x + n*y)), n >= 0, so the x wavenumber of row m is alpha*m
with integer m.  Both grids give the ``shape`` of the grid values, the
``spectral_shape`` of a scalar's coefficients, the ``size`` and the transform
``axes``, which the one spectral field of ``fields`` works with, and
``dealias_slices``, the modes the dealias mask keeps and drops on each axis,
which its transforms use.  Grids are immutable; derived index arrays are
cached on first use.
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


def _wavenumbers(shape) -> list[np.ndarray]:
    # per axis, the mode numbers of a half spectrum, shaped to broadcast
    freqs = [_int_freqs(n) for n in shape[:-1]] + [np.arange(shape[-1] // 2 + 1)]
    return [f.astype(np.float64).reshape([-1 if a == b else 1 for b in range(len(shape))]) for a, f in enumerate(freqs)]


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
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of a scalar's half spectrum: the last axis holds modes 0..n/2."""
        return (*self.shape[:-1], self.shape[-1] // 2 + 1)

    @cached_property
    def k_squared(self) -> np.ndarray:
        return sum(kj**2 for kj in self.k)

    @cached_property
    def dealias_slices(self) -> tuple[tuple[tuple[slice, ...], slice], ...]:
        """Per spectral axis: the kept modes, as slices in FFT order (0..cut
        and n-cut..n-1; on the last, half axis 0..cut only), and the dropped
        modes after them."""
        # keep |m| <= floor(fraction * n/2), and never the Nyquist mode
        cuts = [min(int(np.floor(self.dealias_fraction * (n // 2))), n // 2 - 1) for n in self.shape]
        *full, (n, c) = zip(self.shape, cuts)
        return (
            *(((slice(0, c + 1), slice(n - c, n)), slice(c + 1, n - c)) for n, c in full),
            ((slice(0, c + 1),), slice(c + 1, n // 2 + 1)),
        )


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
    def k(self) -> tuple[np.ndarray, np.ndarray]:
        """Wavenumbers of a half spectrum, shaped to broadcast."""
        mx, ny = _wavenumbers(self.shape)
        return self.alpha * mx, ny

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
        """Wavenumbers of a half spectrum, shaped to broadcast."""
        return tuple(_wavenumbers(self.shape))
