"""The periodic grid of the box [0, 2pi/alpha] x [0, 2pi]^(d-1), d = 2 or 3.

A grid is its ``shape``, the x period 2pi/alpha and its dealias fraction;
the command line's 3D grids are cubes (alpha = 1, equal sizes).  Fields are
real, so a coefficient array is a half spectrum, as ``rfftn`` lays it out:
numpy's FFT ordering on every axis but the last, which holds only the modes
0..n/2.  c[m, n] holds the amplitude of exp(i(alpha*m*x + n*y)), and
c[m, n, l] that of exp(i(alpha*m*x + n*y + l*z)).  Besides the sizes, a grid
gives the transform ``axes``, the wavenumbers ``k``, ``dealias_slices``, the
modes its dealias mask keeps and drops on each axis, and ``low_modes``, the
modes the random fields are drawn on.  Grids are immutable; derived arrays
are cached on first use.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import ValidationError

DEALIAS_DEFAULT = 2.0 / 3.0


def _int_freqs(n: int) -> np.ndarray:
    # integer mode numbers in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1
    return (np.arange(n) + n // 2) % n - n // 2


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid on [0, 2pi/alpha] x [0, 2pi]^(d-1), d = len(shape) = 2 or 3."""

    shape: tuple[int, ...]
    alpha: float = 1.0
    dealias_fraction: float = DEALIAS_DEFAULT

    def __post_init__(self):
        if len(self.shape) not in (2, 3):
            raise ValidationError(f"a grid has 2 or 3 axes, got shape {self.shape}")
        if any(n < 4 or n % 2 != 0 for n in self.shape):
            raise ValidationError(f"grid sizes must be even and >= 4, got shape {self.shape}")
        if not self.alpha > 0.0:
            raise ValidationError(f"alpha must be positive, got {self.alpha}")
        if not (0.0 < self.dealias_fraction <= 1.0):
            raise ValidationError(f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}")

    @cached_property
    def axes(self) -> tuple[int, ...]:
        """The transform axes of a coefficient array: its last len(shape)."""
        return tuple(range(-len(self.shape), 0))

    @cached_property
    def size(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def spectral_shape(self) -> tuple[int, ...]:
        """Shape of a scalar's half spectrum: the last axis holds modes 0..n/2."""
        return (*self.shape[:-1], self.shape[-1] // 2 + 1)

    @cached_property
    def k(self) -> tuple[np.ndarray, ...]:
        """Wavenumbers of a half spectrum, shaped to broadcast: alpha*m along x."""
        modes = np.ix_(*(_int_freqs(n) for n in self.shape[:-1]), np.arange(self.shape[-1] // 2 + 1))
        return tuple((self.alpha if a == 0 else 1.0) * m.astype(np.float64) for a, m in enumerate(modes))

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

    def low_modes(self, kmax: int, nyquist: bool = True) -> np.ndarray:
        """Mask of the full spectrum (``fftn`` layout) where |m_i| <= kmax on
        every axis, and |m_i| < n_i/2 without the Nyquist modes; its first
        n/2+1 columns are the half spectrum's."""
        if kmax < 1:
            raise ValidationError(f"kmax must be >= 1, got {kmax}")
        modes = np.ix_(*(np.abs(_int_freqs(n)) for n in self.shape))
        caps = [kmax if nyquist else min(kmax, n // 2 - 1) for n in self.shape]
        return reduce(operator.and_, (m <= c for m, c in zip(modes, caps)))
