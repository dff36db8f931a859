"""The spectral field, the 2D spectral calculus, and field snapshots.

``SpectralField`` holds a scalar or a vector field on a periodic grid
(``TorusGrid2D`` or ``TorusGrid3D``) by its Fourier coefficients; the 3D
vector calculus built on it lives in ``fields3d``.

2D fields live on [0, 2pi/alpha] x [0, 2pi] in the vorticity formulation

    d/dt Omega + {Psi, Omega} = nu [Lap(Omega) + f(x)],   Omega = Lap(Psi),

with the Poisson bracket {f, g} = f_x g_y - f_y g_x and velocity
(u, v) = (-Psi_y, Psi_x).  All products are evaluated pseudo-spectrally and
dealiased with the grid's mask (2/3 rule by default, 1/2 rule when triple
products must be exact).  The (0,0) mode of every dynamical field is kept at
zero; stream functions are only defined for mean-zero vorticity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grids import TorusGrid2D, TorusGrid3D

MEAN_TOL = 1e-12
HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class SpectralField:
    """A field stored by its Fourier coefficients (immutable).

    A scalar field has ``coeffs.shape == grid.shape``; a vector field has one
    component per dimension on a leading axis, ``(len(grid.shape), *grid.shape)``.
    """

    grid: TorusGrid2D | TorusGrid3D
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = self.grid.shape
        if self.coeffs.shape not in (shape, (len(shape), *shape)):
            raise ValidationError(
                f"coefficient shape {self.coeffs.shape} does not match grid {shape}"
            )
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_physical(cls, grid, values: np.ndarray) -> "SpectralField":
        return cls(grid, np.fft.fftn(values, axes=grid.axes) / grid.size)

    def physical(self) -> np.ndarray:
        """Grid values; complex in general, take .real for Hermitian fields."""
        return np.fft.ifftn(self.coeffs, axes=self.grid.axes) * self.grid.size

    def hermitian_error(self) -> float:
        return float(np.max(np.abs(self.coeffs - _conj_reversed(self))))

    def is_real(self, tol: float = HERMITIAN_TOL) -> bool:
        return self.hermitian_error() <= tol

    def mean(self):
        """The zero mode: a complex, or an array of one per component."""
        m = self.coeffs[_zero_mode(self.grid)]
        return complex(m) if m.ndim == 0 else m.copy()

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.physical())))

    def norm_l2(self) -> float:
        # sqrt of the mean square over the torus (Parseval)
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _zero_mode(grid) -> tuple:
    # index of the (0, ..., 0) coefficient, of every component of a vector
    return (Ellipsis, *(0,) * len(grid.axes))


def _conj_reversed(f: SpectralField) -> np.ndarray:
    # conj(c) at -m mod n on every axis: equals c for a real field
    rev = np.ix_(*[(-np.arange(n)) % n for n in f.grid.shape])
    return np.conj(f.coeffs[(Ellipsis, *rev)])


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValidationError("fields live on different grids")


def require_mean_zero(f: SpectralField, name: str) -> None:
    mean = np.abs(f.mean()).max()
    if mean > MEAN_TOL:
        raise ValidationError(f"{name} must be mean-zero, got |mean| {mean:.3e}")


def hermitianize(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, 0.5 * (f.coeffs + _conj_reversed(f)))


def project_mean(f: SpectralField) -> SpectralField:
    c = f.coeffs.copy()
    c[_zero_mode(f.grid)] = 0.0
    return SpectralField(f.grid, c)


def dealias(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, np.where(f.grid.dealias_mask, f.coeffs, 0.0))


def laplacian(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * (-f.grid.k_squared))


def invert_laplacian(f: SpectralField) -> SpectralField:
    """Solve Lap(psi) = f for mean-zero f; the mean mode of psi is set to 0."""
    require_mean_zero(f, "the input of invert_laplacian")
    zero = _zero_mode(f.grid)
    k2 = f.grid.k_squared.copy()
    k2[zero] = 1.0  # avoid 0/0; the mean row is zeroed below
    c = f.coeffs / (-k2)
    c[zero] = 0.0
    return SpectralField(f.grid, c)


def dx(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * (1j * f.grid.kx))


def dy(f: SpectralField) -> SpectralField:
    return SpectralField(f.grid, f.coeffs * (1j * f.grid.ky))


def bracket_core(f: SpectralField, g: SpectralField) -> SpectralField:
    """{f, g} = f_x g_y - f_y g_x for fields of any (complex) value type."""
    _check_same_grid(f, g)
    fx = dx(f).physical()
    fy = dy(f).physical()
    gx = dx(g).physical()
    gy = dy(g).physical()
    out = SpectralField.from_physical(f.grid, fx * gy - fy * gx)
    return project_mean(dealias(out))


def bracket(f: SpectralField, g: SpectralField) -> SpectralField:
    """Poisson bracket of two real-valued fields.

    Mean-zero and dealiased by construction; raises if either input fails the
    Hermitian-symmetry (realness) check.
    """
    for name, h in (("f", f), ("g", g)):
        if not h.is_real():
            raise ValidationError(
                f"bracket argument {name} is not real-valued "
                f"(Hermitian error {h.hermitian_error():.3e})"
            )
    return hermitianize(bracket_core(f, g))


def velocity_from_stream(psi: SpectralField):
    """(u, v) = (-psi_y, psi_x)."""
    return dy(psi) * (-1.0), dx(psi)


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


def random_real_field(
    grid: TorusGrid2D, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> SpectralField:
    """Random mean-zero real trig polynomial with |m|,|n| <= kmax, sup-norm ~ amplitude."""
    c = np.zeros(grid.shape, dtype=np.complex128)
    sel_x = np.abs(grid.mx[:, 0]) <= kmax
    sel_y = np.abs(grid.ny_modes[0, :]) <= kmax
    shape = (sel_x.sum(), sel_y.sum())
    c[np.ix_(sel_x, sel_y)] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c[0, 0] = 0.0
    return _scaled(hermitianize(SpectralField(grid, c)), amplitude)


def _scaled(f: SpectralField, amplitude: float) -> SpectralField:
    scale = f.norm_inf()
    return f if scale == 0.0 else f * (amplitude / scale)


# ---------------------------------------------------------------------------
# field snapshots on disk


def save_field(path, f: SpectralField) -> None:
    """Write a versioned JSON snapshot of a 2D or 3D, scalar or vector field."""
    g = f.grid
    flat = f.coeffs.reshape(-1)
    snapshot = {
        "version": 1,
        "kind": f"field{len(g.shape)}d",
        "grid": {"alpha": getattr(g, "alpha", 1.0), **dict(zip(("nx", "ny", "nz"), g.shape))},
        "layout": "row-major, last index fastest",
        "components": f.coeffs.size // g.size,
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(snapshot, fh)


def load_field(path) -> SpectralField:
    """Read a ``save_field`` snapshot; a malformed one raises ValidationError."""
    try:
        with open(path) as fh:
            d = json.load(fh)
        if d.get("version") != 1:
            raise ValidationError(f"unsupported field snapshot version {d.get('version')}")
        g = d["grid"]
        if d["kind"] == "field2d":
            grid = TorusGrid2D(alpha=g["alpha"], nx=g["nx"], ny=g["ny"])
        elif d["kind"] == "field3d":
            grid = TorusGrid3D(nx=g["nx"], ny=g["ny"], nz=g["nz"])
        else:
            raise ValidationError(f"unknown field snapshot kind {d['kind']!r}")
        comps = d.get("components", 1)
        flat = np.array(d["re"], dtype=np.float64) + 1j * np.array(d["im"], dtype=np.float64)
        return SpectralField(grid, flat.reshape(grid.shape if comps == 1 else (comps, *grid.shape)))
    except KeyError as exc:
        raise ValidationError(f"field snapshot {path} has no key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:  # JSON errors are ValueErrors
        raise ValidationError(f"malformed field snapshot {path}: {exc}") from None
