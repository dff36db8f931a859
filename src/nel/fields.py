"""Spectral calculus for scalar fields on the rectangular torus.

Fields live on [0, 2pi/alpha] x [0, 2pi] in the 2D vorticity formulation

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
from .grids import TorusGrid2D

MEAN_TOL = 1e-12
HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class SpectralField2D:
    """A scalar field stored by its Fourier coefficients (immutable)."""

    grid: TorusGrid2D
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.nx, self.grid.ny):
            raise ValidationError(
                f"coefficient shape {self.coeffs.shape} does not match grid "
                f"({self.grid.nx}, {self.grid.ny})"
            )
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_physical(cls, grid: TorusGrid2D, values: np.ndarray) -> "SpectralField2D":
        values = np.asarray(values)
        if values.shape != (grid.nx, grid.ny):
            raise ValidationError(
                f"value shape {values.shape} does not match grid ({grid.nx}, {grid.ny})"
            )
        return cls(grid, np.fft.fft2(values) / (grid.nx * grid.ny))

    @classmethod
    def zero(cls, grid: TorusGrid2D) -> "SpectralField2D":
        return cls(grid, np.zeros((grid.nx, grid.ny), dtype=np.complex128))

    def physical(self) -> np.ndarray:
        """Grid values; complex in general, take .real for Hermitian fields."""
        n = self.grid.nx * self.grid.ny
        return np.fft.ifft2(self.coeffs) * n

    def hermitian_error(self) -> float:
        c = self.coeffs
        return float(np.max(np.abs(c - np.conj(c[_rev(self.grid)]))))

    def is_real(self, tol: float = HERMITIAN_TOL) -> bool:
        return self.hermitian_error() <= tol

    def mean(self) -> complex:
        return complex(self.coeffs[0, 0])

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.physical())))

    def norm_l2(self) -> float:
        # sqrt of the mean square over the torus (Parseval)
        return float(np.sqrt(np.sum(np.abs(self.coeffs) ** 2)))

    def __add__(self, other: "SpectralField2D") -> "SpectralField2D":
        _check_same_grid(self, other)
        return SpectralField2D(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField2D") -> "SpectralField2D":
        _check_same_grid(self, other)
        return SpectralField2D(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField2D":
        return SpectralField2D(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def _rev(grid: TorusGrid2D):
    # index map m -> -m mod n on both axes
    ix = (-np.arange(grid.nx)) % grid.nx
    iy = (-np.arange(grid.ny)) % grid.ny
    return np.ix_(ix, iy)


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValidationError("fields live on different grids")


def hermitianize(f: SpectralField2D) -> SpectralField2D:
    c = f.coeffs
    return SpectralField2D(f.grid, 0.5 * (c + np.conj(c[_rev(f.grid)])))


def project_mean(f: SpectralField2D) -> SpectralField2D:
    c = f.coeffs.copy()
    c[0, 0] = 0.0
    return SpectralField2D(f.grid, c)


def dealias(f: SpectralField2D) -> SpectralField2D:
    return SpectralField2D(f.grid, np.where(f.grid.dealias_mask, f.coeffs, 0.0))


def dx(f: SpectralField2D) -> SpectralField2D:
    return SpectralField2D(f.grid, f.coeffs * (1j * f.grid.kx))


def dy(f: SpectralField2D) -> SpectralField2D:
    return SpectralField2D(f.grid, f.coeffs * (1j * f.grid.ky))


def laplacian(f: SpectralField2D) -> SpectralField2D:
    return SpectralField2D(f.grid, f.coeffs * (-f.grid.k_squared))


def invert_laplacian(f: SpectralField2D) -> SpectralField2D:
    """Solve Lap(psi) = f for mean-zero f; the mean mode of psi is set to 0."""
    if abs(f.mean()) > MEAN_TOL:
        raise ValidationError(
            f"invert_laplacian requires a mean-zero field, got mean {f.mean():.3e}"
        )
    k2 = f.grid.k_squared.copy()
    k2[0, 0] = 1.0  # avoid 0/0; the mean row is zeroed below
    c = f.coeffs / (-k2)
    c[0, 0] = 0.0
    return SpectralField2D(f.grid, c)


def bracket_core(f: SpectralField2D, g: SpectralField2D) -> SpectralField2D:
    """{f, g} = f_x g_y - f_y g_x for fields of any (complex) value type."""
    _check_same_grid(f, g)
    fx = dx(f).physical()
    fy = dy(f).physical()
    gx = dx(g).physical()
    gy = dy(g).physical()
    out = SpectralField2D.from_physical(f.grid, fx * gy - fy * gx)
    return project_mean(dealias(out))


def bracket(f: SpectralField2D, g: SpectralField2D) -> SpectralField2D:
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


def velocity_from_stream(psi: SpectralField2D):
    """(u, v) = (-psi_y, psi_x)."""
    return dy(psi) * (-1.0), dx(psi)


def ns_rhs_2d(
    omega: SpectralField2D, nu: float, forcing: SpectralField2D
) -> SpectralField2D:
    """Right side of the vorticity equation: -{Psi, Omega} + nu [Lap(Omega) + f].

    The forcing f is a full-space field on the same grid.  Both omega and f
    must be mean-zero so the mean mode stays exactly zero.
    """
    _check_same_grid(omega, forcing)
    if nu < 0:
        raise ValidationError(f"viscosity must be nonnegative, got {nu}")
    for name, h in (("omega", omega), ("forcing", forcing)):
        if abs(h.mean()) > MEAN_TOL:
            raise ValidationError(f"{name} must be mean-zero, got {h.mean():.3e}")
    psi = invert_laplacian(omega)
    adv = bracket_core(psi, omega)
    visc = (laplacian(omega) + forcing) * nu
    return project_mean(visc - adv)


def random_real_field(
    grid: TorusGrid2D, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> SpectralField2D:
    """Random mean-zero real trig polynomial with |m|,|n| <= kmax, sup-norm ~ amplitude."""
    c = np.zeros((grid.nx, grid.ny), dtype=np.complex128)
    mx = grid.mx[:, 0]
    my = grid.ny_modes[0, :]
    sel_x = np.abs(mx) <= kmax
    sel_y = np.abs(my) <= kmax
    block = rng.standard_normal((sel_x.sum(), sel_y.sum())) + 1j * rng.standard_normal(
        (sel_x.sum(), sel_y.sum())
    )
    c[np.ix_(sel_x, sel_y)] = block
    c[0, 0] = 0.0
    f = hermitianize(SpectralField2D(grid, c))
    scale = f.norm_inf()
    if scale == 0.0:
        return f
    return f * (amplitude / scale)


# ---------------------------------------------------------------------------
# field snapshots on disk


def field_to_json_dict(f) -> dict:
    """Versioned snapshot for 2D scalar or 3D scalar/vector fields."""
    kind = "field2d" if isinstance(f, SpectralField2D) else "field3d"
    if kind == "field2d":
        g = {"alpha": f.grid.alpha, "nx": f.grid.nx, "ny": f.grid.ny}
        comps = 1
    else:
        g = {"alpha": 1.0, "nx": f.grid.nx, "ny": f.grid.ny, "nz": f.grid.nz}
        comps = 3 if f.coeffs.ndim == 4 else 1
    flat = f.coeffs.reshape(-1)
    return {
        "version": 1,
        "kind": kind,
        "grid": g,
        "layout": "row-major, last index fastest",
        "components": comps,
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }


def save_field(path, f) -> None:
    with open(path, "w") as fh:
        json.dump(field_to_json_dict(f), fh)


def load_field(path):
    from . import fields3d  # local import to avoid a cycle

    with open(path) as fh:
        d = json.load(fh)
    if d.get("version") != 1:
        raise ValidationError(f"unsupported field snapshot version {d.get('version')}")
    g = d["grid"]
    flat = np.array(d["re"], dtype=np.float64) + 1j * np.array(d["im"], dtype=np.float64)
    if d["kind"] == "field2d":
        grid = TorusGrid2D(alpha=g["alpha"], nx=g["nx"], ny=g["ny"])
        return SpectralField2D(grid, flat.reshape(g["nx"], g["ny"]))
    if d["kind"] == "field3d":
        grid3 = fields3d.TorusGrid3D(nx=g["nx"], ny=g["ny"], nz=g["nz"])
        shape = (g["nx"], g["ny"], g["nz"])
        if d.get("components", 1) == 3:
            return fields3d.VectorField3D(grid3, flat.reshape((3, *shape)))
        return fields3d.ScalarField3D(grid3, flat.reshape(shape))
    raise ValidationError(f"unknown field snapshot kind {d['kind']!r}")
