"""The spectral field, the 2D spectral calculus, and field snapshots.

``SpectralField`` holds a real field on a ``grids.TorusGrid``, the box
[0, 2pi/alpha] x [0, 2pi]^(d-1) with d = 2 or 3, by its half spectrum,
``rfftn(values) / size``: a scalar, a vector, or any stack of them on leading
axes, which every transform and operator here batches over; the 3D vector
calculus built on it lives in ``fields3d``.  A complex-valued field is
carried as two real rows (re, im) on a leading axis: every operator is
real-linear in the field it acts on.

2D fields live on [0, 2pi/alpha] x [0, 2pi] in the vorticity formulation

    d/dt Omega + {Psi, Omega} = nu [Lap(Omega) + f(x)],   Omega = Lap(Psi),

with the Poisson bracket {f, g} = f_x g_y - f_y g_x and velocity
(u, v) = (-Psi_y, Psi_x).  All products are evaluated pseudo-spectrally and
dealiased with the grid's mask (2/3 rule by default, 1/2 rule when triple
products must be exact).  The (0,0) mode of every dynamical field is kept at
zero; stream functions are only defined for mean-zero vorticity.

Transforms to grid values are ``irfftn`` and skip lines that are exactly
zero; those back are ``rfftn`` and skip lines the dealias mask drops.  Both
equal numpy's but for the sign of a zero.  A half spectrum's zero column (and
its Nyquist column) must be conjugate-symmetric over the other axes: ``irfft``
silently drops the antisymmetric part, so a field built from coefficients by
hand must mirror them there.  The dealias cut never keeps the Nyquist mode.

Buffers: ``_inverse`` overwrites the array it is given (``physical`` gives it
a copy), and ``bracket_core`` writes only into gradients it computed itself.
``_inverse``, ``_forward_dealiased`` and ``gradient_values`` write their
result into the caller's ``out`` when given one (numpy.fft's ``out=``), and
``bracket_core`` and ``fields3d.advect_3d`` pass theirs on.  ``gradient_values``,
``bracket_core`` and ``advect_3d`` form their spectra and grid values in the
caller's ``work`` dict when given one: ``take`` keeps one array per name there
for every later call to reuse.  The caller owns both; the transport march
(``lax``) is the one caller that passes them.  Called without them, these
functions allocate as they go, and what they return is a new array that no
later call writes into.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .grids import TorusGrid
from .runio import write_atomic

MEAN_TOL = 1e-12
HERMITIAN_TOL = 1e-10  # relative: a snapshot's spectrum must be Hermitian to this


@dataclass(frozen=True)
class SpectralField:
    """A real field stored by its half spectrum (immutable).

    A scalar field has ``coeffs.shape == grid.spectral_shape``; a vector field
    has one component per dimension on a leading axis; a stack of fields has
    any leading axes, ``(..., *grid.spectral_shape)``.  The field keeps a
    read-only view of the caller's array, which stays writable.
    """

    grid: TorusGrid
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = self.grid.spectral_shape
        if self.coeffs.shape[self.coeffs.ndim - len(shape) :] != shape:
            raise ValidationError(
                f"coefficient shape {self.coeffs.shape} does not match grid {self.grid.shape} (half spectrum {shape})"
            )
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128).view()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def from_physical(cls, grid, values: np.ndarray) -> "SpectralField":
        """The field of real grid values; a complex field as (re, im) rows.

        The zero and Nyquist columns are made conjugate-symmetric to the bit.
        """
        c = np.fft.rfftn(values, axes=grid.axes)
        c /= grid.size
        c[..., [0, -1]] = 0.5 * (c[..., [0, -1]] + np.conj(c[_mirror(grid, [0, grid.shape[-1] // 2])]))
        return cls(grid, c)

    def physical(self) -> np.ndarray:
        """Grid values (real)."""
        return _inverse(self.grid, self.coeffs.copy())

    def mean(self):
        """The zero mode: a float, or an array of one per stacked field."""
        m = self.coeffs[_zero_mode(self.grid)].real
        return float(m) if m.ndim == 0 else m.copy()

    def norm_inf(self) -> float:
        v = self.physical()
        return float(np.max(np.abs(v, out=v)))

    def norm_l2(self) -> float:
        # sqrt of the mean square over the torus (Parseval); the interior
        # columns of a half spectrum stand for their mirror images too
        w = np.abs(self.coeffs) ** 2
        return float(np.sqrt(w.sum() + w[..., 1:-1].sum()))

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_grid(self, other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        if np.iscomplexobj(scalar):
            raise ValidationError("a real field times a complex number is not real; carry it as (re, im) rows")
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__


def complex_norm_inf(f: SpectralField) -> float:
    """sup |f| over the grid of a real scalar, or of re + i im for a complex
    scalar carried as (re, im) rows."""
    v = f.physical()
    return float(np.max(np.hypot(v[0], v[1]) if v.ndim > len(f.grid.shape) else np.abs(v)))


def _inverse(grid, c: np.ndarray, out=None) -> np.ndarray:
    """Grid values ``irfftn(c, grid.shape, norm="forward")`` over the grid
    axes (any leading axes), computed in c, which is overwritten, and
    written into ``out`` if one is given.

    As in ``irfftn`` the complex axes go first, in order, and the real
    transform of the last axis last.  Where an axis's dealiased-away modes are
    exactly zero, the axes before it skip the lines through them, which are
    zeros: only the sign of a zero can differ from ``irfftn``.
    """
    nd = len(grid.shape)
    lines = [
        (slice(None),) if c[(Ellipsis, dropped) + (slice(None),) * (nd - 1 - a)].any() else kept
        for a, (kept, dropped) in enumerate(grid.dealias_slices)
        if a > 0
    ]
    for a in range(nd - 1):
        for block in itertools.product(*lines[a:]):
            v = c[(Ellipsis,) + (slice(None),) * (a + 1) + block]
            np.fft.ifft(v, axis=a - nd, norm="forward", out=v)
    return np.fft.irfft(c, grid.shape[-1], axis=-1, norm="forward", out=out)


def _forward_dealiased(grid, x: np.ndarray, out=None) -> np.ndarray:
    """``np.where(mask, rfftn(x) / grid.size, 0)`` over the grid axes of real
    x (any leading axes), mean zeroed, written into ``out`` if one is given.
    As in ``rfftn`` the real transform of the last axis goes first and the
    complex axes follow from the back, in place; each skips the lines the
    mask drops on the axes done.
    """
    nd = len(grid.shape)
    c = np.fft.rfft(x, axis=-1, out=out)
    kept = [k for k, _ in grid.dealias_slices]
    for a in reversed(range(nd - 1)):
        for block in itertools.product(*kept[a + 1 :]):
            v = c[(Ellipsis,) + (slice(None),) * (a + 1) + block]
            np.fft.fft(v, axis=a - nd, out=v)
    for a, (_, dropped) in enumerate(grid.dealias_slices):
        c[(Ellipsis, dropped) + (slice(None),) * (nd - 1 - a)] = 0.0
    c /= grid.size
    c[_zero_mode(grid)] = 0.0
    return c


def take(work: dict | None, name: str, shape, dtype=complex) -> np.ndarray:
    """A work array of the given shape: a new one if work is None, else the
    array that work holds under name, allocated on first use and again,
    larger, when a call needs more.  Every take of one name shares its
    memory, so an operator takes a name again only when it is done with
    what it took before."""
    if work is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    a = work.get(name)
    if a is None or a.size < size:
        a = work[name] = np.empty(size, dtype)
    return a[:size].reshape(shape)


def gradient_values(f: SpectralField, out=None, work=None) -> np.ndarray:
    """Grid values of the gradient of f, direction first: ``(d, *f.coeffs.shape)``
    with the grid's shape for the spectral one, written into ``out`` if one
    is given; the gradient's spectra are formed in work's ``"spectra"``."""
    ik = take(work, "spectra", (len(f.grid.shape), *f.coeffs.shape))
    for j, kj in enumerate(f.grid.k):
        np.multiply(f.coeffs, 1j * kj, out=ik[j])
    return _inverse(f.grid, ik, out)


def _gradient(f: SpectralField, work, name: str) -> np.ndarray:
    # gradient_values of f, its values in work's array ``name``
    nd = len(f.grid.shape)
    return gradient_values(f, take(work, name, (nd, *f.coeffs.shape[:-nd], *f.grid.shape), float), work)


def _zero_mode(grid) -> tuple:
    # index of the (0, ..., 0) coefficient, of every field of a stack
    return (Ellipsis, *(0,) * len(grid.axes))


def _mirror(grid, columns) -> tuple:
    # index of the coefficients at -k of the given last-axis columns, every other axis reversed mod n
    return (Ellipsis, *np.ix_(*[(-np.arange(n)) % n for n in grid.shape[:-1]], np.asarray(columns)))


def _real_and_imag(grid, c: np.ndarray) -> np.ndarray:
    """Half spectra (re, im) of the complex field with full spectrum c:
    (c(k) + conj c(-k)) / 2 and (c(k) - conj c(-k)) / 2i."""
    n = grid.shape[-1]
    half, mirror = c[..., : n // 2 + 1], np.conj(c[_mirror(grid, (-np.arange(n // 2 + 1)) % n)])
    return np.stack([0.5 * (half + mirror), -0.5j * (half - mirror)])


def full_spectrum(f: SpectralField) -> np.ndarray:
    """``fftn(values) / size`` of f: its half spectrum, and as columns
    n/2+1..n-1 the mirror images conj c(-k) of columns n/2-1..1."""
    n = f.grid.shape[-1]
    return np.concatenate([f.coeffs, np.conj(f.coeffs[_mirror(f.grid, np.arange(n // 2 - 1, 0, -1))])], axis=-1)


def _check_same_grid(a, b):
    if a.grid != b.grid:
        raise ValidationError("fields live on different grids")


def require_mean_zero(f: SpectralField, name: str) -> None:
    mean = np.abs(f.mean()).max()
    if mean > MEAN_TOL:
        raise ValidationError(f"{name} must be mean-zero, got |mean| {mean:.3e}")


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


def bracket_core(
    f: SpectralField, g: SpectralField | None, f_grad=None, g_grad=None, out=None, work=None
) -> SpectralField:
    """{f, g} = f_x g_y - f_y g_x for a field f and a field or stack g.

    A caller may share ``gradient_values`` of f or g between brackets, and
    pass g as None with its gradient; a shared gradient is only read.  A
    caller that brackets again and again passes the spectrum's ``out`` and
    a ``work`` dict (see ``take``) for the gradients it computes.
    """
    if g is not None:
        _check_same_grid(f, g)
    fx, fy = _gradient(f, work, "f values") if f_grad is None else f_grad
    if g_grad is None:  # no one else holds g's gradient: form the products in it
        gx, prod = _gradient(g, work, "g values")
        prod *= fx
        prod -= np.multiply(gx, fy, out=gx)
    elif f_grad is None and fx.shape == g_grad[0].shape:  # nor f's: form them there
        prod = np.multiply(fx, g_grad[1], out=fx)
        prod -= np.multiply(fy, g_grad[0], out=fy)
    else:  # one temporary; the second product lives only until subtracted
        prod = fx * g_grad[1]
        prod -= fy * g_grad[0]
    return SpectralField(f.grid, _forward_dealiased(f.grid, prod, out))


def random_real_field(
    grid: TorusGrid, kmax: int, rng: np.random.Generator, amplitude: float = 1.0
) -> SpectralField:
    """Random mean-zero real trig polynomial with every |m_i| <= kmax, sup-norm ~ amplitude.

    Complex coefficients are drawn on the full spectrum's low modes, in C
    order; the field is their real part.
    """
    c = np.zeros(grid.shape, dtype=np.complex128)
    low = grid.low_modes(kmax)
    c[low] = rng.standard_normal(low.sum()) + 1j * rng.standard_normal(low.sum())
    c.flat[0] = 0.0
    return _scaled(SpectralField(grid, _real_and_imag(grid, c)[0]), amplitude)


def _scaled(f: SpectralField, amplitude: float, norm=SpectralField.norm_inf) -> SpectralField:
    scale = norm(f)
    return f if scale == 0.0 else f * (amplitude / scale)


# ---------------------------------------------------------------------------
# field snapshots on disk


def save_field(path, f: SpectralField) -> None:
    """Write a versioned JSON snapshot of a 2D or 3D, scalar or vector field:
    its full spectrum, ``fftn(values) / size``, mirrored from the half one."""
    g = f.grid
    lead = f.coeffs.shape[: f.coeffs.ndim - len(g.shape)]
    if lead not in ((), (len(g.shape),)):  # what load_field would refuse
        raise ValidationError(f"a field snapshot holds a scalar or a {len(g.shape)}-vector, not a {lead} stack")
    flat = full_spectrum(f).reshape(-1)
    snapshot = {
        "version": 1,
        "kind": f"field{len(g.shape)}d",
        "grid": {"alpha": g.alpha, **dict(zip(("nx", "ny", "nz"), g.shape))},
        "layout": "row-major, last index fastest",
        "components": flat.size // g.size,
        "re": flat.real.tolist(),
        "im": flat.imag.tolist(),
    }
    if not np.all(np.isfinite(flat)):  # what load_field would refuse
        raise ValidationError("non-finite coefficients: a field snapshot is strict JSON")
    write_atomic(path, [json.dumps(snapshot, allow_nan=False)])


def load_field(path) -> SpectralField:
    """Read a ``save_field`` snapshot; a malformed one, or one that is not a
    real field (a Hermitian full spectrum), raises ValidationError."""
    try:
        with open(path) as fh:
            d = json.load(fh)
        if d.get("version") != 1:
            raise ValidationError(f"unsupported version {d.get('version')}")
        axes = {"field2d": "xy", "field3d": "xyz"}.get(d["kind"])
        if axes is None:
            raise ValidationError(f"unknown kind {d['kind']!r}")
        grid = TorusGrid(tuple(d["grid"]["n" + a] for a in axes), d["grid"]["alpha"])
        comps = d.get("components", 1)
        if comps not in (1, len(grid.shape)):
            raise ValidationError(f"{comps} components, not 1 or {len(grid.shape)}")
        lead = () if comps == 1 else (comps,)
        flat = np.array(d["re"], dtype=np.float64) + 1j * np.array(d["im"], dtype=np.float64)
        if not np.all(np.isfinite(flat)):
            raise ValidationError("non-finite coefficients")
        re, im = _real_and_imag(grid, flat.reshape(*lead, *grid.shape))
        worst = np.max(np.abs(im))
        if worst > HERMITIAN_TOL * max(1.0, np.max(np.abs(flat))):
            raise ValidationError(f"not a real field (spectrum not Hermitian by {worst:.3e})")
        return SpectralField(grid, re)
    except ValidationError as exc:
        raise ValidationError(f"field snapshot {path}: {exc}") from None
    except KeyError as exc:
        raise ValidationError(f"field snapshot {path} has no key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:  # JSON errors are ValueErrors
        raise ValidationError(f"malformed field snapshot {path}: {exc}") from None
