"""Spectral theory of the vorticity equation linearized at the shear
Omega* = Gamma cos y on [0, 2pi/alpha] x [0, 2pi].

The linearization block-diagonalizes over mode classes: for integers
(k1, k2) the span of e^{i(alpha k1 x + (k2+n) y)}, n in Z, is invariant.
Writing k_n = (alpha k1, k2 + n) and rho_n = 1 - 1/|k_n|^2, the sub-operator
acts tridiagonally,

    (A w)_n = -nu |k_n|^2 w_n
              + (Gamma alpha k1 / 2) (rho_{n-1} w_{n-1} - rho_{n+1} w_{n+1}),

which is the image of -{Psi*, .} - {Lap^{-1} ., Omega*} + nu Lap on the class.
The class is the lattice line of y wavenumbers m = k2 + n over all integers
(Meshalkin & Sinai; Li), so k2 only labels it: truncation keeps m in [-N, N]
(the window of (k1, 0)) for k1 != 0, m in [1 - N, 1 + N] without the mean
mode m = 0 (the window of (0, 1)) for k1 = 0, and n = m - k2.  For
k1 = 0 the operator is diagonal, -nu m^2, and its spectrum is its diagonal.

For k1 != 0 the window is symmetric in m and |k_m| = |k_{-m}|, so A commutes
with the signed reflection (P w)_m = (-1)^m w_{-m}.  In the coordinates
w_0..w_N its two sectors are sub-blocks of A: P = +1 is the trailing
(N+1)x(N+1) block with entry (0, 1) doubled (w_{-1} = -w_1), P = -1 the
trailing NxN block (w_0 = 0).  compute_spectrum solves the two blocks, a
quarter of the work of the full matrix.  A is non-normal, so the split moves
eigenvalues by rounding amplified by their conditioning: each lies within
m u ||A||_2 kappa_i of the full solve's (m the matrix size, u the unit
roundoff, kappa_i = ||x|| ||y|| / |y^H x| from the right and left
eigenvectors; the tests assert it at N = 16 and 40, and it held with a margin
of 1.8 at N = 150).

At nu = 0 every block T has a zero diagonal (|k_n|^2 > 0 on every row), so
it is bipartite: with rows ordered even then odd, T = [[0, B], [C, 0]], and
its eigenvalues are +/- sqrt(mu) for mu in eig(CB), plus p - q zeros (p even
rows, q = m // 2 odd ones).  CB is tridiagonal in the band products, built in
O(m), so an inviscid solve is one eigensolve of half the size, about a sixth
of the time; its values keep the bound above against the dense solve of T.

compute_spectrum assembles A by its three bands (assemble_suboperator) and
builds a dense block only for an eigensolve.  One pass of a scaled three-term
recurrence on the bands (continuant: the continued fraction of Meshalkin &
Sinai) gives the sign of det(A - lambda I) and its log-derivative in O(N).
nu* is the viscosity where det(A+) changes sign at lambda = 0, A+ the
P = +1 block of class (1,0): critical_viscosity bisects on that sign down to
adjacent doubles at N and at 2N, reports |nu*(2N) - nu*(N)| as the refine
delta, and confirms with two dense 2N solves at nu* -/+ tol/2 that the
crossing eigenvalue is real and rightmost.  The rightmost eigenvalue lambda(N)
of a spectrum is continued to 2N by Newton's method on the 2N recurrence of
its own block (refine_rightmost).  The root is kept only if Newton converged
and it lies within 1e-8 max(1, |lambda(N)|) of lambda(N); otherwise the class
is solved densely at 2N, since an under-resolved start may converge to an
eigenvalue other than the rightmost.

Zero-viscosity limits are studied by tracking eigenvalues along a descending,
log-even viscosity schedule (Python floats: numpy's SIMD level leaves them)
with optimal matching of each reflection sector on its own, and extrapolating
each trajectory to nu = 0; a near-tie is ambiguous only between values that
differ modulo conjugation.  Limits are labeled against the inviscid reference
spectrum: survival of an isolated point eigenvalue, condensation onto the
imaginary-axis cluster, or neither (the diagonal classes, whose spectra sweep
the negative real axis at every positive viscosity).  A limit condenses only
onto a nondegenerate cluster, and a class condenses when any trajectory does.

Every dense eigensolve is block_eigvals: LAPACK from the OpenBLAS that
numpy links, called through ctypes, with the bytes np.linalg.eigvals gives,
but without holding the GIL.  eigvals calls dgeev, which balances (dgebal),
reduces to Hessenberg form (dgehrd) and runs the QR of dhseqr; a tridiagonal
block is already Hessenberg, so block_eigvals calls dgebal and dhseqr as
dgeev does and skips dgehrd, except where balancing permutes the block out
of Hessenberg form or dgeev would scale it.  track_zero_viscosity, the one
pipeline behind zvtrack, therefore solves its schedule, then the inviscid
references at N and 2N, on one thread per CPU of the affinity mask (on the
calling thread when there is one CPU); the matching stays serial, in
schedule order, takes each spectrum as soon as it is solved, and the
payload does not depend on the number of CPUs.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import sys
from dataclasses import dataclass, field, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

from .errors import ComputationalError, ValidationError, usable_cpus

DEFAULT_GAMMA = 0.5  # shear amplitude used throughout the acceptance runs
AXIS_TOL = 1e-6  # |Re| below this counts as "on the imaginary axis"
TIE_TOL = 1e-12  # assignment ambiguity threshold
NEWTON_GAP = 1e-8  # a 2N Newton root is kept within this relative distance of lambda(N)
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class ModeClass:
    """Invariant class labeled by the x harmonic k1 and the y offset k2."""

    k1: int
    k2: int

    def __post_init__(self):
        if self.k1 == 0 and self.k2 == 0:
            raise ValidationError("the (0,0) class is the excluded mean mode")


@dataclass(frozen=True)
class Tridiagonal:
    """A tridiagonal matrix by its bands: diag[i] = A[i, i],
    lower[i] = A[i + 1, i] and upper[i] = A[i, i + 1]."""

    diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def dense(self) -> np.ndarray:
        A = np.diag(self.diag)
        i = np.arange(len(self.lower))
        A[i + 1, i] = self.lower
        A[i, i + 1] = self.upper
        return A

    def trailing(self, start: int) -> Tridiagonal:
        """The trailing principal block from row start on."""
        return Tridiagonal(self.diag[start:], self.lower[start:], self.upper[start:])


@dataclass(frozen=True)
class Spectrum:
    cls: ModeClass
    alpha: float
    gamma: float
    nu: float
    trunc: int
    values: np.ndarray  # sorted by descending real part, then descending imag
    sectors: np.ndarray = field(repr=False)  # block of each value: P = +1 or -1, or 0 for a diagonal (k1 = 0) class

    def blocks(self) -> list[np.ndarray]:
        """Indices of the values in each block of sectors."""
        return [np.flatnonzero(self.sectors == p) for p in np.unique(self.sectors)]


@dataclass(frozen=True)
class EulerSpectrum:
    """Inviscid reference: isolated point eigenvalues plus the imaginary cluster."""

    points: np.ndarray
    cluster: np.ndarray
    cluster_extent: float


@dataclass(frozen=True)
class EigTrajectory:
    nus: np.ndarray
    values: np.ndarray
    limit: complex
    label: str = "Unresolved"
    ambiguous: bool = False

    def record(self, cls: ModeClass) -> dict:
        """The JSON record of this trajectory of class cls, as zvtrack writes it."""
        return {
            "class": [cls.k1, cls.k2],
            "nus": self.nus.tolist(),
            "re": self.values.real.tolist(),
            "im": self.values.imag.tolist(),
            "label": self.label,
            "limit_re": float(self.limit.real),
            "limit_im": float(self.limit.imag),
        }


@dataclass(frozen=True)
class Classification:
    trajectories: list[EigTrajectory]
    class_label: str
    addition_set: list[complex]


def assemble_suboperator(cls: ModeClass, alpha: float, gamma: float, nu: float, trunc: int) -> Tridiagonal:
    """The truncated operator on one mode class, by its bands (float64: every
    entry is real), rows in ascending wavenumber m."""
    if alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    if nu < 0:
        raise ValidationError(f"nu must be nonnegative, got {nu}")
    if trunc < 1:
        raise ValidationError(f"trunc must be >= 1, got {trunc}")
    with np.errstate(all="ignore"):
        kx = np.float64(alpha * cls.k1) ** 2
        if cls.k1 and not (np.isfinite(kx) and np.isfinite(1.0 / kx)):
            raise ValidationError(f"alpha = {alpha!r}: (alpha k1)^2 or its reciprocal overflows at k1 = {cls.k1}")
    m = np.arange(-trunc, trunc + 1)  # the window of (k1, 0): wavenumbers in [-N, N]
    if cls.k1 == 0:
        m = m[m != -1] + 1  # the window of (0, 1): [1 - N, 1 + N] without the mean mode
    ksq = kx + m**2
    rho = 1.0 - 1.0 / ksq
    c = gamma * alpha * cls.k1 / 2.0
    return Tridiagonal(-nu * ksq, c * rho[:-1], -c * rho[1:])


def sector_blocks(cls: ModeClass, trunc: int, bands: Tridiagonal) -> dict[int, Tridiagonal]:
    """The blocks whose spectra make up the class spectrum, by parity: the
    P = +1 and P = -1 blocks for k1 != 0, else the diagonal operator whole
    (parity 0)."""
    if cls.k1 == 0:
        return {0: bands}
    even = bands.trailing(trunc)
    upper = even.upper.copy()
    upper[0] *= 2.0  # w_{-1} = -w_1
    return {1: replace(even, upper=upper), -1: bands.trailing(trunc + 1)}


# the LAPACK routines block_eigvals calls: how many string and pointer arguments
# each takes, in that order, before the lengths of its strings
_LAPACK = {
    "dgeev": (2, 12),  # jobvl, jobvr; n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork, info
    "dgebal": (1, 7),  # job; n, a, lda, ilo, ihi, scale, info
    "dhseqr": (2, 12),  # job, compz; n, ilo, ihi, h, ldh, wr, wi, z, ldz, work, lwork, info
}
# dgeev scales a block whose largest |entry| lies outside [_SAFE_NORM, 1 / _SAFE_NORM]
_SAFE_NORM = math.sqrt(_TINY) / _EPS


@functools.cache
def _lapack(name: str):
    """LAPACK's routine name from the OpenBLAS (ILP64) that np.linalg.eigvals
    calls, or None when numpy's library does not export it."""
    import ctypes

    try:
        routine = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), f"scipy_{name}_64_")
    except (AttributeError, OSError):
        return None
    strings, pointers = _LAPACK[name]
    routine.restype = None
    routine.argtypes = [ctypes.c_char_p] * strings + [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * strings
    return routine


def block_eigvals(t: Tridiagonal) -> np.ndarray:
    """np.linalg.eigvals(t.dense()), the same bytes, without holding the GIL.

    eigvals calls dgeev: a workspace query, then, with the optimal lwork,
    dgebal('B'), dgehrd and dhseqr.  dgehrd leaves a Hessenberg block as it
    is, so on a tridiagonal one this calls dgebal and dhseqr as dgeev does
    (dhseqr's deflation window depends on the lwork - n it is given), and
    dgeev itself where that would differ: a block dgeev scales, and one that
    balancing permutes out of Hessenberg form (an isolated interior column,
    |k_n| = 1, moves to the front).  The block is built in column order
    where LAPACK overwrites it.  Like numpy: LinAlgError for a non-finite
    block or nonzero info, and a real array when every imaginary part is
    zero.  Through ctypes the solve releases the GIL, so zvtrack's threads
    solve in parallel.
    """
    m = len(t.diag)
    dgeev, dgebal, dhseqr = map(_lapack, _LAPACK)
    if dgeev is None or m == 0:
        return np.linalg.eigvals(t.dense())

    def block():
        a = np.zeros(m * m)  # entry (i, j) at j m + i
        a[:: m + 1] = t.diag
        a[1 :: m + 1] = t.lower
        a[m :: m + 1] = t.upper
        return a

    a = block()
    if not np.isfinite(a).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    out = np.empty(3 * m + 1)  # wr, wi, dgebal's scale, then the workspace query
    ints = np.array([m, -1, 0, 0, 0], dtype=np.int64)  # n (also every leading dimension), lwork, info, ilo, ihi
    n, wr = ints.ctypes.data, out.ctypes.data  # addresses; the arrays outlive the calls
    lwork, info, ilo, ihi, wi, scale, query = n + 8, n + 16, n + 24, n + 32, wr + 8 * m, wr + 16 * m, wr + 24 * m

    def geev(a, work):
        dgeev(b"N", b"N", n, a.ctypes.data, n, wr, wi, query, n, query, n, work, lwork, info, 1, 1)

    geev(a, query)
    ints[1] = int(out[3 * m])
    work = np.empty(ints[1])
    norm = max(np.abs(b).max(initial=0.0) for b in (t.diag, t.lower, t.upper))
    if dgebal is None or dhseqr is None or not _SAFE_NORM <= norm <= 1.0 / _SAFE_NORM:
        geev(a, work.ctypes.data)
    else:
        dgebal(b"B", n, a.ctypes.data, n, ilo, ihi, scale, info, 1)
        # [ilo, ihi] is [1, n] unless rows or columns were isolated, and permuted
        if (ints[3], ints[4]) != (1, m) and np.tril(a.reshape(m, m).T, -2).any():
            geev(block(), work.ctypes.data)
        else:
            ints[1] -= m  # dgeev keeps the first n entries of its workspace for dgebal's scale
            dhseqr(b"E", b"N", n, ilo, ihi, a.ctypes.data, n, wr, wi, query, n, work.ctypes.data, lwork, info, 1, 1)
    if ints[2] != 0:
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    if not out[m : 2 * m].any():
        return out[:m]
    w = np.empty(m, dtype=np.complex128)
    w.real, w.imag = out[:m], out[m : 2 * m]  # not wr + 1j * wi, which can flip the sign of a zero
    return w


def parity_eigvals(t: Tridiagonal) -> np.ndarray:
    """Eigenvalues of a zero-diagonal block by the parity split of T^2; mu is
    made complex before its sqrt, as a negative mu is the pair +/- i sqrt(-mu)."""
    q = len(t.diag) // 2
    p = np.append(t.lower * t.upper, 0.0)
    a, b = slice(1, 2 * q - 2, 2), slice(2, 2 * q - 1, 2)  # bands 2j+1 and 2j+2 join odd rows 2j+1, 2j+3
    cb = Tridiagonal(p[: 2 * q : 2] + p[1 : 2 * q : 2], t.lower[a] * t.lower[b], t.upper[a] * t.upper[b])
    root = np.sqrt(block_eigvals(cb).astype(np.complex128))
    return np.concatenate([root, 0.0 - root, np.zeros(len(t.diag) - 2 * q)])  # 0 - root: no signed zeros


def compute_spectrum(cls: ModeClass, alpha: float, gamma: float, nu: float, trunc: int) -> Spectrum:
    """Eigenvalues of the truncated operator on one mode class, deterministically
    sorted: a k1 != 0 class is solved as its two reflection sectors, a nu = 0
    block by its parity split; a k1 = 0 class is diagonal, and its diagonal
    (+0.0 for nu = 0's signed zeros) is its spectrum, with no eigensolve."""
    blocks = sector_blocks(cls, trunc, assemble_suboperator(cls, alpha, gamma, nu, trunc))
    try:
        parts = [
            b.diag + 0.0 if p == 0 else block_eigvals(b) if b.diag.any() else parity_eigvals(b)
            for p, b in blocks.items()
        ]
    except np.linalg.LinAlgError as e:
        raise ComputationalError(f"eigensolver failed: {e}") from e
    vals = np.concatenate(parts, dtype=np.complex128)
    if not np.all(np.isfinite(vals)):
        raise ComputationalError("eigensolver produced non-finite eigenvalues")
    sectors = np.repeat(list(blocks), [len(v) for v in parts])
    order = np.lexsort((-vals.imag, -vals.real))
    return Spectrum(cls, alpha, gamma, nu, trunc, vals[order], sectors[order])


# ---------------------------------------------------------------------------
# the characteristic recurrence of a tridiagonal block


def continuant(t: Tridiagonal, lam) -> tuple[int, complex]:
    """Sign of det(T - lam I) (for real lam) and d/dlam log det(T - lam I),
    in one O(m) pass without forming T.

    The continuant f_k = (d_k - lam) f_{k-1} - l_{k-1} u_{k-1} f_{k-2} is run
    on the pivots r_k = f_k / f_{k-1}, so det = prod r_k neither overflows nor
    underflows; the log-derivative is sum r_k' / r_k, with r_k' = q_{k-1}
    r_{k-1}' / r_{k-1} - 1 and q_{k-1} = l_{k-1} u_{k-1} / r_{k-1}.  A pivot
    below pivmin in modulus is replaced by -pivmin, as LAPACK's dstebz does:
    an exact zero pivot (lam a diagonal entry of a decoupled row) then gives
    a huge finite pivot rather than 0/0.
    """
    prods = t.lower * t.upper
    pivmin = _TINY * max(1.0, float(np.max(np.abs(prods), initial=0.0)))
    negative, q, s, dlog = False, 0.0, 0.0, 0.0
    for d, p in zip(t.diag.tolist(), prods.tolist() + [0.0]):
        r = d - lam - q
        dr = q * s - 1.0
        if abs(r) < pivmin:
            r = -pivmin
        negative ^= r.real < 0
        s = dr / r
        dlog += s
        q = p / r
    return -1 if negative else 1, dlog


def newton_root(t: Tridiagonal, lam):
    """Newton's method on det(T - lam I) from lam: the root once a step falls
    to a few units of roundoff, or None if none did within eight steps."""
    mu = lam
    for _ in range(8):
        _, dlog = continuant(t, mu)
        if dlog == 0 or not cmath.isfinite(dlog):
            return None
        step = 1.0 / dlog
        mu = mu - step
        if abs(step) <= 4 * _EPS * max(1.0, abs(mu)):
            return mu
    return None


# ---------------------------------------------------------------------------
# closed forms from low truncations (first two continued-fraction stages)


def three_mode_nustar(alpha: float, gamma: float = DEFAULT_GAMMA) -> float:
    """Critical viscosity of the N=1 truncation (an upper estimate)."""
    if not (0 < alpha < 1):
        raise ValidationError("the unstable class requires 0 < alpha < 1")
    return gamma * math.sqrt((1 - alpha**2) / 2) / (alpha**2 + 1)


def critical_viscosity_bounds(
    alpha: float, gamma: float = DEFAULT_GAMMA
) -> tuple[float, float]:
    """Analytic bracket for the critical viscosity of class (1,0)."""
    radicand = 32 - 3 * alpha**6 - 17 * alpha**4 - 16 * alpha**2
    if not (alpha > 0 and radicand > 0):
        raise ValidationError(f"nu* needs 0 < alpha < 0.964399 (a positive 32 - 3a^6 - 17a^4 - 16a^2), got {alpha!r}")
    lo = gamma * math.sqrt(radicand) / (2 * (alpha**2 + 1) * (alpha**2 + 4))
    return lo, three_mode_nustar(alpha, gamma)


# ---------------------------------------------------------------------------
# rightmost eigenvalue and critical viscosity


def refine_rightmost(spec: Spectrum) -> tuple[complex, float]:
    """The rightmost eigenvalue lambda(N) of spec continued to 2N = 2*trunc,
    and |lambda(2N) - lambda(N)|.

    Newton runs from lambda(N) on the 2N recurrence of the block lambda(N)
    came from; its root is kept only if Newton converged within
    NEWTON_GAP * max(1, |lambda(N)|) of lambda(N).  Otherwise the class is
    solved densely at 2N: far from lambda(N), Newton may have found an
    eigenvalue other than the rightmost one.
    """
    lam = spec.values[0]
    n2 = 2 * spec.trunc
    bands = assemble_suboperator(spec.cls, spec.alpha, spec.gamma, spec.nu, n2)
    block = sector_blocks(spec.cls, n2, bands)[spec.sectors[0]]
    start = complex(lam) if lam.imag else float(lam.real)
    mu = newton_root(block, start)
    if mu is not None and abs(mu - start) <= NEWTON_GAP * max(1.0, abs(start)):
        return complex(mu), float(abs(mu - start))
    dense = compute_spectrum(spec.cls, spec.alpha, spec.gamma, spec.nu, n2).values[0]
    return complex(dense), float(abs(lam - dense))


@dataclass(frozen=True)
class NuStarResult:
    nu_star: float
    bracket: tuple[float, float]
    iterations: int
    refine_delta: float  # |nu*(2N) - nu*(N)|
    trunc: int


def truncated_nustar(alpha: float, gamma: float, trunc: int) -> tuple[float, int]:
    """nu* of the trunc truncation and the number of bisection steps.

    Bisects on the sign of det(A+) down to adjacent doubles, A+ the P = +1
    block of class (1,0).  A spectrum in the left half-plane gives det(A+) the
    sign (-1)^m (m rows: complex pairs have positive products), and the real
    unstable eigenvalue flips it.  Returns the smallest double found stable.
    """
    cls = ModeClass(1, 0)
    bands = assemble_suboperator(cls, alpha, gamma, 1.0, trunc)  # the diagonal -nu |k|^2 scales with nu
    even = sector_blocks(cls, trunc, bands)[1]
    left_sign = (-1) ** len(even.diag)

    def stable(nu):
        sign, _ = continuant(replace(even, diag=nu * even.diag), 0.0)
        return sign == left_sign

    lo_est, hi_est = critical_viscosity_bounds(alpha, gamma)
    lo, hi = 0.5 * lo_est, 1.5 * hi_est
    expand = 0
    while stable(lo):
        lo *= 0.5
        expand += 1
        if expand > 8:
            raise ComputationalError("no unstable viscosity found below the bracket")
    expand = 0
    while not stable(hi):
        hi *= 2.0
        expand += 1
        if expand > 8:
            raise ComputationalError("no stable viscosity found above the bracket")
    iters = 0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if stable(mid):
            hi = mid
        else:
            lo = mid
        iters += 1
    return hi, iters


def critical_viscosity(
    alpha: float,
    gamma: float = DEFAULT_GAMMA,
    trunc: int = 100,
    tol: float = 1e-6,
) -> NuStarResult:
    """Viscosity where the rightmost eigenvalue of class (1,0) crosses zero,
    at 2*trunc, with |nu*(2N) - nu*(N)| as its refine delta.

    The determinant sign cannot tell a real crossing from other changes in
    the spectrum, so two dense solves at nu* -/+ tol/2 must show the rightmost
    eigenvalue real, positive below and negative above; otherwise
    ComputationalError.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    ns_n, iters = truncated_nustar(alpha, gamma, trunc)
    ns_2n, _ = truncated_nustar(alpha, gamma, 2 * trunc)
    for nu, below in ((max(0.0, ns_2n - tol / 2), True), (ns_2n + tol / 2, False)):
        v = compute_spectrum(ModeClass(1, 0), alpha, gamma, nu, 2 * trunc).values[0]
        if v.imag != 0 or not (v.real > 0 if below else v.real < 0):
            raise ComputationalError(
                f"the rightmost eigenvalue at nu = {nu!r} is {complex(v)}: no real "
                f"crossing within tol = {tol!r} of nu* = {ns_2n!r}"
            )
    return NuStarResult(
        nu_star=ns_2n,
        bracket=critical_viscosity_bounds(alpha, gamma),
        iterations=iters,
        refine_delta=abs(ns_2n - ns_n),
        trunc=2 * trunc,
    )


# ---------------------------------------------------------------------------
# inviscid reference and zero-viscosity tracking


def euler_spectrum(cls: ModeClass, alpha: float, gamma: float = DEFAULT_GAMMA, trunc: int = 200) -> EulerSpectrum:
    """nu = 0 spectrum split into isolated points and the imaginary cluster.

    A point eigenvalue must sit off the axis (|Re| > 1e-6) and at least ten
    local spacings away from its nearest neighbor.
    """
    spec = compute_spectrum(cls, alpha, gamma, 0.0, trunc)
    vals = spec.values
    off_axis = np.abs(vals.real) > AXIS_TOL
    cluster = vals[~off_axis]
    points = []
    if np.any(off_axis):
        # local spacing from the cluster (fallback: off-axis mutual spacing)
        ref = cluster if len(cluster) > 1 else vals
        spacing = np.median(np.abs(np.diff(np.sort(ref.imag)))) if len(ref) > 1 else 0.0
        for v in vals[off_axis]:
            others = vals[np.abs(vals - v) > 0]
            nearest = np.min(np.abs(others - v)) if len(others) else np.inf
            if nearest > 10 * spacing:
                points.append(v)
    extent = float(np.max(np.abs(cluster.imag))) if len(cluster) else 0.0
    return EulerSpectrum(np.array(points), cluster, extent)


def linear_sum_assignment(cost):
    """``scipy.optimize.linear_sum_assignment`` (Crouse, IEEE TAES 52(4), 2016),
    the same function, loaded on the first call from its compiled module
    ``_lsap`` alone: importing ``scipy.optimize`` costs 0.5 s and 47 MB (scipy
    1.17.1).  An older layout without that module imports the public one."""
    return _assignment_solver()(cost)


@functools.cache
def _assignment_solver():
    name = "scipy.optimize._lsap"
    module = sys.modules.get(name)
    if module is None:
        optimize = os.path.join(find_spec("scipy").submodule_search_locations[0], "optimize")  # runs no init
        spec = FileFinder(optimize, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
        if spec is None:
            from scipy.optimize import linear_sum_assignment as solve
            return solve
        module = module_from_spec(spec)  # entered in sys.modules: a later import of scipy.optimize reuses it
        spec.loader.exec_module(module)
    return module.linear_sum_assignment


def _extrapolate_to_zero(nus: np.ndarray, vals: np.ndarray) -> complex:
    """Polynomial (Richardson) extrapolation through the last three points."""
    x = nus[-3:]
    y = vals[-3:]
    out = 0.0 + 0.0j
    for i in range(len(x)):
        li = 1.0
        for j in range(len(x)):
            if j != i:
                li *= (0.0 - x[j]) / (x[i] - x[j])
        out += y[i] * li
    return complex(out)


def viscosity_schedule(nu_max: float, nu_min: float, n: int) -> list[float]:
    """nu_max (nu_min/nu_max)^(i/(n-1)) for i < n, ending at nu_min exactly, in
    Python floats: numpy's SIMD level moves the last bits of np.geomspace's."""
    if not (0.0 < nu_min < nu_max):
        raise ValidationError("need 0 < nu_min < nu_max")
    if n < 3:
        raise ValidationError(f"n_nus must be >= 3, got {n}")
    if nu_min / nu_max == 0.0:
        raise ValidationError(f"nu_min / nu_max underflows to 0 ({nu_min!r} / {nu_max!r})")
    return [nu_max * (nu_min / nu_max) ** (i / (n - 1)) for i in range(n - 1)] + [nu_min]


def _on_every_cpu(calls: list):
    """call() for each of calls, in list order, as a generator: computed ahead
    on up to one thread per usable CPU (`errors.usable_cpus`), or one at a
    time as it is read when there is one CPU.

    map yields in list order, so the error raised is that of the first failing
    call, where the serial loop would raise it.  Close the generator when done
    with it: the calls not yet started are then cancelled, and leaving the pool
    joins its threads.  No thread starts before the first result is read.
    """
    cpus = usable_cpus()
    if cpus == 1:
        yield from (call() for call in calls)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(cpus) as pool:
        yield from pool.map(lambda call: call(), calls)


def track_spectra(nu_schedule, spectra) -> list[EigTrajectory]:
    """Follow every eigenvalue through the spectra of one class along a
    descending viscosity schedule, reading one spectrum per viscosity from
    the iterable spectra, each as it is needed.

    Consecutive spectra are matched block by block of Spectrum.sectors (the
    two reflection sectors of a k1 != 0 class), each by the assignment
    minimizing total squared displacement, in the order of the first spectrum.
    A trajectory is ambiguous when another target within cost tie TIE_TOL
    differs from the chosen mu and from conj(mu): the operator is real, so
    conjugates are one choice, as exact degeneracies are.
    """
    nus = np.asarray(nu_schedule, dtype=float)
    if len(nus) < 3:
        raise ValidationError("schedule needs at least three viscosities")
    if not np.all(np.diff(nus) < 0):
        raise ValidationError("schedule must be strictly decreasing")
    if nus[-1] <= 0:
        raise ValidationError("schedule must stay positive; nu = 0 is the reference")

    spectra = iter(spectra)
    spec = next(spectra)
    paths = np.empty((len(nus), len(spec.values)), dtype=np.complex128)
    paths[0] = spec.values
    ambiguous = np.zeros(paths.shape[1], dtype=bool)
    first = spec.blocks()
    for s in range(1, len(nus)):
        spec = next(spectra)
        for traj, block in zip(first, spec.blocks()):
            prev, target = paths[s - 1, traj], spec.values[block]
            cost = np.abs(prev[:, None] - target[None, :]) ** 2
            rows, cols = linear_sum_assignment(cost)
            i, k = np.nonzero(np.abs(cost[rows] - cost[rows, cols][:, None]) < TIE_TOL)
            mu, other = target[cols[i]], target[k]
            tie = (np.abs(other - mu) > TIE_TOL) & (np.abs(other - mu.conj()) > TIE_TOL)
            ambiguous[traj[rows[i[tie]]]] = True
            paths[s, traj[rows]] = target[cols]

    return [
        EigTrajectory(nus=nus, values=vals, limit=_extrapolate_to_zero(nus, vals), ambiguous=bool(amb))
        for vals, amb in zip(paths.T, ambiguous)
    ]


def track_zero_viscosity(
    cls: ModeClass,
    alpha: float,
    gamma: float,
    nu_schedule,
    trunc: int,
) -> tuple[list[EigTrajectory], EulerSpectrum, EulerSpectrum]:
    """(trajectories, euler, refined): every eigenvalue of a class followed
    along a descending viscosity schedule (track_spectra), and the inviscid
    reference euler_spectrum at trunc and 2 trunc, all solved on one pool
    (_on_every_cpu) ahead of the matching, which runs in schedule order."""
    nus = np.asarray(list(nu_schedule), dtype=float)
    calls = [functools.partial(compute_spectrum, cls, alpha, gamma, nu, trunc) for nu in nus]
    calls += [functools.partial(euler_spectrum, cls, alpha, gamma, n) for n in (trunc, 2 * trunc)]
    solved = _on_every_cpu(calls)
    try:
        return track_spectra(nus, solved), next(solved), next(solved)
    finally:
        solved.close()


def classify_limits(
    trajectories: list[EigTrajectory], euler: EulerSpectrum, tol: float = 0.02
) -> Classification:
    """Label each trajectory by where its extrapolated limit lands.

    Per trajectory: Persistence if the limit sits within tol of an isolated
    inviscid point eigenvalue, Condensation if within tol of a nondegenerate
    imaginary cluster (extent > tol), Singularity otherwise, Unresolved if the
    matching was ambiguous.  The diagonal classes collapse to the single point
    0 while their spectra sweep the negative real axis at every positive
    viscosity, which is exactly the Singularity phenomenon.

    The class label is the first of Persistence and Condensation that any
    trajectory has, else Unresolved if all are, else Singularity.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    ext = euler.cluster_extent
    labeled = []
    counts = {"Persistence": 0, "Condensation": 0, "Singularity": 0, "Unresolved": 0}
    for tr in trajectories:
        if tr.ambiguous:
            lab = "Unresolved"
        else:
            lim = tr.limit
            d_pt = (
                np.min(np.abs(euler.points - lim)) if len(euler.points) else np.inf
            )
            d_seg = math.hypot(lim.real, max(0.0, abs(lim.imag) - ext))
            if d_pt <= tol:
                lab = "Persistence"
            elif d_seg <= tol and ext > tol:
                lab = "Condensation"
            else:
                lab = "Singularity"
        counts[lab] += 1
        labeled.append(replace(tr, label=lab))
    if counts["Persistence"]:
        class_label = "Persistence"
    elif counts["Condensation"]:
        class_label = "Condensation"
    elif counts["Unresolved"] == len(labeled):
        class_label = "Unresolved"
    else:
        class_label = "Singularity"

    addition = []
    lims = np.array([t.limit for t in labeled])
    for p in euler.points:
        if not len(lims) or np.min(np.abs(lims - p)) > tol:
            addition.append(complex(p))
    if ext > tol and counts["Condensation"] == 0:
        # the whole segment went unattained; report its endpoints
        addition.extend([complex(0, -ext), complex(0, ext)])
    return Classification(labeled, class_label, addition)


def limits_summary(cl: Classification, euler: EulerSpectrum, refined: EulerSpectrum) -> dict:
    """zvtrack's header summary: label, addition set, the inviscid cluster extent at N and 2N, and lambda0
    (the largest real part of an isolated inviscid eigenvalue, or None) with |lambda0(2N) - lambda0(N)|."""
    lam0, lam0_ref = (max((v.real for v in ref.points), default=None) for ref in (euler, refined))
    return {
        "class_label": cl.class_label,
        "addition_set": [[v.real, v.imag] for v in cl.addition_set],
        "cluster_extent": euler.cluster_extent,
        "cluster_extent_refined": refined.cluster_extent,
        "lambda0": lam0,
        "lambda0_refine_delta": None if None in (lam0, lam0_ref) else abs(lam0 - lam0_ref),
    }
