"""Spectral theory of the vorticity equation linearized at the shear
Omega* = Gamma cos y on [0, 2pi/alpha] x [0, 2pi].

The linearization block-diagonalizes over mode classes: for integers
(k1, k2) the span of e^{i(alpha k1 x + (k2+n) y)}, n in Z, is invariant.
Writing k_n = (alpha k1, k2 + n) and rho_n = 1 - 1/|k_n|^2, the sub-operator
acts tridiagonally,

    (A w)_n = -nu |k_n|^2 w_n
              + (Gamma alpha k1 / 2) (rho_{n-1} w_{n-1} - rho_{n+1} w_{n+1}),

which is the image of -{Psi*, .} - {Lap^{-1} ., Omega*} + nu Lap on the class.
Truncation keeps n in [-N, N]; the (0,0) wavevector (n = -k2 when k1 = 0) is
excluded.  A finite-difference Jacobian of the nonlinear right side serves as
an independent oracle for the assembled matrix.

For k2 = 0 the window is symmetric and |k_n| = |k_{-n}|, so A commutes with
the signed reflection (P w)_n = (-1)^n w_{-n}.  In the coordinates w_0..w_N
its two sectors are sub-blocks of A: P = +1 is the trailing (N+1)x(N+1) block
with entry (0, 1) doubled (w_{-1} = -w_1), P = -1 the trailing NxN block
(w_0 = 0).  compute_spectrum solves the two blocks, a quarter of the work of
the full matrix; classes with k2 != 0 have no such symmetry and keep the full
solve.  A is non-normal, so the split moves eigenvalues by rounding amplified
by their conditioning: each lies within m u ||A||_2 kappa_i of the full
solve's (m the matrix size, u the unit roundoff, kappa_i = ||x|| ||y|| /
|y^H x| from the right and left eigenvectors; the tests assert it at N = 16
and 40, and it held with a margin of 1.8 at N = 150).

Zero-viscosity limits are studied by tracking eigenvalues along a descending
viscosity schedule with globally optimal matching and extrapolating each
trajectory to nu = 0.  Limits are labeled against the inviscid reference
spectrum: survival of an isolated point eigenvalue, condensation onto the
imaginary-axis cluster, or neither (the diagonal classes, whose spectra sweep
the negative real axis at every positive viscosity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ComputationalError, ValidationError
from .fields import SpectralField, ns_rhs_2d
from .grids import TorusGrid2D

DEFAULT_GAMMA = 0.5  # shear amplitude used throughout the acceptance runs
AXIS_TOL = 1e-6  # |Re| below this counts as "on the imaginary axis"
TIE_TOL = 1e-12  # assignment ambiguity threshold


@dataclass(frozen=True)
class ModeClass:
    """Invariant class labeled by the x harmonic k1 and the y offset k2."""

    k1: int
    k2: int

    def __post_init__(self):
        if self.k1 == 0 and self.k2 == 0:
            raise ValidationError("the (0,0) class is the excluded mean mode")


@dataclass(frozen=True)
class SubOperator:
    cls: ModeClass
    alpha: float
    gamma: float
    nu: float
    trunc: int
    offsets: tuple[int, ...]  # n values in row order
    matrix: np.ndarray = field(repr=False)

    def index_of(self, n: int) -> int:
        return self.offsets.index(n)


@dataclass(frozen=True)
class Spectrum:
    cls: ModeClass
    alpha: float
    gamma: float
    nu: float
    trunc: int
    values: np.ndarray  # sorted by descending real part, then descending imag


@dataclass(frozen=True)
class EulerSpectrum:
    """Inviscid reference: isolated point eigenvalues plus the imaginary cluster."""

    spectrum: Spectrum
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
            "nus": [float(nu) for nu in self.nus],
            "re": [float(v.real) for v in self.values],
            "im": [float(v.imag) for v in self.values],
            "label": self.label,
            "limit_re": float(self.limit.real),
            "limit_im": float(self.limit.imag),
        }


@dataclass(frozen=True)
class Classification:
    trajectories: list[EigTrajectory]
    class_label: str
    addition_set: list[complex]
    cluster_extent: float


def _validate_params(alpha: float, gamma: float, nu: float, trunc: int):
    if alpha <= 0:
        raise ValidationError(f"alpha must be positive, got {alpha}")
    if nu < 0:
        raise ValidationError(f"nu must be nonnegative, got {nu}")
    if trunc < 1:
        raise ValidationError(f"trunc must be >= 1, got {trunc}")
    if gamma == 0:
        # allowed (pure diffusion) but the shear terms vanish identically
        pass


def assemble_suboperator(
    cls: ModeClass, alpha: float, gamma: float, nu: float, trunc: int
) -> SubOperator:
    """Dense truncated matrix of the linearized operator on one mode class.

    Every entry is real, so the matrix is float64."""
    _validate_params(alpha, gamma, nu, trunc)
    n = np.arange(-trunc, trunc + 1)
    if cls.k1 == 0:
        n = n[cls.k2 + n != 0]
    ksq = (alpha * cls.k1) ** 2 + (cls.k2 + n) ** 2
    rho = 1.0 - 1.0 / ksq
    c = gamma * alpha * cls.k1 / 2.0
    A = np.diag(-nu * ksq)
    i = np.flatnonzero(np.diff(n) == 1)  # the excluded mean mode breaks the chain
    A[i + 1, i] = c * rho[i]
    A[i, i + 1] = -c * rho[i + 1]
    return SubOperator(cls, alpha, gamma, nu, trunc, tuple(n.tolist()), A)


def compute_spectrum(op: SubOperator) -> Spectrum:
    """Dense eigenvalues, deterministically sorted; a (k1, 0) class is solved
    as its two reflection sectors."""
    A, N = op.matrix, op.trunc
    if op.cls.k2 == 0:
        even = A[N:, N:].copy()
        even[0, 1] *= 2.0
        blocks = (even, A[N + 1 :, N + 1 :])
    else:
        blocks = (A,)
    try:
        vals = np.concatenate([np.linalg.eigvals(b) for b in blocks], dtype=np.complex128)
    except np.linalg.LinAlgError as e:  # pragma: no cover - eig rarely fails
        raise ComputationalError(f"eigensolver failed: {e}") from e
    if not np.all(np.isfinite(vals)):
        raise ComputationalError("eigensolver produced non-finite eigenvalues")
    vals = vals[np.lexsort((-vals.imag, -vals.real))]
    return Spectrum(op.cls, op.alpha, op.gamma, op.nu, op.trunc, vals)


def class_spectrum(
    cls: ModeClass, alpha: float, gamma: float, nu: float, trunc: int
) -> Spectrum:
    return compute_spectrum(assemble_suboperator(cls, alpha, gamma, nu, trunc))


# ---------------------------------------------------------------------------
# independent oracle: finite differences of the nonlinear right side


def jacobian_oracle_check(
    cls: ModeClass,
    alpha: float,
    gamma: float,
    nu: float,
    trunc: int,
    delta: float = 1e-5,
) -> float:
    """Max entrywise deviation between the assembled matrix and a centered
    finite-difference Jacobian of ns_rhs_2d at the shear fixed point.

    The right side is quadratic, so central differences are exact up to
    rounding; a mismatch indicates a wrong sign or coefficient in assembly.
    """
    op = assemble_suboperator(cls, alpha, gamma, nu, trunc)
    # grid big enough that products of class modes with cos y are unaliased
    need_y = 3 * (abs(cls.k2) + trunc + 2)
    ny = 1 << max(4, math.ceil(math.log2(need_y)))
    nx = 1 << max(4, math.ceil(math.log2(3 * (abs(cls.k1) + 2))))
    grid = TorusGrid2D(alpha=alpha, nx=nx, ny=ny)
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    base = SpectralField.from_physical(grid, gamma * np.cos(Y))
    forcing = base  # makes the shear a fixed point at every nu

    def rhs(f):
        return ns_rhs_2d(f, nu, forcing)

    worst = 0.0
    for j, n in enumerate(op.offsets):
        kx = cls.k1
        ky = cls.k2 + n
        phase = alpha * kx * X + ky * Y
        col = np.zeros(len(op.offsets), dtype=np.complex128)
        # complex column via two real perturbations: cos and sin of the mode
        parts = []
        for pert in (np.cos(phase), np.sin(phase)):
            m = SpectralField.from_physical(grid, pert)
            plus = rhs(SpectralField(grid, base.coeffs + delta * m.coeffs))
            minus = rhs(SpectralField(grid, base.coeffs - delta * m.coeffs))
            parts.append((plus.coeffs - minus.coeffs) / (2 * delta))
        fd = parts[0] + 1j * parts[1]
        for i, nn in enumerate(op.offsets):
            col[i] = fd[kx % nx, (cls.k2 + nn) % ny]
        worst = max(worst, float(np.max(np.abs(col - op.matrix[:, j]))))
    return worst


# ---------------------------------------------------------------------------
# closed forms from low truncations (first two continued-fraction stages)


def three_mode_lambda0(alpha: float, gamma: float = DEFAULT_GAMMA) -> float:
    """Unstable inviscid growth rate of the N=1 truncation of class (1,0)."""
    if not (0 < alpha < 1):
        raise ValidationError("the unstable class requires 0 < alpha < 1")
    return math.sqrt(gamma**2 * alpha**2 * (1 - alpha**2) / (2 * (alpha**2 + 1)))


def five_mode_lambda0(alpha: float, gamma: float = DEFAULT_GAMMA) -> float:
    """Growth rate of the N=2 truncation; a lower bound for the full rate."""
    if not (0 < alpha < 1):
        raise ValidationError("the unstable class requires 0 < alpha < 1")
    inner = alpha**2 * (1 - alpha**2) / (2 * (alpha**2 + 1)) - alpha**4 * (
        alpha**2 + 3
    ) / (4 * (alpha**2 + 1) * (alpha**2 + 4))
    return gamma * math.sqrt(inner)


def lambda0_bounds(alpha: float, gamma: float = DEFAULT_GAMMA) -> tuple[float, float]:
    """Two-sided analytic bracket for the inviscid growth rate."""
    return five_mode_lambda0(alpha, gamma), three_mode_lambda0(alpha, gamma)


def unstable_eig_bounds(
    alpha: float, nu: float, gamma: float = DEFAULT_GAMMA
) -> tuple[float, float]:
    """Viscous growth-rate bracket: the inviscid bracket shifted by the
    diffusion rates of the widest and narrowest class modes."""
    lo, hi = lambda0_bounds(alpha, gamma)
    return lo - nu * (alpha**2 + 1), hi - nu * alpha**2


def three_mode_nustar(alpha: float, gamma: float = DEFAULT_GAMMA) -> float:
    """Critical viscosity of the N=1 truncation (an upper estimate)."""
    if not (0 < alpha < 1):
        raise ValidationError("the unstable class requires 0 < alpha < 1")
    return gamma * math.sqrt((1 - alpha**2) / 2) / (alpha**2 + 1)


def critical_viscosity_bounds(
    alpha: float, gamma: float = DEFAULT_GAMMA
) -> tuple[float, float]:
    """Analytic bracket for the critical viscosity of class (1,0)."""
    lo = (
        gamma
        * math.sqrt(32 - 3 * alpha**6 - 17 * alpha**4 - 16 * alpha**2)
        / (2 * (alpha**2 + 1) * (alpha**2 + 4))
    )
    return lo, three_mode_nustar(alpha, gamma)


# ---------------------------------------------------------------------------
# unstable eigenvalue and critical viscosity


@dataclass(frozen=True)
class UnstableEig:
    value: complex
    refine_delta: float  # |lambda(2N) - lambda(N)|
    trunc: int


def unstable_eigenvalue(
    alpha: float,
    nu: float,
    gamma: float = DEFAULT_GAMMA,
    cls: ModeClass = ModeClass(1, 0),
    trunc: int = 100,
) -> UnstableEig | None:
    """Rightmost eigenvalue of the class when it is unstable, else None.

    Computed at trunc and 2*trunc; the difference is reported so truncation
    convergence is never silent.
    """
    lam_n = class_spectrum(cls, alpha, gamma, nu, trunc).values[0]
    lam_2n = class_spectrum(cls, alpha, gamma, nu, 2 * trunc).values[0]
    if lam_2n.real <= AXIS_TOL:
        return None
    return UnstableEig(complex(lam_2n), float(abs(lam_2n - lam_n)), 2 * trunc)


@dataclass(frozen=True)
class NuStarResult:
    nu_star: float
    bracket: tuple[float, float]
    iterations: int
    refine_delta: float  # |nu*(2N) - nu*(N)|
    trunc: int


def _bisect_nustar(alpha, gamma, trunc, tol):
    lo_est, hi_est = critical_viscosity_bounds(alpha, gamma)
    lo, hi = 0.5 * lo_est, 1.5 * hi_est

    def growth(nu):
        return float(class_spectrum(ModeClass(1, 0), alpha, gamma, nu, trunc).values[0].real)

    expand = 0
    while growth(lo) <= 0.0:
        lo *= 0.5
        expand += 1
        if expand > 8:
            raise ComputationalError("no unstable viscosity found below the bracket")
    expand = 0
    while growth(hi) >= 0.0:
        hi *= 2.0
        expand += 1
        if expand > 8:
            raise ComputationalError("no stable viscosity found above the bracket")
    iters = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if growth(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        iters += 1
        if iters > 200:  # pragma: no cover
            raise ComputationalError("critical-viscosity bisection did not converge")
    return 0.5 * (lo + hi), iters


def critical_viscosity(
    alpha: float,
    gamma: float = DEFAULT_GAMMA,
    trunc: int = 100,
    tol: float = 1e-6,
) -> NuStarResult:
    """Viscosity where the rightmost eigenvalue of class (1,0) crosses zero."""
    if tol <= 0:
        raise ValidationError("tol must be positive")
    _validate_params(alpha, gamma, 0.0, trunc)
    ns_n, iters = _bisect_nustar(alpha, gamma, trunc, tol)
    ns_2n, _ = _bisect_nustar(alpha, gamma, 2 * trunc, tol)
    return NuStarResult(
        nu_star=ns_2n,
        bracket=critical_viscosity_bounds(alpha, gamma),
        iterations=iters,
        refine_delta=abs(ns_2n - ns_n),
        trunc=2 * trunc,
    )


# ---------------------------------------------------------------------------
# inviscid reference and zero-viscosity tracking


def euler_spectrum(
    cls: ModeClass, alpha: float, gamma: float = DEFAULT_GAMMA, trunc: int = 200
) -> EulerSpectrum:
    """nu = 0 spectrum split into isolated points and the imaginary cluster.

    A point eigenvalue must sit off the axis (|Re| > 1e-6) and at least ten
    local spacings away from its nearest neighbor.
    """
    spec = class_spectrum(cls, alpha, gamma, 0.0, trunc)
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
    return EulerSpectrum(spec, np.array(points), cluster, extent)


def linear_sum_assignment(cost):
    """scipy's optimal assignment; scipy is imported on the first call only,
    so the commands that never match spectra do not pay for its import."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


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


@dataclass(frozen=True)
class ZeroViscosityTrack:
    cls: ModeClass
    alpha: float
    gamma: float
    trunc: int
    nus: np.ndarray
    trajectories: list[EigTrajectory]


def track_zero_viscosity(
    cls: ModeClass,
    alpha: float,
    gamma: float,
    nu_schedule,
    trunc: int,
    workers: int = 1,
) -> ZeroViscosityTrack:
    """Follow every eigenvalue along a descending viscosity schedule.

    Consecutive spectra are matched by the assignment minimizing total squared
    displacement.  A trajectory is flagged ambiguous when a different target
    within cost tie 1e-12 exists whose value genuinely differs (exact
    degeneracies are not ambiguities: either choice yields the same values).
    """
    nus = np.asarray(list(nu_schedule), dtype=float)
    if len(nus) < 3:
        raise ValidationError("schedule needs at least three viscosities")
    if not np.all(np.diff(nus) < 0):
        raise ValidationError("schedule must be strictly decreasing")
    if nus[-1] <= 0:
        raise ValidationError("schedule must stay positive; nu = 0 is the reference")

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as ex:
            spectra = list(
                ex.map(lambda nu: class_spectrum(cls, alpha, gamma, nu, trunc), nus)
            )
    else:
        spectra = [class_spectrum(cls, alpha, gamma, nu, trunc) for nu in nus]

    paths = np.empty((len(nus), len(spectra[0].values)), dtype=np.complex128)
    paths[0] = spectra[0].values
    ambiguous = np.zeros(paths.shape[1], dtype=bool)
    for s in range(1, len(nus)):
        target = spectra[s].values
        cost = np.abs(paths[s - 1][:, None] - target[None, :]) ** 2
        rows, cols = linear_sum_assignment(cost)
        near = np.abs(cost[rows] - cost[rows, cols][:, None]) < TIE_TOL
        differs = np.abs(target[None, :] - target[cols][:, None]) > TIE_TOL
        ambiguous[rows] |= np.any(near & differs, axis=1)
        paths[s, rows] = target[cols]

    trajectories = [
        EigTrajectory(nus=nus, values=vals, limit=_extrapolate_to_zero(nus, vals), ambiguous=bool(amb))
        for vals, amb in zip(paths.T, ambiguous)
    ]
    return ZeroViscosityTrack(cls, alpha, gamma, trunc, nus, trajectories)


def classify_limits(
    track: ZeroViscosityTrack, euler: EulerSpectrum, tol: float = 0.02
) -> Classification:
    """Label each trajectory by where its extrapolated limit lands.

    Per trajectory: Persistence if the limit sits within tol of an isolated
    inviscid point eigenvalue, Condensation if within tol of the imaginary
    cluster, Singularity otherwise, Unresolved if the matching was ambiguous.

    The class label requires structure: Persistence wins if present; otherwise
    Condensation requires a nondegenerate cluster (extent > tol) -- the
    diagonal classes collapse to the single point 0 while their spectra sweep
    the negative real axis at every positive viscosity, which is exactly the
    Singularity phenomenon.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    ext = euler.cluster_extent
    labeled = []
    counts = {"Persistence": 0, "Condensation": 0, "Singularity": 0, "Unresolved": 0}
    for tr in track.trajectories:
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
            elif d_seg <= tol:
                lab = "Condensation"
            else:
                lab = "Singularity"
        counts[lab] += 1
        labeled.append(replace(tr, label=lab))
    if counts["Persistence"]:
        class_label = "Persistence"
    elif counts["Condensation"] and ext > tol:
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
    return Classification(labeled, class_label, addition, ext)
