"""Sub-operator assembly against the finite-difference oracle, closed-form
truncations, and the zero-viscosity tracking/classification pipeline."""

import math
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import nel.spectra
from nel.errors import ComputationalError, ValidationError
from nel.spectra import (
    AXIS_TOL,
    NEWTON_GAP,
    TIE_TOL,
    ModeClass,
    Spectrum,
    Tridiagonal,
    assemble_suboperator,
    classify_limits,
    compute_spectrum,
    continuant,
    critical_viscosity,
    critical_viscosity_bounds,
    euler_spectrum,
    newton_root,
    parity_eigvals,
    refine_rightmost,
    sector_blocks,
    three_mode_nustar,
    track_spectra,
    track_zero_viscosity,
    truncated_nustar,
    viscosity_schedule,
)
from oracles import (
    five_mode_lambda0,
    jacobian_oracle_check,
    lambda0_bounds,
    three_mode_lambda0,
    unstable_eig_bounds,
)

ALPHA = 0.7
GAMMA = 0.5


class TestAssembly:
    def test_entries_match_formulas(self):
        A = assemble_suboperator(ModeClass(1, 0), ALPHA, GAMMA, 0.05, 3).dense()
        c = GAMMA * ALPHA / 2

        def ksq(n):
            return ALPHA**2 + n**2

        for n in range(-3, 4):
            i = n + 3  # rows in ascending wavenumber
            assert A[i, i] == pytest.approx(-0.05 * ksq(n), abs=1e-15)
            if n < 3:
                j = i + 1
                # row n, super-diagonal: -c * rho_{n+1}
                rho = 1 - 1 / ksq(n + 1)
                assert A[i, j] == pytest.approx(-c * rho, abs=1e-15)
            if n > -3:
                j = i - 1
                rho = 1 - 1 / ksq(n - 1)
                assert A[i, j] == pytest.approx(c * rho, abs=1e-15)

    def test_tridiagonal_sparsity(self):
        m = assemble_suboperator(ModeClass(2, 1), ALPHA, GAMMA, 0.1, 8).dense()
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                if abs(i - j) > 1:
                    assert m[i, j] == 0

    def test_mean_mode_excluded(self):
        bands = assemble_suboperator(ModeClass(0, 1), ALPHA, GAMMA, 0.1, 4)
        # the diagonal is -nu m^2 on the window [-3, 5] of (0, 1), without m = 0
        m = np.array([-3, -2, -1, 1, 2, 3, 4, 5])
        np.testing.assert_allclose(bands.diag, -0.1 * m**2, rtol=1e-15, atol=0)
        # k1 = 0 kills the coupling: the matrix is diagonal
        A = bands.dense()
        assert np.max(np.abs(A - np.diag(np.diag(A)))) == 0

    def test_zero_class_rejected(self):
        with pytest.raises(ValidationError):
            ModeClass(0, 0)


def reflection(wavenumbers):
    """(P w)_m = (-1)^m w_{-m} on the y wavenumbers of the rows; a zero row
    where -m is absent."""
    idx = {m: i for i, m in enumerate(wavenumbers)}
    P = np.zeros((len(wavenumbers), len(wavenumbers)))
    for i, m in enumerate(wavenumbers):
        if -m in idx:
            P[i, idx[-m]] = (-1.0) ** m
    return P


class TestReflectionSectors:
    @pytest.mark.parametrize("k1,k2", [(1, 0), (-1, 0), (2, 0), (3, 0), (2, 1), (1, -1), (3, 2)])
    @pytest.mark.parametrize("nu", [0.0, 0.05])
    def test_splits_only_where_reflection_commutes(self, k1, k2, nu, monkeypatch):
        # every k2 is solved on the window of (k1, 0), wavenumbers k2 + n in [-N, N]
        trunc = 12
        m = np.arange(-trunc, trunc + 1)
        diag = assemble_suboperator(ModeClass(k1, k2), ALPHA, GAMMA, 1.0, trunc).diag
        np.testing.assert_allclose(diag, -((ALPHA * k1) ** 2 + m**2), rtol=1e-15, atol=0)  # -nu |k_m|^2 at nu = 1
        P = reflection(m.tolist())
        A = assemble_suboperator(ModeClass(k1, k2), ALPHA, GAMMA, nu, trunc).dense()
        assert np.array_equal(P @ A @ P, A)
        sizes = []
        eigvals = nel.spectra.block_eigvals
        monkeypatch.setattr(nel.spectra, "block_eigvals", lambda t: sizes.append(len(t.diag)) or eigvals(t))
        compute_spectrum(ModeClass(k1, k2), ALPHA, GAMMA, nu, trunc)
        blocks = [trunc + 1, trunc]
        # a nu = 0 block of m rows is solved as its m // 2 by m // 2 parity block
        assert sizes == ([m // 2 for m in blocks] if nu == 0 else blocks)

    @pytest.mark.parametrize("k1", [1, -1, 2, 3])
    @pytest.mark.parametrize("trunc", [15, 16, 40])
    @pytest.mark.parametrize("nu", [0.0, 1e-4, 1e-3, 0.05])
    def test_sector_eigenvalues_within_condition_bound(self, k1, trunc, nu):
        # at nu = 0 the sectors (N + 1 and N rows) are parity-split blocks of both parities
        A = assemble_suboperator(ModeClass(k1, 0), ALPHA, GAMMA, nu, trunc).dense()
        assert_within_condition_bound(A, compute_spectrum(ModeClass(k1, 0), ALPHA, GAMMA, nu, trunc).values)


def assert_within_condition_bound(A, got):
    """Each value of got lies within m u ||A||_2 kappa_i of its match in the
    dense solve of A, kappa_i = ||x|| ||y|| / |y^H x| (left y, right x)."""
    full = np.linalg.eigvals(A)
    values, left, right = scipy.linalg.eig(A, left=True, right=True)
    kappa = np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
    kappa /= np.abs(np.sum(left.conj() * right, axis=0))
    kappa = kappa[linear_sum_assignment(np.abs(full[:, None] - values[None, :]))[1]]  # in the order of full
    dist = np.abs(got[:, None] - full[None, :])
    rows, cols = linear_sum_assignment(dist)
    bound = len(A) * np.finfo(float).eps / 2 * np.linalg.norm(A, 2) * kappa[cols]
    assert np.all(dist[rows, cols] <= bound)


class TestParitySplit:
    """nu = 0 blocks have a zero diagonal and are solved as the odd-row block
    CB of T^2; the dense solve of T is the oracle."""

    def test_smallest_blocks(self):
        """At trunc 1 the P = -1 block is the 1x1 zero (its parity block is
        empty) and the P = +1 block has the pair +/- sqrt(l u)."""
        blocks = sector_blocks(ModeClass(1, 0), 1, assemble_suboperator(ModeClass(1, 0), ALPHA, GAMMA, 0.0, 1))
        even, odd = blocks[1], blocks[-1]
        assert parity_eigvals(odd).tolist() == [0]
        root = np.sqrt(complex(even.lower[0] * even.upper[0]))
        assert parity_eigvals(even).tolist() == [root, -root]

    @pytest.mark.parametrize("k1,k2", [(2, 1), (1, -1), (3, 2)])
    @pytest.mark.parametrize("trunc", [16, 40])
    def test_class_without_reflection(self, k1, k2, trunc):
        # k2 != 0: the offsets n have no reflection, the wavenumbers k2 + n do
        A = assemble_suboperator(ModeClass(k1, k2), ALPHA, GAMMA, 0.0, trunc).dense()
        assert_within_condition_bound(A, compute_spectrum(ModeClass(k1, k2), ALPHA, GAMMA, 0.0, trunc).values)

    def test_zero_matrix_gives_exact_zeros(self):
        values = compute_spectrum(ModeClass(0, 1), ALPHA, GAMMA, 0.0, 12).values
        assert len(values) == 24
        assert np.all(values == 0)
        assert not np.any(np.signbit(values.real) | np.signbit(values.imag))

    @pytest.mark.parametrize("k1,k2", [(1, 0), (2, 0), (1, 1), (2, 1)])
    @pytest.mark.parametrize("trunc", [48, 96])
    def test_euler_spectrum_as_dense(self, k1, k2, trunc, monkeypatch):
        got = euler_spectrum(ModeClass(k1, k2), ALPHA, GAMMA, trunc)
        monkeypatch.setattr(nel.spectra, "parity_eigvals", lambda t: np.linalg.eigvals(t.dense()))
        want = euler_spectrum(ModeClass(k1, k2), ALPHA, GAMMA, trunc)
        assert len(got.cluster) == len(want.cluster) and len(got.points) == len(want.points)
        assert np.max(np.abs(np.sort_complex(got.points) - np.sort_complex(want.points)), initial=0.0) < 1e-13
        assert abs(got.cluster_extent - want.cluster_extent) < 1e-13


class TestDiagonalClass:
    def test_eigenvalues_are_minus_nu_m_squared(self):
        nu = 0.1
        spec = compute_spectrum(ModeClass(0, 1), ALPHA, GAMMA, nu, 64)
        expect = sorted(
            (-nu * (1 + n) ** 2 for n in range(-64, 65) if n != -1), reverse=True
        )
        got = np.sort(spec.values.real)[::-1]
        assert np.max(np.abs(got - np.array(expect))) < 1e-12
        assert np.max(np.abs(spec.values.imag)) == 0

    @pytest.mark.parametrize("k2", [1, 2, -3, 5])
    @pytest.mark.parametrize("nu", [0.0, 1e-4, 0.1])
    def test_spectrum_is_the_diagonal_without_an_eigensolve(self, k2, nu, monkeypatch):
        def no_solve(t):
            raise AssertionError("a diagonal class was eigensolved")

        monkeypatch.setattr(nel.spectra, "block_eigvals", no_solve)
        monkeypatch.setattr(nel.spectra, "parity_eigvals", no_solve)
        spec = compute_spectrum(ModeClass(0, k2), ALPHA, GAMMA, nu, 20)
        want = np.sort(assemble_suboperator(ModeClass(0, k2), ALPHA, GAMMA, nu, 20).diag + 0.0)[::-1]
        assert spec.values.dtype == np.complex128 and spec.values.real.tobytes() == want.tobytes()
        assert not np.any(np.signbit(spec.values.imag)) and not spec.values.imag.any()
        assert not np.any(spec.sectors)


class TestClosedForms:
    def test_three_mode_matrix_matches_closed_form(self):
        lam = three_mode_lambda0(ALPHA, GAMMA)
        spec = compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, 0.0, 1)
        assert spec.values[0].real == pytest.approx(lam, abs=1e-12)
        assert lam == pytest.approx(0.14482, abs=1e-4)

    def test_five_mode_matrix_matches_closed_form(self):
        lam = five_mode_lambda0(ALPHA, GAMMA)
        spec = compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, 0.0, 2)
        assert spec.values[0].real == pytest.approx(lam, abs=1e-12)

    def test_three_mode_nustar_crosses_at_closed_form(self):
        ns = three_mode_nustar(ALPHA, GAMMA)
        assert ns == pytest.approx(0.16946, abs=1e-4)
        hi = compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, ns * 1.001, 1).values[0]
        lo = compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, ns * 0.999, 1).values[0]
        assert hi.real < 0 < lo.real

    def test_bound_ordering(self):
        lo, hi = lambda0_bounds(ALPHA, GAMMA)
        assert 0 < lo < hi
        nlo, nhi = critical_viscosity_bounds(ALPHA, GAMMA)
        assert 0 < nlo < nhi


class TestJacobianOracle:
    @pytest.mark.parametrize("cls", [ModeClass(1, 0), ModeClass(2, 1), ModeClass(0, 1)])
    def test_matches_nonlinear_rhs(self, cls):
        err = jacobian_oracle_check(cls, ALPHA, GAMMA, 0.05, trunc=8)
        assert err < 1e-6

    def test_pure_diffusion_at_zero_gamma(self):
        err = jacobian_oracle_check(ModeClass(1, 0), ALPHA, 0.0, 0.05, trunc=6)
        assert err < 1e-9


class TestSpectrumInvariants:
    def test_conjugate_closure(self):
        spec = compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, 0.03, 40)
        vals = spec.values
        for v in vals:
            assert np.min(np.abs(vals - np.conj(v))) < 1e-10

    def test_inviscid_plus_minus_symmetry(self):
        spec = compute_spectrum(ModeClass(2, 0), ALPHA, GAMMA, 0.0, 40)
        vals = spec.values
        for v in vals:
            assert np.min(np.abs(vals + v)) < 1e-8

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        st.integers(-3, 3).filter(lambda k: k != 0),
        st.integers(-2, 2),
        st.floats(0.3, 1.8),
    )
    def test_conjugate_class_same_spectrum(self, k1, k2, alpha):
        a = compute_spectrum(ModeClass(k1, k2), alpha, GAMMA, 0.07, 20).values
        b = compute_spectrum(ModeClass(-k1, -k2), alpha, GAMMA, 0.07, 20).values
        for v in a:
            assert np.min(np.abs(b - np.conj(v))) < 1e-9

    def test_deterministic_sorting(self):
        a = compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, 0.05, 30).values
        b = compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, 0.05, 30).values
        assert np.array_equal(a, b)
        assert np.all(np.diff(a.real) <= 1e-14)


class TestUnstableEigenvalue:
    def test_bracket_at_nu_005(self):
        value, delta = refine_rightmost(compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, 0.05, 100))
        lo, hi = unstable_eig_bounds(ALPHA, 0.05, GAMMA)
        assert value.real > AXIS_TOL
        assert lo < value.real < hi
        assert abs(value.imag) < 1e-8
        assert delta < 1e-8

    def test_stable_regime_returns_none(self):
        value, _ = refine_rightmost(compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, 0.5, 60))
        assert value.real <= AXIS_TOL

    def test_unique_unstable_direction(self):
        vals = compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, 0.05, 100).values
        assert int(np.sum(vals.real > 1e-8)) == 1


class TestCriticalViscosity:
    def test_bracket_and_refinement(self):
        res = critical_viscosity(ALPHA, GAMMA, trunc=100, tol=1e-6)
        lo, hi = critical_viscosity_bounds(ALPHA, GAMMA)
        assert lo < res.nu_star < hi
        assert res.refine_delta < 1e-6

    def test_crossing_bracketed(self):
        res = critical_viscosity(ALPHA, GAMMA, trunc=60, tol=1e-5)
        above = compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, res.nu_star + 1e-4, 60)
        below = compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, res.nu_star - 1e-4, 60)
        assert above.values[0].real < 0 < below.values[0].real


    def test_small_truncation_shows_its_error(self):
        res = critical_viscosity(ALPHA, GAMMA, trunc=3)
        assert res.refine_delta == pytest.approx(3.64e-7, rel=2e-3)
        nu_3, _ = truncated_nustar(ALPHA, GAMMA, 3)
        assert res.refine_delta == abs(res.nu_star - nu_3)

    def test_sign_bisection_matches_dense_bisection(self):
        def growth(nu):
            return compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, nu, 40).values[0].real

        lo, hi = critical_viscosity_bounds(ALPHA, GAMMA)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if growth(mid) > 0 else (lo, mid)
        nu, iterations = truncated_nustar(ALPHA, GAMMA, 40)
        assert abs(nu - 0.5 * (lo + hi)) < 1e-9

        def sign(nu):
            bands = assemble_suboperator(ModeClass(1, 0), ALPHA, GAMMA, nu, 40)
            return continuant(sector_blocks(ModeClass(1, 0), 40, bands)[1], 0.0)[0]

        assert sign(nu) != sign(math.nextafter(nu, 0.0))  # stopped at adjacent doubles
        assert 40 < iterations < 64

    def test_crossing_that_is_not_real_and_rightmost_is_refused(self, monkeypatch):
        monkeypatch.setattr(nel.spectra, "truncated_nustar", lambda a, g, n: (0.1, 1))
        with pytest.raises(ComputationalError, match="no real crossing"):
            critical_viscosity(ALPHA, GAMMA, trunc=20)


def random_tridiagonal(rng, m):
    return Tridiagonal(rng.normal(size=m), rng.normal(size=m - 1), rng.normal(size=m - 1))


class TestRecurrence:
    @pytest.mark.parametrize("seed", range(6))
    def test_sign_and_log_derivative_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        t = random_tridiagonal(rng, 2 + 7 * seed)
        A = t.dense()
        for lam in rng.normal(size=4):
            sign, _ = np.linalg.slogdet(A - lam * np.eye(len(A)))
            assert continuant(t, float(lam))[0] == sign
        for lam in rng.normal(size=4) + 1j * rng.normal(size=4):
            want = -np.trace(np.linalg.inv(A - lam * np.eye(len(A))))
            _, dlog = continuant(t, complex(lam))
            assert abs(dlog - want) < 1e-9 * max(1.0, abs(want))

    def test_bands_build_the_dense_matrix(self):
        for cls in (ModeClass(1, 0), ModeClass(0, 2), ModeClass(2, -1)):
            bands = assemble_suboperator(cls, ALPHA, GAMMA, 0.03, 6)
            want = np.diag(bands.diag) + np.diag(bands.lower, -1) + np.diag(bands.upper, 1)
            assert np.array_equal(bands.dense(), want)

    def test_newton_finds_a_sector_eigenvalue(self):
        cls = ModeClass(1, 0)
        bands = assemble_suboperator(cls, ALPHA, GAMMA, 0.05, 30)
        for parity, block in sector_blocks(cls, 30, bands).items():
            want = np.linalg.eigvals(block.dense())
            start = want[np.argmax(want.real)] + 1e-6
            root = newton_root(block, complex(start))
            assert np.min(np.abs(want - root)) < 1e-12, parity

    def test_zero_pivot_of_a_decoupled_row(self):
        bands = assemble_suboperator(ModeClass(0, 1), ALPHA, GAMMA, 0.1, 8)
        lam = float(bands.diag[3])
        assert math.isfinite(continuant(bands, lam)[1])
        assert newton_root(bands, lam) == lam


@pytest.mark.parametrize("k1,k2", [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, -2)])
def test_kept_newton_roots_are_the_dense_rightmost(k1, k2, monkeypatch):
    """Over under- and well-resolved truncations, a root refine_rightmost keeps
    is an eigenvalue of the 2N class and rightmost up to roundoff; the others
    reproduce the dense 2N solve exactly."""
    cls = ModeClass(k1, k2)
    kept = 0
    for nu in (0.0, 1e-3, 0.01, 0.05, 0.1):
        for trunc in (4, 8, 16, 32):
            spec = compute_spectrum(cls, ALPHA, GAMMA, nu, trunc)
            dense = compute_spectrum(cls, ALPHA, GAMMA, nu, 2 * trunc).values
            calls = []
            monkeypatch.setattr(nel.spectra, "compute_spectrum", lambda *a: calls.append(a) or compute_spectrum(*a))
            value, delta = refine_rightmost(spec)
            monkeypatch.undo()
            scale = max(1.0, abs(dense[0]))
            if calls:
                assert value == dense[0] and delta == abs(spec.values[0] - dense[0])
            else:
                kept += 1
                assert delta <= NEWTON_GAP * max(1.0, abs(spec.values[0]))
                assert np.min(np.abs(dense - value)) < 1e-9 * scale
                assert value.real > dense[0].real - 1e-9 * scale
    assert kept > 0


class TestEulerSpectrum:
    def test_unstable_class_has_pair(self):
        es = euler_spectrum(ModeClass(1, 0), ALPHA, GAMMA, trunc=120)
        assert len(es.points) == 2
        lam0 = max(p.real for p in es.points)
        lo, hi = lambda0_bounds(ALPHA, GAMMA)
        assert lo < lam0 < hi
        assert es.cluster_extent == pytest.approx(GAMMA * ALPHA, rel=0.02)

    def test_stable_class_is_pure_cluster(self):
        es = euler_spectrum(ModeClass(2, 0), ALPHA, GAMMA, trunc=120)
        assert len(es.points) == 0
        assert es.cluster_extent == pytest.approx(2 * GAMMA * ALPHA, rel=0.02)

    def test_extent_linear_in_k1(self):
        exts = [
            euler_spectrum(ModeClass(k1, k2), ALPHA, GAMMA, trunc=80).cluster_extent
            for k1, k2 in ((1, 0), (2, 0), (2, 1), (3, 0))
        ]
        base = exts[0]
        for (k1, _), e in zip(((1, 0), (2, 0), (2, 1), (3, 0)), exts):
            assert e == pytest.approx(k1 * base, rel=0.05)


class TestTracking:
    def schedule(self):
        return np.geomspace(0.1, 1e-4, 21)

    def test_unstable_trajectory_limit(self):
        track, es, _ = track_zero_viscosity(ModeClass(1, 0), ALPHA, GAMMA, self.schedule(), 48)
        lam0 = max(p.real for p in es.points)
        best = min(abs(t.limit - lam0) for t in track)
        assert best < 1e-2

    def test_labels_three_classes(self):
        expect = {
            ModeClass(1, 0): "Persistence",
            ModeClass(0, 1): "Singularity",
            ModeClass(2, 0): "Condensation",
        }
        for cls, want in expect.items():
            track, es, _ = track_zero_viscosity(cls, ALPHA, GAMMA, self.schedule(), 48)
            cl = classify_limits(track, es, tol=0.02)
            assert cl.class_label == want, cls

    def test_one_condensation_rule(self):
        # the (0,1) cluster is the single point 0, onto which neither its
        # trajectories nor the class condense
        cls = ModeClass(0, 1)
        track, es, _ = track_zero_viscosity(cls, ALPHA, GAMMA, self.schedule(), 48)
        cl = classify_limits(track, es, tol=0.02)
        assert {t.label for t in cl.trajectories} == {cl.class_label} == {"Singularity"}

    def test_schedule_validation(self):
        with pytest.raises(ValidationError, match="decreasing"):
            track_zero_viscosity(ModeClass(1, 0), ALPHA, GAMMA, [0.1, 0.2, 0.3], 16)
        with pytest.raises(ValidationError, match="positive"):
            track_zero_viscosity(ModeClass(1, 0), ALPHA, GAMMA, [0.1, 0.05, 0.0], 16)

    @pytest.mark.parametrize(
        "nu_min, n, message",
        [
            (-1e-3, 5, "need 0 < nu_min < nu_max"),  # once a schedule of complex numbers
            (0.0, 5, "need 0 < nu_min < nu_max"),
            (0.1, 5, "need 0 < nu_min < nu_max"),
            (float("nan"), 5, "need 0 < nu_min < nu_max"),
            (1e-3, 2, "n_nus must be >= 3, got 2"),
        ],
    )
    def test_viscosity_schedule_rejects(self, nu_min, n, message):
        with pytest.raises(ValidationError) as exc:
            viscosity_schedule(0.1, nu_min, n)
        assert str(exc.value) == message
        assert viscosity_schedule(0.1, 1e-3, 3) == [0.1, 0.1 * 0.01**0.5, 1e-3]

    def test_monotone_growth_ratio(self):
        # spot check: lambda(nu)/nu decreases in nu in the unstable window
        vals = []
        for nu in (0.04, 0.08, 0.12):
            value, _ = refine_rightmost(compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, nu, 60))
            assert value.real > AXIS_TOL
            vals.append(value.real / nu)
        assert vals[0] > vals[1] > vals[2]


def reference_tracking(spectra, sectors):
    """The per-row tie check that the vectorised one in track_spectra
    replaced: each sector is matched on its own, and a near-tie counts only
    when its value differs from the chosen one and from that one's conjugate."""
    paths = [[v] for v in spectra[0]]
    ambiguous = [False] * len(paths)
    for values, target_sectors in zip(spectra[1:], sectors[1:]):
        for p in sorted(set(sectors[0])):
            mine = [i for i, q in enumerate(sectors[0]) if q == p]
            current = np.array([paths[i][-1] for i in mine])
            target = np.array([v for v, q in zip(values, target_sectors) if q == p])
            cost = np.abs(current[:, None] - target[None, :]) ** 2
            rows, cols = linear_sum_assignment(cost)
            for r, j in zip(rows, cols):
                for k in np.where(np.abs(cost[r] - cost[r, j]) < TIE_TOL)[0]:
                    if abs(target[k] - target[j]) > TIE_TOL and abs(target[k] - np.conj(target[j])) > TIE_TOL:
                        ambiguous[mine[r]] = True
                paths[mine[r]].append(target[j])
    return np.array(paths), ambiguous


@pytest.mark.parametrize("seed", range(4))
def test_tie_check_matches_reference_loop(seed):
    rng = np.random.default_rng(seed)
    nus = np.geomspace(0.1, 0.01, 6)
    # values on a coarse lattice: many exact cost ties, some exact degeneracies;
    # odd seeds split the values into two sectors of 6 and 4, even seeds leave one block, as of a k1 = 0 class
    planted = {nu: 0.5 * (rng.integers(-4, 5, 10) + 1j * rng.integers(-4, 5, 10)) for nu in nus}
    sectors = {nu: rng.permutation([1] * 6 + [-1] * 4) if seed % 2 else np.zeros(10, dtype=int) for nu in nus}
    spectra = [Spectrum(ModeClass(1, 0), ALPHA, GAMMA, nu, 4, planted[nu], sectors[nu]) for nu in nus]
    track = track_spectra(nus, spectra)
    want_paths, want_ambiguous = reference_tracking([planted[nu] for nu in nus], [list(sectors[nu]) for nu in nus])
    assert True in want_ambiguous and False in want_ambiguous
    assert [t.ambiguous for t in track] == want_ambiguous
    got = np.array([t.values for t in track])
    assert got.tobytes() == want_paths.tobytes()


def track_planted(steps):
    """track_spectra over planted spectra, one (values, sectors) per
    viscosity; sectors None puts every value in one block."""
    nus = [0.1 / 2**s for s in range(len(steps))]
    planted = []
    for nu, (values, sectors) in zip(nus, steps):
        sectors = np.zeros(len(values), dtype=int) if sectors is None else np.array(sectors)
        planted.append(Spectrum(ModeClass(1, 0), ALPHA, GAMMA, nu, 4, np.array(values, dtype=complex), sectors))
    return track_spectra(nus, planted)


def test_conjugate_collision_is_not_ambiguous():
    # a real pair collides and leaves the axis as lambda, conj(lambda): each row
    # ties between the two, which are one choice modulo conjugation
    steps = [([0.6, 0.4], None), ([0.5, 0.5], None), ([0.5 + 0.1j, 0.5 - 0.1j], None)]
    track = track_planted(steps)
    assert [t.ambiguous for t in track] == [False, False]
    assert sorted(t.values[-1].imag for t in track) == [-0.1, 0.1]


def test_distinct_near_tie_is_ambiguous():
    # 0.2i is equally far from 0.1+0.2i and -0.1+0.2i, neither the other's conjugate
    steps = [([5.0, 0.2j], None), ([0.1 + 0.2j, -0.1 + 0.2j], None), ([0.1 + 0.2j, -0.1 + 0.2j], None)]
    track = track_planted(steps)
    assert [t.ambiguous for t in track] == [False, True]


def test_sectors_are_matched_on_their_own():
    # across the sectors 1 -> 0.9 and 0 -> 0.1 would cost less; within them 1 -> 0.1
    steps = [([1.0, 0.0], [1, -1]), ([0.9, 0.1], [-1, 1]), ([0.9, 0.1], [-1, 1])]
    track = track_planted(steps)
    assert [t.values.tolist() for t in track] == [[1.0, 0.1, 0.1], [0.0, 0.9, 0.9]]
    assert not any(t.ambiguous for t in track)


def test_trajectories_keep_their_reflection_sector():
    nus = [0.1, 0.03, 0.01, 0.003]
    spectra = [compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, nu, 16) for nu in nus]
    track, _, _ = track_zero_viscosity(ModeClass(1, 0), ALPHA, GAMMA, nus, 16)
    assert [t.values[0] for t in track] == list(spectra[0].values)
    for tr, p in zip(track, spectra[0].sectors):
        for v, spec in zip(tr.values, spectra):
            assert v in spec.values[spec.sectors == p]


def zvtrack_costs(k1, k2):
    """The cost matrices that zvtrack's defaults at trunc 40 hand the solver."""
    costs = []
    solve = nel.spectra.linear_sum_assignment

    def spy(cost):
        costs.append(cost)
        return solve(cost)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(nel.spectra, "linear_sum_assignment", spy)
        track_zero_viscosity(ModeClass(k1, k2), ALPHA, GAMMA, np.geomspace(0.1, 1e-4, 25), 40)
    assert len(costs) == 48  # each of the 24 steps matches the two reflection sectors apart
    return costs


def small_integers(shape, seed):
    return np.random.default_rng(seed).integers(0, 3, shape).astype(float)


ASSIGNMENT_CASES = {
    "zvtrack-1-0": lambda: zvtrack_costs(1, 0),
    "zvtrack-2-0": lambda: zvtrack_costs(2, 0),
    "constant": lambda: [np.full((9, 9), 0.25)],
    "ties": lambda: [small_integers((12, 12), seed) for seed in range(8)],
    "rectangular": lambda: [small_integers((5, 8), 0), small_integers((5, 8), 0).T],
}


@pytest.mark.parametrize("case", ASSIGNMENT_CASES)
def test_assignment_is_scipys(case):
    # the compiled solver nel loads is scipy.optimize's own: same rows, columns and dtypes
    for cost in ASSIGNMENT_CASES[case]():
        got = nel.spectra.linear_sum_assignment(cost)
        want = linear_sum_assignment(cost)
        assert [a.dtype for a in got] == [a.dtype for a in want]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        if case == "constant":
            assert np.array_equal(got[1], np.arange(9))


def test_assignment_rejects_nan_cost():
    cost = np.ones((4, 4))
    cost[1, 2] = np.nan
    with pytest.raises(ValueError):
        nel.spectra.linear_sum_assignment(cost)


@pytest.mark.parametrize("found", [True, False])
def test_assignment_solver_is_loaded_alone_or_imported(found, monkeypatch):
    # with the compiled module found it is loaded from scipy's install; without
    # it (an older layout) the public function is imported and used
    name = "scipy.optimize._lsap"
    public = []

    def spy(cost):
        public.append(cost)
        return linear_sum_assignment(cost)

    class NoExtension:
        def __init__(self, path, *loaders):
            pass

        def find_spec(self, fullname):
            return None

    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy)
    monkeypatch.delitem(sys.modules, name)
    if not found:
        monkeypatch.setattr(nel.spectra, "FileFinder", NoExtension)
    cost = small_integers((12, 12), 1)
    nel.spectra._assignment_solver.cache_clear()
    try:
        got = nel.spectra.linear_sum_assignment(cost)
        assert (name in sys.modules) is found
        assert len(public) == (0 if found else 1)
    finally:
        nel.spectra._assignment_solver.cache_clear()
    want = linear_sum_assignment(cost)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))
