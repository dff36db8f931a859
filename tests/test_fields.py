"""Spectral calculus on the rectangular torus: hand-derived oracle cases and
algebraic properties of the Poisson bracket."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nel.errors import ValidationError
from nel.fields import (
    SpectralField,
    bracket,
    bracket_core,
    dealias,
    dx,
    dy,
    invert_laplacian,
    laplacian,
    load_field,
    ns_rhs_2d,
    project_mean,
    random_real_field,
    save_field,
    velocity_from_stream,
)
from nel.grids import TorusGrid2D


def grid(alpha=1.0, n=64, frac=2 / 3):
    return TorusGrid2D(alpha=alpha, nx=n, ny=n, dealias_fraction=frac)


def field_from_fn(g, fn):
    X, Y = np.meshgrid(g.x, g.y, indexing="ij")
    return SpectralField.from_physical(g, fn(X, Y))


def random_trig(g, kmax, seed, amplitude=1.0):
    return random_real_field(g, kmax, np.random.default_rng(seed), amplitude)


class TestTransforms:
    def test_roundtrip(self):
        g = grid()
        f = random_trig(g, 8, seed=0)
        f2 = SpectralField.from_physical(g, f.physical())
        assert np.max(np.abs(f2.coeffs - f.coeffs)) < 1e-14

    def test_scalar_or_vector_shapes_only(self):
        g = grid(n=8)
        assert SpectralField(g, np.zeros((8, 8))).mean() == 0
        assert SpectralField(g, np.zeros((2, 8, 8))).mean().shape == (2,)
        for shape in ((8, 10), (3, 8, 8), (1, 8, 8), (8,)):
            with pytest.raises(ValidationError, match="does not match grid"):
                SpectralField(g, np.zeros(shape))

    def test_realness_check(self):
        g = grid()
        f = random_trig(g, 5, seed=1)
        assert f.is_real()
        c = f.coeffs.copy()
        c[1, 2] += 0.5  # break Hermitian symmetry
        assert not SpectralField(g, c).is_real()

    def test_derivative_single_mode(self):
        g = grid(alpha=0.7)
        f = field_from_fn(g, lambda x, y: np.cos(0.7 * 2 * x + 3 * y))
        fx = dx(f).physical().real
        X, Y = np.meshgrid(g.x, g.y, indexing="ij")
        expect = -1.4 * np.sin(1.4 * X + 3 * Y)
        assert np.max(np.abs(fx - expect)) < 1e-12


class TestBracketOracles:
    def test_sin_sin(self):
        # {sin x, sin y} = cos x cos y by hand
        g = grid()
        f = field_from_fn(g, lambda x, y: np.sin(x))
        h = field_from_fn(g, lambda x, y: np.sin(y))
        out = bracket(f, h).physical().real
        X, Y = np.meshgrid(g.x, g.y, indexing="ij")
        assert np.max(np.abs(out - np.cos(X) * np.cos(Y))) < 1e-12

    def test_self_bracket_vanishes(self):
        g = grid()
        f = random_trig(g, 6, seed=2)
        assert bracket(f, f).norm_inf() < 1e-12

    def test_x_only_fields_commute(self):
        g = grid()
        f = field_from_fn(g, lambda x, y: np.cos(x) + 0.3 * np.sin(2 * x))
        h = field_from_fn(g, lambda x, y: np.sin(3 * x))
        assert bracket(f, h).norm_inf() < 1e-13

    def test_rejects_complex_input(self):
        g = grid()
        c = np.zeros((g.nx, g.ny), complex)
        c[1, 0] = 1.0  # exp(ix) alone is not a real field
        f = SpectralField(g, c)
        h = random_trig(g, 3, seed=3)
        with pytest.raises(ValidationError, match="not real"):
            bracket(f, h)

    def test_output_mean_zero_and_dealiased(self):
        g = grid()
        f = random_trig(g, 20, seed=4)
        h = random_trig(g, 20, seed=5)
        out = bracket(f, h)
        assert out.mean() == 0
        assert np.all(out.coeffs[~g.dealias_mask] == 0)


class TestBracketAlgebra:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_antisymmetry(self, seed):
        g = grid()
        f = random_trig(g, 8, seed=seed)
        h = random_trig(g, 8, seed=seed + 1)
        r = bracket(f, h) + bracket(h, f)
        assert r.norm_inf() < 1e-10

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_jacobi_identity_half_rule(self, seed):
        # triple products need the 1/2 dealias rule to cancel exactly
        g = grid(frac=0.5)
        f = random_trig(g, 8, seed=seed)
        h = random_trig(g, 8, seed=seed + 1)
        w = random_trig(g, 8, seed=seed + 2)
        j = bracket(f, bracket(h, w)) + bracket(h, bracket(w, f)) + bracket(
            w, bracket(f, h)
        )
        assert j.norm_inf() < 1e-9

    def test_jacobi_fails_without_half_rule(self):
        # with the 2/3 rule the triple-product truncation does not cancel
        g = grid(frac=2 / 3)
        f = random_trig(g, 14, seed=11)
        h = random_trig(g, 14, seed=12)
        w = random_trig(g, 14, seed=13)
        j = bracket(f, bracket(h, w)) + bracket(h, bracket(w, f)) + bracket(
            w, bracket(f, h)
        )
        assert j.norm_inf() > 1e-9


class TestLaplacian:
    def test_invert_single_mode(self):
        # Lap^{-1} e^{i(alpha x + 2y)} = -(alpha^2 + 4)^{-1} e^{i(alpha x + 2y)}
        alpha = 0.7
        g = grid(alpha=alpha)
        f = field_from_fn(g, lambda x, y: np.cos(alpha * x + 2 * y))
        psi = invert_laplacian(f)
        expect = -1.0 / (alpha**2 + 4.0)
        out = psi.physical().real
        X, Y = np.meshgrid(g.x, g.y, indexing="ij")
        assert np.max(np.abs(out - expect * np.cos(alpha * X + 2 * Y))) < 1e-13

    def test_invert_then_apply(self):
        g = grid(alpha=0.7)
        f = random_trig(g, 9, seed=6)
        f = project_mean(f)
        back = laplacian(invert_laplacian(f))
        assert (back - f).norm_inf() < 1e-11

    def test_mean_rejected(self):
        g = grid()
        c = np.zeros((g.nx, g.ny), complex)
        c[0, 0] = 1.0
        with pytest.raises(ValidationError, match="mean-zero"):
            invert_laplacian(SpectralField(g, c))


class TestVelocityAndRhs:
    def test_velocity_from_stream(self):
        # psi = sin x sin y -> u = -sin x cos y, v = cos x sin y
        g = grid()
        psi = field_from_fn(g, lambda x, y: np.sin(x) * np.sin(y))
        u, v = velocity_from_stream(psi)
        X, Y = np.meshgrid(g.x, g.y, indexing="ij")
        assert np.max(np.abs(u.physical().real + np.sin(X) * np.cos(Y))) < 1e-13
        assert np.max(np.abs(v.physical().real - np.cos(X) * np.sin(Y))) < 1e-13

    def test_shear_is_fixed_point(self):
        # Omega = G cos y with forcing f = G cos y is steady for any nu
        g = grid(alpha=0.7)
        G = 0.5
        om = field_from_fn(g, lambda x, y: G * np.cos(y))
        for nu in (0.0, 0.05, 1.3):
            r = ns_rhs_2d(om, nu, om)
            assert r.norm_inf() < 1e-12

    def test_forcing_balance(self):
        # nu = 1, f = -Lap(Omega) makes any smooth Omega steady under pure diffusion
        g = grid()
        om = project_mean(random_trig(g, 3, seed=7))
        om_xonly = field_from_fn(g, lambda x, y: np.cos(x))
        f = laplacian(om_xonly) * (-1.0)
        r = ns_rhs_2d(om_xonly, 1.0, f)
        assert r.norm_inf() < 1e-13
        assert om.mean() == 0

    def test_mean_is_preserved_zero(self):
        g = grid()
        om = project_mean(random_trig(g, 6, seed=8))
        f = project_mean(random_trig(g, 4, seed=9))
        r = ns_rhs_2d(om, 0.1, f)
        assert r.mean() == 0

    def test_negative_viscosity_rejected(self):
        g = grid()
        om = project_mean(random_trig(g, 3, seed=10))
        with pytest.raises(ValidationError, match="nonnegative"):
            ns_rhs_2d(om, -0.1, om)


class TestDealias:
    def test_mask_cut(self):
        g = grid(n=64, frac=2 / 3)
        f = random_trig(g, 30, seed=20)
        out = dealias(f)
        mx = np.abs(g.mx[:, 0])
        keep = mx <= 21
        assert np.all(out.coeffs[~keep, :] == 0)

    def test_product_exact_below_cut(self):
        # quadratic products of low fields are computed without aliasing error
        g = grid(n=64)
        f = field_from_fn(g, lambda x, y: np.cos(3 * x + y))
        h = field_from_fn(g, lambda x, y: np.sin(2 * x - 4 * y))
        out = bracket(f, h)
        gg = grid(n=256)
        fb = field_from_fn(gg, lambda x, y: np.cos(3 * x + y))
        hb = field_from_fn(gg, lambda x, y: np.sin(2 * x - 4 * y))
        ref = bracket(fb, hb)
        # compare the shared coefficients
        for m in range(-10, 11):
            for n in range(-10, 11):
                assert abs(out.coeffs[m, n] - ref.coeffs[m, n]) < 1e-13


class TestSnapshotIO:
    def test_roundtrip_2d(self, tmp_path):
        g = grid(alpha=0.7)
        f = random_trig(g, 7, seed=30)
        p = tmp_path / "f.json"
        save_field(p, f)
        f2 = load_field(p)
        scale = np.max(np.abs(f.coeffs))
        assert np.max(np.abs(f2.coeffs - f.coeffs)) <= 1e-15 * max(scale, 1.0)
        assert f2.grid == f.grid

    def test_complex_core_bracket_linearity(self):
        # bracket_core extends bilinearly to complex-valued fields
        g = grid()
        om = random_trig(g, 5, seed=31)
        a = random_trig(g, 5, seed=32)
        b = random_trig(g, 5, seed=33)
        phi = SpectralField(g, a.coeffs + 1j * b.coeffs)
        lhs = bracket_core(om, phi)
        rhs = bracket(om, a).coeffs + 1j * bracket(om, b).coeffs
        assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-12
