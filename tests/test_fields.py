"""Spectral calculus on the rectangular torus: hand-derived oracle cases and
algebraic properties of the Poisson bracket."""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nel.errors import ValidationError
from nel.fields import (
    SpectralField,
    bracket_core,
    full_spectrum,
    gradient_values,
    invert_laplacian,
    laplacian,
    load_field,
    random_real_field,
    save_field,
)
from nel.fields3d import random_solenoidal_field
from nel.grids import TorusGrid
from oracles import dealias_mask, mesh, ns_rhs_2d, project_mean

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def grid(alpha=1.0, n=64, frac=2 / 3):
    return TorusGrid((n, n), alpha, dealias_fraction=frac)


def field_from_fn(g, fn):
    X, Y = mesh(g)
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
        g = grid(n=8)  # half spectra of shape (8, 5)
        assert SpectralField(g, np.zeros((8, 5))).mean() == 0
        assert SpectralField(g, np.zeros((2, 8, 5))).mean().shape == (2,)
        # any stack of fields on leading axes
        assert SpectralField(g, np.zeros((3, 8, 5))).mean().shape == (3,)
        assert SpectralField(g, np.zeros((1, 8, 5))).mean().shape == (1,)
        assert SpectralField(g, np.zeros((2, 3, 8, 5))).mean().shape == (2, 3)
        for shape in ((8, 10), (8,), (8, 8, 3), (8, 8)):
            with pytest.raises(ValidationError, match="does not match grid"):
                SpectralField(g, np.zeros(shape))

    def test_realness_check(self, tmp_path):
        # fields are real by construction; a snapshot's full spectrum must be Hermitian
        g = grid()
        f = random_trig(g, 5, seed=1)
        assert f.physical().dtype == np.float64
        p = tmp_path / "f.json"
        save_field(p, f)
        d = json.loads(p.read_text())
        d["re"][1 * g.shape[1] + 2] += 0.5  # break Hermitian symmetry at (1, 2)
        p.write_text(json.dumps(d))
        with pytest.raises(ValidationError, match="not a real field"):
            load_field(p)

    def test_caller_array_stays_writable(self):
        g = grid(n=8)
        c = np.zeros(g.spectral_shape, complex)
        f = SpectralField(g, c)
        c[1, 1] = 1.0
        assert c.flags.writeable and not f.coeffs.flags.writeable
        with pytest.raises(ValueError):
            f.coeffs[0, 0] = 1.0


    def test_derivative_single_mode(self):
        g = grid(alpha=0.7)
        f = field_from_fn(g, lambda x, y: np.cos(0.7 * 2 * x + 3 * y))
        fx = gradient_values(f)[0]
        X, Y = mesh(g)
        expect = -1.4 * np.sin(1.4 * X + 3 * Y)
        assert np.max(np.abs(fx - expect)) < 1e-12


class TestBracketOracles:
    def test_sin_sin(self):
        # {sin x, sin y} = cos x cos y by hand
        g = grid()
        f = field_from_fn(g, lambda x, y: np.sin(x))
        h = field_from_fn(g, lambda x, y: np.sin(y))
        out = bracket_core(f, h).physical().real
        X, Y = mesh(g)
        assert np.max(np.abs(out - np.cos(X) * np.cos(Y))) < 1e-12

    def test_self_bracket_vanishes(self):
        g = grid()
        f = random_trig(g, 6, seed=2)
        assert bracket_core(f, f).norm_inf() < 1e-12

    def test_x_only_fields_commute(self):
        g = grid()
        f = field_from_fn(g, lambda x, y: np.cos(x) + 0.3 * np.sin(2 * x))
        h = field_from_fn(g, lambda x, y: np.sin(3 * x))
        assert bracket_core(f, h).norm_inf() < 1e-13

    def test_rejects_complex_input(self):
        # a complex field is carried as (re, im) rows; it cannot enter as complex values
        g = grid()
        h = random_trig(g, 3, seed=3)
        with pytest.raises(ValidationError, match="not real"):
            bracket_core(h * 1j, h)
        with pytest.raises(TypeError):
            SpectralField.from_physical(g, np.exp(1j * mesh(g)[0]))

    def test_output_mean_zero_and_dealiased(self):
        g = grid()
        f = random_trig(g, 20, seed=4)
        h = random_trig(g, 20, seed=5)
        out = bracket_core(f, h)
        assert out.mean() == 0
        assert np.all(out.coeffs[~dealias_mask(g)] == 0)


class TestBufferOwnership:
    @pytest.mark.parametrize("shared", ["f", "g", "both", "g-stack", "g-alone"])
    def test_shared_gradients_are_only_read(self, shared):
        """A shared gradient and both fields keep their bytes, and the bracket
        has the bits of one that shares nothing; g-alone passes g as None."""
        g = grid(n=32)
        a, b = random_trig(g, 6, seed=7), random_trig(g, 6, seed=8)
        if shared == "g-stack":
            b = SpectralField(g, np.stack([b.coeffs, random_trig(g, 6, seed=9).coeffs]))
        grads = {"f": gradient_values(a), "g": gradient_values(b)}
        kw = {f"{k}_grad": grads[k] for k in grads if k in shared or shared == "both"}
        arrays = [a.coeffs, b.coeffs, *kw.values()]
        before = [x.copy() for x in arrays]
        got = bracket_core(a, None if shared == "g-alone" else b, **kw)
        assert got.coeffs.tobytes() == bracket_core(a, b).coeffs.tobytes()
        for x, y in zip(arrays, before):
            assert x.tobytes() == y.tobytes()

    def test_norm_inf_leaves_the_coefficients(self):
        f = random_trig(grid(n=32), 6, seed=10)
        before = f.coeffs.copy()
        assert f.norm_inf() == np.max(np.abs(f.physical())) > 0
        assert f.coeffs.tobytes() == before.tobytes()


class TestBracketAlgebra:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_antisymmetry(self, seed):
        g = grid()
        f = random_trig(g, 8, seed=seed)
        h = random_trig(g, 8, seed=seed + 1)
        r = bracket_core(f, h) + bracket_core(h, f)
        assert r.norm_inf() < 1e-10

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(st.integers(0, 10**6))
    def test_jacobi_identity_half_rule(self, seed):
        # triple products need the 1/2 dealias rule to cancel exactly
        g = grid(frac=0.5)
        f = random_trig(g, 8, seed=seed)
        h = random_trig(g, 8, seed=seed + 1)
        w = random_trig(g, 8, seed=seed + 2)
        j = (
            bracket_core(f, bracket_core(h, w))
            + bracket_core(h, bracket_core(w, f))
            + bracket_core(w, bracket_core(f, h))
        )
        assert j.norm_inf() < 1e-9

    def test_jacobi_fails_without_half_rule(self):
        # with the 2/3 rule the triple-product truncation does not cancel
        g = grid(frac=2 / 3)
        f = random_trig(g, 14, seed=11)
        h = random_trig(g, 14, seed=12)
        w = random_trig(g, 14, seed=13)
        j = (
            bracket_core(f, bracket_core(h, w))
            + bracket_core(h, bracket_core(w, f))
            + bracket_core(w, bracket_core(f, h))
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
        X, Y = mesh(g)
        assert np.max(np.abs(out - expect * np.cos(alpha * X + 2 * Y))) < 1e-13

    def test_invert_then_apply(self):
        g = grid(alpha=0.7)
        f = random_trig(g, 9, seed=6)
        f = project_mean(f)
        back = laplacian(invert_laplacian(f))
        assert (back - f).norm_inf() < 1e-11

    def test_mean_rejected(self):
        g = grid()
        c = np.zeros(g.spectral_shape, complex)
        c[0, 0] = 1.0
        with pytest.raises(ValidationError, match="mean-zero"):
            invert_laplacian(SpectralField(g, c))


class TestVelocityAndRhs:
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
        out = np.where(dealias_mask(g), f.coeffs, 0.0)
        mx = np.abs(g.k[0][:, 0])
        keep = mx <= 21
        assert np.all(out[~keep, :] == 0)

    def test_product_exact_below_cut(self):
        # quadratic products of low fields are computed without aliasing error
        g = grid(n=64)
        f = field_from_fn(g, lambda x, y: np.cos(3 * x + y))
        h = field_from_fn(g, lambda x, y: np.sin(2 * x - 4 * y))
        out = bracket_core(f, h)
        gg = grid(n=256)
        fb = field_from_fn(gg, lambda x, y: np.cos(3 * x + y))
        hb = field_from_fn(gg, lambda x, y: np.sin(2 * x - 4 * y))
        ref = bracket_core(fb, hb)
        # compare the shared coefficients
        out, ref = full_spectrum(out), full_spectrum(ref)
        for m in range(-10, 11):
            for n in range(-10, 11):
                assert abs(out[m, n] - ref[m, n]) < 1e-13


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
        # a complex field a + ib is carried as (re, im) rows; the bracket acts row by row
        g = grid()
        om = random_trig(g, 5, seed=31)
        a = random_trig(g, 5, seed=32)
        b = random_trig(g, 5, seed=33)
        phi = SpectralField(g, np.stack([a.coeffs, b.coeffs]))
        lhs = bracket_core(om, phi)
        rhs = np.stack([bracket_core(om, a).coeffs, bracket_core(om, b).coeffs])
        assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-12

    def test_roundtrip_3d_vector_writes_a_hermitian_spectrum(self, tmp_path):
        g = TorusGrid((8, 6, 8))
        f = random_solenoidal_field(g, 2, np.random.default_rng(34), 1.0)
        p = tmp_path / "u.json"
        save_field(p, f)
        d = json.loads(p.read_text())
        full = (np.array(d["re"]) + 1j * np.array(d["im"])).reshape(3, *g.shape)
        mirror = np.conj(full[:, (-np.arange(8)) % 8][:, :, (-np.arange(6)) % 6][:, :, :, (-np.arange(8)) % 8])
        assert np.array_equal(full, mirror)
        assert np.array_equal(full, full_spectrum(f))
        assert load_field(p).coeffs.tobytes() == f.coeffs.tobytes()

    def test_save_refuses_what_load_refuses(self, tmp_path):
        g = grid(n=8)
        with pytest.raises(ValidationError, match=r"not a \(3,\) stack"):
            save_field(tmp_path / "s.json", SpectralField(g, np.zeros((3, *g.spectral_shape))))
        with pytest.raises(ValidationError, match=r"not a \(2, 2\) stack"):
            save_field(tmp_path / "s.json", SpectralField(g, np.zeros((2, 2, *g.spectral_shape))))
        assert not (tmp_path / "s.json").exists()

    def test_a_non_finite_coefficient_is_refused_before_any_file_exists(self, tmp_path):
        # a bare NaN token is not JSON, and load_field would refuse the file
        g = grid(n=8)
        c = np.zeros(g.spectral_shape, dtype=complex)
        c[1, 1] = complex(0.0, np.inf)
        with pytest.raises(ValidationError, match="non-finite coefficients"):
            save_field(tmp_path / "s.json", SpectralField(g, c))
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("edit", [{}, {"version": 2}, {"kind": "field4d"}, {"grid": {"alpha": 1.0, "nx": 3, "ny": 4}}])
    def test_errors_name_the_path_once(self, tmp_path, edit):
        # a NaN coefficient, and with it an unsupported version, an unknown kind or an odd grid size
        snapshot = {"version": 1, "kind": "field2d", "grid": {"alpha": 1.0, "nx": 4, "ny": 4},
                    "re": [float("nan")] + [0.0] * 15, "im": [0.0] * 16}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**snapshot, **edit}))
        with pytest.raises(ValidationError) as exc:
            load_field(p)
        assert str(exc.value).count(str(p)) == 1, exc.value
        assert "malformed" not in str(exc.value)

    @pytest.mark.parametrize("name", ["scalar_2d", "vector_3d"])
    def test_loads_a_snapshot_written_before_half_spectra(self, name):
        # written by save_field when fields held full spectra; the same draws as here
        want = {
            "scalar_2d": lambda: random_real_field(TorusGrid((8, 6), 0.7), 2, np.random.default_rng(1), 0.5),
            "vector_3d": lambda: random_solenoidal_field(TorusGrid((4, 6, 4)), 1, np.random.default_rng(3), 1.5),
        }[name]()
        got = load_field(GOLDEN / f"snapshot_v1_{name}.json")
        assert got.grid == want.grid
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-15

    def test_rejects_a_complex_snapshot(self):
        # a complex scalar saved when fields held full spectra; it is two real fields now
        with pytest.raises(ValidationError, match="not a real field"):
            load_field(GOLDEN / "snapshot_v1_complex_3d.json")
