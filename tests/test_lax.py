"""Transport-compatibility checks and the gauge transform."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from nel.errors import ComputationalError, ValidationError
from nel.fields import (
    SpectralField,
    bracket_core,
    complex_norm_inf,
    invert_laplacian,
    random_real_field,
)
from nel.fields3d import advect_3d, biot_savart_3d, random_scalar_field, random_solenoidal_field
from nel.grids import TorusGrid
from nel.lax import (
    DarbouxInput,
    _transport_check,
    darboux_apply,
    darboux_shear_example,
    darboux_verify,
    transported_eigenfield_check_2d,
    transported_eigenfield_check_3d,
)
from oracles import eigen_residual, gauge_identity_residual, mesh, ns_rhs_2d, reflect_xy


def field_of(grid, fn):
    X, Y = mesh(grid)
    return SpectralField.from_physical(grid, fn(X, Y) + 0.0 * X + 0.0 * Y)


def pair_of(grid, fn):
    """A complex field as its (re, im) rows."""
    X, Y = mesh(grid)
    z = fn(X, Y) + 0.0 * X + 0.0 * Y
    return SpectralField.from_physical(grid, np.stack([z.real, z.imag]))


random_scalar_3d = random_scalar_field


class TestOperators:
    def test_self_bracket_is_zero(self):
        g = TorusGrid((32, 32), 0.7)
        om = random_real_field(g, 4, np.random.default_rng(0))
        assert bracket_core(om, om).norm_inf() < 1e-14

    def test_x_only_eigenfield(self):
        # Omega = cos x: any g(x) is annihilated by L
        g = TorusGrid((32, 32))
        om = field_of(g, lambda X, Y: np.cos(X))
        phi = field_of(g, lambda X, Y: np.sin(2 * X) + 0.3 * np.cos(X))
        assert bracket_core(om, phi).norm_inf() < 1e-14
        assert bracket_core(invert_laplacian(om), phi).norm_inf() < 1e-14  # Psi = -cos x is x-only too

    def test_hand_bracket_shear(self):
        # {cos y, e^{i a x}} = (0)(ike^{iax}) - (-sin y)(ia e^{iax})
        #                    = +ia sin y e^{iax}
        alpha = 0.7
        g = TorusGrid((32, 32), alpha)
        om = field_of(g, lambda X, Y: np.cos(Y))
        phi = pair_of(g, lambda X, Y: np.exp(1j * alpha * X))
        lphi, aphi = bracket_core(om, phi), bracket_core(invert_laplacian(om), phi)
        X, Y = mesh(g)
        expect = 1j * alpha * np.sin(Y) * np.exp(1j * alpha * X)
        expect = np.stack([expect.real, expect.imag])
        assert np.max(np.abs(lphi.physical() - expect)) < 1e-13
        # A = {Psi, .} with Psi = -cos y flips the sign
        assert np.max(np.abs(aphi.physical() + expect)) < 1e-13

    def test_eigen_residual(self):
        g = TorusGrid((32, 32))
        om = field_of(g, lambda X, Y: np.cos(Y))
        phi = pair_of(g, lambda X, Y: np.exp(1j * Y))  # a lam=0 eigenfield of {cos y, .}
        lphi = bracket_core(om, phi)
        assert eigen_residual(lphi, phi, 0j) < 1e-14
        assert abs(eigen_residual(lphi, phi, 1.0 + 0j) - 1.0) < 1e-12

    def test_state_validation(self):
        g = TorusGrid((16, 16))
        bad = pair_of(g, lambda X, Y: np.exp(1j * X))  # a complex omega, as (re, im) rows
        ok = field_of(g, lambda X, Y: np.cos(X))
        with pytest.raises(ValidationError, match="real"):
            transported_eigenfield_check_2d(bad, ok, t_end=0.1, dt=0.1)
        with pytest.raises(ValidationError, match="mean"):
            transported_eigenfield_check_2d(field_of(g, lambda X, Y: 1.0 + np.cos(X)), ok, t_end=0.1, dt=0.1)

    def test_3d_operators_and_state(self):
        g = TorusGrid((16, 16, 16))
        rng = np.random.default_rng(5)
        om = random_solenoidal_field(g, 2, rng, amplitude=0.5)
        phi = random_scalar_3d(g, 2, rng, amplitude=1.0)
        lphi, aphi = advect_3d(om, phi), advect_3d(biot_savart_3d(om), phi)
        assert np.isfinite(lphi.norm_inf()) and np.isfinite(aphi.norm_inf())
        assert eigen_residual(lphi, phi, 0j) == pytest.approx(complex_norm_inf(lphi))


class TestTransport2D:
    def test_steady_shear_exact(self):
        g = TorusGrid((48, 48))
        om = field_of(g, lambda X, Y: np.cos(Y))
        phi = field_of(g, lambda X, Y: np.sin(Y) + 0.2 * np.cos(2 * Y))
        r = transported_eigenfield_check_2d(om, phi, t_end=0.25, dt=2e-3)
        assert r.residual_inf < 1e-13

    def test_generic_flow_and_control(self):
        g = TorusGrid((48, 48))
        rng = np.random.default_rng(3)
        om0 = random_real_field(g, 3, rng, amplitude=0.5)
        ph0 = random_real_field(g, 3, rng, amplitude=1.0)
        r = transported_eigenfield_check_2d(om0, ph0, t_end=0.25, dt=2e-3)
        assert r.residual_inf < 1e-7
        rc = transported_eigenfield_check_2d(
            om0, ph0, t_end=0.25, dt=2e-3, negative_control=True
        )
        assert rc.residual_inf > 1e-2
        assert rc.residual_inf > 1e4 * r.residual_inf

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cfl_blowup_raises(self):
        g = TorusGrid((48, 48))
        rng = np.random.default_rng(3)
        om0 = random_real_field(g, 8, rng, amplitude=20.0)
        ph0 = random_real_field(g, 3, rng, amplitude=1.0)
        with pytest.raises(ComputationalError, match="blew up"):
            transported_eigenfield_check_2d(om0, ph0, t_end=5.0, dt=0.5)

    def test_blowup_in_any_marched_field_raises(self):
        # omega stays finite; only the passive row phi of the stack goes non-finite
        g = TorusGrid((16, 16))
        om = field_of(g, lambda X, Y: np.cos(Y))
        k = np.zeros((3, *g.spectral_shape), complex)
        k[1] = np.nan

        def rhs(y, t):
            return SpectralField(g, k)

        with pytest.raises(ComputationalError, match="test march blew up at t=0.05"):
            _transport_check("test march", om, om, 0.1, 0.05, rhs, bracket_core)

    def test_rejects_bad_steps(self):
        g = TorusGrid((16, 16))
        om = field_of(g, lambda X, Y: np.cos(Y))
        with pytest.raises(ValidationError):
            transported_eigenfield_check_2d(om, om, t_end=1.0, dt=-0.1)


class TestTransport3D:
    def test_steady_shear_exact(self):
        g = TorusGrid((16, 16, 16))
        pts = np.arange(16) * 2 * np.pi / 16
        _, y, z = np.meshgrid(pts, pts, pts, indexing="ij")
        om = SpectralField.from_physical(g, np.stack([0 * z, np.cos(z), 0 * z]))
        phi = SpectralField.from_physical(g, np.stack([np.cos(y), np.sin(y)]))  # e^{iy} as (re, im)
        r = transported_eigenfield_check_3d(om, phi, t_end=0.2, dt=5e-3)
        assert r.residual_inf < 1e-13

    def test_curl_constrained_and_refinement(self):
        resids = {}
        for n in (16, 24):
            g = TorusGrid((n, n, n))
            rng = np.random.default_rng(99)
            om0 = random_solenoidal_field(g, 2, rng, amplitude=0.3)
            ph0 = random_scalar_3d(g, 2, rng, amplitude=1.0)
            r = transported_eigenfield_check_3d(om0, ph0, t_end=0.5, dt=5e-3)
            resids[n] = r.residual_inf
        assert resids[16] < 1e-3
        assert resids[24] < resids[16] / 4  # truncation-limited

    def test_prescribed_velocity_and_control(self):
        g = TorusGrid((16, 16, 16))
        rng = np.random.default_rng(99)
        om0 = random_solenoidal_field(g, 2, rng, amplitude=0.3)
        ph0 = random_scalar_3d(g, 2, rng, amplitude=1.0)
        u1 = random_solenoidal_field(g, 2, rng, amplitude=0.2)
        u2 = random_solenoidal_field(g, 2, rng, amplitude=0.2)

        def vel(t):
            return np.cos(t) * u1 + np.sin(t) * u2

        r = transported_eigenfield_check_3d(
            om0, ph0, t_end=0.5, dt=5e-3, velocity=vel
        )
        assert r.residual_inf < 5e-3
        rc = transported_eigenfield_check_3d(
            om0, ph0, t_end=0.5, dt=5e-3, negative_control=True
        )
        assert rc.residual_inf > 1e-2

    def test_validation(self):
        g = TorusGrid((16, 16, 16))
        rng = np.random.default_rng(1)
        ph0 = random_scalar_3d(g, 2, rng, amplitude=1.0)
        c = np.zeros((3, *g.spectral_shape), np.complex128)
        c[0, 1, 0, 0] = 1.0  # k . c != 0: not solenoidal
        bad = SpectralField(g, c)
        with pytest.raises(ValidationError, match="divergence"):
            transported_eigenfield_check_3d(bad, ph0, 0.1, 5e-3)


def worked_example(nx=128, ny=8):
    """All fields x-only: Omega = cos x, p = sin x, f = 2 + sin x,
    Lap F = cos 2x."""
    g = TorusGrid((nx, ny))
    return g, DarbouxInput(
        omega=field_of(g, lambda X, Y: np.cos(X)),
        p=field_of(g, lambda X, Y: np.sin(X)),
        f=field_of(g, lambda X, Y: 2.0 + np.sin(X)),
        F=field_of(g, lambda X, Y: -np.cos(2 * X) / 4),
    )


# full-grid float64 arrays darboux may hold at once: 10.4 measured (numpy 2.4)
PEAK_ARRAYS = 11.0


class TestDarboux:
    def test_p_equals_f_gives_zero(self):
        g, inp = worked_example()
        inp = dataclasses.replace(inp, p=inp.f)
        res = darboux_apply(inp)
        assert np.all(res.p_t == 0.0)
        ver = darboux_verify(res)
        assert ver.residual_inf == 0.0

    def test_zero_F_is_identity(self):
        g, inp = worked_example()
        inp = dataclasses.replace(inp, F=SpectralField(g, np.zeros(g.spectral_shape)))
        res = darboux_apply(inp)
        assert np.array_equal(res.omega_t.coeffs, inp.omega.coeffs)
        assert np.array_equal(res.psi_t.coeffs, inp.psi.coeffs)

    def test_worked_example(self):
        g, inp = worked_example()
        res = darboux_apply(inp)
        # sin x vanishes at exactly two grid columns (x = 0, pi)
        assert res.masked_fraction == pytest.approx(2 / 128)
        assert res.masked_fraction < 0.02
        X, _ = mesh(g)
        keep = ~res.mask
        exact = np.zeros_like(X)
        np.divide(
            -2 * np.cos(X), np.sin(X) * (2 + np.sin(X)), out=exact, where=keep
        )
        assert np.max(np.abs(res.p_t[keep].real - exact[keep])) < 1e-10
        # transformed vorticity picks up Lap F
        om_t = field_of(g, lambda X, Y: np.cos(X) + np.cos(2 * X))
        assert (res.omega_t - om_t).norm_inf() < 1e-12
        ver = darboux_verify(res)
        assert ver.residual_inf < 1e-8

    def test_corrupted_stream_control(self):
        g, inp = worked_example()
        res = darboux_apply(inp)
        bump = field_of(g, lambda X, Y: 0.1 * np.sin(Y))
        bad = dataclasses.replace(res, psi_t=res.psi_t + bump)
        ver = darboux_verify(bad)
        assert ver.residual_inf > 1e-1

    def test_preconditions(self):
        g, inp = worked_example()
        with pytest.raises(ValidationError, match=r"\{Omega, p\}"):
            darboux_apply(
                dataclasses.replace(inp, p=field_of(g, lambda X, Y: np.sin(Y)))
            )
        with pytest.raises(ValidationError, match="vanishes"):
            darboux_apply(
                dataclasses.replace(inp, f=field_of(g, lambda X, Y: np.sin(X)))
            )
        with pytest.raises(ValidationError, match="gauge constraints"):
            darboux_apply(
                dataclasses.replace(inp, F=field_of(g, lambda X, Y: np.cos(Y)))
            )
        with pytest.raises(ValidationError, match="eta"):
            darboux_apply(dataclasses.replace(inp, eta=0.0))

    @pytest.mark.parametrize("name", ["p", "F"])
    def test_nan_residual_fails_preconditions(self, name):
        _, inp = worked_example()
        coeffs = getattr(inp, name).coeffs.copy()
        coeffs[1, 0] = np.nan
        bad = dataclasses.replace(inp, **{name: SpectralField(inp.omega.grid, coeffs)})
        with pytest.raises(ValidationError, match="residual|gauge constraints"):
            darboux_apply(bad)

    def test_no_gauge_factor_raises_before_dividing(self):
        """Omega = cos y (nothing masked) and f = 0 pass every bracket check,
        but the quotient would be 0/0 everywhere off the mask."""
        g = TorusGrid((32, 16))
        x_free = DarbouxInput(
            omega=field_of(g, lambda X, Y: np.cos(Y)),
            p=field_of(g, lambda X, Y: np.sin(Y)),
            f=field_of(g, lambda X, Y: 2.0),
            F=field_of(g, lambda X, Y: 0.0),
        )
        _, inp = worked_example(32, 16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no 0/0 is computed on the way
            with pytest.raises(ValidationError, match="Omega_x"):
                darboux_apply(x_free)
            with pytest.raises(ValidationError, match="vanishes"):
                darboux_apply(dataclasses.replace(inp, f=SpectralField(g, np.zeros(g.spectral_shape))))

    def test_caller_arrays_are_left_unchanged(self):
        """apply and verify write only into arrays they allocated: the
        caller's coefficient arrays, which stay writable, keep their bytes,
        and verify leaves the result as apply made it."""
        g = TorusGrid((64, 32))
        X, Y = mesh(g)
        om = np.cos(X) + np.cos(Y)
        arrays = [SpectralField.from_physical(g, v).coeffs.copy() for v in (om, om**2, 3 + om, om / 4)]
        before = [a.copy() for a in arrays]
        res = darboux_apply(DarbouxInput(*(SpectralField(g, a) for a in arrays)))
        made = [a.copy() for a in (res.omega_t.coeffs, res.psi_t.coeffs, res.p_t, res.mask)]
        assert darboux_verify(res).masked_fraction == 1 / 32
        assert all(a.flags.writeable for a in arrays)
        for a, b in zip([*arrays, res.omega_t.coeffs, res.psi_t.coeffs, res.p_t, res.mask], before + made):
            assert a.tobytes() == b.tobytes()

    def test_peak_memory(self):
        """apply then verify on the 512x64 worked example allocate at most
        PEAK_ARRAYS full-grid float64 arrays at once above the inputs and the
        grid's caches, which a first run fills."""
        inp = darboux_shear_example(512, 64)
        darboux_verify(darboux_apply(inp))
        tracemalloc.start()
        try:
            darboux_verify(darboux_apply(inp))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_ARRAYS * 512 * 64 * 8


class TestGaugeIdentity:
    def test_two_quotients_agree(self):
        g = TorusGrid((64, 64))
        om = field_of(g, lambda X, Y: np.cos(X) + np.cos(Y))
        p_vals = lambda X, Y: (np.cos(X) + np.cos(Y)) ** 2
        f_vals = lambda X, Y: 3.0 + np.cos(X) + np.cos(Y)
        p = field_of(g, p_vals)
        f = field_of(g, f_vals)
        assert gauge_identity_residual(om, p, f) < 1e-6

    def test_needs_points_off_the_axes(self):
        g = TorusGrid((32, 32))
        om = field_of(g, lambda X, Y: np.cos(X))  # Omega_y = 0 everywhere
        with pytest.raises(ValidationError, match="floor"):
            gauge_identity_residual(om, om, om)


class TestSwapSymmetry:
    def test_reflect_roundtrip_and_modes(self):
        g = TorusGrid((32, 32))
        f = field_of(g, lambda X, Y: np.cos(X))
        sf = reflect_xy(f)
        expect = field_of(g, lambda X, Y: np.cos(Y))
        assert (sf - expect).norm_inf() < 1e-14
        assert (reflect_xy(sf) - f).norm_inf() == 0.0
        rect = TorusGrid((32, 32), 0.7)
        with pytest.raises(ValidationError):
            reflect_xy(field_of(rect, lambda X, Y: np.cos(X)))

    def test_bracket_anti_equivariance(self):
        g = TorusGrid((48, 48))
        rng = np.random.default_rng(11)
        om = random_real_field(g, 5, rng)
        p = random_real_field(g, 5, rng)
        lhs = bracket_core(reflect_xy(om), reflect_xy(p))
        rhs = reflect_xy(bracket_core(om, p))
        assert (lhs + rhs).norm_inf() < 1e-12

    def test_residual_norms_preserved(self):
        # (t,x,y) -> (-t,y,x): both eigen-system residuals keep their norms
        g = TorusGrid((48, 48))
        rng = np.random.default_rng(12)
        om = random_real_field(g, 4, rng)
        p = random_real_field(g, 4, rng)  # generic: residuals are O(1)
        r1 = bracket_core(om, p).norm_inf()
        r2 = bracket_core(invert_laplacian(om), p).norm_inf()
        som, sp = reflect_xy(om), reflect_xy(p)
        s1 = bracket_core(som, sp).norm_inf()
        s2 = bracket_core(invert_laplacian(som), sp).norm_inf()
        assert abs(r1 - s1) < 1e-8
        assert abs(r2 - s2) < 1e-8

    def test_time_reversal_of_euler_rhs(self):
        # evolving the reflected field forward = reflecting the backward flow
        g = TorusGrid((48, 48))
        rng = np.random.default_rng(13)
        om = random_real_field(g, 4, rng)
        zero = SpectralField(g, np.zeros(g.spectral_shape))
        lhs = ns_rhs_2d(reflect_xy(om), 0.0, zero)
        rhs = reflect_xy(ns_rhs_2d(om, 0.0, zero))
        assert (lhs + rhs).norm_inf() < 1e-12
