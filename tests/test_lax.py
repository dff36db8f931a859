"""Transport-compatibility checks and the gauge transform."""

import dataclasses

import numpy as np
import pytest

from nel.errors import ComputationalError, ValidationError
from nel.fields import SpectralField, bracket_core, ns_rhs_2d, random_real_field
from nel.fields3d import random_scalar_field, random_solenoidal_field
from nel.grids import TorusGrid2D, TorusGrid3D
from nel.lax import (
    DarbouxInput,
    _march,
    LaxState2D,
    LaxState3D,
    darboux_apply,
    darboux_verify,
    eigen_residual,
    gauge_identity_residual,
    lax_operators_2d,
    lax_operators_3d,
    reflect_xy,
    transported_eigenfield_check_2d,
    transported_eigenfield_check_3d,
)


def field_of(grid, fn):
    X, Y = grid.x[:, None], grid.y[None, :]
    return SpectralField.from_physical(grid, fn(X, Y) + 0.0 * X + 0.0 * Y)


random_scalar_3d = random_scalar_field


class TestOperators:
    def test_self_bracket_is_zero(self):
        g = TorusGrid2D(alpha=0.7, nx=32, ny=32)
        om = random_real_field(g, 4, np.random.default_rng(0))
        st = LaxState2D(omega=om, phi=om)
        lphi, _ = lax_operators_2d(st)
        assert lphi.norm_inf() < 1e-14

    def test_x_only_eigenfield(self):
        # Omega = cos x: any g(x) is annihilated by L
        g = TorusGrid2D(alpha=1.0, nx=32, ny=32)
        om = field_of(g, lambda X, Y: np.cos(X))
        phi = field_of(g, lambda X, Y: np.sin(2 * X) + 0.3 * np.cos(X))
        lphi, aphi = lax_operators_2d(LaxState2D(omega=om, phi=phi))
        assert lphi.norm_inf() < 1e-14
        assert aphi.norm_inf() < 1e-14  # Psi = -cos x is x-only too

    def test_hand_bracket_shear(self):
        # {cos y, e^{i a x}} = (0)(ike^{iax}) - (-sin y)(ia e^{iax})
        #                    = +ia sin y e^{iax}
        alpha = 0.7
        g = TorusGrid2D(alpha=alpha, nx=32, ny=32)
        om = field_of(g, lambda X, Y: np.cos(Y))
        c = np.zeros((32, 32), np.complex128)
        c[1, 0] = 1.0
        phi = SpectralField(g, c)
        lphi, aphi = lax_operators_2d(LaxState2D(omega=om, phi=phi))
        X, Y = g.x[:, None], g.y[None, :]
        expect = 1j * alpha * np.sin(Y) * np.exp(1j * alpha * X)
        assert np.max(np.abs(lphi.physical() - expect)) < 1e-13
        # A = {Psi, .} with Psi = -cos y flips the sign
        assert np.max(np.abs(aphi.physical() + expect)) < 1e-13

    def test_eigen_residual(self):
        g = TorusGrid2D(alpha=1.0, nx=32, ny=32)
        om = field_of(g, lambda X, Y: np.cos(Y))
        c = np.zeros((32, 32), np.complex128)
        c[0, 1] = 1.0  # e^{iy} is a lam=0 eigenfield of {cos y, .}
        phi = SpectralField(g, c)
        assert eigen_residual(LaxState2D(omega=om, phi=phi, lam=0j)) < 1e-14
        r = eigen_residual(LaxState2D(omega=om, phi=phi, lam=1.0 + 0j))
        assert abs(r - 1.0) < 1e-12

    def test_state_validation(self):
        g = TorusGrid2D(alpha=1.0, nx=16, ny=16)
        c = np.zeros((16, 16), np.complex128)
        c[1, 2] = 1.0  # not Hermitian-symmetric
        bad = SpectralField(g, c)
        ok = field_of(g, lambda X, Y: np.cos(X))
        with pytest.raises(ValidationError, match="real"):
            LaxState2D(omega=bad, phi=ok)
        with pytest.raises(ValidationError, match="mean"):
            LaxState2D(omega=field_of(g, lambda X, Y: 1.0 + np.cos(X)), phi=ok)
        st = LaxState2D(omega=ok, phi=ok)
        lap = np.max(np.abs((st.psi.coeffs * (-g.k_squared)) - ok.coeffs))
        assert lap < 1e-14  # psi is derived: Lap(psi) = omega

    def test_3d_operators_and_state(self):
        g = TorusGrid3D(nx=16, ny=16, nz=16)
        rng = np.random.default_rng(5)
        om = random_solenoidal_field(g, 2, rng, amplitude=0.5)
        phi = random_scalar_3d(g, 2, rng, amplitude=1.0)
        st = LaxState3D(omega=om, phi=phi)
        lphi, aphi = lax_operators_3d(st)
        assert np.isfinite(lphi.norm_inf()) and np.isfinite(aphi.norm_inf())
        assert eigen_residual(st) == pytest.approx(lphi.norm_inf())
        with pytest.raises(ValidationError, match="prescribed"):
            LaxState3D(omega=om, phi=phi, enforce_curl=False)


class TestTransport2D:
    def test_steady_shear_exact(self):
        g = TorusGrid2D(alpha=1.0, nx=48, ny=48)
        om = field_of(g, lambda X, Y: np.cos(Y))
        phi = field_of(g, lambda X, Y: np.sin(Y) + 0.2 * np.cos(2 * Y))
        r = transported_eigenfield_check_2d(om, phi, t_end=0.25, dt=2e-3)
        assert r.residual_inf < 1e-13

    def test_generic_flow_and_control(self):
        g = TorusGrid2D(alpha=1.0, nx=48, ny=48)
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
        g = TorusGrid2D(alpha=1.0, nx=48, ny=48)
        rng = np.random.default_rng(3)
        om0 = random_real_field(g, 8, rng, amplitude=20.0)
        ph0 = random_real_field(g, 3, rng, amplitude=1.0)
        with pytest.raises(ComputationalError, match="blew up"):
            transported_eigenfield_check_2d(om0, ph0, t_end=5.0, dt=0.5)

    def test_blowup_in_any_marched_field_raises(self):
        # omega stays finite; only the passive field goes non-finite
        g = TorusGrid2D(alpha=1.0, nx=16, ny=16)
        om = field_of(g, lambda X, Y: np.cos(Y))
        nan = SpectralField(g, np.full((16, 16), np.nan + 0j))

        def rhs(state, t):
            return (0.0 * state[0], nan, 0.0 * state[2])

        with pytest.raises(ComputationalError, match="blew up"):
            _march((om, om, om), 0.1, 0.05, rhs, "test march")

    def test_rejects_bad_steps(self):
        g = TorusGrid2D(alpha=1.0, nx=16, ny=16)
        om = field_of(g, lambda X, Y: np.cos(Y))
        with pytest.raises(ValidationError):
            transported_eigenfield_check_2d(om, om, t_end=1.0, dt=-0.1)


class TestTransport3D:
    def test_steady_shear_exact(self):
        g = TorusGrid3D(nx=16, ny=16, nz=16)
        pts = np.arange(16) * 2 * np.pi / 16
        _, y, z = np.meshgrid(pts, pts, pts, indexing="ij")
        om = SpectralField.from_physical(g, np.stack([0 * z, np.cos(z), 0 * z]))
        phi = SpectralField.from_physical(g, np.exp(1j * y))
        r = transported_eigenfield_check_3d(om, phi, t_end=0.2, dt=5e-3)
        assert r.residual_inf < 1e-13

    def test_curl_constrained_and_refinement(self):
        resids = {}
        for n in (16, 24):
            g = TorusGrid3D(nx=n, ny=n, nz=n)
            rng = np.random.default_rng(99)
            om0 = random_solenoidal_field(g, 2, rng, amplitude=0.3)
            ph0 = random_scalar_3d(g, 2, rng, amplitude=1.0)
            r = transported_eigenfield_check_3d(om0, ph0, t_end=0.5, dt=5e-3)
            resids[n] = r.residual_inf
        assert resids[16] < 1e-3
        assert resids[24] < resids[16] / 4  # truncation-limited

    def test_prescribed_velocity_and_control(self):
        g = TorusGrid3D(nx=16, ny=16, nz=16)
        rng = np.random.default_rng(99)
        om0 = random_solenoidal_field(g, 2, rng, amplitude=0.3)
        ph0 = random_scalar_3d(g, 2, rng, amplitude=1.0)
        u1 = random_solenoidal_field(g, 2, rng, amplitude=0.2)
        u2 = random_solenoidal_field(g, 2, rng, amplitude=0.2)

        def vel(t):
            return np.cos(t) * u1 + np.sin(t) * u2

        r = transported_eigenfield_check_3d(
            om0, ph0, t_end=0.5, dt=5e-3, enforce_curl=False, velocity=vel
        )
        assert r.residual_inf < 5e-3
        rc = transported_eigenfield_check_3d(
            om0, ph0, t_end=0.5, dt=5e-3, negative_control=True
        )
        assert rc.residual_inf > 1e-2

    def test_validation(self):
        g = TorusGrid3D(nx=16, ny=16, nz=16)
        rng = np.random.default_rng(1)
        om0 = random_solenoidal_field(g, 2, rng, amplitude=0.3)
        ph0 = random_scalar_3d(g, 2, rng, amplitude=1.0)
        c = np.zeros((3, 16, 16, 16), np.complex128)
        c[0, 1, 0, 0] = 1.0  # k . c != 0: not solenoidal
        bad = SpectralField(g, c)
        with pytest.raises(ValidationError, match="divergence"):
            transported_eigenfield_check_3d(bad, ph0, 0.1, 5e-3)
        with pytest.raises(ValidationError, match="velocity"):
            transported_eigenfield_check_3d(
                om0, ph0, 0.1, 5e-3, enforce_curl=False
            )
        with pytest.raises(ValidationError, match="velocity"):
            transported_eigenfield_check_3d(
                om0, ph0, 0.1, 5e-3, enforce_curl=True, velocity=lambda t: om0
            )


def worked_example(nx=128, ny=8):
    """All fields x-only: Omega = cos x, p = sin x, f = 2 + sin x,
    Lap F = cos 2x."""
    g = TorusGrid2D(alpha=1.0, nx=nx, ny=ny)
    return g, DarbouxInput(
        omega=field_of(g, lambda X, Y: np.cos(X)),
        p=field_of(g, lambda X, Y: np.sin(X)),
        f=field_of(g, lambda X, Y: 2.0 + np.sin(X)),
        F=field_of(g, lambda X, Y: -np.cos(2 * X) / 4),
    )


class TestDarboux:
    def test_p_equals_f_gives_zero(self):
        g, inp = worked_example()
        inp = dataclasses.replace(inp, p=inp.f)
        res = darboux_apply(inp)
        assert np.all(res.p_t == 0.0)
        ver = darboux_verify(inp, res)
        assert ver.residual_inf == 0.0

    def test_zero_F_is_identity(self):
        g, inp = worked_example()
        inp = dataclasses.replace(inp, F=SpectralField(g, np.zeros(g.shape)))
        res = darboux_apply(inp)
        assert np.array_equal(res.omega_t.coeffs, inp.omega.coeffs)
        assert np.array_equal(res.psi_t.coeffs, inp.psi.coeffs)

    def test_worked_example(self):
        g, inp = worked_example()
        res = darboux_apply(inp)
        # sin x vanishes at exactly two grid columns (x = 0, pi)
        assert res.masked_fraction == pytest.approx(2 / 128)
        assert res.masked_fraction < 0.02
        X = (g.x[:, None] + 0 * g.y[None, :])
        keep = ~res.mask
        exact = np.zeros_like(X)
        np.divide(
            -2 * np.cos(X), np.sin(X) * (2 + np.sin(X)), out=exact, where=keep
        )
        assert np.max(np.abs(res.p_t[keep].real - exact[keep])) < 1e-10
        # transformed vorticity picks up Lap F
        om_t = field_of(g, lambda X, Y: np.cos(X) + np.cos(2 * X))
        assert (res.omega_t - om_t).norm_inf() < 1e-12
        ver = darboux_verify(inp, res)
        assert ver.residual_inf < 1e-8

    def test_series_residual(self):
        g, inp = worked_example()
        res = darboux_apply(inp)
        ver = darboux_verify(inp, res, series=([res, res, res], [0.0, 0.1, 0.2]))
        assert ver.residual_inf < 1e-8

    def test_corrupted_stream_control(self):
        g, inp = worked_example()
        res = darboux_apply(inp)
        bump = field_of(g, lambda X, Y: 0.1 * np.sin(Y))
        bad = dataclasses.replace(res, psi_t=res.psi_t + bump)
        ver = darboux_verify(inp, bad)
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


class TestGaugeIdentity:
    def test_two_quotients_agree(self):
        g = TorusGrid2D(alpha=1.0, nx=64, ny=64)
        om = field_of(g, lambda X, Y: np.cos(X) + np.cos(Y))
        p_vals = lambda X, Y: (np.cos(X) + np.cos(Y)) ** 2
        f_vals = lambda X, Y: 3.0 + np.cos(X) + np.cos(Y)
        p = field_of(g, p_vals)
        f = field_of(g, f_vals)
        assert gauge_identity_residual(om, p, f) < 1e-6

    def test_needs_points_off_the_axes(self):
        g = TorusGrid2D(alpha=1.0, nx=32, ny=32)
        om = field_of(g, lambda X, Y: np.cos(X))  # Omega_y = 0 everywhere
        with pytest.raises(ValidationError, match="floor"):
            gauge_identity_residual(om, om, om)


class TestSwapSymmetry:
    def test_reflect_roundtrip_and_modes(self):
        g = TorusGrid2D(alpha=1.0, nx=32, ny=32)
        f = field_of(g, lambda X, Y: np.cos(X))
        sf = reflect_xy(f)
        expect = field_of(g, lambda X, Y: np.cos(Y))
        assert (sf - expect).norm_inf() < 1e-14
        assert (reflect_xy(sf) - f).norm_inf() == 0.0
        rect = TorusGrid2D(alpha=0.7, nx=32, ny=32)
        with pytest.raises(ValidationError):
            reflect_xy(field_of(rect, lambda X, Y: np.cos(X)))

    def test_bracket_anti_equivariance(self):
        g = TorusGrid2D(alpha=1.0, nx=48, ny=48)
        rng = np.random.default_rng(11)
        om = random_real_field(g, 5, rng)
        p = random_real_field(g, 5, rng)
        lhs = bracket_core(reflect_xy(om), reflect_xy(p))
        rhs = reflect_xy(bracket_core(om, p))
        assert (lhs + rhs).norm_inf() < 1e-12

    def test_residual_norms_preserved(self):
        # (t,x,y) -> (-t,y,x): both eigen-system residuals keep their norms
        g = TorusGrid2D(alpha=1.0, nx=48, ny=48)
        rng = np.random.default_rng(12)
        om = random_real_field(g, 4, rng)
        p = random_real_field(g, 4, rng)  # generic: residuals are O(1)
        from nel.fields import invert_laplacian

        r1 = bracket_core(om, p).norm_inf()
        r2 = bracket_core(invert_laplacian(om), p).norm_inf()
        som, sp = reflect_xy(om), reflect_xy(p)
        s1 = bracket_core(som, sp).norm_inf()
        s2 = bracket_core(invert_laplacian(som), sp).norm_inf()
        assert abs(r1 - s1) < 1e-8
        assert abs(r2 - s2) < 1e-8

    def test_time_reversal_of_euler_rhs(self):
        # evolving the reflected field forward = reflecting the backward flow
        g = TorusGrid2D(alpha=1.0, nx=48, ny=48)
        rng = np.random.default_rng(13)
        om = random_real_field(g, 4, rng)
        zero = SpectralField(g, np.zeros(g.shape))
        lhs = ns_rhs_2d(reflect_xy(om), 0.0, zero)
        rhs = reflect_xy(ns_rhs_2d(om, 0.0, zero))
        assert (lhs + rhs).norm_inf() < 1e-12
