"""Wave and envelope steppers: oracles, conservation, parity, convergence,
and the flow protocol they share with the angle flow."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nel import models
from nel.errors import ComputationalError, ValidationError
from nel.forcing import ABCState, ForcingSpec
from nel.models import (
    GLParams,
    SGParams,
    gl_limit_cycle,
    gl_limit_cycle_state,
    gl_mass,
    gl_state,
    gl_step,
    gl_uniform_state,
    sg_energy,
    sg_state,
    sg_step,
    sg_uniform_state,
    sg_zero_state,
)


def march(state, t_end, dt):
    for _ in range(round(t_end / dt)):
        state = state.step(dt)
    return state


def pendulum_ref(u0, v0, t_end):
    sol = solve_ivp(
        lambda t, y: [y[1], np.sin(y[0])],
        (0.0, t_end),
        [u0, v0],
        rtol=1e-12,
        atol=1e-12,
    )
    return sol.y[:, -1]


class TestSGWave:
    def test_zero_stays_zero(self):
        p = SGParams(eps=0.1, n_modes=16, forcing=ForcingSpec(mode="cos_t"))
        st = march(sg_zero_state(p), 1.0, 0.01)
        assert np.all(st.u == 0.0) and np.all(st.v == 0.0)

    def test_uniform_mode_matches_pendulum(self):
        # eps = 0 uniform data reduces to u'' = sin u
        p = SGParams(c=0.9, eps=0.0, n_modes=32)
        st = march(sg_uniform_state(p, 2.5, 0.3), 10.0, 0.01)
        ref = pendulum_ref(2.5, 0.3, 10.0)
        assert abs(st.u[0] - ref[0]) < 1e-8
        assert abs(st.v[0] - ref[1]) < 1e-8
        assert np.abs(st.u[1:]).max() == 0.0  # no spatial modes get excited

    def test_fourth_order_convergence(self):
        ref = pendulum_ref(2.5, 0.3, 5.0)
        errs = []
        for dt in (0.02, 0.01):
            p = SGParams(c=0.9, eps=0.0, n_modes=8)
            st = march(sg_uniform_state(p, 2.5, 0.3), 5.0, dt)
            errs.append(abs(st.u[0] - ref[0]))
        order = np.log2(errs[0] / errs[1])
        assert 3.2 < order < 4.8

    def test_energy_conservation(self):
        p = SGParams(c=0.9, eps=0.0, n_modes=64)
        rng = np.random.default_rng(7)
        u = np.zeros(65)
        v = np.zeros(65)
        u[:6] = rng.normal(0.0, 0.3, 6)
        v[:6] = rng.normal(0.0, 0.3, 6)
        st = sg_state(p, u, v)
        e0 = sg_energy(st)
        st = march(st, 20.0, 0.01)
        assert abs(sg_energy(st) - e0) / abs(e0) < 1e-8

    def test_odd_parity_structurally_closed(self):
        p = SGParams(c=0.8, a=1.0, eps=0.05, parity="odd", n_modes=32)
        u = np.zeros(33)
        u[1:5] = [0.5, 0.3, -0.2, 0.1]
        st = sg_state(p, u, np.zeros(33))
        st = march(st, 2.0, 0.01)
        assert st.u[0] == 0.0 and st.v[0] == 0.0
        assert np.abs(st.u[1:]).max() > 0.01  # dynamics actually happened

    def test_eps_continuity(self):
        def run(eps):
            p = SGParams(c=0.9, eps=eps, n_modes=32, forcing=ForcingSpec(mode="cos_t"))
            u = np.zeros(33)
            u[:4] = [0.5, 0.3, -0.2, 0.1]
            return march(sg_state(p, u, np.zeros(33)), 1.0, 0.01)

        base = run(0.0)
        d3 = np.abs(run(1e-3).u - base.u).max()
        d4 = np.abs(run(1e-4).u - base.u).max()
        assert 5.0 < d3 / d4 < 20.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_reports_last_valid_time(self):
        p = SGParams(c=0.9, a=100.0, eps=1.0, n_modes=16)
        st = sg_uniform_state(p, 1.0)
        with pytest.raises(ComputationalError, match="last valid time"):
            for _ in range(500):
                st = sg_step(st, 1.0)

    def test_validation(self):
        with pytest.raises(ValidationError, match="c must"):
            SGParams(c=1.2)
        with pytest.raises(ValidationError, match="positive"):
            SGParams(a=0.0)
        with pytest.raises(ValidationError, match="parity"):
            SGParams(parity="mixed")
        p = SGParams(parity="odd", n_modes=8)
        with pytest.raises(ValidationError, match="uniform"):
            sg_uniform_state(p, 1.0)
        u = np.zeros(9)
        u[0] = 0.5
        with pytest.raises(ValidationError, match="slot 0"):
            sg_state(p, u, np.zeros(9))
        with pytest.raises(ValidationError, match="dt"):
            sg_step(sg_zero_state(p), -0.1)


class TestGLEnvelope:
    def test_limit_cycle_tracked_for_any_eps(self):
        for eps in (0.0, 0.05):
            p = GLParams(variant="dernls", eps=eps, mu=6.0, gamma=0.4)
            st = gl_limit_cycle_state(p)
            worst = 0.0
            for _ in range(500):
                st = gl_step(st, 0.01)
                err = abs(st.q[0] - gl_limit_cycle(p, st.t)) + np.abs(st.q[1:]).max()
                worst = max(worst, err)
            assert worst < 1e-6, f"eps={eps}: {worst:.3e}"

    def test_nls_mass_conserved(self):
        p = GLParams(variant="dernls", eps=0.0)
        rng = np.random.default_rng(5)
        q = np.zeros(65, complex)
        q[:4] = rng.normal(0, 0.2, 4) + 1j * rng.normal(0, 0.2, 4)
        st = gl_state(p, q)
        m0 = gl_mass(st)
        st = march(st, 10.0, 0.005)
        assert abs(gl_mass(st) - m0) / m0 < 1e-8

    def test_pnls_uniform_modulus_pinned(self):
        # |q0| = omega is a fixed point of the eps = 0 uniform-mode flow
        om = 0.55
        p = GLParams(variant="pnls", eps=0.0, omega=om)
        st = march(gl_uniform_state(p, om), 10.0, 0.01)
        assert st.q[0] == om  # 2(|q|^2 - om^2) vanishes bitwise for real q0
        assert np.abs(st.q[1:]).max() == 0.0
        st = march(gl_uniform_state(p, om * np.exp(0.7j)), 10.0, 0.01)
        assert abs(abs(st.q[0]) - om) < 1e-12

    def test_pnls_damped_fixed_point(self):
        # beta = alpha*omega makes q = omega stationary; large eps keeps the
        # side-band (modulational) growth sqrt(4 omega^2 - 1) at k=1 damped
        om = 0.55
        p = GLParams(variant="pnls", eps=0.5, omega=om, alpha=2.0, beta=2.0 * om)
        st = march(gl_uniform_state(p, om), 10.0, 0.01)
        assert abs(st.q[0] - om) < 1e-9
        q = np.zeros(65, complex)
        q[0] = om
        q[1] = 1e-3
        st = march(gl_state(p, q), 10.0, 0.01)
        assert abs(st.q[1]) < 1e-4  # perturbation decayed, not grown

    def test_eps_continuity(self):
        def run(eps):
            p = GLParams(variant="dernls", eps=eps, mu=6.0, n_modes=32)
            q = np.zeros(33, complex)
            q[0] = 0.7
            q[1] = 0.2 + 0.1j
            q[2] = -0.1j
            return march(gl_state(p, q), 1.0, 0.01)

        base = run(0.0)
        d3 = np.abs(run(1e-3).q - base.q).max()
        d4 = np.abs(run(1e-4).q - base.q).max()
        assert 5.0 < d3 / d4 < 20.0

    def test_multiplier_cutoff_bites(self):
        # modes above K must not feed the |Dx q|^2 term: with all spatial
        # content at mode 8, a K=4 run is bitwise a mu=0 run, a K=32 run is not
        q = np.zeros(33, complex)
        q[0] = 0.75
        q[8] = 0.2

        def one_step(kk, mu):
            p = GLParams(variant="dernls", eps=0.1, mu=mu, K=kk, n_modes=32)
            return gl_step(gl_state(p, q), 0.01).q

        ref = one_step(4, 0.0)
        assert np.array_equal(one_step(4, 50.0), ref)
        assert np.abs(one_step(32, 50.0) - ref).max() > 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_raises(self):
        p = GLParams(variant="dernls", eps=0.0, K=8, n_modes=16)
        st = gl_uniform_state(p, 5.0 + 0j)
        with pytest.raises(ComputationalError, match="last valid time"):
            for _ in range(100):
                st = gl_step(st, 1.0)

    def test_validation(self):
        with pytest.raises(ValidationError, match="variant"):
            GLParams(variant="cgl")
        with pytest.raises(ValidationError, match="omega"):
            GLParams(variant="pnls", omega=1.5)
        with pytest.raises(ValidationError, match="positive"):
            GLParams(variant="pnls", omega=0.8, alpha=-1.0)
        with pytest.raises(ValidationError, match="cutoff"):
            GLParams(variant="dernls", K=100, n_modes=32)


KINDS = ["sg_even", "sg_odd", "dernls_eps0", "dernls_eps", "pnls", "abc"]


def random_state(case, rng):
    """One state of each kind, with every mode of the truncation excited."""
    if case == "abc":
        return ABCState(theta=tuple(rng.uniform(0.0, 2.0 * math.pi, 3)), abc=(1.0, 0.7, 0.4))
    quasi = ForcingSpec(mode="quasiperiodic", betas=(0.3, 0.2, 0.1, 0.1), eps=0.1)
    if case.startswith("sg"):
        parity = case.split("_")[1]
        p = SGParams(eps=0.1, parity=parity, n_modes=16, forcing=quasi if parity == "odd" else ForcingSpec())
        u, v = rng.normal(0.0, 0.2, (2, 17))
        if parity == "odd":
            u[0] = v[0] = 0.0
        return sg_state(p, u, v)
    variant, eps = {"dernls_eps0": ("dernls", 0.0), "dernls_eps": ("dernls", 0.05), "pnls": ("pnls", 0.1)}[case]
    p = GLParams(variant=variant, eps=eps, n_modes=16, K=8)
    return gl_state(p, rng.normal(0.0, 0.2, 17) + 1j * rng.normal(0.0, 0.2, 17))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestStateVectorRoundTrip:
    def test_sg(self):
        p = SGParams(n_modes=8)
        rng = np.random.default_rng(0)
        st = sg_state(p, rng.normal(size=9), rng.normal(size=9))
        vec = st.vector()
        assert vec.shape == (18,)
        st2 = st.with_vector(vec)
        assert np.array_equal(st2.u, st.u) and np.array_equal(st2.v, st.v)
        assert st2.t == st.t and st2.forcing is st.forcing

    def test_gl(self):
        p = GLParams(n_modes=8, K=4)
        rng = np.random.default_rng(1)
        st = gl_state(p, rng.normal(size=9) + 1j * rng.normal(size=9))
        vec = st.vector()
        assert vec.shape == (18,)
        st2 = st.with_vector(vec)
        assert np.allclose(st2.q, st.q, atol=0, rtol=0)
        # signed zeros and an infinite imaginary part survive bit for bit
        q = np.array([complex(-0.0, 1.0), complex(0.5, -0.0), complex(1.0, math.inf)])
        st = gl_state(GLParams(n_modes=4, K=2), np.concatenate([q, np.zeros(2)]))
        assert np.array_equal(bits(st.with_vector(st.vector()).q.view(float)), bits(st.q.view(float)))

    @pytest.mark.parametrize("case", KINDS)
    def test_protocol(self, case):
        st = random_state(case, np.random.default_rng(5))
        vec = st.vector()
        assert np.array_equal(bits(st.with_vector(vec).vector()), bits(vec))
        assert st.separation(st) == 0.0
        d0 = 1e-3
        shadow = st.shadow(d0, seed=2)
        assert st.separation(shadow) == pytest.approx(d0, rel=1e-9)
        direction = (shadow.vector() - vec) / d0
        assert np.linalg.norm(direction) == pytest.approx(1.0, rel=1e-9)
        if case == "sg_odd":  # slot 0 of u and of v
            assert np.array_equal(direction[[0, 17]], [0.0, 0.0])
        half = st.toward(shadow, 0.5)
        assert st.separation(half) == pytest.approx(0.5 * d0, rel=1e-9)
        assert half.separation(shadow) == pytest.approx(0.5 * d0, rel=1e-9)
        re, im = st.coeffs()
        assert re + im == vec.tolist() and len(im) == (0 if case == "abc" else len(re))
        assert st.frozen is False

    def test_abc_separation_across_the_seam(self):
        a = ABCState(theta=(2.0 * math.pi - 1e-3, 1.0, 2.0), abc=(1.0, 1.0, 1.0))
        b = ABCState(theta=(1e-3, 1.0, 2.0), abc=(1.0, 1.0, 1.0))
        assert a.separation(b) == pytest.approx(2e-3, rel=1e-9)
        assert b.separation(a) == pytest.approx(2e-3, rel=1e-9)
        assert a.toward(b, 0.5).theta[0] == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert ABCState(theta=a.theta, abc=(0.0, 0.0, 0.0)).frozen


class TestBatchAxis:
    @pytest.mark.parametrize("case", KINDS)
    def test_stacked_step_equals_rows_alone(self, case):
        # `advance` steps the orbit and its shadow as one (2, n) batch state
        # (one `_advance` call per orbit for the angle flow)
        rng = np.random.default_rng(11)
        rows = [random_state(case, rng), random_state(case, rng)]
        pair = rows[0].advance(rows[1], 5, 0.02)
        for _ in range(5):
            rows = [r.step(0.02) for r in rows]
        for got, row in zip(pair, rows):
            if case == "abc":  # a window reduces the angles mod 2*pi once, not every step
                assert got.separation(row) < 1e-12
            else:
                assert np.array_equal(got.vector(), row.vector())
                assert got.t == row.t
        if case.startswith("sg"):
            assert pair[0].forcing == pair[1].forcing == rows[0].forcing

    def test_cached_factors_are_read_only(self):
        gl = GLParams(variant="dernls", eps=0.05, n_modes=8, K=4)
        arrays = [
            *models._gl_factors(gl, 0.01),
            *models._sg_factors(SGParams(n_modes=8), 0.01),
        ]
        assert len(arrays) == 10
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_validation_covers_every_row(self):
        p = SGParams(parity="odd", n_modes=8)
        u = np.zeros((2, 9))
        u[1, 0] = 0.5
        with pytest.raises(ValidationError, match="slot 0"):
            sg_state(p, u, np.zeros((2, 9)))
        with pytest.raises(ValidationError, match="shaped as u"):
            sg_state(p, np.zeros((2, 9)), np.zeros(9))
        with pytest.raises(ValidationError, match="trailing length"):
            gl_state(GLParams(n_modes=8, K=4), np.zeros((2, 8), complex))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_in_one_row_raises(self):
        p = GLParams(variant="dernls", eps=0.0, K=8, n_modes=16)
        q = np.zeros((2, 17), complex)
        q[:, 0] = 0.1, 5.0
        st = gl_state(p, q)
        with pytest.raises(ComputationalError, match="last valid time"):
            for _ in range(100):
                st = gl_step(st, 1.0)

    def test_odd_rebuild_zeroes_slot_0(self):
        st = sg_zero_state(SGParams(parity="odd", n_modes=8))
        rebuilt = st.with_vector(np.ones((2, 18)))
        assert np.array_equal(rebuilt.vector()[:, [0, 9]], np.zeros((2, 2)))
        assert np.all(np.delete(rebuilt.vector(), [0, 9], axis=1) == 1.0)
