"""Wave and envelope steppers: oracles, conservation, parity, convergence,
and the flow protocol they share with the angle flow."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nel import models
from nel.diagnostics import lyapunov_max
from nel.errors import ComputationalError, ValidationError
from nel.forcing import ABCState, ForcingSpec
from nel.models import (
    GLParams,
    GLState,
    SGParams,
    gl_limit_cycle,
    gl_limit_cycle_state,
    gl_step,
    gl_uniform_state,
    sg_state,
    sg_step,
    sg_uniform_state,
)
from oracles import gl_mass, sg_energy


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
        st = march(sg_uniform_state(p, 0.0), 1.0, 0.01)
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
            sg_step(sg_state(p, np.zeros(9), np.zeros(9)), -0.1)


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
        st = GLState(p, q)
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
        st = march(GLState(p, q), 10.0, 0.01)
        assert abs(st.q[1]) < 1e-4  # perturbation decayed, not grown

    def test_eps_continuity(self):
        def run(eps):
            p = GLParams(variant="dernls", eps=eps, mu=6.0, n_modes=32)
            q = np.zeros(33, complex)
            q[0] = 0.7
            q[1] = 0.2 + 0.1j
            q[2] = -0.1j
            return march(GLState(p, q), 1.0, 0.01)

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
            return gl_step(GLState(p, q), 0.01).q

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
    return GLState(p, rng.normal(0.0, 0.2, 17) + 1j * rng.normal(0.0, 0.2, 17))


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
        st = GLState(p, rng.normal(size=9) + 1j * rng.normal(size=9))
        vec = st.vector()
        assert vec.shape == (18,)
        st2 = st.with_vector(vec)
        assert np.allclose(st2.q, st.q, atol=0, rtol=0)
        # signed zeros and an infinite imaginary part survive bit for bit
        q = np.array([complex(-0.0, 1.0), complex(0.5, -0.0), complex(1.0, math.inf)])
        st = GLState(GLParams(n_modes=4, K=2), np.concatenate([q, np.zeros(2)]))
        assert np.array_equal(bits(st.with_vector(st.vector()).q.view(float)), bits(st.q.view(float)))

    @pytest.mark.parametrize("case", KINDS)
    def test_protocol(self, case, monkeypatch):
        st = random_state(case, np.random.default_rng(5))
        vec = st.vector()
        assert np.array_equal(bits(st.with_vector(vec).vector()), bits(vec))
        assert np.array_equal(st.gap(st), np.zeros(vec.size))
        assert st.direction(2).shape == vec.shape
        re, im = st.coeffs()
        assert re + im == vec.tolist() and len(im) == (0 if case == "abc" else len(re))
        assert st.frozen is False

        # lyapunov_max's shadow and rescale, under a one-orbit advance that
        # doubles each state's gap from st: st stays put, the shadow's gap doubles
        seen = []

        def doubling(s, n, h):
            seen.append(s)
            return s.with_vector(st.vector() + 2.0 * st.gap(s))

        monkeypatch.setattr(type(st), "advance", doubling)
        d0 = 1e-3
        res = lyapunov_max(st, 1.0, dt=0.1, renorm_dt=0.5, d0=d0, seed=2)
        assert res.lam == pytest.approx(2.0 * math.log(2.0), rel=1e-9)
        # the shadows this process stepped (a forked child may step st)
        shadow, rescaled = [s for s in seen if np.any(st.gap(s))]
        gap = st.gap(shadow)
        assert np.linalg.norm(gap) == pytest.approx(d0, rel=1e-9)
        if case == "sg_odd":  # slot 0 of u and of v
            assert np.array_equal(gap[[0, 17]], [0.0, 0.0])
        # the doubled gap is halved: the new shadow is the halfway point, back at d0
        assert np.linalg.norm(st.gap(rescaled) - gap) < 1e-9 * d0

    def test_abc_separation_across_the_seam(self):
        a = ABCState(theta=(2.0 * math.pi - 1e-3, 1.0, 2.0), abc=(1.0, 1.0, 1.0))
        b = ABCState(theta=(1e-3, 1.0, 2.0), abc=(1.0, 1.0, 1.0))
        assert np.linalg.norm(a.gap(b)) == pytest.approx(2e-3, rel=1e-9)
        assert np.linalg.norm(b.gap(a)) == pytest.approx(2e-3, rel=1e-9)
        assert a.with_vector(a.vector() + 0.5 * a.gap(b)).theta[0] == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert ABCState(theta=a.theta, abc=(0.0, 0.0, 0.0)).frozen


class TestBatchAxis:
    @pytest.mark.parametrize("case", KINDS)
    def test_stacked_step_equals_rows_alone(self, case):
        # a (2, n) batch state steps each row as that row steps alone, and the
        # one-orbit `advance(n, h)` equals n steps (one `_advance` call for the
        # angle flow, which has no batch axis)
        rng = np.random.default_rng(11)
        rows = [random_state(case, rng), random_state(case, rng)]
        ahead = rows[0].advance(5, 0.02)
        stack = None if case == "abc" else rows[0].with_vector(np.stack([r.vector() for r in rows]))
        for _ in range(5):
            rows = [r.step(0.02) for r in rows]
            if stack is not None:
                stack = stack.step(0.02)
        if case == "abc":  # a window reduces the angles mod 2*pi once, not every step
            assert np.linalg.norm(ahead.gap(rows[0])) < 1e-12
            return
        assert np.array_equal(ahead.vector(), rows[0].vector()) and ahead.t == rows[0].t
        for got, row in zip(stack.vector(), rows):
            assert np.array_equal(got, row.vector())
        assert stack.t == rows[0].t
        if case.startswith("sg"):
            assert ahead.forcing == stack.forcing == rows[0].forcing

    def test_cached_factors_are_read_only(self):  # and the transform plans
        gl = GLParams(variant="dernls", eps=0.05, n_modes=8, K=4)
        arrays = [
            *models._gl_factors(gl, 0.01),
            *models._sg_factors(SGParams(n_modes=8), 0.01),
            *models._gl_plan(gl)[3:],
            *models._sg_plan(SGParams(n_modes=8))[2:],
        ]
        assert len(arrays) == 13
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
            GLState(GLParams(n_modes=8, K=4), np.zeros((2, 8), complex))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_in_one_row_raises(self):
        p = GLParams(variant="dernls", eps=0.0, K=8, n_modes=16)
        q = np.zeros((2, 17), complex)
        q[:, 0] = 0.1, 5.0
        st = GLState(p, q)
        with pytest.raises(ComputationalError, match="last valid time"):
            for _ in range(100):
                st = gl_step(st, 1.0)

    def test_odd_rebuild_zeroes_slot_0(self):
        st = sg_state(SGParams(parity="odd", n_modes=8), np.zeros(9), np.zeros(9))
        rebuilt = st.with_vector(np.ones((2, 18)))
        assert np.array_equal(rebuilt.vector()[:, [0, 9]], np.zeros((2, 2)))
        assert np.all(np.delete(rebuilt.vector(), [0, 9], axis=1) == 1.0)


# ---------------------------------------------------------------------------
# the steppers as they were before their transforms took per-params plans and
# forward-normalised envelope FFTs, kept as a bitwise oracle: the arithmetic is
# verbatim; names carry a _ref_ prefix, and docstrings and the dt check are cut


def _ref_sg_to_phys(params, coeffs, deriv=False):
    m = params.n_modes
    n = 4 * m
    spec = np.zeros((*coeffs.shape[:-1], n // 2 + 1), dtype=complex)
    if params.parity == "even":
        spec[..., 0] = n * coeffs[..., 0]
        spec[..., 1 : m + 1] = 0.5 * n * coeffs[..., 1:]
    else:
        spec[..., 1 : m + 1] = -0.5j * n * coeffs[..., 1:]
    u = np.fft.irfft(spec, n)
    if not deriv:
        return u
    dspec = spec * (1j * np.arange(n // 2 + 1))
    return u, np.fft.irfft(dspec, n)


def _ref_sg_from_phys(params, g):
    m = params.n_modes
    n = 4 * m
    r = np.fft.rfft(g)
    out = np.zeros((*g.shape[:-1], m + 1))
    if params.parity == "even":
        out[..., 0] = r[..., 0].real / n
        out[..., 1:] = 2.0 * r[..., 1 : m + 1].real / n
    else:
        out[..., 1:] = -2.0 * r[..., 1 : m + 1].imag / n
    return out


def _ref_sg_factors(params, dt):
    w = params.c * np.arange(params.n_modes + 1, dtype=float)
    factors = []
    for tau in (0.5 * dt, dt):
        wt = w * tau
        p01 = np.empty_like(w)
        p01[0] = tau
        p01[1:] = np.sin(wt[1:]) / w[1:]
        factors += [np.cos(wt), p01, -w * np.sin(wt)]
    return factors


def _ref_sg_nonlinear(params, u_coeffs, f):
    u = _ref_sg_to_phys(params, u_coeffs)
    g = np.sin(u)
    if params.eps:
        g = g + params.eps * (-params.a * u + f * g * g * g)
    return _ref_sg_from_phys(params, g)


def _ref_sg_step(state, dt):
    p = state.params
    t = state.t
    h = 0.5 * dt
    a00, a01, a10, b00, b01, b10 = _ref_sg_factors(p, dt)
    u, v = state.u, state.v

    fs = state.forcing
    f1, fs = models.force_eval(fs, t, h)
    f2, fs = models.force_eval(fs, t + h, h)
    f4, fs = models.force_eval(fs, t + dt, h)

    with np.errstate(over="ignore", invalid="ignore"):
        n1 = _ref_sg_nonlinear(p, u, f1)
        n2 = _ref_sg_nonlinear(p, a00 * u + a01 * (v + h * n1), f2)
        eu = a00 * u + a01 * v
        n3 = _ref_sg_nonlinear(p, eu, f2)
        bu = b00 * u + b01 * v
        n4 = _ref_sg_nonlinear(p, bu + dt * a01 * n3, f4)

        w = dt / 6.0
        u_new = bu + w * (b01 * n1 + 2.0 * a01 * (n2 + n3))
        v_new = b10 * u + b00 * v + w * (b00 * n1 + 2.0 * a00 * (n2 + n3) + n4)
    if not (np.all(np.isfinite(u_new)) and np.all(np.isfinite(v_new))):
        raise ComputationalError(f"wave state blew up; last valid time t={state.t:.6g}, reduce dt")
    return models.SGState(params=p, u=u_new, v=v_new, t=t + dt, forcing=fs)


def _ref_gl_grid_size(n_modes):
    return 1 << (4 * n_modes + 1).bit_length()


def _ref_gl_to_phys(params, q, dx=None):
    m = params.n_modes
    n = _ref_gl_grid_size(m)
    a = np.zeros((*q.shape[:-1], 1 if dx is None else 2, n), dtype=complex)
    a[..., 0, 0] = n * q[..., 0]
    a[..., 0, 1 : m + 1] = 0.5 * n * q[..., 1:]
    a[..., 0, n - m :] = 0.5 * n * q[..., :0:-1]
    if dx is not None:
        kk = params.K
        a[..., 1, 1 : kk + 1] = dx[0] * q[..., 1 : kk + 1] * n
        a[..., 1, n - kk :] = (dx[1] * q[..., 1 : kk + 1] * n)[..., ::-1]
    return np.fft.ifft(a)


def _ref_gl_from_phys(params, g):
    m = params.n_modes
    n = _ref_gl_grid_size(m)
    a = np.fft.fft(g) / n
    out = np.empty((*g.shape[:-1], m + 1), dtype=complex)
    out[..., 0] = a[..., 0]
    out[..., 1:] = a[..., 1 : m + 1] + a[..., n - 1 : n - m - 1 : -1]
    return out


def _ref_gl_factors(params, dt):
    k2 = np.arange(params.n_modes + 1, dtype=float) ** 2
    lam = 1j * k2 if params.variant == "dernls" else 1j * k2 - params.eps * k2 - params.eps * params.alpha
    k = np.arange(1, params.K + 1)
    return np.exp(lam * (0.5 * dt)), np.exp(lam * dt), 0.5j * k, -0.5j * k


def _ref_gl_nonlinear(params, q, dx):
    deriv = params.variant == "dernls" and params.eps != 0.0
    phys = _ref_gl_to_phys(params, q, dx if deriv else None)
    qp = phys[..., 0, :]
    aq2 = qp.real * qp.real + qp.imag * qp.imag
    if params.variant == "dernls":
        g = -2j * aq2 * qp
        if deriv:
            dq = phys[..., 1, :]
            ad2 = dq.real * dq.real + dq.imag * dq.imag
            g = g + params.eps * ((0.5625 - aq2) * qp + params.mu * ad2 * np.conj(qp))
    else:
        g = -2j * (aq2 - params.omega**2) * qp
        if params.eps:
            g = g + params.eps * params.beta
    return _ref_gl_from_phys(params, g)


def _ref_gl_step(state, dt):
    p = state.params
    e1, e2, *dx = _ref_gl_factors(p, dt)
    q = state.q
    h = 0.5 * dt

    with np.errstate(over="ignore", invalid="ignore"):
        n1 = _ref_gl_nonlinear(p, q, dx)
        n2 = _ref_gl_nonlinear(p, e1 * (q + h * n1), dx)
        n3 = _ref_gl_nonlinear(p, e1 * q + h * n2, dx)
        n4 = _ref_gl_nonlinear(p, e2 * q + dt * e1 * n3, dx)
        q_new = e2 * q + (dt / 6.0) * (e2 * n1 + 2.0 * e1 * (n2 + n3) + n4)
    if not np.all(np.isfinite(q_new)):
        raise ComputationalError(f"envelope state blew up; last valid time t={state.t:.6g}, reduce dt")
    return models.GLState(params=p, q=q_new, t=state.t + dt)


def raw_bytes(a):
    """Every byte of an array, so a flipped sign of zero counts."""
    return np.ascontiguousarray(a).view(np.uint8)


QUASI = ForcingSpec(mode="quasiperiodic", betas=(0.3, 0.2, 0.1, 0.1), eps=0.1)
ORACLE_PARAMS = {
    "dernls_eps0": GLParams(variant="dernls", eps=0.0, n_modes=16, K=8),
    "dernls_eps": GLParams(variant="dernls", eps=0.05, mu=6.0, n_modes=13, K=5),
    "pnls_eps0": GLParams(variant="pnls", eps=0.0, n_modes=16),
    "pnls_eps": GLParams(variant="pnls", eps=0.1, n_modes=16),
    "sg_even_cos": SGParams(eps=0.1, n_modes=16, forcing=ForcingSpec(mode="cos_t")),
    "sg_odd_cos": SGParams(eps=0.1, parity="odd", n_modes=12, forcing=ForcingSpec(mode="cos_t")),
    "sg_even_quasi": SGParams(eps=0.1, n_modes=50, forcing=QUASI),  # a 200-point grid
    "sg_odd_quasi": SGParams(eps=0.1, parity="odd", n_modes=16, forcing=QUASI),
}


def oracle_state(name, batch, rng):
    """Low modes excited, the rest exact zeros of both signs; row 0 of a batch
    is a uniform state, whose high modes stay zero."""
    p = ORACLE_PARAMS[name]
    n = p.n_modes + 1
    shape = (*batch, n)
    zeros = np.where(rng.random(shape) < 0.5, -0.0, 0.0)
    live = np.arange(n) < 6
    if batch:
        live = live & (np.arange(batch[0])[:, None] > 0)
    if name.startswith("sg"):
        u, v = (np.where(live, rng.normal(0.0, 0.3, shape), zeros) for _ in range(2))
        if p.parity == "odd":
            u[..., 0] = v[..., 0] = 0.0
        elif batch:
            u[0, 0], v[0, 0] = 0.4, -0.1
        return sg_state(p, u, v)
    q = np.empty(shape, dtype=complex)
    q.real = np.where(live, rng.normal(0.0, 0.3, shape), zeros)
    q.imag = np.where(live, rng.normal(0.0, 0.3, shape), zeros[..., ::-1])
    if batch:
        q[0, 0] = gl_limit_cycle(p, 0.0)
    return GLState(p, q)


class TestBitwiseOracle:
    """The steppers match their verbatim predecessors byte for byte."""

    @pytest.mark.parametrize("batch", [(), (2,)], ids=["row", "batch"])
    @pytest.mark.parametrize("name", sorted(ORACLE_PARAMS))
    def test_steps_match_reference(self, name, batch):
        st = ref = oracle_state(name, batch, np.random.default_rng(sorted(ORACLE_PARAMS).index(name)))
        ref_step, ref_nonlinear = (
            (_ref_sg_step, _ref_sg_nonlinear) if name.startswith("sg") else (_ref_gl_step, _ref_gl_nonlinear)
        )
        for dt in (0.02,) * 25 + (0.013, 0.037):  # new dt values rebuild the factors
            st, ref = st.step(dt), ref_step(ref, dt)
            assert np.array_equal(raw_bytes(st.vector()), raw_bytes(ref.vector()))
            assert st.t == ref.t
        if name.startswith("sg"):
            assert st.forcing == ref.forcing
            plan = models._sg_plan(st.params)
            got = models._sg_nonlinear(st.params, st.u, 0.7, plan)
            want = ref_nonlinear(st.params, st.u, 0.7)
        else:
            plan = models._gl_plan(st.params)
            got = models._gl_nonlinear(st.params, st.q, plan)
            want = ref_nonlinear(st.params, st.q, _ref_gl_factors(st.params, 0.02)[2:])
        assert np.array_equal(raw_bytes(got), raw_bytes(want))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["gl", "sg"])
    def test_blowup_raises_at_the_same_step(self, kind):
        if kind == "gl":
            p = GLParams(variant="dernls", eps=0.05, K=8, n_modes=16)
            st = GLState(p, np.array([[0.1] + [0.0] * 16, [3.0, 0.2] + [0.0] * 15], dtype=complex))
            ref_step, dt = _ref_gl_step, 0.3
        else:
            p = SGParams(c=0.9, a=100.0, eps=1.0, n_modes=16)
            st = sg_uniform_state(p, 1.0)
            ref_step, dt = _ref_sg_step, 1.0

        def steps_until_blowup(step, st):
            for i in range(500):
                try:
                    st = step(st, dt)
                except ComputationalError as exc:
                    return i, str(exc)
            return None

        got, want = steps_until_blowup(lambda s, h: s.step(h), st), steps_until_blowup(ref_step, st)
        assert want is not None and got == want
