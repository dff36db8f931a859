"""ABC clock and quasiperiodic forcing."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nel.errors import ValidationError
from nel.diagnostics import LyapunovResult, lyapunov_max
from nel.forcing import ABC_THETA0, ABCState, ForcingSpec, force_eval


def abc_rhs(theta, abc):
    """The ABC vector field, written out apart from the stepper's inlined copy."""
    t1, t2, t3 = theta
    a, b, c = abc
    return (
        a * math.sin(t3) + c * math.cos(t2),
        b * math.sin(t1) + a * math.cos(t3),
        c * math.sin(t2) + b * math.cos(t1),
    )


class TestABCFlow:
    def test_frozen_flow_is_constant(self):
        st = ABCState(theta=(0.3, 1.1, 2.0), abc=(0.0, 0.0, 0.0))
        st2 = st.step(0.25)
        assert st2.theta == st.theta

    def test_step_against_ode_oracle(self):
        abc = (1.0, 0.7, 0.4)
        th0 = (0.5, 1.0, 1.5)

        def rhs(t, y):
            return abc_rhs(tuple(y), abc)

        sol = solve_ivp(rhs, (0.0, 1.0), th0, rtol=1e-12, atol=1e-12)
        st = ABCState(theta=th0, abc=abc)
        for _ in range(100):
            st = st.step(0.01)
        err = max(abs(a - b) for a, b in zip(st.theta, sol.y[:, -1]))
        assert err < 1e-9

    def test_angles_wrap(self):
        st = ABCState(theta=(2 * math.pi - 1e-3, 0.0, 0.0), abc=(0.0, 0.0, 1.0))
        # theta1' = cos(theta2) = 1 > 0 pushes past 2*pi
        st2 = st.step(0.01)
        assert 0.0 <= st2.theta[0] < 1e-2

    def test_cyclic_symmetry(self):
        # for A=B=C the flow commutes with the cyclic shift of the angles
        abc = (1.0, 1.0, 1.0)
        th0 = (0.4, 1.2, 2.2)
        a = ABCState(theta=th0, abc=abc)
        b = ABCState(theta=(th0[1], th0[2], th0[0]), abc=abc)
        for _ in range(200):
            a = a.step(0.02)
            b = b.step(0.02)
        rotated = (a.theta[1], a.theta[2], a.theta[0])
        assert max(abs(x - y) for x, y in zip(rotated, b.theta)) < 1e-12


class TestABCLyapunov:
    def test_frozen_flow_exact_zero(self):
        r = lyapunov_max(ABCState(ABC_THETA0, (0.0, 0.0, 0.0)), 50.0, dt=0.02)
        assert r.lam == 0.0
        assert r.series[-1][0] == pytest.approx(50.0)

    def test_chaotic_vs_integrable(self):
        chaotic = lyapunov_max(ABCState(ABC_THETA0, (1.0, 1.0, 1.0)), 2000.0, dt=0.02)
        assert chaotic.lam > 0.02
        control = lyapunov_max(ABCState(ABC_THETA0, (1.0, 1.0, 0.0)), 2000.0, dt=0.02)
        assert control.lam < 0.01

    def test_diagonal_falls_into_saddle(self):
        # theta1=theta2=theta3 is invariant and converges to the stagnation
        # point at 3*pi/4, whose unstable eigenvalue is sqrt(2)/2; the
        # two-orbit estimate must reproduce that local rate.
        r = lyapunov_max(ABCState((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)), 500.0, dt=0.02)
        assert abs(r.lam - math.sqrt(2) / 2) < 0.01

    def test_series_and_spread(self):
        r = lyapunov_max(ABCState(ABC_THETA0, (1.0, 1.0, 1.0)), 100.0, dt=0.02)
        assert len(r.series) == 200  # renorm every 0.5
        assert r.last_decade_spread() >= 0.0
        flat = LyapunovResult(1.0, ((1.0, 1.0), (10.0, 1.0)))
        assert flat.last_decade_spread() == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            lyapunov_max(ABCState(ABC_THETA0, (1.0, 1.0, 1.0)), -5.0, dt=0.02)
        with pytest.raises(ValidationError):
            lyapunov_max(ABCState(ABC_THETA0, (1.0, 1.0, 1.0)), 10.0, dt=0.0)


class TestForceEval:
    def test_cos_t(self):
        spec = ForcingSpec(mode="cos_t")
        f0, spec0 = force_eval(spec, 0.0, 0.1)
        assert f0 == 1.0
        assert spec0 is spec
        fpi, _ = force_eval(spec, math.pi, 0.1)
        assert fpi == pytest.approx(-1.0)

    def test_all_betas_zero_is_constant(self):
        spec = ForcingSpec(mode="quasiperiodic", alpha0=0.7, eps=0.1)
        for t in (0.0, 0.3, 1.7):
            f, spec = force_eval(spec, t, 0.05)
            assert f == pytest.approx(0.7)
        assert spec.abc_t == pytest.approx(1.7)

    def test_frozen_abc_pure_cosine_sum(self):
        betas = (0.5, 0.25, 0.125, 1.0)
        spec = ForcingSpec(
            mode="quasiperiodic",
            alpha0=0.2,
            betas=betas,
            phases=(0.1, 0.2, 0.3, 0.4),
            abc=(0.0, 0.0, 0.0),
            eps=0.05,
        )
        for t in (0.0, 0.9, 2.4):
            f, spec = force_eval(spec, t, 0.05)
            expect = 0.2 + sum(
                betas[n] * math.cos(spec.omegas[n] * t + spec.phases[n])
                for n in range(4)
            )
            assert f == pytest.approx(expect, abs=1e-12)

    def test_eps_zero_decouples_clock(self):
        kw = dict(
            mode="quasiperiodic",
            alpha0=0.1,
            betas=(1.0, 0.5, 0.25, 0.0),
            abc_state=(0.7, 1.9, 0.1),
        )
        live = ForcingSpec(abc=(1.0, 1.0, 1.0), eps=0.0, **kw)
        frozen = ForcingSpec(abc=(0.0, 0.0, 0.0), eps=0.0, **kw)
        for t in (0.5, 1.0):
            fl, live = force_eval(live, t, 0.01)
            ff, frozen = force_eval(frozen, t, 0.01)
            assert fl == pytest.approx(ff, abs=1e-14)
        # the clock advanced even though it does not enter f at eps=0
        assert live.abc_state != frozen.abc_state

    def test_split_advancement_is_bitwise_deterministic(self):
        spec = ForcingSpec(
            mode="quasiperiodic", betas=(1.0, 0.0, 0.0, 0.0), eps=0.1, mu=1.5
        )
        f_direct, _ = force_eval(spec, 1.0, 0.1)
        _, half = force_eval(spec, 0.5, 0.1)
        f_split, _ = force_eval(half, 1.0, 0.1)
        assert f_direct == f_split

    def test_clock_must_not_run_backwards(self):
        spec = ForcingSpec(mode="quasiperiodic", eps=0.1)
        _, spec = force_eval(spec, 1.0, 0.1)
        with pytest.raises(ValidationError, match="backwards"):
            force_eval(spec, 0.5, 0.1)

    def test_spec_validation(self):
        with pytest.raises(ValidationError, match="mode"):
            ForcingSpec(mode="sawtooth")
        with pytest.raises(ValidationError, match="mu"):
            ForcingSpec(mu=1.0)
        with pytest.raises(ValidationError, match="eps"):
            ForcingSpec(eps=-0.1)
        with pytest.raises(ValidationError, match="betas"):
            ForcingSpec(betas=(1.0, 2.0))

    def test_eps_mu_phase_shift_scale(self):
        # the clock enters the phase at size eps^mu
        base = dict(
            mode="quasiperiodic",
            betas=(1.0, 0.0, 0.0, 0.0),
            abc=(0.0, 0.0, 0.0),
            abc_state=(1.0, 0.0, 0.0),
            mu=2.0,
        )
        f_eps, _ = force_eval(ForcingSpec(eps=1e-2, **base), 0.0, 0.1)
        f_zero, _ = force_eval(ForcingSpec(eps=0.0, **base), 0.0, 0.1)
        # cos(1e-4 * 1.0) - cos(0) ~ -5e-9
        assert abs((f_eps - f_zero) + 0.5e-8) < 1e-10
