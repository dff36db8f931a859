"""Section sampling and Lyapunov diagnostics on the model steppers."""

import dataclasses
import math
import os
import threading
import time

import numpy as np
import pytest

from nel import diagnostics
from nel.diagnostics import lyapunov_max, poincare_samples
from nel.errors import ComputationalError, ValidationError
from nel.forcing import ABCState, ForcingSpec
from nel.models import (
    GLParams,
    GLState,
    SGParams,
    gl_limit_cycle_state,
    gl_uniform_state,
    sg_uniform_state,
)


def cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork makes in this process, in order."""
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):  # waited for: no zombie, no live child
            os.waitpid(pid, os.WNOHANG)


class TestPoincare:
    def test_zero_state_is_fixed_point(self):
        p = SGParams(eps=0.1, n_modes=8, forcing=ForcingSpec(mode="cos_t"))
        res = poincare_samples(sg_uniform_state(p, 0.0), 4, dt=0.01)
        assert not res.escaped and len(res.samples) == 4
        for m, s in enumerate(res.samples, start=1):
            assert np.all(s.u == 0.0) and np.all(s.v == 0.0)
            assert s.t == pytest.approx(2.0 * math.pi * m, rel=1e-12)

    def test_limit_cycle_crossings_equally_spaced(self):
        # the reference orbit's phase rotates at -9/8, so returns to the
        # section are 16*pi/9 apart
        p = GLParams(variant="dernls", eps=0.02, mu=6.0, gamma=0.4)
        res = poincare_samples(gl_limit_cycle_state(p), 4, dt=0.01)
        assert not res.escaped
        gaps = np.diff([0.0, *(s.t for s in res.samples)])
        assert np.abs(gaps - 16.0 * math.pi / 9.0).max() < 1e-6

    def test_libration_strobe_stays_on_invariant_curve(self):
        p = SGParams(c=0.9, eps=0.0, n_modes=8)
        res = poincare_samples(sg_uniform_state(p, math.pi + 0.5), 10, dt=0.01)
        hs = [0.5 * s.v[0] ** 2 + math.cos(s.u[0]) for s in res.samples]
        assert max(hs) - min(hs) < 1e-4
        assert all(np.abs(s.u[1:]).max() == 0.0 for s in res.samples)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_escape_truncates_with_flag(self):
        p = GLParams(variant="dernls", eps=0.0, K=8, n_modes=16)
        res = poincare_samples(gl_uniform_state(p, 5.0 + 0j), 5, dt=1.0)
        assert res.escaped
        assert len(res.samples) < 5

    def test_locked_orbit_raises_instead_of_spinning(self, monkeypatch):
        # strong drive pins this orbit at a fixed point off the section;
        # without the wait budget the sampler would integrate forever
        monkeypatch.setattr(diagnostics, "MAX_SECTION_WAIT", 5.0)
        p = GLParams(variant="pnls", eps=0.5, omega=0.55, alpha=2.0, beta=1.1, n_modes=8)
        st = gl_uniform_state(p, 0.549 + 0j)
        with pytest.raises(ComputationalError, match="section crossing"):
            poincare_samples(st, 50, dt=0.01)

    def test_validation(self):
        sg = sg_uniform_state(SGParams(n_modes=8), 0.0)
        with pytest.raises(ValidationError, match="n_iterates"):
            poincare_samples(sg, 0)
        with pytest.raises(ValidationError, match="dt"):
            poincare_samples(sg, 1, dt=0.0)
        gl = gl_uniform_state(GLParams(n_modes=8, K=4), 0.1 + 0j)
        with pytest.raises(ValidationError, match="period"):
            poincare_samples(gl, 1, period=2.0)
        with pytest.raises(ValidationError):
            poincare_samples(object(), 1)

    def test_quasiperiodic_drive_needs_explicit_period(self):
        fs = ForcingSpec(mode="quasiperiodic", betas=(0.1, 0.0, 0.0, 0.0), eps=0.1)
        p = SGParams(eps=0.1, n_modes=8, forcing=fs)
        st = sg_uniform_state(p, 0.3)
        with pytest.raises(ValidationError, match="period"):
            poincare_samples(st, 2)
        res = poincare_samples(st, 2, dt=0.01, period=1.5)
        assert len(res.samples) == 2
        # the forcing clock rode along with the trajectory
        assert res.samples[-1].forcing.abc_t == pytest.approx(3.0)


class TestLyapunovMax:
    def test_damped_fixed_point_contracts(self):
        # beta = alpha*omega parks the uniform state; eps(k^2 + alpha)
        # out-damps the side bands, so the slowest rate is -eps*alpha = -1
        om = 0.55
        p = GLParams(variant="pnls", eps=0.5, omega=om, alpha=2.0, beta=2.0 * om, n_modes=32)
        r = lyapunov_max(gl_uniform_state(p, om), 50.0, dt=0.01)
        assert r.lam < -0.5
        assert not r.escaped

    def test_integrable_libration_near_zero(self):
        p = SGParams(c=0.9, eps=0.0, n_modes=8)
        r = lyapunov_max(sg_uniform_state(p, math.pi + 0.5), 300.0, dt=0.02)
        assert abs(r.lam) < 0.01

    def test_series_shape_and_determinism(self):
        p = GLParams(variant="dernls", eps=0.01, mu=6.0, n_modes=16, K=8)
        st = gl_uniform_state(p, 0.7 + 0j)
        r1 = lyapunov_max(st, 5.0, dt=0.01, seed=3)
        r2 = lyapunov_max(st, 5.0, dt=0.01, seed=3)
        assert r1.series == r2.series  # bitwise replay
        assert len(r1.series) == 10
        assert r1.series[-1][0] == pytest.approx(5.0)
        r3 = lyapunov_max(st, 5.0, dt=0.01, seed=4)
        assert r3.series != r1.series  # direction actually randomized

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_escape_flag(self):
        p = GLParams(variant="dernls", eps=0.0, K=8, n_modes=16)
        r = lyapunov_max(gl_uniform_state(p, 5.0 + 0j), 10.0, dt=1.0, renorm_dt=1.0)
        assert r.escaped
        assert r.series == () and math.isnan(r.lam)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowing_up_shadow_truncates_at_its_window(self, monkeypatch, forks):
        p = GLParams(variant="dernls", eps=0.01, mu=6.0, n_modes=16, K=8)
        st = gl_uniform_state(p, 0.7 + 0j)
        ref = lyapunov_max(st, 5.0, dt=0.05, seed=3)  # 10 windows of 10 steps
        reference = [st]  # the reference orbit's states; every other state is the shadow's
        for _ in range(30):
            reference.append(reference[-1].step(0.05))
        reference = {s.vector().tobytes() for s in reference}
        step = GLState.step

        def shadow_blows_up(state, dt):
            if 1.2 < state.t < 1.3 and state.vector().tobytes() not in reference:  # inside window 3
                q = state.q.copy()
                q[3] = np.inf
                state = dataclasses.replace(state, q=q)
            return step(state, dt)

        monkeypatch.setattr(GLState, "step", shadow_blows_up)
        for n_cpus in (1, 2):  # the reference orbit stepped here, then in a forked child
            cpus(monkeypatch, n_cpus)
            del forks[:]
            r = lyapunov_max(st, 5.0, dt=0.05, seed=3)
            assert r.escaped and len(ref.series) == 10
            assert r.series == ref.series[:2] and r.lam == ref.series[1][1]
            assert len(forks) == n_cpus - 1
            assert_reaped(forks)

    @pytest.mark.parametrize("kind", ["sg", "dernls", "abc"])
    def test_windows_at_a_non_integer_step_ratio(self, kind):
        # 0.5 / 0.03 is no integer: every window is still exactly renorm_dt
        # long (17 steps of 0.5/17), so the series sits on multiples of 0.5
        st = {
            "sg": sg_uniform_state(SGParams(eps=0.1, n_modes=8), 2.0),
            "dernls": gl_uniform_state(GLParams(variant="dernls", eps=0.01, n_modes=8, K=4), 0.7 + 0j),
            "abc": ABCState(theta=(4.0, 1.0, 5.5), abc=(1.0, 1.0, 1.0)),
        }[kind]
        r = lyapunov_max(st, 2.2, dt=0.03, renorm_dt=0.5)
        assert [t for t, _ in r.series] == [0.5, 1.0, 1.5, 2.0]
        assert not r.escaped and math.isfinite(r.lam)

    def test_collapsed_separation_raises(self):
        # a shadow closer than one ulp coincides with the orbit
        st = ABCState(theta=(4.0, 1.0, 5.5), abc=(1.0, 1.0, 1.0))
        with pytest.raises(ComputationalError, match="collapsed"):
            lyapunov_max(st, 1.0, d0=1e-300)

    def test_validation(self):
        st = sg_uniform_state(SGParams(n_modes=8), 0.0)
        with pytest.raises(ValidationError):
            lyapunov_max(st, -1.0)
        with pytest.raises(ValidationError, match="renorm"):
            lyapunov_max(st, 1.0, dt=0.1, renorm_dt=0.01)


class TestReferenceChild:
    """The forked child that steps the reference orbit is reaped on every way
    out of the two-orbit loop."""

    ABC = ABCState(theta=(4.0, 1.0, 5.5), abc=(1.0, 1.0, 1.0))

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        cpus(monkeypatch, 2)

    def fail_at(self, monkeypatch, where, exc, call=3):
        """Raise exc at the given `advance` call of the parent or of the child."""
        advance, parent, calls = ABCState.advance, os.getpid(), []

        def failing(state, n, h):
            if (os.getpid() == parent) == (where == "parent"):
                calls.append(n)
                if len(calls) == call:
                    raise exc
            return advance(state, n, h)

        monkeypatch.setattr(ABCState, "advance", failing)

    def test_return(self, forks):
        r = lyapunov_max(self.ABC, 5.0, dt=0.02)
        assert len(r.series) == 10 and not r.escaped
        assert len(forks) == 1
        assert_reaped(forks)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_escape(self, forks):
        p = GLParams(variant="dernls", eps=0.0, K=8, n_modes=16)
        assert lyapunov_max(gl_uniform_state(p, 5.0 + 0j), 10.0, dt=1.0, renorm_dt=1.0).escaped
        assert len(forks) == 1
        assert_reaped(forks)

    def test_collapse(self, forks):
        with pytest.raises(ComputationalError, match="collapsed"):
            lyapunov_max(self.ABC, 1.0, d0=1e-300)
        assert len(forks) == 1
        assert_reaped(forks)

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), KeyboardInterrupt()], ids=["exception", "ctrl_c"])
    def test_raise_in_the_loop(self, exc, monkeypatch, forks):
        self.fail_at(monkeypatch, "parent", exc)
        with pytest.raises(type(exc)):
            lyapunov_max(self.ABC, 5.0, dt=0.02)
        assert len(forks) == 1
        assert_reaped(forks)

    def test_busy_child_is_killed_not_awaited(self, monkeypatch, forks):
        advance, parent = ABCState.advance, os.getpid()

        def stuck_child(state, n, h):
            if os.getpid() != parent:
                time.sleep(60)  # a window far longer than the run
            raise RuntimeError("boom")

        monkeypatch.setattr(ABCState, "advance", stuck_child)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError):
            lyapunov_max(self.ABC, 5.0, dt=0.02)
        assert time.monotonic() - t0 < 30
        assert len(forks) == 1
        assert_reaped(forks)

    def test_child_that_dies_early(self, monkeypatch, forks):
        self.fail_at(monkeypatch, "child", RuntimeError("boom"))
        with pytest.raises(ComputationalError, match="ended early"):
            lyapunov_max(self.ABC, 5.0, dt=0.02)
        assert len(forks) == 1
        assert_reaped(forks)

    @pytest.mark.parametrize("why", ["one_cpu", "another_thread", "no_fork"])
    def test_in_process_elsewhere_with_the_same_result(self, why, monkeypatch, forks):
        forked = lyapunov_max(self.ABC, 5.0, dt=0.02)
        if why == "one_cpu":
            cpus(monkeypatch, 1)
        elif why == "another_thread":
            monkeypatch.setattr(threading, "active_count", lambda: 2)
        else:  # Windows has no fork
            monkeypatch.delattr(os, "fork")
        assert lyapunov_max(self.ABC, 5.0, dt=0.02) == forked
        assert len(forks) == 1
        assert_reaped(forks)
