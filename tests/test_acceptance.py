"""Acceptance gate: one test per shipped guarantee, tolerances pinned.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
guarantee.  Each test restates its claim in the docstring; together they are
the contract the package promises to keep.
"""

import dataclasses
import functools
import json
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from nel.cli import main
from nel.diagnostics import lyapunov_max
from nel.fields import SpectralField, bracket_core as bracket, random_real_field
from nel.fields3d import random_scalar_field, random_solenoidal_field
from nel.forcing import ABC_THETA0, ABCState
from nel.grids import TorusGrid
from nel.lax import (
    darboux_apply,
    darboux_shear_example,
    darboux_verify,
    transported_eigenfield_check_2d,
    transported_eigenfield_check_3d,
)
from nel.models import (
    GLParams,
    SGParams,
    gl_limit_cycle,
    gl_limit_cycle_state,
    gl_step,
    sg_state,
    sg_step,
    sg_uniform_state,
)
from nel.spectra import (
    AXIS_TOL,
    ModeClass,
    classify_limits,
    compute_spectrum,
    critical_viscosity,
    euler_spectrum,
    refine_rightmost,
    three_mode_nustar,
    track_zero_viscosity,
)
from oracles import jacobian_oracle_check, mesh, sg_energy, three_mode_lambda0

ALPHA = 0.7
GAMMA = 0.5


@functools.lru_cache(maxsize=None)
def cached_euler(k1, k2, trunc):
    return euler_spectrum(ModeClass(k1, k2), ALPHA, GAMMA, trunc)


def cluster_max_gap(eu):
    ims = np.sort(eu.cluster.imag)
    return float(np.max(np.diff(ims)))


def test_a01_diffusion_class_spectrum_is_exactly_diagonal():
    """Class (0,1) at nu=0.1: eigenvalues are {-0.1 n^2} to 1e-10, in < 1s."""
    t0 = time.perf_counter()
    spec = compute_spectrum(ModeClass(0, 1), ALPHA, GAMMA, 0.1, 64)
    elapsed = time.perf_counter() - t0
    modes = [1 + j for j in range(-64, 65) if 1 + j != 0]
    want = np.sort(np.array([-0.1 * n * n for n in modes]))
    got = np.sort(spec.values.real)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-10
    assert np.max(np.abs(spec.values.imag)) < 1e-10
    assert elapsed < 1.0


def test_a02_critical_viscosity_in_analytic_bracket():
    """nu* at alpha=0.7 lands in (0.16597, 0.16945); doubling N moves it < 1e-6."""
    t0 = time.perf_counter()
    res = critical_viscosity(ALPHA, GAMMA, trunc=100, tol=1e-6)
    elapsed = time.perf_counter() - t0
    assert 0.16597 < res.nu_star < 0.16945
    assert res.refine_delta < 1e-6
    assert elapsed < 30.0


def test_a03_viscous_unstable_eigenvalue():
    """At nu=0.05 exactly one eigenvalue has Re > 0, real, in (0.0401, 0.1203)."""
    spec = compute_spectrum(ModeClass(1, 0), ALPHA, GAMMA, 0.05, 100)
    unstable = [v for v in spec.values if v.real > 0]
    assert len(unstable) == 1
    lam = unstable[0]
    assert 0.0401 < lam.real < 0.1203
    assert abs(lam.imag) < 1e-8
    value, _ = refine_rightmost(spec)
    assert value.real > AXIS_TOL
    assert abs(value - lam) < 1e-9


def test_a04_inviscid_pair_plus_imaginary_axis():
    """nu=0, N=400: exactly two off-axis eigenvalues, a +/- lambda0 pair."""
    eu = cached_euler(1, 0, 400)
    assert len(eu.points) == 2
    lam0 = max(v.real for v in eu.points)
    assert 0.11462 < lam0 < 0.14479
    assert abs(sum(eu.points)) < 1e-9  # the pair is symmetric
    assert np.max(np.abs(np.array(eu.points).imag)) < 1e-9
    assert np.max(np.abs(eu.cluster.real)) < 1e-6


def test_a05_zero_viscosity_limit_recovers_inviscid_rate():
    """The rightmost trajectory extrapolates to lambda0 within 1e-2, and
    lambda(nu)/nu grows monotonically along the 8-point descending schedule."""
    nus = np.geomspace(0.1, 1e-3, 8)
    track, _, _ = track_zero_viscosity(ModeClass(1, 0), ALPHA, GAMMA, nus, 64)
    best = max(track, key=lambda tr: tr.values[-1].real)
    lam0 = max(v.real for v in cached_euler(1, 0, 400).points)
    assert abs(best.limit - lam0) < 1e-2
    ratios = [best.values[i].real / nus[i] for i in range(len(nus))]
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_a06_imaginary_cluster_condenses_onto_segment():
    """Inviscid non-shear classes fill an imaginary segment: extent within 5%
    of alpha*k1/2 * 2, gaps shrinking as N doubles, no real part."""
    e400 = cached_euler(2, 0, 400)
    e800 = cached_euler(2, 0, 800)
    assert np.max(np.abs(e400.cluster.real)) < 1e-6
    assert abs(e400.cluster_extent - 0.7) < 0.05 * 0.7
    assert cluster_max_gap(e800) < cluster_max_gap(e400)
    assert len(e400.points) == 0
    assert abs(cached_euler(1, 0, 400).cluster_extent - 0.35) < 0.05 * 0.35


def test_a07_zero_viscosity_classification_labels():
    """Classes (1,0)/(0,1)/(2,0) classify as Persistence/Singularity/Condensation."""
    nus = np.geomspace(0.1, 1e-4, 25)
    want = {(1, 0): "Persistence", (0, 1): "Singularity", (2, 0): "Condensation"}
    for (k1, k2), label in want.items():
        cls = ModeClass(k1, k2)
        track, _, _ = track_zero_viscosity(cls, ALPHA, GAMMA, nus, 64)
        eu = euler_spectrum(cls, ALPHA, GAMMA, 64)
        assert classify_limits(track, eu, 0.02).class_label == label


def test_a08_operator_assembly_matches_independent_oracles():
    """Assembled suboperators equal the finite-difference Jacobian of the
    nonlinear right side to 1e-6; the one-harmonic closed forms reproduce
    0.14482 and 0.16946 at alpha=0.7 to 1e-4."""
    for k1, k2 in ((1, 0), (2, 1), (0, 1)):
        assert jacobian_oracle_check(ModeClass(k1, k2), ALPHA, GAMMA, 0.05, 12) < 1e-6
    assert abs(three_mode_lambda0(ALPHA, GAMMA) - 0.14482) < 1e-4
    assert abs(three_mode_nustar(ALPHA, GAMMA) - 0.16946) < 1e-4


def test_a09_bracket_algebra_on_random_trig_polynomials():
    """20 random degree-<=8 triples: antisymmetry to 1e-10, Jacobi to 1e-9."""
    g = TorusGrid((64, 64), dealias_fraction=0.5)
    rng = np.random.default_rng(2024)
    for _ in range(20):
        f, h, w = (random_real_field(g, 8, rng) for _ in range(3))
        anti = bracket(f, h) + bracket(h, f)
        assert anti.norm_inf() < 1e-10
        jac = bracket(f, bracket(h, w)) + bracket(h, bracket(w, f)) + bracket(w, bracket(f, h))
        assert jac.norm_inf() < 1e-9


def test_a10_transported_eigenfield_2d():
    """2D transport residual < 1e-4 at 64^2/dt=1e-3/T=1, shrinking at least
    4x under grid-and-step doubling; negative control stays above 1e-1."""

    def run(n, dt, control=False):
        grid = TorusGrid((n, n))
        rng = np.random.default_rng(12345)
        om0 = random_real_field(grid, 4, rng, 0.1)
        ph0 = random_real_field(grid, 4, rng, 5.0)
        return transported_eigenfield_check_2d(om0, ph0, 1.0, dt, negative_control=control)

    base = run(64, 1e-3)
    assert base.residual_inf < 1e-4
    refined = run(128, 5e-4)
    assert refined.residual_inf < base.residual_inf / 4.0
    control = run(64, 1e-3, control=True)
    assert control.residual_inf > 1e-1


def test_a11_transported_eigenfield_3d_with_and_without_curl():
    """3D residual < 1e-3 at 32^3/T=0.5 both with the curl-coupled velocity
    and with an independent prescribed divergence-free velocity."""
    grid = TorusGrid((32, 32, 32))

    rng = np.random.default_rng(99)
    om0 = random_solenoidal_field(grid, 2, rng, 0.1)
    ph0 = random_scalar_field(grid, 2, rng, 1.0)
    curl = transported_eigenfield_check_3d(om0, ph0, 0.5, 5e-3)
    assert curl.residual_inf < 1e-3

    rng = np.random.default_rng(99)
    om0 = random_solenoidal_field(grid, 2, rng, 0.1)
    ph0 = random_scalar_field(grid, 2, rng, 1.0)
    u1 = random_solenoidal_field(grid, 2, rng, 0.2)
    u2 = random_solenoidal_field(grid, 2, rng, 0.2)
    free = transported_eigenfield_check_3d(
        om0, ph0, 0.5, 5e-3,
        velocity=lambda t: u1 * np.cos(t) + u2 * np.sin(t),
    )
    assert free.residual_inf < 1e-3


def test_a12_gauge_transform_exactness_and_worked_example():
    """p=f maps to the zero eigenfunction exactly; F=0 leaves the potentials
    untouched; the solvable shear example matches its closed form to 1e-8
    off a mask covering under 2% of the grid."""
    inp = darboux_shear_example()
    res = darboux_apply(dataclasses.replace(inp, p=inp.f))
    assert np.all(res.p_t == 0.0)

    zero_F = dataclasses.replace(inp, F=SpectralField(inp.omega.grid, np.zeros(inp.omega.grid.spectral_shape)))
    res = darboux_apply(zero_F)
    assert np.array_equal(res.omega_t.coeffs, inp.omega.coeffs)
    assert np.array_equal(res.psi_t.coeffs, inp.psi.coeffs)

    res = darboux_apply(inp)
    assert res.masked_fraction < 0.02
    chk = darboux_verify(res)
    assert chk.residual_inf < 1e-8
    g = inp.omega.grid
    x, _ = mesh(g)
    closed = np.zeros_like(x)
    keep = ~res.mask
    with np.errstate(divide="ignore"):  # masked columns hit sin x = 0
        closed[keep] = (-2.0 * np.cos(x) / (np.sin(x) * (2.0 + np.sin(x))))[keep]
    assert np.max(np.abs(res.p_t.real - closed)[keep]) < 1e-8


def test_a13_envelope_limit_cycle_is_exact_orbit():
    """From q_c(0) the derivative-NLS flow tracks q_c(t) to 1e-6 over T=50
    for eps in {0, 0.01, 0.05} at mu=6."""
    for eps in (0.0, 0.01, 0.05):
        params = GLParams(variant="dernls", eps=eps, mu=6.0)
        st = gl_limit_cycle_state(params)
        worst = 0.0
        for _ in range(5000):
            st = gl_step(st, 0.01)
            ref = np.zeros_like(st.q)
            ref[0] = gl_limit_cycle(params, st.t)
            worst = max(worst, float(np.max(np.abs(st.q - ref))))
        assert worst < 1e-6, f"eps={eps}: drift {worst:.3e}"


def test_a14_wave_energy_conservation_and_pendulum_oracle():
    """Unforced wave energy drifts < 1e-6 (relative) over T=100 at 128 modes;
    the uniform mode follows the pendulum ODE to 1e-8 over T=10."""
    params = SGParams(c=0.9, a=1.0, eps=0.0, n_modes=128)
    rng = np.random.default_rng(7)
    u = np.zeros(129)
    v = np.zeros(129)
    u[1:7] = 0.3 * rng.standard_normal(6)
    v[1:7] = 0.3 * rng.standard_normal(6)
    st = sg_state(params, u, v)
    e0 = sg_energy(st)
    for _ in range(10000):
        st = sg_step(st, 0.01)
    assert abs(sg_energy(st) - e0) / abs(e0) < 1e-6

    st = sg_uniform_state(SGParams(n_modes=16), 2.5, 0.3)
    for _ in range(1000):
        st = sg_step(st, 0.01)
    sol = solve_ivp(
        lambda t, y: [y[1], np.sin(y[0])], (0.0, 10.0), [2.5, 0.3],
        rtol=1e-12, atol=1e-12,
    )
    assert abs(st.u[0] - sol.y[0, -1]) < 1e-8
    assert abs(st.v[0] - sol.y[1, -1]) < 1e-8


def test_a15_streamline_chaos_indicator():
    """ABC flow: lambda(1,1,1) > 0.01 (chaotic), lambda(1,1,0) < 0.01
    (integrable), both at T=5000 in under a minute."""
    t0 = time.perf_counter()
    chaotic = lyapunov_max(ABCState(ABC_THETA0, (1.0, 1.0, 1.0)), 5000.0, dt=0.02)
    integrable = lyapunov_max(ABCState(ABC_THETA0, (1.0, 1.0, 0.0)), 5000.0, dt=0.02)
    elapsed = time.perf_counter() - t0
    assert chaotic.lam > 0.01
    assert integrable.lam < 0.01
    assert not chaotic.escaped and not integrable.escaped
    assert elapsed < 60.0


def test_a16_deterministic_payloads_and_clean_validation_failures(tmp_path):
    """Same config + seed give byte-identical payloads; validation failures
    exit 2 without creating the output file."""
    args = ["laxcheck", "--grid", "16", "--t-end", "0.05", "--dt", "0.005", "--seed", "7"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]
    header = json.loads(a.read_text().splitlines()[0])
    assert header["schema_version"] == 1 and header["seed"] == 7

    bad = tmp_path / "never.csv"
    code = main(["spectrum", "--k1", "1", "--k2", "0", "--nu", "-1", "--out", str(bad)])
    assert code == 2
    assert not bad.exists()
    assert not any(p.name.endswith(".partial") for p in tmp_path.iterdir())
