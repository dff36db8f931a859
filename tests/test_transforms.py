"""The dealiased-support transforms of ``nel.fields`` against numpy's real
n-D transforms, and the norms of the half-spectrum layout.

The inverse must equal ``irfftn(c, norm="forward")`` in value (so only the
sign of an exact zero may differ), whatever the support of c: lines it skips
are lines that are exactly zero.  The forward must equal
``np.where(mask, rfftn(x) / size, 0)`` with the mean mode zeroed, byte for
byte.  Inputs cover 2D and 3D grids with alpha = 0.7, n = 4, a non-cubic 3D
grid, the 2/3, 1/2 and 1.0 dealias fractions, and scalar, vector and d x d
component stacks; the bracket and the advection of a stack equal those of its
rows, byte for byte.
"""

import numpy as np
import pytest

from nel.fields import (
    SpectralField,
    _forward_dealiased,
    _inverse,
    bracket_core,
    complex_norm_inf,
    gradient_values,
    random_real_field,
)
from nel.fields3d import advect_3d, random_scalar_field, random_solenoidal_field
from nel.grids import TorusGrid
from nel.lax import _transport_check
from oracles import dealias_mask

SHAPES = [(4, 4), (64, 48), (4, 4, 4), (16, 16, 16), (8, 12, 6)]
FRACTIONS = [2 / 3, 1 / 2, 1.0]


def make_grid(shape, fraction):
    return TorusGrid(shape, 0.7, fraction)


def stacks(g):
    """Leading shapes of a scalar, a vector and a d x d stack (9 in 3D)."""
    d = len(g.shape)
    return [(), (d,), (d, d)]


def random_coeffs(lead, g, seed):
    rng = np.random.default_rng(seed)
    shape = (*lead, *g.spectral_shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def irfftn_ref(g, c):
    return np.fft.irfftn(c, s=g.shape, axes=g.axes, norm="forward")


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("shape", SHAPES)
def test_inverse_of_dealiased_input_equals_ifftn(shape, fraction):
    g = make_grid(shape, fraction)
    for i, lead in enumerate(stacks(g)):
        c = np.where(dealias_mask(g), random_coeffs(lead, g, i), 0.0)
        want = irfftn_ref(g, c)
        assert np.array_equal(_inverse(g, c), want), lead


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("shape", SHAPES)
def test_one_coefficient_off_the_mask_gives_the_full_transform(shape, fraction):
    g = make_grid(shape, fraction)
    for i, lead in enumerate(stacks(g)):
        for axis, n in enumerate(g.shape):
            c = np.where(dealias_mask(g), random_coeffs(lead, g, i), 0.0)
            # the dealias cut never keeps the Nyquist mode, on any axis and at any fraction
            c[(0,) * len(lead) + tuple(n // 2 if a == axis else 0 for a in range(len(g.shape)))] = 1.0 - 2.0j
            want = irfftn_ref(g, c)
            assert np.array_equal(_inverse(g, c), want), (lead, axis)


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("shape", SHAPES)
def test_forward_equals_masked_fftn_bytes(shape, fraction):
    g = make_grid(shape, fraction)
    for i, lead in enumerate(stacks(g)):
        x = np.random.default_rng(10 + i).standard_normal((*lead, *g.shape))
        want = np.where(dealias_mask(g), np.fft.rfftn(x, axes=g.axes) / g.size, 0.0)
        want[(Ellipsis, *(0,) * len(g.shape))] = 0.0
        got = _forward_dealiased(g, x.copy())
        assert got.tobytes() == want.tobytes(), lead


def test_inverse_works_in_its_argument_and_physical_copies():
    g = make_grid((16, 16, 16), 2 / 3)
    c = np.where(dealias_mask(g), random_coeffs((3,), g, 5), 0.0)
    want = irfftn_ref(g, c)
    f = SpectralField(g, c.copy())
    assert np.array_equal(f.physical(), want)
    assert f.coeffs.tobytes() == np.where(dealias_mask(g), random_coeffs((3,), g, 5), 0.0).tobytes()
    before = c.copy()
    values = _inverse(g, c)
    assert values.dtype == np.float64 and values.shape == (3, *g.shape)
    assert np.array_equal(values, want)
    assert not np.array_equal(c, before)  # the complex axes were transformed in c


@pytest.mark.parametrize("shape", [(16, 16), (8, 6), (4, 6, 8)])
def test_norm_l2_on_the_half_spectrum_is_the_grid_rms(shape):
    # interior columns of a half spectrum stand for their mirror images too;
    # the zero and Nyquist columns only for themselves
    g = make_grid(shape, 1.0)
    values = np.random.default_rng(4).standard_normal((2, *g.shape))
    f = SpectralField.from_physical(g, values)
    assert f.norm_l2() == pytest.approx(np.sqrt(np.mean(values**2) * 2), rel=1e-13)
    assert f.norm_inf() == pytest.approx(np.max(np.abs(values)), rel=1e-13)


def test_residual_of_a_complex_pair_is_its_magnitude():
    # a complex phi is marched as (re, im) rows; the residual is max |phi|, not max of the rows
    g = TorusGrid((8, 8, 8))
    z = random_scalar_field(g, 2, np.random.default_rng(7), 1.0)
    re, im = z.physical()
    assert complex_norm_inf(z) == np.max(np.hypot(re, im))
    assert complex_norm_inf(z) > np.max(np.abs(z.physical()))  # the row-wise sup-norm is smaller
    omega0 = random_solenoidal_field(g, 2, np.random.default_rng(8), 0.1)
    drift = np.concatenate([np.zeros((5, *g.spectral_shape)), z.coeffs])

    def rhs(y, t):  # q drifts by z per unit time, Omega and phi stay
        return SpectralField(g, drift)

    res = _transport_check("drift", omega0, z, 0.5, 0.25, rhs, lambda om, phi: phi)
    assert res.residual_inf == pytest.approx(0.5 * np.max(np.hypot(re, im)), rel=1e-14)
    assert res.residual_l2 == pytest.approx(0.5 * np.sqrt(np.mean(re**2 + im**2)), rel=1e-13)


def test_gradient_values_and_shared_gradients():
    g = TorusGrid((32, 24), 0.7)
    f = random_real_field(g, 5, np.random.default_rng(1))
    h = random_real_field(g, 5, np.random.default_rng(2))
    grad = gradient_values(f)
    for j in range(2):
        assert np.array_equal(grad[j], SpectralField(g, f.coeffs * (1j * g.k[j])).physical())
    shared = bracket_core(f, h, grad, gradient_values(h))
    assert shared.coeffs.tobytes() == bracket_core(f, h).coeffs.tobytes()
    # a stack of fields goes through the bracket row by row, to the byte
    k = random_real_field(g, 5, np.random.default_rng(3))
    rows = (f, h, k)
    stacked = bracket_core(f, SpectralField(g, np.stack([r.coeffs for r in rows])))
    for r, got in zip(rows, stacked.coeffs):
        assert got.tobytes() == bracket_core(f, r).coeffs.tobytes()
    # and so does the 3D advection: a vector and a complex scalar's (re, im) rows, as in the transport check
    g3 = TorusGrid((8, 12, 6))
    u = random_solenoidal_field(g3, 2, np.random.default_rng(1))
    om = random_solenoidal_field(g3, 2, np.random.default_rng(2))
    phi = random_scalar_field(g3, 2, np.random.default_rng(3))
    got = advect_3d(u, SpectralField(g3, np.concatenate([om.coeffs, phi.coeffs]))).coeffs
    assert got[:3].tobytes() == advect_3d(u, om).coeffs.tobytes()
    assert got[3:].tobytes() == advect_3d(u, phi).coeffs.tobytes()
