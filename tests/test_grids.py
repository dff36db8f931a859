"""The one torus grid: what it rejects, what it derives from its shape, the
low-mode mask the random fields are drawn on, and a 3D snapshot on a box
with alpha != 1."""

import numpy as np
import pytest

from nel.errors import ValidationError
from nel.fields import load_field, random_real_field, save_field
from nel.fields3d import random_scalar_field, random_solenoidal_field
from nel.grids import TorusGrid


@pytest.mark.parametrize("shape", [(8,), (4, 4, 4, 4)])
def test_rejects_a_shape_of_other_than_2_or_3_axes(shape):
    with pytest.raises(ValidationError, match=rf"a grid has 2 or 3 axes, got shape \({shape[0]},"):
        TorusGrid(shape)


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("bad", [7, 2, 0, -4])
def test_rejects_an_odd_or_small_size_on_each_axis(ndim, bad):
    for axis in range(ndim):
        shape = tuple(bad if a == axis else 8 for a in range(ndim))
        with pytest.raises(ValidationError) as exc:
            TorusGrid(shape)
        assert str(exc.value) == f"grid sizes must be even and >= 4, got shape {shape}"


@pytest.mark.parametrize("shape", [(8, 8), (8, 8, 8)])
@pytest.mark.parametrize("alpha", [0.0, -0.7, float("nan")])
def test_rejects_a_nonpositive_alpha(shape, alpha):
    with pytest.raises(ValidationError, match="alpha must be positive"):
        TorusGrid(shape, alpha)


@pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
def test_rejects_a_dealias_fraction_outside_0_1(fraction):
    with pytest.raises(ValidationError, match=r"dealias_fraction must lie in \(0, 1\]"):
        TorusGrid((8, 8), dealias_fraction=fraction)
    TorusGrid((8, 8), dealias_fraction=1.0)  # the closed end is allowed


def test_derived_from_the_shape():
    g2, g3 = TorusGrid((8, 6), 0.7), TorusGrid((4, 6, 8), 0.5)
    assert (g2.axes, g3.axes) == ((-2, -1), (-3, -2, -1))
    assert g3.axes is g3.axes  # cached: the forward transform reads it on every call
    assert (g2.size, g2.spectral_shape) == (48, (8, 4))
    assert (g3.size, g3.spectral_shape) == (192, (4, 6, 5))
    kx, ky, kz = g3.k
    assert kx.shape == (4, 1, 1) and ky.shape == (1, 6, 1) and kz.shape == (1, 1, 5)
    assert kx.ravel().tolist() == [0.0, 0.5, -1.0, -0.5]  # alpha times the FFT-order modes
    assert kz.ravel().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]  # the half axis: 0..n/2
    assert np.array_equal(g3.k_squared, kx**2 + ky**2 + kz**2)
    assert g2.x[-1] == pytest.approx(2 * np.pi / 0.7 * 7 / 8) and g2.y[1] == pytest.approx(2 * np.pi / 6)
    assert TorusGrid((8, 8)) == TorusGrid((8, 8), 1.0) != TorusGrid((8, 8), 0.7)


@pytest.mark.parametrize("shape", [(8, 6), (4, 6, 8)])
def test_low_mode_mask(shape):
    g = TorusGrid(shape)
    m = np.meshgrid(*(np.fft.fftfreq(n, 1 / n) for n in shape), indexing="ij")
    for kmax in (1, 2, 3, 9):
        want = np.all([np.abs(mi) <= kmax for mi in m], axis=0)
        assert np.array_equal(g.low_modes(kmax), want)
        no_nyquist = np.all([np.abs(mi) <= min(kmax, n // 2 - 1) for mi, n in zip(m, shape)], axis=0)
        assert np.array_equal(g.low_modes(kmax, nyquist=False), no_nyquist)


@pytest.mark.parametrize("kmax", [0, -3])
def test_low_mode_mask_rejects_kmax_below_1(kmax):
    g2, g3 = TorusGrid((8, 8)), TorusGrid((8, 8, 8))
    rng = np.random.default_rng(1)
    for draw in (
        lambda: random_real_field(g2, kmax, rng),
        lambda: random_solenoidal_field(g3, kmax, rng),
        lambda: random_scalar_field(g3, kmax, rng),
    ):
        with pytest.raises(ValidationError, match=f"kmax must be >= 1, got {kmax}"):
            draw()


def test_3d_snapshot_on_a_box_round_trips(tmp_path):
    g = TorusGrid((8, 6, 4), 0.6)
    f = random_solenoidal_field(g, 2, np.random.default_rng(4), 1.2)
    path = tmp_path / "box.json"
    save_field(path, f)
    got = load_field(path)
    assert got.grid == g
    assert got.coeffs.tobytes() == f.coeffs.tobytes()
