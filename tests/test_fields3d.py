"""3D vector calculus: curl/Biot-Savart identities and the shear fixed point."""

import json

import numpy as np
import pytest

from nel.errors import ValidationError
from nel.fields import SpectralField, save_field
from nel.fields3d import (
    advect_3d,
    biot_savart_3d,
    curl_3d,
    divergence_3d,
    random_solenoidal_field,
)
from nel.grids import TorusGrid
from oracles import ns_rhs_3d


def grid(n=16):
    return TorusGrid((n, n, n))


def mesh(g):
    return np.meshgrid(
        *(np.arange(n) * 2 * np.pi / n for n in g.shape),
        indexing="ij",
    )


def test_curl_of_shear():
    # u = (sin z, 0, 0) has curl (0, cos z, 0)
    g = grid()
    X, Y, Z = mesh(g)
    u = SpectralField.from_physical(g, np.stack([np.sin(Z), 0 * X, 0 * X]))
    w = curl_3d(u).physical().real
    assert np.max(np.abs(w[0])) < 1e-13
    assert np.max(np.abs(w[1] - np.cos(Z))) < 1e-13
    assert np.max(np.abs(w[2])) < 1e-13


def test_biot_savart_recovers_shear():
    g = grid()
    X, Y, Z = mesh(g)
    om = SpectralField.from_physical(g, np.stack([0 * X, np.cos(Z), 0 * X]))
    u = biot_savart_3d(om).physical().real
    assert np.max(np.abs(u[0] - np.sin(Z))) < 1e-13
    assert np.max(np.abs(u[1])) < 1e-13
    assert np.max(np.abs(u[2])) < 1e-13


def test_biot_savart_divergence_free_and_curl_consistent():
    g = grid()
    om = random_solenoidal_field(g, 3, np.random.default_rng(0), amplitude=1.0)
    om = curl_3d(om)  # a curl is automatically a valid vorticity (div-free)
    u = biot_savart_3d(om)
    assert divergence_3d(u).norm_inf() < 1e-12
    back = curl_3d(u)
    assert (back - om).norm_inf() < 1e-11


def test_advect_shear_oracle():
    # (u . grad) f with u = (sin z, 0, 0), f = cos x: -> -sin z sin x... sign check
    g = grid()
    X, Y, Z = mesh(g)
    u = SpectralField.from_physical(g, np.stack([np.sin(Z), 0 * X, 0 * X]))
    f = SpectralField.from_physical(g, np.cos(X))
    out = advect_3d(u, f).physical().real
    assert np.max(np.abs(out - (-np.sin(Z) * np.sin(X)))) < 1e-13


def test_shear_is_steady():
    # Omega = (0, cos z, 0), f = (0, cos z, 0): fixed point for any nu
    g = grid()
    X, Y, Z = mesh(g)
    om = SpectralField.from_physical(g, np.stack([0 * X, np.cos(Z), 0 * X]))
    for nu in (0.0, 0.2):
        r = ns_rhs_3d(om, nu, om)
        assert r.norm_inf() < 1e-13


def test_rhs_mean_free():
    g = grid()
    om = random_solenoidal_field(g, 2, np.random.default_rng(1), 0.5)
    f = random_solenoidal_field(g, 2, np.random.default_rng(2), 0.5)
    r = ns_rhs_3d(om, 0.01, f)
    assert np.max(np.abs(r.mean())) == 0


def test_mean_vorticity_rejected():
    g = grid()
    c = np.zeros((3, *g.spectral_shape), complex)
    c[0, 0, 0, 0] = 1.0
    with pytest.raises(ValidationError, match="mean-zero"):
        biot_savart_3d(SpectralField(g, c))


def test_prescribed_velocity_path():
    # ns_rhs_3d accepts an independent velocity; at nu=0 with u = 0 the rhs vanishes
    g = grid()
    om = random_solenoidal_field(g, 2, np.random.default_rng(3), 0.5)
    zero_u = SpectralField(g, np.zeros((3, *g.spectral_shape)))
    r = ns_rhs_3d(om, 0.0, zero_u, velocity=zero_u)
    assert r.norm_inf() == 0


def test_solenoidal_draw_is_real_at_kmax_past_nyquist(tmp_path):
    # kmax = 2 reaches the Nyquist mode of the nx = 4 axis; the written full
    # spectrum c must satisfy c(-m) = conj(c(m)) on every component
    g = TorusGrid((4, 6, 8))
    save_field(tmp_path / "u.json", random_solenoidal_field(g, 2, np.random.default_rng(34)))
    snap = json.loads((tmp_path / "u.json").read_text())
    c = (np.array(snap["re"]) + 1j * np.array(snap["im"])).reshape(3, *g.shape)
    mirror = np.conj(np.roll(c[:, ::-1, ::-1, ::-1], 1, axis=(1, 2, 3)))
    assert np.abs(c).max() > 0.01
    assert np.abs(c - mirror).max() < 1e-15
