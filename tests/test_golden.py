"""Golden corpora: the spectra commands (``tests/golden/spectra.json``) and
the transport and chaos commands with field snapshots (``commands.json``).

Payloads of classes with k2 != 0 are pinned byte for byte.  A k1 != 0 class
is solved on the window of (k1, 0), so its payload is that of (k1, 0) but for
the echoed class; a k1 = 0 class is diagonal and its spectrum is its
diagonal, with no eigensolve.  The (k1, 0) classes are pinned by value, as
when their spectra were first split into two reflection sectors, which may
move eigenvalues in their last bits: spectra and the rightmost zvtrack
trajectory to 1e-9, nu* to its bisection tolerance, and every classification
label exactly.  Trajectories that start at one eigenvalue (a pair degenerate
across the two sectors) may be listed in either order, so labels are
compared per distinct start value.  The nu = 0 blocks are solved by the
parity split of T^2, so the inviscid spectrum of class (1,0) and zvtrack's
header fields from its reference at N and 2N are pinned by value too, to
1e-9.  The hashed zvtrack payloads are also checked with numpy's SIMD loops
capped at AVX2, and every hashed payload with OpenBLAS's Haswell kernels.
Every payload of the commands corpus, the bytes ``save_field`` writes, and
the bytes of ``darboux_apply``'s p~ on y-dependent input are pinned by hash;
the ``lyapunov`` payloads are also checked with the Haswell kernels, and
with the reference orbit stepped in a forked child and in this process.
"""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent / "golden"))
from generate import (  # noqa: E402
    HASHED,
    HEADER_FIELDS,
    darboux_inputs,
    darboux_snapshot_payload,
    darboux_y_input,
    digest,
    p_t_digest,
    run,
    snapshot_digest,
    snapshot_fields,
)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CORPUS = json.loads((GOLDEN / "spectra.json").read_text())
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("name", HASHED)
def test_payload_bytes(name):
    _, payload = run(CORPUS[name]["argv"])
    assert digest(payload) == CORPUS[name]["payload_sha256"]


def payload_digest_with(name, env, out):
    """Digest of the payload of spectra entry name, run in a subprocess with env
    added to the environment."""
    argv = [sys.executable, "-m", "nel.cli", *CORPUS[name]["argv"], "--out", str(out)]
    proc = subprocess.run(argv, env={**os.environ, **env}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return digest(out.read_text(encoding="utf-8").splitlines()[1:])


@pytest.mark.parametrize("name", ["zvtrack_2_1", "zvtrack_0_1", "zvtrack_1_1_alpha1"])
def test_zvtrack_bytes_without_avx512(name, tmp_path):
    """The pinned zvtrack bytes hold with numpy's SIMD loops capped at AVX2, as
    on an x86-64 host without AVX-512 (a subprocess: numpy reads the cap at import)."""
    env = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    assert payload_digest_with(name, env, tmp_path / "out") == CORPUS[name]["payload_sha256"]


@pytest.mark.parametrize("name", HASHED)
def test_spectra_bytes_with_haswell_openblas(name, tmp_path):
    """The pinned spectra bytes hold with the LAPACK and BLAS kernels numpy's
    OpenBLAS runs on an AVX2 (Haswell) host, as on an x86-64 host without
    AVX-512 (a subprocess: OpenBLAS picks its core when it loads)."""
    env = {"OPENBLAS_CORETYPE": "Haswell"}
    assert payload_digest_with(name, env, tmp_path / "out") == CORPUS[name]["payload_sha256"]


def test_spectrum_values():
    want = CORPUS["spectrum_1_0"]
    _, payload = run(want["argv"])
    got = np.array([[float(c) for c in line.split(",")[-2:]] for line in payload[1:]])
    assert got.shape == (len(want["values"]), 2)
    assert np.max(np.abs(got - np.array(want["values"]))) < 1e-9


def test_inviscid_spectrum_values():
    """Matched as a set: the dense solve ordered the imaginary cluster by the
    roundoff in its real parts, which the parity split leaves exactly 0."""
    want = CORPUS["spectrum_1_0_inviscid"]
    _, payload = run(want["argv"])
    got = np.array([complex(*map(float, line.split(",")[-2:])) for line in payload[1:]])
    dist = np.abs(got[:, None] - np.array([complex(*z) for z in want["values"]])[None, :])
    assert dist.shape == (len(got), len(got))
    rows, cols = linear_sum_assignment(dist)
    assert np.max(dist[rows, cols]) < 1e-9


def test_nustar_within_tol():
    want = CORPUS["nustar"]
    _, payload = run(want["argv"])
    assert abs(json.loads(payload[0])["nu_star"] - want["nu_star"]) <= want["tol"]


def labels_by_start(starts, labels):
    """[(start, sorted labels)] per distinct start value (to 1e-9), in order."""
    groups = []
    for z, label in zip(starts, labels):
        for rep, members in groups:
            if abs(z - rep) < 1e-9:
                members.append(label)
                break
        else:
            groups.append((z, [label]))
    return [(rep, sorted(members)) for rep, members in groups]


@pytest.mark.parametrize("name", ["zvtrack_1_0", "zvtrack_2_0"])
def test_zvtrack_labels_and_rightmost(name):
    want = CORPUS[name]
    header, payload = run(want["argv"])
    trajs = [json.loads(line) for line in payload]
    assert header["summary"]["class_label"] == want["class_label"]
    got = labels_by_start([complex(t["re"][0], t["im"][0]) for t in trajs], [t["label"] for t in trajs])
    pinned = labels_by_start([complex(*z) for z in want["starts"]], want["labels"])
    assert len(got) == len(pinned)
    for (z, labels), (z_want, labels_want) in zip(got, pinned):
        assert abs(z - z_want) < 1e-9 and labels == labels_want, z_want
    for key, value in want["rightmost"].items():
        assert np.max(np.abs(np.subtract(trajs[0][key], value))) < 1e-9, key


@pytest.mark.parametrize("name", ["zvtrack_1_0_header", "zvtrack_2_0_header"])
def test_zvtrack_inviscid_header(name):
    want = CORPUS[name]["header"]
    header, _ = run(CORPUS[name]["argv"])
    for key in HEADER_FIELDS:
        got = header["summary"][key]
        assert got == want[key] if want[key] is None else abs(got - want[key]) < 1e-9, key


@pytest.mark.parametrize("name", sorted(k for k in COMMANDS if "argv" in COMMANDS[k]))
def test_command_payload_bytes(name):
    _, payload = run(COMMANDS[name]["argv"])
    assert digest(payload) == COMMANDS[name]["payload_sha256"]


# a fresh interpreter: the payload digests of the named commands entries, as JSON
COMMAND_DIGESTS = """
import json, pathlib, sys
sys.path.insert(0, sys.argv[1])
from generate import digest, run
corpus = json.loads((pathlib.Path(sys.argv[1]) / "commands.json").read_text())
print(json.dumps({name: digest(run(corpus[name]["argv"])[1]) for name in sys.argv[2:]}))
"""


def test_lyapunov_bytes_with_haswell_openblas():
    """The pinned lyapunov bytes hold with OpenBLAS's Haswell kernels: the
    two-orbit loop sums its separation in a fixed order, not by a BLAS call
    (one subprocess for every entry: OpenBLAS picks its core when it loads)."""
    names = sorted(k for k in COMMANDS if k.startswith("lyapunov"))
    argv = [sys.executable, "-c", COMMAND_DIGESTS, str(GOLDEN), *names]
    proc = subprocess.run(argv, env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: COMMANDS[name]["payload_sha256"] for name in names}


@pytest.mark.parametrize("n_cpus", [1, 2], ids=["in_process", "forked"])
def test_lyapunov_bytes_on_both_paths(n_cpus, monkeypatch):
    """The pinned lyapunov bytes hold whether a forked child steps the
    reference orbit (two usable CPUs) or this process does (one)."""
    names = sorted(k for k in COMMANDS if k.startswith("lyapunov"))
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    assert {name: digest(run(COMMANDS[name]["argv"])[1]) for name in names} == {
        name: COMMANDS[name]["payload_sha256"] for name in names
    }
    assert len(pids) == (len(names) if n_cpus == 2 else 0)


@pytest.mark.parametrize("name", sorted(k for k in COMMANDS if k.startswith("darboux_snapshots")))
def test_darboux_from_snapshots(name):
    assert digest(darboux_snapshot_payload(darboux_inputs()[name])) == COMMANDS[name]["payload_sha256"]


def test_darboux_apply_bytes():
    """p~ itself, on input whose quotient is nowhere an exact zero off the mask."""
    assert p_t_digest(darboux_y_input()) == COMMANDS["darboux_snapshots_y_64x32"]["p_t_sha256"]


@pytest.mark.parametrize("name", ["scalar_2d", "scalar_3d", "vector_3d"])
def test_save_field_bytes(name):
    assert snapshot_digest(snapshot_fields()[name]) == COMMANDS[f"save_field_{name}"]["file_sha256"]
