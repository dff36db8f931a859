"""Regenerate a golden corpus: ``spectra.json`` or ``commands.json``.

    PYTHONPATH=src python tests/golden/generate.py spectra|commands
    PYTHONPATH=src python tests/golden/generate.py spectra|commands NAME...

Named entries (of ``CASES`` or of ``COMMAND_CASES``) are recomputed into the
committed file; every other entry is kept as it is, byte for byte.

Each entry runs one small command through ``nel.cli.main`` and records what
``tests/test_golden.py`` pins: a payload hash where the bytes must not move,
values with a tolerance where a change of eigensolver may move the last bits.
The spectra corpus was generated from the code before the spectra of the
(k1, 0) classes were split into reflection sectors; the commands corpus
(transport and chaos commands, and the bytes of field snapshots) from the
code before the 2D and 3D field classes were merged into one.  Its entries
for the section search, the kicked and odd-parity wave and the pnls
envelope were added from the code before the chaos steppers took a batch
axis; ``lyapunov_sg_odd`` was added after the odd-parity shadow was fixed
(it exited 2 before).  ``laxcheck_2d_alpha``, ``laxcheck_3d_*_32``,
``laxcheck_3d_curl_control`` and ``darboux_256x32`` were added from the code
before the transport transforms were pruned to the dealiased support and
derivatives were shared.  ``simulate_sg_quasi``, ``lyapunov_sg_quasi`` and
``lyapunov_abc_110_theta0`` were added from the code before the wave,
envelope and angle states shared one flow protocol and one two-orbit
Lyapunov loop.  ``laxcheck_3d_free_control``, ``laxcheck_2d_kmax12`` and
``laxcheck_3d_curl_kmax12`` were added from the code before the transport
checks marched (Omega, phi, q) as one stacked field.  When fields became
half spectra, the transport and ``save_field_*`` entries were re-pinned (the
transforms move the residuals by roundoff) and ``save_field_scalar_3d``
became a real field, the first component of a solenoidal draw, whose
parent-written bytes were recorded before ``src/`` changed; the darboux
entries held.  ``simulate_sg_kick_n50`` (a 200-point wave grid, not a power
of two) and ``lyapunov_dernls_n13_kcut5`` (odd n_modes, a derivative cutoff
below n_modes/2) were added from the code before the wave and envelope
transforms took per-params plans and forward-normalised envelope FFTs.
``laxcheck_3d_curl_kmax12`` was re-pinned when ``random_solenoidal_field``
stopped drawing the Nyquist modes, which made its draws real fields.
``simulate_sg_quasi_params``, ``lyapunov_dernls_mu_gamma``,
``simulate_pnls_params`` and ``poincare_pnls_params``, which set every model
key of the three dataclasses off its default, were added from the code
before the CLI built those dataclasses from their fields; ``zvtrack_0_1``
(spectra corpus) after one rule came to decide Condensation for a trajectory
and for its class.  ``spectrum_1_0_inviscid`` and the ``zvtrack_*_header``
entries (the header's cluster extents and lambda0 at N and 2N) were added by
name, every other entry byte-identical, from the code before the nu = 0
blocks were solved by the parity split of T^2; they are pinned by value.
``zvtrack_2_1`` and ``zvtrack_0_1`` were re-pinned when zvtrack's viscosity
schedule came to be computed in Python floats (np.geomspace's last bits
moved with numpy's SIMD level); then ``zvtrack_2_1``, ``zvtrack_1_0`` and
``zvtrack_2_0`` when each reflection sector was matched on its own and a tie
between conjugates stopped counting as ambiguous.  ``spectrum_1_1_alpha1``
and ``zvtrack_1_1_alpha1`` (class (1,1) at alpha = 1, whose blocks balancing
permutes out of Hessenberg form) were added by name from the code before the
eigensolve called dgebal and dhseqr in place of dgeev.  ``spectrum_2_1_csv``,
``spectrum_2_1_jsonl``, ``zvtrack_2_1``, ``spectrum_1_1_alpha1`` and
``zvtrack_1_1_alpha1`` were re-pinned, every other entry byte-identical, when
a k1 != 0 class came to be solved on the window of (k1, 0) (wavenumbers
k2 + n in [-N, N]), as two reflection sectors, in place of the off-centre
window n in [-N, N] and its unsplit solve; their payloads are now those of
(k1, 0) but for the echoed class.
``darboux_snapshots_y_64x32`` (darboux on y-dependent snapshots, whose
quotient and residuals are not exact zeros) and its ``p_t_sha256`` (the
bytes of ``darboux_apply``'s p~ for the same input) were added, every other
entry byte-identical, from the code before darboux freed its inputs early
and the bracket formed its products in its own buffers.
``lyapunov_dernls_mu_gamma``, ``lyapunov_dernls_n13_kcut5``,
``lyapunov_pnls``, ``lyapunov_sg_kick``, ``lyapunov_sg_odd`` and
``lyapunov_sg_quasi`` were re-pinned by name, every other entry
byte-identical, when the two-orbit loop came to measure its separation with
``math.fsum`` in place of ``np.linalg.norm``, whose BLAS sum order changes
with the OpenBLAS core; no printed number moved by more than 2.22e-16.
``snapshot_v1_*.json`` are snapshots written by ``save_field`` when fields
held full spectra.  Regenerate a corpus only on purpose, and say why in
CHANGES.md.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

from nel.cli import main
from nel.fields import SpectralField, random_real_field, save_field
from nel.fields3d import random_solenoidal_field
from nel.grids import TorusGrid
from nel.lax import DarbouxInput, darboux_apply, darboux_shear_example

HERE = pathlib.Path(__file__).resolve().parent

CASES = {
    "spectrum_2_1_csv": ["spectrum", "--k1", "2", "--k2", "1", "--nu", "0.05", "--trunc", "40", "--format", "csv"],
    "spectrum_2_1_jsonl": ["spectrum", "--k1", "2", "--k2", "1", "--nu", "0.001", "--trunc", "24", "--format", "jsonl"],
    "zvtrack_2_1": ["zvtrack", "--k1", "2", "--k2", "1", "--trunc", "20", "--n-nus", "8"],
    "spectrum_1_0": ["spectrum", "--k1", "1", "--k2", "0", "--nu", "0.05", "--trunc", "40", "--format", "csv"],
    "nustar": ["nustar", "--trunc", "20", "--tol", "1e-6"],
    "zvtrack_1_0": ["zvtrack", "--k1", "1", "--k2", "0", "--trunc", "40", "--n-nus", "12"],
    "zvtrack_2_0": ["zvtrack", "--k1", "2", "--k2", "0", "--trunc", "40", "--n-nus", "12"],
    "zvtrack_0_1": ["zvtrack", "--k1", "0", "--k2", "1", "--trunc", "20", "--n-nus", "8"],
    "spectrum_1_0_inviscid": ["spectrum", "--k1", "1", "--k2", "0", "--nu", "0", "--trunc", "40", "--format", "csv"],
    "zvtrack_1_0_header": ["zvtrack", "--k1", "1", "--k2", "0", "--trunc", "40", "--n-nus", "12"],
    "zvtrack_2_0_header": ["zvtrack", "--k1", "2", "--k2", "0", "--trunc", "40", "--n-nus", "12"],
    # at alpha = 1 the off-centre window of class (1,1) had |k_n| = 1 at row n = -1, a column balancing permuted
    "spectrum_1_1_alpha1": [
        "spectrum", "--k1", "1", "--k2", "1", "--alpha", "1.0", "--nu", "0.05", "--trunc", "40", "--format", "csv",
    ],
    "zvtrack_1_1_alpha1": ["zvtrack", "--k1", "1", "--k2", "1", "--alpha", "1.0", "--trunc", "20", "--n-nus", "8"],
}
HASHED = (
    "spectrum_2_1_csv", "spectrum_2_1_jsonl", "zvtrack_2_1", "zvtrack_0_1", "spectrum_1_1_alpha1", "zvtrack_1_1_alpha1",
)
# the inviscid reference at N and 2N, as the zvtrack header reports it
HEADER_FIELDS = ("cluster_extent", "cluster_extent_refined", "lambda0", "lambda0_refine_delta")

# a small kicked wave under the quasiperiodic drive, whose ABC clock runs inside force_eval
SG_QUASI = (
    "--eps", "0.1", "--n-modes", "16", "--kick", "1:0.1", "--forcing-mode", "quasiperiodic",
    "--forcing-betas", "0.3,0.2,0.1,0.1", "--forcing-abc-state", "4,1,5.5",
)

# every payload of these is pinned by hash
COMMAND_CASES = {
    "laxcheck_2d": ["laxcheck", "--grid", "32", "--t-end", "0.05", "--dt", "0.005"],
    "laxcheck_2d_control": ["laxcheck", "--grid", "32", "--t-end", "0.05", "--dt", "0.005", "--control", "true"],
    "laxcheck_3d_curl": ["laxcheck", "--dim", "3", "--grid", "16", "--t-end", "0.05", "--dt", "0.01", "--mode", "curl"],
    "laxcheck_3d_free": ["laxcheck", "--dim", "3", "--grid", "16", "--t-end", "0.05", "--dt", "0.01", "--mode", "free"],
    "darboux_example": ["darboux"],
    "simulate_abc": ["simulate", "--model", "abc", "--t-end", "5", "--sample-every", "20"],
    "simulate_dernls": ["simulate", "--model", "dernls", "--eps", "0.05", "--t-end", "1"],
    "poincare_sg": ["poincare", "--model", "sg", "--u0", "3.0", "--iterates", "4"],
    "lyapunov_abc": ["lyapunov", "--model", "abc", "--t-end", "50"],
    "lyapunov_dernls": ["lyapunov", "--model", "dernls", "--eps", "0.05", "--t-end", "3"],
    "poincare_dernls": ["poincare", "--model", "dernls", "--eps", "0.05", "--iterates", "2"],
    "poincare_sg_kick": ["poincare", "--model", "sg", "--u0", "3.0", "--kick", "1:0.1", "--iterates", "2"],
    "lyapunov_sg_kick": ["lyapunov", "--model", "sg", "--kick", "1:0.1", "--t-end", "5"],
    "simulate_pnls": ["simulate", "--model", "pnls", "--eps", "0.1", "--q0", "0.5+0.1j", "--t-end", "1"],
    "lyapunov_pnls": ["lyapunov", "--model", "pnls", "--eps", "0.1", "--q0", "0.5+0.1j", "--t-end", "3"],
    "simulate_sg_odd": ["simulate", "--model", "sg", "--parity", "odd", "--kick", "1:0.1"],
    "lyapunov_sg_odd": ["lyapunov", "--model", "sg", "--parity", "odd", "--kick", "1:0.1", "--t-end", "5"],
    "laxcheck_2d_alpha": ["laxcheck", "--grid", "32", "--t-end", "0.05", "--dt", "0.005", "--alpha", "0.5"],
    "laxcheck_3d_curl_32": ["laxcheck", "--dim", "3", "--grid", "32", "--dt", "0.005", "--t-end", "0.01", "--mode", "curl"],
    "laxcheck_3d_free_32": ["laxcheck", "--dim", "3", "--grid", "32", "--dt", "0.005", "--t-end", "0.01", "--mode", "free"],
    "laxcheck_3d_curl_control": [
        "laxcheck", "--dim", "3", "--grid", "16", "--t-end", "0.05", "--dt", "0.01", "--mode", "curl", "--control", "true",
    ],
    "darboux_256x32": ["darboux", "--nx", "256", "--ny", "32", "--eta", "0.01"],
    "simulate_sg_quasi": ["simulate", "--model", "sg", *SG_QUASI, "--t-end", "2"],
    "lyapunov_sg_quasi": ["lyapunov", "--model", "sg", *SG_QUASI, "--t-end", "3"],
    "lyapunov_abc_110_theta0": ["lyapunov", "--model", "abc", "--abc", "1,1,0", "--theta0", "0.5,2,3", "--t-end", "50"],
    "laxcheck_3d_free_control": [
        "laxcheck", "--dim", "3", "--grid", "16", "--t-end", "0.05", "--dt", "0.01", "--mode", "free", "--control", "true",
    ],
    # the initial fields carry modes the 2/3 mask drops, so transforms of the state take the full path
    "laxcheck_2d_kmax12": ["laxcheck", "--grid", "32", "--t-end", "0.05", "--dt", "0.005", "--kmax", "12"],
    "laxcheck_3d_curl_kmax12": [
        "laxcheck", "--dim", "3", "--grid", "16", "--t-end", "0.05", "--dt", "0.01", "--kmax", "12", "--mode", "curl",
    ],
    # a 200-point wave grid (4 * n_modes, not a power of two)
    "simulate_sg_kick_n50": [
        "simulate", "--model", "sg", "--eps", "0.1", "--n-modes", "50", "--kick", "1:0.1,7:0.05", "--t-end", "2",
    ],
    # odd n_modes, and a derivative cutoff below n_modes/2; the shadow orbit is not uniform
    "lyapunov_dernls_n13_kcut5": [
        "lyapunov", "--model", "dernls", "--eps", "0.05", "--n-modes", "13", "--kcut", "5", "--t-end", "3",
    ],
    # every model key the CLI maps onto SGParams, GLParams or ForcingSpec set off its default
    "simulate_sg_quasi_params": [
        "simulate", "--model", "sg", "--c", "0.8", "--a", "1.5", "--eps", "0.1", "--n-modes", "16", "--v0", "0.2",
        "--kick", "1:0.1", "--forcing-mode", "quasiperiodic", "--forcing-alpha0", "0.05",
        "--forcing-betas", "0.3,0.2,0.1,0.1", "--forcing-omegas", "1,1.5,2,2.5", "--forcing-phases", "0.1,0.2,0.3,0.4",
        "--forcing-mu", "1.5", "--forcing-eps", "0.2", "--forcing-abc", "1,0.5,0.8", "--forcing-abc-state", "4,1,5.5",
        "--t-end", "2",
    ],
    # mu acts through |q_x|^2, so the shadow starts far enough off the uniform cycle to feel it
    "lyapunov_dernls_mu_gamma": [
        "lyapunov", "--model", "dernls", "--eps", "0.05", "--mu", "4", "--gamma", "0.3", "--d0", "1e-3", "--t-end", "3",
    ],
    "simulate_pnls_params": [
        "simulate", "--model", "pnls", "--eps", "0.1", "--omega", "0.7", "--alpha", "0.8", "--beta", "1.2",
        "--q0", "0.5+0.1j", "--t-end", "1",
    ],
    # gamma only places the section
    "poincare_pnls_params": [
        "poincare", "--model", "pnls", "--eps", "0.1", "--omega", "0.7", "--alpha", "0.8", "--beta", "1.2",
        "--gamma", "0.5", "--q0", "0.5+0.1j", "--iterates", "1",
    ],
}
# darboux from save_field snapshots of darboux_shear_example(nx, ny), and of darboux_y_input()
DARBOUX_SNAPSHOT_SIZES = ((64, 8), (32, 16))


def run(argv):
    """(header, payload lines) of one command run into a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out"
        rc = main([*argv, "--out", str(out)])
        if rc != 0:
            raise RuntimeError(f"{argv} exited {rc}")
        lines = out.read_text(encoding="utf-8").splitlines()
    head = lines[0][2:] if lines[0].startswith("# ") else lines[0]
    return json.loads(head), lines[1:]


def digest(payload):
    return hashlib.sha256("\n".join(payload).encode()).hexdigest()


def record(name, argv):
    header, payload = run(argv)
    entry = {"argv": argv}
    if name in HASHED:
        entry["payload_sha256"] = digest(payload)
    elif name.endswith("_header"):
        entry["header"] = {k: header["summary"][k] for k in HEADER_FIELDS}
    elif argv[0] == "spectrum":
        rows = [line.split(",") for line in payload[1:]]
        entry["values"] = [[float(r[-2]), float(r[-1])] for r in rows]
    elif argv[0] == "nustar":
        entry["nu_star"] = json.loads(payload[0])["nu_star"]
        entry["tol"] = float(argv[argv.index("--tol") + 1])
    else:
        trajs = [json.loads(line) for line in payload]
        entry["class_label"] = header["summary"]["class_label"]
        entry["labels"] = [t["label"] for t in trajs]
        entry["starts"] = [[t["re"][0], t["im"][0]] for t in trajs]
        entry["rightmost"] = {k: trajs[0][k] for k in ("re", "im", "limit_re", "limit_im")}
    return entry


def darboux_y_input():
    """Omega = cos x + cos y, p = Omega^2, f = 3 + Omega, F = Omega / 4 on
    64x32, from grid values: eigenfields that depend on y, so p~ and the
    verify residuals are not exact zeros."""
    grid = TorusGrid((64, 32))
    x, y = np.meshgrid(*(np.arange(n) * (2 * np.pi / n) for n in grid.shape), indexing="ij")
    om = np.cos(x) + np.cos(y)
    return DarbouxInput(*(SpectralField.from_physical(grid, v) for v in (om, om**2, 3 + om, om / 4)))


def darboux_inputs():
    """The inputs ``darboux`` runs from snapshots, by corpus name."""
    inputs = {f"darboux_snapshots_{nx}x{ny}": darboux_shear_example(nx, ny) for nx, ny in DARBOUX_SNAPSHOT_SIZES}
    inputs["darboux_snapshots_y_64x32"] = darboux_y_input()
    return inputs


def p_t_digest(inp):
    """sha256 of the bytes of ``darboux_apply(inp).p_t``."""
    return hashlib.sha256(darboux_apply(inp).p_t.tobytes()).hexdigest()


def darboux_snapshot_payload(inp):
    """Payload of ``darboux`` run on saved snapshots of a DarbouxInput."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["darboux"]
        for flag, fld in (("--omega", inp.omega), ("--p", inp.p), ("--f", inp.f), ("--bigf", inp.F)):
            path = pathlib.Path(tmp) / flag[2:]
            save_field(path, fld)
            argv += [flag, str(path)]
        return run(argv)[1]


def snapshot_fields():
    """One 2D scalar, one 3D scalar and one 3D vector field, drawn from fixed seeds."""
    g2 = TorusGrid((8, 6), 0.7)
    g3 = TorusGrid((4, 6, 4))
    return {
        "scalar_2d": random_real_field(g2, 2, np.random.default_rng(1), 0.5),
        "scalar_3d": SpectralField(g3, random_solenoidal_field(g3, 1, np.random.default_rng(2), 2.0).coeffs[0]),
        "vector_3d": random_solenoidal_field(g3, 1, np.random.default_rng(3), 1.5),
    }


def snapshot_digest(fld):
    """sha256 of the bytes ``save_field`` writes for ``fld``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "field.json"
        save_field(path, fld)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def spectra_corpus():
    return {name: record(name, argv) for name, argv in CASES.items()}


def command_entry(name, argv):
    return {"argv": argv, "payload_sha256": digest(run(argv)[1])}


def commands_corpus():
    corpus = {name: command_entry(name, argv) for name, argv in COMMAND_CASES.items()}
    for name, inp in darboux_inputs().items():
        corpus[name] = {"size": list(inp.omega.grid.shape), "payload_sha256": digest(darboux_snapshot_payload(inp))}
    corpus["darboux_snapshots_y_64x32"]["p_t_sha256"] = p_t_digest(darboux_y_input())
    for name, fld in snapshot_fields().items():
        corpus[f"save_field_{name}"] = {"file_sha256": snapshot_digest(fld)}
    return corpus


if __name__ == "__main__":
    corpora = {"spectra": (spectra_corpus, CASES, record), "commands": (commands_corpus, COMMAND_CASES, command_entry)}
    kind, names = sys.argv[1] if len(sys.argv) > 1 else None, sys.argv[2:]
    if kind not in corpora or not set(names) <= set(corpora[kind][1]):
        sys.exit("usage: generate.py spectra|commands [NAME ...]")
    build, cases, entry = corpora[kind]
    path = HERE / f"{kind}.json"
    if names:
        corpus = json.loads(path.read_text()) | {name: entry(name, cases[name]) for name in names}
    else:
        corpus = build()
    path.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
