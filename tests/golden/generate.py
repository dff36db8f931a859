"""Regenerate a golden corpus: ``spectra.json`` or ``commands.json``.

    PYTHONPATH=src python tests/golden/generate.py spectra|commands

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
Lyapunov loop.  Regenerate a corpus only on purpose, and say why
in CHANGES.md.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

from nel.cli import main
from nel.fields import random_real_field, save_field
from nel.fields3d import random_scalar_field, random_solenoidal_field
from nel.grids import TorusGrid2D, TorusGrid3D
from nel.lax import darboux_shear_example

HERE = pathlib.Path(__file__).resolve().parent

CASES = {
    "spectrum_2_1_csv": ["spectrum", "--k1", "2", "--k2", "1", "--nu", "0.05", "--trunc", "40", "--format", "csv"],
    "spectrum_2_1_jsonl": ["spectrum", "--k1", "2", "--k2", "1", "--nu", "0.001", "--trunc", "24", "--format", "jsonl"],
    "zvtrack_2_1": ["zvtrack", "--k1", "2", "--k2", "1", "--trunc", "20", "--n-nus", "8"],
    "spectrum_1_0": ["spectrum", "--k1", "1", "--k2", "0", "--nu", "0.05", "--trunc", "40", "--format", "csv"],
    "nustar": ["nustar", "--trunc", "20", "--tol", "1e-6"],
    "zvtrack_1_0": ["zvtrack", "--k1", "1", "--k2", "0", "--trunc", "40", "--n-nus", "12"],
    "zvtrack_2_0": ["zvtrack", "--k1", "2", "--k2", "0", "--trunc", "40", "--n-nus", "12"],
}
HASHED = ("spectrum_2_1_csv", "spectrum_2_1_jsonl", "zvtrack_2_1")

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
}
# darboux from save_field snapshots of darboux_shear_example(nx, ny)
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


def darboux_snapshot_payload(nx, ny):
    """Payload of ``darboux`` run on saved snapshots of the worked example."""
    inp = darboux_shear_example(nx, ny)
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["darboux"]
        for flag, fld in (("--omega", inp.omega), ("--p", inp.p), ("--f", inp.f), ("--bigf", inp.F)):
            path = pathlib.Path(tmp) / flag[2:]
            save_field(path, fld)
            argv += [flag, str(path)]
        return run(argv)[1]


def snapshot_fields():
    """One 2D scalar, one 3D scalar and one 3D vector field, drawn from fixed seeds."""
    g2 = TorusGrid2D(alpha=0.7, nx=8, ny=6)
    g3 = TorusGrid3D(nx=4, ny=6, nz=4)
    return {
        "scalar_2d": random_real_field(g2, 2, np.random.default_rng(1), 0.5),
        "scalar_3d": random_scalar_field(g3, 1, np.random.default_rng(2), 2.0),
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


def commands_corpus():
    corpus = {name: {"argv": argv, "payload_sha256": digest(run(argv)[1])} for name, argv in COMMAND_CASES.items()}
    for nx, ny in DARBOUX_SNAPSHOT_SIZES:
        corpus[f"darboux_snapshots_{nx}x{ny}"] = {"size": [nx, ny], "payload_sha256": digest(darboux_snapshot_payload(nx, ny))}
    for name, fld in snapshot_fields().items():
        corpus[f"save_field_{name}"] = {"file_sha256": snapshot_digest(fld)}
    return corpus


if __name__ == "__main__":
    corpora = {"spectra": spectra_corpus, "commands": commands_corpus}
    if len(sys.argv) != 2 or sys.argv[1] not in corpora:
        sys.exit(f"usage: generate.py {'|'.join(corpora)}")
    corpus = corpora[sys.argv[1]]()
    (HERE / f"{sys.argv[1]}.json").write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
