"""Regenerate ``spectra.json``, the golden corpus of the spectra commands.

    PYTHONPATH=src python tests/golden/generate.py

Each entry runs one small command through ``nel.cli.main`` and records what
``tests/test_golden.py`` pins: a payload hash where the bytes must not move,
values with a tolerance where a change of eigensolver may move the last bits.
The committed corpus was generated from the code before the spectra of the
(k1, 0) classes were split into reflection sectors; regenerate it only on
purpose, and say why in CHANGES.md.
"""

import hashlib
import json
import pathlib
import sys
import tempfile

from nel.cli import main

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


if __name__ == "__main__":
    corpus = {name: record(name, argv) for name, argv in CASES.items()}
    (HERE / "spectra.json").write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    sys.exit(0)
