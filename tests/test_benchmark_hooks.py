"""The traced benchmark sessions wrap nel's layer functions by module and name
(``perfbench/layers.py``); a renamed or removed one must fail here, not in a
benchmark run.  The probe also runs small chaos commands under the wrappers,
so a wave or envelope step, strobe, section search or angle-flow window that
no longer passes through a wrapped name reads as a zero count here, and the
traced ``runio.records`` and ``runio.bytes`` must equal the payloads the runs
wrote.  The class eigensolve, ``spectra.compute_spectrum``, is wrapped apart
from the spans, as ``spectra.eig``: a small ``spectrum`` run must count it."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# a fresh interpreter, so the wrapping leaves this test process alone
PROBE = """
import os, sys, tempfile
sys.path.insert(0, "perfbench")
import nel.cli
import layers, tracer
originals = {(m, f): getattr(sys.modules[m], f) for m, f, _ in layers.SPANS}
originals["nel.spectra", "compute_spectrum"] = nel.spectra.compute_spectrum
tr = tracer.Tracer()
layers.install(tr)
for (m, f), original in originals.items():
    now = getattr(sys.modules[m], f)
    assert now is not original and now.__wrapped__ is original, f"{m}.{f} not wrapped"
assert nel.cli.compute_spectrum is nel.spectra.compute_spectrum, "nel.cli's binding not wrapped"
written = {"records": 0, "bytes": 0}  # payload lines and bytes in the output files
with tempfile.TemporaryDirectory() as tmp:
    def run(argv):
        assert nel.cli.main([*argv, "--out", os.path.join(tmp, "out")]) == 0, argv
        with open(os.path.join(tmp, "out"), "rb") as fh:
            payload = fh.read().split(b"\\n", 1)[1]  # after the header
        written["records"] += payload.count(b"\\n")
        written["bytes"] += len(payload)

    run(["spectrum", "--k1", "1", "--k2", "0", "--nu", "0.05", "--trunc", "8"])
    totals = tr.totals(tr.table())
    for span in ("spectra.eig", "spectra.assemble"):
        assert totals.get(span, (0, 0.0))[0] > 0, span
    run(["poincare", "--model", "sg", "--u0", "3.0", "--n-modes", "8", "--iterates", "1"])
    totals = tr.totals(tr.table())  # only the wave model has stepped so far
    for span in ("models.step", "models.nonlinear", "diagnostics.strobe"):
        assert totals.get(span, (0, 0.0))[0] > 0, "sg " + span
    for argv in (
        ["poincare", "--model", "dernls", "--eps", "0.05", "--n-modes", "8", "--iterates", "1"],
        ["lyapunov", "--model", "abc", "--t-end", "2"],
        ["lyapunov", "--model", "dernls", "--eps", "0.05", "--n-modes", "8", "--t-end", "1"],
    ):
        run(argv)
totals = tr.totals(tr.table())
for span in ("models.step", "models.nonlinear", "forcing.abc", "diagnostics.section", "diagnostics.lyapunov"):
    assert totals.get(span, (0, 0.0))[0] > 0, span
for counter in ("diagnostics.section_hits", "diagnostics.bisect_steps", "diagnostics.renorm_windows"):
    assert tr.counts[counter] > 0, counter
for counter, n in written.items():
    assert tr.counts["runio." + counter] == n > 0, (counter, tr.counts["runio." + counter], n)
print(len(originals))
"""


def test_every_layer_span_is_wrapped():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
