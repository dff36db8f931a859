"""The traced benchmark sessions wrap nel's layer functions by module and name
(``perfbench/layers.py``); a renamed or removed one must fail here, not in a
benchmark run.  The probe also runs small chaos commands under the wrappers,
so a step, section search or angle-flow window that no longer passes through
a wrapped name reads as a zero count here."""

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
tr = tracer.Tracer()
layers.install(tr)
for (m, f), original in originals.items():
    now = getattr(sys.modules[m], f)
    assert now is not original and now.__wrapped__ is original, f"{m}.{f} not wrapped"
with tempfile.TemporaryDirectory() as tmp:
    for argv in (
        ["poincare", "--model", "dernls", "--eps", "0.05", "--n-modes", "8", "--iterates", "1"],
        ["lyapunov", "--model", "abc", "--t-end", "2"],
        ["lyapunov", "--model", "dernls", "--eps", "0.05", "--n-modes", "8", "--t-end", "1"],
    ):
        assert nel.cli.main([*argv, "--out", os.path.join(tmp, "out")]) == 0, argv
totals = tr.totals(tr.table())
for span in ("models.step", "models.nonlinear", "forcing.abc", "diagnostics.section", "diagnostics.lyapunov"):
    assert totals.get(span, (0, 0.0))[0] > 0, span
for counter in ("diagnostics.section_hits", "diagnostics.bisect_steps", "diagnostics.renorm_windows"):
    assert tr.counts[counter] > 0, counter
print(len(originals))
"""


def test_every_layer_span_is_wrapped():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
