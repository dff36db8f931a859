"""The traced benchmark sessions wrap nel's layer functions by module and name
(``perfbench/layers.py``); a renamed or removed one must fail here, not in a
benchmark run."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# a fresh interpreter, so the wrapping leaves this test process alone
PROBE = """
import sys
sys.path.insert(0, "perfbench")
import nel.cli
import layers, tracer
originals = {(m, f): getattr(sys.modules[m], f) for m, f, _ in layers.SPANS}
layers.install(tracer.Tracer())
for (m, f), original in originals.items():
    now = getattr(sys.modules[m], f)
    assert now is not original and now.__wrapped__ is original, f"{m}.{f} not wrapped"
print(len(originals))
"""


def test_every_layer_span_is_wrapped():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
