"""The traced benchmark sessions count the transport checks' work by wrapping
``fields.bracket_core``, ``fields3d.advect_3d``, ``fields3d.biot_savart_3d``
and ``lax._rk4`` (``perfbench/layers.py``).  The checks must keep calling
them, once per bracket or advection, so the spans keep counting."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# small 2D and 3D laxchecks under the benchmark's tracer, 2 RK4 steps each;
# a fresh interpreter, so the wrapping leaves this test process alone
PROBE = """
import json, os, sys, tempfile
sys.path.insert(0, "perfbench")
import nel.cli
import layers, tracer
t = tracer.Tracer()
layers.install(t)
with tempfile.TemporaryDirectory() as tmp:
    for argv in (["laxcheck", "--grid", "16"], ["laxcheck", "--dim", "3", "--grid", "8"]):
        assert nel.cli.main([*argv, "--dt", "0.005", "--t-end", "0.01", "--out", os.path.join(tmp, "out")]) == 0
print(json.dumps({name: n for name, (n, _) in t.totals(t.table()).items()}))
"""


def test_laxchecks_enter_the_traced_operators():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout)
    # per RK4 stage 3 brackets (2D) and 4 advections (3D), plus the initial q and the final residual
    assert spans["fields.bracket"] == 2 * 4 * 3 + 2
    assert spans["fields3d.advect"] == 2 * 4 * 4 + 2
    assert spans["fields3d.biot_savart"] == 2 * 4
    assert spans["lax.rk4"] == 2 + 2
