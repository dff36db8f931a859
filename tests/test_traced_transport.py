"""The traced benchmark sessions count the transport checks' work by wrapping
``fields.bracket_core``, ``fields3d.advect_3d``, ``fields3d.biot_savart_3d``
and ``lax._rk4`` (``perfbench/layers.py``).  The checks must keep calling
them through those names, so the spans keep counting.  A span counts one
call, and a call may bracket or advect a whole stack of fields: the marched
state (Omega, phi, q) is one stack."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# laxchecks (argv from sys.argv) under the benchmark's tracer, 2 RK4 steps
# each; a fresh interpreter, so the wrapping leaves this test process alone
PROBE = """
import json, os, sys, tempfile
sys.path.insert(0, "perfbench")
import nel.cli
import layers, tracer
t = tracer.Tracer()
layers.install(t)
with tempfile.TemporaryDirectory() as tmp:
    for argv in json.loads(sys.argv[1]):
        assert nel.cli.main([*argv, "--dt", "0.005", "--t-end", "0.01", "--out", os.path.join(tmp, "out")]) == 0
print(json.dumps({name: n for name, (n, _) in t.totals(t.table()).items()}))
"""


def traced_spans(*argvs):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argvs)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_laxchecks_enter_the_traced_operators():
    spans = traced_spans(["laxcheck", "--grid", "16"], ["laxcheck", "--dim", "3", "--grid", "8"])
    # per RK4 stage 1 bracket (2D) and 2 advections (3D), plus the initial q and the final residual
    assert spans["fields.bracket"] == 2 * 4 * 1 + 2
    assert spans["fields3d.advect"] == 2 * 4 * 2 + 2
    assert spans["fields3d.biot_savart"] == 2 * 4
    assert spans["lax.rk4"] == 2 + 2


def test_free_mode_transports_by_the_prescribed_velocity():
    spans = traced_spans(["laxcheck", "--dim", "3", "--grid", "8", "--mode", "free"])
    assert spans["fields3d.advect"] == 2 * 4 * 2 + 2
    assert spans.get("fields3d.biot_savart", 0) == 0
    assert spans["lax.rk4"] == 2
