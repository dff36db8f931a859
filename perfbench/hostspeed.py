"""Host-speed probe: fixed work that does not depend on the tree under test.

    python3 perfbench/hostspeed.py

A fresh interpreter imports numpy and scipy.linalg, as ``import nel.cli``
does, then times one small kernel of each kind of work nel's commands do:
interpreted Python, many tiny 1-D FFTs, dense eigensolves and one n-D FFT
pair.  It prints the time of each kernel, in seconds, as one JSON object,
and checks each kernel's result so that a broken environment cannot pass
for a fast one.

The benchmark runs it between sessions.  The host shares its cores with
other machines, and its speed shifts by a quarter or more for minutes at a
time; the probe's median over a run tells how fast the host was during that
run.  It uses only the Python and numpy of the environment, so a change to
nel cannot move it.
"""

import json
import math
import sys
import time

import numpy as np
import scipy.linalg  # noqa: F401  (import cost, as in nel.cli)


def interpreted(n: int = 400_000) -> float:
    total, step = 0, {"a": 1}
    for i in range(n):
        total += (i * i) % 7 + step["a"]
    return float(total)


def tiny_ffts(x: np.ndarray, n: int = 2_000) -> float:
    for _ in range(n):
        x = np.fft.irfft(np.fft.rfft(x), len(x))
    return float(x.sum())


def eigensolves(a: np.ndarray, n: int = 3) -> float:
    return float(sum(np.abs(np.linalg.eigvals(a)).max() for _ in range(n)))


def nd_ffts(y: np.ndarray, n: int = 3) -> float:
    for _ in range(n):
        y = np.fft.irfftn(np.fft.rfftn(y), y.shape, axes=(0, 1, 2))
    return float(y.sum())


def main() -> int:
    rng = np.random.default_rng(0)
    x, a, y = rng.random(64), rng.random((160, 160)), rng.random((48, 48, 48))
    # kernel, its arguments and its result: the round trips give back their
    # input, and 3 x 80.24 is the Perron root of this matrix, three times
    kernels = {
        "python": (interpreted, (), 1_200_001.0),
        "fft1d": (tiny_ffts, (x,), float(x.sum())),
        "eig": (eigensolves, (a,), 240.72172025575526),
        "fftnd": (nd_ffts, (y,), float(y.sum())),
    }
    times = {}
    for name, (kernel, args, want) in kernels.items():
        t0 = time.perf_counter()
        got = kernel(*args)
        times[name] = time.perf_counter() - t0
        if not math.isclose(got, want, rel_tol=1e-6):
            print(f"hostspeed: kernel {name} gave {got}, want {want}", file=sys.stderr)
            return 1
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
