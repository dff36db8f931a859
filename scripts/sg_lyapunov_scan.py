#!/usr/bin/env python3
"""Largest Lyapunov exponent of the damped-driven wave model over a
(perturbation strength, dissipation) grid.

Each cell integrates the cos t-driven wave from a fixed low-mode state and
runs the two-orbit renormalization estimate.  Emits a flat CSV (eps, a,
lambda, escaped) ready for a heat map, to --out or to stdout; no threshold
is baked in.  Progress lines go to stderr.

    python3 scripts/sg_lyapunov_scan.py --out scan.csv --t-end 500
"""

import argparse
import sys

import numpy as np

from nel.diagnostics import lyapunov_max
from nel.models import SGParams, sg_state
from nel.runio import csv_line, write_atomic


def cell_state(eps, a, n_modes):
    params = SGParams(c=0.9, a=a, eps=eps, n_modes=n_modes)
    u = np.zeros(n_modes + 1)
    v = np.zeros(n_modes + 1)
    u[0] = 2.0  # libration-scale uniform displacement
    u[1] = 0.3  # plus one long wave to couple the drive into x-structure
    return sg_state(params, u, v)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps-max", type=float, default=0.1)
    ap.add_argument("--n-eps", type=int, default=6)
    ap.add_argument("--a-min", type=float, default=0.5)
    ap.add_argument("--a-max", type=float, default=2.0)
    ap.add_argument("--n-a", type=int, default=6)
    ap.add_argument("--n-modes", type=int, default=32)
    ap.add_argument("--t-end", type=float, default=500.0)
    ap.add_argument("--dt", type=float, default=0.02)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args(argv)

    eps_grid = np.linspace(0.0, args.eps_max, args.n_eps)
    a_grid = np.linspace(args.a_min, args.a_max, args.n_a)

    rows = ["eps,a,lambda,escaped"]
    for eps in eps_grid:
        for a in a_grid:
            st = cell_state(eps, a, args.n_modes)
            res = lyapunov_max(st, args.t_end, dt=args.dt, seed=args.seed)
            rows.append(csv_line(eps, a, res.lam, res.escaped))
            print(f"eps={eps:.3f} a={a:.3f} -> lambda={res.lam:+.5f}"
                  + ("  (escaped)" if res.escaped else ""), file=sys.stderr)

    if args.out:
        write_atomic(args.out, (row + "\n" for row in rows))
        print(f"scan written to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write("".join(row + "\n" for row in rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
