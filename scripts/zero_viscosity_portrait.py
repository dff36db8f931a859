#!/usr/bin/env python3
"""Zero-viscosity portrait of the shear spectrum.

Tracks every eigenvalue of a set of invariant classes along a descending
viscosity schedule, classifies the limits against the inviscid spectrum, and
writes one JSONL file per class plus a one-line-per-class summary CSV.  The
output is plain data; point any plotting tool at it.  The summary carries the
convergence deltas of ``nel zvtrack``'s header: the cluster extent of the
inviscid reference at doubled truncation, and |lambda0(2N) - lambda0(N)|.  A
class with no isolated inviscid eigenvalue has empty ``lambda0`` and
``lambda0_refine_delta`` cells (``nel zvtrack`` writes null there).  Each
file is written to ``<name>.partial`` and renamed after a flush, so an
interrupted portrait leaves no truncated file.

    python3 scripts/zero_viscosity_portrait.py --outdir portrait/
    python3 scripts/zero_viscosity_portrait.py --classes "1,0;2,0;3,0" --trunc 96
"""

import argparse
import os
import pathlib
import sys

from nel.runio import json_payload_line
from nel.spectra import ModeClass, classify_limits, track_zero_viscosity, viscosity_schedule


def parse_classes(text):
    out = []
    for item in text.split(";"):
        k1, k2 = (int(p) for p in item.split(","))
        out.append(ModeClass(k1, k2))
    return out


def cell(x):
    return "" if x is None else repr(float(x))


def write_atomic(path, lines):
    """Write lines to ``<path>.partial``, flush, and rename it onto path."""
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in lines)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--classes", default="1,0;0,1;2,0",
                    help="semicolon-separated k1,k2 pairs (k2 only labels a class: (k1, k2) is the operator "
                         "of (k1, 0) for k1 != 0, of (0, 1) for k1 = 0)")
    ap.add_argument("--alpha", type=float, default=0.7)
    ap.add_argument("--gamma", type=float, default=0.5)
    ap.add_argument("--trunc", type=int, default=64)
    ap.add_argument("--nu-max", type=float, default=0.1)
    ap.add_argument("--nu-min", type=float, default=1e-4)
    ap.add_argument("--n-nus", type=int, default=25)
    ap.add_argument("--tol", type=float, default=0.02)
    ap.add_argument("--outdir", default="portrait")
    args = ap.parse_args(argv)

    nus = viscosity_schedule(args.nu_max, args.nu_min, args.n_nus)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    summary_rows = [
        "class_k1,class_k2,label,n_trajectories,lambda0,cluster_extent,cluster_extent_refined,lambda0_refine_delta"
    ]
    for cls in parse_classes(args.classes):
        track, euler, refined = track_zero_viscosity(cls, args.alpha, args.gamma, nus, args.trunc)
        result = classify_limits(track, euler, args.tol)

        path = outdir / f"class_{cls.k1}_{cls.k2}.jsonl"
        write_atomic(path, (json_payload_line(traj.record(cls)) for traj in result.trajectories))

        # as nel zvtrack's header computes them
        lam0 = max((v.real for v in euler.points), default=None)
        lam0_ref = max((v.real for v in refined.points), default=None)
        delta = None if None in (lam0, lam0_ref) else abs(lam0 - lam0_ref)
        summary_rows.append(
            f"{cls.k1},{cls.k2},{result.class_label},{len(result.trajectories)},{cell(lam0)},"
            f"{cell(euler.cluster_extent)},{cell(refined.cluster_extent)},{cell(delta)}"
        )
        print(f"({cls.k1},{cls.k2}) -> {result.class_label}  [{path}]")

    write_atomic(outdir / "summary.csv", summary_rows)
    print(f"portrait written to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
