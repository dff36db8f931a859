#!/usr/bin/env python3
"""Zero-viscosity portrait of the shear spectrum.

Tracks every eigenvalue of a set of invariant classes along a descending
viscosity schedule, classifies the limits against the inviscid spectrum, and
writes one JSONL file per class plus a one-line-per-class summary CSV.  The
output is plain data; point any plotting tool at it.  A class with no
isolated inviscid eigenvalue has an empty ``lambda0`` cell (``nel zvtrack``
writes null there).

    python3 scripts/zero_viscosity_portrait.py --outdir portrait/
    python3 scripts/zero_viscosity_portrait.py --classes "1,0;2,0;1,1" --trunc 96
"""

import argparse
import pathlib
import sys

from nel.runio import json_payload_line
from nel.spectra import ModeClass, classify_limits, euler_spectrum, track_zero_viscosity, viscosity_schedule


def parse_classes(text):
    out = []
    for item in text.split(";"):
        k1, k2 = (int(p) for p in item.split(","))
        out.append(ModeClass(k1, k2))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--classes", default="1,0;0,1;2,0;1,1;2,1",
                    help="semicolon-separated k1,k2 pairs")
    ap.add_argument("--alpha", type=float, default=0.7)
    ap.add_argument("--gamma", type=float, default=0.5)
    ap.add_argument("--trunc", type=int, default=64)
    ap.add_argument("--nu-max", type=float, default=0.1)
    ap.add_argument("--nu-min", type=float, default=1e-4)
    ap.add_argument("--n-nus", type=int, default=25)
    ap.add_argument("--tol", type=float, default=0.02)
    ap.add_argument("--outdir", default="portrait")
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    nus = viscosity_schedule(args.nu_max, args.nu_min, args.n_nus)

    summary_rows = ["class_k1,class_k2,label,n_trajectories,lambda0,cluster_extent"]
    for cls in parse_classes(args.classes):
        track = track_zero_viscosity(cls, args.alpha, args.gamma, nus, args.trunc)
        euler = euler_spectrum(cls, args.alpha, args.gamma, args.trunc)
        result = classify_limits(track, euler, args.tol)

        path = outdir / f"class_{cls.k1}_{cls.k2}.jsonl"
        with open(path, "w") as fh:
            for traj in result.trajectories:
                fh.write(json_payload_line(traj.record(cls)) + "\n")

        lam0 = max((v.real for v in euler.points), default=None)
        summary_rows.append(
            f"{cls.k1},{cls.k2},{result.class_label},{len(result.trajectories)},"
            f"{'' if lam0 is None else repr(float(lam0))},{float(euler.cluster_extent)!r}"
        )
        print(f"({cls.k1},{cls.k2}) -> {result.class_label}  [{path}]")

    (outdir / "summary.csv").write_text("\n".join(summary_rows) + "\n")
    print(f"portrait written to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
