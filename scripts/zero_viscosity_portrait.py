#!/usr/bin/env python3
"""Zero-viscosity portrait of the shear spectrum.

Tracks every eigenvalue of a set of invariant classes along a descending
viscosity schedule, classifies the limits against the inviscid spectrum, and
writes one JSONL file per class plus a one-line-per-class summary CSV.  The
output is plain data; point any plotting tool at it.  The summary carries the
convergence deltas of ``nel zvtrack``'s header: the cluster extent of the
inviscid reference at doubled truncation, and |lambda0(2N) - lambda0(N)|.  A
class with no isolated inviscid eigenvalue has empty ``lambda0`` and
``lambda0_refine_delta`` cells (``nel zvtrack`` writes null there).  The
parameters default as ``nel zvtrack``'s do.  Each file is written to
``<name>.partial`` and renamed after a flush, so an interrupted portrait
leaves no truncated file.

    python3 scripts/zero_viscosity_portrait.py --outdir portrait/
    python3 scripts/zero_viscosity_portrait.py --classes "1,0;2,0;3,0" --trunc 96
"""

import argparse
import pathlib
import sys

from nel.cli import COMMANDS
from nel.runio import json_payload_line, write_atomic
from nel.spectra import ModeClass, classify_limits, limits_summary, track_zero_viscosity, viscosity_schedule

ZVTRACK_KEYS = ("alpha", "gamma", "trunc", "nu_max", "nu_min", "n_nus", "tol")
SUMMARY_COLUMNS = ("lambda0", "cluster_extent", "cluster_extent_refined", "lambda0_refine_delta")


def parse_classes(text):
    out = []
    for item in text.split(";"):
        k1, k2 = (int(p) for p in item.split(","))
        out.append(ModeClass(k1, k2))
    return out


def cell(x):
    return "" if x is None else repr(float(x))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--classes", default="1,0;0,1;2,0",
                    help="semicolon-separated k1,k2 pairs (k2 only labels a class: (k1, k2) is the operator "
                         "of (k1, 0) for k1 != 0, of (0, 1) for k1 = 0)")
    zvtrack = COMMANDS["zvtrack"]
    for key in ZVTRACK_KEYS:
        ap.add_argument("--" + key.replace("_", "-"), type=zvtrack.schema[key], default=zvtrack.defaults[key])
    ap.add_argument("--outdir", default="portrait")
    args = ap.parse_args(argv)

    nus = viscosity_schedule(args.nu_max, args.nu_min, args.n_nus)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    summary_rows = [",".join(("class_k1", "class_k2", "label", "n_trajectories", *SUMMARY_COLUMNS))]
    for cls in parse_classes(args.classes):
        track, euler, refined = track_zero_viscosity(cls, args.alpha, args.gamma, nus, args.trunc)
        result = classify_limits(track, euler, args.tol)

        path = outdir / f"class_{cls.k1}_{cls.k2}.jsonl"
        write_atomic(path, (json_payload_line(traj.record(cls)) + "\n" for traj in result.trajectories))

        summary = limits_summary(result, euler, refined)  # nel zvtrack's header summary
        row = [str(cls.k1), str(cls.k2), summary["class_label"], str(len(result.trajectories))]
        summary_rows.append(",".join(row + [cell(summary[key]) for key in SUMMARY_COLUMNS]))
        print(f"({cls.k1},{cls.k2}) -> {result.class_label}  [{path}]")

    write_atomic(outdir / "summary.csv", (row + "\n" for row in summary_rows))
    print(f"portrait written to {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
