"""One benchmark session: a fresh interpreter that imports ``nel.cli`` and
calls ``nel.cli.main(argv)`` for each job in order, as a researcher's session
or a ``scripts/`` sweep drives nel.

    python3 perfbench/session.py SPEC.json

SPEC names the jobs, whether to trace, the ``src`` directory nel must be
imported from, and where to write the session's record (JSON).  The parent
(``run.py``) notes the clock before it starts this process; the clock is
system-wide, so ``imported`` minus that note is the set-up time.
"""

import sys
import time

import nel.cli

imported = time.perf_counter()
print("perfbench: nel.cli imported", file=sys.stderr, flush=True)  # ends start-up

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(nel.cli.__file__).startswith(src + os.sep):
        print(f"perfbench: nel was imported from {nel.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        import numpy as np
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        job_span = tracer.name_id("cli.job")

    jobs = []
    for i, job in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.job = i
            token = tracer.open()
        t0 = time.perf_counter()
        try:
            rc = nel.cli.main(job["argv"])
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
        except Exception as exc:  # a crashing job is a failed job, not a failed session
            rc = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.close(job_span, token)
        jobs.append({"start": t0, "end": t1, "rc": rc})

    record = {
        "imported": imported,
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        table = tracer.table()
        np.savez(spec["spans"], **table)
        record["totals"] = tracer.totals(table)
        record["counts"] = dict(tracer.counts)
        # a span name that was never registered indexes past every span
        eig = table["name"] == (list(table["names"]) + ["spectra.eig"]).index("spectra.eig")
        record["eigs_by_job"] = np.bincount(table["job"][eig], minlength=len(jobs)).tolist()
    with open(spec["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
