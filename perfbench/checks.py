"""Strict parsing and correctness gates for the result files of one job.

Every header and payload line is parsed strictly: JSON with a bare ``NaN``
or ``Infinity`` is rejected (``runio`` can still write one), and every CSV
cell must be a finite number.  The gates reuse the thresholds of the
acceptance suite and are computed here, independently of nel's own code.
"""

from __future__ import annotations

import hashlib
import json
import math

TWO_PI = 2.0 * math.pi


class Rejected(ValueError):
    """The result file is not what the job must produce."""


def _no_constant(token):
    raise Rejected(f"non-JSON constant {token}")


def strict_json(line: str):
    try:
        return json.loads(line, parse_constant=_no_constant)
    except json.JSONDecodeError as exc:
        raise Rejected(f"not JSON: {exc}") from None


def _finite(cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise Rejected(f"CSV cell {cell!r} is not a number") from None
    if not math.isfinite(value):
        raise Rejected(f"CSV cell {cell!r} is not finite")
    return value


def parse(text: str, fmt: str):
    """(header, payload rows, payload digest) of one result file."""
    lines = text.split("\n")
    if len(lines) < 2 or lines[-1] != "":
        raise Rejected("result file must be newline-terminated with a header line")
    head, payload = lines[0], lines[1:-1]
    if fmt == "csv":
        if not head.startswith("# "):
            raise Rejected("CSV header line must start with '# '")
        head = head[2:]
    header = strict_json(head)
    if not isinstance(header, dict) or header.get("schema_version") != 1:
        raise Rejected("header is not a schema-1 record")
    if fmt == "csv":
        if not payload:
            raise Rejected("CSV payload lacks its column line")
        columns = payload[0].split(",")
        rows = []
        for line in payload[1:]:
            cells = line.split(",")
            if len(cells) != len(columns):
                raise Rejected(f"CSV row has {len(cells)} cells, columns are {len(columns)}")
            rows.append([_finite(c) for c in cells])
    else:
        rows = [strict_json(line) for line in payload]
    digest = hashlib.sha256("\n".join(payload).encode()).hexdigest()
    return header, rows, digest


def nustar_bracket(alpha: float, gamma: float) -> tuple[float, float]:
    """Analytic bracket of the critical viscosity of class (1,0)."""
    a2 = alpha * alpha
    lo = gamma * math.sqrt(32 - 3 * a2**3 - 17 * a2**2 - 16 * a2) / (2 * (a2 + 1) * (a2 + 4))
    hi = gamma * math.sqrt((1 - a2) / 2) / (a2 + 1)
    return lo, hi


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise Rejected(why)


def _gate_nustar(job, header, rows):
    _require(len(rows) == 1, "nustar writes one payload line")
    lo, hi = nustar_bracket(0.7, 0.5)
    nu = rows[0]["nu_star"]
    _require(lo < nu < hi, f"nu* {nu} outside the analytic bracket ({lo}, {hi})")
    _require(header["summary"]["nu_star"] == nu, "header and payload disagree on nu*")


def _gate_zvtrack(job, header, rows):
    want = job["label"]
    _require(header["summary"]["class_label"] == want, f"class label is not {want}")
    _require(len(rows) == 2 * job["trunc"] + 1, "one trajectory per eigenvalue")
    labels = {r["label"] for r in rows}
    _require(want in labels, f"no trajectory labelled {want}")
    _require(all(r["class"] == job["cls"] for r in rows), "trajectory of the wrong class")


def _gate_spectrum(job, header, rows):
    _require(len(rows) == 2 * job["trunc"] + 1, "one row per eigenvalue")
    unstable = [r[6] for r in rows if r[6] > 0.0]
    _require(len(unstable) == 1, f"{len(unstable)} eigenvalues with Re > 0, want 1")
    _require(0.0401 < unstable[0] < 0.1203, f"unstable Re {unstable[0]} outside (0.0401, 0.1203)")


def _gate_laxcheck(job, header, rows):
    _require(len(rows) == 1, "laxcheck writes one payload line")
    rec = rows[0]
    _require(rec["check"] == job["check"], f"check {rec['check']!r}, want {job['check']!r}")
    limit = 1e-4 if job["check"].endswith("2d") else 1e-3
    _require(rec["residual_inf"] < limit, f"residual {rec['residual_inf']} >= {limit}")


def _gate_darboux(job, header, rows):
    _require(len(rows) == 1, "darboux writes one payload line")
    rec = rows[0]
    _require(rec["residual_inf"] < 1e-8, f"residual {rec['residual_inf']} >= 1e-8")
    _require(rec["masked_fraction"] < 0.02, f"masked fraction {rec['masked_fraction']} >= 0.02")


def _gate_simulate(job, header, rows):
    steps = round(job["t_end"] / job["dt"])
    _require(len(rows) == steps + 1, f"{len(rows)} records, want {steps + 1}")
    _require(header["summary"]["max_limit_cycle_err"] < 1e-6, "header limit-cycle error >= 1e-6")
    worst = 0.0
    for r in rows:
        ref = 0.75 * complex(math.cos(1.125 * r["t"]), -math.sin(1.125 * r["t"]))
        q0 = complex(r["coeffs_re"][0], r["coeffs_im"][0])
        rest = max(math.hypot(a, b) for a, b in zip(r["coeffs_re"][1:], r["coeffs_im"][1:]))
        worst = max(worst, abs(q0 - ref), rest)
    _require(worst < 1e-6, f"records leave the limit cycle by {worst}")


def _gate_poincare(job, header, rows):
    _require(header["summary"]["escaped"] is False, "the orbit escaped")
    _require(len(rows) == job["iterates"], f"{len(rows)} samples, want {job['iterates']}")
    period = TWO_PI / 1.125 if job["model"] == "dernls" else TWO_PI
    for k, r in enumerate(rows, start=1):
        _require(abs(r[1] - k * period) < 1e-6, f"sample {k} at t={r[1]}, want {k * period}")


def _gate_lyapunov(job, header, rows):
    summary = header["summary"]
    _require(summary["escaped"] is False, "the orbit escaped")
    _require(len(rows) == round(job["t_end"] / 0.5), "one row per renormalization window")
    lam = summary["lambda"]
    _require(isinstance(lam, float) and lam == rows[-1][1], "lambda is not the last running value")
    if job["model"] == "abc":
        _require(lam > 0.01, f"abc lambda {lam} <= 0.01")


GATES = {
    "nustar": _gate_nustar,
    "zvtrack": _gate_zvtrack,
    "spectrum": _gate_spectrum,
    "laxcheck": _gate_laxcheck,
    "darboux": _gate_darboux,
    "simulate": _gate_simulate,
    "poincare": _gate_poincare,
    "lyapunov": _gate_lyapunov,
}


def check(job: dict, text: str, seed: int) -> str:
    """The payload digest of a result that passes every gate; else Rejected."""
    header, rows, digest = parse(text, job["fmt"])
    _require(header.get("command") == job["command"], "header names another command")
    _require(header.get("seed") == seed, "header carries another seed")
    try:
        GATES[job["command"]](job, header, rows)
    except (KeyError, IndexError, TypeError) as exc:
        raise Rejected(f"malformed record: {type(exc).__name__}: {exc}") from None
    return digest
