"""Run configuration and result persistence for the command line.

Configs are flat ``key = value`` text: one assignment per line, ``#`` starts
a comment, blank lines ignored.  Serialization is canonical (keys sorted,
single space around ``=``), so parse -> serialize -> parse is the identity
and serialized files are byte-stable.

Every output file starts with one OutputRecord header line (JSON) carrying
the schema version, the command echo with its fully resolved parameters, a
build identifier (the git commit, marked ``-dirty`` when a tracked file
differs from it), and the wall-clock duration.  Payload lines follow.  The
header is the only place timing lives, which keeps payloads byte-identical
across reruns of the same config and seed.

Files are written to ``<path>.partial`` and renamed onto the target only
after a successful flush, so a crash never leaves a truncated file under the
requested name.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import subprocess
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import ComputationalError, ValidationError

SCHEMA_VERSION = 1
CONFIG_SCHEMA_VERSION = 1

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def parse_config_lines(text: str) -> tuple[dict[str, str], dict[str, int]]:
    """Flat key = value lines -> (raw mapping, key -> line number)."""
    out: dict[str, str] = {}
    lines_seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not _KEY_RE.match(key):
            raise ValidationError(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise ValidationError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines_seen[key]})"
            )
        if not value:
            raise ValidationError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
        lines_seen[key] = lineno
    return out, lines_seen


def serialize_config(params: dict) -> str:
    """Canonical form: alphabetical keys, 'key = value' lines."""
    return "".join(f"{k} = {params[k]}\n" for k in sorted(params))


def coerce_params(raw: dict[str, str], schema: dict, lines: dict[str, int] | None = None) -> dict:
    """Apply a command's type schema to raw strings; unknown keys rejected.

    When a line map is given (config-file input) errors name the line.
    """

    def where(key):
        return f"line {lines[key]}: " if lines and key in lines else ""

    out = {}
    for key, text in raw.items():
        if key not in schema:
            raise ValidationError(f"{where(key)}unknown key {key!r}")
        caster = schema[key]
        try:
            out[key] = caster(text)
        except ValidationError as exc:
            raise ValidationError(f"{where(key)}{key}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{where(key)}bad value for {key!r}: {text!r} ({exc})") from exc
    return out


def enum_of(*choices: str):
    def cast(text: str) -> str:
        if text not in choices:
            raise ValidationError(f"must be one of {', '.join(choices)}; got {text!r}")
        return text

    return cast


def uint64(text) -> int:
    v = int(text)
    if not 0 <= v < 2**64:
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {v}")
    return v


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    seed: int = 0
    out: str | None = None
    fmt: str = "jsonl"

    def __post_init__(self):
        uint64(self.seed)


def build_from_status(text: str) -> str | None:
    """``<short oid>``, or ``<short oid>-dirty`` when a tracked file differs
    from it, from ``git status --porcelain=v2 --branch`` output; None when
    there is no commit."""
    lines = text.splitlines()
    oid = next((ln.split()[2] for ln in lines if ln.startswith("# branch.oid ")), "(initial)")
    if oid == "(initial)":
        return None
    return oid[:7] + ("-dirty" if any(not ln.startswith("#") for ln in lines) else "")


@functools.cache
def build_id() -> str:
    try:
        status = subprocess.run(
            # --no-optional-locks: never write the index, which a concurrent git command may hold
            ["git", "--no-optional-locks", "status", "--porcelain=v2", "--branch", "--untracked-files=no"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            errors="replace",  # paths may be any bytes; only the header lines are read
            check=True,
            timeout=5,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        status = ""
    return build_from_status(status) or f"pkg-{__version__}"


def output_record(cfg: RunConfig, duration_s: float, summary: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "params": cfg.params,
        "seed": cfg.seed,
        "format": cfg.fmt,
        "build": build_id(),
        "duration_s": round(duration_s, 6),
        "summary": summary,
    }


def _json_line(obj) -> str:
    def scrub(o):
        if isinstance(o, np.generic):
            return o.item()
        raise TypeError(f"not JSON serializable: {type(o).__name__}")

    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False, default=scrub)
    except ValueError as exc:  # NaN or infinity: not JSON
        raise ComputationalError(f"non-finite value in the output: {exc}") from None


def write_result(cfg: RunConfig, payload_lines: list[str], duration_s: float, summary: dict) -> None:
    """Emit header + payload atomically to cfg.out, or to stdout when unset."""
    header = _json_line(output_record(cfg, duration_s, summary))
    if cfg.fmt == "csv":
        header = "# " + header
    body = header + "\n" + "".join(line + "\n" for line in payload_lines)
    if cfg.out is None:
        print(body, end="")
        return
    partial = cfg.out + ".partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.write(body)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(partial, cfg.out)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


def csv_line(*cells) -> str:
    return ",".join(_fmt_cell(c) for c in cells)


def _fmt_cell(c) -> str:
    if isinstance(c, np.generic):
        c = c.item()
    if isinstance(c, float):
        return repr(c)  # shortest round-trip decimal
    return str(c)


def json_payload_line(obj) -> str:
    return _json_line(obj)
