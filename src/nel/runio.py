"""Run configuration and result persistence for the command line.

Configs are flat ``key = value`` text: one assignment per line, ``#`` starts
a comment, blank lines ignored.

Every output file starts with one OutputRecord header line (JSON) carrying
the schema version, the command echo with its fully resolved parameters, a
build identifier (the git commit, marked ``-dirty`` when a tracked file
differs from it), and the wall-clock duration.  Payload lines follow.  The
header is the only place timing lives, which keeps payloads byte-identical
across reruns of the same config and seed.

Payload lines are spooled to an anonymous temporary file as a run makes them
(``Payload``), so memory does not grow with the record count.  Files are
written to ``<path>.partial`` and renamed after a flush (``write_atomic``).
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import subprocess
import sys
import tempfile
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


class Payload:
    """Append-only lines, spooled as bytes to an anonymous temporary file that the first append makes
    beside ``out`` (or in the default temporary directory); iterating re-reads them."""

    def __init__(self, out: str | None):
        self._out, self._spool, self._count = out, None, 0

    def append(self, line: str) -> None:
        if self._spool is None:
            where = os.path.dirname(os.path.abspath(self._out)) if self._out else None
            self._spool = tempfile.TemporaryFile(dir=where)
        self._spool.write(line.encode() + b"\n")
        self._count += 1

    def __len__(self) -> int:
        return self._count

    def close(self) -> None:
        if self._spool is not None:
            self._spool.close()

    def __iter__(self):
        if self._spool is not None:
            self._spool.seek(0)
            try:
                yield from (raw[:-1].decode() for raw in self._spool)
            finally:  # a failed write finalizes this after close()
                if not self._spool.closed:
                    self._spool.seek(0, os.SEEK_END)


def write_result(cfg: RunConfig, payload: Payload, duration_s: float, summary: dict) -> None:
    """Emit header + payload atomically to cfg.out, or to stdout when unset."""
    header = ("# " if cfg.fmt == "csv" else "") + _json_line(output_record(cfg, duration_s, summary))
    body = (line + "\n" for lines in ([header], payload) for line in lines)
    if cfg.out is None:
        sys.stdout.writelines(body)
    else:
        write_atomic(cfg.out, body)


def write_atomic(path, chunks) -> None:
    """Write text chunks to ``<path>.partial``, flush and fsync it, and rename
    it onto path; on any exception the ``.partial`` is removed."""
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(partial, path)
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
