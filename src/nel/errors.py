"""Error taxonomy shared across the package, and the helpers every layer uses.

The command line maps these onto exit codes: validation errors exit 2,
computational failures exit 3, I/O problems exit 4.
"""

import os


class ValidationError(ValueError):
    """Bad user input or field/grid contract violation, detected before compute."""


class ComputationalError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


def step_count(span: float, h: float, key: str) -> int:
    """round(span / h) for positive span and h; ValidationError naming key if the count overflows a float."""
    if span / h == float("inf"):
        raise ValidationError(f"{key} = {span!r} is too many steps of {h!r}")
    return round(span / h)


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask, else os.cpu_count()
    where the OS has no affinity mask (macOS, Windows); at least 1."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
