"""Command line front end.

Eight subcommands over one run-config contract:

* ``spectrum``  -- eigenvalues of one invariant-class suboperator
* ``nustar``    -- critical viscosity of the first unstable class
* ``zvtrack``   -- eigenvalue trajectories along a descending viscosity
  schedule, classified against the inviscid spectrum
* ``laxcheck``  -- transported-eigenfield residual, 2D or 3D
* ``darboux``   -- gauge transform of a shear eigenfunction pair
* ``simulate``  -- time integration of the wave / envelope / angle models
* ``poincare``  -- strobe or section samples of a trajectory
* ``lyapunov``  -- largest Lyapunov exponent by two-orbit renormalization

Every parameter can come from a flag or from a flat ``key = value`` config
file (``--config``); flags win.  Flag values and config values pass through
the same casters, so error messages agree.  All validation happens before
any file is created; results are written atomically by ``write_result``.

Exit codes: 0 success, 2 invalid input, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import functools
import math
import sys
import time

import numpy as np

from . import __version__
from .diagnostics import lyapunov_max, poincare_samples
from .errors import ComputationalError, ValidationError, step_count
from .fields import load_field, random_real_field
from .fields3d import random_scalar_field, random_solenoidal_field
from .forcing import ABC_THETA0, ABCState, ForcingSpec
from .grids import TorusGrid
from .lax import (
    DarbouxInput,
    darboux_apply,
    darboux_shear_example,
    darboux_verify,
    transported_eigenfield_check_2d,
    transported_eigenfield_check_3d,
)
from .models import (
    GLParams,
    SGParams,
    gl_limit_cycle,
    gl_limit_cycle_state,
    gl_uniform_state,
    sg_state,
)
from .runio import (
    CONFIG_SCHEMA_VERSION,
    SCHEMA_VERSION,
    RunConfig,
    coerce_params,
    csv_line,
    enum_of,
    json_payload_line,
    parse_config_lines,
    write_result,
)
from .spectra import (
    ModeClass,
    class_spectrum,
    classify_limits,
    critical_viscosity,
    euler_spectrum,
    on_every_cpu,
    refine_rightmost,
    track_spectra,
    viscosity_schedule,
)

# ---------------------------------------------------------------------------
# casters shared by flags and config files


def _real(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValidationError(f"expected a finite real, got {text!r}")
    return v


def _bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValidationError(f"expected true/false, got {text!r}")


def _floats(n: int):
    def cast(text: str):
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != n:
            raise ValidationError(f"expected {n} comma-separated reals, got {text!r}")
        return tuple(_real(p) for p in parts)

    return cast


def _kick(text: str):
    """'k:amp,k:amp' -> ((k, amp), ...); empty string -> ()."""
    out = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        k, sep, amp = item.partition(":")
        if not sep:
            raise ValidationError(f"kick entries look like 'mode:amplitude', got {item!r}")
        out.append((int(k), _real(amp)))
    return tuple(out)


def _complex(text: str) -> complex:
    try:
        z = complex(text.strip().replace(" ", ""))
    except ValueError:
        raise ValidationError(f"expected a complex literal like 0.3+0.1j, got {text!r}")
    if not cmath.isfinite(z):
        raise ValidationError(f"expected finite real and imaginary parts, got {text!r}")
    return z


def _q0(text: str) -> str:
    """'limit-cycle' or a finite complex literal, kept as given for the echo."""
    if text.strip() != "limit-cycle":
        _complex(text)
    return text


# ---------------------------------------------------------------------------
# command table


@dataclasses.dataclass(frozen=True)
class Command:
    name: str
    help: str
    schema: dict  # key -> caster
    defaults: dict  # fully typed; keys absent here are required
    formats: tuple  # supported output formats, native first
    run: object  # (params, cfg) -> (payload_lines, summary, params_echo|None)


def _echo(params: dict) -> dict:
    return {k: v for k, v in params.items() if not k.startswith("_")}


# -- spectrum ---------------------------------------------------------------

SPECTRUM_CSV_HEADER = "class_k1,class_k2,alpha,gamma,nu,trunc,re,im"


def _run_spectrum(p, cfg):
    cls = ModeClass(p["k1"], p["k2"])
    spec = class_spectrum(cls, p["alpha"], p["gamma"], p["nu"], p["trunc"])
    _, refine_delta = refine_rightmost(spec)
    lines = []
    if cfg.fmt == "csv":
        lines.append(SPECTRUM_CSV_HEADER)
        for v in spec.values:
            lines.append(
                csv_line(p["k1"], p["k2"], p["alpha"], p["gamma"], p["nu"], p["trunc"], v.real, v.imag)
            )
    else:
        for v in spec.values:
            lines.append(json_payload_line({"class": [p["k1"], p["k2"]], "re": v.real, "im": v.imag}))
    summary = {
        "n_eigenvalues": len(spec.values),
        "rightmost_re": spec.values[0].real,
        "rightmost_refine_delta": refine_delta,
    }
    return lines, summary, None


# -- nustar -----------------------------------------------------------------


def _run_nustar(p, cfg):
    res = critical_viscosity(p["alpha"], p["gamma"], p["trunc"], p["tol"])
    rec = {
        "nu_star": res.nu_star,
        "bracket_lo": res.bracket[0],
        "bracket_hi": res.bracket[1],
        "iterations": res.iterations,
        "refine_delta": res.refine_delta,
        "trunc": res.trunc,
    }
    return [json_payload_line(rec)], {"nu_star": res.nu_star, "refine_delta": res.refine_delta}, None


# -- zvtrack ----------------------------------------------------------------


def _run_zvtrack(p, cfg):
    nus = viscosity_schedule(p["nu_max"], p["nu_min"], p["n_nus"])
    cls, alpha, gamma, trunc = ModeClass(p["k1"], p["k2"]), p["alpha"], p["gamma"], p["trunc"]
    # the schedule's spectra, then the inviscid references at N and 2N, on one pool
    schedule = [functools.partial(class_spectrum, cls, alpha, gamma, nu, trunc) for nu in nus]
    references = [functools.partial(euler_spectrum, cls, alpha, gamma, n) for n in (trunc, 2 * trunc)]
    solved = on_every_cpu(schedule + references)
    try:
        trajectories = track_spectra(nus, solved)
        euler = next(solved)
        cl = classify_limits(trajectories, euler, p["tol"])
        refined = next(solved)
    finally:
        solved.close()

    lines = [json_payload_line(traj.record(cls)) for traj in cl.trajectories]
    lam0 = max((v.real for v in euler.points), default=None)
    lam0_ref = max((v.real for v in refined.points), default=None)
    summary = {
        "class_label": cl.class_label,
        "addition_set": [[v.real, v.imag] for v in cl.addition_set],
        "cluster_extent": euler.cluster_extent,
        "cluster_extent_refined": refined.cluster_extent,
        "lambda0": lam0,
        "lambda0_refine_delta": None if None in (lam0, lam0_ref) else abs(lam0 - lam0_ref),
    }
    return lines, summary, None


# -- laxcheck ---------------------------------------------------------------


def _run_laxcheck(p, cfg):
    unused = {"mode", "amp_u"} if p["dim"] == "2" else {"alpha"} if p["mode"] == "free" else {"alpha", "amp_u"}
    bad = sorted(unused & p["_provided"])
    if bad:
        where = "dim 2" if p["dim"] == "2" else f"dim 3, mode {p['mode']}"
        raise ValidationError(f"parameters {bad} do not apply to laxcheck with {where}")
    rng = np.random.default_rng(cfg.seed)
    if p["dim"] == "2":
        grid = TorusGrid((p["grid"] or 64,) * 2, p["alpha"])
        om0 = random_real_field(grid, p["kmax"], rng, p["amp_omega"])
        ph0 = random_real_field(grid, p["kmax"], rng, p["amp_phi"])
        res = transported_eigenfield_check_2d(
            om0, ph0, p["t_end"], p["dt"], negative_control=p["control"]
        )
    else:
        grid = TorusGrid((p["grid"] or 32,) * 3)
        om0 = random_solenoidal_field(grid, p["kmax"], rng, p["amp_omega"])
        ph0 = random_scalar_field(grid, p["kmax"], rng, p["amp_phi"])
        velocity = None
        if p["mode"] == "free":
            u1 = random_solenoidal_field(grid, p["kmax"], rng, p["amp_u"])
            u2 = random_solenoidal_field(grid, p["kmax"], rng, p["amp_u"])
            velocity = lambda t: u1 * np.cos(t) + u2 * np.sin(t)  # noqa: E731
        res = transported_eigenfield_check_3d(
            om0, ph0, p["t_end"], p["dt"], velocity=velocity, negative_control=p["control"]
        )
    rec = res.to_json_dict(_echo(p))
    return [json_payload_line(rec)], {"check": res.check, "residual_inf": res.residual_inf}, None


# -- darboux ----------------------------------------------------------------


def _run_darboux(p, cfg):
    paths = [p["omega"], p["p"], p["f"], p["bigf"]]
    if any(paths):
        if not all(paths):
            raise ValidationError("pass all four of --omega/--p/--f/--bigf or none")
        fields = [load_field(path) for path in paths]
        for path, fld in zip(paths, fields):
            if fld.coeffs.ndim != 2:
                raise ValidationError(f"field snapshot {path}: darboux inputs must be 2D scalar field snapshots")
        inp = DarbouxInput(*fields, eta=p["eta"])
    else:
        inp = darboux_shear_example(p["nx"], p["ny"], p["eta"])
    res = darboux_apply(inp)
    chk = darboux_verify(inp, res)
    rec = chk.to_json_dict(
        {"eta": p["eta"], "nx": inp.omega.grid.shape[0], "ny": inp.omega.grid.shape[1], "example": not any(paths)}
    )
    summary = {
        "check": chk.check,
        "residual_inf": chk.residual_inf,
        "masked_fraction": res.masked_fraction,
    }
    return [json_payload_line(rec)], summary, None


# -- simulate / poincare / lyapunov -----------------------------------------

SHARED_SIM_KEYS = frozenset({"model", "t_end", "dt", "sample_every", "iterates", "period", "renorm_dt", "d0"})
MODEL_KEYS = {
    "sg": frozenset(
        {
            "c", "a", "eps", "parity", "n_modes", "u0", "v0", "kick",
            "forcing_mode", "forcing_alpha0", "forcing_betas", "forcing_omegas",
            "forcing_phases", "forcing_mu", "forcing_eps", "forcing_abc", "forcing_abc_state",
        }
    ),
    "dernls": frozenset({"eps", "mu", "kcut", "gamma", "n_modes", "q0"}),
    "pnls": frozenset({"eps", "omega", "alpha", "beta", "gamma", "n_modes", "q0"}),
    "abc": frozenset({"abc", "theta0"}),
}


def _model_echo(model: str, p: dict) -> dict:
    keep = MODEL_KEYS[model] | SHARED_SIM_KEYS
    return _echo({k: v for k, v in p.items() if k in keep and v is not None})


def _model_fields(cls, p: dict, prefix: str = "") -> dict:
    """The fields of dataclass cls that are keys of p's model, as prefix + name, valued from p."""
    keys = MODEL_KEYS[p["model"]]
    return {f.name: p[prefix + f.name] for f in dataclasses.fields(cls) if prefix + f.name in keys}


def _build_forcing(p) -> ForcingSpec:
    if p["forcing_mode"] == "cos_t":
        return ForcingSpec(mode="cos_t")
    kw = _model_fields(ForcingSpec, p, "forcing_")
    if kw["eps"] is None:
        # the drive's phase coupling strength follows the model's eps unless
        # overridden: the two are one parameter in the perturbed wave problem
        kw["eps"] = p["eps"]
    return ForcingSpec(**kw)


def _cycle_error(st) -> float:
    """Sup distance of a dernls state from the reference limit cycle at its time."""
    ref = np.zeros_like(st.q)
    ref[0] = gl_limit_cycle(st.params, st.t)
    return float(np.max(np.abs(st.q - ref)))


def _build_state(p: dict):
    """Check the model's keys and build its initial state; also return
    ``_cycle_error`` for a dernls start on the limit cycle, else None."""
    model = p["model"]
    bad = sorted(set(p["_provided"]) - MODEL_KEYS[model] - SHARED_SIM_KEYS)
    if bad:
        raise ValidationError(f"parameters {bad} do not apply to model {model!r}")
    if model == "dernls" and not p["kcut"]:
        p["kcut"] = max(1, p["n_modes"] // 2)  # resolve the 0 sentinel
    if model == "abc":
        return ABCState(theta=p["theta0"], abc=p["abc"]), None
    if model == "sg":
        params = SGParams(**_model_fields(SGParams, p), forcing=_build_forcing(p))
        u = np.zeros(p["n_modes"] + 1)
        v = np.zeros(p["n_modes"] + 1)
        u[0], v[0] = p["u0"], p["v0"]
        for k, amp in p["kick"]:
            if not (0 <= k <= p["n_modes"]):
                raise ValidationError(f"kick mode {k} outside [0, {p['n_modes']}]")
            u[k] += amp
        return sg_state(params, u, v), None
    kw = _model_fields(GLParams, p)
    if model == "dernls":
        kw["K"] = p["kcut"]
    params = GLParams(variant=model, **kw)
    if p["q0"].strip() == "limit-cycle":
        if model != "dernls":
            raise ValidationError("the limit-cycle initial state is specific to dernls")
        return gl_limit_cycle_state(params), _cycle_error
    return gl_uniform_state(params, _complex(p["q0"])), None


def _record(model: str, t: float, state) -> str:
    re, im = state.coeffs()
    return json_payload_line({"model": model, "t": round(t, 12), "coeffs_re": re, "coeffs_im": im})


def _run_simulate(p, cfg):
    model = p["model"]
    st, cycle_error = _build_state(p)
    if p["dt"] <= 0:
        raise ValidationError(f"dt must be positive, got {p['dt']}")
    steps = step_count(p["t_end"], p["dt"], "t_end")
    if steps < 1:
        raise ValidationError("t_end must cover at least one step")
    if p["sample_every"] < 1:
        raise ValidationError(f"sample_every must be >= 1, got {p['sample_every']}")
    lines = [_record(model, 0.0, st)]
    worst = 0.0
    for i in range(1, steps + 1):
        st = st.step(p["dt"])
        if cycle_error:
            worst = max(worst, cycle_error(st))
        if i % p["sample_every"] == 0 or i == steps:
            lines.append(_record(model, i * p["dt"], st))
    summary = {"n_records": len(lines), "t_end": steps * p["dt"]}
    if cycle_error:
        summary["max_limit_cycle_err"] = worst
    return lines, summary, _model_echo(model, p)


def _run_poincare(p, cfg):
    if p["model"] == "abc":
        raise ValidationError("poincare supports the wave and envelope models, not abc")
    st, _ = _build_state(p)
    res = poincare_samples(st, p["iterates"], dt=p["dt"], period=p["period"])
    rows = list(enumerate(res.samples, start=1))
    if cfg.fmt == "csv":
        lines = ["iterate,t," + ",".join(f"s{j}" for j in range(st.vector().size))]
        lines += [csv_line(i, s.t, *s.vector()) for i, s in rows]
    else:
        lines = [json_payload_line({"iterate": i, "t": s.t, "state": s.vector().tolist()}) for i, s in rows]
    summary = {"n_samples": len(res.samples), "escaped": res.escaped}
    return lines, summary, _model_echo(p["model"], p)


def _run_lyapunov(p, cfg):
    st, _ = _build_state(p)
    res = lyapunov_max(st, p["t_end"], dt=p["dt"], renorm_dt=p["renorm_dt"], d0=p["d0"], seed=cfg.seed)
    if cfg.fmt == "csv":
        lines = ["t,lambda_running", *(csv_line(t, lam) for t, lam in res.series)]
    else:
        lines = [json_payload_line({"t": t, "lambda_running": lam}) for t, lam in res.series]
    spread = res.last_decade_spread()
    summary = {
        "lambda": None if np.isnan(res.lam) else res.lam,
        "escaped": res.escaped,
        "last_decade_spread": None if not np.isfinite(spread) else spread,
    }
    return lines, summary, _model_echo(p["model"], p)


# ---------------------------------------------------------------------------
# schemas

_SIM_STATE_SCHEMA = {
    "model": enum_of("sg", "dernls", "pnls", "abc"),
    "dt": _real,
    # wave model
    "c": _real, "a": _real, "parity": enum_of("even", "odd"),
    "u0": _real, "v0": _real, "kick": _kick,
    "forcing_mode": enum_of("cos_t", "quasiperiodic"),
    "forcing_alpha0": _real, "forcing_betas": _floats(4), "forcing_omegas": _floats(4),
    "forcing_phases": _floats(4), "forcing_mu": _real, "forcing_eps": _real,
    "forcing_abc": _floats(3), "forcing_abc_state": _floats(3),
    # envelope models
    "eps": _real, "mu": _real, "kcut": int, "gamma": _real,
    "omega": _real, "alpha": _real, "beta": _real, "n_modes": int, "q0": _q0,
    # angle model
    "abc": _floats(3), "theta0": _floats(3),
}


def _field_defaults(cls, prefix: str = "") -> dict:
    """Defaults of the dataclass fields of cls that are keys, as prefix + name."""
    fields = dataclasses.fields(cls)
    return {prefix + f.name: f.default for f in fields if prefix + f.name in _SIM_STATE_SCHEMA}


# the model parameters default as their dataclasses do; the rest are CLI-only
_SIM_STATE_DEFAULTS = {
    **_field_defaults(ForcingSpec, "forcing_"), **_field_defaults(SGParams), **_field_defaults(GLParams),
    "dt": 0.01, "u0": 0.0, "v0": 0.0, "kick": (), "q0": "limit-cycle", "abc": (1.0, 1.0, 1.0),
    "theta0": ABC_THETA0,
    "forcing_eps": None,  # None: the model's eps (_build_forcing)
    "kcut": 0,  # 0: max(1, n_modes // 2) (_build_state)
}

COMMANDS = {}


def _register(name, help, schema, defaults, formats, run):
    COMMANDS[name] = Command(name, help, schema, defaults, formats, run)


_register(
    "spectrum",
    "eigenvalues of one invariant-class suboperator",
    {"k1": int, "k2": int, "alpha": _real, "gamma": _real, "nu": _real, "trunc": int},
    {"alpha": 0.7, "gamma": 0.5, "trunc": 64},
    ("csv", "jsonl"),
    _run_spectrum,
)

_register(
    "nustar",
    "critical viscosity where the first unstable class restabilizes",
    {"alpha": _real, "gamma": _real, "trunc": int, "tol": _real},
    {"alpha": 0.7, "gamma": 0.5, "trunc": 100, "tol": 1e-6},
    ("jsonl",),
    _run_nustar,
)

_register(
    "zvtrack",
    "eigenvalue trajectories along a descending viscosity schedule",
    {
        "k1": int, "k2": int, "alpha": _real, "gamma": _real, "trunc": int,
        "nu_max": _real, "nu_min": _real, "n_nus": int, "tol": _real,
    },
    {
        "k1": 1, "k2": 0, "alpha": 0.7, "gamma": 0.5, "trunc": 64,
        "nu_max": 0.1, "nu_min": 1e-4, "n_nus": 25, "tol": 0.02,
    },
    ("jsonl",),
    _run_zvtrack,
)

_register(
    "laxcheck",
    "transported-eigenfield residual of the vorticity pair",
    {
        "dim": enum_of("2", "3"), "grid": int, "dt": _real, "t_end": _real,
        "kmax": int, "amp_omega": _real, "amp_phi": _real, "amp_u": _real,
        "alpha": _real, "mode": enum_of("curl", "free"), "control": _bool,
    },
    {
        "dim": "2", "grid": 0, "dt": 1e-3, "t_end": 1.0, "kmax": 4,
        "amp_omega": 0.1, "amp_phi": 5.0, "amp_u": 0.2, "alpha": 1.0,
        "mode": "curl", "control": False,
    },
    ("jsonl",),
    _run_laxcheck,
)

_register(
    "darboux",
    "gauge transform of a shear eigenfunction pair",
    {"omega": str, "p": str, "f": str, "bigf": str, "eta": _real, "nx": int, "ny": int},
    {"omega": None, "p": None, "f": None, "bigf": None, "eta": 1e-3, "nx": 128, "ny": 8},
    ("jsonl",),
    _run_darboux,
)

_register(
    "simulate",
    "time integration of the wave / envelope / angle models",
    {**_SIM_STATE_SCHEMA, "t_end": _real, "sample_every": int},
    {**_SIM_STATE_DEFAULTS, "t_end": 10.0, "sample_every": 10},
    ("jsonl",),
    _run_simulate,
)

_register(
    "poincare",
    "strobe or section samples of a trajectory",
    {**_SIM_STATE_SCHEMA, "iterates": int, "period": _real},
    {**_SIM_STATE_DEFAULTS, "iterates": 20, "period": None},
    ("csv", "jsonl"),
    _run_poincare,
)

_register(
    "lyapunov",
    "largest Lyapunov exponent by two-orbit renormalization",
    {**_SIM_STATE_SCHEMA, "t_end": _real, "renorm_dt": _real, "d0": _real},
    {**_SIM_STATE_DEFAULTS, "t_end": 1000.0, "renorm_dt": 0.5, "d0": 1e-8},
    ("csv", "jsonl"),
    _run_lyapunov,
)


# ---------------------------------------------------------------------------
# argument plumbing


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nel", description="numerical laboratory for shear spectra and wave chaos"
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"nel {__version__} (output schema {SCHEMA_VERSION}, config schema {CONFIG_SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    for cmd in COMMANDS.values():
        sp = sub.add_parser(cmd.name, help=cmd.help)
        for key in cmd.schema:
            sp.add_argument("--" + key.replace("_", "-"), dest=key, default=None, metavar="V")
        sp.add_argument("--config", default=None, help="flat key = value file; flags win")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", choices=("csv", "jsonl"), default=None)
    return parser


def _collect(args, cmd: Command):
    """Merge config-file and flag values into one raw dict plus line map."""
    raw, lines = {}, {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_raw, file_lines = parse_config_lines(fh.read())
        raw.update(file_raw)
        lines.update(file_lines)
    for key in cmd.schema:
        val = getattr(args, key)
        if val is not None:
            raw[key] = val
            lines.pop(key, None)  # flag value: no config line to blame
    return raw, lines


def _execute(args) -> int:
    cmd = COMMANDS[args.command]
    raw, lines = _collect(args, cmd)
    typed = coerce_params(raw, cmd.schema, lines)
    missing = sorted(cmd.schema.keys() - cmd.defaults.keys() - typed.keys())
    if missing:
        raise ValidationError(f"missing required parameters: {', '.join(missing)}")
    merged = {**cmd.defaults, **typed}
    merged["_provided"] = frozenset(typed)
    fmt = args.format or cmd.formats[0]
    if fmt not in cmd.formats:
        raise ValidationError(f"{cmd.name} writes {'/'.join(cmd.formats)} output, not {fmt}")
    cfg = RunConfig(command=cmd.name, params=_echo(merged), seed=args.seed, out=args.out, fmt=fmt)
    t0 = time.perf_counter()
    payload, summary, echo = cmd.run(merged, cfg)
    if echo is not None:
        cfg = dataclasses.replace(cfg, params=echo)
    write_result(cfg, payload, time.perf_counter() - t0, summary)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _execute(args)
    except ValidationError as exc:
        print(f"nel: error: {exc}", file=sys.stderr)
        return 2
    except ComputationalError as exc:
        print(f"nel: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"nel: i/o failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
