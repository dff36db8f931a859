"""nel's layer boundaries, as the traced sessions see them from outside.

``install`` wraps module-level functions after ``import nel.cli`` and before
the first job: it rebinds each wrapped function in every ``nel`` module that
holds it (``cli`` imports most of them by name), and wraps the FFT functions
of ``numpy.fft`` and ``scipy.fft``.  No file of the program is changed.  A
boundary that a later version of nel removes is skipped, and its metrics
read 0.

``per_layer`` turns span totals and counts into the benchmark's per-layer
metrics.  Each layer should move these command times (per-layer metrics
taken from the untraced sessions), and through them ``wall_s`` of the named
workload; the first job of a session also feeds ``first_result_s``:

===========  =======================================  =======================
layer        metrics                                  moves -> on
===========  =======================================  =======================
start-up     startup.numpy_s, scipy_s, nel_s          setup_s, first_result_s
                                                      -> every workload
transform    transform.fftnd_*                        laxcheck_s, darboux_s
                                                      -> transport
             transform.fft1d_*                        simulate_s, poincare_s,
                                                      lyapunov_s -> chaos
fields       fields.bracket_*                         laxcheck_s, darboux_s
                                                      -> transport
fields3d     fields3d.advect_*, biot_savart_calls     laxcheck_s -> transport
lax          lax.rk4_*                                laxcheck_s -> transport
spectra      spectra.eig_*, assemble_s, assign_*      nustar_s, zvtrack_s,
                                                      spectrum_s -> spectra
models       models.steps, step_s, nonlinear_*        simulate_s, poincare_s,
                                                      lyapunov_s -> chaos
forcing      forcing.abc_s                            lyapunov_s -> chaos
diagnostics  diagnostics.*                            poincare_s, lyapunov_s
                                                      -> chaos
runio        runio.*                                  simulate_s -> chaos
===========  =======================================  =======================

Times are self time: a span's duration minus that of the spans nested in it,
summed over threads, so a layer that zvtrack's pool runs on two threads at
once can take more than the wall time.  The diagnostics outer loops include
the angle flow's own two-orbit loop, ``forcing.abc_lyapunov``.
"""

from __future__ import annotations

import sys

FFT_ND = ("fft2", "ifft2", "fftn", "ifftn", "rfft2", "irfft2", "rfftn", "irfftn")
FFT_1D = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")

# (module, function, span name): one span per call
SPANS = (
    ("nel.fields", "bracket_core", "fields.bracket"),
    ("nel.fields3d", "advect_3d", "fields3d.advect"),
    ("nel.fields3d", "biot_savart_3d", "fields3d.biot_savart"),
    ("nel.lax", "_rk4", "lax.rk4"),
    ("nel.spectra", "assemble_suboperator", "spectra.assemble"),
    ("nel.spectra", "linear_sum_assignment", "spectra.assign"),
    ("nel.models", "gl_step", "models.step"),
    ("nel.models", "sg_step", "models.step"),
    ("nel.models", "_gl_nonlinear", "models.nonlinear"),
    ("nel.models", "_sg_nonlinear", "models.nonlinear"),
    ("nel.forcing", "_advance", "forcing.abc"),
    ("nel.diagnostics", "_strobe_samples", "diagnostics.strobe"),
    ("nel.runio", "json_payload_line", "runio.format"),
    ("nel.runio", "csv_line", "runio.format"),
)

# span names whose self time is the outer-loop time of the diagnostics layer
LOOP_SPANS = (
    "diagnostics.strobe",
    "diagnostics.section",
    "diagnostics.lyapunov",
    "diagnostics.abc_lyapunov",
)


def _rebind(original, replacement) -> None:
    """Point every nel-module binding of ``original`` at ``replacement``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "nel" or name.startswith("nel.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _patch(tracer, owner, func: str, span: str, after=None) -> None:
    """Wrap ``owner.func`` (a module attribute) as a span, wherever nel binds it."""
    original = getattr(owner, func, None)
    if original is None:
        return
    wrapped = tracer.wrap(span, original, after)
    setattr(owner, func, wrapped)
    _rebind(original, wrapped)


def _wrap_fft(tracer, lib) -> None:
    def note_nd(args, kwargs, out):
        a = args[0]
        tracer.count("fftnd.points", max(a.size, out.size))
        tracer.count("fftnd.bytes", a.nbytes + out.nbytes)

    for func in FFT_ND:
        _patch(tracer, lib, func, "transform.fftnd", note_nd)
    for func in FFT_1D:
        _patch(tracer, lib, func, "transform.fft1d")


def install(tracer) -> None:
    """Wrap nel's layer boundaries; call after ``import nel.cli``.

    Both FFT libraries are wrapped, so a program that moves from
    ``numpy.fft`` to ``scipy.fft`` keeps being counted.
    """
    import nel.diagnostics
    import nel.forcing
    import nel.runio
    import nel.spectra
    import numpy.fft
    import scipy.fft

    _wrap_fft(tracer, numpy.fft)
    _wrap_fft(tracer, scipy.fft)
    for module, func, span in SPANS:
        _patch(tracer, sys.modules[module], func, span)

    def note_eig(args, kwargs, spectrum):
        n = len(spectrum.values)
        tracer.count("spectra.eig_flop", 10 * n**3)  # dense nonsymmetric QR model

    _patch(tracer, nel.spectra, "compute_spectrum", "spectra.eig", note_eig)

    def note_write(args, kwargs, _):
        payload = args[1]  # the header carries a timing, so only payload bytes repeat
        tracer.count("runio.records", len(payload))
        tracer.count("runio.bytes", sum(len(line.encode()) + 1 for line in payload))

    _patch(tracer, nel.runio, "write_result", "runio.write", note_write)

    def note_series(args, kwargs, result):
        tracer.count("diagnostics.renorm_windows", len(result.series))

    _patch(tracer, nel.diagnostics, "lyapunov_max", "diagnostics.lyapunov", note_series)
    _patch(tracer, nel.forcing, "abc_lyapunov", "diagnostics.abc_lyapunov", note_series)

    if hasattr(nel.diagnostics, "_section_samples"):
        _count_bisection(tracer, nel.diagnostics)


def _count_bisection(tracer, diagnostics) -> None:
    """Count section hits, and the model steps spent bisecting to them.

    A section search steps at the run's dt along the orbit and at other
    step sizes while it bisects a crossing and lands on the hit.
    """
    section_dt = [None]
    section = tracer.wrap(
        "diagnostics.section",
        diagnostics._section_samples,
        lambda a, k, res: tracer.count("diagnostics.section_hits", len(res.samples)),
    )

    def section_samples(state0, n_iterates, dt):
        section_dt[0] = dt
        try:
            return section(state0, n_iterates, dt)
        finally:
            section_dt[0] = None

    diagnostics._section_samples = section_samples
    step = diagnostics.model_step

    def model_step(state, dt):
        if section_dt[0] is not None and dt != section_dt[0]:
            tracer.count("diagnostics.bisect_steps")
        return step(state, dt)

    diagnostics.model_step = model_step


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(totals: dict, counts: dict, nustar_eigs: int, nustar_jobs: int) -> dict:
    """Per-layer metrics (name -> (value, unit)) of one traced session.

    ``totals`` maps span name -> (spans, self seconds); ``counts`` holds
    the counters ``install`` keeps.
    """

    def n(span):
        return totals.get(span, (0, 0.0))[0]

    def s(*spans):
        return sum(totals.get(sp, (0, 0.0))[1] for sp in spans)

    hits = counts.get("diagnostics.section_hits", 0)
    return {
        "transform.fftnd_calls": (n("transform.fftnd"), "count"),
        "transform.fftnd_s": (s("transform.fftnd"), "s"),
        "transform.fftnd_points": (counts.get("fftnd.points", 0), "count"),
        "transform.fftnd_bytes_computed": (counts.get("fftnd.bytes", 0), "B"),
        "transform.fft1d_calls": (n("transform.fft1d"), "count"),
        "transform.fft1d_s": (s("transform.fft1d"), "s"),
        "transform.fft1d_us_per_call": (1e6 * _ratio(s("transform.fft1d"), n("transform.fft1d")), "us"),
        "fields.bracket_calls": (n("fields.bracket"), "count"),
        "fields.bracket_s": (s("fields.bracket"), "s"),
        "fields3d.advect_calls": (n("fields3d.advect"), "count"),
        "fields3d.advect_s": (s("fields3d.advect"), "s"),
        "fields3d.biot_savart_calls": (n("fields3d.biot_savart"), "count"),
        "lax.rk4_steps": (n("lax.rk4"), "count"),
        "lax.rk4_s": (s("lax.rk4"), "s"),
        "spectra.eig_calls": (n("spectra.eig"), "count"),
        "spectra.eig_s": (s("spectra.eig"), "s"),
        "spectra.eig_gflop_computed": (counts.get("spectra.eig_flop", 0) / 1e9, "GFLOP"),
        "spectra.assemble_s": (s("spectra.assemble"), "s"),
        "spectra.assign_calls": (n("spectra.assign"), "count"),
        "spectra.assign_s": (s("spectra.assign"), "s"),
        "spectra.eig_per_nustar": (_ratio(nustar_eigs, nustar_jobs), "ratio"),
        "models.steps": (n("models.step"), "count"),
        "models.step_s": (s("models.step"), "s"),
        "models.nonlinear_calls": (n("models.nonlinear"), "count"),
        "models.nonlinear_s": (s("models.nonlinear"), "s"),
        "forcing.abc_s": (s("forcing.abc"), "s"),
        "diagnostics.section_hits": (hits, "count"),
        "diagnostics.bisect_steps_per_hit": (_ratio(counts.get("diagnostics.bisect_steps", 0), hits), "ratio"),
        "diagnostics.renorm_windows": (counts.get("diagnostics.renorm_windows", 0), "count"),
        "diagnostics.self_s": (s(*LOOP_SPANS), "s"),
        "runio.records": (counts.get("runio.records", 0), "count"),
        "runio.bytes": (counts.get("runio.bytes", 0), "B"),
        "runio.format_s": (s("runio.format"), "s"),
        "runio.write_s": (s("runio.write"), "s"),
    }
