"""Per-layer probes for the traced run.

Every traced run, whatever its workload, makes the same fixed set of calls
into each layer's public functions, each under a span, and reduces the
span durations to the per-layer metrics named in BENCHMARK.json.  The
calls and their inputs are the same on every workload, so a per-layer
metric means the same thing wherever it is reported.  The CLI metrics
come from one rotation of traced CLI processes, the same children the
traced ``cli_sessions`` ops spawn.  The in-process calibration kernel
runs at least every quarter second between calls, and every duration,
the CLI ones included, is put on its reference-speed scale (see
``speed.py``).
"""

from __future__ import annotations

import statistics
import sys

import numpy as np

import photoevap as pe
import workloads as wl
from spans import Span
from speed import Calibration

ANGMOM_ARGS = (0, 0.5, 2, 1.5, 0.5, 2)  # a Z coefficient: one CG and one 6j inside
REPS = 10  # repeat factor; medians over REPS * n calls


def _median(spans: list[Span], name: str, cal: Calibration, unit: float) -> float:
    """Median duration of the named spans at reference speed, in ``unit`` seconds."""
    values = [(s.end - s.start) * cal.factor(s.start) for s in spans if s.name == name]
    if not values:
        raise RuntimeError(f"no {name} spans to measure")
    return statistics.median(values) / unit


def run(ctx: wl.Context, tracer) -> dict[str, float]:
    """Make the probe calls under ``tracer``; return the per-layer metrics."""
    call = tracer.call
    cal = Calibration()
    cal.sample()

    def tick():
        if cal.due():
            cal.sample()

    sigmas = iter(np.random.default_rng([ctx.seed, 3]).uniform(0.5, 4.0, 100) + 1e-9)

    def new_config():
        return pe.ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=float(next(sigmas)))

    # angmom: one coefficient, after clear_caches() and then cached
    for _ in range(20 * REPS):
        pe.clear_caches()
        call("angmom.coeff_miss", pe.z_coeff, *ANGMOM_ARGS)
        tick()
    for _ in range(200 * REPS):
        call("angmom.coeff_hit", pe.z_coeff, *ANGMOM_ARGS)
        tick()

    # xsection: term build for unseen configs, then one model point
    for _ in range(REPS // 2):
        pe.clear_caches()
        call("xsection.enumerate_terms_cold", pe.enumerate_terms, new_config())
        call("xsection.enumerate_terms_new_config", pe.enumerate_terms, new_config())
        tick()
    params = pe.ShapeParams(A=0.082, B=0.47, C=0.37, r=0.11)
    for _ in range(50 * REPS):
        series = call("xsection.legendre_coefficients", pe.legendre_coefficients, params)
        call("xsection.evaluate", series.evaluate, wl.MODEL_GRID)
        call("xsection.asymmetry", pe.asymmetry, params)
        tick()

    # fitkit: one criterion-5 fit per (bin count, truth) case
    fits = []
    for i in range(len(wl.BIN_COUNTS) * len(wl.TRUTH_R)):
        k, truth = wl.fit_case(i)
        data = pe.synth_dataset(truth, wl.NORMS[:k], wl.THETAS, wl.NOISE_FRAC, [ctx.seed, 10**6 + i])
        fits.append(call(f"fitkit.fit_angular.k{k}", pe.fit_angular, data, n_starts=wl.FIT_STARTS, tol=wl.FIT_TOL))
        cal.sample()
    k3 = pe.synth_dataset(params, wl.NORMS[:3], wl.THETAS, wl.NOISE_FRAC, [ctx.seed, 4])
    for i in range(20 * REPS):
        call("fitkit.synth_dataset", pe.synth_dataset, params, wl.NORMS[:3], wl.THETAS, wl.NOISE_FRAC, i)
        call("fitkit.chi_square", pe.chi_square, params, wl.NORMS[:3], k3)
        call("fitkit.read_angular_csv", pe.read_angular_csv, ctx.root / wl.SAMPLE_ANGULAR)
        tick()

    # thermo: the sample spectrum, scaled in closed form and by quadrature
    nucleus = pe.NucleusSpec(208, 82)
    points = pe.read_spectrum_csv(ctx.root / wl.SAMPLE_SPECTRUM)
    for _ in range(5 * REPS):
        scaled = call("thermo.scale_l0", pe.scale_spectrum, points, nucleus, l=0)
        tick()
    for _ in range(2 * REPS):
        call("thermo.scale_l2", pe.scale_spectrum, points, nucleus, l=2)
        tick()
    for _ in range(50 * REPS):
        call("thermo.fit_temperature", pe.fit_temperature, scaled, wl.EPS_MAX)
        call("thermo.exciton_report", pe.exciton_report, 208, 6.3)
        call("thermo.timescales", pe.timescales, 0.11, *wl.WIDTHS)
        call("thermo.read_spectrum_csv", pe.read_spectrum_csv, ctx.root / wl.SAMPLE_SPECTRUM)
        tick()

    # cli: bare interpreter, then one rotation of traced CLI processes
    for _ in range(REPS // 2):
        _, start, end = wl.run_child([sys.executable, "-c", "pass"], ctx)
        tracer.add("cli.python_start", start, end)
        cal.sample()
    sessions = wl.CliSessions(ctx)
    for i in range(len(wl.CLI_ROTATION)):
        entry, _, child, _ = sessions.run_op(i, tracer)
        if child.returncode != 0:
            raise RuntimeError(f"probe CLI process {entry} exited {child.returncode}: {child.stderr[-300:]}")
        cal.sample()

    spans = tracer.finished()
    starts = len(fits) * wl.FIT_STARTS
    fit_total = sum(
        (s.end - s.start) * cal.factor(s.start) for s in spans if s.name.startswith("fitkit.fit_angular.k")
    )
    ms, us = 1e-3, 1e-6
    process = [(s.end - s.start) * cal.factor(s.start) for s in spans if s.name.startswith("cli.process.")]
    return {
        "cli.python_start_ms": _median(spans, "cli.python_start", cal, ms),
        "cli.import_ms": _median(spans, "cli.import", cal, ms),
        **{f"cli.main_ms.{e}": _median(spans, f"cli.main.{e}", cal, ms) for e in wl.CLI_ROTATION},
        "cli.process_ms": statistics.median(process) / ms,
        "angmom.coeff_miss_us": _median(spans, "angmom.coeff_miss", cal, us),
        "angmom.coeff_hit_us": _median(spans, "angmom.coeff_hit", cal, us),
        "xsection.enumerate_terms_cold_ms": _median(spans, "xsection.enumerate_terms_cold", cal, ms),
        "xsection.enumerate_terms_new_config_ms": _median(spans, "xsection.enumerate_terms_new_config", cal, ms),
        "xsection.legendre_coefficients_us": _median(spans, "xsection.legendre_coefficients", cal, us),
        "xsection.evaluate_us": _median(spans, "xsection.evaluate", cal, us),
        "xsection.asymmetry_us": _median(spans, "xsection.asymmetry", cal, us),
        "xsection.term_count": float(len(pe.enumerate_terms())),
        **{f"fitkit.fit_angular_ms.k{k}": _median(spans, f"fitkit.fit_angular.k{k}", cal, ms) for k in wl.BIN_COUNTS},
        "fitkit.ms_per_start": fit_total / starts / ms,
        "fitkit.start_yield": sum(f.n_starts_agreeing for f in fits) / starts,
        "fitkit.converged_frac": sum(f.converged for f in fits) / len(fits),
        "fitkit.identifiable_frac": sum(f.identifiable for f in fits) / len(fits),
        "fitkit.synth_dataset_us": _median(spans, "fitkit.synth_dataset", cal, us),
        "fitkit.chi_square_us": _median(spans, "fitkit.chi_square", cal, us),
        "fitkit.read_angular_csv_us": _median(spans, "fitkit.read_angular_csv", cal, us),
        "thermo.scale_l0_ms": _median(spans, "thermo.scale_l0", cal, ms),
        "thermo.scale_l2_ms": _median(spans, "thermo.scale_l2", cal, ms),
        "thermo.fit_temperature_us": _median(spans, "thermo.fit_temperature", cal, us),
        "thermo.exciton_report_us": _median(spans, "thermo.exciton_report", cal, us),
        "thermo.timescales_us": _median(spans, "thermo.timescales", cal, us),
        "thermo.read_spectrum_csv_us": _median(spans, "thermo.read_spectrum_csv", cal, us),
    }
