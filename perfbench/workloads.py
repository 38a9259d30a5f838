"""The four benchmark workloads.

Each workload is a closed loop with one client: op ``i`` starts only after
op ``i - 1`` has finished.  Its inputs are a function of the workload
seed and ``i`` alone.  ``run_op`` is the timed part (input generation
plus the calls into photoevap, each made through ``tracer.call`` so the
traced mode can put a span around it); ``check`` verifies the result
outside the timed part and returns the failed checks as
``(check_id, detail)`` pairs.

Every run makes at least the workload's first ``scored_ops`` ops, however
slow the machine; ``r_coverage``, ``t_containment`` and ``peak_rss_mb``
are taken over exactly those ops, so they do not follow the machine's
speed.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import photoevap as pe
import speed
from spans import NoTracer

CHILD_TIMEOUT_S = 150.0


@dataclass
class Context:
    root: Path
    src: Path
    out_dir: Path
    seed: int
    child_env: dict = field(default_factory=dict)


def run_child(argv, ctx: Context, pass_fds=()) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run argv from the checkout root; return the finished process and
    its start and end times."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ctx.root, env=ctx.child_env, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, pass_fds=pass_fds,
    )
    return proc, start, time.perf_counter()


def close(a, b, rel=1e-12, abs_tol=0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


class Workload:
    name = ""
    group = 1  # ops run in whole groups of this size, each with the same mix
    scored_ops = 1  # every run makes at least these ops; see the module docstring
    known_defects: dict[str, str] = {}

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        """Warm-up: let caches fill and lazy set-up finish."""

    def run_op(self, i: int, tracer):
        raise NotImplementedError

    def check(self, i: int, result) -> list[tuple[str, str]]:
        return []

    def deferred_checks(self) -> dict[int, list[tuple[str, str]]]:
        """Checks that need reference results computed after the loop."""
        return {}

    def quality(self) -> list[tuple[str, float, str, str]]:
        """(name, value, unit, note) lines about result quality."""
        return []

    def calibration(self) -> speed.Calibration:
        return speed.Calibration()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# fit_study: criterion-5 style noisy fits, the slowest real job


THETAS = np.linspace(30.0, 150.0, 10)
REFERENCE = dict(A=0.082, B=0.47, C=0.37)
TRUTH_R = (0.11, 0.0, 1.0)
BIN_COUNTS = (1, 3, 6)
NORMS = (1200.0, 950.0, 610.0, 1500.0, 800.0, 1100.0)
FIT_STARTS = 6
FIT_TOL = 1e-10
NOISE_FRAC = 0.05
WIDTHS = (0.1, 2.0, 1e-16)  # gamma_cn [eV], spreading width and spacing [MeV]
COVERAGE_FITS = 90  # r_coverage uses the first 90 fits, which every run makes
# documented optimiser box of fitkit: A, B, C in [1e-6, 1e4], r in [0, 1e4]
SHAPE_LO, SHAPE_HI, R_HI, NORM_LOG_BOUND = 1e-6, 1e4, 1e4, 40.0


def fit_case(i: int) -> tuple[int, pe.ShapeParams]:
    """Bin count cycles fastest, then the truth point: 9 cases in all."""
    k = BIN_COUNTS[i % len(BIN_COUNTS)]
    r = TRUTH_R[(i // len(BIN_COUNTS)) % len(TRUTH_R)]
    return k, pe.ShapeParams(r=r, **REFERENCE)


def check_fit(fit, k: int, n_starts: int) -> list[tuple[str, str]]:
    """Finite, in-bounds, self-consistent FitResult for k bins of 10 angles."""
    bad = []
    p = fit.params
    if not (finite(fit.chi2) and fit.chi2 >= 0):
        bad.append(("fit.chi2", f"chi2 {fit.chi2!r}"))
    if fit.dof != 10 * k - 4 - k:
        bad.append(("fit.dof", f"dof {fit.dof} for {k} bins"))
    lo, hi = SHAPE_LO * (1 - 1e-9), SHAPE_HI * (1 + 1e-9)
    if not all(finite(v) and lo <= v <= hi for v in (p.A, p.B, p.C)):
        bad.append(("fit.bounds", f"A, B, C = {p.A!r}, {p.B!r}, {p.C!r}"))
    if not (finite(p.r) and 0.0 <= p.r <= R_HI * (1 + 1e-9)):
        bad.append(("fit.bounds", f"r = {p.r!r}"))
    norms = np.asarray(fit.norms)
    if len(norms) != k or not (
        np.all(norms > 0) and np.all(np.abs(np.log(norms)) <= NORM_LOG_BOUND + 1e-9)
    ):
        bad.append(("fit.norms", f"norms {fit.norms!r}"))
    cov = np.asarray(fit.covariance)
    if cov.shape != (4 + k, 4 + k) or not np.all(np.isfinite(cov)):
        bad.append(("fit.covariance", f"shape {cov.shape} or non-finite entries"))
    else:
        asym = float(np.max(np.abs(cov - cov.T)))
        if asym > 1e-9 * float(np.max(np.abs(cov))):
            bad.append(("fit.covariance", f"asymmetric by {asym:g}"))
        if not np.all(np.diag(cov) > 0):
            bad.append(("fit.covariance", "non-positive variance"))
    if not 1 <= fit.n_starts_agreeing <= n_starts:
        bad.append(("fit.starts", f"n_starts_agreeing {fit.n_starts_agreeing}"))
    return bad


class FitStudy(Workload):
    name = "fit_study"
    group = len(BIN_COUNTS) * len(TRUTH_R)
    scored_ops = COVERAGE_FITS

    def __init__(self, ctx):
        super().__init__(ctx)
        self.covered: dict[int, bool] = {}

    def setup(self):
        k, truth = fit_case(1)
        data = pe.synth_dataset(truth, NORMS[:k], THETAS, NOISE_FRAC, [self.ctx.seed, 1 << 30])
        pe.fit_angular(data, n_starts=FIT_STARTS, tol=FIT_TOL)

    def run_op(self, i, tracer):
        k, truth = fit_case(i)
        data = tracer.call(
            "fitkit.synth_dataset", pe.synth_dataset,
            truth, NORMS[:k], THETAS, NOISE_FRAC, [self.ctx.seed, i],
        )
        fit = tracer.call(
            "fitkit.fit_angular", pe.fit_angular, data, n_starts=FIT_STARTS, tol=FIT_TOL
        )
        u = tracer.call("xsection.asymmetry", pe.asymmetry, fit.params)
        times = tracer.call("thermo.timescales", pe.timescales, fit.params.r, *WIDTHS)
        return truth, data, fit, u, times

    def check(self, i, result):
        truth, data, fit, u, times = result
        k = len(data)
        bad = check_fit(fit, k, FIT_STARTS)
        if bad:
            return bad
        chi2 = pe.chi_square(fit.params, fit.norms, data)
        if not close(chi2, fit.chi2, rel=1e-8, abs_tol=1e-9):
            bad.append(("fit.chi2_recomputed", f"{chi2!r} vs reported {fit.chi2!r}"))
        if not (finite(u) and u > 0):
            bad.append(("asymmetry", f"U = {u!r}"))
        if not close(times.beta, fit.params.r * WIDTHS[0]) or (
            math.isinf(times.tau_phase) != (fit.params.r == 0.0)
        ):
            bad.append(("timescales", f"beta {times.beta!r} tau_phase {times.tau_phase!r}"))
        if i < COVERAGE_FITS:
            sigma = math.sqrt(fit.covariance[3, 3])
            self.covered[i] = abs(math.log1p(fit.params.r) - math.log1p(truth.r)) <= sigma
        return bad

    def quality(self):
        n = len(self.covered)
        value = sum(self.covered.values()) / n if n else float("nan")
        return [("r_coverage", value, "frac", f"1-sigma coverage of log1p(r) over {n} of the first {COVERAGE_FITS} fits")]


# --------------------------------------------------------------------------
# model_scan: the public xsection path, with a share of unseen configs


MODEL_GRID = np.deg2rad(np.linspace(0.0, 180.0, 37))
MODEL_CONFIGS = (
    ("equal", pe.ChannelConfig(), False),
    ("2I+1", pe.ChannelConfig(residual_weighting="2I+1"), False),
    ("spin-cutoff", pe.ChannelConfig(residual_weighting="spin-cutoff"), False),
    ("huby", pe.ChannelConfig(), True),
)
NEW_SIGMA_EVERY = 64  # op 63, 127, ... uses a spin-cutoff sigma never seen before
NEW_SIGMAS_SCORED = 128  # peak_rss_mb is read after this many unseen configs
MODEL_POINTS = 4096


def model_params(u) -> pe.ShapeParams:
    """Unit-cube point -> log-uniform A in [0.01, 1], B and C in [0.05, 2],
    and log(1 + r) uniform in [0, log 11]."""
    return pe.ShapeParams(
        A=math.exp(math.log(0.01) + u[0] * math.log(100.0)),
        B=math.exp(math.log(0.05) + u[1] * math.log(40.0)),
        C=math.exp(math.log(0.05) + u[2] * math.log(40.0)),
        r=math.expm1(u[3] * math.log(11.0)),
    )


class ModelScan(Workload):
    name = "model_scan"
    group = NEW_SIGMA_EVERY
    scored_ops = NEW_SIGMA_EVERY * NEW_SIGMAS_SCORED

    def __init__(self, ctx):
        super().__init__(ctx)
        rng = np.random.default_rng([ctx.seed, 1])
        self.points = rng.random((MODEL_POINTS, 4))
        self.sigma_rng = np.random.default_rng([ctx.seed, 2])
        self.sigmas_used: set[float] = set()

    def new_sigma(self) -> float:
        while True:
            sigma = float(0.5 + 3.5 * self.sigma_rng.random())
            if sigma not in self.sigmas_used and sigma != 2.0:
                self.sigmas_used.add(sigma)
                return sigma

    def setup(self):
        params = model_params(self.points[0])
        for _, config, huby in MODEL_CONFIGS:
            pe.forward_backward_ratio(pe.legendre_coefficients(params, config, huby_phase=huby))

    def run_op(self, i, tracer):
        label, config, huby = MODEL_CONFIGS[i % len(MODEL_CONFIGS)]
        if i % NEW_SIGMA_EVERY == NEW_SIGMA_EVERY - 1:
            config = pe.ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=self.new_sigma())
            label, huby = "new-sigma", False
        params = model_params(self.points[i % MODEL_POINTS])
        series = tracer.call(
            "xsection.legendre_coefficients", pe.legendre_coefficients, params, config, huby_phase=huby
        )
        values = tracer.call("xsection.evaluate", series.evaluate, MODEL_GRID)
        if huby:  # asymmetry() has no audit-phase switch
            u = tracer.call("xsection.forward_backward_ratio", pe.forward_backward_ratio, series)
        else:
            u = tracer.call("xsection.asymmetry", pe.asymmetry, params, config)
        return label, series, values, u

    def check(self, i, result):
        label, series, values, u = result
        c = series.coefficients
        bad = []
        if len(c) != 5 or c[0] != 1.0 or not finite(*c, series.scale) or series.scale <= 0:
            bad.append(("model.coefficients", f"{label}: {c!r} scale {series.scale!r}"))
            return bad
        reference = np.polynomial.legendre.legval(np.cos(MODEL_GRID), c)
        err = float(np.max(np.abs(values - reference)))
        if not err <= 1e-12 * sum(abs(x) for x in c):
            bad.append(("model.evaluate", f"{label}: off the Legendre sum by {err:g}"))
        if not (finite(u) and u > 0):
            bad.append(("model.asymmetry", f"{label}: U = {u!r}"))
        elif label != "huby" and not close(u, pe.forward_backward_ratio(series)):
            bad.append(("model.asymmetry", f"{label}: U = {u!r} disagrees with its series"))
        return bad


# --------------------------------------------------------------------------
# spectrum_scan: thermometry, closed-form l = 0 beside quadrature l = 2


NUCLEI = ((208, 82), (120, 50), (60, 28))  # residual (A, Z)
TEMPERATURES = (0.55, 0.8, 1.1)  # MeV
SPECTRUM_EPS = np.arange(2.0, 8.01, 0.25)
EPS_MAX = 8.0
LOG_NOISE = 0.03  # log-normal noise keeps every count positive
CONTAINMENT_OPS = 200  # t_containment uses the first 200 ops (400 fits), which every run makes


def spectrum_case(i: int) -> tuple[pe.NucleusSpec, float]:
    a, z = NUCLEI[i % len(NUCLEI)]
    return pe.NucleusSpec(a, z), TEMPERATURES[(i // len(NUCLEI)) % len(TEMPERATURES)]


def fermi_gas_excitation(mass_number: int, temperature: float) -> float:
    """E* = a T^2 with level-density parameter a = A / 8 per MeV."""
    return mass_number / 8.0 * temperature * temperature


class SpectrumScan(Workload):
    """One op analyses two spectra of one nucleus, one at l = 0 and one
    at l = 2, so every op has the same mix and the latency percentiles do
    not sit on the gap between a sub-millisecond and a 6 ms population."""

    name = "spectrum_scan"
    group = len(NUCLEI) * len(TEMPERATURES)
    scored_ops = CONTAINMENT_OPS

    def __init__(self, ctx):
        super().__init__(ctx)
        self.contained: dict[tuple[int, int], bool] = {}
        self.divisors: dict[tuple[int, int], np.ndarray] = {}

    def setup(self):
        for a, z in NUCLEI:
            nucleus = pe.NucleusSpec(a, z)
            for l in (0, 2):
                sigma = np.array([pe.inverse_capture_xsec(nucleus, l, e) for e in SPECTRUM_EPS])
                self.divisors[a, l] = SPECTRUM_EPS * sigma
        self.run_op(0, NoTracer())

    def spectrum(self, i: int, l: int, nucleus, temperature) -> list:
        shape = self.divisors[nucleus.mass_number, l] * np.exp(-SPECTRUM_EPS / temperature)
        rng = np.random.default_rng([self.ctx.seed, i, l])
        counts = 1e4 * shape / shape.max() * np.exp(LOG_NOISE * rng.standard_normal(shape.size))
        return [pe.SpectrumPoint(float(e), float(c), LOG_NOISE * float(c)) for e, c in zip(SPECTRUM_EPS, counts)]

    def run_op(self, i, tracer):
        nucleus, temperature = spectrum_case(i)
        out = []
        for l in (0, 2):
            points = self.spectrum(i, l, nucleus, temperature)
            scaled = tracer.call(f"thermo.scale_spectrum.l{l}", pe.scale_spectrum, points, nucleus, l=l)
            fit = tracer.call("thermo.fit_temperature", pe.fit_temperature, scaled, EPS_MAX)
            out.append((l, points, scaled, fit))
        t_hat = out[0][3].temperature
        e_star = fermi_gas_excitation(nucleus.mass_number, t_hat)
        report = tracer.call("thermo.exciton_report", pe.exciton_report, nucleus.mass_number, e_star)
        return nucleus, temperature, out, e_star, report

    def check(self, i, result):
        nucleus, temperature, out, e_star, report = result
        bad = []
        for l, points, scaled, fit in out:
            divisor = self.divisors[nucleus.mass_number, l]
            ratio = np.array([p.counts / s.counts for p, s in zip(points, scaled)])
            if len(scaled) != len(points) or not np.allclose(ratio, divisor, rtol=1e-12, atol=0):
                bad.append((f"spectrum.scale_l{l}", "divisor differs from eps * sigma_inv"))
            if fit.n_points != len(points) or not (
                finite(fit.temperature, fit.temperature_err) and fit.temperature > 0 and fit.temperature_err > 0
            ):
                bad.append((f"spectrum.fit_l{l}", f"T = {fit.temperature!r} +- {fit.temperature_err!r}"))
            elif i < CONTAINMENT_OPS:
                self.contained[i, l] = abs(fit.temperature - temperature) <= 3.0 * fit.temperature_err
        g = nucleus.mass_number / 13.0
        n_bar = math.sqrt(2.0 * g * e_star)
        if not (
            close(report.g, g) and close(report.n_bar, n_bar)
            and close(report.n_sigma, math.sqrt(n_bar / 2.0))
            and 0 < report.t_low < report.t_high and finite(report.t_high)
        ):
            bad.append(("spectrum.exciton", f"{report!r} at E* = {e_star!r}"))
        return bad

    def quality(self):
        n = len(self.contained)
        value = sum(self.contained.values()) / n if n else float("nan")
        return [("t_containment", value, "frac", f"|T_hat - T| <= 3 sigma over {n} of the first {2 * CONTAINMENT_OPS} fits")]


# --------------------------------------------------------------------------
# cli_sessions: fresh `python -m photoevap.cli` processes


SAMPLE_ANGULAR = "sample_data/angular_bi_gp.csv"
SAMPLE_SPECTRUM = "sample_data/spectrum_bi_gp.csv"
CLI_ROTATION = ("coeff", "model", "exciton", "times", "spectrum_l0", "spectrum_l2", "fit", "fit_2i1")
COEFF_CASES = (
    ("cg", ("0.5", "0.5", "0.5", "--", "-0.5", "1", "0")),
    ("w6j", ("1", "2", "3", "1", "2", "3")),
    ("racah", ("1", "1", "1", "1", "1", "1")),
    ("z", ("0", "0.5", "2", "1.5", "0.5", "2")),
)
TIMES_WIDTHS = ("0.1eV", "2MeV", "1e-16MeV")  # = WIDTHS

# The child of a traced op: same as `python -m photoevap.cli ARGS`, plus
# the import and main() spans, written to the file descriptor in argv[1].
CLI_WRAPPER = """\
import json, os, sys, time
t0 = time.perf_counter()
import photoevap.cli
t1 = time.perf_counter()
try:
    rc = photoevap.cli.main(sys.argv[2:])
finally:
    t2 = time.perf_counter()
    sys.stdout.flush()
    with os.fdopen(int(sys.argv[1]), "w") as spans:
        json.dump({"import": [t0, t1], "main": [t1, t2], "file": photoevap.__file__}, spans)
raise SystemExit(rc)
"""


def _reject_nan(token):
    if token == "NaN":
        raise ValueError("NaN in JSON output")
    return float(token)


def cli_args(entry: str, seed: int, i: int) -> list[str]:
    rng = np.random.default_rng([seed, i])
    if entry == "coeff":
        kind, values = COEFF_CASES[(seed + i // len(CLI_ROTATION)) % len(COEFF_CASES)]
        return ["coeff", kind, *values]
    if entry == "model":
        u = rng.random(4)
        p = model_params(u)
        return ["model", "-A", repr(p.A), "-B", repr(p.B), "-C", repr(p.C), "-r", repr(p.r)]
    if entry == "exciton":
        a = NUCLEI[int(rng.integers(len(NUCLEI)))][0]
        return ["exciton", "-A", str(a), "-E", repr(float(rng.uniform(5.0, 15.0)))]
    if entry == "times":
        r = float(rng.uniform(0.01, 5.0))
        return ["times", "-r", repr(r), "--gcn", TIMES_WIDTHS[0], "--gspr", TIMES_WIDTHS[1], "--D", TIMES_WIDTHS[2]]
    if entry in ("spectrum_l0", "spectrum_l2"):
        return ["spectrum", SAMPLE_SPECTRUM, "-A", "208", "-Z", "82", "--l", entry[-1]]
    if entry == "fit":
        return ["fit", SAMPLE_ANGULAR]
    return ["fit", SAMPLE_ANGULAR, "--weighting", "2I+1"]


def _option(args: list[str], flag: str) -> str:
    return args[args.index(flag) + 1]


class CliSessions(Workload):
    name = "cli_sessions"
    group = len(CLI_ROTATION)
    scored_ops = len(CLI_ROTATION)
    known_defects = {
        "fit_2i1.residual_table_chi2": (
            "fit --weighting 2I+1 builds its residual table without the fit's "
            "weighting, so the table's sum of squares is not the reported chi2"
        ),
    }

    def __init__(self, ctx):
        super().__init__(ctx)
        self.outputs: dict[int, tuple[str, list[str], object]] = {}

    def setup(self):
        probe, _, _ = run_child(
            [sys.executable, "-c",
             "import importlib.util as u; print(u.find_spec('photoevap').origin)"],
            self.ctx,
        )
        origin = Path(probe.stdout.strip()).resolve()
        if probe.returncode != 0 or self.ctx.src not in origin.parents:
            raise RuntimeError(f"CLI processes would import photoevap from {probe.stdout.strip()!r}")

    def calibration(self):
        return speed.Calibration(self.interpreter_start_s, speed.REF_INTERPRETER_S)

    def interpreter_start_s(self) -> float:
        """Median of six bare interpreter starts, in seconds.

        Single starts on the shared sandbox fall into two speed states
        (about 50 and 72 ms) even within one sample, so one or two starts
        misjudge the speed.  Over ten seeds, the median of six cut the
        spread of ``op_p50_ms`` from 0.098 to 0.064 against the faster of
        two."""
        times = []
        for _ in range(6):
            _, start, end = run_child([sys.executable, "-c", "pass"], self.ctx)
            times.append(end - start)
        return statistics.median(times)

    def run_op(self, i, tracer):
        entry = CLI_ROTATION[i % len(CLI_ROTATION)]
        args = cli_args(entry, self.ctx.seed, i)
        if isinstance(tracer, NoTracer):
            child, _, _ = run_child([sys.executable, "-m", "photoevap.cli", *args], self.ctx)
            inner = None
        else:
            read_fd, write_fd = os.pipe()
            try:
                child, start, end = run_child(
                    [sys.executable, "-c", CLI_WRAPPER, str(write_fd), *args], self.ctx, pass_fds=(write_fd,)
                )
            finally:
                os.close(write_fd)
            with os.fdopen(read_fd) as pipe:
                inner = json.loads(pipe.read() or "null")
            process = tracer.add(f"cli.process.{entry}", start, end, tracer.current())
            if inner is not None:
                tracer.add("cli.import", *inner["import"], process)
                tracer.add(f"cli.main.{entry}", *inner["main"], process)
        return entry, args, child, inner

    def check(self, i, result):
        entry, args, child, inner = result
        if inner is not None and self.ctx.src not in Path(inner["file"]).resolve().parents:
            return [("cli.tree", f"child imported photoevap from {inner['file']}")]
        if child.returncode != 0:
            return [(f"{entry}.exit_code", f"exit {child.returncode}: {child.stderr.strip()[-200:]}")]
        try:
            payload = json.loads(child.stdout, parse_constant=_reject_nan)
        except ValueError as exc:
            return [(f"{entry}.json", str(exc))]
        self.outputs[i] = (entry, args, payload)
        if entry.startswith("fit"):
            total = sum(row["residual"] ** 2 for row in payload["residuals"])
            if not close(total, payload["chi2"], rel=1e-6):
                return [(f"{entry}.residual_table_chi2", f"sum of squares {total:.2f} vs chi2 {payload['chi2']:.2f}")]
        return []

    def deferred_checks(self):
        references: dict[tuple, object] = {}

        def reference(key, compute):
            if key not in references:
                references[key] = compute()
            return references[key]

        outputs, self.outputs = self.outputs, {}
        bad: dict[int, list] = {}
        for i, (entry, args, payload) in outputs.items():
            root = self.ctx.root
            if entry == "coeff":
                ref = self._coeff_reference(args)
                found = [] if close(payload, ref, rel=1e-11, abs_tol=1e-300) else [f"{payload!r} vs {ref!r}"]
            elif entry == "model":
                found = self._model_problems(args, payload)
            elif entry == "exciton":
                report = pe.exciton_report(int(_option(args, "-A")), float(_option(args, "-E")))
                found = _field_problems(payload, {
                    "g_per_mev": report.g, "n_bar": report.n_bar, "n_sigma": report.n_sigma,
                    "t_low_mev": report.t_low, "t_high_mev": report.t_high,
                })
            elif entry == "times":
                report = pe.timescales(float(_option(args, "-r")), *WIDTHS)
                found = _field_problems(payload, {
                    "beta_ev": report.beta, "tau_phase_s": report.tau_phase, "tau_cn_s": report.tau_cn,
                    "tau_thermalization_s": report.tau_thermalization,
                    "t_heisenberg_s": report.t_heisenberg, "n_eff": report.n_eff,
                })
            elif entry.startswith("spectrum"):
                l = int(_option(args, "--l"))
                fit = reference(("spectrum", l), lambda: pe.fit_temperature(
                    pe.scale_spectrum(pe.read_spectrum_csv(root / SAMPLE_SPECTRUM), pe.NucleusSpec(208, 82), l=l),
                    EPS_MAX,
                ))
                found = _field_problems(payload, {
                    "temperature_mev": fit.temperature, "temperature_err_mev": fit.temperature_err,
                    "log_intercept": fit.log_intercept, "n_points": fit.n_points,
                })
            else:
                weighting = _option(args, "--weighting") if "--weighting" in args else "equal"
                fit = reference(("fit", weighting), lambda: pe.fit_angular(
                    pe.read_angular_csv(root / SAMPLE_ANGULAR),
                    pe.ChannelConfig(residual_weighting=weighting),
                ))
                found = self._fit_problems(payload, fit)
            if found:
                bad[i] = [(f"{entry}.library_match", "; ".join(found)[:300])]
        return bad

    @staticmethod
    def _coeff_reference(args):
        from fractions import Fraction

        kind = args[1]
        values = [Fraction(tok) for tok in args[2:] if tok != "--"]
        fn = {"cg": pe.clebsch_gordan, "w6j": pe.wigner_6j, "racah": pe.racah_w, "z": pe.z_coeff}[kind]
        return fn(*values)

    @staticmethod
    def _model_problems(args, payload):
        params = pe.ShapeParams(*(float(_option(args, f)) for f in ("-A", "-B", "-C", "-r")))
        series = pe.legendre_coefficients(params)
        grid = np.linspace(0.0, 180.0, 37)
        sigma = series.evaluate(np.deg2rad(grid))
        found = _field_problems(payload["coefficients"], {f"c_{k}": c for k, c in enumerate(series.coefficients)})
        found += _field_problems(payload, {"asymmetry_U": pe.forward_backward_ratio(series)})
        curve = payload["curve"]
        if len(curve) != grid.size or not all(
            close(row["theta_deg"], t) and close(row["sigma"], s) for row, t, s in zip(curve, grid, sigma)
        ):
            found.append("curve differs")
        return found

    @staticmethod
    def _fit_problems(payload, fit):
        found = _field_problems(payload, {"chi2": fit.chi2, "dof": fit.dof, "n_starts_agreeing": fit.n_starts_agreeing})
        p = fit.params
        found += _field_problems(payload["params"], {"A": p.A, "B": p.B, "C": p.C, "r": p.r}, rel=1e-9)
        found += _field_problems(payload["norms"], dict(zip(fit.bin_labels, fit.norms)), rel=1e-9)
        cov = np.array(payload["covariance"])
        if cov.shape != fit.covariance.shape or not np.allclose(cov, fit.covariance, rtol=1e-9, atol=0):
            found.append("covariance differs")
        elif float(np.max(np.abs(cov - cov.T))) > 1e-9 * float(np.max(np.abs(cov))):
            found.append("covariance not symmetric")
        return found

    def peak_rss_mb(self):
        """The largest child so far: the CLI processes, beside two smaller
        kinds (the import-path probe and bare interpreter starts)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def _field_problems(payload: dict, expected: dict, rel=1e-12) -> list[str]:
    return [
        f"{key} {payload.get(key)!r} vs {value!r}"
        for key, value in expected.items()
        if not (isinstance(payload.get(key), (int, float)) and close(payload[key], value, rel=rel, abs_tol=1e-300))
    ]


WORKLOADS = {w.name: w for w in (FitStudy, CliSessions, SpectrumScan, ModelScan)}
