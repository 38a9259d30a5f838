"""Evaporation-spectrum scaling, nuclear temperature, excitons, timescales.

The proton evaporation yield follows counts(eps) ~ eps * sigma_inv(eps) *
exp(-eps / T), so dividing the measured counts by eps * sigma_inv leaves a
pure exponential whose log-slope is -1/T.  sigma_inv is the inverse
(capture) cross section of the residual nucleus, modelled here as a
single-partial-wave barrier transmission times the geometric area, or
supplied as a lookup table.  The transmission is the WKB penetrability
of the Coulomb + centrifugal barrier, in closed form for every l; its
(nucleus, l) constants are built once per spectrum, and each point
evaluates only the eps-dependent terms.

The exciton estimate relates the same temperature to the equilibrium
exciton number n = sqrt(2 g E*) with g = A/13 MeV^-1, and the timescale
report converts widths to lifetimes via tau = hbar / Gamma.

Everything here is scalar arithmetic on a few dozen numbers, in pure
Python: numpy's per-call overhead would cost more than it saves.
"""

from __future__ import annotations

import bisect
import math
from numbers import Integral
from operator import index, mul

from ._csvfile import read_csv
from ._record import Record, all_finite
from .errors import DataFormatError, DegenerateModelError, InvalidPointError, UnderdeterminedError

__all__ = [
    "ExcitonReport",
    "NucleusSpec",
    "SigmaInvTable",
    "SpectrumPoint",
    "TemperatureFit",
    "TimescaleReport",
    "exciton_report",
    "fit_temperature",
    "inverse_capture_xsec",
    "read_spectrum_csv",
    "scale_spectrum",
    "timescales",
]

# fixed here, not taken from an external table, so that results are bit-reproducible
HBAR_EV_S = 6.582119e-16      # hbar [eV s]
HBARC_MEV_FM = 197.3269804    # hbar c [MeV fm]
E2_MEV_FM = 1.43997           # e^2 / (4 pi eps0) [MeV fm]
AMU_MEV = 931.494             # atomic mass unit [MeV / c^2]
R0_FM = 1.5                   # nuclear radius parameter, R = R0 * A**(1/3) [fm]


class NucleusSpec(Record):
    """Residual (capturing) nucleus: mass number and charge, each stored as an int."""

    mass_number: int
    charge: int

    def __init__(self, mass_number, charge) -> None:
        self.__dict__.update(mass_number=index(mass_number), charge=index(charge))  # 208.5 raises TypeError
        if self.mass_number < 2 or self.charge < 1 or self.charge >= self.mass_number:
            raise ValueError(f"need 1 <= Z < A, got A={self.mass_number}, Z={self.charge}")


class SpectrumPoint(Record):
    """One spectrum sample: proton energy [MeV], counts, absolute error, each stored as a float."""

    eps: float
    counts: float
    err: float

    def __init__(self, eps, counts, err=0.0) -> None:
        if not (eps > 0 and all_finite(eps, counts, err) and err >= 0):  # one call on the common path
            if not (eps > 0 and all_finite(eps)):
                raise ValueError(f"eps must be positive, got {eps!r}")
            if not all_finite(counts):
                raise ValueError(f"counts must be finite, got {counts!r}")
            raise ValueError(f"err must be finite and >= 0, got {err!r}")
        self.__dict__.update(eps=float(eps), counts=float(counts), err=float(err))


def _check_partial_wave(l) -> None:
    # int first: the Integral check alone costs about 0.5 us, once per spectrum
    if isinstance(l, bool) or not isinstance(l, (int, Integral)) or l < 0:
        raise ValueError(f"l must be a non-negative integer, got {l!r}")


def inverse_capture_xsec(nucleus: NucleusSpec, l: int, eps: float) -> float:
    """Barrier-model inverse (capture) cross section sigma_inv(eps) in fm^2.

    It is pi R^2 times the transmission of partial wave l
    through the Coulomb + centrifugal barrier.  With a = e^2 Z,
    b = l(l+1) (hbar c)^2 / 2 mu and Q(r) = -eps r^2 + a r + b, eps is at or
    above the barrier where Q(R) <= 0; there the transmission is taken as 1,
    which joins the sub-barrier branch continuously and keeps sigma_inv
    non-decreasing in eps.  Below it is the WKB penetrability exp(-G), in
    closed form for every l: with D = sqrt(a^2 + 4 eps b) and the outer
    turning point r_out = (a + D) / 2 eps, the Gamow exponent G is
    2 sqrt(2 mu) / hbar c times

        int_R^r_out sqrt(Q) / r dr = -sqrt(Q(R)) + a / (2 sqrt(eps)) arccos((2 eps R - a) / D)
            + sqrt(b) ln[(2b + a R + 2 sqrt(b Q(R))) r_out / ((2b + a r_out) R)],

    which for b = 0 is the pure-Coulomb s-wave form.  Its terms cancel as
    Q(R) -> 0.  So for Q(R) < 5e-4 (a R + b), where the two forms agree to
    rounding, the integral is instead the series sqrt(D) h^(3/2) / R times

        int_0^1 sqrt(x (1 - alpha x)) / (1 + beta (1 - x)) dx
            = 2/3 - alpha/5 - 4 beta/15 - alpha^2/28 + 2 alpha beta/35 + 16 beta^2/105 + ...

    in h = r_out - R = 2 Q(R) / (2 eps R - a + D), alpha = eps h / D and
    beta = h / R, which has no cancellation.  Further below the top the
    closed form's terms still cancel in part, so there sigma_inv is
    non-decreasing in eps only to 1e-13 relative: one ulp up in eps can
    lower it by that much.
    """
    _check_partial_wave(l)
    if not (eps > 0 and all_finite(eps)):
        raise ValueError(f"eps must be positive, got {eps!r}")
    return _barrier(nucleus, l)(eps)


def _barrier(nucleus: NucleusSpec, l: int):
    """sigma_inv(eps) of :func:`inverse_capture_xsec`, its (nucleus, l) constants built once."""
    radius = R0_FM * nucleus.mass_number ** (1.0 / 3.0)
    mu = AMU_MEV * nucleus.mass_number / (1.0 + nucleus.mass_number)  # reduced mass [MeV]
    a = E2_MEV_FM * nucleus.charge
    b = l * (l + 1) * HBARC_MEV_FM ** 2 / (2.0 * mu)
    top = a * radius + b
    area = math.pi * radius * radius
    gamow_scale = 2.0 * math.sqrt(2.0 * mu) / HBARC_MEV_FM
    a2, b2, sqrt_b, log_num = a * a, 2.0 * b, math.sqrt(b), 2.0 * b + a * radius

    def sigma_inv(eps: float) -> float:
        q_surface = top - eps * radius * radius
        if q_surface <= 0.0:  # at or above the barrier
            return area
        d = math.sqrt(a2 + 4.0 * eps * b)
        if q_surface < 5e-4 * top:
            h = 2.0 * q_surface / (2.0 * eps * radius - a + d)
            alpha, beta = eps * h / d, h / radius
            series = (
                2.0 / 3.0 - alpha / 5.0 - 4.0 * beta / 15.0
                - alpha * alpha / 28.0 + 2.0 * alpha * beta / 35.0 + 16.0 * beta * beta / 105.0
            )
            integral = math.sqrt(d) / radius * h * math.sqrt(h) * series
        else:
            r_out = (a + d) / (2.0 * eps)
            log_arg = (log_num + 2.0 * math.sqrt(b * q_surface)) * r_out / ((b2 + a * r_out) * radius)
            if not log_arg < math.inf:  # overflows only at eps so small that exp(-G) is 0
                return 0.0
            integral = (
                -math.sqrt(q_surface)
                + a / (2.0 * math.sqrt(eps)) * math.acos((2.0 * eps * radius - a) / d)
                + sqrt_b * math.log(log_arg)
            )
        return area * math.exp(-gamow_scale * integral)

    return sigma_inv


class SigmaInvTable(Record):
    """Piecewise-linear (eps [MeV], sigma_inv [fm^2]) lookup table, two tuples of floats."""

    eps: tuple[float, ...]
    sigma: tuple[float, ...]

    def __init__(self, eps, sigma) -> None:
        if len(eps) != len(sigma) or len(eps) < 2:
            raise DataFormatError("table needs at least two (eps, sigma) rows")
        if not all_finite(*eps, *sigma):
            raise DataFormatError("table energies and cross sections must be finite")
        # copies as doubles, whose order and sign are what the last two checks see
        self.__dict__.update(eps=tuple(map(float, eps)), sigma=tuple(map(float, sigma)))
        if any(b <= a for a, b in zip(self.eps, self.eps[1:])):
            raise DataFormatError("table energies must be strictly increasing")
        if any(s < 0 for s in self.sigma):
            raise DataFormatError("table cross sections must be non-negative")

    @classmethod
    def from_csv(cls, path) -> "SigmaInvTable":
        def convert(row):
            return float(row["eps_mev"]), float(row["sigma_fm2"])

        return read_csv(path, ("eps_mev", "sigma_fm2"), convert, lambda rows: cls(*zip(*rows)))

    def __call__(self, eps: float) -> float:
        """sigma at eps, interpolated as :func:`numpy.interp` does: exact at a node."""
        if not self.eps[0] <= eps <= self.eps[-1]:
            raise DataFormatError(
                f"eps = {eps:g} MeV outside table range [{self.eps[0]:g}, {self.eps[-1]:g}]"
            )
        j = bisect.bisect_right(self.eps, eps) - 1
        if self.eps[j] == eps:
            return self.sigma[j]
        slope = (self.sigma[j + 1] - self.sigma[j]) / (self.eps[j + 1] - self.eps[j])
        return float(slope * (eps - self.eps[j]) + self.sigma[j])


def read_spectrum_csv(path) -> list[SpectrumPoint]:
    """Load a spectrum CSV with columns eps_mev, counts and optional err.

    A missing err column gives err = 0 on every point; with the column,
    every row needs a number there, and a blank cell is a bad row.
    """

    def convert(row):
        err = float(row["err"]) if "err" in row else 0.0
        return SpectrumPoint(float(row["eps_mev"]), float(row["counts"]), err)

    return read_csv(path, ("eps_mev", "counts"), convert, list, optional=("err",))


def scale_spectrum(
    points: list[SpectrumPoint],
    nucleus: NucleusSpec,
    *,
    l: int = 0,
    table: SigmaInvTable | None = None,
) -> list[SpectrumPoint]:
    """Divide each point by eps * sigma_inv(eps), propagating errors.

    sigma_inv is ``table`` when given, else :func:`inverse_capture_xsec` at
    partial wave ``l``, which is checked first, with or without points; the
    barrier's (nucleus, l) constants are built once per spectrum.  A
    vanishing divisor or an overflowing quotient makes a point unscalable;
    the offending energies are reported together in the raised error.
    """
    _check_partial_wave(l)
    sigma_inv = table if table is not None else _barrier(nucleus, l)
    bad = []
    scaled = []
    for point in points:
        divisor = point.eps * sigma_inv(point.eps)
        try:  # a zero divisor, or a quotient that overflows and fails SpectrumPoint's check
            scaled.append(SpectrumPoint(point.eps, point.counts / divisor, point.err / divisor))
        except (ZeroDivisionError, ValueError):
            bad.append(point.eps)
    if bad:
        energies = ", ".join(f"{e:g}" for e in bad)
        raise InvalidPointError(
            f"cannot scale eps = {energies} MeV: sigma_inv vanishes or the scaled point overflows"
        )
    return scaled


class TemperatureFit(Record):
    """Weighted log-linear fit of a scaled spectrum: T = -1/slope [MeV]."""

    temperature: float
    log_intercept: float
    temperature_err: float
    n_points: int

    def __init__(self, temperature, log_intercept, temperature_err, n_points) -> None:
        self.__dict__.update(temperature=temperature, log_intercept=log_intercept,
                             temperature_err=temperature_err, n_points=n_points)


def fit_temperature(points: list[SpectrumPoint], eps_max: float) -> TemperatureFit:
    """Extract the evaporation temperature from a scaled spectrum.

    Fits ln(scaled counts) = intercept - eps/T by weighted least squares
    over points with eps <= eps_max.  Weights come from the propagated
    errors, and a zero error beside positive ones raises ``InvalidPointError``;
    with every error zero, every point gets unit weight and the slope variance
    is estimated from the residual scatter.  The sums use weights relative
    to the heaviest point and offsets from it, centred on the weighted mean,
    so a dominant point neither cancels the energy spread nor overflows.
    A single distinct energy, or weights that leave only one, has no spread
    and raises ``UnderdeterminedError``.  A scaled spectrum that does not
    fall has no temperature and raises ``DegenerateModelError``: T is always
    finite and positive.  A NaN ``eps_max`` raises ``ValueError``; an
    infinite one keeps every point.
    """
    if math.isnan(eps_max):
        raise ValueError(f"eps_max must be a number, got {eps_max!r}")
    usable = [p for p in points if p.eps <= eps_max]
    if len(usable) < 3:
        raise UnderdeterminedError(
            f"need at least 3 points below eps_max = {eps_max:g}, have {len(usable)}"
        )
    bad = [p.eps for p in usable if p.counts <= 0]
    if bad:
        raise InvalidPointError(
            "non-positive scaled value at eps = " + ", ".join(f"{e:g}" for e in bad) + " MeV"
        )
    eps = [p.eps for p in usable]
    logy = [math.log(p.counts) for p in usable]
    weighted = any(p.err > 0 for p in usable)
    # weights relative to the heaviest point, so that no sum overflows; a zero error weighs inf
    inv_rel = [p.counts / p.err if p.err else (math.inf if weighted else 1.0) for p in usable]
    scale = max(inv_rel)
    ref = inv_rel.index(scale)
    if not math.isfinite(scale):
        raise InvalidPointError(f"error too small to weight the point at eps = {eps[ref]:g} MeV")
    if scale == 0.0:
        raise UnderdeterminedError(
            f"every error below eps_max = {eps_max:g} is too large to weight its point"
        )
    rel = [v / scale for v in inv_rel]
    w = list(map(mul, rel, rel))
    s0 = sum(w)
    # offsets from the heaviest point: exact zeros there, and on a flat spectrum
    x = [e - eps[ref] for e in eps]
    y = [v - logy[ref] for v in logy]
    mean_x = sum(map(mul, w, x)) / s0
    d_x = [v - mean_x for v in x]
    w_dx = list(map(mul, w, d_x))
    sxx = sum(map(mul, w_dx, d_x))
    if not sxx > 0.0:
        raise UnderdeterminedError(
            f"no spread in energy below eps_max = {eps_max:g}:"
            " a single distinct energy, or weights that leave only one"
        )
    slope = sum(map(mul, w_dx, y)) / sxx
    intercept = logy[ref] + sum(map(mul, w, y)) / s0 - slope * (eps[ref] + mean_x)
    var_slope = 1.0 / sxx / scale / scale
    if not weighted:
        resid = [v - (intercept + slope * e) for e, v in zip(eps, logy)]
        var_slope *= sum(map(mul, resid, resid)) / (len(usable) - 2)
    if not all(map(math.isfinite, (sxx, intercept, var_slope))):
        raise DegenerateModelError("temperature fit leaves the floating-point range")
    if slope >= 0.0:
        raise DegenerateModelError(f"scaled spectrum does not fall with eps below eps_max = {eps_max:g}")
    temperature = -1.0 / slope
    temperature_err = math.sqrt(var_slope) / slope / slope
    if not (math.isfinite(temperature) and math.isfinite(temperature_err)):
        raise DegenerateModelError("temperature fit leaves the floating-point range")
    return TemperatureFit(temperature, intercept, temperature_err, len(usable))


class ExcitonReport(Record):
    """Equilibrium exciton statistics at excitation e_star [MeV]."""

    g: float        # single-particle level density A/13 [1/MeV]
    n_bar: float    # equilibrium exciton number sqrt(2 g E*)
    n_sigma: float  # fluctuation width sqrt(n_bar / 2)
    t_low: float    # E* / (n_bar + n_sigma) [MeV]
    t_high: float   # E* / (n_bar - n_sigma) [MeV]

    def __init__(self, g, n_bar, n_sigma, t_low, t_high) -> None:
        self.__dict__.update(g=g, n_bar=n_bar, n_sigma=n_sigma, t_low=t_low, t_high=t_high)


def exciton_report(mass_number: int, e_star: float) -> ExcitonReport:
    """Exciton-model temperature window for a nucleus at excitation e_star."""
    if mass_number < 2:
        raise ValueError(f"mass number must be >= 2, got {mass_number!r}")
    if not (e_star >= 0 and all_finite(e_star)):
        raise ValueError(f"e_star must be >= 0 MeV, got {e_star!r}")
    g = mass_number / 13.0
    n_bar = math.sqrt(2.0 * g * e_star)
    if not math.isfinite(n_bar):
        raise DegenerateModelError(f"exciton number sqrt(2 g E*) overflows at E* = {e_star:g} MeV")
    n_sigma = math.sqrt(n_bar / 2.0)
    if n_bar <= n_sigma:
        raise DegenerateModelError(
            f"exciton number {n_bar:g} within one fluctuation of zero; no temperature window"
        )
    return ExcitonReport(g, n_bar, n_sigma, e_star / (n_bar + n_sigma), e_star / (n_bar - n_sigma))


class TimescaleReport(Record):
    """The dephasing width and the lifetimes tau = hbar / Gamma the widths imply."""

    beta: float                 # dephasing width r * gamma_cn [eV]
    tau_phase: float            # hbar / beta [s]
    tau_cn: float               # hbar / gamma_cn [s]
    tau_thermalization: float   # hbar / gamma_spreading [s]
    tau_ratio: float            # tau_phase / tau_thermalization, inf at r = 0
    t_heisenberg: float         # hbar / D [s]
    n_eff: float                # gamma_spreading / D

    def __init__(self, beta, tau_phase, tau_cn, tau_thermalization, tau_ratio, t_heisenberg, n_eff) -> None:
        self.__dict__.update(beta=beta, tau_phase=tau_phase, tau_cn=tau_cn, tau_thermalization=tau_thermalization,
                             tau_ratio=tau_ratio, t_heisenberg=t_heisenberg, n_eff=n_eff)


def timescales(
    r: float,
    gamma_cn_ev: float,
    gamma_spreading_mev: float,
    level_spacing_mev: float,
) -> TimescaleReport:
    """Convert the fitted r and the three input widths into lifetimes.

    A width that is not positive and finite in eV raises ``ValueError``.
    Inputs whose derived widths, lifetimes or tau_phase / tau_thermalization
    overflow (with r > 0, tau_phase too) raise ``DegenerateModelError``.
    """
    if r < 0 or not all_finite(r):
        raise ValueError(f"r must be finite and >= 0, got {r!r}")
    for name, value, to_ev in (
        ("gamma_cn_ev", gamma_cn_ev, 1.0),
        ("gamma_spreading_mev", gamma_spreading_mev, 1e6),
        ("level_spacing_mev", level_spacing_mev, 1e6),
    ):
        if not (value > 0 and all_finite(value) and math.isfinite(value * to_ev)):
            raise ValueError(f"{name} must be positive and finite in eV, got {value!r}")
    beta = r * gamma_cn_ev
    tau_phase = math.inf if beta == 0.0 else HBAR_EV_S / beta
    tau_thermalization = HBAR_EV_S / (gamma_spreading_mev * 1e6)
    report = TimescaleReport(
        beta=beta,
        tau_phase=tau_phase,
        tau_cn=HBAR_EV_S / gamma_cn_ev,
        tau_thermalization=tau_thermalization,
        tau_ratio=tau_phase / tau_thermalization,
        t_heisenberg=HBAR_EV_S / (level_spacing_mev * 1e6),
        n_eff=gamma_spreading_mev / level_spacing_mev,
    )
    # only r = 0 may give an infinite dephasing time, and nothing may overflow
    derived = [beta, report.tau_cn, report.tau_thermalization, report.t_heisenberg, report.n_eff]
    if r > 0:
        derived += [tau_phase, report.tau_ratio]
    if not all(math.isfinite(value) for value in derived):
        raise DegenerateModelError("widths out of range: a derived width, lifetime or ratio overflows")
    return report
