"""Weighted least-squares extraction of the shape parameters from angular data.

The model for each dataset (one proton-energy bin) is
norm_k * sigma(theta; A, B, C, r) with sigma the c_0-normalised Legendre
series from :mod:`photoevap.xsection`.  All datasets of one fit share the
shape; a bin is fitted alone by passing it as the only dataset.  The
norms enter linearly, so the optimiser searches only the shape (log A,
log B, log C, log(1+r)) and profiles the norms out by variable projection
(Golub and Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)): for each trial
shape every norm takes its closed-form weighted projection, and the
projected residual has an analytic Jacobian in Kaufman's form (BIT 15, 49
(1975)).  Each norm is held in units of its bin's smallest error, so no
step depends on the unit of the yields.  The log space keeps positivity
structural.  The model is linear in each bin's Legendre amplitudes, so
the thin QR factor R_k of the bin's weighted design, built from
xsection's own P_0..P_4, compresses it exactly to 5 rows, whatever its
number of points, plus a constant chi2_free that no shape can reduce
(Lawson and Hanson, Solving Least Squares Problems (1974), ch. 1); the
data rows are not kept past construction.  Restarts come from a deterministic
additive-recurrence lattice over the shape box, and all of them step
together through one projected Levenberg-Marquardt iteration whose every
step is one evaluation of (chi^2, J^T r, J^T J) at a stack of shapes.
The covariance is still taken over the full (shape, log norm_k) vector:
the Hessian of chi^2/2 at the optimum is the central difference of that
vector's analytic gradient J^T r (:meth:`_FitProblem.gradient`).  The
search and the covariance share one model evaluation, and numpy is the
only dependency.
"""

from __future__ import annotations

import math

import numpy as np

from ._csvfile import read_csv
from ._record import Record
from .errors import DegenerateModelError, UnderdeterminedError
from .xsection import (
    ChannelConfig,
    LegendreSeries,
    ShapeParams,
    _coefficient_matrix,
    legendre_coefficients,
)

__all__ = [
    "AngularDataset",
    "FitResult",
    "chi_square",
    "fit_angular",
    "model_and_residuals",
    "read_angular_csv",
    "synth_dataset",
]

_N_SHAPE = 4  # log A, log B, log C, log(1+r)

# start box (log space) and the wider optimiser bounds
_START_LO = np.array([math.log(1e-3)] * 3 + [math.log1p(1e-3)])
_START_HI = np.array([math.log(10.0)] * 3 + [math.log1p(100.0)])
_BOUND_LO = np.array([math.log(1e-6)] * 3 + [0.0])
_BOUND_HI = np.array([math.log(1e4)] * 3 + [math.log1p(1e4)])
_NORM_LO, _NORM_HI = math.exp(-40.0), math.exp(40.0)  # norm / the bin's smallest error
_SQRT_FLOAT_MAX = math.sqrt(np.finfo(float).max)  # largest ||b|| whose square is finite
_MACHINE_EPS = float(np.finfo(float).eps)  # no stopping test can resolve less
_AGREE_REL = math.sqrt(_MACHINE_EPS)  # chi^2 rounding scale: starts this close agree


class AngularDataset:
    """Angular yields of one proton-energy bin.

    ``errors=None`` means no measurement errors are available; unit
    weights are substituted and ``unit_weights`` records that.
    """

    bin_label: str
    theta_deg: np.ndarray
    yields: np.ndarray
    errors: np.ndarray
    unit_weights: bool

    def __init__(self, bin_label, theta_deg, yields, errors=None) -> None:
        self.bin_label = bin_label
        self.theta_deg = np.asarray(theta_deg, dtype=float)
        self.yields = np.asarray(yields, dtype=float)
        n = self.theta_deg.size
        if n < 5:
            raise ValueError(f"bin {self.bin_label!r}: need at least 5 points, have {n}")
        if self.yields.size != n:
            raise ValueError(f"bin {self.bin_label!r}: theta and yield lengths differ")
        if not (np.all(np.isfinite(self.theta_deg)) and np.all(np.isfinite(self.yields))):
            raise ValueError(f"bin {self.bin_label!r}: angles and yields must be finite")
        if np.any(self.theta_deg <= 0.0) or np.any(self.theta_deg >= 180.0):
            raise ValueError(f"bin {self.bin_label!r}: angles must lie strictly inside (0, 180)")
        if np.all(self.theta_deg == self.theta_deg[0]):
            raise ValueError(f"bin {self.bin_label!r}: all angles equal; no shape information")
        if errors is None:
            self.errors = np.ones(n)
        else:
            self.errors = np.asarray(errors, dtype=float)
            if self.errors.size != n:
                raise ValueError(f"bin {self.bin_label!r}: error column length differs")
            if not np.all((self.errors > 0.0) & np.isfinite(self.errors)):
                raise ValueError(f"bin {self.bin_label!r}: errors must be finite and strictly positive")
        self.unit_weights = errors is None

    def __len__(self) -> int:
        return self.theta_deg.size


def read_angular_csv(path) -> list[AngularDataset]:
    """Load angular data grouped by bin_label (column order of appearance).

    Columns: bin_label, theta_deg, yield and optional err.  A missing err
    column yields unit weights; callers should warn about that.  With the
    column, every row needs a number there: a blank cell is a bad row.
    """

    def convert(row):
        point = [row["bin_label"], float(row["theta_deg"]), float(row["yield"])]
        if "err" in row:
            point.append(float(row["err"]))
        return point

    def build(rows):
        groups: dict[str, list[list]] = {}
        for label, *point in rows:
            groups.setdefault(label, []).append(point)
        # (thetas, yields) or (thetas, yields, errors), per bin
        return [AngularDataset(label, *zip(*points)) for label, points in groups.items()]

    return read_csv(path, ("bin_label", "theta_deg", "yield"), convert, build, optional=("err",))


class FitResult(Record):
    """Best-fit parameters plus uncertainty bookkeeping.

    ``covariance`` is over (log A, log B, log C, log(1+r), log norm_k) in
    that order; ``identifiable`` is False when any of its diagonal entries
    exceeds 100 (a log-space sigma of 10), or when a row of c_1..c_4 is
    structurally zero for the configuration (c_4 under "2I+1"), so fewer
    than four coefficients carry the four shape parameters.
    ``converged`` is False when the best start hit the iteration cap.
    ``n_starts_agreeing`` counts the starts whose chi-square ends within
    sqrt(eps) ~ 1.5e-8 of the best, relative to max(1, best chi-square):
    far above where starts at one optimum scatter, and independent of
    the stopping tolerance.
    """

    params: ShapeParams
    norms: tuple[float, ...]
    chi2: float
    dof: int
    covariance: np.ndarray
    converged: bool
    n_starts_agreeing: int
    identifiable: bool
    bin_labels: tuple[str, ...]

    def __init__(self, params, norms, chi2, dof, covariance, converged, n_starts_agreeing, identifiable, bin_labels):
        self.__dict__.update(params=params, norms=norms, chi2=chi2, dof=dof, covariance=covariance, converged=converged,
                             n_starts_agreeing=n_starts_agreeing, identifiable=identifiable, bin_labels=bin_labels)

    @property
    def covariance_labels(self) -> tuple[str, ...]:
        return ("log_A", "log_B", "log_C", "log_1p_r") + tuple(
            f"log_norm_{label}" for label in self.bin_labels
        )


class _FitProblem:
    """Per-bin compressed least-squares statistics and the coefficient
    matrix of one fit.

    The coefficient vector reads the same real matrix M and exponent
    table P as :func:`raw_coefficients`, in log space: c = M m with
    m = exp(Q x) and Q = P diag(1/2, 1/2, 1/2, -1), so that row (a, b,
    c, k) of P gives m_j = sqrt(A^a B^b C^c) (1+r)^-k.  The log form
    stays defined for the slightly negative r probed by the covariance's
    gradient differences at the r = 0 bound.

    Every isotropic geometry group is positive and every weight is >= 0,
    so M[0] >= 0, and with m > 0 the raw c_0 is positive at every
    shape as soon as M[0] has one positive entry, which the fixed
    channel set has under every weighting.  ``shape_rows`` counts the
    rows c_1..c_4 of M that are not structurally zero (largest entry
    above 1e-12 of the largest in M).

    Every norm here is in units of its bin's smallest error s_k
    (``scales``): n_k is the bin's norm over s_k.  Bin k's weighted rows
    are then D_k n_k c, where D_k holds P_0..P_4 at the bin's angles (the
    five unit series, c = e_0..e_4, through :meth:`LegendreSeries.evaluate`)
    times the weights s_k / err in (0, 1], against the data b_k, the
    yields over the errors.  D_k, b_k and n_k carry no unit of the
    yields, so no unit choice, nor any spread of errors within a bin, can
    overflow what is built from them, and the norm bounds e^-40..e^40
    hold n_k in units of s_k.  The thin QR factorisation D_k = Q_k R_k,
    with z_k = Q_k^T b_k, gives for every c and n_k

        ||b_k - n_k D_k c||^2 = ||b_k - Q_k z_k||^2 + ||z_k - n_k R_k c||^2,

    also where fewer than 5 distinct angles make R_k singular (Lawson
    and Hanson, Solving Least Squares Problems (1974), ch. 1).  So the
    problem keeps only the (K, 5, 5) R, the (K, 5) z and the constant
    ``chi2_free``, the first sum over bins, taken as a sum of squares.
    Every residual has 5 rows per bin, z_k - n_k R_k c, whatever the
    bin's point count, and its J^T r and J^T J equal the full rows' ones.

    Every method takes a stack of S points, one per row, and loops over
    neither points nor bins; a single point is a stack of one.
    :meth:`_evaluate` is the one model evaluation; :meth:`gradient`
    takes full (shape, log norm_k) vectors, and :meth:`profiled` and
    :meth:`normal_equations` shapes alone, with the norms profiled out.
    """

    def __init__(self, datasets: list[AngularDataset], config: ChannelConfig):
        matrix, powers = map(np.asarray, _coefficient_matrix(config))
        self._matrix = matrix
        row_size = np.max(np.abs(matrix[1:]), axis=1)
        self.shape_rows = int(np.sum(row_size > 1e-12 * np.max(np.abs(matrix))))
        self._log_powers = powers * (0.5, 0.5, 0.5, -1.0)
        self.scales = [float(np.min(ds.errors)) for ds in datasets]
        with np.errstate(over="ignore"):
            targets = [ds.yields / ds.errors for ds in datasets]
        if not math.hypot(*np.concatenate(targets)) <= _SQRT_FLOAT_MAX:
            raise DegenerateModelError("chi-square overflows: yields too large for their errors")
        basis = [LegendreSeries(tuple(row)) for row in np.eye(5).tolist()]
        factors = [
            np.linalg.qr((np.array([p.evaluate(np.deg2rad(ds.theta_deg)) for p in basis]) * (s / ds.errors)).T)
            for ds, s in zip(datasets, self.scales)
        ]
        self._r = np.stack([r for _, r in factors])
        self._z = np.stack([q.T @ b for (q, _), b in zip(factors, targets)])
        free = [b - q @ z for (q, _), b, z in zip(factors, targets, self._z)]
        self.chi2_free = sum(float(f @ f) for f in free)

    def _evaluate(self, shape_x: np.ndarray):
        """(coeff, model, d_model) at the (S, 4) log-space shapes.

        coeff (S, 5) is the normalised c_0..c_4, model (S, K, 5) the
        compressed model rows R_k c of every bin and d_model (S, K, 5, 4)
        their derivative, from the analytic dc/dx = (D - c D_0) / raw_0
        with D = M diag(m) Q the derivative of the raw coefficients.
        """
        n = len(shape_x)
        magnitude = np.exp(shape_x @ self._log_powers.T)
        raw = magnitude @ self._matrix.T
        coeff = raw / raw[:, :1]
        d_raw = (self._matrix * magnitude[:, None, :]) @ self._log_powers
        d_coeff = (d_raw - coeff[:, :, None] * d_raw[:, None, 0]) / raw[:, :1, None]
        r_rows = self._r.reshape(-1, 5)  # R_1 .. R_K stacked
        model = (coeff @ r_rows.T).reshape(n, -1, 5)
        return coeff, model, (r_rows @ d_coeff).reshape(n, -1, 5, _N_SHAPE)

    def params_of(self, x: np.ndarray) -> ShapeParams:
        return ShapeParams(
            A=math.exp(x[0]),
            B=math.exp(x[1]),
            C=math.exp(x[2]),
            r=math.expm1(x[3]),
        )

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """J^T r (S, 4 + K) at the (S, 4 + K) full (shape, log norm_k)
        vectors, for the compressed residuals r_k = z_k - n_k R_k c.

        The shape entries are -sum_k n_k (R_k dc)^T r_k and the entry of
        log n_k is -n_k <R_k c, r_k>.
        """
        _, model, d_model = self._evaluate(x[:, :_N_SHAPE])
        norms = np.exp(x[:, _N_SHAPE:])[:, :, None]
        weighted = norms * (self._z - norms * model)  # n_k r_k
        shape = (weighted[:, :, None, :] @ d_model)[:, :, 0].sum(axis=1)
        return -np.concatenate([shape, (weighted * model).sum(axis=2)], axis=1)

    def profiled(self, shape_x: np.ndarray):
        """(residuals, Jacobians, norms) at the (S, 4) shapes, with each
        bin's norm profiled out: (S, 5K), (S, 5K, 4) and (S, K).

        For the compressed model a_k = R_k c and data z_k of bin k, the
        best norm n_k = <a_k, z_k> / <a_k, a_k>, clipped to the log-norm
        bounds, is the exact minimiser of the bounded problem in that
        coordinate.  The residual is z_k - n_k a_k, and its Jacobian is
        the projected one in Kaufman's form, -a_k dn_k - n_k da_k with
        dn_k = <z_k - 2 n_k a_k, da_k> / <a_k, a_k> (zero on a clipped bin).
        """
        n = len(shape_x)
        _, model, d_model = self._evaluate(shape_x)
        model_sq = (model * model).sum(axis=2)
        unclipped = (model * self._z).sum(axis=2) / model_sq
        norms = np.minimum(np.maximum(unclipped, _NORM_LO), _NORM_HI)
        scaled = norms[:, :, None] * model
        residuals = self._z - scaled
        d_norms = ((residuals - scaled)[:, :, None, :] @ d_model)[:, :, 0] / model_sq[:, :, None]
        d_norms[norms != unclipped] = 0.0
        jacobian = -model[..., None] * d_norms[:, :, None, :] - norms[:, :, None, None] * d_model
        return residuals.reshape(n, -1), jacobian.reshape(n, -1, _N_SHAPE), norms

    def normal_equations(self, shape_x: np.ndarray):
        """(chi2, g, H) at the (S, 4) shapes, norms profiled out: the full
        chi-square (S,), g = J^T r (S, 4) and H = J^T J (S, 4, 4) of
        :meth:`profiled`'s residuals r and Jacobians J."""
        res, jac, _ = self.profiled(shape_x)
        jac_t = jac.transpose(0, 2, 1)
        chi2 = self.chi2_free + (res[:, None, :] @ res[:, :, None])[:, 0, 0]
        return chi2, (jac_t @ res[:, :, None])[:, :, 0], jac_t @ jac


def model_and_residuals(params, norms, datasets, config) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per dataset, the model norm_k * sigma(theta) at its angles, with sigma
    from :func:`legendre_coefficients`, and the residuals (yield - model) / err.
    Overflow is left to the caller, such as :func:`chi_square`'s ``errstate``."""
    norms = list(norms)
    if len(norms) != len(datasets):
        raise ValueError(f"{len(norms)} norms for {len(datasets)} datasets")
    series = legendre_coefficients(params, config)
    models = [norm * np.asarray(series.evaluate(np.deg2rad(ds.theta_deg))) for ds, norm in zip(datasets, norms)]
    return [(model, (ds.yields - model) / ds.errors) for ds, model in zip(datasets, models)]


def chi_square(
    params: ShapeParams,
    norms,
    datasets: list[AngularDataset],
    config: ChannelConfig = ChannelConfig(),
) -> float:
    """Sum over points of ((yield - norm_k * sigma(theta)) / err)^2.

    The residuals are the ones the ``fit`` command's residual table
    prints, with sigma from :func:`legendre_coefficients` and linear
    norms, so every valid shape (A = 0 included) and a zero norm are
    accepted.  A sum beyond the float range raises
    :class:`DegenerateModelError`.
    """
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for _, res in model_and_residuals(params, norms, datasets, config):
            total += float(res @ res)
    if not math.isfinite(total):
        raise DegenerateModelError("chi-square overflows: residuals too large for their errors")
    return total


def _lattice_starts(n_starts: int, seed) -> np.ndarray:
    """Additive-recurrence (R_d) lattice on the start box: unit point i is
    (shift + i phi^-j) mod 1, phi^5 = phi + 1, with shift 0 unless seeded."""
    try:
        shift = np.zeros(_N_SHAPE) if seed is None else np.random.default_rng(seed).random(_N_SHAPE)
    except ValueError as exc:  # numpy's "expected non-negative integer"
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}") from exc
    alpha = 1.1673039782614187 ** -np.arange(1.0, _N_SHAPE + 1)
    try:
        index = np.arange(n_starts)  # from 2**63 on: empty, with no error
        if len(index) != n_starts:
            raise ValueError(f"{len(index)} rows")
        unit = (shift + np.outer(index, alpha)) % 1.0
    except (ValueError, MemoryError) as exc:
        raise ValueError("n_starts is too large to build the start lattice") from exc
    return _START_LO + unit * (_START_HI - _START_LO)


def _covariance(problem: _FitProblem, x: np.ndarray) -> np.ndarray:
    """Covariance from the Hessian of chi^2/2, floor-regularised.

    Column i of the Hessian is the central difference of the analytic
    gradient J^T r (:meth:`_FitProblem.gradient`) along x_i with step
    h_i = 1e-4 * max(1, |x_i|), from one stacked evaluation at the 2n
    points x +- h_i e_i; it is symmetrised before inversion.  Directions
    with (near-)zero curvature get a huge variance instead of a
    pseudo-inverse zero, so flat parameters show up as unidentifiable
    rather than spuriously well determined.
    """
    h = np.diag(1e-4 * np.maximum(1.0, np.abs(x)))
    upper, lower = np.split(problem.gradient(np.concatenate([x + h, x - h])), 2)
    hess = ((upper - lower) / (2.0 * np.diag(h))[:, None]).T
    eigval, eigvec = np.linalg.eigh(0.5 * (hess + hess.T))
    floor = 1e-10
    inv = 1.0 / np.maximum(eigval, floor)
    return (eigvec * inv) @ eigvec.T


def _solve(problem: _FitProblem, starts: np.ndarray, tol: float, max_iter: int):
    """Projected Levenberg-Marquardt from every start at once.

    Each iteration takes one stacked :meth:`_FitProblem.normal_equations`
    call, (chi^2, g = J^T r, H = J^T J), at the trial shapes of the
    starts still running.  A start holds each variable that sits on a
    bound with its gradient pointing outward.  On the free variables it
    solves (H + lam D) dx = -g, with D the running maximum of diag(H)
    (Moré, LNM 630, 105 (1978)), and projects x + dx onto the box
    (Kanzow, Yamashita and Fukushima, J. Comput. Appl. Math. 172, 375
    (2004)).  The step is taken when chi^2 falls.  lam follows Nielsen's
    rule: a taken step with gain ratio rho scales it by
    max(1/3, 1 - (2 rho - 1)^3), and the k-th rejection in a row by 2^k.

    A start stops on the tests of scipy's ``least_squares``, taken on
    every trial step: ftol, dF <= tol F with the ratio of actual to
    predicted reduction above 0.25; xtol, ||dx|| <= tol (tol + ||x||)
    (all a rejected step can meet); and gtol, a projected gradient
    ||x - P(x - g)||_inf <= tol at the current x.  A start leaves the
    stack of running starts, which alone hold per-start state, at one
    place: the top of an iteration, after its projected gradient meets
    gtol there or its last step met ftol or xtol.  Returns (chi2, x,
    converged) per start; ``converged`` is False for a start that ran
    ``max_iter`` iterations without stopping, and True for one whose
    last allowed step met ftol or xtol.
    """
    final_chi2, final_x = np.empty(len(starts)), np.empty_like(starts)
    converged = np.zeros(len(starts), dtype=bool)
    idx, x, stop = np.arange(len(starts)), starts, np.zeros(len(starts), dtype=bool)
    chi2, grad, hess = problem.normal_equations(x)
    scale = np.diagonal(hess, axis1=1, axis2=2).copy()  # D
    lam, growth = np.full(len(x), 1e-3), np.full(len(x), 2.0)  # growth: of lam on the next rejection
    eye = np.eye(_N_SHAPE)
    for _ in range(max_iter):
        # gtol, met also where the projected gradient is NaN
        stop |= ~(np.abs(x - np.minimum(np.maximum(x - grad, _BOUND_LO), _BOUND_HI)).max(axis=1) > tol)
        if stop.any():
            final_chi2[idx[stop]], final_x[idx[stop]], converged[idx[stop]] = chi2[stop], x[stop], True
            state = (idx, x, chi2, grad, hess, scale, lam, growth, stop)
            idx, x, chi2, grad, hess, scale, lam, growth, stop = (a[~stop] for a in state)
            if idx.size == 0:
                break
        free = ~(((x <= _BOUND_LO) & (grad > 0.0)) | ((x >= _BOUND_HI) & (grad < 0.0)))
        scale = np.maximum(scale, hess.diagonal(0, 1, 2))
        d = np.maximum(scale, _MACHINE_EPS * scale.max(axis=1, keepdims=True))
        damped = hess + lam[:, None, None] * d[:, :, None] * eye
        system = np.where(free[:, :, None] & free[:, None, :], damped, eye)  # held: dx = 0
        step = np.linalg.solve(system, np.where(free, -grad, 0.0)[:, :, None])[:, :, 0]
        trial = np.minimum(np.maximum(x + step, _BOUND_LO), _BOUND_HI)
        step = trial - x
        t_chi2, t_grad, t_hess = problem.normal_equations(trial)
        reduction = chi2 - t_chi2
        predicted = -((2.0 * grad + (hess @ step[:, :, None])[:, :, 0]) * step).sum(axis=1)
        # scipy's gain ratio: 0 where the model predicts no descent
        descent = predicted > 0.0
        ratio = np.where(descent, reduction / np.where(descent, predicted, 1.0), 0.0)
        stop = (reduction <= tol * chi2) & (ratio > 0.25)
        stop |= np.sqrt((step * step).sum(axis=1)) <= tol * (tol + np.sqrt((x * x).sum(axis=1)))
        taken = reduction > 0.0
        shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * np.minimum(ratio, 1.0) - 1.0) ** 3)
        x, chi2 = np.where(taken[:, None], trial, x), np.where(taken, t_chi2, chi2)
        grad, hess = np.where(taken[:, None], t_grad, grad), np.where(taken[:, None, None], t_hess, hess)
        lam, growth = lam * np.where(taken, shrink, growth), np.where(taken, 2.0, 2.0 * growth)
    final_chi2[idx], final_x[idx], converged[idx] = chi2, x, stop
    return final_chi2, final_x, converged


def fit_angular(
    datasets: list[AngularDataset],
    config: ChannelConfig = ChannelConfig(),
    *,
    n_starts: int = 32,
    seed=None,
    tol: float = 1e-12,
    max_iter: int = 400,
) -> FitResult:
    """Multi-start bounded least-squares fit of (A, B, C, r) plus norms.

    All datasets share the shape parameters, and each has its own norm.
    Every start searches the four shape parameters with the norms
    profiled out, and all starts step together (:func:`_solve`) for at
    most ``max_iter`` iterations each; one that runs out of them only
    leaves ``converged`` false when it is the best.  ``chi2`` is the
    solver's full chi-square at the best shape and its profiled norms.
    The search options are checked before the data: ``ValueError`` names
    an ``n_starts`` too large for the start lattice or a negative ``seed``.
    No more points than parameters (four plus one norm per dataset)
    raises :class:`UnderdeterminedError` naming the bin labels.
    """
    if not datasets:
        raise ValueError("no datasets to fit")
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    if not (math.isfinite(tol) and tol >= _MACHINE_EPS):
        raise ValueError(f"tol must be finite and >= machine epsilon {_MACHINE_EPS!r}, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    starts = _lattice_starts(n_starts, seed)

    n_points = sum(map(len, datasets))
    n_params = _N_SHAPE + len(datasets)  # one norm per dataset
    dof = n_points - n_params
    if dof <= 0:
        labels = ", ".join(repr(ds.bin_label) for ds in datasets)
        raise UnderdeterminedError(f"{n_points} points in {labels} cannot constrain {n_params} parameters")

    problem = _FitProblem(datasets, config)
    chi2s, shapes, converged = _solve(problem, starts, tol, max_iter)
    best = int(np.argmin(chi2s))
    agreeing = int(np.sum(chi2s - chi2s[best] <= _AGREE_REL * max(1.0, chi2s[best])))
    best_norms = problem.profiled(shapes[best : best + 1])[2][0]
    best_x = np.concatenate([shapes[best], np.log(best_norms)])
    norms = tuple(n * s for n, s in zip(best_norms.tolist(), problem.scales))  # float: inf, no warning
    if not all(map(math.isfinite, norms)):
        raise DegenerateModelError("a fitted norm overflows: yields too large for the model")

    cov = _covariance(problem, best_x)
    identifiable = problem.shape_rows == _N_SHAPE and bool(np.all(np.diag(cov) <= 100.0))
    return FitResult(
        params=problem.params_of(best_x),
        norms=norms,
        chi2=float(chi2s[best]),
        dof=dof,
        covariance=cov,
        converged=bool(converged[best]),
        n_starts_agreeing=agreeing,
        identifiable=identifiable,
        bin_labels=tuple(ds.bin_label for ds in datasets),
    )


def synth_dataset(
    params: ShapeParams,
    norms,
    thetas_deg,
    noise_frac: float,
    seed,
    *,
    config: ChannelConfig = ChannelConfig(),
    bin_labels=None,
) -> list[AngularDataset]:
    """Generate one dataset per norm on a shared angle grid.

    yields = norm * sigma(theta) * (1 + noise_frac * N(0,1)) with errors
    noise_frac * norm * sigma(theta).  ``noise_frac=0`` produces exact
    model values with no error column (unit weights).  Randomness comes
    from ``numpy.random.default_rng(seed)`` (PCG64), so a fixed seed is
    reproducible across platforms.
    """
    if noise_frac < 0 or not math.isfinite(noise_frac):
        raise ValueError(f"noise_frac must be >= 0, got {noise_frac!r}")
    thetas = np.asarray(thetas_deg, dtype=float)
    series: LegendreSeries = legendre_coefficients(params, config)
    sigma = np.asarray(series.evaluate(np.deg2rad(thetas)))
    rng = np.random.default_rng(seed)
    norms = list(norms)
    if bin_labels is None:
        bin_labels = [f"bin{k + 1}" for k in range(len(norms))]
    elif len(bin_labels) != len(norms):
        raise ValueError("bin_labels and norms lengths differ")
    datasets = []
    for label, norm in zip(bin_labels, norms):
        clean = norm * sigma
        if noise_frac == 0.0:
            datasets.append(AngularDataset(label, thetas.copy(), clean.copy(), None))
        else:
            noisy = clean * (1.0 + noise_frac * rng.standard_normal(thetas.size))
            datasets.append(AngularDataset(label, thetas.copy(), noisy, noise_frac * clean))
    return datasets
