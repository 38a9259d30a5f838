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
(1975)).  The log space keeps positivity structural.  Restarts come from
a deterministic additive-recurrence lattice over the shape box, and all
of them step together through one projected Levenberg-Marquardt
iteration whose every step is one model evaluation at a stack of shapes.
The covariance is still taken over the full (shape, log norm_k) vector:
the Hessian of chi^2/2 at the optimum is the central difference of the
analytic gradient J^T r.  The search and the covariance share one model
evaluation, and numpy is the only dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import legvander

from ._csvfile import read_csv
from .errors import DegenerateModelError, UnderdeterminedError
from .xsection import (
    ChannelConfig,
    DEFAULT_CONFIG,
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
    "read_angular_csv",
    "synth_dataset",
]

_N_SHAPE = 4  # log A, log B, log C, log(1+r)

# start box (log space) and the wider optimiser bounds
_START_LO = np.array([math.log(1e-3)] * 3 + [math.log1p(1e-3)])
_START_HI = np.array([math.log(10.0)] * 3 + [math.log1p(100.0)])
_BOUND_LO = np.array([math.log(1e-6)] * 3 + [0.0])
_BOUND_HI = np.array([math.log(1e4)] * 3 + [math.log1p(1e4)])
_NORM_BOUND = 40.0
_MACHINE_EPS = float(np.finfo(float).eps)  # no stopping test can resolve less
_AGREE_REL = math.sqrt(_MACHINE_EPS)  # chi^2 rounding scale: starts this close agree


@dataclass
class AngularDataset:
    """Angular yields of one proton-energy bin.

    ``errors=None`` means no measurement errors are available; unit
    weights are substituted and ``unit_weights`` records that.
    """

    bin_label: str
    theta_deg: np.ndarray
    yields: np.ndarray
    errors: np.ndarray | None = None
    unit_weights: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        self.theta_deg = np.asarray(self.theta_deg, dtype=float)
        self.yields = np.asarray(self.yields, dtype=float)
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
        if self.errors is None:
            self.errors = np.ones(n)
            self.unit_weights = True
        else:
            self.errors = np.asarray(self.errors, dtype=float)
            if self.errors.size != n:
                raise ValueError(f"bin {self.bin_label!r}: error column length differs")
            if not np.all((self.errors > 0.0) & np.isfinite(self.errors)):
                raise ValueError(f"bin {self.bin_label!r}: errors must be finite and strictly positive")

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


@dataclass(frozen=True)
class FitResult:
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

    @property
    def covariance_labels(self) -> tuple[str, ...]:
        return ("log_A", "log_B", "log_C", "log_1p_r") + tuple(
            f"log_norm_{label}" for label in self.bin_labels
        )


class _FitProblem:
    """Stacked weighted design rows and the coefficient matrix of one fit.

    The coefficient vector reads the same real matrix M as
    :func:`raw_coefficients`, in log space: c = M m with
    m = exp(Q x) and Q = [P / 2, -cross], so that m_j = sqrt(A^a B^b C^c)
    times 1/(1+r) on the cross columns.  The log form stays defined for
    the slightly negative r probed by the covariance's gradient
    differences at the r = 0 bound.

    Every isotropic geometry group is positive and every weight is >= 0,
    so M[0] >= 0, and with m > 0 the raw c_0 is positive at every
    shape as soon as M[0] has one positive entry, which the fixed
    channel set has under every weighting.  ``shape_rows`` counts the
    rows c_1..c_4 of M that are not structurally zero (largest entry
    above 1e-12 of the largest in M).

    All bins share one stacked system of N rows: the design row of point
    i is P_0..P_4 at its angle over its error, its target the yield over
    the error, and the (K, N) 0/1 membership matrix marks which bin holds
    each row, so no step loops over bins.  Every method takes a stack of
    S points, one per row, and loops over neither points nor bins; a
    single point is a stack of one.  :meth:`_evaluate` is the one model
    evaluation; :meth:`residuals_and_jacobian` takes full
    (shape, log norm_k) vectors and :meth:`profiled` shapes alone, with
    the norms profiled out.
    """

    def __init__(self, datasets: list[AngularDataset], config: ChannelConfig):
        matrix, powers, cross_columns = map(np.asarray, _coefficient_matrix(config, False))
        self._matrix = matrix
        row_size = np.max(np.abs(matrix[1:]), axis=1)
        self.shape_rows = int(np.sum(row_size > 1e-12 * np.max(np.abs(matrix))))
        self._log_powers = np.column_stack([0.5 * powers, -cross_columns.astype(float)])
        self.n_points = sum(len(ds) for ds in datasets)
        inv_errors = np.concatenate([1.0 / ds.errors for ds in datasets])
        cosines = np.cos(np.deg2rad(np.concatenate([ds.theta_deg for ds in datasets])))
        self._design = inv_errors[:, None] * legvander(cosines, 4)
        self._targets = inv_errors * np.concatenate([ds.yields for ds in datasets])
        if not math.isfinite(float(self._targets @ self._targets)):
            raise DegenerateModelError("chi-square overflows: yields too large for their errors")
        self._membership = np.repeat(np.eye(len(datasets)), [len(ds) for ds in datasets], axis=1)

    def _evaluate(self, shape_x: np.ndarray):
        """(coeff, model, d_model) at the (S, 4) log-space shapes.

        coeff (S, 5) is the normalised c_0..c_4, model (S, N) the
        weighted model rows design @ coeff and d_model (S, N, 4) their
        derivative, from the analytic dc/dx = (D - c D_0) / raw_0 with
        D = M diag(m) Q the derivative of the raw coefficients.
        """
        magnitude = np.exp(shape_x @ self._log_powers.T)
        raw = magnitude @ self._matrix.T
        coeff = raw / raw[:, :1]
        d_raw = np.einsum("lj,sj,jp->slp", self._matrix, magnitude, self._log_powers)
        d_coeff = (d_raw - coeff[:, :, None] * d_raw[:, None, 0]) / raw[:, :1, None]
        return coeff, coeff @ self._design.T, np.einsum("nl,slp->snp", self._design, d_coeff)

    def params_of(self, x: np.ndarray) -> ShapeParams:
        return ShapeParams(
            A=math.exp(x[0]),
            B=math.exp(x[1]),
            C=math.exp(x[2]),
            r=max(math.expm1(x[3]), 0.0),
        )

    def residuals_and_jacobian(self, x: np.ndarray):
        """Weighted residuals (S, N) and their Jacobians (S, N, 4 + K) at
        the (S, 4 + K) full (shape, log norm_k) vectors.

        The shape columns are -n d_model; the column of log n_k is
        -n_k model on bin k's rows and zero elsewhere.
        """
        _, model, d_model = self._evaluate(x[:, :_N_SHAPE])
        row_norms = np.exp(x[:, _N_SHAPE:]) @ self._membership
        scaled = row_norms * model
        jacobian = np.concatenate(
            [-row_norms[:, :, None] * d_model, -scaled[:, :, None] * self._membership.T], axis=2
        )
        return self._targets - scaled, jacobian

    def chi2(self, x: np.ndarray) -> np.ndarray:
        res = self.residuals_and_jacobian(x)[0]
        return np.einsum("sn,sn->s", res, res)

    def profiled(self, shape_x: np.ndarray):
        """(residuals, Jacobians, norms) at the (S, 4) shapes, with each
        bin's norm profiled out: (S, N), (S, N, 4) and (S, K).

        For the weighted model a_k and data b_k of bin k, the best norm
        n_k = <a_k, b_k> / <a_k, a_k>, clipped to the log-norm bounds,
        is the exact minimiser of the bounded problem in that coordinate.
        The residual is b_k - n_k a_k, and its Jacobian is the projected
        one in Kaufman's form, -a_k dn_k - n_k da_k with
        dn_k = <b_k - 2 n_k a_k, da_k> / <a_k, a_k> (zero on a clipped bin).
        """
        _, model, d_model = self._evaluate(shape_x)
        model_sq = (model * model) @ self._membership.T
        unclipped = ((model * self._targets) @ self._membership.T) / model_sq
        norms = np.clip(unclipped, math.exp(-_NORM_BOUND), math.exp(_NORM_BOUND))
        row_norms = norms @ self._membership
        d_norms = np.einsum(
            "kn,sn,snp->skp", self._membership, self._targets - 2.0 * row_norms * model, d_model
        ) / model_sq[:, :, None]
        d_norms[norms != unclipped] = 0.0
        jacobian = -model[:, :, None] * (self._membership.T @ d_norms)
        jacobian -= row_norms[:, :, None] * d_model
        return self._targets - row_norms * model, jacobian, norms


def chi_square(
    params: ShapeParams,
    norms,
    datasets: list[AngularDataset],
    config: ChannelConfig = DEFAULT_CONFIG,
) -> float:
    """Sum over points of ((yield - norm_k * sigma(theta)) / err)^2.

    sigma comes from :func:`legendre_coefficients` on the fit's stacked
    design rows, with linear norms, so every valid shape (A = 0 included)
    and a zero norm are accepted.
    """
    norms = list(norms)
    if len(norms) != len(datasets):
        raise ValueError(f"{len(norms)} norms for {len(datasets)} datasets")
    problem = _FitProblem(datasets, config)
    coeff = np.array(legendre_coefficients(params, config).coefficients)
    res = problem._targets - (np.array(norms) @ problem._membership) * (problem._design @ coeff)
    return float(res @ res)


def _lattice_starts(n_starts: int, seed) -> np.ndarray:
    """Additive-recurrence (R_d) lattice on the start box: unit point i is
    (shift + i phi^-j) mod 1, phi^5 = phi + 1, with shift 0 unless seeded."""
    shift = np.zeros(_N_SHAPE) if seed is None else np.random.default_rng(seed).random(_N_SHAPE)
    alpha = 1.1673039782614187 ** -np.arange(1.0, _N_SHAPE + 1)
    unit = (shift + np.outer(np.arange(n_starts), alpha)) % 1.0
    return _START_LO + unit * (_START_HI - _START_LO)


def _covariance(problem: _FitProblem, x: np.ndarray) -> np.ndarray:
    """Covariance from the Hessian of chi^2/2, floor-regularised.

    Column i of the Hessian is the central difference of the analytic
    gradient J^T r along x_i with step h_i = 1e-4 * max(1, |x_i|), from
    one stacked evaluation at the 2n points x +- h_i e_i; it is
    symmetrised before inversion.  Directions with (near-)zero curvature
    get a huge variance instead of a pseudo-inverse zero, so flat
    parameters show up as unidentifiable rather than spuriously well
    determined.
    """
    h = np.diag(1e-4 * np.maximum(1.0, np.abs(x)))
    res, jac = problem.residuals_and_jacobian(np.concatenate([x + h, x - h]))
    upper, lower = np.split(np.einsum("snp,sn->sp", jac, res), 2)
    hess = ((upper - lower) / (2.0 * np.diag(h))[:, None]).T
    eigval, eigvec = np.linalg.eigh(0.5 * (hess + hess.T))
    floor = 1e-10
    inv = 1.0 / np.maximum(eigval, floor)
    return (eigvec * inv) @ eigvec.T


def _solve(problem: _FitProblem, starts: np.ndarray, tol: float, max_iter: int):
    """Projected Levenberg-Marquardt from every start at once.

    Each iteration takes one stacked :meth:`_FitProblem.profiled`
    evaluation at the trial shapes of the starts still running.  A start
    forms g = J^T r and H = J^T J and holds each variable that sits on a
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
    ||x - P(x - g)||_inf <= tol at the current x.  Returns
    (chi2, x, converged) per start; ``converged`` is False for a start
    that ran ``max_iter`` iterations without stopping.
    """
    x = starts.copy()
    res, jac, _ = problem.profiled(x)
    chi2 = np.einsum("sn,sn->s", res, res)
    grad = np.einsum("snp,sn->sp", jac, res)
    hess = np.einsum("snp,snq->spq", jac, jac)
    scale = np.diagonal(hess, axis1=1, axis2=2).copy()
    lam = np.full(len(x), 1e-3)
    growth = np.full(len(x), 2.0)
    running = np.ones(len(x), dtype=bool)
    eye = np.eye(_N_SHAPE, dtype=bool)
    for _ in range(max_iter):
        running &= np.max(np.abs(x - np.clip(x - grad, _BOUND_LO, _BOUND_HI)), axis=1) > tol
        idx = np.flatnonzero(running)
        if idx.size == 0:
            break
        xs, g, h = x[idx], grad[idx], hess[idx]
        free = ~(((xs <= _BOUND_LO) & (g > 0.0)) | ((xs >= _BOUND_HI) & (g < 0.0)))
        scale[idx] = d = np.maximum(scale[idx], np.diagonal(h, axis1=1, axis2=2))
        d = np.maximum(d, _MACHINE_EPS * np.max(d, axis=1, keepdims=True))
        damped = h + lam[idx, None, None] * d[:, :, None] * eye
        system = np.where(free[:, :, None] & free[:, None, :], damped, eye)  # held: dx = 0
        step = np.linalg.solve(system, np.where(free, -g, 0.0)[:, :, None])[:, :, 0]
        trial = np.clip(xs + step, _BOUND_LO, _BOUND_HI)
        step = trial - xs
        t_res, t_jac, _ = problem.profiled(trial)
        t_chi2 = np.einsum("sn,sn->s", t_res, t_res)
        reduction = chi2[idx] - t_chi2
        predicted = -np.einsum("sp,sp->s", 2.0 * g + np.einsum("spq,sq->sp", h, step), step)
        # scipy's gain ratio: 0 where the model predicts no descent, 1 where nothing moves
        descent = predicted > 0.0
        ratio = np.where(descent, reduction / np.where(descent, predicted, 1.0), 0.0)
        ratio[(predicted == 0.0) & (reduction == 0.0)] = 1.0
        stop = (reduction <= tol * chi2[idx]) & (ratio > 0.25)
        stop |= np.linalg.norm(step, axis=1) <= tol * (tol + np.linalg.norm(xs, axis=1))
        taken = reduction > 0.0
        shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * np.minimum(ratio, 1.0) - 1.0) ** 3)
        lam[idx] *= np.where(taken, shrink, growth[idx])
        growth[idx] = np.where(taken, 2.0, 2.0 * growth[idx])
        moved = idx[taken]
        x[moved], chi2[moved] = trial[taken], t_chi2[taken]
        grad[moved] = np.einsum("snp,sn->sp", t_jac[taken], t_res[taken])
        hess[moved] = np.einsum("snp,snq->spq", t_jac[taken], t_jac[taken])
        running[idx[stop]] = False
    return chi2, x, ~running


def fit_angular(
    datasets: list[AngularDataset],
    config: ChannelConfig = DEFAULT_CONFIG,
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
    full problem's chi-square at the best shape and its profiled norms.
    No more points than parameters (four plus one norm per dataset)
    raises :class:`UnderdeterminedError` naming the bin labels.
    """
    if not datasets:
        raise ValueError("no datasets to fit")
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    if tol < _MACHINE_EPS:
        raise ValueError(f"tol must be >= machine epsilon {_MACHINE_EPS!r}, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    problem = _FitProblem(datasets, config)
    n_norms = len(datasets)
    dof = problem.n_points - (_N_SHAPE + n_norms)
    if dof <= 0:
        labels = ", ".join(repr(ds.bin_label) for ds in datasets)
        raise UnderdeterminedError(
            f"{problem.n_points} points in {labels} cannot constrain"
            f" {_N_SHAPE + n_norms} parameters"
        )

    chi2s, shapes, converged = _solve(problem, _lattice_starts(n_starts, seed), tol, max_iter)
    best = int(np.argmin(chi2s))
    agreeing = int(np.sum(chi2s - chi2s[best] <= _AGREE_REL * max(1.0, chi2s[best])))
    best_norms = problem.profiled(shapes[best : best + 1])[2][0]
    best_x = np.concatenate([shapes[best], np.log(best_norms)])

    cov = _covariance(problem, best_x)
    identifiable = problem.shape_rows == _N_SHAPE and bool(np.all(np.diag(cov) <= 100.0))
    return FitResult(
        params=problem.params_of(best_x),
        norms=tuple(math.exp(v) for v in best_x[_N_SHAPE:]),
        chi2=float(problem.chi2(best_x[None])[0]),
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
    config: ChannelConfig = DEFAULT_CONFIG,
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
