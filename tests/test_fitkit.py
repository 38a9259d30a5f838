"""Dataset handling, chi-square bookkeeping and multi-start fitting."""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import legvander

from photoevap import fitkit
from photoevap.errors import DataFormatError, DegenerateModelError, UnderdeterminedError
from photoevap.fitkit import (
    _START_HI,
    _START_LO,
    AngularDataset,
    _covariance,
    _FitProblem,
    _lattice_starts,
    chi_square,
    fit_angular,
    read_angular_csv,
    synth_dataset,
)
from photoevap.xsection import (
    DEFAULT_CONFIG,
    ChannelConfig,
    ShapeParams,
    legendre_coefficients,
)

TRUTH = ShapeParams(A=0.082, B=0.47, C=0.37, r=0.11)
NORMS = [1200.0, 950.0, 610.0]
THETAS = np.linspace(30.0, 150.0, 10)
SAMPLE_ANGULAR = Path(__file__).resolve().parents[1] / "sample_data" / "angular_bi_gp.csv"
SIX_NORMS = [1200.0, 950.0, 610.0, 1500.0, 800.0, 1100.0]
WEIGHTINGS = {
    "equal": DEFAULT_CONFIG,
    "2I+1": ChannelConfig(residual_weighting="2I+1"),
    "spin-cutoff": ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=1.3),
}


def make_noisy(seed=7, noise=0.05):
    return synth_dataset(TRUTH, NORMS, THETAS, noise, seed)


class TestAngularDataset:
    def test_basic_construction(self):
        ds = AngularDataset("b", [30, 60, 90, 120, 150], [5, 6, 7, 6, 5], [1, 1, 1, 1, 1])
        assert len(ds) == 5
        assert not ds.unit_weights

    def test_missing_errors_become_unit_weights(self):
        ds = AngularDataset("b", [30, 60, 90, 120, 150], [5, 6, 7, 6, 5])
        assert ds.unit_weights
        assert np.array_equal(ds.errors, np.ones(5))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"theta_deg": [30, 60, 90, 120], "yields": [1, 2, 3, 4]},
            {"theta_deg": [30, 60, 90, 120, 150], "yields": [1, 2, 3, 4]},
            {"theta_deg": [0, 60, 90, 120, 150], "yields": [1, 2, 3, 4, 5]},
            {"theta_deg": [30, 60, 90, 120, 180], "yields": [1, 2, 3, 4, 5]},
            {"theta_deg": [90, 90, 90, 90, 90], "yields": [1, 2, 3, 4, 5]},
            {
                "theta_deg": [30, 60, 90, 120, 150],
                "yields": [1, 2, 3, 4, 5],
                "errors": [1, 1, 0, 1, 1],
            },
            {
                "theta_deg": [30, 60, 90, 120, 150],
                "yields": [1, 2, 3, 4, 5],
                "errors": [1, 1, 1],
            },
        ],
    )
    def test_rejects_malformed_data(self, kwargs):
        with pytest.raises(ValueError):
            AngularDataset("b", **kwargs)


class TestReadAngularCsv:
    @staticmethod
    def write(tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_groups_by_first_appearance(self, tmp_path):
        rows = ["bin_label,theta_deg,yield,err"]
        for theta in (30, 60, 90, 120, 150):
            rows.append(f"late,{theta},5.0,0.5")
            rows.append(f"early,{theta},7.0,0.5")
        # "late" appears first in the file, so it must come out first
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        datasets = read_angular_csv(path)
        assert [ds.bin_label for ds in datasets] == ["late", "early"]
        assert all(len(ds) == 5 for ds in datasets)

    def test_missing_err_column_gives_unit_weights(self, tmp_path):
        rows = ["bin_label,theta_deg,yield"]
        rows += [f"b,{t},5.0" for t in (30, 60, 90, 120, 150)]
        datasets = read_angular_csv(self.write(tmp_path, "\n".join(rows) + "\n"))
        assert datasets[0].unit_weights

    def test_blank_err_cell_is_data_error(self, tmp_path):
        # with the err column, one blank cell must not unweight its whole bin
        rows = ["bin_label,theta_deg,yield,err"]
        rows += [f"b,{t},5.0,0.5" for t in (30, 60, 90, 120)]
        rows += ["b,150,5.0,"]
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: bad row on line 6")):
            read_angular_csv(path)

    def test_bad_header_raises(self, tmp_path):
        path = self.write(tmp_path, "angle,yield\n30,5\n")
        with pytest.raises(DataFormatError):
            read_angular_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        rows = ["bin_label,theta_deg,yield", "b,30,5.0", "b,sixty,5.0"]
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_angular_csv(path)

    def test_empty_file_raises(self, tmp_path):
        path = self.write(tmp_path, "bin_label,theta_deg,yield\n")
        with pytest.raises(DataFormatError):
            read_angular_csv(path)

    def test_too_few_angles_wrapped_as_data_error(self, tmp_path):
        rows = ["bin_label,theta_deg,yield"] + [f"b,{t},5.0" for t in (30, 60, 90)]
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(DataFormatError):
            read_angular_csv(path)


class TestChiSquare:
    def test_zero_on_exact_model(self):
        datasets = synth_dataset(TRUTH, NORMS, THETAS, 0.0, None)
        assert chi_square(TRUTH, NORMS, datasets) < 1e-18

    @pytest.mark.parametrize(
        "params, norms",
        [
            (TRUTH, NORMS),
            (ShapeParams(A=0.0, B=0.47, C=0.37, r=0.11), NORMS),  # pure dipole
            (TRUTH, [1200.0, 0.0, 610.0]),
        ],
        ids=["truth", "pure-dipole", "zero-norm"],
    )
    def test_matches_direct_computation(self, params, norms):
        datasets = make_noisy(seed=2)
        series = legendre_coefficients(params)
        expected = 0.0
        for ds, norm in zip(datasets, norms):
            model = norm * np.asarray(series.evaluate(np.deg2rad(ds.theta_deg)))
            expected += float(np.sum(((ds.yields - model) / ds.errors) ** 2))
        assert chi_square(params, norms, datasets) == pytest.approx(expected, rel=1e-12)

    def test_norm_count_mismatch_raises(self):
        datasets = make_noisy()
        with pytest.raises(ValueError):
            chi_square(TRUTH, [1.0], datasets)


class TestFastPathEquivalence:
    def test_coeff_vector_matches_reference_series(self):
        problem = _FitProblem(make_noisy(), DEFAULT_CONFIG)
        rng = np.random.default_rng(0)
        a, b, c = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), (3, 25)))
        r = np.expm1(rng.uniform(0.0, math.log1p(100.0), 25))
        fast = problem._evaluate(np.column_stack([np.log(a), np.log(b), np.log(c), np.log1p(r)]))[0]
        for row, shape in zip(fast, zip(a, b, c, r)):
            reference = legendre_coefficients(ShapeParams(*map(float, shape)))
            assert row == pytest.approx(reference.coefficients, rel=1e-12, abs=1e-14)


def random_shapes(rng, n=4):
    """n log-space shapes drawn from the optimiser's start box, one per row."""
    return np.column_stack(
        [rng.uniform(math.log(1e-3), math.log(10.0), (n, 3)), rng.uniform(0.0, math.log1p(100.0), n)]
    )


def central_difference(residuals, x, step=1e-6):
    """(S, N, P) central-difference Jacobians of residuals at the (S, P) points x."""
    columns = []
    for i in range(x.shape[1]):
        h = np.zeros_like(x)
        h[:, i] = step * np.maximum(1.0, np.abs(x[:, i]))
        columns.append((residuals(x + h) - residuals(x - h)) / (2.0 * h[:, i:i + 1]))
    return np.stack(columns, axis=2)


def assert_rows_match(jacobians, expected, rel):
    for got, want in zip(jacobians, expected):
        assert np.max(np.abs(got - want)) <= rel * float(np.max(np.abs(want)))


def negate_bin(datasets, k):
    """Replace bin k by one whose yields are all negative."""
    ds = datasets[k]
    datasets[k] = AngularDataset(ds.bin_label, ds.theta_deg, -np.abs(ds.yields), ds.errors)
    return datasets


class TestProfiledProblem:
    """Variable projection: profiled norms and the analytic Jacobian."""

    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
    def test_jacobian_matches_central_difference(self, weighting, k):
        config = WEIGHTINGS[weighting]
        datasets = synth_dataset(TRUTH, SIX_NORMS[:k], THETAS, 0.05, 10 + k, config=config)
        if k > 1:
            # one bin with all-negative yields profiles to the clipped norm
            datasets = negate_bin(datasets, k - 1)
        problem = _FitProblem(datasets, config)
        shapes = random_shapes(np.random.default_rng(k))
        _, jacobians, norms = problem.profiled(shapes)
        assert jacobians.shape == (4, 5 * k, 4)
        assert norms.shape == (4, k)
        if k > 1:
            assert np.all(norms[:, -1] == math.exp(-40.0))
        expected = central_difference(lambda x: problem.profiled(x)[0], shapes)
        assert_rows_match(jacobians, expected, 1e-6)

    @pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
    def test_norms_are_weighted_projections(self, weighting):
        config = WEIGHTINGS[weighting]
        datasets = negate_bin(synth_dataset(TRUTH, SIX_NORMS, THETAS, 0.05, 3, config=config), 2)
        problem = _FitProblem(datasets, config)
        shapes = random_shapes(np.random.default_rng(5))
        stacked_residuals, _, stacked_norms = problem.profiled(shapes)
        full_x = np.column_stack([shapes, np.log(stacked_norms)])
        chi2 = problem.chi2(full_x)
        for shape_x, residuals, norms, full_chi2 in zip(shapes, stacked_residuals, stacked_norms, chi2):
            series = legendre_coefficients(problem.params_of(shape_x), config)
            expected_residuals = []
            for ds, norm in zip(datasets, norms):
                model = np.asarray(series.evaluate(np.deg2rad(ds.theta_deg))) / ds.errors
                target = ds.yields / ds.errors
                projection = float(model @ target) / float(model @ model)
                expected = min(max(projection, math.exp(-40.0)), math.exp(40.0))
                assert norm == pytest.approx(expected, rel=1e-10)
                # the compressed residual is Q_k^T of the full one, D_k = Q_k R_k
                design = legvander(np.cos(np.deg2rad(ds.theta_deg)), 4) / ds.errors[:, None]
                expected_residuals.append(np.linalg.qr(design)[0].T @ (target - norm * model))
            assert residuals == pytest.approx(np.concatenate(expected_residuals), rel=1e-9, abs=1e-9)
            assert problem.chi2_free + float(residuals @ residuals) == pytest.approx(full_chi2, rel=1e-10)

    @pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
    def test_stacked_call_matches_single_rows(self, weighting):
        # the optimiser evaluates every start in one call; each row must be
        # what that shape gives alone
        config = WEIGHTINGS[weighting]
        problem = _FitProblem(synth_dataset(TRUTH, NORMS, THETAS, 0.05, 6, config=config), config)
        rng = np.random.default_rng(9)
        shapes = random_shapes(rng, 8)
        full_x = np.column_stack([shapes, np.log(NORMS) + rng.normal(0.0, 1.0, (8, 3))])
        for method, x in [
            (problem._evaluate, shapes),
            (problem.profiled, shapes),
            (problem.normal_equations, shapes),
            (problem.residuals_and_jacobian, full_x),
        ]:
            stacked = method(x)
            for i in range(len(x)):
                for whole, single in zip(stacked, method(x[i:i + 1])):
                    assert single.shape == (1,) + whole.shape[1:]
                    scale = float(np.max(np.abs(single)))
                    assert np.max(np.abs(whole[i] - single[0])) <= 1e-12 * scale


def audit_datasets(k, config, seed):
    """k synthetic bins; for k > 1, the last two are a bin of 6 points
    on 3 distinct angles (singular R_k) and an all-negative bin (clipped norm)."""
    datasets = synth_dataset(TRUTH, SIX_NORMS[:k], THETAS, 0.05, seed, config=config)
    if k > 1:
        pairs = np.repeat([40.0, 90.0, 130.0], 2)
        datasets[-2] = synth_dataset(TRUTH, [700.0], pairs, 0.05, seed, config=config, bin_labels=["pairs"])[0]
        datasets = negate_bin(datasets, k - 1)
    return datasets


def full_rows(datasets, config, x):
    """Full-row weighted residuals (S, N) and norms (S, K), with sigma built
    per angle from legendre_coefficients.  x is (S, 4 + K) (shape, log
    norm_k) vectors, or (S, 4) shapes whose norms are the clipped weighted
    projections."""
    residuals, norms = [], []
    for point in x:
        series = legendre_coefficients(ShapeParams(*np.exp(point[:3]), r=math.expm1(point[3])), config)
        rows, bin_norms = [], []
        for k, ds in enumerate(datasets):
            model = np.array([series.evaluate(t) for t in np.deg2rad(ds.theta_deg)]) / ds.errors
            target = ds.yields / ds.errors
            if len(point) > 4:
                norm = math.exp(point[4 + k])
            else:
                norm = min(max(float(model @ target) / float(model @ model), math.exp(-40.0)), math.exp(40.0))
            rows.append(target - norm * model)
            bin_norms.append(norm)
        residuals.append(np.concatenate(rows))
        norms.append(bin_norms)
    return np.array(residuals), np.array(norms)


def gradient_and_gram(jacobian, residuals):
    """J^T r (S, P) and J^T J (S, P, P) of a stack of residuals and Jacobians."""
    return np.einsum("snp,sn->sp", jacobian, residuals), np.einsum("snp,snq->spq", jacobian, jacobian)


class TestCompressionIdentity:
    """Audit: the 5-row-per-bin compressed problem against full rows."""

    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
    def test_compressed_problem_equals_full_rows(self, weighting, k):
        config = WEIGHTINGS[weighting]
        datasets = audit_datasets(k, config, 40 + k)
        problem = _FitProblem(datasets, config)
        rng = np.random.default_rng(50 + k)
        shapes = random_shapes(rng)
        x = np.column_stack([shapes, np.log(SIX_NORMS[:k]) + rng.normal(0.0, 1.0, (4, k))])
        if k > 1:
            assert np.linalg.matrix_rank(problem._r[-2]) == 3

        # the norms at x: chi^2, J^T r and J^T J over (shape, log norm_k)
        full = full_rows(datasets, config, x)[0]
        full_jac = central_difference(lambda z: full_rows(datasets, config, z)[0], x)
        assert problem.chi2(x) == pytest.approx(np.sum(full * full, axis=1), rel=1e-12)
        for got, want in zip(gradient_and_gram(*problem.residuals_and_jacobian(x)[::-1]),
                             gradient_and_gram(full_jac, full)):
            assert_rows_match(got, want, 1e-6)

        # every norm profiled out: the solver's (chi^2, g, H) and the norms
        full, full_norms = full_rows(datasets, config, shapes)
        full_jac = central_difference(lambda z: full_rows(datasets, config, z)[0], shapes)
        chi2, grad, hess = problem.normal_equations(shapes)
        assert chi2 == pytest.approx(np.sum(full * full, axis=1), rel=1e-12)
        assert problem.profiled(shapes)[2] == pytest.approx(full_norms, rel=1e-10)
        if k > 1:
            assert np.all(full_norms[:, -1] == math.exp(-40.0))
        for got, want in zip((grad, hess), gradient_and_gram(full_jac, full)):
            assert_rows_match(got, want, 1e-6)

    def test_keeps_no_row_per_point(self):
        datasets = synth_dataset(TRUTH, NORMS, np.linspace(20.0, 160.0, 37), 0.05, 1)
        problem = _FitProblem(datasets, DEFAULT_CONFIG)
        assert problem.n_points == 111
        shapes = [v.shape for v in vars(problem).values() if isinstance(v, np.ndarray)]
        assert (3, 5, 5) in shapes and (3, 5) in shapes
        assert all(37 not in shape and 111 not in shape for shape in shapes)


class TestSynthDataset:
    def test_deterministic_under_seed(self):
        first = make_noisy(seed=42)
        second = make_noisy(seed=42)
        for a, b in zip(first, second):
            assert np.array_equal(a.yields, b.yields)
            assert np.array_equal(a.errors, b.errors)

    def test_seeds_differ(self):
        a = make_noisy(seed=1)[0]
        b = make_noisy(seed=2)[0]
        assert not np.array_equal(a.yields, b.yields)

    def test_zero_noise_is_exact_model(self):
        datasets = synth_dataset(TRUTH, NORMS, THETAS, 0.0, None)
        series = legendre_coefficients(TRUTH)
        for ds, norm in zip(datasets, NORMS):
            assert ds.unit_weights
            expected = norm * np.asarray(series.evaluate(np.deg2rad(ds.theta_deg)))
            assert ds.yields == pytest.approx(expected, rel=1e-13)

    def test_errors_scale_with_clean_model_not_noise(self):
        ds = make_noisy(seed=9, noise=0.1)[0]
        series = legendre_coefficients(TRUTH)
        clean = NORMS[0] * np.asarray(series.evaluate(np.deg2rad(ds.theta_deg)))
        assert ds.errors == pytest.approx(0.1 * clean, rel=1e-12)

    def test_labels(self):
        default = make_noisy()
        assert [ds.bin_label for ds in default] == ["bin1", "bin2", "bin3"]
        named = synth_dataset(TRUTH, [10.0], THETAS, 0.0, None, bin_labels=["only"])
        assert named[0].bin_label == "only"
        with pytest.raises(ValueError):
            synth_dataset(TRUTH, [10.0, 20.0], THETAS, 0.0, None, bin_labels=["x"])

    def test_negative_noise_raises(self):
        with pytest.raises(ValueError):
            synth_dataset(TRUTH, [10.0], THETAS, -0.1, None)


class TestFitAngular:
    def test_zero_noise_round_trip(self):
        datasets = synth_dataset(TRUTH, NORMS, THETAS, 0.0, None)
        result = fit_angular(datasets, n_starts=8, tol=1e-12)
        assert result.converged
        assert result.chi2 < 1e-10
        assert result.dof == 30 - 7
        assert result.params.A == pytest.approx(TRUTH.A, rel=1e-6)
        assert result.params.B == pytest.approx(TRUTH.B, rel=1e-6)
        assert result.params.C == pytest.approx(TRUTH.C, rel=1e-6)
        assert result.params.r == pytest.approx(TRUTH.r, rel=1e-5, abs=1e-8)
        assert result.norms == pytest.approx(NORMS, rel=1e-6)
        assert result.bin_labels == ("bin1", "bin2", "bin3")
        assert result.n_starts_agreeing >= 1

    def test_noisy_fit_is_calibrated_and_identifiable(self):
        result = fit_angular(make_noisy(seed=7), n_starts=6, tol=1e-10)
        assert result.converged
        assert result.identifiable
        assert 0.2 < result.chi2 / result.dof < 3.0
        sigma = math.sqrt(result.covariance[3, 3])
        pull = (math.log1p(result.params.r) - math.log1p(TRUTH.r)) / sigma
        assert abs(pull) < 3.0

    def test_same_seed_reproduces_fit(self):
        first = fit_angular(make_noisy(), n_starts=4, seed=11, tol=1e-10)
        second = fit_angular(make_noisy(), n_starts=4, seed=11, tol=1e-10)
        assert first.params == second.params
        assert first.chi2 == second.chi2
        assert np.array_equal(first.covariance, second.covariance)

    def test_unseeded_starts_are_deterministic(self):
        first = fit_angular(make_noisy(), n_starts=4, tol=1e-10)
        second = fit_angular(make_noisy(), n_starts=4, tol=1e-10)
        assert first.params == second.params

    def test_covariance_labels(self):
        result = fit_angular(make_noisy(), n_starts=2, tol=1e-8)
        assert result.covariance_labels == (
            "log_A", "log_B", "log_C", "log_1p_r",
            "log_norm_bin1", "log_norm_bin2", "log_norm_bin3",
        )
        assert result.covariance.shape == (7, 7)
        assert np.allclose(result.covariance, result.covariance.T)

    def test_parameter_at_bound_flagged_unidentifiable(self):
        # quadrupole admixture absent: log A runs to its bound with no
        # curvature, which must surface as identifiable=False
        quiet = ShapeParams(A=0.0, B=0.47, C=0.37, r=0.0)
        datasets = synth_dataset(quiet, [1000.0], np.linspace(20, 160, 12), 0.0, None)
        result = fit_angular(datasets, n_starts=2, tol=1e-8, max_iter=150)
        assert result.chi2 < 1e-6
        assert not result.identifiable

    def test_agreeing_count_ignores_rounding_of_one_start(self, monkeypatch):
        # every start of this bin reaches one optimum, and they end up to
        # ~1e-12 relative apart: a rounding-level change of the start
        # nearest the threshold must not move the count
        datasets = read_angular_csv(SAMPLE_ANGULAR)[:1]
        config = ChannelConfig(residual_weighting="spin-cutoff")
        baseline = fit_angular(datasets, config)
        solve = fitkit._solve

        def perturbed(*args):
            chi2, shapes, converged = solve(*args)
            agreeing = np.flatnonzero(chi2 - chi2.min() <= math.sqrt(np.finfo(float).eps) * chi2.min())
            chi2[agreeing[np.argmax(chi2[agreeing])]] *= 1.0 + 1e-12
            return chi2, shapes, converged

        monkeypatch.setattr(fitkit, "_solve", perturbed)
        assert fit_angular(datasets, config).n_starts_agreeing == baseline.n_starts_agreeing
        assert baseline.n_starts_agreeing == 32

    @pytest.mark.parametrize(
        "option",
        [{"n_starts": 3}, {"seed": 4}, {"tol": 1e-4}, {"max_iter": 3}],
        ids=["n_starts", "seed", "tol", "max_iter"],
    )
    def test_every_search_option_changes_the_result(self, option):
        reference = fit_angular(make_noisy(), n_starts=6, tol=1e-10)
        result = fit_angular(make_noisy(), **{"n_starts": 6, "tol": 1e-10, **option})
        assert result.chi2 != reference.chi2

    def test_iteration_cap_leaves_best_start_unconverged(self):
        assert not fit_angular(make_noisy(), n_starts=6, tol=1e-10, max_iter=3).converged

    def test_underdetermined_raises(self):
        datasets = synth_dataset(TRUTH, [100.0], np.linspace(30, 150, 5), 0.0, None)
        with pytest.raises(UnderdeterminedError):
            fit_angular(datasets)

    def test_argument_validation(self):
        datasets = make_noisy()
        with pytest.raises(ValueError):
            fit_angular([])
        with pytest.raises(ValueError):
            fit_angular(datasets, n_starts=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"tol": math.nan}, "tol must be finite and > 0"),
            ({"tol": math.inf}, "tol must be finite and > 0"),
            ({"tol": 0.0}, "tol must be finite and > 0"),
            ({"tol": -1e-8}, "tol must be finite and > 0"),
            ({"max_iter": 0}, "max_iter must be >= 1"),
            ({"tol": 1e-17}, "tol must be >= machine epsilon"),
        ],
    )
    def test_rejects_unusable_stopping_rules(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            fit_angular(make_noisy(), n_starts=1, **kwargs)


class TestLatticeStarts:
    @pytest.mark.parametrize("seed", [None, 0, 12345])
    @pytest.mark.parametrize("n_starts", [1, 6, 32, 100])
    def test_starts_fill_the_box_with_distinct_rows(self, n_starts, seed):
        starts = _lattice_starts(n_starts, seed)
        assert starts.shape == (n_starts, 4)
        assert np.all((starts >= _START_LO) & (starts < _START_HI))
        assert len({row.tobytes() for row in starts}) == n_starts

    def test_unseeded_first_start_is_lower_corner(self):
        assert np.array_equal(_lattice_starts(6, None)[0], _START_LO)
        assert np.array_equal(_lattice_starts(6, None), _lattice_starts(32, None)[:6])

    def test_seed_reproduces_and_shifts_the_sample(self):
        seeded = _lattice_starts(6, 7)
        assert np.array_equal(seeded, _lattice_starts(6, 7))
        assert not np.any(np.all(seeded == _lattice_starts(6, None), axis=1))
        assert not np.array_equal(seeded, _lattice_starts(6, 8))


# four shapes away from every bound
IDENTIFIABILITY_TRUTHS = [
    TRUTH,
    ShapeParams(A=0.5, B=2.0, C=0.1, r=1.0),
    ShapeParams(A=0.2, B=0.8, C=0.6, r=0.3),
    ShapeParams(A=1.0, B=0.3, C=1.5, r=0.05),
]


class TestStructuralIdentifiability:
    """c_4 vanishes at every shape under 2I+1, so (A, B, C, r) cannot all be resolved."""

    @pytest.mark.parametrize("weighting, rows", [("equal", 4), ("2I+1", 3), ("spin-cutoff", 4)])
    def test_shape_rows(self, weighting, rows):
        datasets = synth_dataset(TRUTH, NORMS, THETAS, 0.05, 1)
        assert _FitProblem(datasets, WEIGHTINGS[weighting]).shape_rows == rows

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("truth", IDENTIFIABILITY_TRUTHS)
    def test_two_i_plus_one_fits_are_not_identifiable(self, truth, seed):
        config = WEIGHTINGS["2I+1"]
        datasets = synth_dataset(truth, NORMS[:2], THETAS, 0.05, seed, config=config)
        assert not fit_angular(datasets, config, n_starts=6, tol=1e-10).identifiable

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("truth", IDENTIFIABILITY_TRUTHS)
    def test_equal_weighting_verdict_is_the_covariance_rule(self, truth, seed):
        datasets = synth_dataset(truth, NORMS[:2], THETAS, 0.05, seed)
        result = fit_angular(datasets, n_starts=6, tol=1e-10)
        assert result.identifiable == bool(np.all(np.diag(result.covariance) <= 100.0))


class TestFitRegression:
    """Best chi-square of the variable-projection fit against fixed values."""

    # best chi2 of the joint (4 + K)-parameter search with a finite-difference
    # Jacobian that the variable-projection fit replaced
    @pytest.mark.parametrize(
        "weighting, chi2", [("equal", 17.895341625923283), ("2I+1", 119.04171430471507)]
    )
    def test_sample_best_chi2(self, weighting, chi2):
        result = fit_angular(read_angular_csv(SAMPLE_ANGULAR), WEIGHTINGS[weighting])
        assert result.chi2 == pytest.approx(chi2, rel=1e-8)

    def test_sample_spin_cutoff_chi2(self):
        # the command line's spin-cutoff weighting, sigma = 2; the value is
        # the best chi2 of scipy's trust-region-reflective least_squares
        result = fit_angular(read_angular_csv(SAMPLE_ANGULAR), ChannelConfig(residual_weighting="spin-cutoff"))
        assert result.chi2 <= 17.657184244344784 * (1.0 + 1e-10)
        assert result.chi2 == pytest.approx(17.657184244344784, rel=1e-8)

    # best chi2 of scipy's trust-region-reflective least_squares on three
    # criterion-5 data sets whose fits end on the r = 0 face, where a
    # stopping rule without the gain-ratio condition stopped early
    @pytest.mark.parametrize(
        "seed, chi2",
        [(30, 20.040756093074027), (39, 20.58450888578618), (99, 17.863922128161427)],
    )
    def test_no_worse_than_trust_region_reflective_on_r_zero_face(self, seed, chi2):
        result = fit_angular(synth_dataset(TRUTH, NORMS, THETAS, 0.05, seed), n_starts=6, tol=1e-10)
        assert result.params.r == 0.0
        assert result.converged
        assert chi2 * (1.0 - 1e-8) <= result.chi2 <= chi2 * (1.0 + 1e-10)

    def test_reported_chi2_is_chi_square_at_result(self):
        datasets = synth_dataset(TRUTH, SIX_NORMS, THETAS, 0.05, 4)
        result = fit_angular(datasets, n_starts=6, tol=1e-10)
        assert result.dof == 60 - 10
        assert chi_square(result.params, result.norms, datasets) == pytest.approx(
            result.chi2, rel=1e-10
        )

    def test_all_negative_bin_gets_lower_norm_bound(self):
        datasets = negate_bin(synth_dataset(TRUTH, NORMS, THETAS, 0.05, 8), 1)
        result = fit_angular(datasets, n_starts=4, tol=1e-10)
        assert math.isfinite(result.chi2)
        assert np.all(np.isfinite(result.covariance))
        assert result.norms[1] == pytest.approx(math.exp(-40.0), rel=1e-12)
        assert result.norms[0] > 1.0 and result.norms[2] > 1.0
        assert chi_square(result.params, result.norms, datasets) == pytest.approx(
            result.chi2, rel=1e-10
        )


class TestSpinCutoffExtremes:
    def test_chi_square_raises_where_c0_vanishes(self):
        # A = B = C = 0 leaves E1 with s-wave exit, whose only residual spin 1
        # gets spin-cutoff weight 0 at sigma = 0.01: c_0 = 0
        config = ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=0.01)
        datasets = synth_dataset(TRUTH, [1200.0], THETAS, 0.05, 1)
        with pytest.raises(DegenerateModelError, match="non-positive isotropic"):
            chi_square(ShapeParams(A=0.0, B=0.0, C=0.0, r=0.11), [1200.0], datasets, config)

    def test_fit_converges_at_the_smallest_sigma(self):
        # only residual spin 0 keeps a weight, and its isotropic row is still positive
        config = ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=5e-324)
        datasets = synth_dataset(TRUTH, [1200.0], THETAS, 0.05, 1, config=config)
        result = fit_angular(datasets, config, n_starts=4)
        assert result.converged
        assert math.isfinite(result.chi2)
        assert chi_square(result.params, result.norms, datasets, config) == pytest.approx(
            result.chi2, rel=1e-10
        )


def test_chi_square_overflow_raises():
    # each weighted yield is finite, but its square is not
    datasets = synth_dataset(TRUTH, [1.0], THETAS, 0.0, None)
    datasets[0].yields[3] = 1.5e154
    with pytest.raises(DegenerateModelError, match="overflows"):
        fit_angular(datasets, n_starts=1)


class TestFullProblem:
    """Residuals, Jacobian and covariance over the full (shape, log norm_k) vector."""

    @pytest.mark.parametrize("k", [1, 3, 6])
    @pytest.mark.parametrize("weighting", sorted(WEIGHTINGS))
    def test_jacobian_matches_central_difference(self, weighting, k):
        config = WEIGHTINGS[weighting]
        datasets = synth_dataset(TRUTH, SIX_NORMS[:k], THETAS, 0.05, 20 + k, config=config)
        problem = _FitProblem(datasets, config)
        rng = np.random.default_rng(30 + k)
        x = np.column_stack([random_shapes(rng), np.log(SIX_NORMS[:k]) + rng.normal(0.0, 1.0, (4, k))])
        _, jacobians = problem.residuals_and_jacobian(x)
        assert jacobians.shape == (4, 5 * k, 4 + k)
        expected = central_difference(lambda z: problem.residuals_and_jacobian(z)[0], x)
        assert_rows_match(jacobians, expected, 1e-6)

    # under 2I+1, J^T J has a null direction here (smallest eigenvalue
    # 4e-11, next 3e2), which the covariance floors by design
    @pytest.mark.parametrize("weighting", ["equal", "spin-cutoff"])
    def test_covariance_is_gauss_newton_inverse_at_exact_data(self, weighting):
        # with zero residuals the Hessian of chi^2/2 is exactly J^T J
        config = WEIGHTINGS[weighting]
        datasets = synth_dataset(TRUTH, NORMS, THETAS, 0.0, None, config=config)
        problem = _FitProblem(datasets, config)
        x = np.log([TRUTH.A, TRUTH.B, TRUTH.C, 1.0 + TRUTH.r] + NORMS)
        (residuals,), (jacobian,) = problem.residuals_and_jacobian(x[None])
        assert np.max(np.abs(residuals)) < 1e-9
        expected = np.diag(np.linalg.inv(jacobian.T @ jacobian))
        got = np.diag(_covariance(problem, x))
        assert got == pytest.approx(expected, rel=1e-3)
