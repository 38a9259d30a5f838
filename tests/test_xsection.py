"""Interference-model structure, coefficients and asymmetry.

The dual route here is quadrature: the analytic coefficient assembly is
checked by projecting the evaluated distribution back onto Legendre
polynomials with Gauss-Legendre nodes (scipy basis, independent of the
package recurrence), and the closed-form hemisphere ratio is checked
against adaptive quadrature.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import eval_legendre

from oracles import legendre_project, photoproton_distribution
from photoevap.errors import DegenerateModelError
from photoevap.xsection import (
    ChannelConfig,
    LegendreSeries,
    ShapeParams,
    asymmetry,
    enumerate_terms,
    forward_backward_ratio,
    legendre_coefficients,
    raw_coefficients,
)
from photoevap import xsection
from photoevap.xsection import _coefficient_matrix, _spin_geometry

BASE = ShapeParams(A=0.082, B=0.47, C=0.37, r=0.11)

# frozen against this implementation once its phase convention passed the
# first-principles oracle (TestFirstPrinciplesOracle); guards against silent
# regressions of the term table
BASE_COEFFS = (
    1.0,
    0.5824936681432782,
    -0.25606595896498746,
    -0.10401580425916793,
    -0.011739732377438979,
)
BASE_ASYMMETRY = 1.8745908416797143
ASYMMETRY_BY_R = {
    0.0: 2.019853325051551,
    0.11: 1.8745908416797143,
    0.5: 1.5811251476791,
    1.0: 1.4063279378949094,
    10.0: 1.0633478125923779,
    1000.0: 1.0006749853254602,
}


def params_with(r, A=BASE.A, B=BASE.B, C=BASE.C):
    return ShapeParams(A=A, B=B, C=C, r=r)


class TestShapeParams:
    def test_holds_values(self):
        p = ShapeParams(A=1.0, B=2.0, C=3.0, r=0.5)
        assert (p.A, p.B, p.C, p.r) == (1.0, 2.0, 3.0, 0.5)

    @pytest.mark.parametrize("field", ["A", "B", "C", "r"])
    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_rejects_bad_values(self, field, bad):
        kwargs = dict(A=1.0, B=1.0, C=1.0, r=0.0)
        kwargs[field] = bad
        with pytest.raises(ValueError):
            ShapeParams(**kwargs)

    def test_zero_is_allowed(self):
        ShapeParams(A=0.0, B=0.0, C=0.0, r=0.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            BASE.A = 2.0
        with pytest.raises(AttributeError):
            del BASE.A
        assert vars(BASE) == {"A": 0.082, "B": 0.47, "C": 0.37, "r": 0.11}


class TestChannelConfig:
    def test_defaults(self):
        assert ChannelConfig().residual_weighting == "equal"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"residual_weighting": "uniform"},
            {"spin_cutoff_sigma": 0.0},
            {"spin_cutoff_sigma": -1.0},
            {"spin_cutoff_sigma": math.inf},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            ChannelConfig(**kwargs)


class TestEnumerateTerms:
    def test_default_term_count(self):
        assert len(enumerate_terms()) == 195

    def test_deterministic(self):
        assert enumerate_terms() == enumerate_terms()

    def test_selection_rules_hold_for_every_term(self):
        for t in enumerate_terms():
            assert (t.l1 + t.l2 + t.L) % 2 == 0
            assert (t.l1p + t.l2p + t.L) % 2 == 0
            assert (t.L1 + t.L2 + t.l1p + t.l2p) % 2 == 0
            assert t.l1 in (t.L1 - 1, t.L1 + 1)
            assert t.l2 in (t.L2 - 1, t.L2 + 1)
            assert t.l1p in (0, 1, 2)
            assert t.l2p in (0, 1, 2)
            assert abs(t.l1p - t.L1) <= t.Ip <= t.l1p + t.L1
            assert abs(t.l2p - t.L2) <= t.Ip <= t.l2p + t.L2
            assert abs(t.L1 - t.L2) <= t.L <= min(t.L1 + t.L2, t.l1 + t.l2, t.l1p + t.l2p)

    def test_closed_under_amplitude_swap_with_equal_geometry(self):
        terms = enumerate_terms()
        index = {
            (t.L1, t.L2, t.l1, t.l2, t.l1p, t.l2p, t.Ip, t.L): t.geometry for t in terms
        }
        for t in terms:
            assert index[(t.L2, t.L1, t.l2, t.l1, t.l2p, t.l1p, t.Ip, t.L)] == t.geometry

    def test_cross_terms_feed_only_odd_orders(self):
        for t in enumerate_terms():
            if t.L1 != t.L2:
                assert t.L % 2 == 1
            else:
                assert t.L % 2 == 0


class TestRawCoefficients:
    def test_returns_five_real_floats(self):
        raw = raw_coefficients(BASE)
        assert type(raw) is tuple and len(raw) == 5
        assert all(type(c) is float for c in raw)

    def test_overflowing_square_leaves_a_non_finite_entry(self):
        # A**2 = inf: raw_coefficients returns it, legendre_coefficients reports it
        params = ShapeParams(A=1e200, B=1.0, C=1.0, r=0.0)
        assert not all(map(math.isfinite, raw_coefficients(params)))
        with pytest.raises(DegenerateModelError, match="overflow"):
            legendre_coefficients(params)

    def test_even_orders_independent_of_correlation(self):
        raws = [np.asarray(raw_coefficients(params_with(r))) for r in (0.0, 0.3, 2.0, 7.0)]
        for raw in raws[1:]:
            assert np.array_equal(raw[[0, 2, 4]], raws[0][[0, 2, 4]])

    def test_odd_orders_scale_as_inverse_one_plus_r(self):
        rs = (0.0, 0.3, 2.0, 7.0, 40.0)
        scaled = [
            (1.0 + r) * np.asarray(raw_coefficients(params_with(r)))[[1, 3]] for r in rs
        ]
        for vec in scaled[1:]:
            assert vec == pytest.approx(scaled[0], rel=1e-12)

    def test_even_orders_affine_in_quadrupole_strength(self):
        a_values = (0.0, 0.5, 1.0, 2.0)
        raws = {a: np.asarray(raw_coefficients(params_with(0.11, A=a))) for a in a_values}
        for order in (0, 2, 4):
            f0, f05, f1, f2 = (raws[a][order] for a in a_values)
            # equally spaced second difference vanishes for an affine map
            assert f0 + f1 - 2.0 * f05 == pytest.approx(0.0, abs=1e-12 * max(1.0, abs(f1)))
            slope = f1 - f0
            assert f2 == pytest.approx(f0 + 2.0 * slope, rel=1e-10, abs=1e-12)

    def test_odd_orders_scale_as_sqrt_quadrupole_strength(self):
        a_values = (0.04, 0.25, 1.0, 4.0)
        ratios = [
            np.asarray(raw_coefficients(params_with(0.11, A=a)))[[1, 3]] / math.sqrt(a)
            for a in a_values
        ]
        for vec in ratios[1:]:
            assert vec == pytest.approx(ratios[0], rel=1e-12)

    @pytest.mark.parametrize("field", ["B", "C"])
    def test_quadratic_in_sqrt_exit_ratio(self, field):
        # each coefficient is alpha + beta sqrt(x) + gamma x in either
        # exit ratio; fit on three values, predict a fourth
        xs = (0.25, 1.0, 2.25, 4.0)
        raws = [np.asarray(raw_coefficients(params_with(0.11, **{field: x}))) for x in xs]
        roots = np.sqrt(xs)
        for order in range(5):
            coeffs = np.polyfit(roots[:3], [raws[i][order] for i in range(3)], 2)
            predicted = np.polyval(coeffs, roots[3])
            assert raws[3][order] == pytest.approx(predicted, rel=1e-9, abs=1e-11)

    @given(
        r1=st.floats(min_value=0.0, max_value=1e3),
        r2=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_correlation_invariants_hold_for_random_r(self, r1, r2):
        raw1 = np.asarray(raw_coefficients(params_with(r1)))
        raw2 = np.asarray(raw_coefficients(params_with(r2)))
        assert np.array_equal(raw1[[0, 2, 4]], raw2[[0, 2, 4]])
        assert (1.0 + r1) * raw1[[1, 3]] == pytest.approx(
            (1.0 + r2) * raw2[[1, 3]], rel=1e-12
        )


class TestLegendreCoefficients:
    def test_frozen_reference_point(self):
        series = legendre_coefficients(BASE)
        assert series.coefficients == pytest.approx(BASE_COEFFS, abs=1e-12)
        assert series.scale == pytest.approx(6.1533, abs=1e-9)

    def test_normalised_leading_coefficient(self):
        for r in (0.0, 0.11, 3.0):
            series = legendre_coefficients(params_with(r))
            assert series.coefficients[0] == 1.0

    def test_coefficients_are_builtin_floats(self):
        series = legendre_coefficients(BASE)
        assert all(type(c) is float for c in series.coefficients)

    def test_phase_keyword_is_ignored(self):
        assert legendre_coefficients(BASE, huby_phase=True) == legendre_coefficients(BASE)
        assert legendre_coefficients(BASE, huby_phase=False) == legendre_coefficients(BASE)

    def test_dipole_only_has_even_orders_up_to_two(self):
        series = legendre_coefficients(params_with(BASE.r, A=0.0))
        assert series.coefficients[1] == 0.0
        assert series.coefficients[3] == 0.0
        assert series.coefficients[4] == 0.0
        assert series.coefficients[2] == pytest.approx(-0.33951411067085385, abs=1e-12)


    @pytest.mark.parametrize(
        "params, config, message",
        [
            # A**2 or B**2 overflows to inf, which leaves inf or NaN in the raw coefficients
            (ShapeParams(A=1e308, B=1.0, C=1.0, r=0.0), ChannelConfig(), "overflow"),
            (ShapeParams(A=1.0, B=1e200, C=0.0, r=1.0), ChannelConfig(), "overflow"),
            # A**2 and C**2 are finite; only their product A**2 C**2 overflows
            (ShapeParams(A=1e150, B=1.0, C=1e150, r=0.0), ChannelConfig(), "overflow"),
            # c_0 = 0: A = B = C = 0 leaves E1 with s-wave exit, which reaches only
            # I' = 1, and a 0.01 spin cutoff weights that to zero
            (
                ShapeParams(A=0.0, B=0.0, C=0.0, r=0.11),
                ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=0.01),
                "non-positive isotropic",
            ),
        ],
        ids=["A-overflow", "B-overflow", "AC-product-overflow", "spin-zero-s-wave"],
    )
    def test_degenerate_coefficients_raise(self, params, config, message):
        with pytest.raises(DegenerateModelError, match=message):
            legendre_coefficients(params, config)
        with pytest.raises(DegenerateModelError, match=message):
            asymmetry(params, config)

    def test_largest_finite_products_still_evaluate(self):
        series = legendre_coefficients(ShapeParams(A=1e150, B=1.0, C=1.0, r=0.0))
        assert all(math.isfinite(c) for c in series.coefficients)

    def test_tiny_spin_cutoff_sigma_keeps_only_spin_zero(self):
        # 2 sigma^2 underflows to 0 here; the weights must still be exp(-I'(I'+1)/2sigma^2)
        config = ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=1e-200)
        matrix = _coefficient_matrix(config)[0]
        terms = enumerate_terms(config)
        assert all(t.geometry == 0 for t in terms if t.Ip > 0)
        assert any(t.geometry != 0 for t in terms if t.Ip == 0)
        assert np.all(np.isfinite(matrix))


class TestSeriesEvaluation:
    def test_matches_direct_polynomial_sum(self):
        series = legendre_coefficients(BASE)
        theta = np.linspace(0.0, math.pi, 61)
        direct = sum(
            c * eval_legendre(order, np.cos(theta))
            for order, c in enumerate(series.coefficients)
        )
        assert series.evaluate(theta) == pytest.approx(direct, abs=1e-13)

    def test_scalar_form(self):
        series = legendre_coefficients(BASE)
        value = series.evaluate(0.5)
        assert isinstance(value, float)
        assert value == pytest.approx(series.evaluate(np.array([0.5]))[0], abs=1e-15)

    def test_sequence_form_is_a_list(self):
        series = legendre_coefficients(BASE)
        values = series.evaluate([0.0, 0.5, math.pi])
        assert type(values) is list and all(type(v) is float for v in values)
        assert values == [series.evaluate(t) for t in (0.0, 0.5, math.pi)]

    def test_domain_validation(self):
        series = legendre_coefficients(BASE)
        with pytest.raises(ValueError):
            series.evaluate(-0.01)
        with pytest.raises(ValueError):
            series.evaluate(math.pi + 0.01)
        # NaN compares false with both ends of the range
        with pytest.raises(ValueError):
            LegendreSeries((1.0, 0.1, 0.2, 0.0, 0.0)).evaluate(math.nan)
        with pytest.raises(ValueError):
            series.evaluate([0.1, math.nan, 0.2])
        with pytest.raises(ValueError):
            series.evaluate(np.array([0.1, math.nan, 0.2]))

    # a coefficient m * 10^k, so one series mixes magnitudes over twelve decades; m is
    # rounded to 6 places so that no coefficient is subnormal
    @given(
        st.lists(
            st.builds(lambda m, k: m * 10.0**k, st.floats(-1.0, 1.0).map(lambda m: round(m, 6)), st.integers(-6, 6)),
            min_size=5, max_size=5,
        ),
        st.floats(0.0, math.pi),
    )
    def test_within_32_eps_of_the_legendre_sum(self, coefficients, theta):
        exact = np.polynomial.legendre.legval(math.cos(theta), coefficients)
        bound = 32 * np.finfo(float).eps * sum(map(abs, coefficients))
        assert abs(LegendreSeries(tuple(coefficients)).evaluate(theta) - exact) <= bound

    def test_unit_series_are_the_written_out_polynomials(self):
        # fitkit's compressed design is built from these five series
        theta = np.linspace(0.0, math.pi, 721)
        x = [math.cos(t) for t in theta.tolist()]
        closed_forms = [
            [1.0] * len(x),
            x,
            [1.5 * (u * u) - 0.5 for u in x],
            [(2.5 * (u * u) - 1.5) * u for u in x],
            [(4.375 * (u * u) - 3.75) * (u * u) + 0.375 for u in x],
        ]
        for order, expected in enumerate(closed_forms):
            unit = LegendreSeries(tuple(float(L == order) for L in range(5)))
            assert unit.evaluate(theta) == expected

    ANGLES = (0.0, 0.25, 1.0, 2.0, 3.0)
    LIST_FORMS = {
        "float64-array": np.array,
        "list": list,
        "tuple": tuple,
        "generator": lambda angles: (t for t in angles),
        "map": lambda angles: map(float, angles),
    }
    SCALAR_FORMS = {"0-d-array": np.array, "numpy-scalar": np.float64, "float": float}

    @pytest.mark.parametrize("form", LIST_FORMS.values(), ids=LIST_FORMS)
    def test_iterable_forms_give_one_list(self, form):
        series = legendre_coefficients(BASE)
        values = series.evaluate(form(self.ANGLES))
        assert type(values) is list and all(type(v) is float for v in values)
        assert values == [series.evaluate(t) for t in self.ANGLES]

    @pytest.mark.parametrize("form", SCALAR_FORMS.values(), ids=SCALAR_FORMS)
    def test_scalar_forms_give_one_float(self, form):
        series = legendre_coefficients(BASE)
        value = series.evaluate(form(1.0))
        assert type(value) is float and value == series.evaluate([1.0])[0]

    def test_float32_array_reads_its_elements(self):
        series = legendre_coefficients(BASE)
        # float32(pi) exceeds pi but compares in float32, so it stays in range as before
        theta = np.linspace(0.0, math.pi, 7, dtype=np.float32)
        values = series.evaluate(theta)
        assert type(values) is list and all(type(v) is float for v in values)
        assert values == [series.evaluate(t) for t in theta]
        assert values[:-1] == series.evaluate(theta[:-1].tolist())

    @pytest.mark.parametrize("bad", [math.nan, -0.01, math.pi + 0.01])
    @pytest.mark.parametrize(
        "form", [*LIST_FORMS.values(), lambda angles: np.array(angles, dtype=np.float32)],
        ids=[*LIST_FORMS, "float32-array"],
    )
    def test_bad_angle_raises_in_every_form(self, form, bad):
        series = legendre_coefficients(BASE)
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
            series.evaluate(form((*self.ANGLES, bad)))
        for scalar in self.SCALAR_FORMS.values():
            with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
                series.evaluate(scalar(bad))

    def test_two_dimensional_array_raises(self):
        with pytest.raises(ValueError):
            legendre_coefficients(BASE).evaluate(np.array([[0.1, 0.2], [0.3, 0.4]]))


PROJECTION_CASES = [
    BASE,
    ShapeParams(A=1.0, B=1.0, C=1.0, r=0.0),
    ShapeParams(A=0.5, B=2.0, C=0.1, r=3.0),
    ShapeParams(A=0.0, B=1.2, C=0.8, r=0.5),
    ShapeParams(A=3.0, B=0.2, C=5.0, r=0.0),
]


class TestQuadratureProjection:
    @pytest.mark.parametrize("params", PROJECTION_CASES)
    def test_coefficients_match_projected_series(self, params):
        series = legendre_coefficients(params)
        projected = legendre_project(series.evaluate, 9)
        assert projected[:5] == pytest.approx(series.coefficients, abs=1e-10)
        assert np.max(np.abs(projected[5:])) < 1e-10

    def test_no_orders_above_four(self):
        series = legendre_coefficients(params_with(0.0, A=5.0, B=3.0, C=7.0))
        projected = legendre_project(series.evaluate, 12)
        assert np.max(np.abs(projected[5:])) < 1e-9


class TestAsymmetry:
    def test_frozen_reference_values(self):
        for r, expected in ASYMMETRY_BY_R.items():
            assert asymmetry(params_with(r)) == pytest.approx(expected, rel=1e-12)

    def test_matches_adaptive_quadrature(self):
        for params in (BASE, ShapeParams(A=0.5, B=2.0, C=0.1, r=1.0)):
            series = legendre_coefficients(params)

            def weighted(theta):
                return series.evaluate(theta) * math.sin(theta)

            forward, _ = quad(weighted, 0.0, math.pi / 2)
            backward, _ = quad(weighted, math.pi / 2, math.pi)
            assert forward_backward_ratio(series) == pytest.approx(
                forward / backward, rel=1e-8
            )

    def test_decays_monotonically_to_unity(self):
        values = [asymmetry(params_with(r)) for r in sorted(ASYMMETRY_BY_R)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 1.0 for v in values)

    def test_symmetric_limit(self):
        params = params_with(1e12)
        series = legendre_coefficients(params)
        assert abs(asymmetry(params) - 1.0) <= 1e-10
        theta = np.linspace(0.0, math.pi / 2, 25)
        assert series.evaluate(theta) == pytest.approx(
            series.evaluate(math.pi - theta), abs=1e-10
        )

    def test_forward_peaked_at_reference_point(self):
        assert asymmetry(BASE) > 1.05
        series = legendre_coefficients(BASE)
        assert series.evaluate(math.pi / 6) > series.evaluate(5 * math.pi / 6)

    def test_residual_weighting_changes_shape(self):
        two_i = asymmetry(BASE, ChannelConfig(residual_weighting="2I+1"))
        cutoff = asymmetry(BASE, ChannelConfig(residual_weighting="spin-cutoff"))
        assert two_i == pytest.approx(1.8429235104845452, rel=1e-10)
        assert cutoff == pytest.approx(1.888224163165425, rel=1e-10)
        assert two_i < BASE_ASYMMETRY < cutoff

    @pytest.mark.parametrize(
        "config",
        [ChannelConfig(), ChannelConfig("2I+1")]
        + [ChannelConfig("spin-cutoff", sigma) for sigma in (0.7, 2.0, 3.9)],
        ids=["equal", "2I+1", "spin-cutoff-0.7", "spin-cutoff-2", "spin-cutoff-3.9"],
    )
    def test_interference_signs_hold_everywhere(self, config):
        # row 1 of every G[I'] is positive and row 3's I' = 0 entry outweighs the rest,
        # so c_1 >= 0, c_3 <= 0 and U >= 1 at every shape, whatever the weighting
        rng = np.random.default_rng(7)
        for point in np.exp(rng.uniform(math.log(1e-6), math.log(1e4), (2000, 4))):  # the fit's box
            series = legendre_coefficients(ShapeParams(*point), config)
            _, c1, _, c3, _ = series.coefficients
            assert c1 >= 0.0 and c3 <= 0.0, point
            assert forward_backward_ratio(series) >= 1.0, point

    def test_negative_backward_yield_raises(self):
        with pytest.raises(DegenerateModelError):
            forward_backward_ratio(LegendreSeries((1.0, 3.0, 0.0, 0.0, 0.0)))


AUDIT_CONFIGS = {
    "equal": ChannelConfig(),
    "2I+1": ChannelConfig(residual_weighting="2I+1"),
    "spin-cutoff-1.3": ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=1.3),
    "spin-cutoff-0.7": ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=0.7),
    "spin-cutoff-3.9": ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=3.9),
    # the command line's spin-cutoff weighting
    "spin-cutoff-2": ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=2.0),
}


def audit_points(seed=2024, n=12):
    """Seeded points: each of A, B and C zero somewhere, r from 0 to 1e3."""
    rng = np.random.default_rng(seed)
    points = [
        ShapeParams(A=0.0, B=0.47, C=0.37, r=0.11),
        ShapeParams(A=0.082, B=0.0, C=0.37, r=1e3),
        ShapeParams(A=0.082, B=0.47, C=0.0, r=0.0),
        ShapeParams(A=0.0, B=0.0, C=0.0, r=5.0),
    ]
    for _ in range(n):
        a, b, c = np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 3))
        points.append(ShapeParams(A=a, B=b, C=c, r=float(10.0 ** rng.uniform(-3.0, 3.0))))
    return points


class TestCoefficientMatrix:
    """c = M m against the explicit sum over the enumerated terms.

    xsection and the fit both read M, so this comparison is what keeps
    the term list the independent reference for the grouped matrix.
    """

    def test_default_matrix_is_five_by_ten_and_read_only(self):
        matrix, powers = _coefficient_matrix(ChannelConfig())
        assert np.asarray(matrix).shape == (5, 10)
        assert np.asarray(powers).shape == (10, 4)
        # k, the power of 1/(1+r), is 1 exactly on the a == 1 (dipole-quadrupole) rows
        assert [k for _, _, _, k in powers] == [int(a == 1) for a, _, _, _ in powers]
        # tuples all the way down: no caller can write into M
        assert isinstance(matrix, tuple) and all(type(row) is tuple for row in matrix)

    def test_geometry_keeps_only_nonzero_entries(self):
        geometry, powers = _spin_geometry()
        assert len(geometry) == 47
        assert all(value != 0.0 for _, _, _, value in geometry)
        assert all(0 <= order <= 4 and 0 <= j < len(powers) for _, order, j, _ in geometry)
        # one sorted flat table: each (I', L, j) once
        assert list(geometry) == sorted(geometry) and len({entry[:3] for entry in geometry}) == 47

    @pytest.mark.parametrize("name", sorted(AUDIT_CONFIGS))
    def test_matches_explicit_term_sum(self, name):
        config = AUDIT_CONFIGS[name]
        terms = enumerate_terms(config)
        for params in audit_points():
            expected = np.zeros(5)
            for t in terms:
                # sqrt(A^a B^b C^c), counted from the term's own fields, over (1+r) for cross terms
                a = [t.L1, t.L2].count(2)
                b = [t.l1p, t.l2p].count(1)
                c = [t.l1p, t.l2p].count(2)
                factor = math.sqrt(params.A ** a * params.B ** b * params.C ** c)
                if t.L1 != t.L2:
                    factor /= 1.0 + params.r
                expected[t.L] += t.geometry * factor
            got = raw_coefficients(params, config)
            # relative to the largest coefficient: some orders cancel to rounding
            scale = float(np.max(np.abs(expected)))
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)


class TestSpinGeometry:
    """M = sum_I' w(I') G[I'] from one sigma-free geometry."""

    def test_unseen_sigma_reuses_the_geometry(self, monkeypatch):
        legendre_coefficients(BASE, ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=2.0))
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_terms(*args, **kwargs)

        monkeypatch.setattr(xsection, "enumerate_terms", counting)
        for sigma in (0.37, 1.11, 2.71, 5.3, 17.0):
            legendre_coefficients(BASE, ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=sigma))
        assert calls == []

    def test_every_i_power_exponent_is_even(self):
        # the photon phase i**(L2 - L1 + l1 - l2) times Huby's i**(l2 - l1 + l2p - l1p - 2L)
        # is then a sign, so each term's geometry is real and needs no imaginary part
        for t in enumerate_terms():
            assert (t.L2 - t.L1 + t.l2p - t.l1p) % 2 == 0


def oracle_coefficients(magnitude, weight):
    """c_0-normalised Legendre projection of the first-principles distribution."""
    projected = legendre_project(lambda theta: photoproton_distribution(theta, magnitude, weight), 5)
    return projected / projected[0]


def oracle_weight(config):
    """w(I') written out from the weighting's definition."""
    sigma = config.spin_cutoff_sigma
    return {
        "equal": lambda spin: 1.0,
        "2I+1": lambda spin: 2.0 * spin + 1.0,
        "spin-cutoff": lambda spin: math.exp(-spin * (spin + 1) / (2.0 * sigma ** 2)),
    }[config.residual_weighting]


ORACLE_CHANNELS = [
    (L, exit_orbital, spin)
    for L in (1, 2)
    for exit_orbital in (0, 1, 2)
    for spin in range(abs(L - exit_orbital), L + exit_orbital + 1)
]


class TestFirstPrinciplesOracle:
    """The model's geometry against the partial-wave amplitude sum.

    The oracle (tests/oracles.py) squares the amplitudes themselves and
    shares no code with the Z-coefficient terms.  Huby's revision of the
    Z phase passes both checks; the original phase fails them.
    """

    @staticmethod
    def channel_coefficients(L, exit_orbital, spin):
        coefficients = np.zeros(5)
        for t in enumerate_terms():
            if (t.L1, t.L2, t.l1p, t.l2p, t.Ip) == (L, L, exit_orbital, exit_orbital, spin):
                coefficients[t.L] += t.geometry
        return coefficients / coefficients[0]

    @pytest.mark.parametrize(
        "L, exit_orbital, expected",
        [(1, 1, (1.0, 0.0, -1.0, 0.0, 0.0)), (2, 2, (1.0, 0.0, 5 / 7, 0.0, -12 / 7))],
        ids=["E1-sin2", "E2-sin2cos2"],
    )
    def test_spinless_residue_channels_have_closed_forms(self, L, exit_orbital, expected):
        # E1 with l' = 1 and I' = 0 is sin^2, E2 with l' = 2 and I' = 0 is sin^2 cos^2
        oracle = oracle_coefficients(lambda L_, l: float((L_, l) == (L, exit_orbital)), lambda spin: float(spin == 0))
        assert oracle == pytest.approx(expected, abs=1e-12)
        assert self.channel_coefficients(L, exit_orbital, 0) == pytest.approx(expected, abs=1e-12)

    def test_there_are_sixteen_channels(self):
        channels = {(t.L1, t.l1p, t.Ip) for t in enumerate_terms() if t.L1 == t.L2 and t.l1p == t.l2p}
        assert sorted(channels) == ORACLE_CHANNELS

    @pytest.mark.parametrize("L, exit_orbital, spin", ORACLE_CHANNELS)
    def test_each_channel_matches_the_oracle(self, L, exit_orbital, spin):
        oracle = oracle_coefficients(
            lambda L_, l: float((L_, l) == (L, exit_orbital)), lambda s: float(s == spin)
        )
        assert self.channel_coefficients(L, exit_orbital, spin) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("name", AUDIT_CONFIGS)
    def test_coherent_sum_at_zero_r_matches_the_oracle(self, name):
        config = AUDIT_CONFIGS[name]
        for point in audit_points(seed=31, n=4):
            A, B, C = point.A, point.B, point.C
            oracle = oracle_coefficients(
                lambda L, l: math.sqrt(A ** (L == 2) * B ** (l == 1) * C ** (l == 2)), oracle_weight(config)
            )
            series = legendre_coefficients(ShapeParams(A, B, C, 0.0), config)
            assert series.coefficients == pytest.approx(oracle, abs=1e-12)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class TestHubyReference:
    """Term geometries and M, bit for bit those of 0.1.0's huby_phase=True.

    Each digest is the SHA-256 prefix of the values as float.hex, one line
    per term (its quantum numbers, then its geometry) or per row of M.
    """

    TERM_DIGESTS = {
        "2I+1": "47483017011b07fa",
        "equal": "d0acf62acbeadcbd",
        "spin-cutoff-0.7": "60ab93c4199f0246",
        "spin-cutoff-1.3": "3cd8345db1f295a2",
        "spin-cutoff-2": "2f982ba5e9859d91",
        "spin-cutoff-3.9": "b4fd5f0b6b02003c",
    }
    MATRIX_DIGESTS = {
        "2I+1": "00cd71d9656e8908",
        "equal": "9c86bb3591cee104",
        "spin-cutoff-0.7": "eb180c79862e8a56",
        "spin-cutoff-1.3": "614b0dfdf23d997c",
        "spin-cutoff-2": "4977a8fc378e5d9e",
        "spin-cutoff-3.9": "2c6160a5f12bdeae",
    }

    @pytest.mark.parametrize("name", sorted(AUDIT_CONFIGS))
    def test_term_geometries_are_the_huby_table(self, name):
        terms = enumerate_terms(AUDIT_CONFIGS[name])
        assert len(terms) == 195
        lines = [
            " ".join(map(str, tuple(vars(t).values())[:-1])) + " " + float.hex(t.geometry)
            for t in terms
        ]
        assert _digest(lines) == self.TERM_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(AUDIT_CONFIGS))
    def test_matrix_is_the_huby_matrix(self, name):
        matrix = _coefficient_matrix.__wrapped__(AUDIT_CONFIGS[name])[0]
        assert _digest(" ".join(map(float.hex, row)) for row in matrix) == self.MATRIX_DIGESTS[name]


def _bits(matrix):
    return np.asarray(matrix, dtype=float).tobytes()


class TestMatrixMemo:
    """One M per configuration, bit for bit the cold build."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        _coefficient_matrix.cache_clear()
        yield
        _coefficient_matrix.cache_clear()

    def test_repeated_key_returns_the_same_object(self):
        first = _coefficient_matrix(ChannelConfig("spin-cutoff", 1.3))
        assert _coefficient_matrix(ChannelConfig("spin-cutoff", 1.3)) is first
        assert _coefficient_matrix(ChannelConfig("spin-cutoff", 1.4)) is not first

    @pytest.mark.parametrize("name", sorted(AUDIT_CONFIGS))
    def test_memoised_matrix_is_the_cold_build(self, name):
        config = AUDIT_CONFIGS[name]
        _coefficient_matrix(config)
        matrix, powers = _coefficient_matrix(config)
        cold_matrix, cold_powers = _coefficient_matrix.__wrapped__(config)
        assert _bits(matrix) == _bits(cold_matrix)
        assert powers == cold_powers

    def test_memo_stays_bounded_over_unseen_sigmas(self):
        bound = _coefficient_matrix.cache_parameters()["maxsize"]
        in_turn = [ChannelConfig(), ChannelConfig("2I+1"), ChannelConfig("spin-cutoff")]
        for config in in_turn:
            _coefficient_matrix(config)
        hits = _coefficient_matrix.cache_info().hits
        for k in range(bound + 8):
            config = ChannelConfig("spin-cutoff", 0.55 + 0.25 * k)
            assert _bits(_coefficient_matrix(config)[0]) == _bits(
                _coefficient_matrix.__wrapped__(config)[0]
            )
            for other in in_turn:
                _coefficient_matrix(other)
            assert _coefficient_matrix.cache_info().currsize <= bound
        # configurations used in turn stay resident while unseen sigmas pass through
        assert _coefficient_matrix.cache_info().hits == hits + len(in_turn) * (bound + 8)


def test_forward_backward_ratio_rejects_orders_above_four():
    with pytest.raises(ValueError, match="above P_4"):
        forward_backward_ratio(LegendreSeries((1.0, 0.1, 0.0, 0.0, 0.0, 0.01)))


@pytest.mark.parametrize(
    "coefficients",
    [
        (),
        (1.0, 0.3),
        (1.0, math.nan, 0.0, 0.0, 0.0),
        (math.inf, 0.0, 0.0, 0.0, 0.0),
        (1.0, 0.0, -math.inf, 0.0, 0.0),
    ],
    ids=["empty", "short", "nan", "inf", "minus-inf"],
)
def test_series_rejects_bad_coefficients(coefficients):
    # a NaN coefficient used to give U = NaN: NaN passes "backward <= 0" unnoticed.
    # The constructor itself must refuse: a short tuple would also fail to unpack later.
    with pytest.raises(ValueError, match="needs c_0..c_4|finite"):
        LegendreSeries(coefficients)


@pytest.mark.parametrize(
    "weighting, sigma",
    [("equal", 2.0), ("2I+1", 2.0)]
    + [("spin-cutoff", sigma) for sigma in (5e-324, 1e-300, 0.01, 1.3, 2.0, 1e300)],
)
def test_isotropic_row_is_non_negative_with_a_positive_entry(weighting, sigma):
    """M[0] >= 0 with one entry > 0, so c_0 > 0 at every shape with A, B, C > 0.

    The fit never checks c_0, so this sign is what keeps its
    normalisation away from zero.
    """
    isotropic = np.asarray(_coefficient_matrix(ChannelConfig(weighting, sigma))[0][0])
    assert np.all(isotropic >= 0.0)
    assert np.any(isotropic > 0.0)
