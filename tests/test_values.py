"""The value-type contract of the package's frozen types.

Each type is built from its fields in order, keeps them frozen, shows
them in its repr, compares and hashes by type and fields, survives
pickle and deepcopy, and keeps its constructor's field names and
defaults.  ``vars`` of a ``ShapeParams`` is the ``params`` object of the
``model`` and ``fit`` JSON, so its key order is pinned too.  A checked type
stores Python floats (ints for ``NucleusSpec``) copied from its arguments,
and every input check reads an int beyond the double range as the infinite
float of its sign.
"""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest

from photoevap.errors import DataFormatError
from photoevap.fitkit import AngularDataset, FitResult, fit_angular, synth_dataset
from photoevap.thermo import (
    ExcitonReport,
    NucleusSpec,
    SigmaInvTable,
    SpectrumPoint,
    TemperatureFit,
    TimescaleReport,
    exciton_report,
    inverse_capture_xsec,
    timescales,
)
from photoevap.xsection import ChannelConfig, LegendreSeries, ShapeParams, TermAmplitude, _coefficient_matrix

EMPTY = inspect.Parameter.empty
COVARIANCE = np.diag([0.5, 0.25, 0.125, 0.0625, 0.01])

# (value, its repr, the constructor's (field, default) pairs)
CASES = {
    "ShapeParams": (
        ShapeParams(0.1, 0.5, 0.4, 0.2),
        "ShapeParams(A=0.1, B=0.5, C=0.4, r=0.2)",
        [("A", EMPTY), ("B", EMPTY), ("C", EMPTY), ("r", EMPTY)],
    ),
    "ChannelConfig": (
        ChannelConfig("spin-cutoff", 1.3),
        "ChannelConfig(residual_weighting='spin-cutoff', spin_cutoff_sigma=1.3)",
        [("residual_weighting", "equal"), ("spin_cutoff_sigma", 2.0)],
    ),
    "TermAmplitude": (
        TermAmplitude(1, 2, 0, 1, 1, 2, 1, 3, -0.25),
        "TermAmplitude(L1=1, L2=2, l1=0, l2=1, l1p=1, l2p=2, Ip=1, L=3, geometry=-0.25)",
        [(name, EMPTY) for name in ("L1", "L2", "l1", "l2", "l1p", "l2p", "Ip", "L", "geometry")],
    ),
    "LegendreSeries": (
        LegendreSeries((1.0, 0.1, -0.2, 0.0, 0.05), 3.5),
        "LegendreSeries(coefficients=(1.0, 0.1, -0.2, 0.0, 0.05), scale=3.5)",
        [("coefficients", EMPTY), ("scale", 1.0)],
    ),
    "NucleusSpec": (
        NucleusSpec(208, 82),
        "NucleusSpec(mass_number=208, charge=82)",
        [("mass_number", EMPTY), ("charge", EMPTY)],
    ),
    "SpectrumPoint": (
        SpectrumPoint(2.0, 10.0, 0.3),
        "SpectrumPoint(eps=2.0, counts=10.0, err=0.3)",
        [("eps", EMPTY), ("counts", EMPTY), ("err", 0.0)],
    ),
    "SigmaInvTable": (
        SigmaInvTable((1.0, 2.0, 4.0), (0.5, 1.5, 2.0)),
        "SigmaInvTable(eps=(1.0, 2.0, 4.0), sigma=(0.5, 1.5, 2.0))",
        [("eps", EMPTY), ("sigma", EMPTY)],
    ),
    "TemperatureFit": (
        TemperatureFit(0.61, 7.25, 0.02, 12),
        "TemperatureFit(temperature=0.61, log_intercept=7.25, temperature_err=0.02, n_points=12)",
        [(name, EMPTY) for name in ("temperature", "log_intercept", "temperature_err", "n_points")],
    ),
    "ExcitonReport": (
        ExcitonReport(16.0, 14.2, 2.6, 0.38, 0.54),
        "ExcitonReport(g=16.0, n_bar=14.2, n_sigma=2.6, t_low=0.38, t_high=0.54)",
        [(name, EMPTY) for name in ("g", "n_bar", "n_sigma", "t_low", "t_high")],
    ),
    "TimescaleReport": (
        TimescaleReport(0.011, 6e-14, 6.5e-15, 3.3e-22, 1.8e8, 6.6e-6, 2e16),
        "TimescaleReport(beta=0.011, tau_phase=6e-14, tau_cn=6.5e-15, tau_thermalization=3.3e-22,"
        " tau_ratio=180000000.0, t_heisenberg=6.6e-06, n_eff=2e+16)",
        [
            (name, EMPTY)
            for name in (
                "beta", "tau_phase", "tau_cn", "tau_thermalization", "tau_ratio", "t_heisenberg", "n_eff"
            )
        ],
    ),
    "FitResult": (
        FitResult(ShapeParams(0.1, 0.5, 0.4, 0.2), (2.5,), 3.75, 7, COVARIANCE, True, 30, True, ("E55",)),
        f"FitResult(params=ShapeParams(A=0.1, B=0.5, C=0.4, r=0.2), norms=(2.5,), chi2=3.75, dof=7,"
        f" covariance={COVARIANCE!r}, converged=True, n_starts_agreeing=30, identifiable=True,"
        f" bin_labels=('E55',))",
        [
            (name, EMPTY)
            for name in (
                "params", "norms", "chi2", "dof", "covariance", "converged", "n_starts_agreeing",
                "identifiable", "bin_labels",
            )
        ],
    ),
}
NAMES = sorted(CASES)


def _fields(value):
    return list(vars(value).items())


def _same_fields(a, b):
    # covariance is an ndarray, whose == is elementwise
    assert type(a) is type(b)
    assert [name for name, _ in _fields(a)] == [name for name, _ in _fields(b)]
    for (_, x), (_, y) in zip(_fields(a), _fields(b)):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        else:
            assert x == y and type(x) is type(y)


@pytest.mark.parametrize("name", NAMES)
class TestFrozenValueTypes:
    def test_fields_in_constructor_order(self, name):
        value, _, signature = CASES[name]
        params = inspect.signature(type(value)).parameters
        assert [(p.name, p.default) for p in params.values()] == signature
        assert [field for field, _ in _fields(value)] == [field for field, _ in signature]

    def test_repr(self, name):
        value, text, _ = CASES[name]
        assert repr(value) == text

    def test_frozen(self, name):
        value, text, signature = CASES[name]
        for field, _ in signature:
            with pytest.raises(AttributeError):
                setattr(value, field, 1.0)
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1.0
        assert repr(value) == text

    def test_equal_by_type_and_fields(self, name):
        value, _, _ = CASES[name]
        fields = tuple(vars(value).values())
        rebuilt = type(value)(*fields)
        if name != "FitResult":  # a distinct covariance array makes == ambiguous, as for the tuple
            assert rebuilt == value and not rebuilt != value
        assert value == value
        assert value != fields
        assert value.__eq__(fields) is NotImplemented

        class Derived(type(value)):
            pass

        assert Derived(*fields) != value

    def test_hash_is_the_field_tuple_hash(self, name):
        value, _, _ = CASES[name]
        if name == "FitResult":
            with pytest.raises(TypeError):  # the covariance is an unhashable ndarray
                hash(value)
        else:
            assert hash(value) == hash(tuple(vars(value).values()))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, name, protocol):
        value, text, _ = CASES[name]
        back = pickle.loads(pickle.dumps(value, protocol))
        _same_fields(back, value)
        assert repr(back) == text
        with pytest.raises(AttributeError):
            setattr(back, next(iter(vars(back))), 1.0)

    def test_deepcopy_round_trip(self, name):
        value, text, _ = CASES[name]
        back = copy.deepcopy(value)
        _same_fields(back, value)
        assert repr(back) == text
        _same_fields(copy.copy(value), value)


class TestShapeParamsContract:
    def test_not_equal_to_its_tuple(self):
        assert ShapeParams(0.1, 0.5, 0.4, 0.2) != (0.1, 0.5, 0.4, 0.2)
        assert ShapeParams(0.1, 0.5, 0.4, 0.2) != ShapeParams(0.1, 0.5, 0.4, 0.3)

    def test_vars_is_the_json_params_object(self):
        params = ShapeParams(r=0.2, C=0.4, B=0.5, A=0.1)
        assert list(vars(params)) == ["A", "B", "C", "r"]
        assert vars(params) == {"A": 0.1, "B": 0.5, "C": 0.4, "r": 0.2}


class TestChannelConfigContract:
    def test_equal_configs_share_one_cached_matrix(self):
        # _coefficient_matrix's lru_cache keys on the config: equal configs must hash alike
        a = ChannelConfig("spin-cutoff", 1.3)
        b = ChannelConfig(residual_weighting="spin-cutoff", spin_cutoff_sigma=1.3)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(("spin-cutoff", 1.3))
        assert _coefficient_matrix(a) is _coefficient_matrix(b)
        assert ChannelConfig() == ChannelConfig("equal", 2.0)
        assert ChannelConfig("2I+1") != ChannelConfig("equal")


class TestAngularDatasetStaysMutable:
    def test_signature_and_attributes(self):
        params = inspect.signature(AngularDataset).parameters
        assert [(p.name, p.default) for p in params.values()] == [
            ("bin_label", EMPTY), ("theta_deg", EMPTY), ("yields", EMPTY), ("errors", None)
        ]
        ds = AngularDataset("b", [30, 60, 90, 120, 150], [5, 6, 7, 6, 5])
        assert list(vars(ds)) == ["bin_label", "theta_deg", "yields", "errors", "unit_weights"]
        ds.bin_label = "E55"
        assert ds.bin_label == "E55"


# each checked type built from numbers of one kind
CHECKED = {
    "ShapeParams": lambda num: ShapeParams(num(1), num(2), num(3), num(0)),
    "ChannelConfig": lambda num: ChannelConfig("spin-cutoff", num(3)),
    "LegendreSeries": lambda num: LegendreSeries(tuple(map(num, (1, 0, -2, 3, 1))), num(5)),
    "SpectrumPoint": lambda num: SpectrumPoint(num(2), num(-7), num(1)),
    "SigmaInvTable": lambda num: SigmaInvTable(tuple(map(num, (1, 2, 4))), tuple(map(num, (0, 3, 3)))),
}
NUMBER_KINDS = {"float32": np.float32, "float64": np.float64, "int": int}


class TestStoredNumbers:
    @pytest.mark.parametrize("kind", NUMBER_KINDS)
    @pytest.mark.parametrize("name", CHECKED)
    def test_fields_are_floats(self, name, kind):
        num = NUMBER_KINDS[kind]
        value = CHECKED[name](num)
        for field, stored in vars(value).items():
            if field == "residual_weighting":
                continue
            for number in stored if isinstance(stored, tuple) else (stored,):
                assert type(number) is float, (field, type(number))
        _same_fields(value, CHECKED[name](lambda v: float(num(v))))


class TestCopiedSequences:
    """A record copies the list or array it is given: changing the source later changes nothing."""

    SOURCES = {"list": list, "ndarray": np.array}

    @pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES)
    def test_series(self, source):
        coefficients = source([1.0, 0.1, -0.2, 0.0, 0.05])
        series = LegendreSeries(coefficients, 3.5)
        before = (vars(series).copy(), hash(series), series.evaluate([0.0, 1.0, math.pi]))
        coefficients[0] = math.nan
        coefficients[1] = 7.0
        assert (vars(series), hash(series), series.evaluate([0.0, 1.0, math.pi])) == before
        _same_fields(series, CASES["LegendreSeries"][0])

    @pytest.mark.parametrize("source", SOURCES.values(), ids=SOURCES)
    def test_table(self, source):
        eps, sigma = source([1.0, 2.0, 4.0]), source([0.5, 1.5, 2.0])
        table = SigmaInvTable(eps, sigma)
        before = (vars(table).copy(), hash(table), [table(e) for e in (1.0, 2.0, 3.0, 4.0)])
        assert before[2] == [0.5, 1.5, 1.75, 2.0]
        eps[1] = 5.0
        sigma[2] = -1.0
        assert (vars(table), hash(table), [table(e) for e in (1.0, 2.0, 3.0, 4.0)]) == before
        _same_fields(table, CASES["SigmaInvTable"][0])


ANGULAR = synth_dataset(ShapeParams(0.1, 0.5, 0.4, 0.2), [1.0], [30, 60, 90, 120, 150], 0.0, 0)

# every input check of a number, as a function of the value it checks, and the error it raises
RANGE_CHECKS = {
    "ShapeParams-A": (lambda v: ShapeParams(v, 1, 1, 0), ValueError),
    "ShapeParams-r": (lambda v: ShapeParams(1, 1, 1, v), ValueError),
    "ChannelConfig": (lambda v: ChannelConfig("spin-cutoff", v), ValueError),
    "LegendreSeries-coefficient": (lambda v: LegendreSeries((1.0, v, 0.0, 0.0, 0.0)), ValueError),
    "LegendreSeries-scale": (lambda v: LegendreSeries((1.0, 0.0, 0.0, 0.0, 0.0), v), ValueError),
    "SpectrumPoint-eps": (lambda v: SpectrumPoint(v, 1.0, 0.1), ValueError),
    "SpectrumPoint-counts": (lambda v: SpectrumPoint(1.0, v, 0.1), ValueError),
    "SpectrumPoint-err": (lambda v: SpectrumPoint(1.0, 1.0, v), ValueError),
    "SigmaInvTable-eps": (lambda v: SigmaInvTable((1.0, v), (1.0, 2.0)), DataFormatError),
    "SigmaInvTable-sigma": (lambda v: SigmaInvTable((1.0, 2.0), (v, 2.0)), DataFormatError),
    "timescales-r": (lambda v: timescales(v, 1.0, 1.0, 1.0), ValueError),
    "timescales-gamma_cn_ev": (lambda v: timescales(0.1, v, 1.0, 1.0), ValueError),
    "timescales-gamma_spreading_mev": (lambda v: timescales(0.1, 1.0, v, 1.0), ValueError),
    "timescales-level_spacing_mev": (lambda v: timescales(0.1, 1.0, 1.0, v), ValueError),
    "inverse_capture_xsec-eps": (lambda v: inverse_capture_xsec(NucleusSpec(208, 82), 0, v), ValueError),
    "exciton_report-e_star": (lambda v: exciton_report(208, v), ValueError),
    "fit_angular-tol": (lambda v: fit_angular(ANGULAR, tol=v), ValueError),
    "synth_dataset-noise_frac": (
        lambda v: synth_dataset(ShapeParams(0.1, 0.5, 0.4, 0.2), [1.0], [30, 90], v, 0), ValueError
    ),
}


class TestBeyondTheDoubleRange:
    @pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
    @pytest.mark.parametrize("site", RANGE_CHECKS)
    def test_int_raises_as_the_infinite_float(self, site, sign):
        check, error = RANGE_CHECKS[site]
        with pytest.raises(error) as infinite:
            check(sign * math.inf)
        huge = sign * 10**400
        with pytest.raises(error) as beyond:
            check(huge)
        assert type(beyond.value) is type(infinite.value)
        assert str(beyond.value).replace(repr(huge), repr(sign * math.inf)) == str(infinite.value)
