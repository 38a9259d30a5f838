"""Spectrum scaling, barrier transmission, temperature and lifetimes.

The closed-form barrier penetrability is checked against a direct
numerical integral of the same turning-point problem written here with
scipy.quad, for the s-wave and for higher partial waves, so the two
routes share no code.  Within a fraction 5e-4 of the barrier top, where
the package switches to a series, the reference is the closed form itself
in 40-digit mpmath arithmetic (mpmath comes with sympy), whose
cancellation costs nothing at that precision.
"""

import math
import re
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from photoevap.errors import (
    DataFormatError,
    DegenerateModelError,
    InvalidPointError,
    UnderdeterminedError,
)
from photoevap.thermo import (
    AMU_MEV,
    E2_MEV_FM,
    HBAR_EV_S,
    HBARC_MEV_FM,
    R0_FM,
    NucleusSpec,
    SigmaInvTable,
    SpectrumPoint,
    TemperatureFit,
    exciton_report,
    fit_temperature,
    inverse_capture_xsec,
    read_spectrum_csv,
    scale_spectrum,
    timescales,
)

PB208 = NucleusSpec(208, 82)
SAMPLE_SPECTRUM = Path(__file__).resolve().parents[1] / "sample_data" / "spectrum_bi_gp.csv"


def nuclear_radius(nucleus: NucleusSpec) -> float:
    """R = R0 A^(1/3) [fm], the radius of the barrier model."""
    return R0_FM * nucleus.mass_number ** (1.0 / 3.0)


class TestNucleusSpec:
    def test_holds_values(self):
        n = NucleusSpec(208, 82)
        assert (n.mass_number, n.charge) == (208, 82)

    @pytest.mark.parametrize(
        "args",
        [(1, 1), (10, 0), (10, 10), (10, 12)],
    )
    def test_rejects_bad_composition(self, args):
        with pytest.raises(ValueError):
            NucleusSpec(*args)


class TestSpectrumPoint:
    def test_rejects_non_positive_energy(self):
        with pytest.raises(ValueError):
            SpectrumPoint(0.0, 10.0)
        with pytest.raises(ValueError):
            SpectrumPoint(-1.0, 10.0)

    def test_rejects_negative_error(self):
        with pytest.raises(ValueError):
            SpectrumPoint(1.0, 10.0, err=-0.5)


class TestGeometry:
    # far above the barrier sigma_inv is the geometric area pi R^2
    def test_radius_frozen_value(self):
        area = math.pi * 8.88748820522211**2
        assert inverse_capture_xsec(PB208, 0, 50.0) == pytest.approx(area, rel=1e-12)

    def test_radius_scales_with_cube_root_of_mass(self):
        small = NucleusSpec(27, 13)
        big = NucleusSpec(216, 13)  # 8x the mass number
        area_small = inverse_capture_xsec(small, 0, 50.0)
        assert inverse_capture_xsec(big, 0, 50.0) == pytest.approx(4.0 * area_small, rel=1e-12)


class TestInverseCapture:
    def test_frozen_sub_barrier_value(self):
        assert inverse_capture_xsec(PB208, 0, 4.0) == pytest.approx(
            0.00028177569846284903, rel=1e-10
        )

    def test_geometric_limit_at_and_above_barrier(self):
        area = math.pi * nuclear_radius(PB208) ** 2
        barrier = E2_MEV_FM * 82 / nuclear_radius(PB208)  # Q(R) = 0 at l = 0
        assert inverse_capture_xsec(PB208, 0, barrier) == pytest.approx(area, rel=1e-14)
        assert inverse_capture_xsec(PB208, 0, barrier + 5.0) == pytest.approx(area, rel=1e-14)

    def test_continuous_at_the_barrier(self):
        barrier = E2_MEV_FM * 82 / nuclear_radius(PB208)
        below = inverse_capture_xsec(PB208, 0, barrier * (1.0 - 1e-9))
        at = inverse_capture_xsec(PB208, 0, barrier)
        assert below == pytest.approx(at, rel=1e-8)

    def test_monotone_non_decreasing_in_energy(self):
        eps = np.linspace(0.8, 30.0, 120)
        sigma = [inverse_capture_xsec(PB208, 0, e) for e in eps]
        assert all(b >= a for a, b in zip(sigma, sigma[1:]))

    def test_centrifugal_barrier_suppresses_higher_partial_waves(self):
        s0 = inverse_capture_xsec(PB208, 0, 8.0)
        s1 = inverse_capture_xsec(PB208, 1, 8.0)
        s2 = inverse_capture_xsec(PB208, 2, 8.0)
        assert s0 > s1 > s2 > 0.0

    def test_matches_quadrature_oracle_s_wave(self):
        # independent route: integrate the local momentum through the
        # barrier from the surface to the outer turning point
        radius = nuclear_radius(PB208)
        mu = AMU_MEV * 208.0 / 209.0
        a_coul = E2_MEV_FM * 82

        for eps in (3.0, 5.0, 8.0, 11.0):
            def integrand(r):
                return math.sqrt(max(a_coul / r - eps, 0.0) * 2.0 * mu) / HBARC_MEV_FM

            r_out = a_coul / eps
            integral, _ = quad(integrand, radius, r_out, limit=200)
            expected = math.pi * radius**2 * math.exp(-2.0 * integral)
            assert inverse_capture_xsec(PB208, 0, eps) == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize("l", [1, 2, 5])
    @pytest.mark.parametrize("mass, charge", [(208, 82), (90, 40), (40, 20), (12, 6)])
    def test_matches_quadrature_oracle_higher_partial_waves(self, mass, charge, l):
        # the same independent route with the centrifugal term added
        nucleus = NucleusSpec(mass, charge)
        radius = nuclear_radius(nucleus)
        mu = AMU_MEV * mass / (mass + 1.0)
        a_coul = E2_MEV_FM * charge
        b_cent = l * (l + 1) * HBARC_MEV_FM**2 / (2.0 * mu)
        barrier = a_coul / radius + b_cent / radius**2

        for fraction in (0.2, 0.5, 0.8, 0.95):
            eps = fraction * barrier

            def integrand(r):
                excess = a_coul / r + b_cent / r**2 - eps
                return math.sqrt(max(excess, 0.0) * 2.0 * mu) / HBARC_MEV_FM

            r_out = (a_coul + math.sqrt(a_coul**2 + 4.0 * eps * b_cent)) / (2.0 * eps)
            integral, _ = quad(integrand, radius, r_out, limit=200, epsabs=0.0, epsrel=1e-12)
            expected = math.pi * radius**2 * math.exp(-2.0 * integral)
            assert inverse_capture_xsec(nucleus, l, eps) == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize("mass, charge", [(208, 82), (90, 40), (40, 20), (12, 6), (238, 92)])
    def test_just_below_the_barrier_stays_within_the_geometric_area(self, mass, charge):
        # rounding within a few ulps of the barrier top must neither leave
        # the domain of sqrt/acos nor give a transmission above 1
        nucleus = NucleusSpec(mass, charge)
        radius = nuclear_radius(nucleus)
        mu = AMU_MEV * mass / (mass + 1.0)
        area = math.pi * radius**2
        for l in range(7):
            eps = E2_MEV_FM * charge / radius + l * (l + 1) * HBARC_MEV_FM**2 / (2.0 * mu * radius * radius)
            for _ in range(40):
                eps = float(np.nextafter(eps, 0.0))
                sigma = inverse_capture_xsec(nucleus, l, eps)
                assert 0.0 < sigma <= area

    @pytest.mark.parametrize("mass, charge", [(208, 82), (90, 40), (40, 20), (12, 6), (238, 92)])
    def test_non_decreasing_over_ulps_of_the_barrier_top(self, mass, charge):
        nucleus = NucleusSpec(mass, charge)
        radius = nuclear_radius(nucleus)
        mu = AMU_MEV * mass / (mass + 1.0)
        for l in range(7):
            eps = E2_MEV_FM * charge / radius + l * (l + 1) * HBARC_MEV_FM**2 / (2.0 * mu * radius * radius)
            for _ in range(2000):
                eps = math.nextafter(eps, 0.0)
            sigma = []
            for _ in range(4000):
                sigma.append(inverse_capture_xsec(nucleus, l, eps))
                eps = math.nextafter(eps, math.inf)
            falls = [i for i in range(1, len(sigma)) if sigma[i] < sigma[i - 1]]
            assert falls == [], f"l={l}: {len(falls)} falls, first after {falls[:1]} ulps"

    @pytest.mark.parametrize("below", [5e-4, 1e-2])
    def test_closed_form_is_non_decreasing_within_its_documented_tolerance(self, below):
        # the documented monotonicity tolerance of the closed form, over
        # +-2000 ulps at the series switch and further below the top
        for mass, charge in [(208, 82), (90, 40), (40, 20), (12, 6), (238, 92), (58, 28)]:
            nucleus = NucleusSpec(mass, charge)
            radius = nuclear_radius(nucleus)
            mu = AMU_MEV * mass / (mass + 1.0)
            for l in range(7):
                top = E2_MEV_FM * charge * radius + l * (l + 1) * HBARC_MEV_FM**2 / (2.0 * mu)
                eps = top * (1.0 - below) / radius / radius
                for _ in range(2000):
                    eps = math.nextafter(eps, 0.0)
                sigma = []
                for _ in range(4000):
                    sigma.append(inverse_capture_xsec(nucleus, l, eps))
                    eps = math.nextafter(eps, math.inf)
                worst = max((p - s) / p for p, s in zip(sigma, sigma[1:]))
                assert worst <= 1e-13, f"A={mass}, l={l}: falls by {worst:.3g} relative"

    @pytest.mark.parametrize("l", [0, 1, 3, 6])
    @pytest.mark.parametrize("mass, charge", [(208, 82), (90, 40), (12, 6), (238, 92)])
    def test_near_the_barrier_top_matches_high_precision(self, mass, charge, l):
        nucleus = NucleusSpec(mass, charge)
        radius = nuclear_radius(nucleus)
        mu = AMU_MEV * mass / (mass + 1.0)
        a_coul = E2_MEV_FM * charge
        b_cent = l * (l + 1) * HBARC_MEV_FM**2 / (2.0 * mu)
        top = a_coul * radius + b_cent
        with mpmath.workdps(40):
            r, a, b, m = map(mpmath.mpf, (radius, a_coul, b_cent, mu))
            # below the switch at 5e-4 of the top the series is exact to rounding;
            # above it the closed form keeps the cancellation error it always had
            cases = [(below, 1e-14) for below in (1e-12, 1e-9, 1e-6, 1e-4, 4.9e-4)]
            for below, rel in cases + [(5.1e-4, 1e-12), (2e-3, 1e-12)]:
                eps = top * (1.0 - below) / radius / radius
                e = mpmath.mpf(eps)
                q = a * r + b - e * r * r
                d = mpmath.sqrt(a * a + 4 * e * b)
                r_out = (a + d) / (2 * e)
                integral = (
                    -mpmath.sqrt(q)
                    + a / (2 * mpmath.sqrt(e)) * mpmath.acos((2 * e * r - a) / d)
                    + mpmath.sqrt(b) * mpmath.log(
                        (2 * b + a * r + 2 * mpmath.sqrt(b * q)) * r_out / ((2 * b + a * r_out) * r)
                    )
                )
                gamow = 2 * mpmath.sqrt(2 * m) / mpmath.mpf(HBARC_MEV_FM) * integral
                expected = float(mpmath.pi * r * r * mpmath.exp(-gamow))
                assert inverse_capture_xsec(nucleus, l, eps) == pytest.approx(expected, rel=rel)

    @pytest.mark.parametrize("l", range(8))
    @pytest.mark.parametrize("mass, charge", [(208, 82), (120, 50), (60, 28), (4, 2), (250, 100)])
    def test_vanishes_at_the_smallest_energies(self, mass, charge, l):
        # r_out = (a + D) / 2 eps overflows the closed form's log argument down here;
        # the transmission is already exactly zero from far higher energies
        nucleus = NucleusSpec(mass, charge)
        for eps in (5e-324, 1e-320, 1e-310, 1e-308, 1e-307, 1e-306, 1e-305, 1e-300, 1e-20):
            assert inverse_capture_xsec(nucleus, l, eps) == 0.0, eps

    def test_table_override(self):
        # sigma_inv(2 MeV) = 20 fm^2 from the table, so the divisor is 2 * 20
        table = SigmaInvTable((1.0, 3.0, 5.0), (10.0, 30.0, 50.0))
        [scaled] = scale_spectrum([SpectrumPoint(2.0, 80.0, 8.0)], PB208, l=2, table=table)
        assert (scaled.counts, scaled.err) == pytest.approx((2.0, 0.2), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            inverse_capture_xsec(PB208, 0, 0.0)
        with pytest.raises(ValueError):
            inverse_capture_xsec(PB208, -1, 4.0)
        with pytest.raises(ValueError):
            inverse_capture_xsec(PB208, 1.5, 4.0)

    @pytest.mark.parametrize("l", [True, False])
    def test_bool_l_is_rejected(self, l):
        with pytest.raises(ValueError, match="l must be a non-negative integer"):
            inverse_capture_xsec(PB208, l, 4.0)

    def test_numpy_integer_l_is_accepted(self):
        assert inverse_capture_xsec(PB208, np.int64(2), 4.0) == inverse_capture_xsec(PB208, 2, 4.0)

    def test_table_does_not_bypass_l_validation(self):
        # l is checked before any point, whatever the source of sigma_inv
        table = SigmaInvTable((1.0, 3.0, 5.0), (10.0, 30.0, 50.0))
        for points in ([SpectrumPoint(2.0, 5.0)], []):
            for source in (table, None):
                with pytest.raises(ValueError, match="l must be a non-negative integer"):
                    scale_spectrum(points, PB208, l=-3, table=source)


class TestSigmaInvTable:
    def test_interpolates_linearly(self):
        table = SigmaInvTable((1.0, 2.0), (0.0, 4.0))
        assert table(1.25) == pytest.approx(1.0, rel=1e-14)
        assert table(1.0) == 0.0
        assert table(2.0) == 4.0

    def test_out_of_range_raises(self):
        table = SigmaInvTable((1.0, 2.0), (1.0, 1.0))
        with pytest.raises(DataFormatError):
            table(0.99)
        with pytest.raises(DataFormatError):
            table(2.01)
        with pytest.raises(DataFormatError):
            table(math.nan)

    def test_matches_numpy_interp_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            eps = np.cumsum(rng.uniform(0.01, 3.0, rng.integers(2, 12)))
            sigma = rng.uniform(0.0, 200.0, len(eps))
            table = SigmaInvTable(tuple(map(float, eps)), tuple(map(float, sigma)))
            for e in [*eps, *rng.uniform(eps[0], eps[-1], 20)]:
                got = table(float(e))
                assert type(got) is float
                assert got == np.interp(e, eps, sigma)

    @pytest.mark.parametrize(
        "eps,sigma",
        [
            ((1.0,), (1.0,)),
            ((1.0, 1.0), (1.0, 2.0)),
            ((2.0, 1.0), (1.0, 2.0)),
            ((1.0, 2.0), (1.0, -0.1)),
            ((1.0, 2.0), (1.0,)),
        ],
    )
    def test_rejects_malformed_tables(self, eps, sigma):
        with pytest.raises(DataFormatError):
            SigmaInvTable(eps, sigma)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("eps_mev,sigma_fm2\n1.0,10.0\n2.0,20.0\n")
        table = SigmaInvTable.from_csv(path)
        assert table(1.5) == pytest.approx(15.0, rel=1e-14)

    def test_csv_bad_header(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("energy,sigma\n1.0,10.0\n")
        with pytest.raises(DataFormatError):
            SigmaInvTable.from_csv(path)

    def test_csv_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("eps_mev,sigma_fm2\n1.0,10.0\n2.0,oops\n")
        with pytest.raises(DataFormatError, match="line 3"):
            SigmaInvTable.from_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("2.0,10.0\n1.0,20.0\n", "strictly increasing"),
            ("1.0,10.0\n2.0,inf\n", "must be finite"),
            ("", "no data rows"),
            ("1.0,10.0\n", "at least two"),
        ],
        ids=["decreasing", "non-finite", "header-only", "one-row"],
    )
    def test_csv_rejected_table_names_its_file(self, tmp_path, rows, message):
        path = tmp_path / "table.csv"
        path.write_text("eps_mev,sigma_fm2\n" + rows)
        with pytest.raises(DataFormatError, match=message) as info:
            SigmaInvTable.from_csv(path)
        assert str(info.value).startswith(f"{path}: ")


class TestReadSpectrumCsv:
    def test_reads_with_errors(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("eps_mev,counts,err\n1.0,100.0,10.0\n2.0,50.0,7.0\n")
        points = read_spectrum_csv(path)
        assert len(points) == 2
        assert points[0] == SpectrumPoint(1.0, 100.0, 10.0)

    def test_missing_err_column_defaults_to_zero(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("eps_mev,counts\n1.0,100.0\n")
        assert read_spectrum_csv(path)[0].err == 0.0

    def test_explicit_zero_err_is_kept(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("eps_mev,counts,err\n1.0,100.0,0\n")
        assert read_spectrum_csv(path)[0].err == 0.0

    @pytest.mark.parametrize("row", ["2.0,50.0,", "2.0,50.0"], ids=["blank-cell", "short-row"])
    def test_missing_err_value_is_data_error(self, tmp_path, row):
        # with the err column, a missing value must not silently unweight the fit
        path = tmp_path / "spec.csv"
        path.write_text(f"eps_mev,counts,err\n1.0,100.0,10.0\n{row}\n3.0,25.0,5.0\n")
        with pytest.raises(DataFormatError, match=re.escape(f"{path}: bad row on line 3")):
            read_spectrum_csv(path)

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("e,n\n1.0,100.0\n")
        with pytest.raises(DataFormatError):
            read_spectrum_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "spec.csv"
        path.write_text("eps_mev,counts\n1.0,100.0\nx,100.0\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_spectrum_csv(path)


class TestScaleSpectrum:
    @pytest.mark.parametrize("l", range(5))
    @pytest.mark.parametrize("mass, charge", [(208, 82), (120, 50), (60, 28)])
    def test_round_trip(self, mass, charge, l):
        # one barrier model: scaling divides by exactly the single-point sigma_inv
        # above the barrier top, within 5e-4 of it (series) and deep below it (closed form)
        nucleus = NucleusSpec(mass, charge)
        radius = nuclear_radius(nucleus)
        mu = AMU_MEV * mass / (mass + 1.0)
        top = E2_MEV_FM * charge * radius + l * (l + 1) * HBARC_MEV_FM**2 / (2.0 * mu)
        below = (-0.5, -0.01, 1e-9, 1e-4, 4.9e-4, 0.01, 0.2, 0.5)
        points = [SpectrumPoint(e, 100.0 * e, 5.0) for e in (top * (1.0 - f) / radius / radius for f in below)]
        scaled = scale_spectrum(points, nucleus, l=l)
        assert len(scaled) == len(points)
        for before, after in zip(points, scaled):
            divisor = before.eps * inverse_capture_xsec(nucleus, l, before.eps)
            assert (after.eps, after.counts, after.err) == (before.eps, before.counts / divisor, before.err / divisor)

    def test_unscalable_energy_is_reported(self):
        # deep sub-barrier transmission underflows to zero
        points = [SpectrumPoint(0.01, 10.0), SpectrumPoint(5.0, 10.0)]
        with pytest.raises(InvalidPointError, match="0.01"):
            scale_spectrum(points, PB208)

    @pytest.mark.parametrize("counts, err", [(1e300, 1e299), (1.0, 1e299)], ids=["counts", "err"])
    def test_overflowing_point_is_reported_with_vanishing_ones(self, counts, err):
        # sigma_inv(0.5 MeV) = 7.6e-36 fm^2: the finite inputs divide past the float range,
        # while at 0.01 MeV the divisor underflows to zero; one error names both energies
        points = [
            SpectrumPoint(0.01, 10.0),
            SpectrumPoint(0.5, counts, err),
            *(SpectrumPoint(e, 100.0, 5.0) for e in (4.0, 6.0, 8.0)),
        ]
        with pytest.raises(InvalidPointError, match=r"eps = 0\.01, 0\.5 MeV"):
            scale_spectrum(points, PB208)

    def test_table_with_zero_sigma_is_unscalable(self):
        table = SigmaInvTable((1.0, 3.0), (0.0, 0.0))
        with pytest.raises(InvalidPointError):
            scale_spectrum([SpectrumPoint(2.0, 5.0)], PB208, table=table)

    def test_empty_input_scales_to_empty(self):
        assert scale_spectrum([], PB208) == []

    @given(
        counts=st.lists(
            st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=8
        )
    )
    def test_scaling_preserves_relative_errors(self, counts):
        points = [
            SpectrumPoint(4.0 + i * 0.5, c, 0.1 * c) for i, c in enumerate(counts)
        ]
        scaled = scale_spectrum(points, PB208)
        for p in scaled:
            assert p.err == pytest.approx(0.1 * p.counts, rel=1e-12)


def numpy_fit_temperature(points, eps_max):
    """(temperature, log_intercept, temperature_err) by the numpy sums fit_temperature replaced."""
    usable = [p for p in points if p.eps <= eps_max]
    eps = np.array([p.eps for p in usable])
    counts = np.array([p.counts for p in usable])
    errs = np.array([p.err for p in usable])
    logy = np.log(counts)
    weighted = bool(np.all(errs > 0))
    inv_rel = counts / errs if weighted else np.ones_like(eps)
    ref = int(np.argmax(inv_rel))
    scale = inv_rel[ref]
    w = (inv_rel / scale) ** 2
    x, y = eps - eps[ref], logy - logy[ref]
    mean_x = np.dot(w, x) / np.sum(w)
    d_x = x - mean_x
    sxx = np.dot(w * d_x, d_x)
    slope = np.dot(w * d_x, y) / sxx
    intercept = logy[ref] + np.dot(w, y) / np.sum(w) - slope * (eps[ref] + mean_x)
    var_slope = 1.0 / sxx / scale / scale
    if not weighted:
        resid = logy - (intercept + slope * eps)
        var_slope *= np.sum(resid * resid) / (len(usable) - 2)
    return -1.0 / slope, intercept, np.sqrt(var_slope) / slope / slope


class TestFitTemperature:
    @staticmethod
    def exponential_points(temperature, intercept=2.0, errs=None, n=12):
        eps = np.linspace(1.0, 6.0, n)
        counts = np.exp(intercept - eps / temperature)
        if errs is None:
            return [SpectrumPoint(e, c) for e, c in zip(eps, counts)]
        return [SpectrumPoint(e, c, s) for e, c, s in zip(eps, counts, errs)]

    def test_exact_recovery_unweighted(self):
        fit = fit_temperature(self.exponential_points(0.55), eps_max=8.0)
        assert fit.temperature == pytest.approx(0.55, rel=1e-12)
        assert fit.log_intercept == pytest.approx(2.0, rel=1e-10)
        assert fit.temperature_err == pytest.approx(0.0, abs=1e-10)
        assert fit.n_points == 12

    def test_exact_recovery_weighted(self):
        points = self.exponential_points(0.55)
        points = [SpectrumPoint(p.eps, p.counts, 0.05 * p.counts) for p in points]
        fit = fit_temperature(points, eps_max=8.0)
        assert fit.temperature == pytest.approx(0.55, rel=1e-12)
        assert fit.temperature_err > 0.0

    def test_window_filters_points(self):
        points = self.exponential_points(0.55)
        fit = fit_temperature(points, eps_max=3.0)
        assert fit.n_points == sum(1 for p in points if p.eps <= 3.0)
        assert fit.temperature == pytest.approx(0.55, rel=1e-10)

    def test_too_few_points_raises(self):
        points = self.exponential_points(0.55, n=5)
        with pytest.raises(UnderdeterminedError):
            fit_temperature(points, eps_max=1.5)

    def test_single_energy_has_no_spread(self):
        # every offset from the one energy is exactly 0, so the energy spread is too
        points = [SpectrumPoint(5.0, c) for c in (120.0, 110.0, 130.0)]
        with pytest.raises(UnderdeterminedError, match="no spread in energy below eps_max = 8"):
            fit_temperature(points, eps_max=8.0)

    def test_non_positive_counts_raise(self):
        points = self.exponential_points(0.55)
        points[3] = SpectrumPoint(points[3].eps, 0.0)
        with pytest.raises(InvalidPointError):
            fit_temperature(points, eps_max=8.0)

    @pytest.mark.parametrize("counts", [(3.0, 3.0, 3.0, 3.0), (10.0, 20.0, 40.0)], ids=["flat", "rising"])
    def test_spectrum_that_does_not_fall_raises(self, counts):
        # no temperature, neither an infinite nor a negative one
        points = [SpectrumPoint(float(e), c) for e, c in enumerate(counts, start=1)]
        with pytest.raises(DegenerateModelError, match="does not fall"):
            fit_temperature(points, eps_max=8.0)

    @pytest.mark.parametrize(
        "points, eps_max",
        [
            # energy offsets near 1e308: their weighted sum of squares overflows
            ([SpectrumPoint(e, c) for e, c in ((1e-300, 1.0), (1.7e308, 2.0), (1e308, 3.0))], math.inf),
            # every sum is finite, but a slope near 1e-116 with errors 1e200 times
            # the counts puts temperature_err beyond 1e308
            (
                [SpectrumPoint(e, c, c * 1e200) for e, c in ((1.0, 1.0), (1e100, 1.0), (2e100, 1.0 - 2**-50))],
                8e100,
            ),
        ],
        ids=["sums", "temperature-err"],
    )
    def test_fit_beyond_the_float_range_raises(self, points, eps_max):
        with pytest.raises(DegenerateModelError, match="leaves the floating-point range"):
            fit_temperature(points, eps_max)

    @pytest.mark.parametrize("heavy", [0, 2])
    def test_dominant_weight_keeps_energy_spread(self, heavy):
        # one point weighs 1e16 times the others: the uncentred normal
        # equations cancelled to a zero determinant here
        rel = [0.05, 0.05, 0.05]
        rel[heavy] = 5e-10
        points = [
            SpectrumPoint(p.eps, p.counts, r * p.counts)
            for p, r in zip(self.exponential_points(0.55, n=3), rel)
        ]
        fit = fit_temperature(points, eps_max=8.0)
        assert fit.temperature == pytest.approx(0.55, rel=1e-12)
        assert fit.log_intercept == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("l", [0, 2])
    def test_sample_fit_is_unchanged(self, l):
        # (temperature, temperature_err, log_intercept) of the numpy implementation
        frozen = {
            0: (0.5500386795747131, 0.00023697028368364865, 22.51937225583391),
            2: (0.5254569986064659, 0.000216262783482993, 24.26044388513838),
        }[l]
        points = scale_spectrum(read_spectrum_csv(SAMPLE_SPECTRUM), PB208, l=l)
        fit = fit_temperature(points, eps_max=8.0)
        got = (fit.temperature, fit.temperature_err, fit.log_intercept)
        assert got == pytest.approx(frozen, rel=1e-12)

    @pytest.mark.parametrize("weighted", [True, False])
    def test_matches_numpy_sums(self, weighted):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(3, 40))
            eps = np.sort(rng.uniform(0.5, 12.0, n))
            counts = np.exp(rng.uniform(-5, 5) - eps / rng.uniform(0.2, 3.0))
            counts *= rng.lognormal(0.0, 0.1, n)
            errs = counts * rng.uniform(0.01, 0.3, n) if weighted else np.zeros(n)
            points = [SpectrumPoint(*map(float, row)) for row in zip(eps, counts, errs)]
            fit = fit_temperature(points, eps_max=math.inf)
            want = numpy_fit_temperature(points, eps_max=math.inf)
            got = (fit.temperature, fit.log_intercept, fit.temperature_err)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("source", ["sample", "numpy-scalars"])
    def test_fields_are_builtin_numbers(self, source):
        if source == "sample":
            points = scale_spectrum(read_spectrum_csv(SAMPLE_SPECTRUM), PB208)
        else:
            points = self.exponential_points(0.55)
            points = [SpectrumPoint(p.eps, p.counts, 0.05 * p.counts) for p in points]
        fit = fit_temperature(points, eps_max=8.0)
        assert list(vars(fit)) == list(TemperatureFit.__annotations__)
        for name, type_name in TemperatureFit.__annotations__.items():
            assert type(getattr(fit, name)).__name__ == type_name, name

    def test_weights_that_all_underflow_are_underdetermined(self):
        points = [SpectrumPoint(eps, 1e-300, 1e30) for eps in (1.0, 2.0, 3.0)]
        with pytest.raises(UnderdeterminedError, match="too large to weight"):
            fit_temperature(points, eps_max=8.0)

    @pytest.mark.parametrize("err", [1e-320, 0.0], ids=["tiny", "zero"])
    def test_error_too_small_to_weight_raises(self, err):
        # a zero error is the limit of a tiny one, not a switch to unit weights
        points = [
            SpectrumPoint(p.eps, p.counts, 0.05 * p.counts) for p in self.exponential_points(0.55)
        ]
        points[2] = SpectrumPoint(points[2].eps, 1e10, err)
        with pytest.raises(InvalidPointError, match=f"at eps = {points[2].eps:g} MeV"):
            fit_temperature(points, eps_max=8.0)

    def test_all_zero_errors_give_unit_weights(self, tmp_path):
        rows = ["3.0,120.0", "4.0,80.0", "5.0,41.0", "6.0,19.0"]
        plain, zeros = tmp_path / "plain.csv", tmp_path / "zeros.csv"
        plain.write_text("eps_mev,counts\n" + "".join(row + "\n" for row in rows))
        zeros.write_text("eps_mev,counts,err\n" + "".join(row + ",0\n" for row in rows))
        fit = fit_temperature(read_spectrum_csv(zeros), eps_max=8.0)
        assert fit == fit_temperature(read_spectrum_csv(plain), eps_max=8.0)
        want = numpy_fit_temperature(read_spectrum_csv(zeros), eps_max=8.0)
        assert (fit.temperature, fit.log_intercept, fit.temperature_err) == pytest.approx(want, rel=1e-12)

    def test_weight_on_one_energy_is_underdetermined(self):
        points = [
            SpectrumPoint(p.eps, p.counts, 0.05 * p.counts) for p in self.exponential_points(0.55)
        ]
        points[2] = SpectrumPoint(points[2].eps, 1.0, 1e-300)
        with pytest.raises(UnderdeterminedError):
            fit_temperature(points, eps_max=8.0)

    def test_noisy_recovery_within_uncertainty(self):
        rng = np.random.default_rng(5)
        eps = np.linspace(1.0, 6.0, 60)
        truth = np.exp(3.0 - eps / 0.55)
        noisy = truth * (1.0 + 0.02 * rng.standard_normal(60))
        points = [
            SpectrumPoint(e, c, 0.02 * t) for e, c, t in zip(eps, noisy, truth)
        ]
        fit = fit_temperature(points, eps_max=8.0)
        assert abs(fit.temperature - 0.55) < 3.0 * fit.temperature_err
        assert fit.temperature == pytest.approx(0.55, rel=0.05)


class TestExcitonReport:
    def test_frozen_reference_values(self):
        report = exciton_report(208, 6.3)
        assert report.g == pytest.approx(16.0, rel=1e-14)
        assert report.n_bar == pytest.approx(14.198591479439079, rel=1e-12)
        assert report.n_sigma == pytest.approx(2.664450363530824, rel=1e-12)
        assert report.t_low == pytest.approx(0.37359807670918105, rel=1e-12)
        assert report.t_high == pytest.approx(0.5462045189746152, rel=1e-12)

    def test_second_reference_point(self):
        report = exciton_report(209, 14.0)
        assert report.t_low == pytest.approx(0.5720383071091126, rel=1e-12)
        assert report.t_high == pytest.approx(0.7795198669314665, rel=1e-12)

    def test_window_orientation(self):
        report = exciton_report(120, 9.0)
        assert 0.0 < report.t_low < report.t_high
        assert report.n_sigma == pytest.approx(math.sqrt(report.n_bar / 2.0), rel=1e-14)

    def test_internal_relations(self):
        report = exciton_report(100, 8.0)
        assert report.g == pytest.approx(100.0 / 13.0, rel=1e-14)
        assert report.n_bar == pytest.approx(math.sqrt(2.0 * report.g * 8.0), rel=1e-14)
        assert report.t_low == pytest.approx(8.0 / (report.n_bar + report.n_sigma), rel=1e-14)
        assert report.t_high == pytest.approx(8.0 / (report.n_bar - report.n_sigma), rel=1e-14)

    def test_degenerate_window_raises(self):
        with pytest.raises(DegenerateModelError):
            exciton_report(2, 0.5)
        with pytest.raises(DegenerateModelError):
            exciton_report(208, 0.0)

    def test_overflowing_exciton_number_raises(self):
        # 2 g E* overflows to inf: the window is lost to the overflow, not to a small n_bar
        with pytest.raises(DegenerateModelError, match="overflows"):
            exciton_report(208, 1e308)

    def test_validation(self):
        with pytest.raises(ValueError):
            exciton_report(1, 5.0)
        with pytest.raises(ValueError):
            exciton_report(208, -1.0)


class TestTimescales:
    def test_frozen_reference_report(self):
        report = timescales(0.11, 0.1, 2.0, 1e-16)
        assert report.beta == pytest.approx(0.011, rel=1e-12)
        assert report.tau_phase == pytest.approx(5.983744545454544e-14, rel=1e-12)
        assert report.tau_cn == pytest.approx(6.582119e-15, rel=1e-12)
        assert report.tau_thermalization == pytest.approx(3.2910595e-22, rel=1e-12)
        assert report.t_heisenberg == pytest.approx(6.582119e-06, rel=1e-12)
        assert report.n_eff == pytest.approx(2e16, rel=1e-12)

    def test_width_lifetime_products_equal_hbar(self):
        report = timescales(0.3, 0.05, 1.5, 1e-15)
        assert report.tau_phase * report.beta == pytest.approx(HBAR_EV_S, rel=1e-14)
        assert report.tau_cn * 0.05 == pytest.approx(HBAR_EV_S, rel=1e-14)
        assert report.tau_thermalization * 1.5 * 1e6 == pytest.approx(HBAR_EV_S, rel=1e-14)
        assert report.t_heisenberg * 1e-15 * 1e6 == pytest.approx(HBAR_EV_S, rel=1e-14)
        assert report.tau_ratio == report.tau_phase / report.tau_thermalization

    def test_zero_r_means_infinite_phase_memory(self):
        report = timescales(0.0, 0.1, 2.0, 1e-16)
        assert report.beta == 0.0
        assert math.isinf(report.tau_phase)
        assert report.tau_ratio == math.inf

    def test_slow_dephasing_hierarchy(self):
        # r < 1 puts dephasing slower than compound decay, both far
        # slower than thermalization
        report = timescales(0.11, 0.1, 2.0, 1e-16)
        assert report.tau_thermalization < report.tau_cn < report.tau_phase

    def test_validation(self):
        with pytest.raises(ValueError):
            timescales(-0.1, 0.1, 2.0, 1e-16)
        with pytest.raises(ValueError):
            timescales(0.1, 0.0, 2.0, 1e-16)
        with pytest.raises(ValueError):
            timescales(0.1, 0.1, -2.0, 1e-16)
        with pytest.raises(ValueError):
            timescales(0.1, 0.1, 2.0, 0.0)

    @pytest.mark.parametrize("spreading_mev, spacing_mev", [(1e308, 1.0), (1.0, 1e308)])
    def test_width_infinite_in_ev_raises(self, spreading_mev, spacing_mev):
        # finite in MeV, infinite in eV: the lifetime would be 0 and its ratio divide by it
        with pytest.raises(ValueError, match="finite in eV"):
            timescales(1.0, 0.1, spreading_mev, spacing_mev)

    @pytest.mark.parametrize(
        "r, gamma_cn_ev, spreading_mev, spacing_mev",
        [
            (1.4e154, 1.4e154, 1e-6, 1e-6),  # beta overflows
            # beta rounds to 0, which it does only below 2**-1075: the exact
            # hbar / beta is then past the float maximum, so this is an overflow too
            (1.7e-258, 1.7e-258, 1e-6, 1e-6),
            (1e-300, 1.0, 1e300, 1.0),  # tau_phase / tau_thermalization overflows
            (0.0, 1.0, 1e300, 1e-300),  # n_eff overflows
        ],
    )
    def test_overflowing_derived_value_raises(self, r, gamma_cn_ev, spreading_mev, spacing_mev):
        with pytest.raises(DegenerateModelError, match="overflows"):
            timescales(r, gamma_cn_ev, spreading_mev, spacing_mev)
