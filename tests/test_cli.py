"""Command line behavior: output formats, config files, exit codes."""

import contextlib
import importlib
import io
import json
import math
import os
import pkgutil
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import photoevap
from photoevap.cli import main
from photoevap.fitkit import fit_angular, read_angular_csv, synth_dataset
from photoevap.xsection import ShapeParams

TRUTH = ShapeParams(A=0.082, B=0.47, C=0.37, r=0.11)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=_reject_constant), err


def run_warning_free(capsys, *argv):
    """``run``, failing on any warning raised on the way.

    pytest's filter turns only RuntimeWarning into an error, and hides the
    rest, which a user would see on stderr.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, *argv)
    assert not caught, [str(warning.message) for warning in caught]
    return result


def run_error(capsys, code, text, *argv):
    """Run a command that fails: exit ``code``, nothing on stdout, and one
    stderr line that starts ``photoevap:`` and holds ``text``, with no
    traceback and no warning.  Returns that line.
    """
    got, out, err = run_warning_free(capsys, *argv)
    assert (got, out) == (code, ""), err
    assert err.startswith("photoevap:") and err.count("\n") == 1, err
    assert text in err and "Traceback" not in err and "Warning" not in err, err
    return err


def _reject_constant(constant):
    """``json.loads`` hook that refuses the non-JSON tokens NaN, Infinity and -Infinity."""
    raise ValueError(f"{constant} in JSON output")


def write_angular_csv(path, datasets, with_err=True):
    lines = ["bin_label,theta_deg,yield" + (",err" if with_err else "")]
    for ds in datasets:
        for theta, value, err in zip(ds.theta_deg, ds.yields, ds.errors):
            row = f"{ds.bin_label},{float(theta)!r},{float(value)!r}"
            if with_err:
                row += f",{float(err)!r}"
            lines.append(row)
    path.write_text("\n".join(lines) + "\n")


class TestCoeff:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["cg", "1", "-1", "1", "1", "2", "0"], "0.408248290464"),
            # the exact 6j is -0.005029406456867957...
            (["w6j", "20", "20", "20", "20", "20", "20"], "-0.00502940645687"),
        ],
        ids=["cg", "w6j-high-spin"],
    )
    def test_twelve_significant_digits(self, capsys, argv, expected):
        code, out, _ = run(capsys, "coeff", *argv)
        assert code == 0
        assert out.strip() == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ["cg", "1", "-1", "1", "1", "2", "1"],
            # an accidental zero: every selection rule allows a nonzero value
            ["cg", "19.5", "0.5", "20", "--", "-1", "19.5", "-0.5"],
        ],
        ids=["selection-rule", "accidental-high-spin"],
    )
    def test_zero_prints_bare_zero(self, capsys, argv):
        code, out, _ = run(capsys, "coeff", *argv)
        assert code == 0
        assert out.strip() == "0"

    def test_fraction_tokens(self, capsys):
        code, out, _ = run(capsys, "coeff", "cg", "3/2", "1/2", "1", "0", "3/2", "1/2")
        assert code == 0
        assert float(out) != 0.0

    def test_negative_fraction_needs_separator(self, capsys):
        code, out, _ = run(
            capsys, "coeff", "cg", "--", "3/2", "-1/2", "1", "0", "3/2", "-1/2"
        )
        assert code == 0
        assert float(out) != 0.0

    def test_z_coefficient(self, capsys):
        code, out, _ = run(capsys, "coeff", "z", "0", "0.5", "2", "1.5", "0.5", "2")
        assert code == 0
        assert out.strip() == "2.00000000000"

    def test_bad_spin_token_is_usage_error(self, capsys):
        code, _, err = run(capsys, "coeff", "cg", "1", "x", "1", "0", "2", "0")
        assert code == 1
        assert "spin" in err

    def test_invalid_projection_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "coeff", "cg", "1", "2", "1", "0", "2", "2")
        assert code == 1

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "coeff", "cg", "1", "0")
        assert code == 1


class TestModel:
    ARGS = ("model", "-A", "0.082", "-B", "0.47", "-C", "0.37", "-r", "0.11")

    def test_json_payload(self, capsys):
        payload, _ = run_json(capsys, *self.ARGS, "--grid", "0:180:19")
        assert payload["schema_version"] == 1
        assert payload["command"] == "model"
        assert payload["params"] == {"A": 0.082, "B": 0.47, "C": 0.37, "r": 0.11}
        assert payload["coefficients"]["c_0"] == 1.0
        assert payload["coefficients"]["c_1"] == pytest.approx(
            0.5824936681432782, rel=1e-15
        )
        assert payload["asymmetry_U"] == pytest.approx(1.8745908416797143, rel=1e-15)
        assert len(payload["curve"]) == 19
        assert payload["curve"][0]["theta_deg"] == 0.0

    def test_json_round_trips_at_full_precision(self, capsys):
        payload, _ = run_json(capsys, *self.ARGS)
        from photoevap.xsection import legendre_coefficients

        series = legendre_coefficients(TRUTH)
        for order, expected in enumerate(series.coefficients):
            assert payload["coefficients"][f"c_{order}"] == expected

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "csv", "--grid", "0:180:5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# c_0 = 1.0")
        assert "theta_deg,sigma" in lines
        assert len([l for l in lines if not l.startswith("#")]) == 6

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "model.json"
        code, out, _ = run(capsys, *self.ARGS, "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "model"

    BAD_GRIDS = [
        ("10:5:10", "grid must satisfy"),
        ("0:181:10", "grid must satisfy"),
        ("0:180:1", "grid must satisfy"),
        ("0:180", "grid must be start:stop:count"),
        ("a:b:c", "bad grid 'a:b:c'"),
    ]

    @pytest.mark.parametrize("grid, message", BAD_GRIDS, ids=[grid for grid, _ in BAD_GRIDS])
    def test_bad_grid_is_usage_error(self, capsys, grid, message):
        # also at A = 1e200, which overflows the model: the grid is parsed first
        for args in (self.ARGS, ("model", "-A", "1e200", "-B", "1", "-C", "1", "-r", "0")):
            run_error(capsys, 1, message, *args, "--grid", grid)

    def test_negative_parameter_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "model", "-A", "-1", "-B", "0.5", "-C", "0.5", "-r", "0.1"
        )
        assert code == 1

    def test_weighting_option(self, capsys):
        payload, _ = run_json(capsys, *self.ARGS, "--weighting", "2I+1")
        assert payload["asymmetry_U"] == pytest.approx(1.8429235104845452, rel=1e-12)

    def test_removed_phase_flag_is_usage_error(self, capsys):
        code, out, err = run(capsys, *self.ARGS, "--huby-phase")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --huby-phase" in err

    def test_overflowing_parameter_is_numerical_error(self, capsys):
        # A**2 overflows; this used to print "c_0": NaN with exit 0
        code, out, err = run(capsys, "model", "-A", "1e308", "-B", "1", "-C", "1", "-r", "0")
        assert code == 3
        assert out == ""
        assert "overflow" in err


class TestFit:
    @pytest.fixture()
    def data_csv(self, tmp_path):
        datasets = synth_dataset(
            TRUTH, [1200.0, 650.0], np.linspace(30.0, 150.0, 8), 0.05, 13
        )
        path = tmp_path / "angular.csv"
        write_angular_csv(path, datasets)
        return path

    def test_joint_fit_payload(self, capsys, data_csv):
        payload, err = run_json(
            capsys, "fit", str(data_csv), "--starts", "6", "--tol", "1e-10"
        )
        assert payload["schema_version"] == 1
        assert payload["mode"] == "joint"
        assert payload["converged"] is True
        assert payload["dof"] == 16 - 6
        assert set(payload["norms"]) == {"bin1", "bin2"}
        assert len(payload["covariance"]) == 6
        assert len(payload["residuals"]) == 16
        assert err == ""

    def test_per_bin_mode(self, capsys, data_csv):
        payload, _ = run_json(
            capsys, "fit", str(data_csv), "--mode", "per-bin", "--starts", "4",
            "--tol", "1e-8",
        )
        assert payload["mode"] == "per-bin"
        assert [b["bin_label"] for b in payload["bins"]] == ["bin1", "bin2"]

    def test_per_bin_entries_are_single_bin_fits(self, capsys, data_csv):
        payload, _ = run_json(
            capsys, "fit", str(data_csv), "--mode", "per-bin", "--starts", "4",
            "--tol", "1e-10", "--seed", "5",
        )
        datasets = read_angular_csv(data_csv)
        assert len(payload["bins"]) == len(datasets)
        for entry, ds in zip(payload["bins"], datasets):
            result = fit_angular([ds], n_starts=4, seed=5, tol=1e-10)
            assert entry["dof"] == len(ds) - 5
            assert list(entry["norms"]) == [ds.bin_label]
            assert entry["chi2"] == result.chi2
            assert entry["params"] == {
                "A": result.params.A, "B": result.params.B,
                "C": result.params.C, "r": result.params.r,
            }

    def test_missing_err_column_warns(self, capsys, tmp_path):
        datasets = synth_dataset(TRUTH, [1200.0, 650.0], np.linspace(30, 150, 8), 0.0, None)
        path = tmp_path / "angular.csv"
        write_angular_csv(path, datasets, with_err=False)
        _, err = run_json(capsys, "fit", str(path), "--starts", "4", "--tol", "1e-8")
        assert "unit weights" in err

    def test_malformed_csv_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("theta_deg,yield\n30,5\n")
        code, _, err = run(capsys, "fit", str(path))
        assert code == 2
        assert "data error" in err

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "fit", str(tmp_path / "absent.csv"))
        assert code == 2

    def test_two_i_plus_one_sample_fit_is_not_identifiable(self, capsys):
        # c_4 vanishes under 2I+1: three coefficients cannot carry four shape parameters
        payload, _ = run_json(
            capsys, "fit", str(SAMPLE_ANGULAR), "--weighting", "2I+1", "--starts", "4",
            "--tol", "1e-10",
        )
        assert payload["identifiable"] is False

    def test_underdetermined_is_numerical_error(self, capsys, tmp_path):
        datasets = synth_dataset(TRUTH, [100.0], np.linspace(30, 150, 5), 0.0, None)
        path = tmp_path / "tiny.csv"
        write_angular_csv(path, datasets, with_err=False)
        code, _, err = run(capsys, "fit", str(path))
        assert code == 3
        assert "numerical error" in err

    def test_underdetermined_bin_is_named(self, capsys, tmp_path):
        # per-bin needs 6 angles in every bin; joint pools the 13 points
        datasets = synth_dataset(TRUTH, [1200.0], np.linspace(30.0, 150.0, 8), 0.05, 13)
        datasets += synth_dataset(TRUTH, [650.0], np.linspace(30.0, 150.0, 5), 0.05, 14)
        datasets[1].bin_label = "short"
        path = tmp_path / "angular.csv"
        write_angular_csv(path, datasets)
        err = run_error(capsys, 3, "'short'", "fit", str(path), "--mode", "per-bin", "--starts", "2")
        assert err.startswith("photoevap: numerical error: ")
        code, _, err = run(capsys, "fit", str(path), "--starts", "2")
        assert code == 0, err


SAMPLE_ANGULAR = Path(__file__).resolve().parents[1] / "sample_data" / "angular_bi_gp.csv"
SAMPLE_SPECTRUM = SAMPLE_ANGULAR.with_name("spectrum_bi_gp.csv")


def write_model_table(path, energies=(1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0), vanish_from=math.inf):
    """Write the barrier model's own l = 0 sigma_inv of 208Pb as a lookup table.

    From ``vanish_from`` MeV on, the table's sigma_inv is 0.
    """
    from photoevap.thermo import NucleusSpec, inverse_capture_xsec

    nucleus = NucleusSpec(208, 82)
    rows = (f"{e!r},{inverse_capture_xsec(nucleus, 0, e) if e < vanish_from else 0.0!r}\n" for e in energies)
    path.write_text("eps_mev,sigma_fm2\n" + "".join(rows))
    return path


class TestFitResidualTable:
    @pytest.mark.parametrize("mode", ["joint", "per-bin"])
    @pytest.mark.parametrize("weighting", ["equal", "2I+1", "spin-cutoff"])
    def test_residual_squares_sum_to_chi2(self, capsys, weighting, mode):
        payload, _ = run_json(
            capsys, "fit", str(SAMPLE_ANGULAR), "--weighting", weighting,
            "--mode", mode, "--starts", "4", "--tol", "1e-10",
        )
        fits = [payload] if mode == "joint" else payload["bins"]
        for fit in fits:
            total = sum(row["residual"] ** 2 for row in fit["residuals"])
            assert total == pytest.approx(fit["chi2"], rel=1e-9)


class TestFitUnits:
    """A fit's outcome does not depend on the unit of a bin's yields and errors."""

    def test_subnormal_errors_fit(self, capsys, tmp_path):
        # 1 / 1e-310 overflows, but every weight is the bin's smallest error over err
        rows = [f"b,{theta!r},1e-160,1e-310" for theta in np.linspace(30.0, 150.0, 7).tolist()]
        path = tmp_path / "angular.csv"
        path.write_text("\n".join(["bin_label,theta_deg,yield,err", *rows]) + "\n")
        code, out, err = run(capsys, "fit", str(path), "--starts", "4")
        assert code == 0, err
        assert err == ""
        assert "NaN" not in out and "Infinity" not in out
        payload = json.loads(out)
        assert math.isfinite(payload["chi2"]) and 0.0 < payload["norms"]["b"] < 1e-150

    def test_sample_in_another_unit_fits_to_the_same_chi2(self, capsys, tmp_path):
        # the sample with its yield and err columns scaled by 1e-25
        header, *rows = SAMPLE_ANGULAR.read_text().splitlines()
        assert header == "bin_label,theta_deg,yield,err"
        scaled = []
        for row in rows:
            label, theta, value, err = row.split(",")
            scaled.append(f"{label},{theta},{float(value) * 1e-25!r},{float(err) * 1e-25!r}")
        path = tmp_path / "scaled.csv"
        path.write_text("\n".join([header, *scaled]) + "\n")
        unit, _ = run_json(capsys, "fit", str(SAMPLE_ANGULAR))
        code, out, err = run_warning_free(capsys, "fit", str(path))
        assert (code, err) == (0, "")
        chi2 = json.loads(out, parse_constant=_reject_constant)["chi2"]
        assert chi2 == pytest.approx(unit["chi2"], rel=1e-12)

    def test_extreme_units_exit_cleanly(self, capsys, tmp_path):
        # each bin's yields and errors in their own units from 1e-300 to 1e300; a
        # numpy warning fails the suite, so no fit may raise one on the way
        for seed in range(40):
            rng = np.random.default_rng(seed)
            k, n = int(rng.integers(1, 4)), int(rng.integers(6, 10))
            thetas = np.sort(rng.uniform(20.0, 160.0, n))
            datasets = synth_dataset(TRUTH, rng.uniform(300.0, 1500.0, k), thetas, 0.05, seed)
            for ds in datasets:
                ds.yields *= 10.0 ** rng.uniform(-300.0, 300.0)
                ds.errors *= 10.0 ** rng.uniform(-300.0, 300.0)
            path = tmp_path / f"units{seed}.csv"
            write_angular_csv(path, datasets)
            weighting = ("equal", "2I+1", "spin-cutoff")[seed % 3]
            mode = ("joint", "per-bin")[seed % 2]
            code, out, err = run(
                capsys, "fit", str(path), "--weighting", weighting, "--mode", mode, "--starts", "2"
            )
            assert code in (0, 3), (seed, err)
            assert "NaN" not in out and "Infinity" not in out, seed


class TestBadInputExitsCleanly:
    """Bad values give a typed error: one `photoevap:` line, no traceback, no warning, no output."""

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("yield", "nan", "bin {label!r}"),
            ("theta_deg", "nan", "bin {label!r}"),
            ("err", "inf", "bin {label!r}"),
            # with an err column, every row needs a number there
            ("err", "", "bad row on line 3"),
        ],
        ids=["yield-nan", "theta_deg-nan", "err-inf", "err-blank"],
    )
    def test_non_finite_angular_value_is_data_error(self, capsys, tmp_path, column, value, message):
        lines = SAMPLE_ANGULAR.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")
        row[header.index(column)] = value
        lines[2] = ",".join(row)
        path = tmp_path / "angular.csv"
        path.write_text("\n".join(lines) + "\n")
        message = message.format(label=row[0])
        err = run_error(capsys, 2, message, "fit", str(path), "--starts", "2")
        assert err.startswith(f"photoevap: data error: {path}: {message}")

    def test_non_finite_count_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("eps_mev,counts\n3.0,120.0\n4.0,nan\n5.0,40.0\n6.0,20.0\n")
        run_error(capsys, 2, "line 3", "spectrum", str(path), "-A", "208", "-Z", "82")

    # finite counts that overflow once divided by eps * sigma_inv(0.5 MeV) = 3.8e-36
    OVERFLOWING_SPECTRUM = "eps_mev,counts,err\n0.5,1e300,1e299\n3.0,120.0,5\n4.0,80.0,4\n5.0,40.0,3\n"

    def test_overflowing_scaled_count_is_numerical_error(self, capsys, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text(self.OVERFLOWING_SPECTRUM)
        err = run_error(capsys, 3, "eps = 0.5 MeV", "spectrum", str(path), "-A", "208", "-Z", "82")
        assert err.startswith("photoevap: numerical error: ")

    def test_nan_eps_max_is_checked_before_any_point(self, capsys, tmp_path):
        # NaN keeps no point in the window, so the unscalable one is never scaled
        path = tmp_path / "spectrum.csv"
        path.write_text(self.OVERFLOWING_SPECTRUM)
        err = run_error(capsys, 1, "eps_max", "spectrum", str(path), "-A", "208", "-Z", "82", "--eps-max", "nan")
        assert err == "photoevap: error: eps_max must be a number, got nan\n"

    @pytest.mark.parametrize(
        "table_row", ["5.0,nan", "nan,100.0", "5.0,inf"], ids=["nan-sigma", "nan-eps", "inf-sigma"]
    )
    def test_non_finite_table_entry_is_data_error(self, capsys, tmp_path, table_row):
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("eps_mev,counts\n3.0,120.0\n4.0,80.0\n5.0,40.0\n6.0,20.0\n")
        table = tmp_path / "table.csv"
        table.write_text(f"eps_mev,sigma_fm2\n0.5,100.0\n{table_row}\n10.0,100.0\n")
        run_error(
            capsys, 2, "finite", "spectrum", str(spectrum), "-A", "208", "-Z", "82",
            "--sigma-inv-table", str(table),
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["model", "-A", "1", "-B", "1", "-C", "1", "-r", "0", "--grid", "0:180:10000000000000"], "MemoryError"),
            (["fit", str(SAMPLE_ANGULAR), "--starts", "10000000000000"], "n_starts"),
            # an integer too large for an index, or for a float
            (["model", "-A", "1", "-B", "1", "-C", "1", "-r", "0", "--grid", f"0:180:{2**63}"], "index-sized"),
            (["exciton", "-A", str(10**400), "-E", "1"], "too large"),
        ],
        ids=["grid", "starts", "grid-2**63", "exciton-A-10**400"],
    )
    def test_unallocatable_count_is_usage_error(self, capsys, argv, message):
        # 1e13 float64 or int64 entries (73 TiB) are refused at allocation, before any write
        err = run_error(capsys, 1, message, *argv)
        assert err.startswith("photoevap: error: ")

    def test_negative_l_with_table_is_usage_error(self, capsys, tmp_path):
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("eps_mev,counts\n3.0,120.0\n4.0,80.0\n5.0,40.0\n6.0,20.0\n")
        table = tmp_path / "table.csv"
        table.write_text("eps_mev,sigma_fm2\n0.5,100.0\n10.0,100.0\n")
        # also with a window that holds no point: l is checked before any point
        for window in ([], ["--eps-max", "0.1"]):
            run_error(
                capsys, 1, "l must be a non-negative integer",
                "spectrum", str(spectrum), "-A", "208", "-Z", "82", "--l", "-3",
                "--sigma-inv-table", str(table), *window,
            )

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--tol", "nan"], "tol must be finite"),
            (["--tol", "inf"], "tol must be finite"),
            (["--max-iter", "0"], "max_iter must be >= 1"),
            (["--tol", "1e-17"], "tol must be"),
            # numpy's arange silently returns no rows for this count
            (["--starts", str(2**63)], "n_starts"),
            (["--seed", "-1"], "seed must be"),
        ],
        ids=["tol-nan", "tol-inf", "max-iter-0", "tol-below-eps", "starts-2**63", "seed-negative"],
    )
    def test_unusable_stopping_rule_is_usage_error(self, capsys, tmp_path, option, message):
        # also on data whose chi-square overflows: every option is checked before the data
        lines = SAMPLE_ANGULAR.read_text().splitlines()
        row = lines[1].split(",")
        row[lines[0].split(",").index("yield")] = "1.5e300"
        overflowing = tmp_path / "overflow.csv"
        overflowing.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
        for data in (SAMPLE_ANGULAR, overflowing):
            err = run_error(capsys, 1, message, "fit", str(data), "--starts", "2", *option)
            assert "max_nfev" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", str(SAMPLE_ANGULAR), "--starts", "2", "--tol=-1e-8"], "tol must be"),
            (["model", "-A=-1e-3", "-B", "1", "-C", "1", "-r", "0"], "A must be finite"),
        ],
        ids=["tol", "A"],
    )
    def test_negative_exponent_value_joined_with_equals(self, capsys, argv, message):
        # Python 3.11's argparse reads a separate -1e-8 as an option; joined with =,
        # the value reaches the range check
        run_error(capsys, 1, message, *argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "{bad}"],
            ["spectrum", "{bad}", "-A", "208", "-Z", "82"],
            ["spectrum", "{good}", "-A", "208", "-Z", "82", "--sigma-inv-table", "{bad}"],
            ["model", "--config", "{bad}"],
            ["spectrum", "{late}", "-A", "208", "-Z", "82"],
        ],
        ids=["fit-data", "spectrum-data", "table", "config", "spectrum-data-late"],
    )
    def test_undecodable_file_is_data_error(self, capsys, tmp_path, argv):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("eps_mev,counts\n3.0,120.0 \u00b5\n".encode("latin-1"))  # not UTF-8
        # the bad byte lies beyond the first decoded chunk, so it fails in the row loop
        late = tmp_path / "late.csv"
        late.write_bytes(("eps_mev,counts\n" + "3.0,120.0\n" * 2000 + "4.0,80.0 \u00b5\n").encode("latin-1"))
        good = tmp_path / "spectrum.csv"
        good.write_text("eps_mev,counts\n3.0,120.0\n4.0,80.0\n5.0,40.0\n6.0,20.0\n")
        # with two input files, the message says which one
        named = late if "{late}" in argv else bad
        err = run_error(capsys, 2, str(named), *(token.format(bad=bad, late=late, good=good) for token in argv))
        assert err.startswith("photoevap: data error: ")

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("spectrum.csv", "eps_mev,counts\n3.0,120.0\n4.0\n5.0,40.0\n", "bad row on line 3"),
            ("spectrum.csv", "eps_mev,counts\n", "no data rows"),
            ("spectrum.csv", "eps_mev,counts\n3.0,120.0\n\n4.0\n5.0,40.0\n", "bad row on line 4"),
            ("spectrum.csv", "eps_mev,counts\n3.0," + "9" * 200_000 + "\n", "field larger than field limit"),
            # with an err column, every row needs a number there
            ("spectrum.csv", "eps_mev,counts,err\n3.0,120.0,5\n4.0,80.0,\n5.0,40.0,3\n", "bad row on line 3"),
            ("table.csv", "eps_mev,sigma_fm2\n10.0,100.0\n0.5,100.0\n", "table energies must be strictly increasing"),
            (
                "table.csv", "eps_mev,sigma_fm2\n0.5,100.0\n5.0,nan\n10.0,100.0\n",
                "table energies and cross sections must be finite",
            ),
            ("table.csv", "eps_mev,sigma_fm2\n", "no data rows"),
            ("table.csv", "eps_mev,sigma_fm2\n0.5,100.0\n", "table needs at least two"),
        ],
        ids=[
            "short-row", "header-only", "blank-line", "oversized-field", "blank-err",
            "decreasing-table", "non-finite-table", "header-only-table", "one-row-table",
        ],
    )
    def test_malformed_spectrum_is_data_error(self, capsys, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        data = SAMPLE_SPECTRUM if name == "table.csv" else path
        table = ["--sigma-inv-table", str(path)] if name == "table.csv" else []
        err = run_error(capsys, 2, message, "spectrum", str(data), "-A", "208", "-Z", "82", *table)
        # the path tells the table from the spectrum it scales
        assert err.startswith(f"photoevap: data error: {path}: {message}")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["model", "-A", "1e200", "-B", "1", "-C", "1", "-r", "0"], "overflow"),
            # A^2 and C^2 are finite, their product is not
            (["model", "-A", "1e150", "-B", "1", "-C", "1e150", "-r", "0"], "overflow"),
            (["spectrum", "spectrum.csv", "-A", "208", "-Z", "82"], "error too small to weight"),
            # c_0 = 0: a spin cutoff this small weights every I' >= 1 to zero, and B = 0 with
            # A C = 0 switches off both I' = 0 channels (E1 with l' = 1, E2 with l' = 2)
            (
                ["model", "-A", "0", "-B", "0", "-C", "0", "-r", "0", "--weighting", "spin-cutoff",
                 "--spin-cutoff-sigma", "0.01"],
                "non-positive isotropic",
            ),
            # beta = r gamma_cn rounds to 0, so the exact hbar / beta is past the float maximum
            (["times", "-r", "5e-324", "--gcn", "0.1eV", "--gspr", "2MeV", "--D", "1e-16MeV"], "overflows"),
        ],
        ids=[
            "model-overflow", "model-product-overflow", "spectrum-tiny-error", "model-zero-isotropic",
            "times-zero-beta",
        ],
    )
    def test_numerical_error_prints_no_numpy_warning(self, tmp_path, argv, message):
        # a fresh process, since pytest captures warnings that a user would see
        (tmp_path / "spectrum.csv").write_text(
            "eps_mev,counts,err\n3.0,120.0,1e-320\n4.0,80.0,1.0\n5.0,40.0,1.0\n"
        )
        proc = _run_console_script("photoevap.cli:main", tmp_path, *argv)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("photoevap: numerical error: ") and message in proc.stderr
        assert proc.stderr.count("\n") == 1, proc.stderr

    @pytest.mark.parametrize(
        "spectrum, table, message",
        [
            # counts / eps on a flat table: constant, and doubling per MeV
            ("eps_mev,counts\n3,3\n4,4\n5,5\n", True, "scaled spectrum does not fall"),
            ("eps_mev,counts\n1,10\n2,40\n3,120\n", True, "scaled spectrum does not fall"),
            # one zero error beside positive ones cannot be weighted
            ("eps_mev,counts,err\n3.0,120.0,0\n4.0,80.0,1.0\n5.0,40.0,1.0\n", False, "error too small to weight"),
            # a negative count scales to a value that has no logarithm to fit
            ("eps_mev,counts,err\n3.0,120.0,5\n4.0,-80.0,4\n5.0,40.0,3\n", False, "non-positive scaled value"),
        ],
        ids=["flat", "rising", "zero-error", "negative-count"],
    )
    def test_spectrum_without_temperature_is_numerical_error(self, tmp_path, spectrum, table, message):
        # a fresh process, so that a warning would reach stderr
        (tmp_path / "spectrum.csv").write_text(spectrum)
        (tmp_path / "table.csv").write_text("eps_mev,sigma_fm2\n1,1\n10,1\n")
        argv = ["spectrum", "spectrum.csv", "-A", "208", "-Z", "82", *["--sigma-inv-table", "table.csv"] * table]
        proc = _run_console_script("photoevap.cli:main", tmp_path, *argv)
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"photoevap: numerical error: {message}")
        assert proc.stderr.count("\n") == 1, proc.stderr

    def test_equal_energies_are_numerical_error(self, capsys, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("eps_mev,counts\n5.0,120.0\n5.0,110.0\n5.0,130.0\n")
        run_error(capsys, 3, "no spread in energy", "spectrum", str(path), "-A", "208", "-Z", "82")


class TestSpectrum:
    @pytest.fixture()
    def spectrum_csv(self, tmp_path):
        from photoevap.thermo import NucleusSpec, inverse_capture_xsec

        nucleus = NucleusSpec(208, 82)
        eps = np.arange(3.0, 8.01, 0.5)
        sigma = np.array([inverse_capture_xsec(nucleus, 0, e) for e in eps])
        counts = 1e4 * eps * sigma * np.exp(-eps / 0.55)
        path = tmp_path / "spectrum.csv"
        rows = ["eps_mev,counts"] + [
            f"{float(e)!r},{float(c)!r}" for e, c in zip(eps, counts)
        ]
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_recovers_temperature(self, capsys, spectrum_csv):
        payload, _ = run_json(
            capsys, "spectrum", str(spectrum_csv), "-A", "208", "-Z", "82",
            "--eps-max", "8",
        )
        assert payload["schema_version"] == 1
        assert payload["sigma_inv_source"] == "model"
        assert payload["temperature_mev"] == pytest.approx(0.55, rel=1e-10)
        assert payload["n_points"] == 11

    def test_unbounded_window_is_reported_as_null(self, capsys, spectrum_csv):
        # JSON has no finite stand-in for an infinite edge
        payload, _ = run_json(
            capsys, "spectrum", str(spectrum_csv), "-A", "208", "-Z", "82", "--eps-max", "inf",
        )
        assert payload["eps_max_mev"] is None
        assert payload["n_points"] == 11
        assert payload["temperature_mev"] == pytest.approx(0.55, rel=1e-10)

    def test_table_override_is_reported(self, capsys, spectrum_csv, tmp_path):
        table = write_model_table(tmp_path / "table.csv")
        payload, _ = run_json(
            capsys, "spectrum", str(spectrum_csv), "-A", "208", "-Z", "82",
            "--sigma-inv-table", str(table),
        )
        assert payload["sigma_inv_source"] == "table"
        assert payload["temperature_mev"] > 0

    def test_narrow_window_is_numerical_error(self, capsys, spectrum_csv):
        # 3.1 keeps one point and 1 keeps none, which scales to nothing before the fit counts it
        for eps_max, have in (("3.1", 1), ("1", 0)):
            code, _, err = run(
                capsys, "spectrum", str(spectrum_csv), "-A", "208", "-Z", "82",
                "--eps-max", eps_max,
            )
            assert code == 3
            assert f"need at least 3 points below eps_max = {eps_max}, have {have}" in err

    @pytest.mark.parametrize(
        "energies, vanish_from",
        [((1.5, 2.0, 3.0, 4.0, 5.0, 6.0), math.inf), ((1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 6.5, 8.0, 10.0), 6.5)],
        ids=["table-ends-at-window", "sigma-vanishes-above-window"],
    )
    def test_table_needs_to_cover_only_the_window(self, capsys, tmp_path, energies, vanish_from):
        # points above --eps-max are never scaled, so the table beyond 6 MeV is never read
        argv = ["spectrum", str(SAMPLE_SPECTRUM), "-A", "208", "-Z", "82", "--eps-max", "6", "--sigma-inv-table"]
        full = run(capsys, *argv, str(write_model_table(tmp_path / "full.csv")))
        assert full[0] == 0, full[2]
        window = write_model_table(tmp_path / "window.csv", energies, vanish_from)
        assert run(capsys, *argv, str(window)) == full

    @pytest.mark.parametrize(
        "option, message",
        [
            (["-Z", "300"], "need 1 <= Z < A"),
            (["-Z", "82", "--eps-max", "nan"], "eps_max"),
            (["-Z", "82", "--l=-3", "--eps-max", "0.1"], "l must be a non-negative integer"),
        ],
        ids=["bad-nucleus", "eps-max-nan", "negative-l-empty-window"],
    )
    def test_bad_option_is_usage_error(self, capsys, spectrum_csv, option, message):
        run_error(capsys, 1, message, "spectrum", str(spectrum_csv), "-A", "208", *option)


class TestExciton:
    def test_frozen_report(self, capsys):
        payload, _ = run_json(capsys, "exciton", "-A", "208", "-E", "6.3")
        assert payload["g_per_mev"] == 16.0
        assert payload["n_bar"] == pytest.approx(14.198591479439079, rel=1e-14)
        assert payload["t_low_mev"] == pytest.approx(0.37359807670918105, rel=1e-14)
        assert payload["t_high_mev"] == pytest.approx(0.5462045189746152, rel=1e-14)

    def test_degenerate_window_is_numerical_error(self, capsys):
        code, _, _ = run(capsys, "exciton", "-A", "2", "-E", "0.5")
        assert code == 3

    def test_overflowing_exciton_number_is_numerical_error(self, capsys):
        err = run_error(capsys, 3, "overflows", "exciton", "-A", "208", "-E", "1e308")
        assert err.startswith("photoevap: numerical error: exciton number")


class TestTimes:
    ARGS = ("times", "-r", "0.11", "--gcn", "0.1eV", "--gspr", "2MeV", "--D", "1e-16MeV")

    def test_frozen_report(self, capsys):
        payload, _ = run_json(capsys, *self.ARGS)
        assert payload["beta_ev"] == pytest.approx(0.011, rel=1e-12)
        assert payload["tau_phase_s"] == pytest.approx(5.983744545454544e-14, rel=1e-12)
        assert payload["tau_cn_s"] == pytest.approx(6.582119e-15, rel=1e-12)
        assert payload["tau_thermalization_s"] == pytest.approx(3.2910595e-22, rel=1e-12)
        assert payload["n_eff"] == pytest.approx(2e16, rel=1e-12)
        assert payload["tau_phase_over_tau_thermalization"] == pytest.approx(
            1.8181818181818182e8, rel=1e-10
        )

    def test_unit_suffixes_are_equivalent(self, capsys):
        kev, _ = run_json(
            capsys, "times", "-r", "0.11", "--gcn", "100000kev", "--gspr", "2000keV",
            "--D", "1e-13keV",
        )
        mev, _ = run_json(capsys, *self.ARGS[:-4], "--gspr", "2MeV", "--D", "1e-16MeV")
        assert kev["tau_thermalization_s"] == pytest.approx(
            mev["tau_thermalization_s"], rel=1e-12
        )

    def test_zero_r_serialises_null(self, capsys):
        code, out, _ = run(
            capsys, "times", "-r", "0", "--gcn", "0.1eV", "--gspr", "2MeV",
            "--D", "1e-16MeV",
        )
        assert code == 0
        payload = json.loads(out, parse_constant=_reject_constant)
        assert payload["tau_phase_s"] is None
        assert payload["tau_phase_over_tau_thermalization"] is None

    def test_width_infinite_in_ev_is_usage_error(self, capsys):
        # 1e308 MeV is inf eV; this used to end in a ZeroDivisionError traceback
        code, out, err = run(
            capsys, "times", "-r", "1", "--gcn", "0.1eV", "--gspr", "1e308MeV", "--D", "1MeV"
        )
        assert code == 1
        assert out == ""
        assert "gamma_spreading_mev" in err

    def test_overflowing_derived_value_is_numerical_error(self, capsys):
        # tau_phase / tau_thermalization = 1e300 / 1e-300 leaves the float range
        err = run_error(
            capsys, 3, "overflows", "times", "-r", "1e-300", "--gcn", "1eV", "--gspr", "1e300MeV", "--D", "1MeV"
        )
        assert err.startswith("photoevap: numerical error:")

    @pytest.mark.parametrize(
        "gcn, message",
        [("0.1", "suffix"), ("1e.eV", "bad width value"), ("infeV", "bad width value"), ("nanEv", "bad width value")],
        ids=["no-unit", "bad-number", "inf", "nan"],
    )
    def test_missing_unit_suffix_is_usage_error(self, capsys, gcn, message):
        run_error(
            capsys, 1, message, "times", "-r", "0.11", "--gcn", gcn, "--gspr", "2MeV",
            "--D", "1e-16MeV",
        )


class TestEnvelope:
    @pytest.mark.parametrize(
        "argv",
        [
            TestModel.ARGS,
            ("fit", str(SAMPLE_ANGULAR), "--starts", "2"),
            ("spectrum", str(SAMPLE_SPECTRUM), "-A", "208", "-Z", "82"),
            ("exciton", "-A", "208", "-E", "6.3"),
            TestTimes.ARGS,
        ],
        ids=lambda argv: argv[0],
    )
    def test_schema_and_command_lead_and_output_file_matches_stdout(
        self, capsys, tmp_path, argv
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        payload = json.loads(out, parse_constant=_reject_constant)
        assert list(payload)[:2] == ["schema_version", "command"]
        assert payload["schema_version"] == 1 and payload["command"] == argv[0]
        target = tmp_path / "out.json"
        code, to_stdout, err = run(capsys, *argv, "--output", str(target))
        assert code == 0, err
        assert to_stdout == ""
        assert target.read_bytes() == out.encode()

    @pytest.mark.parametrize(
        "target, message",
        [("{tmp}", "Is a directory"), ("{tmp}/absent/out.json", "No such file or directory")],
        ids=["directory", "missing-directory"],
    )
    def test_unwritable_output_is_data_error(self, capsys, tmp_path, target, message):
        # the result is computed, then cannot be written: the output file is an input error too
        target = target.format(tmp=tmp_path)
        err = run_error(capsys, 2, message, *TestModel.ARGS, "--output", target)
        assert err.startswith(f"photoevap: data error: cannot write output {target}: ") and repr(target) in err

    def test_non_finite_value_is_error_not_invalid_json(self, capsys, monkeypatch):
        monkeypatch.setattr(photoevap.cli, "_cmd_exciton", lambda args: {"x": math.inf})
        code, out, err = run(capsys, "exciton", "-A", "208", "-E", "6.3")
        assert code == 1
        assert out == ""
        assert err.startswith("photoevap: error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("A = 0.082\nB = 0.47\nC = 0.37\nr = 0.11\ngrid = 0:180:7\n")
        payload, _ = run_json(capsys, "model", "--config", str(cfg))
        assert len(payload["curve"]) == 7
        assert payload["params"]["r"] == 0.11

    def test_explicit_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("A = 0.082\nB = 0.47\nC = 0.37\nr = 0.11\n")
        payload, _ = run_json(capsys, "model", "--config", str(cfg), "-r", "2.5")
        assert payload["params"]["r"] == 2.5

    def test_comments_and_blank_lines_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(
            "# shape parameters\nA = 0.082\n\nB = 0.47  # exit ratio\nC = 0.37\nr = 0.11\n"
        )
        payload, _ = run_json(capsys, "model", "--config", str(cfg))
        assert payload["params"]["B"] == 0.47

    def test_missing_config_file_is_data_error(self, capsys):
        err = run_error(capsys, 2, "data error", "model", "--config", "/nonexistent.cfg")
        assert err.startswith("photoevap: data error: cannot read config file /nonexistent.cfg")

    @pytest.mark.parametrize("line", ["A 0.082", "A =", "= 0.1"], ids=["no-equals", "no-value", "no-key"])
    def test_malformed_config_line_is_data_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "model.cfg"
        cfg.write_text(line + "\n")
        err = run_error(capsys, 2, "expected key = value", "model", "--config", str(cfg))
        assert err == f"photoevap: data error: {cfg}:1: expected key = value\n"

    def test_config_equals_form(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("A = 0.082\nB = 0.47\nC = 0.37\nr = 0.11\n")
        payload, _ = run_json(capsys, "model", f"--config={cfg}")
        assert payload["params"]["A"] == 0.082

    @pytest.mark.parametrize("value", ["true", "TRUE", "False", "false"])
    def test_former_flag_key_is_usage_error(self, capsys, tmp_path, value):
        # 0.1.0 read these values as the --huby-phase flag; a file written for it
        # is refused rather than run under the one phase convention left
        cfg = tmp_path / "model.cfg"
        cfg.write_text(f"A = 0.082\nB = 0.47\nC = 0.37\nr = 0.11\nhuby_phase = {value}\n")
        code, out, err = run(capsys, "model", "--config", str(cfg))
        assert (code, out) == (1, "")
        assert "config key 'huby_phase'" in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "argv, text, key",
        [
            # huby_phase names no option (the model has one phase convention): a file
            # that sets it, to any value, is refused with the key named
            (["model"], "A = 0.082\nB = 0.47\nC = 0.37\nr = 0.11\nhuby_phase = yes\n", "huby_phase"),
            (["model"], "A = 0.082\nB = 0.47\nC = 0.37\nr = 0.11\nhuby_phase = 1\n", "huby_phase"),
            (["model"], "A = 0.082\nB = 0.47\nC = 0.37\nr = 0.11\ncolour = red\n", "colour"),
            (["fit", str(SAMPLE_ANGULAR)], "huby_phase = true\n", "huby_phase"),
            ([], "A = 0.082\n", "A"),
            # a config file sets up the run; it cannot name another config or ask for help
            (["spectrum", str(SAMPLE_SPECTRUM)], "mass_number = 208\nconfig = x.cfg\n", "config"),
            (["model"], "A = 0.082\nB = 0.47\nC = 0.37\nr = 0.11\nhelp = true\n", "help"),
            ([], "help = true\n", "help"),
            # each option is set once per file, under any of its spellings
            (["spectrum", str(SAMPLE_SPECTRUM)], "mass_number = 208\ncharge = 82\nl = 2\nl = 0\n", "l"),
            (["spectrum", str(SAMPLE_SPECTRUM)], "A = 208\ncharge = 82\nmass_number = 120\n", "mass_number"),
            (["model"], "huby_phase = false\nhuby_phase = true\n", "huby_phase"),
        ],
        ids=[
            "flag-yes", "flag-1", "model-unknown", "fit-huby-phase", "no-command",
            "config", "help", "no-command-help", "repeated-key", "two-spellings", "repeated-flag",
        ],
    )
    def test_bad_key_is_usage_error_naming_it(self, capsys, tmp_path, argv, text, key):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert f"config key {key!r}" in err.splitlines()[-1]
        assert "unrecognized" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", str(SAMPLE_SPECTRUM), "--config", "{b}", "--config", "{a}"],
            ["--config", "{b}", "spectrum", str(SAMPLE_SPECTRUM), "--config", "{a}"],
            ["spectrum", str(SAMPLE_SPECTRUM), "--config={b}", "--config={b}"],
        ],
        ids=["after", "around", "same-file"],
    )
    def test_second_config_is_usage_error(self, capsys, tmp_path, argv):
        # a second file neither replaces the first in silence nor merges with it
        b, a = tmp_path / "b.cfg", tmp_path / "a.cfg"
        b.write_text("mass_number = 208\ncharge = 82\n")
        a.write_text("l = 2\n")
        code, out, err = run(capsys, *(token.format(a=a, b=b) for token in argv))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "photoevap spectrum: error: argument --config: may be given only once"

    @pytest.mark.parametrize("command", ["coeff", "model", "fit", "spectrum", "exciton", "times"])
    def test_every_subcommand_lists_config(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        assert "--config CONFIG" in out

    def test_dangling_config_is_usage_error(self, capsys):
        code, out, err = run(capsys, "model", "--config")
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == "photoevap model: error: argument --config: expected one argument"

    def test_config_before_the_subcommand(self, capsys, tmp_path):
        cfg = tmp_path / "spectrum.cfg"
        cfg.write_text("mass_number = 208\ncharge = 82\nl = 2\n")
        flags = ["-A", "208", "-Z", "82", "--l", "2"]
        code, from_flags, err = run(capsys, "spectrum", str(SAMPLE_SPECTRUM), *flags)
        assert code == 0, err
        # and after it, as README's example puts it
        for argv in (
            ["--config", str(cfg), "spectrum", str(SAMPLE_SPECTRUM)],
            ["spectrum", str(SAMPLE_SPECTRUM), "--config", str(cfg)],
        ):
            code, from_config, err = run(capsys, *argv)
            assert code == 0, err
            assert from_config == from_flags
        assert json.loads(from_config)["partial_wave_l"] == 2

    @pytest.mark.parametrize(
        "argv, unrecognized",
        [
            (["spectrum", str(SAMPLE_SPECTRUM), "-A", "208", "-Z", "82", "--conf", "{cfg}"], "--conf {cfg}"),
            (["spectrum", str(SAMPLE_SPECTRUM), "-A", "208", "-Z", "82", "--conf={cfg}"], "--conf={cfg}"),
            (["fit", str(SAMPLE_ANGULAR), "--weight", "2I+1"], "--weight 2I+1"),
        ],
        ids=["conf", "conf-equals", "weight"],
    )
    def test_abbreviated_option_is_usage_error(self, capsys, tmp_path, argv, unrecognized):
        # a prefix of an option name matches nothing, so --conf cannot reach the
        # subcommand as --config after the config pass has passed it over
        cfg = tmp_path / "l2.cfg"
        cfg.write_text("l = 2\n")
        code, out, err = run(capsys, *(token.format(cfg=cfg) for token in argv))
        assert (code, out) == (1, "")
        assert err.splitlines()[-1].endswith("unrecognized arguments: " + unrecognized.format(cfg=cfg))

    @pytest.mark.parametrize(
        "positional, options",
        [
            (
                ["model"],
                ["-A", "0.082", "-B", "0.47", "-C", "0.37", "-r", "0.11", "--grid", "0:180:7",
                 "--weighting", "spin-cutoff", "--spin-cutoff-sigma", "1.5", "--format", "csv"],
            ),
            (
                ["fit", str(SAMPLE_ANGULAR)],
                ["--mode", "per-bin", "--starts", "2", "--seed", "1", "--tol", "1e-10",
                 "--max-iter", "300", "--weighting", "2I+1"],
            ),
            (
                ["spectrum", str(SAMPLE_SPECTRUM)],
                ["-A", "208", "--charge", "82", "--l", "2", "--eps-max", "6.5"],
            ),
            (["exciton"], ["--mass-number", "208", "-E", "6.3"]),
            (["times"], ["-r", "0.11", "--gcn", "0.1eV", "--gspr", "2MeV", "--D", "1e-16MeV"]),
            (
                ["fit", str(SAMPLE_ANGULAR)],
                ["--mode", "per-bin", "--seed", "1", "--weighting", "spin-cutoff",
                 "--spin-cutoff-sigma", "1.3", "--max-iter", "400"],
            ),
        ],
        ids=["model", "fit", "spectrum", "exciton", "times", "fit-spin-cutoff"],
    )
    def test_every_option_can_come_from_the_config(self, capsys, tmp_path, positional, options):
        # each flag as its key: -A -> A, --l -> l, --mass-number -> mass_number
        pairs = zip(options[::2], options[1::2])
        cfg = tmp_path / "case.cfg"
        cfg.write_text("".join(f"{flag.lstrip('-').replace('-', '_')} = {value}\n" for flag, value in pairs))
        code, from_flags, err = run(capsys, *positional, *options)
        assert code == 0, err
        code, from_config, err = run(capsys, *positional, "--config", str(cfg))
        assert code == 0, err
        assert from_config == from_flags


CG_ONE_ARGS = ("coeff", "cg", "0", "0", "0", "0", "0", "0")

# What the wrapper that pip generates for a console script runs.
_WRAPPER = """\
import sys
from {module} import {attr}
sys.argv[0] = "photoevap"
sys.exit({attr}())
"""


REPO_ROOT = Path(__file__).resolve().parents[1]


def _readme_examples():
    """(argv, value) for every `photoevap ...` line of README.md's sh blocks
    and of sample_data/README.md's "Try:" blocks.

    value is the stdout that a `# value` comment after the line promises,
    or None where there is no comment.
    """
    lines = []
    in_sh = False
    for line in (REPO_ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("photoevap "):
            lines.append(line)
    after_try = False
    for line in (REPO_ROOT / "sample_data" / "README.md").read_text(encoding="utf-8").splitlines():
        if line == "Try:":
            after_try = True
        elif after_try and line.startswith("    photoevap "):
            lines.append(line.strip())
        elif line:
            after_try = False
    examples = []
    for line in lines:
        command, _, value = line.partition("#")
        examples.append((shlex.split(command)[1:], value.strip() or None))
    return examples


README_EXAMPLES = _readme_examples()


class TestReadmeExamples:
    """Both READMEs' command examples run as written, from the repo root."""

    def test_examples_are_found(self):
        values = {" ".join(argv[:2]): value for argv, value in README_EXAMPLES if value}
        assert values == {"coeff cg": "0.707106781187", "coeff z": "2.00000000000"}
        assert {argv[0] for argv, _ in README_EXAMPLES} >= {"coeff", "model", "fit", "spectrum", "exciton", "times"}

    @pytest.mark.parametrize("argv, value", README_EXAMPLES, ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
    def test_example_runs(self, capsys, monkeypatch, argv, value):
        monkeypatch.chdir(REPO_ROOT)
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        if value is not None:
            assert out == value + "\n"
        elif "csv" not in argv:
            json.loads(out, parse_constant=_reject_constant)


def _declared_console_script(name):
    """The `module:attr` target of a `[project.scripts]` entry in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def _run_console_script(target, cwd, *args):
    """Run `target` as its generated wrapper would, in a fresh interpreter.

    The child imports photoevap from the directory this suite imported it
    from, whatever the working directory or an installed copy.
    """
    module, attr = target.split(":")
    code = _WRAPPER.format(module=module, attr=attr)
    import_root = Path(photoevap.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(import_root))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


class TestTopLevel:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys)[0] == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert run(capsys, "transmogrify")[0] == 1

    def test_console_script_is_installed(self, tmp_path):
        target = _declared_console_script("photoevap")
        assert callable(pkgutil.resolve_name(target))

        ok = _run_console_script(target, tmp_path, *CG_ONE_ARGS)
        assert ok.returncode == 0, ok.stderr
        assert ok.stdout.strip() == "1.00000000000"
        # main's returned code must become the process exit status.
        assert _run_console_script(target, tmp_path, "transmogrify").returncode == 1

    def test_import_loads_no_scipy(self):
        import_root = Path(photoevap.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(import_root))
        code = (
            "import sys, photoevap.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

        # a whole fit process: -X importtime writes one stderr line per imported module
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "photoevap.cli", "fit", str(SAMPLE_ANGULAR)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["converged"]
        imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if "|" in line]
        assert "photoevap.fitkit" in imported
        assert not [m for m in imported if m.split(".")[0] == "scipy"]

    def test_light_commands_load_no_numpy(self, tmp_path):
        table = write_model_table(tmp_path / "table.csv")
        config = tmp_path / "spectrum.cfg"
        config.write_text("mass_number = 208\ncharge = 82\neps_max = 6.5\n")
        spectrum = [str(SAMPLE_SPECTRUM), "-A", "208", "-Z", "82"]
        commands = [
            list(CG_ONE_ARGS),
            ["coeff", "cg", "0.5", "0.5", "0.5", "--", "-0.5", "1", "0"],
            ["coeff", "z", "0", "0.5", "2", "1.5", "0.5", "2"],
            ["coeff", "w6j", "1", "2", "3", "2", "1", "2"],
            ["coeff", "racah", "1", "2", "3", "2", "1", "2"],
            list(TestModel.ARGS),
            [*TestModel.ARGS, "--format", "csv", "--grid", "0:180:19"],
            [*TestModel.ARGS, "--weighting", "2I+1"],
            [*TestModel.ARGS, "--weighting", "spin-cutoff", "--spin-cutoff-sigma", "0.7"],
            ["model", "-A", "0.3", "-B", "1.2", "-C", "0.05", "-r", "2", "--weighting", "spin-cutoff",
             "--spin-cutoff-sigma", "0.7"],
            ["exciton", "-A", "208", "-E", "6.3"],
            ["times", "-r", "0.11", "--gcn", "0.1eV", "--gspr", "2MeV", "--D", "1e-16MeV"],
            ["spectrum", *spectrum],
            *(["spectrum", *spectrum, "--l", str(l)] for l in range(5)),
            ["spectrum", *spectrum, "--sigma-inv-table", str(table)],
            ["spectrum", str(SAMPLE_SPECTRUM), "--config", str(config), "--l", "2"],
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "def loaded(*roots):\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] in roots and m != 'photoevap')\n"
            "import photoevap\n"
            "report = {'import': loaded('numpy', 'photoevap')}\n"
            "from photoevap.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = main(argv)\n"
            "    report[' '.join(argv)] = [status, loaded('numpy')]\n"
            "print(json.dumps(report))\n"
        )
        import_root = Path(photoevap.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(import_root))
        proc = subprocess.run(
            [sys.executable, "-c", code, json.dumps(commands)], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report.pop("import") == []
        assert report == {" ".join(argv): [0, []] for argv in commands}

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeff", "cg", "0.5", "0.5", "0.5", "--", "-0.5", "1", "0"],
            ["coeff", "w6j", "1", "2", "3", "2", "1", "2"],
            ["coeff", "racah", "1", "2", "3", "2", "1", "2"],
            ["coeff", "z", "1", "1.5", "1", "1.5", "0.5", "2"],
            list(TestModel.ARGS),
            ["exciton", "-A", "208", "-E", "6.3"],
            list(TestTimes.ARGS),
            ["spectrum", str(SAMPLE_SPECTRUM), "-A", "208", "-Z", "82", "--l", "0"],
            ["spectrum", str(SAMPLE_SPECTRUM), "-A", "208", "-Z", "82", "--l", "2"],
            ["fit", str(SAMPLE_ANGULAR)],
            ["fit", str(SAMPLE_ANGULAR), "--mode", "per-bin", "--weighting", "spin-cutoff"],
        ],
        ids=[
            "coeff-cg", "coeff-w6j", "coeff-racah", "coeff-z", "model", "exciton", "times",
            "spectrum-l0", "spectrum-l2", "fit", "fit-per-bin-spin-cutoff",
        ],
    )
    def test_no_command_loads_dataclass_machinery(self, argv):
        # one fresh process per command, so no command sees another's imports
        code = (
            "import contextlib, io, json, sys\n"
            "from photoevap.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(sys.argv[1:])\n"
            "print(json.dumps([status, sorted({'dataclasses', 'inspect'} & set(sys.modules))]))\n"
        )
        import_root = Path(photoevap.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(import_root))
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        # numpy itself imports inspect, and only fit imports numpy
        assert json.loads(proc.stdout) == [0, ["inspect"] if argv[0] == "fit" else []]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "{data}", "--starts", "2"],
            ["model", "--config", "{config}"],
            ["spectrum", "{spectrum}", "-A", "208", "-Z", "82"],
        ],
        ids=["fit-data", "config", "spectrum-data-bom"],
    )
    def test_utf8_input_reads_in_an_ascii_locale(self, tmp_path, argv):
        data = tmp_path / "angular.csv"
        data.write_text(SAMPLE_ANGULAR.read_text().replace("E55,", "E\u03b355,"), encoding="utf-8")
        # "utf-8-sig" writes the byte-order mark that spreadsheet exports put first
        config = tmp_path / "model.cfg"
        config.write_text("# \u03c3 model\nA = 0.082\nB = 0.47\nC = 0.37\nr = 0.11\n", encoding="utf-8-sig")
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text(SAMPLE_SPECTRUM.read_text(), encoding="utf-8-sig")
        import_root = Path(photoevap.__file__).resolve().parents[1]
        # the C locale with its UTF-8 coercion and UTF-8 mode both off: ASCII by default
        env = dict(
            os.environ, PYTHONPATH=str(import_root), LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"
        )
        tokens = (token.format(data=data, config=config, spectrum=spectrum) for token in argv)
        proc = subprocess.run(
            [sys.executable, "-m", "photoevap.cli", *tokens],
            capture_output=True,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr

    def test_package_lists_each_module_export_once(self):
        from photoevap import angmom, errors, fitkit, thermo, xsection

        names = [name for module in (angmom, errors, fitkit, thermo, xsection) for name in module.__all__]
        assert len(set(names)) == len(names)
        assert sorted(photoevap.__all__) == sorted([*names, "__version__"])
        assert all(hasattr(photoevap, name) for name in photoevap.__all__)

    @pytest.mark.parametrize(
        "module, name",
        [
            ("angmom", "AngularMomentum"),
            ("angmom", "triangle_ok"),
            ("angmom", "legendre_p"),
            ("xsection", "cross_section"),
            ("xsection", "correlation_factor"),
            ("xsection", "magnitude_factor"),
            ("thermo", "nuclear_radius"),
            ("errors", "UnscalablePointError"),
            ("angmom", "two_j_of"),
            ("xsection", "DEFAULT_CONFIG"),
            ("angmom", "SpinLike"),
        ],
    )
    def test_pruned_name_is_gone(self, module, name):
        with pytest.raises(AttributeError):
            getattr(photoevap, name)
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(f"photoevap.{module}"), name)
        assert name not in photoevap.__all__

    @pytest.mark.parametrize(
        "make",
        [
            lambda: photoevap.ChannelConfig(multipoles=(1,)),
            lambda: photoevap.ChannelConfig(exit_orbitals=(0, 1)),
            lambda: photoevap.NucleusSpec(208, 82, excitation=6.3),
        ],
        ids=["multipoles", "exit_orbitals", "excitation"],
    )
    def test_pruned_field_is_gone(self, make):
        with pytest.raises(TypeError):
            make()

    def test_package_keeps_each_name_it_resolves(self):
        from photoevap import thermo

        assert photoevap.fit_temperature is thermo.fit_temperature
        assert vars(photoevap)["fit_temperature"] is thermo.fit_temperature
        assert set(photoevap.__all__) <= set(dir(photoevap))
        with pytest.raises(AttributeError):
            photoevap.no_such_name

    @pytest.mark.skipif(
        shutil.which("photoevap") is None,
        reason="photoevap executable not on PATH",
    )
    def test_console_script_on_path_runs(self):
        proc = subprocess.run(
            ["photoevap", *CG_ONE_ARGS], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.00000000000"



# --------------------------------------------------------------------------
# The CLI contract over generated inputs: an exit code in {0, 1, 2, 3} and
# no escaping exception for every argv, and at exit 0 strict JSON: no NaN and
# no Infinity, an unbounded value (`times` at r = 0) being null.

# mostly plausible values, and every float (NaN, the infinities, subnormals
# and extremes included) as well
_WILD = st.floats()
_NUMBER = st.one_of(st.floats(0.0, 100.0), st.floats(-1e3, 1e3), _WILD).map(repr)
_WEIGHTING = st.sampled_from(["equal", "2I+1", "spin-cutoff", "flat"])
# integers too large for a float (10**400) or an index (both); no value in
# between, where a count would be allocated whole
_HUGE = st.sampled_from([2**63, 10**400])
_SPIN = st.one_of(
    st.integers(-6, 12).map(lambda n: f"{n}/2"), st.sampled_from(["1.5", "0.3", "x", "1/0", ""])
)


class _File(str):
    """An argv token naming a generated file: the prefix, then its path.

    ``malformed`` marks a file that is a data error whatever its values.
    """

    def __new__(cls, prefix, text, malformed=False):
        token = super().__new__(cls, prefix)
        token.text = text
        token.malformed = malformed
        return token

    def __repr__(self):
        return f"_File({str(self)!r}, {self.text!r}, malformed={self.malformed!r})"


@st.composite
def _csv_file(draw, prefix, header, rows, damage=False):
    """A CSV of the given rows, in about half the draws with one cell replaced.

    With ``damage``, two draws in five also cut a row to its first
    cell or keep only the header, which marks the file malformed.
    """
    rows = [list(map(str, row)) for row in rows]
    if rows and draw(st.booleans()):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.one_of(_WILD.map(repr), st.just("x")))
    cut = draw(st.sampled_from(["", "", "", "short row", "header only"])) if damage else ""
    if cut == "short row":
        index = draw(st.integers(0, len(rows) - 1))
        rows[index] = rows[index][:1]
    elif cut == "header only":
        rows = []
    return _File(prefix, "\n".join([header, *map(",".join, rows)]) + "\n", malformed=bool(cut))


def _options(draw, *pairs):
    """Each (flag, strategy) pair as one `flag=value` token, or left out."""
    return [f"{flag}={draw(values)}" for flag, values in pairs if draw(st.booleans())]


@st.composite
def _coeff_argv(draw):
    kind = draw(st.sampled_from(["cg", "w6j", "racah", "z"]))
    return ["coeff", kind, "--", *draw(st.lists(_SPIN, min_size=6, max_size=6))]


# a config-file grid: a bad one is a usage error, a blank value a data error
_MODEL_CONFIG = st.one_of(
    st.just([]),
    st.sampled_from(["0:180:7", "x", ""]).map(
        lambda value: [_File("--config=", f"grid = {value}\n", malformed=not value)]
    ),
)


@st.composite
def _model_argv(draw):
    grid = draw(st.tuples(_NUMBER, _NUMBER, st.one_of(st.integers(-1, 40), _HUGE)))
    return [
        "model", *(f"-{name}{draw(_NUMBER)}" for name in "ABCr"),
        *_options(
            draw,
            ("--weighting", _WEIGHTING),
            ("--spin-cutoff-sigma", _NUMBER),
            ("--grid", st.just(":".join(map(str, grid)))),
            ("--format", st.sampled_from(["json", "csv"])),
        ),
        *draw(_MODEL_CONFIG),
    ]


@st.composite
def _fit_argv(draw):
    with_err = draw(st.booleans())
    rows = []
    for label, size in (("bin1", 6), ("bin2", draw(st.sampled_from([0, 5])))):
        thetas = draw(st.lists(st.integers(1, 179), min_size=size, max_size=size, unique=True))
        for theta in thetas:
            row = [label, theta, draw(st.floats(1.0, 1e3))]
            rows.append(row + [draw(st.floats(0.1, 10.0))] if with_err else row)
    return [
        "fit",
        draw(_csv_file("", "bin_label,theta_deg,yield" + ",err" * with_err, rows, damage=True)),
        f"--starts={draw(st.integers(1, 3))}",
        f"--max-iter={draw(st.integers(1, 20))}",
        *_options(
            draw,
            ("--seed", st.integers(-1, 2**32)),
            ("--tol", _NUMBER),
            ("--mode", st.sampled_from(["joint", "per-bin"])),
            ("--weighting", _WEIGHTING),
            ("--spin-cutoff-sigma", _NUMBER),
        ),
    ]


@st.composite
def _spectrum_argv(draw):
    with_err = draw(st.booleans())
    row = st.tuples(st.floats(0.5, 12.0), st.floats(1e-3, 1e6), *[st.floats(0.0, 10.0)] * with_err)
    charge = draw(st.one_of(st.integers(-1, 100), _HUGE))
    mass_number = draw(st.one_of(st.integers(-1, 200).map(lambda n: charge + n), _HUGE))
    argv = [
        "spectrum",
        draw(_csv_file(
            "", "eps_mev,counts" + ",err" * with_err, draw(st.lists(row, min_size=3, max_size=8)),
            damage=True,
        )),
        f"--charge={charge}",
        f"--mass-number={mass_number}",
        *_options(draw, ("--l", st.one_of(st.integers(-1, 8), _HUGE)), ("--eps-max", _NUMBER)),
    ]
    if draw(st.booleans()):
        table_row = st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 1e3))
        table = sorted(draw(st.lists(table_row, min_size=2, max_size=4, unique_by=lambda r: r[0])))
        argv.append(draw(_csv_file("--sigma-inv-table=", "eps_mev,sigma_fm2", table)))
    return argv


@st.composite
def _exciton_argv(draw):
    mass_number = draw(st.one_of(st.integers(-5, 400), _HUGE))
    return ["exciton", f"--mass-number={mass_number}", f"--excitation={draw(_NUMBER)}"]


@st.composite
def _times_argv(draw):
    width = st.tuples(_NUMBER, st.sampled_from(["eV", "keV", "MeV"] * 3 + ["", "GeV"])).map("".join)
    widths = (f"--{name}={draw(width)}" for name in ("gcn", "gspr", "D"))
    return ["times", f"-r{draw(_NUMBER)}", *widths]


_SPECTRUM = "eps_mev,counts\n3.0,120.0\n4.0,80.0\n5.0,40.0\n"


class TestContract:
    @given(
        st.one_of(
            _coeff_argv(), _model_argv(), _fit_argv(),
            _spectrum_argv(), _exciton_argv(), _times_argv(),
        )
    )
    @example(["model", "-A1e308", "-B1", "-C1", "-r0"])
    @example(["times", "-r1", "--gcn=0.1eV", "--gspr=1e308MeV", "--D=1MeV"])
    @example(["spectrum", _File("", "eps_mev,counts\n3.0,1\n4.0\n5.0,2\n", True), "-Z82", "-A208"])
    @example(["spectrum", _File("", "eps_mev,counts\n", True), "-Z82", "-A208"])
    @example(["exciton", f"-A{10**400}", "-E1"])
    @example(["spectrum", _File("", _SPECTRUM), "-Z82", f"-A{10**400}"])
    @example(["spectrum", _File("", _SPECTRUM), "-Z82", "-A208", f"--l={10**400}"])
    @example(["model", "-A1", "-B1", "-C1", "-r0", f"--grid=0:180:{2**63}"])
    @settings(max_examples=300)
    def test_exit_code_and_json_output(self, argv):
        malformed = any(getattr(token, "malformed", False) for token in argv)
        argv, out, err = list(argv), io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            for i, token in enumerate(argv):
                if isinstance(token, _File):
                    path = Path(tmp) / f"input{i}.csv"
                    path.write_text(token.text)
                    argv[i] = token + str(path)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3), err.getvalue()
        if malformed:
            # only a usage error, reported before any file is read, comes first
            assert code == 2 or err.getvalue().startswith("usage:"), err.getvalue()
        if code != 0:
            return
        if argv[0] == "coeff":
            assert math.isfinite(float(out.getvalue()))
            return
        if "--format=csv" in argv:
            return
        json.loads(out.getvalue(), parse_constant=_reject_constant)
