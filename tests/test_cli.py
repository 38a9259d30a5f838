"""Command line behavior: output formats, config files, exit codes."""

import json
import math
import os
import pkgutil
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import photoevap
from photoevap.cli import main
from photoevap.fitkit import synth_dataset
from photoevap.xsection import ShapeParams

TRUTH = ShapeParams(A=0.082, B=0.47, C=0.37, r=0.11)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), err


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
    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run(capsys, "coeff", "cg", "1", "-1", "1", "1", "2", "0")
        assert code == 0
        assert out.strip() == "0.408248290464"

    def test_zero_prints_bare_zero(self, capsys):
        code, out, _ = run(capsys, "coeff", "cg", "1", "-1", "1", "1", "2", "1")
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
            0.1549446619116085, rel=1e-15
        )
        assert payload["asymmetry_U"] == pytest.approx(1.1663866153332487, rel=1e-15)
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

    def test_audit_phase_flag_changes_result(self, capsys):
        plain, _ = run_json(capsys, *self.ARGS)
        audited, _ = run_json(capsys, *self.ARGS, "--huby-phase")
        assert audited["asymmetry_U"] == pytest.approx(1.8745908416797141, rel=1e-12)
        assert audited["asymmetry_U"] != plain["asymmetry_U"]

    @pytest.mark.parametrize(
        "grid", ["10:5:10", "0:181:10", "0:180:1", "0:180", "a:b:c"]
    )
    def test_bad_grid_is_usage_error(self, capsys, grid):
        code, _, _ = run(capsys, *self.ARGS, "--grid", grid)
        assert code == 1

    def test_negative_parameter_is_usage_error(self, capsys):
        code, _, _ = run(
            capsys, "model", "-A", "-1", "-B", "0.5", "-C", "0.5", "-r", "0.1"
        )
        assert code == 1

    def test_weighting_option(self, capsys):
        payload, _ = run_json(capsys, *self.ARGS, "--weighting", "2I+1")
        assert payload["asymmetry_U"] == pytest.approx(0.9449872477085287, rel=1e-12)


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

    def test_underdetermined_is_numerical_error(self, capsys, tmp_path):
        datasets = synth_dataset(TRUTH, [100.0], np.linspace(30, 150, 5), 0.0, None)
        path = tmp_path / "tiny.csv"
        write_angular_csv(path, datasets, with_err=False)
        code, _, err = run(capsys, "fit", str(path))
        assert code == 3
        assert "numerical error" in err


SAMPLE_ANGULAR = Path(__file__).resolve().parents[1] / "sample_data" / "angular_bi_gp.csv"


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


class TestBadInputExitsCleanly:
    """Bad values give a typed error: no traceback, no NaN in the output."""

    @staticmethod
    def assert_clean(code, out, err, expected_code):
        assert code == expected_code, err
        assert "Traceback" not in err
        assert "NaN" not in out

    @pytest.mark.parametrize("column, value", [("yield", "nan"), ("theta_deg", "nan"), ("err", "inf")])
    def test_non_finite_angular_value_is_data_error(self, capsys, tmp_path, column, value):
        lines = SAMPLE_ANGULAR.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[2].split(",")
        row[header.index(column)] = value
        lines[2] = ",".join(row)
        path = tmp_path / "angular.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "fit", str(path), "--starts", "2")
        self.assert_clean(code, out, err, 2)
        assert f"bin {row[0]!r}" in err

    def test_non_finite_count_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("eps_mev,counts\n3.0,120.0\n4.0,nan\n5.0,40.0\n6.0,20.0\n")
        code, out, err = run(capsys, "spectrum", str(path), "-A", "208", "-Z", "82")
        self.assert_clean(code, out, err, 2)
        assert "line 3" in err

    @pytest.mark.parametrize(
        "table_row", ["5.0,nan", "nan,100.0", "5.0,inf"], ids=["nan-sigma", "nan-eps", "inf-sigma"]
    )
    def test_non_finite_table_entry_is_data_error(self, capsys, tmp_path, table_row):
        spectrum = tmp_path / "spectrum.csv"
        spectrum.write_text("eps_mev,counts\n3.0,120.0\n4.0,80.0\n5.0,40.0\n6.0,20.0\n")
        table = tmp_path / "table.csv"
        table.write_text(f"eps_mev,sigma_fm2\n0.5,100.0\n{table_row}\n10.0,100.0\n")
        code, out, err = run(
            capsys, "spectrum", str(spectrum), "-A", "208", "-Z", "82",
            "--sigma-inv-table", str(table),
        )
        self.assert_clean(code, out, err, 2)
        assert "finite" in err

    def test_equal_energies_are_numerical_error(self, capsys, tmp_path):
        path = tmp_path / "spectrum.csv"
        path.write_text("eps_mev,counts\n5.0,120.0\n5.0,110.0\n5.0,130.0\n")
        code, out, err = run(capsys, "spectrum", str(path), "-A", "208", "-Z", "82")
        self.assert_clean(code, out, err, 3)
        assert "distinct energies" in err


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

    def test_table_override_is_reported(self, capsys, spectrum_csv, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("eps_mev,sigma_fm2\n0.5,100.0\n10.0,100.0\n")
        payload, _ = run_json(
            capsys, "spectrum", str(spectrum_csv), "-A", "208", "-Z", "82",
            "--sigma-inv-table", str(table),
        )
        assert payload["sigma_inv_source"] == "table"

    def test_narrow_window_is_numerical_error(self, capsys, spectrum_csv):
        code, _, _ = run(
            capsys, "spectrum", str(spectrum_csv), "-A", "208", "-Z", "82",
            "--eps-max", "3.1",
        )
        assert code == 3

    def test_bad_nucleus_is_usage_error(self, capsys, spectrum_csv):
        code, _, _ = run(
            capsys, "spectrum", str(spectrum_csv), "-A", "208", "-Z", "300"
        )
        assert code == 1


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

    def test_zero_r_serialises_infinity(self, capsys):
        code, out, _ = run(
            capsys, "times", "-r", "0", "--gcn", "0.1eV", "--gspr", "2MeV",
            "--D", "1e-16MeV",
        )
        assert code == 0
        assert "Infinity" in out
        payload = json.loads(out)
        assert math.isinf(payload["tau_phase_s"])

    def test_missing_unit_suffix_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "times", "-r", "0.11", "--gcn", "0.1", "--gspr", "2MeV",
            "--D", "1e-16MeV",
        )
        assert code == 1
        assert "suffix" in err


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
        code, _, _ = run(capsys, "model", "--config", "/nonexistent.cfg")
        assert code == 2

    def test_malformed_config_line_is_data_error(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("A 0.082\n")
        code, _, err = run(capsys, "model", "--config", str(cfg))
        assert code == 2
        assert "key = value" in err

    def test_config_equals_form(self, capsys, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("A = 0.082\nB = 0.47\nC = 0.37\nr = 0.11\n")
        payload, _ = run_json(capsys, "model", f"--config={cfg}")
        assert payload["params"]["A"] == 0.082


CG_ONE_ARGS = ("coeff", "cg", "0", "0", "0", "0", "0", "0")

# What the wrapper that pip generates for a console script runs.
_WRAPPER = """\
import sys
from {module} import {attr}
sys.argv[0] = "photoevap"
sys.exit({attr}())
"""


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

