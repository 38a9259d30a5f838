"""Command line interface.

Subcommands: coeff (coupling coefficients), model (angular distribution),
fit (shape-parameter extraction), spectrum (temperature from an
evaporation spectrum), exciton (exciton-model temperature window) and
times (widths to lifetimes).

Each ``_cmd_*`` returns its payload: a dict, or text (``coeff`` and
``model --format csv``).  ``main`` owns the rest: it puts the
``schema_version``/``command`` envelope in front of a dict and writes it
as JSON, writes the result once to ``--output`` or stdout, and maps every
outcome to one exit code: 0 success, 1 usage error (argparse's own usage
status 2 maps to 1), 2 data error (unreadable or malformed input, or an
``--output`` file that cannot be written), 3 numerical error (every
other ``PhotoevapError``: a degenerate or underdetermined computation,
or unscalable points).

Options match by their full name only (``--conf`` is a usage error), so
one argparse pass finds ``--config FILE``, which every subcommand lists,
where the subcommand's parser would, before or after the subcommand.
Its flat ``key = value`` lines are each the option ``-key`` where the
subcommand defines it, else ``--key`` with underscores as hyphens
(``l = 2`` is ``--l 2``); a key that names no option, ``config``,
``help`` or an option the file has already set is a usage error, and so
is a second ``--config``; and explicit command-line options override it.

A subcommand imports the library module it needs when it runs.  Only
``fit`` (through ``fitkit``) imports numpy, and no subcommand imports
``dataclasses``: the value types are plain frozen classes.  ``main``
runs every subcommand alike: each library module keeps its own
arithmetic finite or raises a typed error.
"""

from __future__ import annotations

import json
import math
import re
import sys
from argparse import ArgumentError, ArgumentParser

from .errors import DataFormatError, PhotoevapError

SCHEMA_VERSION = 1

# kind -> (angmom function, argument signature); spin tokens go to angmom as typed
_COEFF_KINDS = {
    "cg": ("clebsch_gordan", "j1 m1 j2 m2 j m"),
    "w6j": ("wigner_6j", "j1 j2 j3 j4 j5 j6"),
    "racah": ("racah_w", "a b c d e f"),
    "z": ("z_coeff", "l1 j1 l2 j2 s L"),
}

_WIDTH_PATTERN = re.compile(r"^\s*(.*?)\s*(ev|kev|mev)\s*$", re.IGNORECASE)
_WIDTH_SCALE_MEV = {"ev": 1e-6, "kev": 1e-3, "mev": 1.0}
_WIDTH_SCALE_EV = {"ev": 1.0, "kev": 1e3, "mev": 1e6}


def _parse_width(token: str, scale: dict) -> float:
    """Width token: a finite number with a mandatory unit suffix (eV, keV or MeV)."""
    match = _WIDTH_PATTERN.match(token)
    if not match:
        raise ValueError(f"width {token!r} needs a unit suffix (eV, keV or MeV)")
    try:
        value = float(match.group(1))
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"bad width value in {token!r}")
    return value * scale[match.group(2).lower()]


def _parse_grid(token: str) -> list[float]:
    """Angle grid 'start:stop:count' in degrees: count evenly spaced angles,
    i * step + start as numpy.linspace places them, the last exactly stop."""
    parts = token.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be start:stop:count, got {token!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad grid {token!r}") from exc
    if not (0.0 <= start < stop <= 180.0) or count < 2:
        raise ValueError(f"grid must satisfy 0 <= start < stop <= 180, count >= 2, got {token!r}")
    grid = [0.0] * count  # allocated whole, so a count too large for memory fails here
    step = (stop - start) / (count - 1)
    for i in range(count - 1):
        grid[i] = i * step + start
    grid[-1] = stop
    return grid


def _channel_config(args) -> xsection.ChannelConfig:
    from . import xsection

    return xsection.ChannelConfig(
        residual_weighting=args.weighting,
        spin_cutoff_sigma=args.spin_cutoff_sigma,
    )


def _cmd_coeff(args) -> str:
    from . import angmom

    function = getattr(angmom, _COEFF_KINDS[args.kind][0])
    value = function(*args.values)
    return f"{value:#.12g}\n" if value != 0.0 else "0\n"


def _cmd_model(args) -> dict | str:
    from . import xsection

    params = xsection.ShapeParams(A=args.A, B=args.B, C=args.C, r=args.r)
    config = _channel_config(args)
    grid = _parse_grid(args.grid)
    series = xsection.legendre_coefficients(params, config)
    sigma = series.evaluate(map(math.radians, grid))
    ratio = xsection.forward_backward_ratio(series)
    if args.format == "csv":
        lines = [f"# c_{order} = {c!r}" for order, c in enumerate(series.coefficients)]
        lines.append(f"# asymmetry_U = {ratio!r}")
        lines.append("theta_deg,sigma")
        lines.extend(f"{t:.12g},{s:.12g}" for t, s in zip(grid, sigma))
        return "\n".join(lines) + "\n"
    return {
        "params": vars(params),
        "weighting": config.residual_weighting,
        "coefficients": {f"c_{order}": c for order, c in enumerate(series.coefficients)},
        "asymmetry_U": ratio,
        "curve": [{"theta_deg": t, "sigma": s} for t, s in zip(grid, sigma)],
    }


def _cmd_fit(args) -> dict:
    from . import fitkit

    datasets = fitkit.read_angular_csv(args.data)
    if any(ds.unit_weights for ds in datasets):
        print("warning: no err column; using unit weights", file=sys.stderr)
    config = _channel_config(args)

    def report(group) -> dict:
        """Report of one fit of ``group``, with fitkit's own residuals of it."""
        result = fitkit.fit_angular(
            group, config, n_starts=args.starts, seed=args.seed, tol=args.tol, max_iter=args.max_iter
        )
        table = fitkit.model_and_residuals(result.params, result.norms, group, config)
        return {
            "converged": result.converged,
            "identifiable": result.identifiable,
            "chi2": result.chi2,
            "dof": result.dof,
            "n_starts_agreeing": result.n_starts_agreeing,
            "params": vars(result.params),
            "norms": dict(zip(result.bin_labels, result.norms)),
            "covariance_labels": list(result.covariance_labels),
            "covariance": result.covariance.tolist(),
            "residuals": [
                {
                    "bin_label": ds.bin_label,
                    "theta_deg": float(theta),
                    "yield": float(value),
                    "model": float(m),
                    "residual": float(res),
                }
                for ds, (model, residuals) in zip(group, table)
                for theta, value, m, res in zip(ds.theta_deg, ds.yields, model, residuals)
            ],
        }

    payload = {"mode": args.mode, "weighting": config.residual_weighting}
    if args.mode == "joint":
        return {**payload, **report(datasets)}
    return {**payload, "bins": [{"bin_label": ds.bin_label, **report([ds])} for ds in datasets]}


def _cmd_spectrum(args) -> dict:
    from . import thermo

    points = thermo.read_spectrum_csv(args.data)
    nucleus = thermo.NucleusSpec(args.mass_number, args.charge)
    table = thermo.SigmaInvTable.from_csv(args.sigma_inv_table) if args.sigma_inv_table else None
    window = [p for p in points if p.eps <= args.eps_max]
    scaled = thermo.scale_spectrum(window, nucleus, l=args.l, table=table)
    fit = thermo.fit_temperature(scaled, args.eps_max)
    return {
        "nucleus": {"A": nucleus.mass_number, "Z": nucleus.charge},
        "sigma_inv_source": "table" if table is not None else "model",
        "partial_wave_l": args.l,
        "eps_max_mev": args.eps_max if math.isfinite(args.eps_max) else None,  # inf: no edge
        "n_points": fit.n_points,
        "temperature_mev": fit.temperature,
        "temperature_err_mev": fit.temperature_err,
        "log_intercept": fit.log_intercept,
    }


def _cmd_exciton(args) -> dict:
    from . import thermo

    report = thermo.exciton_report(args.mass_number, args.excitation)
    return {
        "mass_number": args.mass_number,
        "excitation_mev": args.excitation,
        "g_per_mev": report.g,
        "n_bar": report.n_bar,
        "n_sigma": report.n_sigma,
        "t_low_mev": report.t_low,
        "t_high_mev": report.t_high,
    }


def _cmd_times(args) -> dict:
    from . import thermo

    gamma_cn = _parse_width(args.gcn, _WIDTH_SCALE_EV)
    gamma_spreading = _parse_width(args.gspr, _WIDTH_SCALE_MEV)
    level_spacing = _parse_width(args.D, _WIDTH_SCALE_MEV)
    report = thermo.timescales(args.r, gamma_cn, gamma_spreading, level_spacing)
    return {
        "r": args.r,
        "beta_ev": report.beta,
        "tau_phase_s": report.tau_phase if args.r > 0 else None,  # r = 0: unbounded
        "gamma_cn_ev": gamma_cn,
        "tau_cn_s": report.tau_cn,
        "gamma_spreading_mev": gamma_spreading,
        "tau_thermalization_s": report.tau_thermalization,
        "tau_phase_over_tau_thermalization": report.tau_ratio if args.r > 0 else None,
        "level_spacing_mev": level_spacing,
        "t_heisenberg_s": report.t_heisenberg,
        "n_eff": report.n_eff,
    }


def _add_weighting_options(parser) -> None:
    parser.add_argument(
        "--weighting",
        choices=("equal", "2I+1", "spin-cutoff"),
        default="equal",
        help="residual-spin weighting mode (default: %(default)s)",
    )
    parser.add_argument(
        "--spin-cutoff-sigma",
        type=float,
        default=2.0,
        help="sigma of the spin-cutoff weighting (default: %(default)s)",
    )


def _build_parser() -> tuple[ArgumentParser, ArgumentParser, dict[str, ArgumentParser]]:
    """The parser that finds --config, the top-level parser and its subcommand parsers by name.

    No parser takes an abbreviated option, so the first finds --config
    where the others would.  Every subcommand lists --config; every one
    but coeff, which prints one number, takes --output.
    """
    config = ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    config.add_argument("--config", action="append", help="flat key=value config file")
    output = ArgumentParser(add_help=False)
    output.add_argument("--output", help="output file (default: stdout)")
    parser = ArgumentParser(
        prog="photoevap", description=__doc__.split("\n\n")[0], allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    runs = {"allow_abbrev": False, "parents": [config, output]}

    coeff = sub.add_parser(
        "coeff",
        allow_abbrev=False,
        parents=[config],
        help="print a coupling coefficient to 12 significant digits",
        description=(
            "Print one coupling coefficient.  Spins accept '1', '3/2' or '1.5'; "
            "prefix negative fractions with '--' to stop option parsing.  "
            "Signatures: "
            + "; ".join(f"{kind}: {signature}" for kind, (_, signature) in _COEFF_KINDS.items())
        ),
    )
    coeff.add_argument("kind", choices=_COEFF_KINDS)
    coeff.add_argument("values", nargs=6, metavar="SPIN")
    coeff.set_defaults(func=_cmd_coeff)

    model = sub.add_parser("model", **runs, help="evaluate the angular-distribution model")
    model.add_argument("-A", type=float, required=True, help="quadrupole/dipole transmission ratio")
    model.add_argument("-B", type=float, required=True, help="l'=1 over l'=0 transmission ratio")
    model.add_argument("-C", type=float, required=True, help="l'=2 over l'=0 transmission ratio")
    model.add_argument("-r", type=float, required=True, help="dephasing over decay width")
    _add_weighting_options(model)
    model.add_argument(
        "--grid",
        default="0:180:37",
        help="theta grid start:stop:count in degrees (default: %(default)s)",
    )
    model.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format (default: %(default)s)"
    )
    model.set_defaults(func=_cmd_model)

    fit = sub.add_parser("fit", **runs, help="fit shape parameters to angular data")
    fit.add_argument("data", help="CSV with columns bin_label, theta_deg, yield[, err]")
    fit.add_argument(
        "--mode",
        choices=("joint", "per-bin"),
        default="joint",
        help="fit the bins together or one at a time (default: %(default)s)",
    )
    fit.add_argument(
        "--starts", type=int, default=32, help="number of multi-start points (default: %(default)s)"
    )
    fit.add_argument("--seed", type=int, default=None, help="shifts the start lattice")
    fit.add_argument(
        "--tol", type=float, default=1e-12, help="solver stopping tolerance (default: %(default)s)"
    )
    fit.add_argument(
        "--max-iter", type=int, default=400, help="iterations per start (default: %(default)s)"
    )
    _add_weighting_options(fit)
    fit.set_defaults(func=_cmd_fit)

    spectrum = sub.add_parser("spectrum", **runs, help="extract a temperature from a spectrum")
    spectrum.add_argument("data", help="CSV with columns eps_mev, counts[, err]")
    spectrum.add_argument("-A", "--mass-number", type=int, required=True)
    spectrum.add_argument("-Z", "--charge", type=int, required=True)
    spectrum.add_argument(
        "--l", type=int, default=0, help="partial wave of sigma_inv (default: %(default)s)"
    )
    spectrum.add_argument(
        "--eps-max", type=float, default=8.0, help="fit window upper edge [MeV] (default: %(default)s)"
    )
    spectrum.add_argument(
        "--sigma-inv-table",
        default=None,
        help="CSV table eps_mev, sigma_fm2 overriding the barrier model",
    )
    spectrum.set_defaults(func=_cmd_spectrum)

    exciton = sub.add_parser("exciton", **runs, help="exciton-model temperature window")
    exciton.add_argument("-A", "--mass-number", type=int, required=True)
    exciton.add_argument("-E", "--excitation", type=float, required=True, help="excitation [MeV]")
    exciton.set_defaults(func=_cmd_exciton)

    times = sub.add_parser("times", **runs, help="widths to lifetimes")
    times.add_argument("-r", type=float, required=True, help="beta / gamma_cn (dimensionless)")
    times.add_argument("--gcn", required=True, help="compound decay width, e.g. 0.1eV")
    times.add_argument("--gspr", required=True, help="spreading width, e.g. 2MeV")
    times.add_argument("--D", required=True, help="compound level spacing, e.g. 1e-16MeV")
    times.set_defaults(func=_cmd_times)
    return config, parser, sub.choices


def _load_config_tokens(path: str, parser: ArgumentParser) -> list[str]:
    """Flat key = value lines -> ``parser``'s option tokens, inserted before user flags."""
    tokens, dests = [], set()
    try:
        with open(path, encoding="utf-8-sig") as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.split("#", 1)[0].strip()
                if not text:
                    continue
                key, sep, value = (part.strip() for part in text.partition("="))
                if not (sep and key and value):
                    raise DataFormatError(f"{path}:{lineno}: expected key = value")
                actions = parser._option_string_actions
                option = "-" + key if "-" + key in actions else "--" + key.replace("_", "-")
                action = actions.get(option)
                if action is None or action.dest in ("config", "help"):
                    parser.error(f"config key {key!r} is not a settable option of {parser.prog}")
                if action.dest in dests:
                    spelled = "/".join(action.option_strings)
                    parser.error(f"config key {key!r}: {spelled} is already set in this file")
                dests.add(action.dest)
                tokens += [option, value]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read config file {path}: {exc}") from exc
    return tokens


def _apply_config(argv: list[str] | None, config, parser, subparsers: dict) -> list[str] | None:
    """Strip --config where ``config`` finds it and splice its tokens after the subcommand.

    Keys resolve through the subcommand's parser, else through ``parser``.
    """
    try:
        found, remaining = config.parse_known_args(argv)
    except ArgumentError:  # --config without a value: the subcommand's parser reports it
        return argv
    if found.config is None:
        return remaining
    target = subparsers.get(remaining[0], parser) if remaining else parser
    if len(found.config) > 1:
        target.error("argument --config: may be given only once")
    return [*remaining[:1], *_load_config_tokens(found.config[0], target), *remaining[1:]]


def main(argv=None) -> int:
    config, parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(_apply_config(argv, config, parser, subparsers))
        result = args.func(args)
        if isinstance(result, dict):
            envelope = {"schema_version": SCHEMA_VERSION, "command": args.command}
            result = json.dumps({**envelope, **result}, indent=2, allow_nan=False) + "\n"
        if (output := getattr(args, "output", None)) in (None, "-"):
            sys.stdout.write(result)
        else:
            try:
                with open(output, "w") as handle:
                    handle.write(result)
            except OSError as exc:
                raise DataFormatError(f"cannot write output {output}: {exc}") from exc
    except SystemExit as exc:  # argparse: status 2 after a usage error, 0 after --help
        return 1 if exc.code == 2 else int(exc.code or 0)
    except (DataFormatError, OSError) as exc:
        print(f"photoevap: data error: {exc}", file=sys.stderr)
        return 2
    except PhotoevapError as exc:
        print(f"photoevap: numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, MemoryError) as exc:  # e.g. a count too large to allocate
        print(f"photoevap: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
