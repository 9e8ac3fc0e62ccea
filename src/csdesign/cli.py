"""Command-line interface: design, eval, sweep, lemma1.

Every command resolves its parameters from flags, optionally backed by
a flat ``key=value`` config file (flags win), writes a run manifest
alongside its artifacts, and derives all randomness from one ``--seed``
expanded into named sub-streams.  Replaying a manifest with
``--config <manifest>`` reproduces the artifacts byte for byte; for the
same reason the ``wall_time_ms`` column stays at zero unless
``--timing`` is given.

Each command declares its parameters once, as a table of :class:`Param`
records; the table alone drives the flags, the config keys, the
defaults, the typed conversion, the required-parameter check and the
manifest.

Exit codes: 0 success, 2 usage error (including any value the library
rejects with ``ValueError``), 3 I/O error, 4 design did not converge
(artifacts are still written).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
# welch_bound is not called here; it stays bound in this namespace
# because perfbench's traced run wraps it by name
from .coherence import welch_bound
from .experiments import (
    METHODS,
    SRE_METHODS,
    SWEEP_METHODS,
    ExperimentParams,
    design_for_method,
    evaluate_system,
    run_dimension_sweeps,
    run_lambda_sweep,
    run_snr_sweep,
    write_records_csv,
)
from .matio import (check_csv_value, read_keyvalues, read_matrix_csv, render_value, write_csv,
                    write_keyvalues, write_matrix_csv)
from .solver import random_projection, write_trace_csv
from .synth import gen_dictionary, gen_signals, gen_sparse_codes, lemma1_check

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NOT_CONVERGED = 4


class CliError(Exception):
    """Error with a CLI exit code and a one-line diagnostic."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_matrix(path: str) -> np.ndarray:
    try:
        return read_matrix_csv(path)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise CliError(EXIT_IO, str(exc)) from exc


def _parse_grid(text: str) -> list[float]:
    """Parse ``a:step:b`` (inclusive when it divides evenly) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(EXIT_USAGE, f"malformed grid {text!r}: expected a:step:b")
        try:
            a, step, b = (float(p) for p in parts)
        except ValueError as exc:
            bad = next(p for p in parts if not _is_float(p))
            raise CliError(EXIT_USAGE, f"malformed grid token {bad!r} in {text!r}") from exc
        if not all(math.isfinite(v) for v in (a, step, b)):
            raise CliError(EXIT_USAGE, f"grid start, step and end must be finite in {text!r}")
        if step <= 0:
            raise CliError(EXIT_USAGE, f"grid step must be positive in {text!r}")
        if b < a:
            raise CliError(EXIT_USAGE, f"grid end precedes start in {text!r}")
        raw = (b - a) / step
        count = int(math.floor(raw + 1e-6 * max(1.0, abs(raw))))
        if abs(a + count * step - b) <= 1e-9 * max(1.0, abs(b)):
            return list(np.linspace(a, b, count + 1)) if count > 0 else [a]
        return [a + i * step for i in range(count + 1)]
    values = []
    for token in text.split(","):
        if not _is_float(token):
            raise CliError(EXIT_USAGE, f"malformed grid token {token.strip()!r}")
        values.append(float(token))
    if not values:
        raise CliError(EXIT_USAGE, "empty grid")
    return values


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _parse_int_pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(EXIT_USAGE, f"{flag} expects two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"{flag} expects integers, got {text!r}") from exc


def _parse_seeds(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"malformed seed list {text!r}") from exc


@dataclass(frozen=True)
class Param:
    """One command parameter, declared once.

    `name` is both the config-file key and the manifest key; the flag is
    ``--name`` with underscores written as dashes.  `type` is ``str``,
    ``int``, ``float``, or ``bool`` (a flag that takes no value; in a
    config file ``1``, ``true`` or ``yes`` turn it on).
    """

    name: str
    type: type = str
    default: object = None
    help: str | None = None
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.type is bool:
            parser.add_argument(self.flag, dest=self.name, action="store_const", const=True,
                                help=self.help)
        else:
            parser.add_argument(self.flag, dest=self.name, type=self.type, help=self.help)

    def convert(self, value):
        if self.type is bool:
            return str(value).lower() in ("1", "true", "yes")
        try:
            return self.type(value)
        except ValueError:
            expects = "an integer" if self.type is int else "a number"
            raise CliError(EXIT_USAGE, f"{self.name} expects {expects}, got {value!r}") from None


def _resolve(args: argparse.Namespace, params: tuple[Param, ...]) -> dict:
    """Resolve each parameter: explicit flag, then config file, then default."""
    config = {}
    if args.config:
        try:
            config = read_keyvalues(args.config)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot read config {args.config}: {exc.strerror or exc}")
        except ValueError as exc:
            raise CliError(EXIT_IO, str(exc))
        if config.get("command", args.command) != args.command:
            raise CliError(
                EXIT_USAGE,
                f"config was written by command {config['command']!r}, not {args.command!r}",
            )
    values = {}
    for param in params:
        value = getattr(args, param.name)
        if value is None and config.get(param.name, "") != "":  # empty values mean "not set"
            value = config[param.name]
        if value is None:
            value = param.default
        if value is None and param.required:
            raise CliError(EXIT_USAGE, f"missing required parameter {param.flag}")
        values[param.name] = None if value is None else param.convert(value)
    return values


def _load_design_dictionary(values: dict, seed: int) -> np.ndarray:
    if values["dict"] is not None and values["synth"] is not None:
        raise CliError(EXIT_USAGE, "give either --dict or --synth, not both")
    if values["dict"] is not None:
        return _read_matrix(values["dict"])
    if values["synth"] is not None:
        n, l = _parse_int_pair(values["synth"], "--synth")
        return gen_dictionary(n, l, seed)
    raise CliError(EXIT_USAGE, "a dictionary is required: --dict <path> or --synth N,L")


def _resolve_xi(value: str) -> float | None:
    """The number, or ``None`` for 'welch': the library resolves the Welch bound per M x L."""
    if value.strip().lower() == "welch":
        return None
    return Param("xi", float).convert(value)


def _manifest(command: str, values: dict, **extra) -> dict:
    """The command, its parameters (unset ones empty), `extra`, version, timestamp."""
    manifest = {"command": command}
    manifest.update((key, "" if value is None else value) for key, value in values.items())
    manifest.update(extra)
    manifest["version"] = __version__
    manifest["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return manifest


def _write_manifest(out_dir: Path, command: str, values: dict, **extra) -> None:
    manifest = _manifest(command, {**values, "out": str(out_dir)}, **extra)
    write_keyvalues(manifest, out_dir / "manifest.txt")


def _ensure_out_dir(path_text: str) -> Path:
    out_dir = Path(path_text)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot create output directory {out_dir}: {exc}")
    return out_dir


#: the library's experiment defaults, shared by every command
_DEFAULTS = ExperimentParams()
_SEED = Param("seed", int, 0, "root seed")
_OUT = Param("out", help="output directory", required=True)

DESIGN_PARAMS = (
    Param("dict", help="dictionary matrix CSV"),
    Param("synth", help="generate a random dictionary: N,L"),
    Param("m", int, help="number of measurement rows", required=True),
    Param("method", default="mt", help=f"design method: {'|'.join(METHODS)} (default mt)"),
    Param("lambda", float, _DEFAULTS.lam, "regularizer weight"),
    Param("xi", default="welch", help="relaxed-ETF level: 'welch' or a float"),
    Param("iter", int, _DEFAULTS.outer_iters, "alternating rounds for *-etf methods"),
    _SEED,
    Param("sre", help="SRE matrix CSV (required for lh methods)"),
    _OUT,
)


def cmd_design(values: dict) -> int:
    method, m, seed = values["method"], values["m"], values["seed"]
    if method not in METHODS:
        raise CliError(EXIT_USAGE, f"unknown method {method!r}; expected one of {METHODS}")
    psi = _load_design_dictionary(values, seed)
    n, l = psi.shape
    if m < 1:
        raise CliError(EXIT_USAGE, f"m must be positive, got {m}")
    if method != "randn" and m >= n:
        raise CliError(EXIT_USAGE, f"designed matrices need m < n, got m={m}, n={n}")
    params = ExperimentParams(m=m, n=n, l=l, lam=values["lambda"],
                              xi=_resolve_xi(values["xi"]), outer_iters=values["iter"])
    values["xi"] = params.resolved_xi()
    sre = None
    if method in SRE_METHODS:
        if values["sre"] is None:
            raise CliError(EXIT_USAGE, f"method {method!r} requires --sre <path>")
        sre = _read_matrix(values["sre"])
    out_dir = _ensure_out_dir(values["out"])

    phi0 = random_projection(m, n, seed)
    result = design_for_method(method, params, psi, phi0, params.lam, sre=sre)

    write_matrix_csv(result.phi, out_dir / "phi.csv")
    write_trace_csv(result.trace, out_dir / "trace.csv")
    if values["synth"] is not None:  # make the generated dictionary reusable
        write_matrix_csv(psi, out_dir / "psi.csv")
    _write_manifest(out_dir, "design", values, converged=result.converged,
                    stop_reason=result.stop_reason, n_f_evals=result.n_f_evals,
                    n_sd_restarts=result.n_sd_restarts)
    if not result.converged:
        print(f"design did not converge ({result.stop_reason}); artifacts in {out_dir}",
              file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


EVAL_PARAMS = (
    Param("phi", help="projection matrix CSV", required=True),
    Param("dict", help="dictionary matrix CSV", required=True),
    Param("snr", float, _DEFAULTS.snr_db, "dataset SNR in dB"),
    Param("p", int, _DEFAULTS.p, "signals per train/test half"),
    Param("k", int, _DEFAULTS.k, "sparsity level"),
    _SEED,
    Param("tag", default="custom", help="method tag recorded in the CSV"),
    _OUT,
)


def cmd_eval(values: dict) -> int:
    check_csv_value(values["tag"])  # the tag becomes a records.csv value
    phi = _read_matrix(values["phi"])
    psi = _read_matrix(values["dict"])
    if phi.shape[1] != psi.shape[0]:
        raise CliError(
            EXIT_USAGE,
            f"phi columns ({phi.shape[1]}) do not match dictionary rows ({psi.shape[0]})",
        )
    snr, p, k, seed = values["snr"], values["p"], values["k"], values["seed"]
    out_dir = _ensure_out_dir(values["out"])

    l = psi.shape[1]
    theta = gen_sparse_codes(l, k, 2 * p, seed)
    dataset = gen_signals(psi, theta, snr, seed)
    record = evaluate_system(
        phi, dataset, k, method=values["tag"], param_name="snr", param_value=snr, seed=seed
    )

    write_records_csv([record], out_dir / "records.csv")
    _write_manifest(out_dir, "eval", values, achieved_snr_db=dataset.snr_db)
    return EXIT_OK


SWEEP_PARAMS = (
    Param("axis", help=f"sweep axis: {'|'.join(SWEEP_METHODS)}", required=True),
    Param("grid", help="grid: a:step:b or comma list", required=True),
    Param("methods", help="comma list of methods"),
    Param("seeds", default="0", help="comma list of seeds"),
    Param("m", int, _DEFAULTS.m),
    Param("n", int, _DEFAULTS.n),
    Param("l", int, _DEFAULTS.l),
    Param("k", int, _DEFAULTS.k),
    Param("p", int, _DEFAULTS.p),
    Param("lambda", float, _DEFAULTS.lam),
    Param("xi", default="welch", help="'welch' (each point's M x L) or a float"),
    Param("iter", int, _DEFAULTS.outer_iters),
    Param("snr", float, _DEFAULTS.snr_db, "fixed SNR for non-snr sweeps"),
    Param("lambda_grid", help="candidate lambdas searched per method in an snr sweep"),
    _OUT,
    Param("timing", bool, False, "record wall-clock design time (breaks byte reproducibility)"),
)


def cmd_sweep(values: dict) -> int:
    axis = values["axis"] = values["axis"].lower()
    if axis not in SWEEP_METHODS:
        raise CliError(EXIT_USAGE, f"unknown sweep axis {axis!r}")
    grid = _parse_grid(values["grid"])
    seeds = _parse_seeds(values["seeds"])
    if values["methods"] is None:
        methods = SWEEP_METHODS[axis]
    else:
        methods = tuple(tok.strip() for tok in values["methods"].split(","))
        for method in methods:
            if method not in METHODS:
                raise CliError(EXIT_USAGE, f"unknown method {method!r}; expected one of {METHODS}")
    values["methods"] = ",".join(methods)
    values["seeds"] = ",".join(str(s) for s in seeds)
    xi = _resolve_xi(values["xi"])
    values["xi"] = "welch" if xi is None else xi  # a replay resolves the level per point
    timing = values["timing"]
    params = ExperimentParams(
        m=values["m"], n=values["n"], l=values["l"], k=values["k"], p=values["p"],
        lam=values["lambda"], xi=xi, outer_iters=values["iter"], snr_db=values["snr"],
    )
    out_dir = _ensure_out_dir(values["out"])

    if axis == "lambda":
        records = run_lambda_sweep(params, grid, seeds, methods=methods, timing=timing)
    elif axis == "snr":
        lambda_grid = None
        if values["lambda_grid"] is not None:
            lambda_grid = _parse_grid(values["lambda_grid"])
        records = run_snr_sweep(
            params, grid, methods, seeds, lambda_grid=lambda_grid, timing=timing
        )
    else:
        records = run_dimension_sweeps(params, axis, grid, seeds, methods=methods, timing=timing)

    write_records_csv(records, out_dir / "records.csv")
    _write_manifest(out_dir, "sweep", values)
    return EXIT_OK


LEMMA1_PARAMS = (
    Param("phi", help="projection matrix CSV"),
    Param("random", help="draw a random matrix: M,N"),
    Param("sigma", float, 1.0, "noise standard deviation"),
    Param("p", int, 100000, "number of Monte-Carlo samples"),
    _SEED,
    Param("csv", help="also write the report as a one-row CSV"),
    Param("out", help="optional output directory for report + manifest"),
)

def cmd_lemma1(values: dict) -> int:
    if values["phi"] is not None and values["random"] is not None:
        raise CliError(EXIT_USAGE, "give either --phi or --random, not both")
    seed = values["seed"]
    if values["phi"] is not None:
        phi = _read_matrix(values["phi"])
    elif values["random"] is not None:
        m, n = _parse_int_pair(values["random"], "--random")
        phi = random_projection(m, n, seed)
    else:
        raise CliError(EXIT_USAGE, "a matrix is required: --phi <path> or --random M,N")
    report = lemma1_check(phi, values["sigma"], values["p"], seed)

    shown = {key: value for key, value in values.items() if key not in ("csv", "out")}
    report_values = asdict(report)
    lines = _manifest("lemma1", shown)
    lines.update(report_values)
    for key, value in lines.items():
        print(f"{key}={render_value(value)}")

    if values["csv"] is not None:  # the report as a one-row CSV
        write_csv(values["csv"], report_values, [report_values.values()])
    if values["out"] is not None:
        out_dir = _ensure_out_dir(values["out"])
        write_keyvalues(report_values, out_dir / "report.txt")
        _write_manifest(out_dir, "lemma1", values)
    return EXIT_OK


#: subcommand -> (help, parameter table, handler)
COMMANDS = {
    "design": ("design a projection matrix", DESIGN_PARAMS, cmd_design),
    "eval": ("evaluate a projection matrix on synthetic data", EVAL_PARAMS, cmd_eval),
    "sweep": ("run a parameter sweep", SWEEP_PARAMS, cmd_sweep),
    "lemma1": ("Monte-Carlo check of the projected-noise law", LEMMA1_PARAMS, cmd_lemma1),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csdesign",
        description="Design robust compressive-sensing projection matrices and "
        "reproduce the synthetic evaluation pipeline.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, params, _) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=help_text)
        command_parser.add_argument("--config", help="key=value config file (flags override)")
        for param in params:
            param.add_to(command_parser)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    _, params, handler = COMMANDS[args.command]
    try:
        return handler(_resolve(args, params))
    except (CliError, ValueError) as exc:  # a ValueError is a value the library rejects
        print(f"csdesign {args.command}: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_USAGE)
    except OSError as exc:
        print(f"csdesign {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
