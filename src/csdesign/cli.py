"""Command-line interface: design, eval, sweep, lemma1.

Every command resolves its parameters from flags, optionally backed by
a flat ``key=value`` config file (flags win), writes a run manifest
alongside its artifacts, and derives all randomness from one ``--seed``
expanded into named sub-streams.  Replaying a manifest with
``--config <manifest>`` reproduces the artifacts byte for byte: every
value is first held to :func:`~csdesign.matio.check_keyvalue`, so the
manifest reads it back as given, and the ``wall_time_ms`` column stays
at zero unless ``--timing`` is given.

Each command declares its parameters once, as a table of :class:`Param`
records; the table alone drives the flags, the config keys, the
defaults, the typed conversion, the required-parameter check and the
manifest.

Exit codes: 0 success, 2 usage error (including any value the library
rejects with ``ValueError``; it creates no directory), 3 I/O error (an
``--out`` whose nearest existing ancestor is not a directory is one,
found before any work), 4 design did not converge (artifacts are still
written).  Every matrix read from a CSV is held to
:func:`~csdesign.matio.check_matrix` as it is read.
"""

from __future__ import annotations

import argparse
import math
import re
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
    _check_method,
    _check_shape,
    design_for_method,
    evaluate_system,
    run_dimension_sweeps,
    run_lambda_sweep,
    run_snr_sweep,
    write_records_csv,
)
from .matio import (check_csv_value, check_keyvalue, check_matrix, read_keyvalues,
                    read_matrix_csv, write_keyvalues, write_matrix_csv)
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


def _read_matrix(values: dict, key: str, **shape) -> np.ndarray:
    """The matrix in the CSV at ``--<key>``, held to the library's matrix rule and `shape`."""
    try:
        matrix = read_matrix_csv(values[key])
    except ValueError as exc:
        raise CliError(EXIT_IO, str(exc)) from exc
    return check_matrix(matrix, f"--{key}", **shape)


def _parse_grid(text: str, name: str = "grid") -> list[float]:
    """Parse ``--<name>``: ``a:step:b`` (inclusive when it divides evenly) or a comma list."""
    number = Param(name, float).convert
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CliError(EXIT_USAGE, f"malformed grid {text!r}: expected a:step:b")
        a, step, b = (number(p) for p in parts)
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
    return [number(token) for token in text.split(",")]


def _parse_int_pair(text: str, name: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(EXIT_USAGE, f"--{name} expects two comma-separated integers, got {text!r}")
    return tuple(Param(name, int).convert(part) for part in parts)


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


def _matrix_input(values: dict, path: str, shape: str, draw, dims: str) -> np.ndarray:
    """The matrix read from the CSV at ``--<path>``, or drawn by `draw` from ``--<shape>``."""
    if values[path] is not None and values[shape] is not None:
        raise CliError(EXIT_USAGE, f"give either --{path} or --{shape}, not both")
    if values[path] is not None:
        return _read_matrix(values, path)
    if values[shape] is None:
        raise CliError(EXIT_USAGE, f"a matrix is required: --{path} <path> or --{shape} {dims}")
    return draw(*_parse_int_pair(values[shape], shape), values["seed"])


def _resolve_xi(value: str) -> float | None:
    """The number, or ``None`` for 'welch': the library resolves the Welch bound per M x L."""
    if value.strip().lower() == "welch":
        return None
    return Param("xi", float).convert(value)


def _manifest(command: str, values: dict, **extra) -> dict:
    """The command, its parameters (unset ones ``None``), `extra`, version, timestamp."""
    return {"command": command, **values, **extra, "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds")}


def _write_outputs(values: dict, command: str, artifacts, **extra) -> Path:
    """Make ``--out``, write each ``(writer, data, file name)`` artifact, then the manifest.

    The one place a command creates its directory, called once its work is done.
    """
    out_dir = Path(values["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for write, data, name in artifacts:
        write(data, out_dir / name)
    write_keyvalues(_manifest(command, {**values, "out": str(out_dir)}, **extra),
                    out_dir / "manifest.txt")
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
    _check_method(method)
    sre_path = values["sre"]
    if (sre_path is None) == (method in SRE_METHODS):  # lh methods need it; no other reads it
        raise CliError(EXIT_USAGE, f"method {method!r} requires --sre <path>" if sre_path is None
                       else f"--sre applies to {', '.join(SRE_METHODS)} only, not {method!r}")
    psi = _matrix_input(values, "dict", "synth", gen_dictionary, "N,L")
    n, l = psi.shape
    params = ExperimentParams(m=m, n=n, l=l, k=1, lam=values["lambda"],  # a design has no K
                              xi=_resolve_xi(values["xi"]), outer_iters=values["iter"])
    _check_shape(params)
    values["xi"] = params.resolved_xi()
    sre = None if sre_path is None else _read_matrix(values, "sre", rows=n)

    phi0 = random_projection(m, n, seed)
    result = design_for_method(method, params, psi, phi0, params.lam, sre=sre)

    artifacts = [(write_matrix_csv, result.phi, "phi.csv"),
                 (write_trace_csv, result.trace, "trace.csv")]
    if values["synth"] is not None:  # make the generated dictionary reusable
        artifacts.append((write_matrix_csv, psi, "psi.csv"))
    out_dir = _write_outputs(values, "design", artifacts, converged=result.converged,
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
    phi = _read_matrix(values, "phi")
    psi = _read_matrix(values, "dict", rows=phi.shape[1])
    snr, p, k, seed = values["snr"], values["p"], values["k"], values["seed"]
    (m, n), l = phi.shape, psi.shape[1]
    _check_shape(ExperimentParams(m=m, n=n, l=l, k=k, p=p, snr_db=snr))

    theta = gen_sparse_codes(l, k, 2 * p, seed)
    dataset = gen_signals(psi, theta, snr, seed)
    record = evaluate_system(
        phi, dataset, k, method=values["tag"], param_name="snr", param_value=snr, seed=seed
    )

    _write_outputs(values, "eval", [(write_records_csv, [record], "records.csv")],
                   achieved_snr_db=dataset.snr_db)
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
    Param("lambda_grid", help="candidate lambdas searched per method (snr axis only)"),
    _OUT,
    Param("timing", bool, False, "record wall-clock design time (breaks byte reproducibility)"),
)


def cmd_sweep(values: dict) -> int:
    axis = values["axis"] = values["axis"].lower()
    if axis not in SWEEP_METHODS:
        raise CliError(EXIT_USAGE, f"unknown sweep axis {axis!r}")
    if values["lambda_grid"] is not None and axis != "snr":
        raise CliError(EXIT_USAGE, f"--lambda-grid applies to the snr axis only, not {axis!r}")
    grid = _parse_grid(values["grid"])
    seeds = [Param("seeds", int).convert(tok) for tok in values["seeds"].split(",")]
    if values["methods"] is None:
        methods = SWEEP_METHODS[axis]
    else:  # the sweep checks each method before its first dataset
        methods = tuple(tok.strip() for tok in values["methods"].split(","))
    values["methods"] = ",".join(methods)
    values["seeds"] = ",".join(str(s) for s in seeds)
    xi = _resolve_xi(values["xi"])
    values["xi"] = "welch" if xi is None else xi  # a replay resolves the level per point
    timing = values["timing"]
    params = ExperimentParams(
        m=values["m"], n=values["n"], l=values["l"], k=values["k"], p=values["p"],
        lam=values["lambda"], xi=xi, outer_iters=values["iter"], snr_db=values["snr"],
    )

    if axis == "lambda":
        records = run_lambda_sweep(params, grid, seeds, methods=methods, timing=timing)
    elif axis == "snr":
        lambda_grid = None
        if values["lambda_grid"] is not None:
            lambda_grid = _parse_grid(values["lambda_grid"], "lambda_grid")
        records = run_snr_sweep(
            params, grid, methods, seeds, lambda_grid=lambda_grid, timing=timing
        )
    else:
        records = run_dimension_sweeps(params, axis, grid, seeds, methods=methods, timing=timing)

    _write_outputs(values, "sweep", [(write_records_csv, records, "records.csv")])
    return EXIT_OK


LEMMA1_PARAMS = (
    Param("phi", help="projection matrix CSV"),
    Param("random", help="draw a random matrix: M,N"),
    Param("sigma", float, 1.0, "noise standard deviation"),
    Param("p", int, 100000, "number of Monte-Carlo samples"),
    _SEED,
    Param("out", help="optional output directory for report + manifest"),
)

def cmd_lemma1(values: dict) -> int:
    phi = _matrix_input(values, "phi", "random", random_projection, "M,N")
    report = lemma1_check(phi, values["sigma"], values["p"], values["seed"])

    shown = {key: value for key, value in values.items() if key != "out"}
    report_values = asdict(report)
    lines = _manifest("lemma1", shown)
    lines.update(report_values)
    for key, value in lines.items():
        print(f"{key}={check_keyvalue(value, key)}")

    if values["out"] is not None:
        _write_outputs(values, "lemma1", [(write_keyvalues, report_values, "report.txt")])
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


#: a value argparse would take for a flag: '-' then a digit, '.', 'inf' or 'nan'
_NEGATIVE_VALUE = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)


def _glue_negative_values(argv: list[str]) -> list[str]:
    """`argv` with each negative number or grid glued to the value-taking flag before it.

    argparse reads a '-'-prefixed token that is not a bare number, such
    as ``-5,0,5``, ``-5:5:15``, ``-1e-3`` or ``-inf``, as a flag; glued
    (``--grid=-5,0,5``) it is read as the flag's value.
    """
    takes_value = {"--config"} | {param.flag for _, params, _ in COMMANDS.values()
                                  for param in params if param.type is not bool}
    glued = []
    for token in argv:
        if glued and glued[-1] in takes_value and _NEGATIVE_VALUE.match(token):
            glued[-1] += "=" + token
        else:
            glued.append(token)
    return glued


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    _, params, handler = COMMANDS[args.command]
    try:
        values = _resolve(args, params)
        for param in params:  # before any work: will the manifest replay each value as given?
            check_keyvalue(values[param.name], param.flag)
        if values["out"] is not None:  # before any work: can --out be made where it points?
            out = Path(values["out"]).absolute()
            ancestor = next(path for path in (out, *out.parents) if path.exists())
            if not ancestor.is_dir():
                raise CliError(EXIT_IO, f"cannot make --out {out}: {ancestor} is not a directory")
        return handler(values)
    except (CliError, ValueError) as exc:  # a ValueError is a value the library rejects
        print(f"csdesign {args.command}: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_USAGE)
    except OSError as exc:  # the message names the path
        print(f"csdesign {args.command}: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
