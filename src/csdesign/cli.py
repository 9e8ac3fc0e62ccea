"""Command-line interface: design, eval, sweep, lemma1.

Every command resolves its parameters from flags, optionally backed by
a flat ``key=value`` config file (flags win), writes a run manifest
alongside its artifacts, and derives all randomness from one ``--seed``
expanded into named sub-streams.  Replaying a manifest with
``--config <manifest>`` reproduces the artifacts byte for byte: every
value is first held to :func:`~csdesign.matio.check_keyvalue`, so the
manifest reads it back as given, and the records writer fills the
``wall_time_ms`` column only when ``--timing`` is given.

Each command declares its parameters once, as a table of :class:`Param`
records; the table alone drives the flags (read by :func:`_parse`), the
help, the config keys, the defaults, the typed conversion, the
required-parameter check and the manifest.

Exit codes: 0 success, 2 usage error (any ``ValueError``, here or in the
library: one stderr line, and no directory made), 3 I/O error (any
``OSError``; an ``--out`` under a file is one, found before any work),
4 design did not converge (artifacts are still written).  A colon grid
of :data:`MAX_GRID_POINTS` steps or more is refused before it is made.
Every matrix read from a CSV is held to
:func:`~csdesign.matio.check_matrix` as it is read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
# welch_bound, gen_sparse_codes and gen_signals are not called here; they stay
# bound in this namespace because perfbench's traced run wraps them by name
from .coherence import welch_bound
from .experiments import (
    METHODS,
    SRE_METHODS,
    SWEEP_METHODS,
    ExperimentParams,
    _check_method,
    design_for_method,
    evaluate_system,
    make_dataset,
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
#: a colon grid's step count must be below this, checked before any point is made
MAX_GRID_POINTS = 2_000_000


def _read_matrix(values: dict, key: str, **shape) -> np.ndarray:
    """The matrix in the CSV at ``--<key>``, held to the library's matrix rule and `shape`."""
    try:
        matrix = read_matrix_csv(values[key])
    except ValueError as exc:
        raise OSError(str(exc)) from exc
    return check_matrix(matrix, f"--{key}", **shape)


def _parse_grid(text: str, name: str = "grid") -> list[float]:
    """Parse ``--<name>``: ``a:step:b`` (inclusive when it divides evenly) or a comma list."""
    number = Param(name, float).convert
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"malformed grid {text!r}: expected a:step:b")
        a, step, b = (number(p) for p in parts)
        if not all(math.isfinite(v) for v in (a, step, b)):
            raise ValueError(f"grid start, step and end must be finite in {text!r}")
        if step <= 0:
            raise ValueError(f"grid step must be positive in {text!r}")
        if b < a:
            raise ValueError(f"grid end precedes start in {text!r}")
        raw = (b - a) / step  # the step count; inf when b - a overflows
        if not raw < MAX_GRID_POINTS:  # before any point is made
            raise ValueError(f"grid {text!r} has too many points")
        count = round(raw)
        if abs(a + count * step - b) <= 1e-9 * max(1.0, abs(b)):  # b is a grid point
            return list(np.linspace(a, b, count + 1))
        return [a + i * step for i in range(math.floor(raw) + 1)]
    return [number(token) for token in text.split(",")]


def _parse_int_pair(text: str, name: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--{name} expects two comma-separated integers, got {text!r}")
    return tuple(Param(name, int).convert(part) for part in parts)


@dataclass(frozen=True)
class Param:
    """One command parameter, declared once.

    `name` is both the config-file key and the manifest key; the flag is
    ``--name`` with underscores written as dashes.  `type` is ``str``,
    ``int``, ``float``, or ``bool`` (a flag that takes no value; in a
    config file ``1``, ``true`` or ``yes`` turn it on and ``0``, ``false``
    or ``no`` off, in any case).
    """

    name: str
    type: type = str
    default: object = None
    help: str | None = None
    required: bool = False

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def convert(self, value):
        if self.type is bool:
            text = str(value).lower()
            if text not in ("1", "true", "yes", "0", "false", "no"):
                raise ValueError(f"{self.name} expects true or false, got {value!r}")
            return text in ("1", "true", "yes")
        try:
            return self.type(value)
        except ValueError:
            expects = "an integer" if self.type is int else "a number"
            raise ValueError(f"{self.name} expects {expects}, got {value!r}") from None


def _resolve(command: str, given: dict, params: tuple[Param, ...]) -> dict:
    """Resolve each parameter: flag given, then config file, then default."""
    config = {}
    if given.get("config"):
        try:
            config = read_keyvalues(given["config"])
        except ValueError as exc:
            raise OSError(str(exc)) from exc
        if config.get("command", command) != command:
            raise ValueError(f"config was written by command {config['command']!r}, "
                             f"not {command!r}")
        unknown = sorted(config.keys() - {param.name for param in params} - set(_MANIFEST_KEYS))
        if unknown:  # a misspelled key would otherwise leave its parameter at its default
            raise ValueError(f"config key {unknown[0]!r} names no {command} parameter")
    values = {}
    for param in params:
        # a flag given, even empty, wins; an empty config value means "not set"
        value = given.get(param.name, config.get(param.name) or param.default)
        if value is None and param.required:
            raise ValueError(f"missing required parameter {param.flag}")
        values[param.name] = None if value is None else param.convert(value)
    return values


def _matrix_input(values: dict, path: str, shape: str, draw, dims: str) -> np.ndarray:
    """The matrix read from the CSV at ``--<path>``, or drawn by `draw` from ``--<shape>``."""
    if values[path] is not None and values[shape] is not None:
        raise ValueError(f"give either --{path} or --{shape}, not both")
    if values[path] is not None:
        return _read_matrix(values, path)
    if values[shape] is None:
        raise ValueError(f"a matrix is required: --{path} <path> or --{shape} {dims}")
    return draw(*_parse_int_pair(values[shape], shape), values["seed"])


def _resolve_xi(value: str) -> float | None:
    """The number, or ``None`` for 'welch': the library resolves the Welch bound per M x L."""
    return None if value.strip().lower() == "welch" else Param("xi", float).convert(value)


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
#: the flag every command takes beside its table, and the one flag of the bare ``csdesign``
_CONFIG = Param("config", help="key=value config file (flags override)")
_VERSION = Param("version", bool, help="print the version and exit")
#: the keys a manifest writes beside its command's parameters: the only others a config may hold
_MANIFEST_KEYS = ("command", "version", "timestamp", "converged", "stop_reason", "n_f_evals",
                  "n_sd_restarts", "achieved_snr_db")

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
        raise ValueError(f"method {method!r} requires --sre <path>" if sre_path is None
                         else f"--sre applies to {', '.join(SRE_METHODS)} only, not {method!r}")
    psi = _matrix_input(values, "dict", "synth", gen_dictionary, "N,L")
    n, l = psi.shape
    params = ExperimentParams(m=m, n=n, l=l, k=1, lam=values["lambda"],  # a design has no K
                              xi=_resolve_xi(values["xi"]), outer_iters=values["iter"])
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
    params = ExperimentParams(m=m, n=n, l=l, k=k, p=p, snr_db=snr)  # checks shape and values

    dataset = make_dataset(params, seed, psi=psi)
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
    Param("m", int, _DEFAULTS.m, "number of measurement rows"),
    Param("n", int, _DEFAULTS.n, "signal dimension"),
    Param("l", int, _DEFAULTS.l, "number of dictionary atoms"),
    Param("k", int, _DEFAULTS.k, "sparsity level"),
    Param("p", int, _DEFAULTS.p, "signals per train/test half"),
    Param("lambda", float, _DEFAULTS.lam, "regularizer weight"),
    Param("xi", default="welch", help="'welch' (each point's M x L) or a float"),
    Param("iter", int, _DEFAULTS.outer_iters, "alternating rounds for *-etf methods"),
    Param("snr", float, _DEFAULTS.snr_db, "fixed SNR for non-snr sweeps"),
    Param("lambda_grid", help="candidate lambdas searched per method (snr axis only)"),
    _OUT,
    Param("timing", bool, False, "record wall-clock design time (breaks byte reproducibility)"),
)


def cmd_sweep(values: dict) -> int:
    axis = values["axis"] = values["axis"].lower()
    if axis not in SWEEP_METHODS:
        raise ValueError(f"unknown sweep axis {axis!r}")
    if values["lambda_grid"] is not None and axis != "snr":
        raise ValueError(f"--lambda-grid applies to the snr axis only, not {axis!r}")
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
    sizes = {name: values[name] for name in ("m", "n", "l", "k")}
    if axis in ("m", "k", "l"):  # each point sets its own size; the base's fits iff one can
        sizes[axis] = {"m": sizes["n"], "k": 1, "l": sizes["n"]}[axis]
    params = ExperimentParams(**sizes, p=values["p"], lam=values["lambda"], xi=xi,
                              outer_iters=values["iter"], snr_db=values["snr"])

    if axis == "lambda":
        records = run_lambda_sweep(params, grid, seeds, methods=methods)
    elif axis == "snr":
        lambda_grid = None
        if values["lambda_grid"] is not None:
            lambda_grid = _parse_grid(values["lambda_grid"], "lambda_grid")
        records = run_snr_sweep(params, grid, methods, seeds, lambda_grid=lambda_grid)
    else:
        records = run_dimension_sweeps(params, axis, grid, seeds, methods=methods)

    write = partial(write_records_csv, timing=values["timing"])
    _write_outputs(values, "sweep", [(write, records, "records.csv")])
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


def _parse(command: str | None, tokens: list[str]) -> dict:
    """The text of each flag in `tokens` by parameter name (``True`` for a bool flag).

    `tokens` follow `command`, or stand alone when it is ``None`` (the one
    flag then is ``--version``).  See the README for the grammar: a name
    must match exactly, a value may begin with one dash, the last of a
    repeated flag wins, and ``-h``/``--help`` gives ``{"help": True}``.
    """
    if command is None and not (tokens and tokens[0].startswith("-")):
        got = repr(tokens[0]) if tokens else "none"
        raise ValueError(f"expected a command ({', '.join(COMMANDS)}), got {got}")
    flags = {p.flag: p for p in ((_CONFIG, *COMMANDS[command][1]) if command else (_VERSION,))}
    given, tokens = {}, list(tokens)
    while tokens:
        token = tokens.pop(0)
        if token in ("-h", "--help"):
            return {"help": True}
        flag, equals, value = token.partition("=")
        param = flags.get(flag)
        if param is None:
            raise ValueError(f"unknown argument {token!r}")
        if param.type is bool and equals:
            raise ValueError(f"{flag} takes no value, got {token!r}")
        if param.type is not bool and not equals:
            if not tokens or tokens[0].startswith("--"):
                raise ValueError(f"{flag} expects a value")
            value = tokens.pop(0)
        given[param.name] = True if param.type is bool else value
    return given


def _help(command: str | None) -> str:
    """The help of `command`, or of the bare ``csdesign``, from the same tables."""
    if command is None:
        head = "usage: csdesign <command> [--flag value ...]; <command> --help lists its flags"
        rows = [*((name, text) for name, (text, _, _) in COMMANDS.items()),
                (_VERSION.flag, _VERSION.help)]
    else:
        text, params, _ = COMMANDS[command]
        head = f"usage: csdesign {command} [--flag value ...]: {text}"
        rows = [(p.flag + ("" if p.type is bool else " VALUE"),
                 (p.help or "") + (" (required)" if p.required else ""))
                for p in (_CONFIG, *params)]
    return "\n".join([head, *(f"  {name:<22} {text}" for name, text in rows)])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        given = _parse(command, argv[1:] if command else argv)
        if "help" in given or "version" in given:
            print(_help(command) if "help" in given else f"csdesign {__version__}")
            return EXIT_OK
        _, params, handler = COMMANDS[command]
        values = _resolve(command, given, params)
        for param in params:  # before any work: will the manifest replay each value as given?
            check_keyvalue(values[param.name], param.flag)
        if values["out"] is not None:  # before any work: can --out be made where it points?
            out = Path(values["out"]).absolute()
            ancestor = next(path for path in (out, *out.parents) if path.exists())
            if not ancestor.is_dir():
                raise OSError(f"cannot make --out {out}: {ancestor} is not a directory")
        return handler(values)
    # the exit code follows the type: a ValueError is a value refused, here or by the
    # library (usage); an OSError is a file that cannot be read, parsed or made (I/O)
    except (ValueError, OSError) as exc:
        print(f"csdesign{'' if command is None else ' ' + command}: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
