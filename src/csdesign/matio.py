"""Plain-text serialization shared by every module; the only module that opens files.

Two formats, both rendering values with :func:`render_value` (floats at
17 significant digits, enough for a lossless float64 round-trip):

* CSV tables (:func:`write_csv`): a header line, then one
  comma-separated line per row.  Records, traces and reports name their
  columns in the header; a matrix CSV's header is its shape
  ``rows,cols``.
* Key=value text: flat ``key=value`` lines used for run manifests,
  reports, and config files.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "render_value",
    "check_csv_value",
    "check_keyvalue",
    "check_matrix",
    "write_csv",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_keyvalues",
    "read_keyvalues",
]

#: printf format giving a lossless decimal representation of a float64
FLOAT_FMT = "%.17g"


def render_value(value: object) -> str:
    """Render one value as text: floats at 17 digits, booleans as true/false."""
    if isinstance(value, float):
        return FLOAT_FMT % value
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def check_csv_value(value: object) -> str:
    """`value` rendered for a CSV table; ``ValueError`` if the format cannot hold it.

    A rendered value may hold no comma, no line break and no non-ASCII
    character.  Every CSV line is checked with this rule, and callers
    may apply it to a value early, before any work that would be lost.
    """
    text = render_value(value)
    if "," in text or "\n" in text or "\r" in text or not text.isascii():
        raise ValueError(
            f"cannot write {text!r} to a CSV table: a value may hold no comma, "
            "no line break and no non-ASCII character"
        )
    return text


def check_keyvalue(value: object, name: str) -> str:
    """`value` rendered for the ``key=value`` line of `name`, ``None`` (unset) as empty.

    :func:`read_keyvalues` strips a value and reads an empty one as
    unset, so ``ValueError`` naming `name` unless a set value renders
    nonempty, with no line break and no leading or trailing whitespace.
    """
    text = "" if value is None else render_value(value)
    if value is not None and (text != text.strip() or not text or "\n" in text or "\r" in text):
        raise ValueError(f"{name}: cannot write {text!r} to a key=value line: a value must be "
                         "nonempty, with no line break and no leading or trailing whitespace")
    return text


def check_matrix(a, name: str, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """`a` as a float 2-D array: the library's one rule for a matrix from outside it.

    ``ValueError`` naming `name` unless `a` is nonempty, finite, and
    `rows` x `cols` where those are given.  The non-finite message counts
    the columns holding a NaN or an inf: for measurements, the signals hit.
    """
    out = np.asarray(a, dtype=float)
    if out.ndim != 2 or out.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array, got shape {out.shape}")
    if rows not in (None, out.shape[0]) or cols not in (None, out.shape[1]):
        need = " and ".join(f"{n} {what}" for n, what in ((rows, "rows"), (cols, "columns"))
                            if n is not None)
        raise ValueError(f"{name} must have {need}, got shape {out.shape}")
    bad = np.count_nonzero(~np.isfinite(out).all(axis=0))
    if bad:
        raise ValueError(f"{name} has non-finite entries in {bad} of {out.shape[1]} columns")
    return out


def _csv_line(row: Iterable) -> str:
    """One CSV line of rendered values; rejects a value the format cannot hold."""
    return ",".join(check_csv_value(value) for value in row) + "\n"


def write_csv(path: str | os.PathLike, header: Iterable, rows: Iterable[Iterable]) -> None:
    """Write `header`, then each of `rows`, as comma-separated lines of rendered values.

    Every value is rendered and checked before the file is opened, so a
    value holding a comma, a line break or a non-ASCII character raises
    ``ValueError`` and leaves any existing file at `path` as it was.
    """
    lines = [_csv_line(row) for row in (header, *rows)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(lines)


def write_matrix_csv(matrix: np.ndarray, path: str | os.PathLike) -> None:
    """Write a 2-D array to `path` in the shared matrix CSV format."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    write_csv(path, a.shape, a.tolist())


def read_matrix_csv(path: str | os.PathLike) -> np.ndarray:
    """Read a matrix written by :func:`write_matrix_csv`.

    Raises
    ------
    ValueError
        If the header or any row is malformed, the shape disagrees with
        the header, or a non-blank line follows the declared rows.
    """
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        try:
            rows_s, cols_s = header.split(",")
            rows, cols = int(rows_s), int(cols_s)
        except ValueError:
            raise ValueError(f"{path}: malformed matrix header {header!r}") from None
        if rows < 0 or cols < 0:
            raise ValueError(f"{path}: negative dimensions in header {header!r}")
        out = np.empty((rows, cols), dtype=float)
        for i in range(rows):
            line = fh.readline()
            if not line:
                raise ValueError(f"{path}: expected {rows} rows, file ends at row {i}")
            parts = line.strip().split(",")
            if len(parts) != cols:
                raise ValueError(
                    f"{path}: row {i} has {len(parts)} values, expected {cols}"
                )
            try:
                out[i] = [float(p) for p in parts]
            except ValueError:
                raise ValueError(f"{path}: row {i} contains a non-numeric value") from None
        if any(line.strip() for line in fh):
            raise ValueError(f"{path}: more rows than the {rows} the header declares")
    return out


def write_keyvalues(pairs: Mapping[str, object], path: str | os.PathLike) -> None:
    """Write a mapping as flat ``key=value`` lines, every value checked by
    :func:`check_keyvalue` before the file is opened."""
    lines = [f"{key}={check_keyvalue(value, key)}\n" for key, value in pairs.items()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def read_keyvalues(path: str | os.PathLike) -> dict[str, str]:
    """Read ``key=value`` lines into a dict of strings.

    Blank lines and lines starting with ``#`` are ignored.  Values keep
    their text form; callers convert as needed.
    """
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
