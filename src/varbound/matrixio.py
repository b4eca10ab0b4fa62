"""Matrix exchange formats: CSV (row-major, full symmetric storage) and JSON
nested arrays. Round trips are exact to 17 significant digits."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import linalg
from .errors import DimensionMismatch, ParseError

_FORMATS = ("csv", "json")


def _infer_format(path, fmt):
    if fmt is not None:
        if fmt not in _FORMATS:
            raise ParseError(f"unsupported matrix format {fmt!r}; use one of {_FORMATS}")
        return fmt
    suffix = Path(path).suffix.lower().lstrip(".")
    return suffix if suffix in _FORMATS else "csv"


def write_matrix(M, path, fmt=None):
    """Write a matrix; format from ``fmt`` or the file suffix (default csv)."""
    M = np.asarray(M, dtype=float)
    fmt = _infer_format(path, fmt)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        # one %-template per row of Python floats: the same text as formatting
        # each number on its own, in fewer calls
        template = ",".join(["%.17g"] * M.shape[-1])
        path.write_text("\n".join(template % tuple(row) for row in M.tolist()) + "\n")
    else:
        path.write_text(json.dumps(M.tolist()) + "\n")
    return path


def _read_text(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _parse_rows(path):
    text = _read_text(path)
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(x) for x in line.split(",")])
        except ValueError as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: empty matrix file")
    return rows


def _is_number(x):
    """Whether ``x`` is a number as json.loads reads one: an int or a float. A
    boolean (an int to Python), a string or null is not."""
    return type(x) in (int, float)


def _error(where, message):
    return ParseError(f"{where}: {message}" if where else message)


def _finite_array(rows, where=None):
    """``rows``, numbers or nested lists of them, as a float array. ParseError,
    naming ``where`` when given, if the rows are ragged or an entry is not finite."""
    try:
        x = np.asarray(rows, dtype=float)
    except ValueError as exc:  # numpy refuses an inhomogeneous shape
        raise _error(where, "ragged rows") from exc
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        entry = ", ".join(str(int(i) + 1) for i in bad[0])
        raise _error(where, f"entry {entry} (1-based) is {x[tuple(bad[0])]}, not finite")
    return x


def _json_array(data, where=None):
    """Nested arrays of JSON numbers as a finite float array (see
    _finite_array); any other entry, such as a boolean, raises ParseError."""
    entries = [data]
    for x in entries:  # grows as arrays are opened
        if type(x) is list:
            entries.extend(x)
        elif not _is_number(x):
            raise _error(where, f"{json.dumps(x)} is not a JSON number")
    return _finite_array(data, where)


def read_matrix(path, fmt=None, symmetric=True):
    """Read a matrix of finite numbers and, by default, validate that it is
    square and symmetric; ``symmetric=False`` reads any rectangular matrix."""
    fmt = _infer_format(path, fmt)
    if fmt == "csv":
        M = _finite_array(_parse_rows(path), path)
    else:
        try:
            data = json.loads(_read_text(path))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from exc
        M = _json_array(data, path)
    if M.ndim != 2:
        raise DimensionMismatch(f"{path}: expected a nested array matrix")
    if not symmetric:
        return M
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"{path}: matrix is {M.shape[0]} x {M.shape[1]}, not square")
    return linalg.check_symmetric(M, name=str(path))


def write_vector(v, path):
    v = np.asarray(v, dtype=float)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(["%.17g"] * len(v)) % tuple(v.tolist()) + "\n")
    return path


def read_vector(path):
    """Read a vector of finite numbers, one or more per line."""
    text = _read_text(path)
    try:
        values = [float(x) for x in text.split()]
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return _finite_array(values, path)
