"""JSON encodings shared across the package.

Matrices are encoded row-major as nested arrays of 2-element [re, im] pairs:
``[[[re, im], ...], ...]``. Complex scalars are ``[re, im]``.

``dumps_canonical`` renders JSON with a fixed field order (dict insertion
order) and floats printed with 12 significant digits, so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import NonFiniteResult, ParseError


def complex_to_json(value: complex) -> list[float]:
    return [float(value.real), float(value.imag)]


def float_from_json(data, path: str = "value") -> float:
    """A JSON number as a finite float; NaN, +-Infinity and overflowing integers are rejected."""
    if isinstance(data, (int, float)) and not isinstance(data, bool):
        try:
            x = float(data)
        except OverflowError:
            x = math.inf
        if math.isfinite(x):
            return x
    raise ParseError(f"{path}: expected a finite number, got {data!r}")


def complex_from_json(data, path: str = "value") -> complex:
    if not isinstance(data, (list, tuple)) or len(data) != 2:
        raise ParseError(f"{path}: expected a [re, im] pair, got {data!r}")
    return complex(float_from_json(data[0], f"{path}[0]"), float_from_json(data[1], f"{path}[1]"))


def matrix_to_json(matrix) -> list:
    m = np.asarray(matrix, dtype=complex)
    return [[complex_to_json(complex(entry)) for entry in row] for row in m]


_PLAIN_NUMBERS = {int, float}


def _numbers_array(data, dim: int) -> np.ndarray | None:
    """The (dim, dim) complex matrix of ``dim`` rows of ``dim`` [re, im] pairs of plain JSON numbers, or None.

    One pass checks the shape and that every number is an exact ``int`` or
    ``float`` (no bool, string or null); one ``np.array`` converts them all,
    as ``float`` converts each, and one check judges finiteness. Anything else,
    an integer beyond the float range included, gives None.
    """
    if not all(type(row) is list and len(row) == dim for row in data):
        return None
    if not all(type(pair) is list and len(pair) == 2 for row in data for pair in row):
        return None
    if not {type(x) for row in data for pair in row for x in pair} <= _PLAIN_NUMBERS:
        return None
    try:
        pairs = np.array(data, dtype=float)
    except OverflowError:
        return None
    if not np.isfinite(pairs).all():
        return None
    return pairs.view(complex)[..., 0]  # each [re, im] pair is one complex128, bit for bit


def matrix_from_json(data, path: str = "matrix") -> np.ndarray:
    """A square matrix from its nested [re, im] pairs; a malformed entry raises ParseError with its path."""
    if not isinstance(data, list) or not data:
        raise ParseError(f"{path}: expected a non-empty nested array")
    dim = len(data)
    out = _numbers_array(data, dim)
    if out is not None:
        return out
    # the per-entry checks name the first malformed entry
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{path}[{i}]: expected a row of length {dim}")
        for j, entry in enumerate(row):
            out[i, j] = complex_from_json(entry, f"{path}[{i}][{j}]")
    return out


_FLOAT_FORMAT = "%.12g"
_FLOAT_FORMAT_BYTES = _FLOAT_FORMAT.encode("ascii")


def format_float(x: float) -> str:
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise NonFiniteResult(f"non-finite value {x!r} cannot be serialized")
    return _FLOAT_FORMAT % (x + 0.0)  # + 0.0 prints -0.0 as 0


def format_rows(rows) -> str:
    """CSV lines of a 2-d float array, each value written as ``format_float`` writes it.

    A column whose every value is +-0, which ``format_float`` writes as
    ``0``, is written as that text, with no value formatted. The lines are
    formatted as bytes, whose ``%`` writes a float as ``str``'s does, and
    decoded once.
    """
    rows = np.asarray(rows, dtype=float)
    bad = ~np.isfinite(rows)
    if bad.any():
        format_float(rows[bad][0])  # raises
    keep = rows.any(axis=0).tolist()
    line = b",".join([_FLOAT_FORMAT_BYTES if k else b"0" for k in keep]) + b"\n"
    if not all(keep):
        rows = rows[:, keep]
    return ((line * len(rows)) % tuple((rows + 0.0).ravel().tolist())).decode("ascii")


def dumps_canonical(obj) -> str:
    """Serialize to JSON with deterministic float formatting and field order."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        # escapes quotes, backslashes and control characters; other text stays as is
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, dict):
        items = ", ".join(f"{dumps_canonical(str(k))}: {dumps_canonical(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
