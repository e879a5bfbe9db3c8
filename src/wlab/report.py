"""Deterministic JSON rendering of analysis results.

Every report type in the package is a frozen dataclass, so a document is
produced by walking the dataclass tree: fields keep their declaration order,
rationals become {"num", "den", "decimal"}, complex numbers {"re", "im"},
sphere points "inf" or {"re", "im"}, and non-finite floats the strings
"inf"/"-inf"/"nan" (keeping the output strict JSON).  Two runs on the same
input and flags produce byte-identical documents.

Every other float -- in a document, a mesh CSV or an OBJ file -- is written
through ``format_float`` (kept in :mod:`wlab.tolerances`, where
``rational`` also reads it): rounded to 12 decimal places, then to 12
significant digits, with -0.0 written as 0.  Root positions, quadratures and
meshes carry last-ulp noise from numpy's vectorised kernels that differs
between platforms; no check in the package works anywhere near that
precision (the tightest tolerance is 1e-12), so the rounding drops only that
noise and the bytes agree across platforms.  The exact decimal of a rational
is ``float(Fraction)`` and is not rounded.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from fractions import Fraction

import numpy as np

from .exprparse import format_expression
from .rational import RationalFunction, SpherePoint
from .tolerances import FLOAT_DECIMALS, FLOAT_DIGITS, _float_text, format_float

__all__ = [
    "SCHEMA_VERSION",
    "FLOAT_DECIMALS",
    "FLOAT_DIGITS",
    "format_float",
    "format_float_rows",
    "encode",
    "document",
    "to_json",
]

SCHEMA_VERSION = 2


# Every float field of a table is written as this %-format field.  It is the
# same C routine as the f-string spec in _float_text.
_FIELD = f"%.{FLOAT_DIGITS}g"
_SCALE = 10.0**FLOAT_DECIMALS  # an exact double
_HALF_INTEGERS_END = 2.0**52  # from here up, no half-integer is a double


def _rounded_fields(table: np.ndarray) -> list[float]:
    """``round(v, FLOAT_DECIMALS) + 0.0`` for every field of ``table``, flattened.

    With ``y = v * 1e12`` (1e12 is a double, so ``y`` is the exact product
    rounded once), ``rint(y) / 1e12`` is exactly CPython's ``round(v, 12)``:
    ``rint`` rounds half to even, as ``round`` does on the exact decimal
    value, and the division rounds ``n * 1e-12`` correctly, as ``round``
    parses its digits back.  Below 2**52 every half-integer is a double, so
    the product's rounding, being monotone, never carries ``y`` across one;
    it can only land on one, and then ``rint`` may pick the wrong side.  So
    the scalar ``round`` takes exactly the fields where ``y`` is non-finite,
    ``|y| >= 2**52``, or ``y`` is a half-integer.
    """
    values = table.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        y = values * _SCALE
        fields = (np.rint(y) / _SCALE + 0.0).tolist()
        a = np.abs(y)
        unsure = np.flatnonzero(~(a < _HALF_INTEGERS_END) | (a - np.floor(a) == 0.5))
    for i, v in zip(unsure.tolist(), values[unsure].tolist()):
        fields[i] = round(v, FLOAT_DECIMALS) + 0.0
    return fields


def format_float_rows(table, sep: str) -> list[str]:
    """One text line per row of a 2-D float array, fields joined by ``sep``.

    Every field is the text ``_float_text`` gives it: the ``%.12g`` text that
    ``format_float`` parses back (at most ``FLOAT_DIGITS`` significant
    digits, never "-0").  The whole table is rounded at once in numpy, with
    the scalar ``round`` only on the fields where numpy's rounding is not
    certified to match it (see ``_rounded_fields``), and written by one
    %-format.
    """
    rows = np.asarray(table, dtype=float)
    if rows.shape[0] == 0:
        return []
    line = sep.replace("%", "%%").join([_FIELD] * rows.shape[1])
    text = "\n".join([line] * rows.shape[0]) % tuple(_rounded_fields(rows))
    return text.split("\n")


def _encode_float(x: float):
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return format_float(x)


def encode(value):
    """Recursively convert a report object into JSON-ready primitives."""
    if value is None or isinstance(value, (bool, np.bool_)):
        return None if value is None else bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, Fraction):
        return {
            "num": int(value.numerator),
            "den": int(value.denominator),
            "decimal": float(value),
        }
    if isinstance(value, (float, np.floating)):
        return _encode_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return {"re": _encode_float(c.real), "im": _encode_float(c.imag)}
    if isinstance(value, str):
        return value
    if isinstance(value, SpherePoint):
        if value.is_infinity:
            return "inf"
        return {"re": _encode_float(value.value.real), "im": _encode_float(value.value.imag)}
    if isinstance(value, RationalFunction):
        return format_expression(value)
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return [encode(v) for v in value.tolist()]
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


def document(command: str, label: str, body, tolerance_scale: float = 1.0) -> dict:
    """Wrap an encoded body with the schema header common to all commands."""
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "label": label,
        "tolerance_scale": _encode_float(float(tolerance_scale)),
        "report": encode(body),
    }


def to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"
