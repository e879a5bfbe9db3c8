"""Deterministic JSON rendering of analysis results.

Every report type in the package is a frozen dataclass, so a document is
produced by walking the dataclass tree: fields keep their declaration order,
rationals become {"num", "den", "decimal"}, complex numbers {"re", "im"},
sphere points "inf" or {"re", "im"}, and non-finite floats the strings
"inf"/"-inf"/"nan" (keeping the output strict JSON).  Two runs on the same
input and flags produce byte-identical documents.

Every other float -- in a document, a mesh CSV or an OBJ file -- is written
through ``format_float``: rounded to 12 decimal places, then to 12
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

from .rational import RationalFunction, SpherePoint
from .exprparse import format_expression

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

# Declared in docs/format.md; fixed, with no flag or environment override.
FLOAT_DECIMALS = 12  # nothing below 1e-12 absolute
FLOAT_DIGITS = 12  # significant digits


def _float_text(x: float) -> str:
    # round() is correctly rounded on every platform; + 0.0 turns -0.0 into 0.0
    return f"{round(x, FLOAT_DECIMALS) + 0.0:.{FLOAT_DIGITS}g}"


def format_float(x: float) -> float:
    """The value a document, CSV or OBJ file carries for a numeric-route float.

    Rounds to ``FLOAT_DECIMALS`` decimal places, then to ``FLOAT_DIGITS``
    significant digits; -0.0 becomes 0.0.  nan and +-inf pass through (the
    JSON encoder turns them into strings).
    """
    return float(_float_text(float(x)))


def format_float_rows(table, sep: str) -> list[str]:
    """One text line per row of a 2-D float array, fields joined by ``sep``.

    Every field is the ``%.12g`` text that ``format_float`` parses back
    (at most ``FLOAT_DIGITS`` significant digits, never "-0").
    """
    # row by row: a whole-table tolist() would hold a float object per field
    rows = np.asarray(table, dtype=float)
    return [sep.join([_float_text(v) for v in row.tolist()]) for row in rows]


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
