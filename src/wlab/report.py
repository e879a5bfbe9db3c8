"""Deterministic JSON documents of analysis results.

Every report type in the package is a frozen dataclass, and ``to_json``
walks the tree once, straight to the document text: fields keep their
declaration order, dict keys are written as ``str(key)``, rationals become
{"num", "den", "decimal"}, complex numbers {"re", "im"}, sphere points "inf"
or {"re", "im"}, rational functions their expression text, and non-finite
floats the strings "inf"/"-inf"/"nan" (keeping the output strict JSON).
The text has the layout docs/format.md freezes, that of
``json.dumps(doc, indent=2, allow_nan=False)`` plus a newline: two-space
indent, ``": "`` after each key, a comma ending each item's line but the
last, ``{}`` and ``[]`` for empty containers, and every character outside
printable ASCII escaped, as ``\\uXXXX`` where JSON has no short escape
(strings go through ``json``'s own C escaping routine).  Two runs on the
same input and flags produce byte-identical documents.

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


# One walk from a report object to text: ``_write(value, out, nl)`` appends the
# JSON text of ``value`` to ``out``, where ``nl`` is the newline and indent of
# the line the value starts on.  The writer for a type is chosen once, by the
# isinstance chain in ``_writer_for``, and kept in ``_WRITERS``.

_escape = json.encoder.encode_basestring_ascii  # the C routine of ensure_ascii
_INDENT = "  "
_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == _INF:
        return '"inf"'
    if x == -_INF:
        return '"-inf"'
    return float.__repr__(format_float(x))


def _write(value, out: list, nl: str) -> None:
    (_WRITERS.get(type(value)) or _writer_for(value))(value, out, nl)


def _write_str(value, out, nl):
    out.append(_escape(value))


def _write_int(value, out, nl):
    out.append(int.__repr__(int(value)))


def _write_float(value, out, nl):
    out.append(_float(float(value)))


def _write_bool(value, out, nl):
    out.append("true" if value else "false")


def _write_null(value, out, nl):
    out.append("null")


def _write_complex(value, out, nl):
    c, inner = complex(value), nl + _INDENT
    out.append(f'{{{inner}"re": {_float(c.real)},{inner}"im": {_float(c.imag)}{nl}}}')


def _write_point(value, out, nl):
    if value.is_infinity:
        out.append('"inf"')
    else:
        _write_complex(value.value, out, nl)


def _write_fraction(value, out, nl):
    # the decimal is written as is, not under the rule, so as JSON it must be finite
    decimal, inner = float(value), nl + _INDENT
    if decimal != decimal or decimal in (_INF, -_INF):
        raise ValueError(f"Out of range float values are not JSON compliant: {decimal!r}")
    out.append(
        f'{{{inner}"num": {int.__repr__(int(value.numerator))},'
        f'{inner}"den": {int.__repr__(int(value.denominator))},'
        f'{inner}"decimal": {float.__repr__(decimal)}{nl}}}'
    )


def _write_expression(value, out, nl):
    out.append(_escape(format_expression(value)))


def _write_items(items, out, nl):
    """An object from (key text with its colon, value) pairs."""
    inner = nl + _INDENT
    head, sep = "{" + inner, "," + inner
    for key, v in items:
        out.append(head + key)
        head = sep
        _write(v, out, inner)
    out.append("{}" if head != sep else nl + "}")


def _write_dict(value, out, nl):
    _write_items(((_escape(str(k)) + ": ", v) for k, v in value.items()), out, nl)


def _write_list(value, out, nl):
    inner = nl + _INDENT
    head, sep = "[" + inner, "," + inner
    for v in value:
        out.append(head)
        head = sep
        _write(v, out, inner)
    out.append("[]" if head != sep else nl + "]")


def _write_array(value, out, nl):
    _write_list(value.tolist(), out, nl)


def _dataclass_writer(cls):
    keys = tuple((f.name, _escape(f.name) + ": ") for f in fields(cls))

    def write(value, out, nl):
        _write_items(((key, getattr(value, name)) for name, key in keys), out, nl)

    return write


def _writer_for(value):
    """The writer for ``type(value)``, chosen in the order the types nest."""
    cls = type(value)
    if value is None:
        write = _write_null
    elif isinstance(value, (bool, np.bool_)):
        write = _write_bool
    elif isinstance(value, (int, np.integer)):
        write = _write_int
    elif isinstance(value, Fraction):
        write = _write_fraction
    elif isinstance(value, (float, np.floating)):
        write = _write_float
    elif isinstance(value, (complex, np.complexfloating)):
        write = _write_complex
    elif isinstance(value, str):
        write = _write_str
    elif isinstance(value, SpherePoint):
        write = _write_point
    elif isinstance(value, RationalFunction):
        write = _write_expression
    elif is_dataclass(cls):
        write = _dataclass_writer(cls)
    elif isinstance(value, dict):
        write = _write_dict
    elif isinstance(value, (list, tuple)):
        write = _write_list
    elif isinstance(value, np.ndarray):
        write = _write_array
    else:
        raise TypeError(f"cannot encode {cls.__name__} into a report")
    _WRITERS[cls] = write
    return write


_WRITERS: dict = {}


def to_json(command: str, label: str, body, tolerance_scale: float = 1.0) -> str:
    """The document text: ``body`` in the schema envelope common to all commands.

    The layout is the one docs/format.md freezes, and the same text as
    ``json.dumps(doc, indent=2, allow_nan=False) + "\\n"`` on the document
    as primitives.  A value of no report type raises ``TypeError``.
    """
    out = [
        f'{{\n  "schema": {SCHEMA_VERSION},\n  "command": {_escape(command)},'
        f'\n  "label": {_escape(label)},'
        f'\n  "tolerance_scale": {_float(float(tolerance_scale))},\n  "report": '
    ]
    _write(body, out, "\n  ")
    out.append("\n}\n")
    return "".join(out)
