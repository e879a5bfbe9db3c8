from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlab.cli
from wlab.exprparse import format_expression, parse_expression
from wlab.rational import INF, RationalFunction, SpherePoint
from wlab.report import (
    SCHEMA_VERSION,
    _float_text,
    format_float,
    format_float_rows,
    to_json,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def written(value):
    """The ``report`` value of a document around ``value``, read back."""
    return json.loads(to_json("check", "x", value))["report"]


def test_scalar_encodings():
    assert written(None) is None
    assert written(True) is True
    assert written(np.bool_(False)) is False
    assert written(7) == 7
    assert written(np.int64(7)) == 7
    assert written(1.5) == 1.5
    assert written("text") == "text"


def test_fraction_keeps_exact_and_decimal_forms():
    assert written(Fraction(5, 2)) == {"num": 5, "den": 2, "decimal": 2.5}
    assert written(Fraction(-1, 3))["num"] == -1


def test_complex_and_sphere_points():
    assert written(2 - 3j) == {"re": 2.0, "im": -3.0}
    assert written(SpherePoint.of(1j)) == {"re": 0.0, "im": 1.0}
    assert written(SpherePoint.of("inf")) == "inf"


def test_nonfinite_floats_become_strings():
    assert written(math.inf) == "inf"
    assert written(-math.inf) == "-inf"
    assert written(math.nan) == "nan"
    # the resulting document must stay strict JSON
    text = to_json("check", "x", {"a": math.inf})
    assert '"inf"' in text and json.loads(text)


def test_dataclasses_keep_field_order():
    @dataclass
    class Pair:
        second_field: int
        first_field: int

    out = written(Pair(second_field=1, first_field=2))
    assert list(out) == ["second_field", "first_field"]


def test_rational_functions_render_as_expressions():
    z = RationalFunction.variable()
    assert isinstance(written(z / (z - 1)), str)


def test_containers_and_arrays():
    assert written((1, 2)) == [1, 2]
    assert written({"k": Fraction(1, 2)}) == {"k": {"num": 1, "den": 2, "decimal": 0.5}}
    assert written(np.array([1.0, 2.0])) == [1.0, 2.0]


def test_unencodable_values_raise():
    with pytest.raises(TypeError):
        to_json("check", "x", object())


def test_document_envelope():
    text = to_json("bounds", "label", {"x": 1}, 2.0)
    assert SCHEMA_VERSION == 2
    assert json.loads(text) == {
        "schema": SCHEMA_VERSION,
        "command": "bounds",
        "label": "label",
        "tolerance_scale": 2.0,
        "report": {"x": 1},
    }
    assert text.endswith("\n")


# -- float rule -----------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b",
    [
        # a total curvature near -4 pi, mesh max_loop_residual and
        # max_path_error, as numpy kernels that differ in the last ulps
        # on two platforms write them
        (-12.566370614359167, -12.566370614359174),
        (2.1168129922294368e-09, 2.116813262206963e-09),
        (0.0042004283999627174, 0.004200428399957981),
    ],
)
def test_platform_drift_encodes_to_identical_bytes(a, b):
    assert a != b
    assert to_json("report", "x", {"v": a}) == to_json("report", "x", {"v": b})
    assert format_float_rows([[a]], ",") == format_float_rows([[b]], ",")


def test_float_rule_values():
    assert format_float(-12.566370614359167) == -12.5663706144
    assert format_float(2.1168129922294368e-09) == 2.117e-09
    assert format_float(1e300) == 1e300
    assert format_float(2.5) == 2.5


@pytest.mark.parametrize("x", [-0.0, 6.7e-16, -6.7e-16])
def test_negative_zero_and_sub_quantum_floats_encode_as_zero(x):
    assert written(x) == 0.0 and math.copysign(1.0, written(x)) == 1.0
    assert '"report": 0.0\n' in to_json("check", "x", x)
    assert written(complex(x, x)) == {"re": 0.0, "im": 0.0}
    assert format_float_rows([[x, 1.0]], ",") == ["0,1"]


def test_nonfinite_floats_stay_strings_under_the_float_rule():
    assert [written(v) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]
    assert written(complex(math.inf, math.nan)) == {"re": "inf", "im": "nan"}


def test_fraction_decimal_is_not_rounded():
    third = Fraction(1, 3)
    assert written(third)["decimal"] == float(third) == 0.3333333333333333
    tiny = Fraction(1, 10**15)
    assert written(tiny)["decimal"] == 1e-15


# -- the writer against the two-pass route it replaced ------------------------
# ``oracle_encode`` turns report objects into primitives and ``oracle_to_json``
# writes them with ``json.dumps(indent=2, allow_nan=False)``: the route every
# document took before ``to_json`` walked the objects straight to text.


def _oracle_float(x: float):
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    if x == float("-inf"):
        return "-inf"
    return format_float(x)


def oracle_encode(value):
    if value is None or isinstance(value, (bool, np.bool_)):
        return None if value is None else bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, Fraction):
        return {"num": int(value.numerator), "den": int(value.denominator), "decimal": float(value)}
    if isinstance(value, (float, np.floating)):
        return _oracle_float(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return {"re": _oracle_float(c.real), "im": _oracle_float(c.imag)}
    if isinstance(value, str):
        return value
    if isinstance(value, SpherePoint):
        if value.is_infinity:
            return "inf"
        return {"re": _oracle_float(value.value.real), "im": _oracle_float(value.value.imag)}
    if isinstance(value, RationalFunction):
        return format_expression(value)
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: oracle_encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): oracle_encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [oracle_encode(v) for v in value]
    if isinstance(value, np.ndarray):
        return [oracle_encode(v) for v in value.tolist()]
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


def oracle_to_json(command: str, label: str, body, tolerance_scale: float = 1.0) -> str:
    doc = {
        "schema": SCHEMA_VERSION,
        "command": command,
        "label": label,
        "tolerance_scale": _oracle_float(float(tolerance_scale)),
        "report": oracle_encode(body),
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_PAIRS = [("unicity_six_a", "unicity_six_b"), ("unicity_five_a", "unicity_five_b")]
SNAPSHOT_COMMANDS = [
    *(["report", str(FIXTURES / f"{name}.json")] for name in (*_PAIRS[0], *_PAIRS[1], "example21", "example22", "example23")),
    *(["unicity", str(FIXTURES / f"{a}.json"), str(FIXTURES / f"{b}.json")] for a, b in _PAIRS),
    *(
        ["bounds", "--abstract", *args.split()]
        for args in (
            "0 3 0 0",
            "0 3 1 0 --nu1 5/2 --mu 1,1,1",
            "0 4 1 1 --nu1 4 --nu2 4",
            "0 3 1 0 --mu 2,1,1",
            "1 1 2 0 --nu1 2",
        )
    ),
    [
        "mesh", str(FIXTURES / "example23.json"), "--region", "annulus:0,0,0.5,2",
        "--res", "5,9", "--base", "1,0", "--mesh-out", "MESH_OUT",
    ],
]


@pytest.mark.parametrize("argv", SNAPSHOT_COMMANDS, ids=lambda argv: " ".join(Path(a).stem for a in argv[:4]))
def test_writer_matches_the_oracle_on_every_snapshot_command(argv, monkeypatch, capsys, tmp_path):
    calls = []

    def spy(*args):
        calls.append(args)
        return to_json(*args)

    monkeypatch.setattr(wlab.cli, "to_json", spy)
    wlab.cli.main([str(tmp_path / "mesh.csv") if a == "MESH_OUT" else a for a in argv])
    (call,) = calls
    text = to_json(*call)
    assert text == oracle_to_json(*call)
    assert capsys.readouterr().out == text


@dataclass(frozen=True)
class _Leaf:
    value: object
    note: str


@dataclass
class _Node:
    children: list
    table: dict
    point: SpherePoint
    leaf: _Leaf


@dataclass
class _Empty:
    pass


_TEXTS = ("", "plain", "naïve – ü", "漢字", "\x00\x1f\x7f", "tab\tnew\nline", 'quote"back\\slash', "\u2028", "😀 \ud800")
_FLOATS = (0.0, -0.0, 1.5, math.inf, -math.inf, math.nan, 6.7e-16, -2.5e-13, 1e300, -np.finfo(float).max, 5e-324, 0.1)
_EXPRESSIONS = ("z", "0", "(z-1)/(z+2i)", "2.5*z^3-i", "1/3")


def _random_float(rng: random.Random) -> float:
    kind = rng.random()
    if kind < 0.4:
        return rng.choice(_FLOATS)
    if kind < 0.7:
        return rng.uniform(-10.0, 10.0)
    return math.copysign(10.0 ** rng.uniform(-320.0, 308.0), rng.random() - 0.5)


def _random_scalar(rng: random.Random):
    kind = rng.randrange(14)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return np.bool_(rng.random() < 0.5)
    if kind == 3:
        return rng.choice((-1, 1)) * rng.randrange(10 ** rng.randrange(1, 60))
    if kind == 4:
        return np.int64(rng.randrange(-(2**63), 2**63))
    if kind == 5:
        return _random_float(rng)
    if kind == 6:
        return np.float64(_random_float(rng))
    if kind == 7:
        return Fraction(rng.randrange(-(10**40), 10**40), rng.randrange(1, 10 ** rng.randrange(1, 40)))
    if kind == 8:
        return complex(_random_float(rng), _random_float(rng))
    if kind == 9:
        return INF if rng.random() < 0.3 else SpherePoint.of(complex(_random_float(rng), _random_float(rng)))
    if kind == 10:
        return rng.choice(_TEXTS)
    if kind == 11:
        return parse_expression(rng.choice(_EXPRESSIONS))
    if kind == 12:
        return np.float32(rng.choice((rng.uniform(-10.0, 10.0), 0.1, -0.0, math.inf, math.nan)))
    return np.uint8(rng.randrange(256))


def _random_table(rng: random.Random, depth: int) -> dict:
    table = {}
    for _ in range(rng.randrange(4)):
        # a key is written as str(key), whatever its type
        key = rng.choice(_TEXTS) if rng.random() < 0.6 else rng.choice((rng.randrange(-5, 5), Fraction(1, 3), INF, None))
        if str(key) not in map(str, table):
            table[key] = _random_value(rng, depth - 1)
    return table


def _random_value(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return _random_scalar(rng)
    kind = rng.randrange(7)
    items = [_random_value(rng, depth - 1) for _ in range(rng.randrange(4))]
    if kind == 0:
        return items
    if kind == 1:
        return tuple(items)
    if kind == 2:
        return _random_table(rng, depth)
    if kind == 3:
        return _Leaf(_random_value(rng, depth - 1), rng.choice(_TEXTS))
    if kind == 4:
        return _Node(items, _random_table(rng, depth), _random_scalar(rng), _Leaf(_Empty(), ""))
    if kind == 5:
        shape = rng.choice([(0,), (3,), (2, 2), (0, 3)])
        values = np.array([_random_float(rng) for _ in range(int(np.prod(shape)))]).reshape(shape)
        return values.astype(complex) if rng.random() < 0.3 else values
    return _Empty()


# every kind at least once, whatever the random draw reaches
_EVERY_KIND = {
    "empty": [{}, [], (), _Empty(), np.zeros((0, 2))],
    "numpy": [np.bool_(True), np.int64(-(2**63)), np.float64(-0.0), np.float32(0.1), np.uint8(255)],
    "floats": [-0.0, math.inf, -math.inf, math.nan, 5e-324, -np.finfo(float).max, 6.7e-16],
    "ints": [2**200, -(10**40), 0],
    "fractions": [Fraction(1, 3), Fraction(-(10**40), 7), Fraction(0)],
    "points": [INF, SpherePoint.of(-0.0 - 2.5j), complex(math.inf, math.nan)],
    _TEXTS[4]: {_TEXTS[8]: _Leaf(parse_expression(_EXPRESSIONS[2]), _TEXTS[2])},
}


def test_writer_matches_the_oracle_on_random_bodies():
    rng = random.Random(20261019)
    bodies = [(_TEXTS[4], 1.0, _EVERY_KIND)]
    for _ in range(300):
        label = rng.choice(_TEXTS)
        scale = rng.choice((1.0, 1e-3, 10.0, _random_float(rng)))
        bodies.append((label, scale, _random_value(rng, rng.randint(1, 5))))
    for label, scale, body in bodies:
        assert to_json("report", label, body, scale) == oracle_to_json("report", label, body, scale)


class _FractionWithInfiniteDecimal(Fraction):
    def __float__(self):
        return math.inf


@pytest.mark.parametrize(
    "body, error",
    [
        ({"x": [1, object()]}, TypeError),
        # a float written as is, not under the rule, must be finite
        ({"x": _FractionWithInfiniteDecimal(1, 3)}, ValueError),
    ],
    ids=["unencodable", "non-finite-raw-float"],
)
def test_writer_raises_as_the_oracle_does(body, error):
    with pytest.raises(error):
        oracle_to_json("report", "x", body)
    with pytest.raises(error):
        to_json("report", "x", body)


# ---------------------------------------------------------------------------
# format_float_rows against the scalar rule, field by field


def scalar_rows(table, sep: str) -> list[str]:
    """The reference: ``_float_text`` on every field, one at a time."""
    return [sep.join(_float_text(v) for v in row) for row in np.asarray(table, dtype=float).tolist()]


def assert_rows_match(values, cols: int = 4, sep: str = ","):
    table = np.asarray(values, dtype=float).reshape(-1, cols)
    assert format_float_rows(table, sep) == scalar_rows(table, sep)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_rows_match_the_scalar_rule_on_any_finite_floats(values):
    assert_rows_match(values, cols=1)
    assert_rows_match(values[: len(values) // 2 * 2], cols=2, sep=" ")


RNG = np.random.default_rng(20261018)
ODD = RNG.integers(-(2**40), 2**40, 20_000) * 2 + 1
DECIMALS = RNG.integers(-(2**45), 2**45, 20_000)


@pytest.mark.parametrize(
    "family",
    [
        # exact binary ties of the 12th decimal: y = k * 122070312.5
        ODD / 8192.0,
        (ODD % 2**22) / 8192.0,
        # the nearest doubles to decimal ties, and their neighbours
        (DECIMALS + 0.5) / 1e12,
        np.nextafter((DECIMALS + 0.5) / 1e12, np.inf),
        np.nextafter((DECIMALS + 0.5) / 1e12, -np.inf),
        (DECIMALS % 10**6 + 0.5) / 1e12,
        # a 5 in the 13th decimal place
        (DECIMALS * 10 + 5) / 1e13,
        (DECIMALS % 10**9 * 10 + 5) / 1e13,
    ],
    ids=[
        "binary-ties",
        "small-binary-ties",
        "decimal-ties",
        "decimal-ties-up",
        "decimal-ties-down",
        "small-decimal-ties",
        "digit-13-is-5",
        "small-digit-13-is-5",
    ],
)
def test_rows_match_the_scalar_rule_on_ties(family):
    assert_rows_match(family)


def test_rows_match_the_scalar_rule_on_large_values():
    # 2**52 / 1e12: from here on x * 1e12 has no fractional bits
    edge = 2.0**52 / 1e12
    steps = np.arange(-2000, 2000) * np.spacing(edge)
    values = np.concatenate(
        [
            edge + steps,
            -(edge + steps),
            RNG.uniform(4000.0, 5000.0, 4000) * RNG.choice([-1.0, 1.0], 4000),
            10.0 ** RNG.uniform(3.0, 300.0, 4000),
            [1.8e296, -1.8e296, 1e300, np.finfo(float).max, -np.finfo(float).max],
        ]
    )
    assert_rows_match(values, cols=1)
    # ties of the 12th significant digit, where rint(x * 1e12) / 1e12 being
    # off by one ulp of x would show in the text
    ties = (RNG.integers(10**11, 10**12, 8000) + 0.5) * 10.0 ** (RNG.integers(4, 300, 8000) - 11.0)
    for family in (ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)):
        assert_rows_match(family, cols=1)


def test_rows_match_the_scalar_rule_on_special_values():
    tiny = np.finfo(float).tiny
    values = [5e-324, -5e-324, tiny, -tiny, tiny / 3, 0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0]
    assert_rows_match(values)
    assert format_float_rows([values[7:11]], ",") == ["inf,-inf,nan,nan"]


def test_rows_match_the_scalar_rule_on_raw_bit_patterns():
    bits = RNG.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    assert_rows_match(bits, cols=8)


def test_rows_of_empty_and_one_column_tables():
    assert format_float_rows(np.zeros((0, 3)), ",") == []
    assert format_float_rows(np.zeros((0, 1)), " ") == []
    column = [[0.1], [-2.5e-13], [7.0]]
    assert format_float_rows(column, ",") == scalar_rows(column, ",") == ["0.1", "0", "7"]
