from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlab.rational import RationalFunction, SpherePoint
from wlab.report import (
    SCHEMA_VERSION,
    _float_text,
    document,
    encode,
    format_float,
    format_float_rows,
    to_json,
)


def test_scalar_encodings():
    assert encode(None) is None
    assert encode(True) is True
    assert encode(np.bool_(False)) is False
    assert encode(7) == 7
    assert encode(np.int64(7)) == 7
    assert encode(1.5) == 1.5
    assert encode("text") == "text"


def test_fraction_keeps_exact_and_decimal_forms():
    assert encode(Fraction(5, 2)) == {"num": 5, "den": 2, "decimal": 2.5}
    assert encode(Fraction(-1, 3))["num"] == -1


def test_complex_and_sphere_points():
    assert encode(2 - 3j) == {"re": 2.0, "im": -3.0}
    assert encode(SpherePoint.of(1j)) == {"re": 0.0, "im": 1.0}
    assert encode(SpherePoint.of("inf")) == "inf"


def test_nonfinite_floats_become_strings():
    assert encode(math.inf) == "inf"
    assert encode(-math.inf) == "-inf"
    assert encode(math.nan) == "nan"
    # the resulting document must stay strict JSON
    text = to_json(document("check", "x", {"a": math.inf}))
    assert '"inf"' in text and json.loads(text)


def test_dataclasses_keep_field_order():
    @dataclass
    class Pair:
        second_field: int
        first_field: int

    out = encode(Pair(second_field=1, first_field=2))
    assert list(out) == ["second_field", "first_field"]


def test_rational_functions_render_as_expressions():
    z = RationalFunction.variable()
    assert isinstance(encode(z / (z - 1)), str)


def test_containers_and_arrays():
    assert encode((1, 2)) == [1, 2]
    assert encode({"k": Fraction(1, 2)}) == {"k": {"num": 1, "den": 2, "decimal": 0.5}}
    assert encode(np.array([1.0, 2.0])) == [1.0, 2.0]


def test_unencodable_values_raise():
    with pytest.raises(TypeError):
        encode(object())


def test_document_envelope():
    doc = document("bounds", "label", {"x": 1}, tolerance_scale=2.0)
    assert SCHEMA_VERSION == 2
    assert doc == {
        "schema": SCHEMA_VERSION,
        "command": "bounds",
        "label": "label",
        "tolerance_scale": 2.0,
        "report": {"x": 1},
    }
    assert to_json(doc).endswith("\n")


# -- float rule -----------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b",
    [
        # curvature quadrature_value, mesh max_loop_residual and max_path_error
        # as written on two platforms whose numpy kernels differ in the last ulps
        (-12.566370614359167, -12.566370614359174),
        (2.1168129922294368e-09, 2.116813262206963e-09),
        (0.0042004283999627174, 0.004200428399957981),
    ],
)
def test_platform_drift_encodes_to_identical_bytes(a, b):
    assert a != b
    assert to_json(document("report", "x", {"v": a})) == to_json(document("report", "x", {"v": b}))
    assert format_float_rows([[a]], ",") == format_float_rows([[b]], ",")


def test_float_rule_values():
    assert format_float(-12.566370614359167) == -12.5663706144
    assert format_float(2.1168129922294368e-09) == 2.117e-09
    assert format_float(1e300) == 1e300
    assert format_float(2.5) == 2.5


@pytest.mark.parametrize("x", [-0.0, 6.7e-16, -6.7e-16])
def test_negative_zero_and_sub_quantum_floats_encode_as_zero(x):
    assert encode(x) == 0.0 and math.copysign(1.0, encode(x)) == 1.0
    assert json.dumps(encode(x)) == "0.0"
    assert encode(complex(x, x)) == {"re": 0.0, "im": 0.0}
    assert format_float_rows([[x, 1.0]], ",") == ["0,1"]


def test_nonfinite_floats_stay_strings_under_the_float_rule():
    assert [encode(v) for v in (math.inf, -math.inf, math.nan)] == ["inf", "-inf", "nan"]
    assert encode(complex(math.inf, math.nan)) == {"re": "inf", "im": "nan"}


def test_fraction_decimal_is_not_rounded():
    third = Fraction(1, 3)
    assert encode(third)["decimal"] == float(third) == 0.3333333333333333
    tiny = Fraction(1, 10**15)
    assert encode(tiny)["decimal"] == 1e-15


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
