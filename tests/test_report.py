from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from wlab.rational import RationalFunction, SpherePoint
from wlab.report import SCHEMA_VERSION, document, encode, format_float, format_float_rows, to_json


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
