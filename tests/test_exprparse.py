from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlab.exprparse import (
    ExpressionError,
    format_complex,
    format_expression,
    format_sphere_point,
    parse_expression,
    parse_sphere_point,
)
from wlab.rational import INF, RationalFunction, SpherePoint

Z = RationalFunction.variable()


def check_same(f: RationalFunction, g: RationalFunction) -> None:
    assert f.equals(g, rel_eps=1e-9)


def test_basic_forms():
    check_same(parse_expression("z"), Z)
    check_same(parse_expression("1/(z*(z-1))"), 1 / (Z * (Z - 1)))
    check_same(parse_expression("1/(z*(z-2)*(2*z-1))"), 1 / (Z * (Z - 2) * (2 * Z - 1)))
    check_same(parse_expression("(z^2+1)/(z-3)"), (Z**2 + 1) / (Z - 3))


def test_numbers_and_i():
    f = parse_expression("0.5*i*z + 2e-1")
    check_same(f, RationalFunction.constant(0.2) + RationalFunction.constant(0.5j) * Z)
    check_same(parse_expression("i"), RationalFunction.constant(1j))
    check_same(parse_expression("3i"), RationalFunction.constant(3j))
    check_same(parse_expression("-i*z"), RationalFunction.constant(-1j) * Z)


def test_unary_minus_binds_looser_than_power():
    # -z^2 evaluates to -(z^2), so at z=2 the value is -4
    assert parse_expression("-z^2")(2.0) == pytest.approx(-4.0)
    assert parse_expression("(-z)^2")(2.0) == pytest.approx(4.0)


def test_power_negative_exponent():
    check_same(parse_expression("z^-3"), 1 / Z**3)


def test_cancellation_in_parsed_quotient():
    f = parse_expression("(z^2-1)/(z^2-1)")
    assert f.is_constant
    assert f.constant_value == pytest.approx(1.0)


def test_division_by_zero_polynomial():
    with pytest.raises(ExpressionError) as err:
        parse_expression("1/(z-z)")
    assert err.value.position is not None


def test_syntax_error_positions():
    with pytest.raises(ExpressionError) as err:
        parse_expression("z + * 2")
    assert err.value.position == 4
    with pytest.raises(ExpressionError):
        parse_expression("(z+1")
    with pytest.raises(ExpressionError):
        parse_expression("")
    with pytest.raises(ExpressionError):
        parse_expression("z + q")


@pytest.mark.parametrize("text", ["1e400", "1e400i", "(z^2+1e400)/(z-1)"])
def test_literal_overflowing_a_double_is_rejected(text):
    # read as inf, the literal would vanish from the polynomial and the
    # expression would be analysed without it
    with pytest.raises(ExpressionError, match="overflows") as err:
        parse_expression(text)
    assert err.value.position == text.index("1e400")


def test_exponent_must_be_integer_literal():
    with pytest.raises(ExpressionError):
        parse_expression("z^1.5")
    with pytest.raises(ExpressionError):
        parse_expression("z^z")
    with pytest.raises(ExpressionError):
        parse_expression("z^100")  # above the size cap


def test_zero_to_negative_power():
    with pytest.raises(ExpressionError):
        parse_expression("0^-1")


def test_sphere_point_parsing():
    assert parse_sphere_point("inf") == INF
    assert parse_sphere_point("1/2") == SpherePoint(0.5 + 0j)
    assert parse_sphere_point("1+2i") == SpherePoint(1 + 2j)
    assert parse_sphere_point("-3") == SpherePoint(-3 + 0j)
    with pytest.raises(ExpressionError):
        parse_sphere_point("z")


def test_format_complex_minimal():
    assert format_complex(0j) == "0"
    assert format_complex(2 + 0j) == "2"
    assert format_complex(1j) == "i"
    assert format_complex(-1j) == "-i"
    assert format_complex(1 + 1j) == "1+i"
    assert format_complex(0.5 - 2j) == "0.5-2i"


def test_format_expression_readable():
    assert format_expression(RationalFunction.constant(0)) == "0"
    assert format_expression(Z) == "z"
    text = format_expression(1 / (Z * (Z - 1)))
    f = parse_expression(text)
    check_same(f, 1 / (Z * (Z - 1)))


def test_format_sphere_point_roundtrip():
    for p in (INF, SpherePoint(0j), SpherePoint(1.5 - 2j)):
        assert parse_sphere_point(format_sphere_point(p)) == p


@given(
    st.lists(
        st.complex_numbers(min_magnitude=0, max_magnitude=4, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=4,
    ),
    st.lists(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=4, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_rationals(num_coeffs, den_coeffs):
    from wlab.poly import Polynomial

    den = Polynomial(den_coeffs)
    if den.is_zero:
        return
    f = RationalFunction(Polynomial(num_coeffs), den)
    g = parse_expression(format_expression(f))
    pts = np.exp(2j * np.pi * np.arange(20) / 20) * 1.37
    scale = max(1.0, f.num.max_abs_coeff, f.den.max_abs_coeff)
    for z0 in pts:
        try:
            fv = f(complex(z0))
            gv = g(complex(z0))
        except ZeroDivisionError:
            continue
        assert abs(fv - gv) <= 1e-9 * scale * max(1.0, abs(fv))


@given(st.text(max_size=40))
@settings(max_examples=120, deadline=None)
def test_parser_never_crashes(text):
    try:
        parse_expression(text)
    except ExpressionError:
        pass
