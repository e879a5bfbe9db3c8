from __future__ import annotations

import json
import math
import random
import sys
import unicodedata
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlab import exprparse, poly
from wlab.exprparse import (
    ExpressionError,
    format_complex,
    format_expression,
    parse_expression,
    parse_sphere_point,
)
from wlab.poly import Polynomial
from wlab.rational import INF, RationalFunction, SpherePoint

import oracle
import parse_corpus
from conftest import FIXTURES, _integer_poly, _ladder_maps

Z = RationalFunction.variable()


def product(p: Polynomial, q: Polynomial) -> tuple[complex, ...]:
    """The coefficients of p q, convolved in floats."""
    return Polynomial(np.convolve(p.coeffs, q.coeffs)).coeffs if p.coeffs and q.coeffs else ()


def check_same(f: RationalFunction, g: RationalFunction, rel_eps: float = 1e-9) -> None:
    """Equal as functions: the float views cross-multiplied, coefficient by coefficient."""
    lhs, rhs = product(f.num, g.den), product(g.num, f.den)
    scale = max(map(abs, lhs + rhs), default=0.0)
    n = max(len(lhs), len(rhs))
    pairs = zip(lhs + (0j,) * (n - len(lhs)), rhs + (0j,) * (n - len(rhs)))
    assert all(abs(x - y) <= rel_eps * scale for x, y in pairs)


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


@pytest.mark.parametrize("text, position", [("٣*z", 0), ("１+z", 0), ("z²", 1)])
def test_only_ascii_digits_make_a_number(text, position):
    # str.isdigit and re's \d accept these, which read ٣*z as 3z
    with pytest.raises(ExpressionError, match="unexpected character") as err:
        parse_expression(text)
    assert err.value.position == position


def test_blanks_are_exactly_what_str_isspace_accepts():
    # over every code point a blank could be mistaken for: the separators, the
    # controls, the format characters, and the bidirectional classes of
    # whitespace and separators, which hold every blank str.isspace accepts
    two_z, wrong = parse_expression("2*z"), []
    for char in map(chr, range(sys.maxunicode + 1)):
        if unicodedata.category(char) in ("Zs", "Zl", "Zp", "Cc", "Cf") or unicodedata.bidirectional(char) in (
            "WS", "B", "S"
        ):
            try:
                got = parse_expression(f"2{char}*z") == two_z
            except ExpressionError as err:
                got = str(err)
            if got != (char.isspace() or f"unexpected character {char!r} (at position 1)"):
                wrong.append(f"U+{ord(char):04X}")
    assert not wrong, wrong


@pytest.mark.parametrize("char", ["\u200b", "\ufeff", "\u180e", "\u2060"])
def test_a_zero_width_or_joining_character_is_no_blank(char):
    # formerly spaces in Unicode, or invisible, but not str.isspace
    with pytest.raises(ExpressionError) as err:
        parse_expression(f"z +{char} 1")
    assert str(err.value) == f"unexpected character {char!r} (at position 3)"


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("z +  \t\u3000 * 2", "expected a number, 'z' or '('", 8),
        ("   ", "expected a number, 'z' or '('", 3),
        ("(z +\n\n", "expected a number, 'z' or '('", 6),
        ("(z  \t", "expected ')'", 5),
        ("2i z", "unexpected trailing input", 3),
        ("2i^0.5", "expected an integer exponent", 3),
        ("2 i", "unexpected trailing input", 2),
        ("2ii", "unexpected trailing input", 2),
        ("1e5 e", "unexpected character 'e'", 4),
        ("z^ \u00a0-\t2i", "expected an integer exponent", 6),
    ],
)
def test_error_positions_count_every_character_before_them(text, message, position):
    with pytest.raises(ExpressionError) as err:
        parse_expression(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_nesting_is_refused_past_its_cap_at_the_deepest_token():
    # each open '(' costs three stack frames, each unary minus one: the cap
    # keeps a parse far inside Python's recursion limit
    z, cap = parse_expression("z"), exprparse.MAX_NESTING
    assert parse_expression("(" * cap + "z" + ")" * cap) == z
    assert parse_expression("-" * cap + "z") == z
    assert parse_expression("(-" * (cap // 2) + "z" + ")" * (cap // 2)) == (-z if cap // 2 % 2 else z)
    for text, position in [("(" * (cap + 1) + "z" + ")" * (cap + 1), cap), ("-" * (cap + 1) + "z", cap),
                           ("(-" * (cap // 2) + "(z)" + ")" * (cap // 2), cap)]:
        with pytest.raises(ExpressionError) as err:
            parse_expression(text)
        assert str(err.value) == f"nesting deeper than {cap} levels (at position {position})"


@pytest.mark.parametrize("text", ["1e400", "1e400i", "(z^2+1e400)/(z-1)"])
def test_literal_overflowing_a_double_is_rejected(text):
    # read as inf, the literal would vanish from the polynomial and the
    # expression would be analysed without it
    with pytest.raises(ExpressionError, match="overflows") as err:
        parse_expression(text)
    assert err.value.position == text.index("1e400")


@pytest.mark.parametrize("text", ["1e-400", "1e-400i", "1e-400*z^3 + z^2", "z - 0.0001e-320"])
def test_nonzero_literal_below_the_range_of_a_double_is_rejected(text):
    # read as 0, the literal would vanish: 1e-400*z^3 + z^2 became degree 2
    literal = text.split()[-1] if text.startswith("z") else text.split("*")[0].rstrip("i")
    with pytest.raises(ExpressionError, match="underflows") as err:
        parse_expression(text)
    assert err.value.position == text.index(literal)
    assert repr(literal) in str(err.value)


def test_literals_are_exact():
    assert parse_expression("2.5e-3") == RationalFunction.constant(Fraction(1, 400))
    assert parse_expression("0.1") != RationalFunction.constant(0.1)
    assert parse_expression("0e-999 + 5e-324 * z").degree == 1
    # a near-common factor is no common factor, and no coefficient is trimmed
    assert parse_expression("(z-1)/(z-1.000000001)").degree == 1
    assert parse_expression("1e-13*z^3 + z^2").degree == 3


@pytest.mark.parametrize("text", ["z + 1e200^2", "z/(1e200)^-2", "(1e200*z)^2"])
def test_coefficient_overflowing_a_double_is_rejected(text):
    # every literal is finite, but a product is not: trimmed against an
    # infinite largest coefficient, every other one would vanish
    with pytest.raises(OverflowError, match="beyond the range of a double"):
        parse_expression(text)


def test_exponent_must_be_integer_literal():
    with pytest.raises(ExpressionError):
        parse_expression("z^1.5")
    with pytest.raises(ExpressionError):
        parse_expression("z^z")
    with pytest.raises(ExpressionError):
        parse_expression("(z+1)^100")  # above the exponent cap on a base that is not a monomial


@pytest.mark.parametrize(
    "text, operator, degree",
    [
        ("((z^64)^64)^64", "^", 262144),
        ("(z^-64)^64*(1/z)", "*", 4097),
        ("(z^64)^64/(z^-1)", "/", 4097),
        ("(z^64)^64+1/z", "+", 4097),
        ("1/z-(z^64)^64", "-", 4097),
    ],
)
def test_an_operator_whose_result_can_pass_the_degree_cap_is_refused(time_limit, text, operator, degree):
    # each operand is within the cap; the check runs before the result is built
    with time_limit(2.0), pytest.raises(ExpressionError, match=f"degree {degree} > 4096") as err:
        parse_expression(text)
    assert err.value.position == text.rindex(operator)


def test_the_exponent_cap_does_not_depend_on_spelling_on_a_monomial():
    # a power of c z^k is one power of c, bounded by the degree cap, so the spellings agree
    assert parse_expression("z^96") == parse_expression("z^64*z^32") == Z**96
    assert parse_expression("z^65+1") == parse_expression("z^64*z+1")
    assert parse_expression("(2i*z^2)^-65") == parse_expression("(2i*z^2)^-64/(2i*z^2)")
    assert parse_expression("(z/3)^100") == parse_expression("(z/3)^50*(z/3)^50")


@pytest.mark.parametrize("text", ["2^65", "(1+i)^-65", "(z/z)^100", "z+0.5^65"])
def test_a_constant_power_above_the_exponent_cap_is_refused(text):
    with pytest.raises(ExpressionError, match=r"exponent overflow: \|-?\d+\| > 64") as err:
        parse_expression(text)
    assert err.value.position == text.index("^")


@pytest.mark.parametrize(
    "text",
    ["(z+1)^65", "(1e300*z+1)^4096", "(z^2+1e300*z+1)^2048", "(1e300*z)^4096", "(1e-300/z)^66", "(z+5e-324)^4096"],
)
def test_a_large_power_of_a_polynomial_or_coefficient_is_refused_before_it_runs(time_limit, text):
    # squaring several terms up to degree 4096, or a 4096-fold 1000-bit part, would take seconds
    with time_limit(1.0), pytest.raises(ExpressionError, match=r"exponent overflow: \|\d+\| > 64") as err:
        parse_expression(text)
    assert err.value.position == text.rindex("^")


@pytest.mark.parametrize("text", ["((z+1)^64)^40", "((z+1)^64)^64", "((z^2+z+1)^64)^32", "((z-i)^64)^-40"])
def test_a_power_that_certainly_overflows_is_refused_before_it_is_multiplied_out(time_limit, text):
    # |N(x)|^e above (e deg N + 1) sqrt(2) 2^1024 at x = 1, -1, i or -i
    with time_limit(1.0), pytest.raises(OverflowError, match="beyond the range of a double"):
        parse_expression(text)


def test_a_power_short_of_that_proof_is_multiplied_out():
    # |N(1)|^15 = 2^960: the largest coefficient, C(960, 480) < 2^956, is in range
    f = parse_expression("((z+1)^64)^15")
    assert f.degree == 960 and f.pair[0][480][0] == math.comb(960, 480)
    # the proof is all but tight on equal coefficients c (1 + i), c the
    # largest double: |N(1)| = 2 sqrt(2) c, under the bound 2 sqrt(2) 2^1024
    big = "(1.7976931348623157e308+1.7976931348623157e308i)*(z+1)"
    assert parse_expression(f"({big})^1") == parse_expression(big)


def test_results_up_to_the_degree_cap_parse():
    assert parse_expression("(z^64)^64").degree == exprparse.MAX_DEGREE == 4096
    assert parse_expression("(z^64)^64/(z+1)").degree == 4096
    # a sum of polynomials keeps the larger degree
    assert parse_expression("(z^64)^64 + (z^32)^64 - 1").degree == 4096


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


# -- the parser against exact arithmetic in sympy's QQ_I(z) (tests/oracle.py) ----------


def _outcome_of(parse, text: str, exact) -> tuple:
    """The exact pair and the views' reprs (so signed zeros count), or the error."""
    try:
        f = parse(text)
    except ExpressionError as err:
        return ("ExpressionError", str(err), err.position)
    except ArithmeticError as err:
        return (type(err).__name__, str(err))
    return exact(f)


def _parsed_pair(f: RationalFunction) -> tuple:
    a, b = f._pair
    num, den = ([(Fraction(re, b[-1][0]), Fraction(im, b[-1][0])) for re, im in p] for p in (a, b))
    return (num, den, repr(f.num.coeffs), repr(f.den.coeffs))


# parts that are -0.0 after a negation, trimming edges relative to 1e15 and to
# 1, literals whose products overflow, and the quotient-only constructs
_LEAVES = ("0", "1", "2", "i", "3i", "0.5", "2.5e-3", "1e15", "1e-13", "7", "z", "z", "1e200")
_EDGE_CASES = (
    "-(0-i) + -(0-i)",
    "-(i*z) - i*z",
    "-(0-i)*z + -(0-i)*z",
    "(1e15*z^2 + z + 1) - 1e15*z^2",
    "1e-13*z^3 + z^2",
    "z^0 + 0^0 - (z-z)^0",
    "(1e200*z + 1e200)*(1e200*z - 1e200) + z",
    "(1e200+1e200i)^2*z + 1",
    "-0*z - 0",
    "z^-2 + z^2",
    "(z^2-1)/(z+1) - z",
    # the monic denominator z + 1e400 is out of range, though the pair is not
    "1/(1e-200*z + 1e200)",
    # one on each side of the largest double: the bit-length proof fails on both
    "8.98846567431158e307*z*2",
    "8.98846567431157e307*z*2",
    # refused before it is multiplied out; the oracle multiplies it out
    "((z+1)^64)^40",
)


def _random_expression(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        leaf = rng.choice(_LEAVES)
        if leaf == "z" and rng.random() < 0.5:
            leaf = f"z^{rng.randint(0, 6)}"
        return leaf
    kind = rng.random()
    a = _random_expression(rng, depth - 1)
    if kind < 0.15:
        return f"-{a}" if rng.random() < 0.5 else f"-({a})"
    if kind < 0.3:
        return f"({a})^{rng.choice([0, 1, 2, 3, -1, -2])}"
    b = _random_expression(rng, depth - 1)
    op = rng.choice("++--**/")
    if rng.random() < 0.5:
        return f"({a}){op}({b})"
    return f"{a}{op}{b}"


def _random_expressions(count: int) -> list[str]:
    rng = random.Random(1)
    out = []
    for _ in range(count):
        text = _random_expression(rng, rng.randint(1, 4))
        if rng.random() < 0.05:  # malformed: a cut, or an exponent over the cap
            text = text[: rng.randint(0, len(text))] if rng.random() < 0.5 else f"({text})^65"
        out.append(text)
    return out


def _fixture_expressions() -> list[str]:
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        out.extend(doc[key] for key in ("h", "g1", "g2") if key in doc)
    return out


def _assert_parses_as_exact_arithmetic(texts) -> Counter:
    outcomes = Counter()
    for text in texts:
        got = _outcome_of(parse_expression, text, _parsed_pair)
        assert got == _outcome_of(oracle.parse, text, oracle.pair), text
        outcomes["value" if isinstance(got[0], list) else got[0]] += 1
    return outcomes


@pytest.mark.parametrize(
    "texts",
    [
        pytest.param(_EDGE_CASES, id="edges"),
        pytest.param(_fixture_expressions(), id="fixtures"),
        pytest.param(_ladder_maps(), id="ladder_maps"),
    ],
)
def test_parse_matches_rational_arithmetic_bit_for_bit(texts):
    # the exact pair is sympy's, and each view part is its correctly rounded value
    _assert_parses_as_exact_arithmetic(texts)


def test_every_corpus_expression_parses_as_it_was_recorded():
    # the corpus: 8,600 expressions drawn from one seed (tests/parse_corpus.py),
    # each with the exact pair, or the error's class, message and position
    corpus = json.loads(parse_corpus.CORPUS.read_text(encoding="ascii"))
    assert corpus["seed"] == parse_corpus.SEED and len(corpus["records"]) >= 8000
    changed = [text for text, recorded in corpus["records"] if parse_corpus.outcome(text) != recorded]
    assert not changed, changed[:20]


def test_parse_matches_rational_arithmetic_on_random_grammar():
    outcomes = _assert_parses_as_exact_arithmetic(_random_expressions(2400))
    # the draw reaches values, malformed input and coefficients out of range
    assert outcomes["value"] > 2000
    assert outcomes["ExpressionError"] > 0
    assert outcomes["OverflowError"] > 0


def test_signed_zero_parts_follow_rational_arithmetic():
    # a view part is a correctly rounded quotient of ints, never -0.0
    for text in ("-(0-i)", "-(0-i) + -(0-i)", "-(i*z) - i*z", "-0*z - 0", "-(1-i)*(1+i)"):
        f = parse_expression(text)
        parts = [x for c in f.num.coeffs + f.den.coeffs for x in (c.real, c.imag)]
        assert all(math.copysign(1.0, x) == 1.0 for x in parts if x == 0), text


def test_parsing_a_ladder_map_reduces_one_quotient(record_calls):
    rng = random.Random(7)
    text = f"({_integer_poly(rng, 20)})/({_integer_poly(rng, 20)})"
    gcds = record_calls(poly, "exact_gcd")
    f = parse_expression(text)
    assert f.degree == 20
    assert len(gcds) == 1
    assert not hasattr(poly, "approx_gcd")
