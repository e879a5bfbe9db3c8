from __future__ import annotations

import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
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


# -- the parser against exact arithmetic in sympy's QQ_I(z) ----------------------

_ZS = sympy.symbols("z")
_FIELD = sympy.QQ_I.frac_field(_ZS)


def _exact_parts(poly) -> list[tuple[Fraction, Fraction]]:
    """The coefficients of a sympy polynomial over QQ_I, lowest degree first."""
    out = [(Fraction(0), Fraction(0))] * (poly.degree() + 1 if poly else 0)
    for (k,), c in poly.terms():
        out[k] = (Fraction(int(c.x.numerator), int(c.x.denominator)), Fraction(int(c.y.numerator), int(c.y.denominator)))
    return out


def _reduced(f) -> tuple[list, list]:
    """(N, D) of a field element with D monic."""
    lead = f.denom.LC
    return _exact_parts(f.numer.quo_ground(lead)), _exact_parts(f.denom.quo_ground(lead))


def _small_monomial(f, exp: int) -> bool:
    """The parser's rule above the exponent cap: f = c z^k with k != 0, and
    |exp| times the bit length of c's parts over their least common
    denominator L, and of L, at most MAX_POWER_BITS."""
    n, d = _reduced(f)
    if len(n) + len(d) <= 2 or any(any(c) for c in n[:-1] + d[:-1]):
        return False
    re, im = n[-1]
    q = math.lcm(re.denominator, im.denominator)
    bits = max(abs(int(x * q)).bit_length() for x in (re, im, 1))
    return abs(exp) * bits <= exprparse.MAX_POWER_BITS


def _signed_digits(v: int, k: int, n: int) -> list[int]:
    """The n integers c_j, each |c_j| < 2^(k-1), with v = sum c_j 2^(k j);
    k is a multiple of 8.  Adding 2^(k-1) to every c_j leaves digits in
    [0, 2^k) with no carry, so they are read off the bytes."""
    width = k // 8
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = (v + bias).to_bytes(width * n, "little")
    half = 1 << (k - 1)
    return [int.from_bytes(raw[j * width : (j + 1) * width], "little") - half for j in range(n)]


def _kronecker_power(p: list, m: int) -> list:
    """p^m for p over Q(i), parts as Fractions, lowest degree first.

    The shared power of z is split off, and the numerator P over Z[i] is
    evaluated at z = 2^k as one Gaussian integer and raised there; k
    exceeds the bits of |P|_1^m, which bounds every part of P^m, so the
    parts of P^m are the signed base-2^k digits of the result.
    """
    if not p:
        return []
    shift = next(j for j, c in enumerate(p) if any(c))
    p = p[shift:]
    q = math.lcm(*(x.denominator for c in p for x in c))
    ints = [(int(re * q), int(im * q)) for re, im in p]
    k = -(-(m * sum(abs(a) + abs(b) for a, b in ints).bit_length() + 2) // 8) * 8
    x = sum(a << (k * j) for j, (a, _b) in enumerate(ints))
    y = sum(b << (k * j) for j, (_a, b) in enumerate(ints))
    rx, ry = 1, 0
    e = m
    while e:
        if e & 1:
            rx, ry = rx * x - ry * y, rx * y + ry * x
        e >>= 1
        if e:
            x, y = x * x - y * y, 2 * x * y
    n = m * (len(ints) - 1) + 1
    qm = q**m
    zero = (Fraction(0), Fraction(0))
    return [zero] * (shift * m) + [
        (Fraction(a, qm), Fraction(b, qm)) for a, b in zip(_signed_digits(rx, k, n), _signed_digits(ry, k, n))
    ]


def _power_parts(f, exp: int) -> tuple[list, list]:
    """The reduced pair of f^exp (exp != 0, f != 0 where exp < 0), computed
    apart from sympy: the reduced pair of f raised side by side (they stay
    coprime), then divided by the leading coefficient of the denominator."""
    num, den = _reduced(f)
    if exp < 0:
        num, den, exp = den, num, -exp
    num, den = _kronecker_power(num, exp), _kronecker_power(den, exp)
    c, d = den[-1]
    if (c, d) != (1, 0):
        norm = c * c + d * d
        num, den = ([((a * c + b * d) / norm, (b * c - a * d) / norm) for a, b in side] for side in (num, den))
    return num, den


def _check_range(parts) -> None:
    """The range rule: no part of the reduced pair may round to infinity."""
    for part in (x for side in parts for c in side for x in c):
        try:
            float(part)
        except OverflowError:
            raise OverflowError("a coefficient is beyond the range of a double") from None


class _ExactOracle(exprparse._Parser):
    """The grammar over sympy's QQ_I(z), with the range rule after each step.

    A power is first raised apart from sympy (``_power_parts``) and its
    range checked there, so a power beyond the range is refused without
    sympy multiplying it out; sympy's power must then give the same pair.
    """

    def _ranged(self, f):
        _check_range(_reduced(f))
        return f

    def expr(self):
        out = self.term()
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.next().value
            rhs = self.term()
            out = self._ranged(out + rhs if op == "+" else out - rhs)
        return out

    def term(self):
        out = self.factor()
        while self.peek().kind == "op" and self.peek().value in "*/":
            tok = self.next()
            rhs = self.factor()
            if tok.value == "*":
                out = self._ranged(out * rhs)
            else:
                if not rhs:
                    raise ExpressionError("division by the zero polynomial", tok.pos)
                out = self._ranged(out / rhs)
        return out

    def factor(self):
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.next()
            return -self.factor()
        out = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            caret = self.next()
            exp = self.exponent()
            if abs(exp) > exprparse.MAX_EXPONENT and not _small_monomial(out, exp):
                raise ExpressionError(
                    f"exponent overflow: |{exp}| > {exprparse.MAX_EXPONENT}", caret.pos
                )
            if exp < 0 and not out:
                raise ExpressionError("negative power of zero", caret.pos)
            if exp:
                parts = _power_parts(out, exp)
                _check_range(parts)
                out = out**exp
                assert _reduced(out) == parts
            else:
                out = _FIELD.one
        return out

    def base(self):
        tok = self.next()
        if tok.kind == "num":
            value, imaginary = tok.value
            q = sympy.QQ_I(sympy.Rational(value.numerator, value.denominator))
            return self._ranged(_FIELD.convert(q * sympy.QQ_I(0, 1) if imaginary else q))
        if tok.kind == "z":
            return _FIELD.from_sympy(_ZS)
        if tok.kind == "op" and tok.value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError("expected a number, 'z' or '('", tok.pos)


def _oracle_parse(text: str):
    parser = _ExactOracle(exprparse._lex(text))
    out = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExpressionError("unexpected trailing input", tail.pos)
    return out


def _view(parts) -> str:
    """The correctly rounded parts, without the coefficients that round to 0 at the top."""
    view = [complex(float(re), float(im)) for re, im in parts]
    while view and not view[-1]:
        view.pop()
    return repr(tuple(view))


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


def _oracle_pair(f) -> tuple:
    num, den = _reduced(f)
    return (num, den, _view(num), _view(den))


def _integer_poly(rng: random.Random, degree: int) -> str:
    coeffs = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-9, -4, -1, 1, 3, 9])]
    terms = [f"{c}*z^{k}" for k, c in enumerate(coeffs) if c]
    return "+".join(terms).replace("+-", "-")


def _ladder_maps() -> list[str]:
    """Seeded integer maps A/B and A^m/B at degrees 4..64."""
    rng = random.Random(20060313)
    out = []
    for degree in (4, 8, 12, 16, 20, 24, 32, 48, 64):
        for _ in range(2):
            out.append(f"({_integer_poly(rng, degree)})/({_integer_poly(rng, degree)})")
            m = rng.choice([m for m in (2, 3, 4) if degree % m == 0])
            out.append(f"({_integer_poly(rng, degree // m)})^{m}/({_integer_poly(rng, degree)})")
    return out


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
    root = Path(__file__).resolve().parents[1] / "fixtures"
    out = []
    for path in sorted(root.glob("*.json")):
        doc = json.loads(path.read_text())
        out.extend(doc[key] for key in ("h", "g1", "g2") if key in doc)
    return out


def _assert_parses_as_exact_arithmetic(texts) -> Counter:
    outcomes = Counter()
    for text in texts:
        got = _outcome_of(parse_expression, text, _parsed_pair)
        assert got == _outcome_of(_oracle_parse, text, _oracle_pair), text
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
