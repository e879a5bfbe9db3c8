"""Exact reference computations for the tests, apart from the route they check.

It holds two pieces.  The first is the expression grammar read over sympy's
QQ_I(z).  It has its own tokenizer and its own walk, and shares no code with
``wlab.exprparse``, so a fault in the parser's lexer or arithmetic shows as
a difference, not on both sides.  A literal's range is decided on its exact
decimal value: it overflows a double when it rounds to infinity, at
2^1024 - 2^970 and above, and underflows when it is nonzero and rounds to 0,
at 2^-1075 and below.

The second is the φ-forms by the longer route: products and sums of reduced
``RationalFunction`` values, each cancelled on its own (``phi_forms``), and
an exponent table whose basis refines the φ-denominators themselves
(``phi_denominator_table``).  ``weierstrass.phi_from_data`` reduces each
form once over a shared denominator, and ``Analysis.exponents`` reads the
forms' pole orders off the basis of h, g1 and g2, so the two meet only in
the reduced pairs and the exponents.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction

import sympy

from wlab.exprparse import MAX_EXPONENT, MAX_POWER_BITS, ExpressionError
from wlab.rational import RationalFunction
from wlab.roots import gcd_free_basis

DIGITS = "0123456789"
_OVERFLOW = Decimal(2**1024 - 2**970)  # the least magnitude that rounds to infinity
_UNDERFLOW = Decimal(f"{5**1075}e-1075")  # 2^-1075, the largest that rounds to 0

ZS = sympy.symbols("z")
FIELD = sympy.QQ_I.frac_field(ZS)


# -- tokens ---------------------------------------------------------------------------


def _digits(text: str, i: int) -> int:
    while i < len(text) and text[i] in DIGITS:
        i += 1
    return i


def _number(text: str, start: int) -> tuple[Fraction, int]:
    """The literal at ``start``: digits, an optional '.' and digits, and an
    optional exponent that has digits; its exact value and its end."""
    end = _digits(text, start)
    if end < len(text) and text[end] == ".":
        end = _digits(text, end + 1)
    mark = end + 1 if end < len(text) and text[end] in "eE" else None
    if mark is not None and mark < len(text) and text[mark] in "+-":
        mark += 1
    if mark is not None and _digits(text, mark) > mark:
        end = _digits(text, mark)
    raw = text[start:end]
    if not any(c in DIGITS for c in raw.split("e")[0].split("E")[0]):
        raise ExpressionError(f"malformed number {raw!r}", start)
    value = Decimal(raw)
    if value >= _OVERFLOW:
        raise ExpressionError(f"number {raw!r} overflows a double", start)
    if 0 < value <= _UNDERFLOW:
        raise ExpressionError(f"number {raw!r} underflows a double", start)
    return Fraction(value), end


def tokens(text: str) -> list[tuple[str, object, int]]:
    """(kind, value, position) for each token: ('op', character), ('z', None),
    ('num', (value, imaginary)), and ('end', None) at the end.  Blanks are
    skipped where ``str.isspace`` holds."""
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            out.append(("op", ch, i))
            i += 1
        elif ch == "z":
            out.append(("z", None, i))
            i += 1
        elif ch == "i":
            out.append(("num", (Fraction(1), True), i))
            i += 1
        elif ch in DIGITS or ch == ".":
            value, end = _number(text, i)
            imaginary = end < len(text) and text[end] == "i"
            out.append(("num", (value, imaginary), i))
            i = end + imaginary
        else:
            raise ExpressionError(f"unexpected character {ch!r}", i)
    out.append(("end", None, len(text)))
    return out


# -- values over QQ_I ---------------------------------------------------------------------


def exact_parts(poly) -> list[tuple[Fraction, Fraction]]:
    """The coefficients of a sympy polynomial over QQ_I, lowest degree first."""
    out = [(Fraction(0), Fraction(0))] * (poly.degree() + 1 if poly else 0)
    for (k,), c in poly.terms():
        out[k] = (Fraction(int(c.x.numerator), int(c.x.denominator)), Fraction(int(c.y.numerator), int(c.y.denominator)))
    return out


def reduced(f) -> tuple[list, list]:
    """(N, D) of a field element with D monic."""
    lead = f.denom.LC
    return exact_parts(f.numer.quo_ground(lead)), exact_parts(f.denom.quo_ground(lead))


def small_monomial(f, exp: int) -> bool:
    """The parser's rule above the exponent cap: f = c z^k with k != 0, and
    |exp| times the bit length of c's parts over their least common
    denominator L, and of L, at most MAX_POWER_BITS."""
    n, d = reduced(f)
    if len(n) + len(d) <= 2 or any(any(c) for c in n[:-1] + d[:-1]):
        return False
    re, im = n[-1]
    q = math.lcm(re.denominator, im.denominator)
    bits = max(abs(int(x * q)).bit_length() for x in (re, im, 1))
    return abs(exp) * bits <= MAX_POWER_BITS


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


def power_parts(f, exp: int) -> tuple[list, list]:
    """The reduced pair of f^exp (exp != 0, f != 0 where exp < 0), computed
    apart from sympy: the reduced pair of f raised side by side (they stay
    coprime), then divided by the leading coefficient of the denominator."""
    num, den = reduced(f)
    if exp < 0:
        num, den, exp = den, num, -exp
    num, den = _kronecker_power(num, exp), _kronecker_power(den, exp)
    c, d = den[-1]
    if (c, d) != (1, 0):
        norm = c * c + d * d
        num, den = ([((a * c + b * d) / norm, (b * c - a * d) / norm) for a, b in side] for side in (num, den))
    return num, den


def check_range(parts) -> None:
    """The range rule: no part of the reduced pair may round to infinity."""
    for part in (x for side in parts for c in side for x in c):
        try:
            float(part)
        except OverflowError:
            raise OverflowError("a coefficient is beyond the range of a double") from None


# -- the walk --------------------------------------------------------------------------


class _Walk:
    """The grammar over QQ_I(z), with the range rule after each step.

    A power is first raised apart from sympy (``power_parts``) and its
    range checked there, so a power beyond the range is refused without
    sympy multiplying it out; sympy's power must then give the same pair.
    """

    def __init__(self, text: str):
        self.tokens = tokens(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        self.k += 1
        return self.tokens[self.k - 1]

    def is_op(self, ops: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value in ops

    def ranged(self, f):
        check_range(reduced(f))
        return f

    def expr(self):
        out = self.term()
        while self.is_op("+-"):
            op = self.next()[1]
            rhs = self.term()
            out = self.ranged(out + rhs if op == "+" else out - rhs)
        return out

    def term(self):
        out = self.factor()
        while self.is_op("*/"):
            _, op, position = self.next()
            rhs = self.factor()
            if op == "*":
                out = self.ranged(out * rhs)
            else:
                if not rhs:
                    raise ExpressionError("division by the zero polynomial", position)
                out = self.ranged(out / rhs)
        return out

    def factor(self):
        if self.is_op("-"):
            self.next()
            return -self.factor()
        out = self.base()
        if self.is_op("^"):
            caret = self.next()[2]
            exp = self.exponent()
            if abs(exp) > MAX_EXPONENT and not small_monomial(out, exp):
                raise ExpressionError(f"exponent overflow: |{exp}| > {MAX_EXPONENT}", caret)
            if exp < 0 and not out:
                raise ExpressionError("negative power of zero", caret)
            if exp:
                parts = power_parts(out, exp)
                check_range(parts)
                out = out**exp
                assert reduced(out) == parts
            else:
                out = FIELD.one
        return out

    def exponent(self) -> int:
        sign = 1
        if self.is_op("+-"):
            sign = -1 if self.next()[1] == "-" else 1
        kind, value, position = self.peek()
        if kind != "num" or (value[1] and value[0]) or value[0].denominator != 1:
            raise ExpressionError("expected an integer exponent", position)
        self.next()
        return sign * int(value[0])

    def base(self):
        kind, value, position = self.next()
        if kind == "num":
            number, imaginary = value
            q = sympy.QQ_I(sympy.Rational(number.numerator, number.denominator))
            return self.ranged(FIELD.convert(q * sympy.QQ_I(0, 1) if imaginary else q))
        if kind == "z":
            return FIELD.from_sympy(ZS)
        if kind == "op" and value == "(":
            inner = self.expr()
            if not self.is_op(")"):
                raise ExpressionError("expected ')'", self.peek()[2])
            self.next()
            return inner
        raise ExpressionError("expected a number, 'z' or '('", position)


def parse(text: str):
    """The expression as an element of QQ_I(z), or the parser's error."""
    walk = _Walk(text)
    out = walk.expr()
    kind, _, position = walk.peek()
    if kind != "end":
        raise ExpressionError("unexpected trailing input", position)
    return out


def _view(parts) -> str:
    """The correctly rounded parts, without the coefficients that round to 0 at the top."""
    view = [complex(float(re), float(im)) for re, im in parts]
    while view and not view[-1]:
        view.pop()
    return repr(tuple(view))


def pair(f) -> tuple:
    """The reduced pair of a field element and its views' reprs."""
    num, den = reduced(f)
    return (num, den, _view(num), _view(den))


# -- the φ-forms by rational arithmetic -----------------------------------------------


def phi_forms(d) -> tuple[RationalFunction, ...]:
    """The four φ-forms of ``d`` as products and sums of reduced
    ``RationalFunction`` values, each step cancelled on its own:
    (1 + g1 g2) h / 2, i (1 - g1 g2) h / 2, (g1 - g2) h / 2 and
    -i (g1 + g2) h / 2."""
    gg = d.g1 * d.g2
    one = RationalFunction.constant(1.0)
    return (
        (one + gg) * d.h * 0.5,
        (one - gg) * d.h * 0.5j,
        (d.g1 - d.g2) * d.h * 0.5,
        (d.g1 + d.g2) * d.h * (-0.5j),
    )


def phi_denominator_table(d) -> dict:
    """The exponent table refined over the φ-denominators themselves: one
    gcd-free basis of the finite punctures' linear factors, h's numerator
    and the denominators of h, g1, g2 and of the four ``phi_forms``, each
    piece mapped to its exponents in all but the punctures."""
    punctures = [p.factor for p in d.punctures if not p.is_infinity]
    dens = [f.pair[1] for f in (d.h, d.g1, d.g2, *phi_forms(d))]
    basis = gcd_free_basis([*punctures, d.h.pair[0], *dens])
    return {piece: e[len(punctures) :] for piece, e in basis.items()}
