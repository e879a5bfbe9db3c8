"""Parser and formatter for rational-function expressions in one variable z.

Grammar (input surface syntax for the CLI JSON documents):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' signed-int)?
    base   := literal | 'z' | '(' expr ')'

Literals are decimal numbers with an optional exponent part and an optional
trailing 'i' for the imaginary unit ('2', '2.5', '3i', '1e-3', bare 'i').
They are read exactly ('2.5e-3' is 1/400), and a nonzero literal must lie in
the range of a double: '1e400' and '1e-400' are errors, not infinity and 0.
'^' binds tighter than unary minus, so -z^2 parses as -(z^2). Exponents are
integers, and no intermediate result may reach a degree above 4096: each
operator is refused before it runs when the degree its result can have is
larger.  An exponent with |exponent| > 64 is accepted only on a monomial
c z^k with k != 0 (z^96 parses as z^64*z^32 does), whose power is one
power of c, and only while |exponent| times the bit length of c's exact
parts is at most 65536, the size of a 64th power of 1024-bit parts; any
other base keeps the cap, as squaring a polynomial of several terms up to
degree 4096 costs seconds.  Digits are ASCII '0' to '9' only: any other
Unicode digit, a superscript 2 say, is an unexpected character.

Every operator is exact arithmetic over Q(i), so division is symbolic and
the result is a reduced RationalFunction, never a number.  A subexpression
that is a polynomial is held as one sparse table of coefficients over one
denominator (``_Sum``): a sum merges its right operand's terms into it in
one pass, a product with a monomial shifts and scales the other's terms,
and no gcd runs.  A ``RationalFunction`` is built only for a quotient (a
'/' or a negative power), which an exact gcd reduces, for an operand that
meets one, for the base of an exponent above 64, whose reduced pair the
rule above reads, and once for the result.  The degree check and the range rule are those of the reduced
result at every operator: a coefficient of an intermediate result beyond
the range of a double raises ``OverflowError`` (a sum checks the
coefficients it changed).  A power raises it before it is multiplied out
when its result certainly has one: when |N(x)|^e > (e deg N + 1) sqrt(2)
2^1024 at some x in {1, -1, i, -i}, for its numerator N = N_base^e (and
likewise its denominator), so ((z+1)^64)^40 is refused at once, not after
seconds of squaring.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain

from wlab.poly import OUT_OF_RANGE, Exact, Polynomial, exact_mul, exact_pow, in_range, rounded
from wlab.rational import RationalFunction, SpherePoint, _power_out_of_range

__all__ = ["ExpressionError", "parse_expression", "format_expression", "parse_sphere_point"]

MAX_EXPONENT = 64
MAX_DEGREE = 4096
MAX_POWER_BITS = MAX_EXPONENT * 1024
_NUMBER = re.compile(r"[0-9]*\.?[0-9]*(?:[eE][+-]?[0-9]+)?")


class ExpressionError(ValueError):
    """Syntax or evaluation error with the offending position (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_degree(bound: int, position: int) -> None:
    """Refuse an operator whose result can have a degree above MAX_DEGREE."""
    if bound > MAX_DEGREE:
        raise ExpressionError(f"degree overflow: the result can reach degree {bound} > {MAX_DEGREE}", position)


def _check_exponent(base: RationalFunction, exp: int, position: int) -> None:
    """Refuse |exp| > MAX_EXPONENT unless ``base`` is a monomial c z^k,
    k != 0, and |exp| times the bit length of c's exact parts is at most
    MAX_POWER_BITS."""
    if abs(exp) <= MAX_EXPONENT:
        return
    a, b = base.pair
    monomial = not base.is_constant and not any(x or y for p in (a, b) for x, y in p[:-1])
    if not monomial or abs(exp) * max(abs(x).bit_length() for x in a[-1] + b[-1]) > MAX_POWER_BITS:
        raise ExpressionError(f"exponent overflow: |{exp}| > {MAX_EXPONENT}", position)


class _Sum:
    """A polynomial over Q(i) as a sparse table: ``terms`` maps a power to
    its nonzero coefficient over Z[i], each over the one positive int
    ``den``; ``top`` is the highest power, -1 for zero.

    The parser owns every table, so ``+=`` and ``-=`` merge the right
    operand's terms into the left's in place (Knuth, TAOCP 1, 2.2.4,
    Algorithm A).  A product or power makes a new table, a quotient the
    reduced ``RationalFunction``.  Degrees are those of the reduced pair
    N / 1.
    """

    __slots__ = ("terms", "den", "top")

    def __init__(self, terms: dict[int, tuple[int, int]], den: int = 1):
        self.terms, self.den = terms, den
        self.top = max(terms, default=-1)

    @classmethod
    def _checked(cls, terms: dict[int, tuple[int, int]], den: int) -> "_Sum":
        _check_range(terms.values(), den)
        return cls(terms, den)

    def dense(self) -> Exact:
        out = [(0, 0)] * (self.top + 1)
        for k, c in self.terms.items():
            out[k] = c
        return tuple(out)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        return max(self.top, 0)

    @property
    def degrees(self) -> tuple[int, int]:
        return self.top, 0

    def rational(self) -> RationalFunction:
        return RationalFunction.of_exact(self.dense(), ((self.den, 0),))

    def _merge(self, other: "_Sum", sign: int) -> "_Sum":
        """self + sign other, in place: only the coefficients it changes are range-checked."""
        den = math.lcm(self.den, other.den)
        if den != self.den:
            s = den // self.den
            self.terms = {k: (x * s, y * s) for k, (x, y) in self.terms.items()}
            self.den = den
        s, terms, changed = sign * (den // other.den), self.terms, []
        for k, (u, v) in other.terms.items():
            x, y = terms.get(k, (0, 0))
            c = (x + s * u, y + s * v)
            if c == (0, 0):
                del terms[k]
            else:
                terms[k] = c
                changed.append(c)
        _check_range(changed, den)
        self.top = max(self.top, other.top)
        if self.top not in terms:
            self.top = max(terms, default=-1)
        return self

    def __iadd__(self, other: "_Sum") -> "_Sum":
        return self._merge(other, 1)

    def __isub__(self, other: "_Sum") -> "_Sum":
        return self._merge(other, -1)

    def __neg__(self) -> "_Sum":
        return _Sum({k: (-x, -y) for k, (x, y) in self.terms.items()}, self.den)

    def __mul__(self, other: "_Sum") -> "_Sum":
        a, b = (self, other) if len(self.terms) == 1 else (other, self)
        if len(a.terms) == 1:
            ((j, (x, y)),) = a.terms.items()
            terms = {j + k: (x * u - y * v, x * v + y * u) for k, (u, v) in b.terms.items()}
        else:
            terms = _table(exact_mul(self.dense(), other.dense()))
        return _Sum._checked(terms, self.den * other.den)

    def __truediv__(self, other: "_Sum") -> RationalFunction:
        a, b = exact_mul(self.dense(), ((other.den, 0),)), exact_mul(other.dense(), ((self.den, 0),))
        return RationalFunction.of_exact(a, b)

    def __pow__(self, n: int) -> "_Sum":
        """The power for 0 <= n; a monomial's is one power of its coefficient."""
        if len(self.terms) == 1:
            ((k, c),) = self.terms.items()
            return _Sum._checked({k * n: exact_pow((c,), n)[0]}, self.den**n)
        p = self.dense()
        if p and _power_out_of_range(p, (self.den, 0), n):
            raise OverflowError(OUT_OF_RANGE)
        return _Sum._checked(_table(exact_pow(p, n)), self.den**n)


def _check_range(coeffs, den: int) -> None:
    """The range rule on coefficients over Z[i] over den: ``OverflowError``
    when a part of one is beyond the range of a double."""
    if not in_range(chain.from_iterable(coeffs), den):
        rounded(coeffs, den)


def _table(p: Exact) -> dict[int, tuple[int, int]]:
    return {k: c for k, c in enumerate(p) if c != (0, 0)}


def _rational(value: _Sum | RationalFunction) -> RationalFunction:
    return value.rational() if isinstance(value, _Sum) else value


def _operands(a: _Sum | RationalFunction, b: _Sum | RationalFunction) -> tuple:
    """Two tables, or else two RationalFunctions: a table meets a quotient as one."""
    if isinstance(a, _Sum) and isinstance(b, _Sum):
        return a, b
    return _rational(a), _rational(b)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value, pos: int):
        self.kind = kind  # 'num' | 'z' | 'op' | 'end'
        self.value = value
        self.pos = pos


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch == "z":
            tokens.append(_Token("z", None, i))
            i += 1
            continue
        if ch == "i":
            tokens.append(_Token("num", (1, True), i))
            i += 1
            continue
        if "0" <= ch <= "9" or ch == ".":
            start, i = i, _NUMBER.match(text, i).end()
            raw = text[start:i]
            try:
                rounded = float(raw)
            except ValueError:
                raise ExpressionError(f"malformed number {raw!r}", start) from None
            if math.isinf(rounded):
                raise ExpressionError(f"number {raw!r} overflows a double", start)
            if rounded == 0 and raw.lower().split("e")[0].strip("0."):
                raise ExpressionError(f"number {raw!r} underflows a double", start)
            # the range check comes first: it bounds the exponent Fraction expands
            value = int(raw) if raw.isdigit() else Fraction(raw) if rounded else 0
            imaginary = i < n and text[i] == "i"
            i += imaginary
            tokens.append(_Token("num", (value, imaginary), start))
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.k = 0

    def peek(self) -> _Token:
        return self.tokens[self.k]

    def next(self) -> _Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.value != op:
            raise ExpressionError(f"expected {op!r}", tok.pos)
        return self.next()

    # expr := term (('+'|'-') term)*
    def expr(self) -> _Sum | RationalFunction:
        out = self.term()
        while self.peek().kind == "op" and self.peek().value in "+-":
            tok = self.next()
            out, rhs = _operands(out, self.term())
            (a, b), (c, d) = out.degrees, rhs.degrees
            _check_degree(max(a + d, c + b, b + d), tok.pos)
            if tok.value == "+":
                out += rhs
            else:
                out -= rhs
        return out

    # term := factor (('*'|'/') factor)*
    def term(self) -> _Sum | RationalFunction:
        out = self.factor()
        while self.peek().kind == "op" and self.peek().value in "*/":
            tok = self.next()
            out, rhs = _operands(out, self.factor())
            (a, b), (c, d) = out.degrees, rhs.degrees
            if tok.value == "*":
                _check_degree(max(a + c, b + d), tok.pos)
                out = out * rhs
            elif rhs.is_zero:
                raise ExpressionError("division by the zero polynomial", tok.pos)
            else:
                _check_degree(max(a + d, b + c), tok.pos)
                out = out / rhs
        return out

    # factor := '-' factor | base ('^' signed-int)?
    def factor(self) -> _Sum | RationalFunction:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.next()
            return -self.factor()
        out = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            caret = self.next()
            exp = self.exponent()
            if not 0 <= exp <= MAX_EXPONENT:  # the reduced pair decides these
                out = _rational(out)
            _check_exponent(out, exp, caret.pos)
            if exp < 0 and out.is_zero:
                raise ExpressionError("negative power of zero", caret.pos)
            _check_degree(out.degree * abs(exp), caret.pos)
            out = out**exp
        return out

    def exponent(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "op" and tok.value in "+-":
            self.next()
            sign = -1 if tok.value == "-" else 1
            tok = self.peek()
        if tok.kind != "num":
            raise ExpressionError("expected an integer exponent", tok.pos)
        value, imaginary = tok.value
        if (imaginary and value) or value.denominator != 1:
            raise ExpressionError("expected an integer exponent", tok.pos)
        self.next()
        return sign * int(value)

    def base(self) -> _Sum | RationalFunction:
        tok = self.next()
        if tok.kind == "num":  # in range, as the lexer checked
            value, imaginary = tok.value
            c = (0, value.numerator) if imaginary else (value.numerator, 0)
            return _Sum({0: c} if value else {}, value.denominator)
        if tok.kind == "z":
            return _Sum({1: (1, 0)})
        if tok.kind == "op" and tok.value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError("expected a number, 'z' or '('", tok.pos)


def parse_expression(text: str) -> RationalFunction:
    """Parse an expression into a reduced RationalFunction.

    Raises ExpressionError carrying the 0-based offending position for any
    malformed input, division by an identically-zero subexpression, an
    exponent with absolute value above 64 on a base other than a monomial
    c z^k of small enough c, or an intermediate result that can reach a
    degree above 4096.
    """
    parser = _Parser(_lex(text))
    out = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExpressionError("unexpected trailing input", tail.pos)
    return _rational(out)


def parse_sphere_point(text: str) -> SpherePoint:
    """Parse a puncture entry: 'inf' or any constant expression, kept exactly."""
    if text.strip().lower() == "inf":
        return SpherePoint(None)
    value = parse_expression(text)
    if not value.is_constant:
        raise ExpressionError("puncture must be a constant", 0)
    (a, ((q, _),)) = value.pair
    (x, y) = a[0] if a else (0, 0)
    return SpherePoint.literal(Fraction(x, q), Fraction(y, q))


def as_sphere_point(x) -> SpherePoint:
    """Coerce a SpherePoint, complex number, None, or literal text like "1/2".

    A finite point comes out with its exact factor: a number is read as the
    literal it prints as (``SpherePoint.literal``), as the CLI reads it."""
    if isinstance(x, str):
        return parse_sphere_point(x)
    p = SpherePoint.of(x)
    return p if p.is_infinity or p.factor is not None else SpherePoint.literal(p.value)


# -- formatting ---------------------------------------------------------------


def _format_real(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def format_complex(c: complex) -> str:
    """Round-trip-exact complex literal in the surface syntax."""
    re, im = c.real, c.imag
    if im == 0:
        return _format_real(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return _format_real(im) + "i"
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    imag = "i" if mag == 1 else _format_real(mag) + "i"
    return f"{_format_real(re)}{sign}{imag}"


def _format_coeff_term(c: complex, power: int) -> str:
    """One monomial c * z^power, with the shortest reparsable spelling."""
    if power == 0:
        lit = format_complex(c)
        return f"({lit})" if ("+" in lit[1:] or "-" in lit[1:]) else lit
    zpart = "z" if power == 1 else f"z^{power}"
    if c == 1:
        return zpart
    if c == -1:
        return f"-{zpart}"
    lit = format_complex(c)
    if "+" in lit[1:] or "-" in lit[1:]:
        lit = f"({lit})"
    return f"{lit}*{zpart}"


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for power in range(p.degree, -1, -1):
        c = p.coeffs[power]
        if c == 0:
            continue
        term = _format_coeff_term(c, power)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append("-" + term[1:])
        else:
            parts.append("+" + term)
    out = parts[0]
    for piece in parts[1:]:
        out += piece
    return out


def format_expression(f: RationalFunction) -> str:
    """Reparsable text for a rational function.

    Every coefficient is printed at its float view's exact value, so
    parse_expression(format_expression(f)) is f with the views as its
    exact coefficients.
    """
    num = format_polynomial(f.num)
    if f.den.degree < 1:
        return num
    den = format_polynomial(f.den)
    return f"({num})/({den})"
