"""Parser and formatter for rational-function expressions in one variable z.

Grammar (input surface syntax for the CLI JSON documents):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | base ('^' signed-int)?
    base   := literal | 'z' | '(' expr ')'

Literals are decimal numbers with an optional exponent part and an optional
trailing 'i' for the imaginary unit ('2', '2.5', '3i', '1e-3', bare 'i').
A literal must be a finite double: '1e400' is an error, not infinity.
'^' binds tighter than unary minus, so -z^2 parses as -(z^2). Division is
symbolic: the result is always a RationalFunction, never a number, with
double coefficients reduced by the float gcd of ``rational``.
Exponents are integers with |exponent| <= 64.

A subexpression with no '/' and no negative power is held as the polynomial
p of p / 1 in canonical form, and '+', '-', '*', '^' and unary minus act on p
with the steps of ``RationalFunction``'s arithmetic that can change a bit
(``rational.canonical_polynomial``, ``rational.canonical_sum``).  A
``RationalFunction`` is built only at a quotient, a negative power, and the
end, so the result is bit for bit the one that reduced rational arithmetic
on every subexpression gives, without a gcd per term.
"""

from __future__ import annotations

import math

from wlab.poly import Polynomial
from wlab.rational import RationalFunction, SpherePoint, canonical_polynomial, canonical_sum

__all__ = ["ExpressionError", "parse_expression", "format_expression", "parse_sphere_point"]

MAX_EXPONENT = 64

# the canonical z; z^k of it is the monomial, as the squaring chain of exact
# 0s and 1s gives it
_Z = canonical_polynomial(Polynomial.variable())

_Value = Polynomial | RationalFunction


def _quotient(v: _Value) -> RationalFunction:
    return v if isinstance(v, RationalFunction) else RationalFunction._of_polynomial(v)


class ExpressionError(ValueError):
    """Syntax or evaluation error with the offending position (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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
            tokens.append(_Token("num", 1j, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            raw = text[start:i]
            try:
                value = float(raw)
            except ValueError:
                raise ExpressionError(f"malformed number {raw!r}", start) from None
            if not math.isfinite(value):
                raise ExpressionError(f"number {raw!r} overflows a double", start)
            if i < n and text[i] == "i":
                i += 1
                tokens.append(_Token("num", value * 1j, start))
            else:
                tokens.append(_Token("num", complex(value), start))
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
    def expr(self) -> _Value:
        out = self.term()
        while self.peek().kind == "op" and self.peek().value in "+-":
            op = self.next().value
            rhs = self.term()
            if op == "-":
                rhs = -rhs
            if isinstance(out, Polynomial) and isinstance(rhs, Polynomial):
                out = canonical_sum(out, rhs)
            else:
                out = _quotient(out) + _quotient(rhs)
        return out

    # term := factor (('*'|'/') factor)*
    def term(self) -> _Value:
        out = self.factor()
        while self.peek().kind == "op" and self.peek().value in "*/":
            tok = self.next()
            rhs = self.factor()
            if tok.value == "/":
                if rhs.is_zero:
                    raise ExpressionError("division by the zero polynomial", tok.pos)
                out = _quotient(out) / _quotient(rhs)
            elif isinstance(out, Polynomial) and isinstance(rhs, Polynomial):
                out = canonical_polynomial(out * rhs)
            else:
                out = _quotient(out) * _quotient(rhs)
        return out

    # factor := '-' factor | base ('^' signed-int)?
    def factor(self) -> _Value:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.next()
            return -self.factor()
        out = self.base()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            caret = self.next()
            exp = self.exponent()
            if abs(exp) > MAX_EXPONENT:
                raise ExpressionError(
                    f"exponent overflow: |{exp}| > {MAX_EXPONENT}", caret.pos
                )
            if exp < 0 and out.is_zero:
                raise ExpressionError("negative power of zero", caret.pos)
            if exp < 0 or isinstance(out, RationalFunction):
                out = _quotient(out) ** exp
            elif out is _Z:
                out = Polynomial((0j,) * exp + (1 + 0j,))
            else:
                out = canonical_polynomial(out**exp)
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
        val = tok.value
        if val.imag != 0 or val.real != int(val.real):
            raise ExpressionError("expected an integer exponent", tok.pos)
        self.next()
        return sign * int(val.real)

    def base(self) -> _Value:
        tok = self.next()
        if tok.kind == "num":
            return canonical_polynomial(Polynomial((tok.value,)))
        if tok.kind == "z":
            return _Z
        if tok.kind == "op" and tok.value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ExpressionError("expected a number, 'z' or '('", tok.pos)


def parse_expression(text: str) -> RationalFunction:
    """Parse an expression into a reduced RationalFunction.

    Raises ExpressionError carrying the 0-based offending position for any
    malformed input, division by an identically-zero subexpression, or an
    exponent with absolute value above 64.
    """
    parser = _Parser(_lex(text))
    out = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise ExpressionError("unexpected trailing input", tail.pos)
    return _quotient(out)


def parse_sphere_point(text: str) -> SpherePoint:
    """Parse a puncture entry: 'inf' or any constant expression."""
    if text.strip().lower() == "inf":
        return SpherePoint(None)
    value = parse_expression(text)
    if not value.is_constant:
        raise ExpressionError("puncture must be a constant", 0)
    return SpherePoint(value.constant_value)


def as_sphere_point(x) -> SpherePoint:
    """Coerce a SpherePoint, complex number, None, or literal text like "1/2"."""
    if isinstance(x, str):
        return parse_sphere_point(x)
    return SpherePoint.of(x)


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

    parse_expression(format_expression(f)) equals f as a function (the
    canonical form is already normalized, so round-trips are exact).
    """
    num = format_polynomial(f.num)
    if f.den.degree < 1:
        return num
    den = format_polynomial(f.den)
    return f"({num})/({den})"
