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
degree 4096 costs seconds.  Blanks are the characters ``str.isspace``
accepts.  Digits are ASCII '0' to '9' only: any other Unicode digit, a
superscript 2 say, is an unexpected character.  A literal has at most 4300
characters, and at most 200 parentheses and unary minuses are open at once.

Every operator is exact arithmetic over Q(i), so division is symbolic and
the result is a reduced RationalFunction, never a number.  The text is lexed
in one scan.  A monomial c z^k, c = (x + y i) / den (a literal, 'z', and a
product or power of monomials), is the plain tuple (k, x, y, den); a
polynomial of several terms is one sparse table over one denominator
(``_Sum``), which a sum merges its right operand's terms into, and no gcd
runs.  A ``RationalFunction`` is built only for a quotient (a '/' or a
negative power), which an exact gcd reduces, for an operand that meets one,
and once for the result.  The degree check and the range rule are those of
the reduced result at every operator: a coefficient of an intermediate
result beyond the range of a double raises ``OverflowError``.  The rule is
proved where a coefficient can grow: a product of two factors neither of
which is a unit 1, -1, i or -i, the coefficients a sum changed, a power or
a quotient.  A power raises it before it is multiplied out when its result
certainly has one: when |N(x)|^e > (e deg N + 1) sqrt(2) 2^1024 at some x
in {1, -1, i, -i}, for its numerator N = N_base^e (and likewise its
denominator), so ((z+1)^64)^40 is refused at once, not after seconds.
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
MAX_NESTING = 200  # open parentheses and unary minuses: each costs at most three stack frames
MAX_LITERAL = 4300  # characters of one literal: the default limit of Python's int() on a digit string
# one match per token, after the blanks before it: a number with its 'i', or any other character
_TOKEN = re.compile(r"\s*((?=[0-9.])[0-9]*\.?[0-9]*(?:[eE][+-]?[0-9]+)?i?|\S)")
# an operator or parenthesis stands for itself, 'z' and 'i' for their monomials
_NAMES = {**{c: c for c in "+-*/^()"}, "z": (1, 1, 0, 1), "i": (0, 0, 1, 1)}


class ExpressionError(ValueError):
    """Syntax or evaluation error with the offending position (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_range(coeffs, den: int) -> None:
    """The range rule on coefficients over Z[i] over den: ``OverflowError``
    when a part of one is beyond the range of a double."""
    if not in_range(chain.from_iterable(coeffs), den):
        rounded(coeffs, den)


def _is_unit(x: int, y: int, den: int) -> bool:
    """Whether (x + y i) / den is 1, -1, i or -i: a product with it moves no magnitude."""
    return den == 1 and x * x + y * y == 1


class _Sum:
    """A polynomial over Q(i) as a sparse table: ``terms`` maps a power to
    its nonzero coefficient over Z[i], each over the one positive int
    ``den``; ``top`` is the highest power, -1 for zero.

    The parser owns every table, so ``merge`` adds the right operand's terms
    into the left's in place (Knuth, TAOCP 1, 2.2.4, Algorithm A).  A
    product or power makes a new table, a quotient the reduced
    ``RationalFunction``.  Degrees are those of the reduced pair N / 1.
    """

    __slots__ = ("terms", "den", "top")

    def __init__(self, terms: dict[int, tuple[int, int]], den: int = 1):
        self.terms, self.den = terms, den
        self.top = max(terms, default=-1)

    def dense(self) -> Exact:
        out = [(0, 0)] * (self.top + 1)
        for k, c in self.terms.items():
            out[k] = c
        return tuple(out)

    def merge(self, other: "_Sum | tuple", sign: int) -> "_Sum":
        """self + sign other, in place, for a table or a monomial: only the
        coefficients it changes are range-checked."""
        if type(other) is tuple:
            k, x, y, oden = other
            items, otop = (((k, (x, y)),), k) if x or y else ((), -1)
        else:
            items, otop, oden = other.terms.items(), other.top, other.den
        den = self.den if oden == self.den else math.lcm(self.den, oden)
        if den != self.den:
            s = den // self.den
            self.terms = {k: (x * s, y * s) for k, (x, y) in self.terms.items()}
            self.den = den
        s, terms, changed = sign * (den // oden), self.terms, []
        for k, (u, v) in items:
            x, y = terms.get(k, (0, 0))
            c = (x + s * u, y + s * v)
            if c == (0, 0):
                del terms[k]
            else:
                terms[k] = c
                changed.append(c)
        _check_range(changed, den)
        if otop > self.top:
            self.top = otop
        if self.top not in terms:
            self.top = max(terms, default=-1)
        return self

    def __neg__(self) -> "_Sum":
        return _Sum({k: (-x, -y) for k, (x, y) in self.terms.items()}, self.den)

    def __mul__(self, other: "_Sum") -> "_Sum":
        a, b = (self, other) if len(self.terms) == 1 else (other, self)
        if len(a.terms) == 1:
            ((j, (x, y)),) = a.terms.items()
            terms = {j + k: (x * u - y * v, x * v + y * u) for k, (u, v) in b.terms.items()}
            if _is_unit(x, y, a.den):
                return _Sum(terms, b.den)
        else:
            terms = _table(exact_mul(self.dense(), other.dense()))
        _check_range(terms.values(), self.den * other.den)
        return _Sum(terms, self.den * other.den)

    def __truediv__(self, other: "_Sum") -> RationalFunction:
        a, b = exact_mul(self.dense(), ((other.den, 0),)), exact_mul(other.dense(), ((self.den, 0),))
        return RationalFunction.of_exact(a, b)


def _table(p: Exact) -> dict[int, tuple[int, int]]:
    return {k: c for k, c in enumerate(p) if c != (0, 0)}


def _sum(value) -> _Sum | RationalFunction:
    """A monomial (k, x, y, den) as its table; a table or a RationalFunction as it is."""
    if type(value) is tuple:
        k, x, y, den = value
        return _Sum({k: (x, y)} if x or y else {}, den)
    return value


def _rational(value) -> RationalFunction:
    value = _sum(value)
    return RationalFunction.of_exact(value.dense(), ((value.den, 0),)) if isinstance(value, _Sum) else value


def _degrees(value) -> tuple[int, int]:
    """(deg N, deg D) of the reduced pair; the zero function's N has degree -1."""
    if type(value) is tuple:
        return (value[0] if value[1] or value[2] else -1), 0
    return (value.top, 0) if isinstance(value, _Sum) else value.degrees


def _power_allowed(base, exp: int) -> bool:
    """Whether ``base`` is a monomial c z^k, k != 0, and |exp| times the bit
    length of the parts of c in lowest terms (as the reduced pair holds
    them) is at most MAX_POWER_BITS: the rule for |exp| > MAX_EXPONENT."""
    if type(base) is tuple:
        k, x, y, den = base
        g = math.gcd(x, y, den)
        monomial, parts = k and (x or y), (x // g, y // g, den // g)
    elif isinstance(base, RationalFunction) and not base.is_constant:
        a, b = base.pair
        monomial, parts = not any(x or y for p in (a, b) for x, y in p[:-1]), a[-1] + b[-1]
    else:  # a constant, or a table of several terms
        return False
    return bool(monomial) and abs(exp) * max(abs(x).bit_length() for x in parts) <= MAX_POWER_BITS


def _raised(base, exp: int):
    """base^exp, with the checks on its exponent and degree passed."""
    if exp < 0 or isinstance(base, RationalFunction):
        return _rational(base) ** exp
    if type(base) is _Sum:  # of several terms
        p, den = base.dense(), base.den**exp
        if _power_out_of_range(p, (base.den, 0), exp):
            raise OverflowError(OUT_OF_RANGE)
        terms = _table(exact_pow(p, exp))
        _check_range(terms.values(), den)
        return _Sum(terms, den)
    # a monomial's power is one power of its coefficient, taken in lowest terms
    k, x, y, den = base
    if (x, y, den) == (1, 0, 1):
        return k * exp, 1, 0, 1
    g = math.gcd(x, y, den)
    x, y, den = x // g, y // g, den // g
    ((u, v),) = exact_pow(((x, y),), exp)
    if not _is_unit(x, y, den):
        _check_range(((u, v),), den**exp)
    return k * exp, u, v, den**exp


def _position(text: str, k: int) -> int:
    """Where token k of ``_lex(text)`` starts; it is found again only for an error."""
    return ([m.start(1) for m in _TOKEN.finditer(text)] + [len(text)])[k]


def _literal(text: str, k: int, token: str) -> tuple[int, int, int, int]:
    """Token k, no operator or name, as the monomial (0, x, y, den) of the
    number it spells, refused outside the range of a double."""
    if token[0] not in "0123456789.":
        raise ExpressionError(f"unexpected character {token!r}", _position(text, k))
    raw = token.removesuffix("i")
    if len(raw) < 309 and raw.isdigit():  # below 10^308
        value = int(raw)
    else:
        if len(raw) > MAX_LITERAL:
            raise ExpressionError(f"number of more than {MAX_LITERAL} characters", _position(text, k))
        try:
            rounded = float(raw)
        except ValueError:
            raise ExpressionError(f"malformed number {raw!r}", _position(text, k)) from None
        if math.isinf(rounded):
            raise ExpressionError(f"number {raw!r} overflows a double", _position(text, k))
        if rounded == 0 and raw.lower().split("e")[0].strip("0."):
            raise ExpressionError(f"number {raw!r} underflows a double", _position(text, k))
        # the range check comes first: it bounds the exponent Fraction expands
        value = int(raw) if raw.isdigit() else Fraction(raw) if rounded else 0
    n, den = value.numerator, value.denominator
    return (0, 0, n, den) if raw != token else (0, n, 0, den)


def _lex(text: str) -> list:
    """The tokens of ``text``, in one scan, each distinct spelling read once: an operator
    or parenthesis as its character, a number, 'i' or 'z' as its monomial, and '$' last."""
    tokens, values = _TOKEN.findall(text), dict(_NAMES)
    for k, token in enumerate(tokens):
        if token not in values:
            values[token] = _literal(text, k, token)
    return [values[token] for token in tokens] + ["$"]


class _Parser:
    """Recursive descent over the tokens of ``_lex``: each rule returns a
    monomial (k, x, y, den), a ``_Sum`` or a ``RationalFunction``."""

    def __init__(self, text: str):
        self.text, self.tokens, self.k, self.depth = text, _lex(text), 0, 0

    def error(self, message: str, k: int | None = None) -> ExpressionError:
        return ExpressionError(message, _position(self.text, self.k if k is None else k))

    def check_degree(self, bound: int, k: int) -> None:
        """Refuse operator k when its result can have a degree above MAX_DEGREE."""
        if bound > MAX_DEGREE:
            raise self.error(f"degree overflow: the result can reach degree {bound} > {MAX_DEGREE}", k)

    # expr := term (('+'|'-') term)*
    def expr(self):
        out = self.term()
        while (op := self.tokens[self.k]) in ("+", "-"):
            at = self.k
            self.k += 1
            rhs = self.term()
            if isinstance(out, RationalFunction) or isinstance(rhs, RationalFunction):
                (a, b), (c, d) = _degrees(out), _degrees(rhs)
                self.check_degree(max(a + d, c + b, b + d), at)
                out, rhs = _rational(out), _rational(rhs)
                out = out + rhs if op == "+" else out - rhs
            else:  # two tables within the degree cap: so is their sum
                out = _sum(out).merge(rhs, 1 if op == "+" else -1)
        return out

    # term := factor (('*'|'/') factor)*
    def term(self):
        out = self.factor()
        while (op := self.tokens[self.k]) in ("*", "/"):
            at = self.k
            self.k += 1
            rhs = self.factor()
            if op == "*" and type(out) is tuple and type(rhs) is tuple:  # two monomials
                j, x, y, p = out
                k, u, v, q = rhs
                if j + k > MAX_DEGREE and (x or y) and (u or v):
                    self.check_degree(j + k, at)
                c = (x * u - y * v, x * v + y * u)
                if not (_is_unit(u, v, q) or _is_unit(x, y, p)):
                    _check_range((c,), p * q)
                out = (j + k, c[0], c[1], p * q)
                continue
            (a, b), (c, d) = _degrees(out), _degrees(rhs)
            if op == "/" and c < 0:
                raise self.error("division by the zero polynomial", at)
            self.check_degree(max(a + c, b + d) if op == "*" else max(a + d, b + c), at)
            if isinstance(out, RationalFunction) or isinstance(rhs, RationalFunction):
                out, rhs = _rational(out), _rational(rhs)
            else:
                out, rhs = _sum(out), _sum(rhs)
            out = out * rhs if op == "*" else out / rhs
        return out

    # factor := '-' factor | base ('^' signed-int)?
    def factor(self):
        token = self.tokens[self.k]
        self.k += 1
        if type(token) is tuple:
            out = token
        elif token == "-" or token == "(":  # one level deeper until its operand is read
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error(f"nesting deeper than {MAX_NESTING} levels", self.k - 1)
            if token == "-":
                out = self.factor()
                self.depth -= 1
                return (out[0], -out[1], -out[2], out[3]) if type(out) is tuple else -out
            out = self.expr()
            if self.tokens[self.k] != ")":
                raise self.error("expected ')'")
            self.k += 1
            self.depth -= 1
        else:
            raise self.error("expected a number, 'z' or '('", self.k - 1)
        if self.tokens[self.k] != "^":
            return out
        at = self.k
        self.k += 1
        exp = self.exponent()
        if type(out) is _Sum and len(out.terms) < 2:  # a monomial
            ((k, (x, y)),) = out.terms.items() or ((0, (0, 0)),)
            out = (k, x, y, out.den)
        if abs(exp) > MAX_EXPONENT and not _power_allowed(out, exp):
            raise self.error(f"exponent overflow: |{exp}| > {MAX_EXPONENT}", at)
        top, bottom = _degrees(out)
        if exp < 0 and top < 0:
            raise self.error("negative power of zero", at)
        self.check_degree(max(top, bottom, 0) * abs(exp), at)
        return _raised(out, exp)

    def exponent(self) -> int:
        sign = -1 if self.tokens[self.k] == "-" else 1
        if self.tokens[self.k] in ("+", "-"):
            self.k += 1
        token = self.tokens[self.k]
        if type(token) is not tuple or token[0] or token[2] or token[3] != 1:  # no integer literal
            raise self.error("expected an integer exponent")
        self.k += 1
        return sign * token[1]


def parse_expression(text: str) -> RationalFunction:
    """Parse an expression into a reduced RationalFunction.

    Raises ExpressionError carrying the 0-based offending position for any
    malformed input, division by an identically-zero subexpression, an
    exponent with absolute value above 64 on a base other than a monomial
    c z^k of small enough c, or an intermediate result that can reach a
    degree above 4096.
    """
    parser = _Parser(text)
    out = parser.expr()
    if parser.tokens[parser.k] != "$":
        raise parser.error("unexpected trailing input")
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
        parts.append("+" + term if parts and not term.startswith("-") else term)
    return "".join(parts)


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
