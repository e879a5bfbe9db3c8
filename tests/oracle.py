"""Reference computations for the tests, apart from the routes they check.

Each reference is computed from exact input, a map's reduced pair
(``RationalFunction.pair``), a point's exact factor (``SpherePoint.factor``)
or an expression's text, over sympy's QQ_I, and rounded by mpmath only at
the end.  No function here calls a route of ``wlab``, except the φ-forms'
longer route below: the module reads the pair, a point's factor or value,
and the parser's limits and error type, and shares no code with what it
checks.  It imports neither pytest nor any test module.  The pieces:

- the expression grammar over QQ_I(z) (``parse``, ``pair``), exact, with
  its own tokenizer and walk.  A literal overflows a double when its exact
  value rounds to infinity, at 2^1024 - 2^970 and above, and underflows
  when it is nonzero and rounds to 0, at 2^-1075 and below;
- the φ-forms by products and sums of reduced ``RationalFunction`` values,
  each cancelled on its own (``phi_forms``), and an exponent table whose
  basis refines the φ-denominators themselves (``phi_denominator_table``):
  ``phi_from_data`` reduces each form once over a shared denominator, so
  the two meet only in the reduced pairs and exponents;
- the order and the value at infinity (``order``, ``at_infinity``), exact,
  off the pair; a point is a ``SpherePoint`` (``exact_point``);
- roots at 50 digits (``roots``, any precision given): sympy's exact
  square-free layers, each rooted by mpmath, a line's root exactly; values
  of a polynomial or a map at exact or binary points (``values``,
  ``map_values``), exact and rounded once to 50 digits; ``close`` compares
  at 60 digits;
- the fibre over an exact value (``fibre``), and the fibre table at 60
  digits (``Fibres``): the punctures at their exact points, infinity, and
  the roots of the exact square-free layers of W = N'D - ND', each with
  local degree 1 + its exact order in W and its value; the shared values
  of two maps (``shared_values``) off two tables and the layers of the
  cross numerator N_A D_B - N_B D_A;
- residues and the sum Σφ² over QQ_I, exact (``residue``,
  ``sum_of_squares``), and a trapezoidal residue in doubles on a circle
  (``contour_residue``);
- the total curvature by adaptive polar Gauss-Legendre quadrature on the
  two unit-disk charts, to about 1e-3 relative (``total_curvature``,
  ``polar_integral``, ``density``, ``at_reciprocal``);
- the mesh fixtures' closed-form primitives at 30 digits (``mesh_coordinates``);
- the quadratic scans that ``PointIndex`` and ``FiberTable.fiber`` replace
  (``scan_distinct``, ``scan_fiber``).
"""

from __future__ import annotations

import heapq
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import sympy
from sympy.polys.rings import PolyElement, ring

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
        out[k] = _parts(c)
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


# -- exact polynomials over QQ_I --------------------------------------------------------

RING, _z = ring("z", sympy.QQ_I)
_ZZ_I, _ = ring("z", sympy.ZZ_I)
FIBRE_DIGITS = 60
VALUE_RTOL = 1e-30  # one value at 60 digits


def _parts(c) -> tuple[Fraction, Fraction]:
    """A QQ_I element as (re, im)."""
    return Fraction(int(c.x.numerator), int(c.x.denominator)), Fraction(int(c.y.numerator), int(c.y.denominator))


def gaussian(x) -> tuple[Fraction, Fraction]:
    """x exactly as (re, im): a pair, a rational, or a float, complex or
    mpmath number at its binary value."""
    if isinstance(x, tuple):
        return Fraction(x[0]), Fraction(x[1])
    if isinstance(x, (int, Fraction)):
        return Fraction(x), Fraction(0)
    if not isinstance(x, mpmath.mpc):
        x = complex(x)
        return Fraction(x.real), Fraction(x.imag)
    return tuple((-1) ** sign * Fraction(int(m)) * Fraction(2) ** e for sign, m, e, _ in (x.real._mpf_, x.imag._mpf_))


def _pair_of(f) -> tuple:
    return f.pair if hasattr(f, "pair") else f


def poly(p):
    """p over QQ_I: a ring element, a polynomial's text, or coefficients lowest first."""
    if isinstance(p, PolyElement):
        return p
    if isinstance(p, str):
        p, den = reduced(parse(p))
        assert len(den) == 1, "not a polynomial"
    return RING.from_dict({(k,): sympy.QQ_I(*gaussian(c)) for k, c in enumerate(p) if any(gaussian(c))})


def _over_zz_i(f, *ps):
    """f applied to the ps put over ZZ_I, where sympy's gcd is fast, each
    times its common denominator."""
    out = []
    for p in map(exact_parts, map(poly, ps)):
        q = math.lcm(*(x.denominator for c in p for x in c))
        out.append(_ZZ_I.from_dict({(k,): sympy.ZZ_I(int(a * q), int(b * q)) for k, (a, b) in enumerate(p) if a or b}))
    return f(*out)


def _monic(p):
    return RING.from_dict({m: sympy.QQ_I(int(c.x), int(c.y)) for m, c in p.items()}).monic()


def gcd(p, q):
    """The monic gcd over QQ_I."""
    return _monic(_over_zz_i(lambda a, b: a.gcd(b), p, q))


def layers(p) -> list[tuple]:
    """sympy's square-free layers (L_k, k) of p = c prod L_k^k, each L_k monic of degree at least 1."""
    return [(_monic(layer), k) for layer, k in _over_zz_i(lambda a: a.sqf_list()[1], p) if layer.degree() >= 1]


def _strip(p, line):
    """p with every factor ``line`` divided out, and how many there were."""
    k = 0
    while p and p.rem(line).is_zero:
        p, k = p.exquo(line), k + 1
    return p, k


def wronskian(f):
    """W = N'D - ND' of a map's pair."""
    num, den = (poly(p) for p in _pair_of(f))
    return num.diff(_z) * den - num * den.diff(_z)


# -- points and orders -----------------------------------------------------------------


def _line_root(line) -> tuple[Fraction, Fraction]:
    """The root of c0 + c1 z, its coefficients exact (re, im) pairs."""
    (a, b), (c, d) = line
    return Fraction(-(a * c + b * d)) / (c * c + d * d), Fraction(a * d - b * c) / (c * c + d * d)


def exact_point(point) -> tuple[Fraction, Fraction] | None:
    """A ``SpherePoint`` exactly, None at infinity: the root of its linear
    ``factor``, else the literal its value prints as (0.1 is 1/10)."""
    if point.is_infinity:
        return None
    if point.factor is None:
        return Fraction(repr(point.value.real)), Fraction(repr(point.value.imag))
    assert len(point.factor) == 2, "a point on a factor of higher degree"
    return _line_root(point.factor)


def _line(z0):
    return _z - sympy.QQ_I(*z0)


def order(f, point) -> int:
    """The order of f = a / b at a ``SpherePoint``: at infinity the degree
    gap, else e(a) - e(b) for the exponents of the point's ``factor`` (the
    line through the exact point where it has none); raises where the
    factor's roots have different orders."""
    a, b = _pair_of(f)
    if point.is_infinity:
        return len(b) - len(a)
    q = poly(point.factor) if point.factor is not None else _line(exact_point(point))
    (a, e_a), (b, e_b) = _strip(poly(a), q), _strip(poly(b), q)
    if any(p and gcd(p, q).degree() > 0 for p in (a, b)):
        raise ArithmeticError("the roots of the factor have different orders")
    return e_a - e_b


def at_infinity(f) -> tuple[Fraction, Fraction] | None:
    """f(inf) exactly off the pair, None where it is infinity."""
    a, b = (poly(p) for p in _pair_of(f))
    if a.degree() != b.degree():
        return None if a.degree() > b.degree() else (Fraction(0), Fraction(0))
    return _parts(a.LC / b.LC)


# -- roots and values ------------------------------------------------------------------


def _mpc(z):
    return mpmath.mpc(*(mpmath.mpf(x.numerator) / x.denominator for x in z))


def _located(p, digits: int) -> list:
    """The roots of a square-free p at ``digits`` digits: a line's exact
    root rounded once, else mpmath's iteration from the eigenvalue roots in
    doubles, or from its own start where that does not converge."""
    parts = exact_parts(p)
    if len(parts) < 2:
        return []
    with mpmath.workdps(digits):
        if len(parts) == 2:
            return [_mpc(_line_root(parts))]
        coeffs = [_mpc(c) for c in reversed(parts)]
        start = np.roots([complex(c) for c in coeffs])
        try:
            if len(start) != len(parts) - 1 or not np.isfinite(start).all():
                raise mpmath.libmp.NoConvergence
            found = mpmath.polyroots(coeffs, maxsteps=400, extraprec=200, roots_init=[mpmath.mpc(r) for r in start])
        except mpmath.libmp.NoConvergence:
            found = mpmath.polyroots(coeffs, maxsteps=500, extraprec=200)
        return [mpmath.mpc(r) for r in found]


def roots(p, digits: int = 50) -> list[tuple]:
    """(root, multiplicity) for each distinct root of p (see ``poly``): the
    roots of each exact square-free layer, at ``digits`` digits."""
    return [(z, k) for layer, k in layers(p) for z in _located(layer, digits)]


def fibre(f, a) -> list[tuple]:
    """f^-1(a) as (point, multiplicity), for a exact (re, im) or None at
    infinity: the roots of N - aD (of D), and infinity with the balance."""
    num, den = (poly(p) for p in _pair_of(f))
    degree = max(num.degree(), den.degree())
    if degree < 1:
        raise ValueError("a constant map has no finite fibre")
    p = den if a is None else num - den * sympy.QQ_I(*a)
    return roots(p, FIBRE_DIGITS) + [(None, degree - p.degree())] * (p.degree() < degree)


def _horner(coeffs, z) -> tuple[int, int, int]:
    """(re, im, den) with p(z) = (re + i im) / den exactly: Horner's rule
    over Z[i], the coefficients and z each over one denominator."""
    q = math.lcm(*(x.denominator for c in coeffs for x in c))
    m = math.lcm(z[0].denominator, z[1].denominator)
    x, y = int(z[0] * m), int(z[1] * m)
    cs = [(int(a * q), int(b * q)) for a, b in coeffs] or [(0, 0)]
    (re, im), power = cs[-1], 1
    for a, b in reversed(cs[:-1]):
        power *= m
        re, im = re * x - im * y + a * power, re * y + im * x + b * power
    return re, im, q * m ** (len(cs) - 1)


def map_values(f, points, digits: int = 50) -> list:
    """f(z) = a(z) / b(z) at each point (read by ``gaussian``), exactly from
    the pair and rounded once to ``digits`` digits; None at a pole."""
    a, b = (exact_parts(poly(p)) for p in _pair_of(f))
    out = []
    with mpmath.workdps(digits):
        for z in map(gaussian, points):
            (u, v, e), (c, d, g) = _horner(a, z), _horner(b, z)
            norm = c * c + d * d
            out.append(_mpc((Fraction((u * c + v * d) * g, norm * e), Fraction((v * c - u * d) * g, norm * e))) if norm else None)
    return out


def values(p, points, digits: int = 50, derivative: bool = False) -> list:
    """p(z), or p'(z), at each point, exactly and rounded once (``map_values``)."""
    p = poly(p)
    return map_values((p.diff(_z) if derivative else p, [(1, 0)]), points, digits)


def close(x, y, atol, rtol=0.0) -> bool:
    """Whether two values (None at infinity) are one: both None, or
    |x - y| <= atol + rtol |y|, taken at 60 digits."""
    if x is None or y is None:
        return x is None and y is None
    with mpmath.workdps(FIBRE_DIGITS):
        return abs(mpmath.mpmathify(x) - y) <= atol + rtol * abs(y)


# -- fibres ------------------------------------------------------------------------------


def same(x, y, rtol: float = VALUE_RTOL) -> bool:
    """Whether two values (None at infinity) are one: within rtol (1 + |y|)."""
    return close(x, y, rtol, rtol)


class Fibres:
    """The fibre table of a non-constant map f = N / D, at 60 digits.

    ``entries`` holds (point, local degree, value, is_puncture) for each
    finite puncture (a ``SpherePoint``) at its exact point, with local
    degree 1 + the exact order of W = N'D - ND' there; then infinity, with
    2 deg f - 1 - deg W; then the roots of each exact square-free layer W_k
    of W with the punctures divided out, with 1 + k.  Every other point is
    a simple preimage of its value.  ``classes`` groups the entries by
    value: (value, [(point, local degree, is_puncture)], the number of
    simple preimages outside the table).  Points and values are mpmath
    numbers, None at infinity.
    """

    def __init__(self, f, punctures=()):
        self.num, self.den = (poly(p) for p in _pair_of(f))
        w = wronskian((self.num, self.den))
        if not w:
            raise ValueError("a constant map has no finite fibre")
        self.degree, self.classes = max(self.num.degree(), self.den.degree()), []
        points = [z0 for z0 in map(exact_point, punctures) if z0 is not None]
        self.lines, entries = [_line(z0) for z0 in points], []
        with mpmath.workdps(FIBRE_DIGITS):
            value = at_infinity((self.num, self.den))
            self.at_infinity = None if value is None else _mpc(value)
            e_inf = 2 * self.degree - 1 - w.degree()
            for z0, line in zip(points, self.lines):
                w, k = _strip(w, line)
                entries.append((_mpc(z0), 1 + k, self.value(z0), True))
        entries.append((None, e_inf, self.at_infinity, any(p.is_infinity for p in punctures)))
        self.entries = entries + [(z, 1 + k, v, False) for z, k, v in self.roots_and_values(w)]
        for z, e, v, puncture in self.entries:
            k = next((k for k, c in enumerate(self.classes) if same(v, c[0])), len(self.classes))
            u, pts, simple = self.classes[k] if k < len(self.classes) else (v, [], self.degree)
            self.classes[k : k + 1] = [(u, pts + [(z, e, puncture)], simple - e)]

    def value(self, z):
        return map_values((self.num, self.den), [z], FIBRE_DIGITS)[0]

    def roots_and_values(self, p) -> list[tuple]:
        """(root, k, f's value) for the roots of each square-free layer L_k
        of p; the roots of gcd(L_k, D) are the poles."""
        out = []
        for layer, k in layers(p):
            poles = gcd(layer, self.den)
            out += [(z, k, None) for z in _located(poles, FIBRE_DIGITS)]
            out += [(z, k, self.value(z)) for z in _located(layer.exquo(poles), FIBRE_DIGITS)]
        return out

    def class_of(self, value, rtol: float = VALUE_RTOL) -> int | None:
        """The index of the one class within rtol of value (a number, a
        sphere point or None), or None."""
        hits = [k for k, c in enumerate(self.classes) if same(getattr(value, "value", value), c[0], rtol)]
        assert len(hits) <= 1, (value, hits)
        return hits[0] if hits else None

    def free_count(self, value) -> int:
        """The number of distinct preimages of value off the punctures."""
        k = self.class_of(value)
        if k is None:
            return self.degree
        return sum(1 for _z, _e, puncture in self.classes[k][1] if not puncture) + self.classes[k][2]


def shared_values(fa, fb, punctures=()) -> list[tuple] | None:
    """(value, delta) for each value whose preimage sets off the punctures
    (``SpherePoint`` values) are one set under both maps, None where they
    are one map.

    The common points, the roots of N_A D_B - N_B D_A off the punctures and
    infinity where both maps agree there, lie in both fibres over their
    value; so the two sets coincide exactly where each holds as many
    points as there are common points over the value.  A shared value is a
    value at a common point, or has both sets empty and is a puncture
    image: with infinity, these are the candidates.
    """
    a, b = tables = Fibres(fa, punctures), Fibres(fb, punctures)
    cross = a.num * b.den - b.num * a.den
    if not cross:
        return None
    for line in a.lines:
        cross, _k = _strip(cross, line)
    common = [v for _z, _k, v in a.roots_and_values(cross)]
    if not any(p.is_infinity for p in punctures) and same(a.at_infinity, b.at_infinity):
        common.append(a.at_infinity)
    images = [v for t in tables for _z, _e, v, puncture in t.entries if puncture]
    shared = []
    for value in [*images, *common, None]:
        delta = sum(1 for v in common if same(v, value))
        if not any(same(value, v) for v, _d in shared) and a.free_count(value) == b.free_count(value) == delta:
            shared.append((value, delta))
    return shared


# -- residues over QQ_I ------------------------------------------------------------------


def _residue(a, b, z0):
    """Res at z0 of (a / b) dz over QQ_I: a and b shifted to t = z - z0, m
    the order of b at t = 0, and the t^(m-1) coefficient of the series
    a / (b / t^m), by field division."""
    zero = sympy.QQ_I(0, 0)
    top, bottom = ([p.coeff(_z**k) for k in range(p.degree() + 1)] if p else [] for p in (poly(q).compose(_z, _z + z0) for q in (a, b)))
    m = next(k for k, c in enumerate(bottom) if c)
    bottom, series = bottom[m:], []
    for j in range(m):
        acc = top[j] if j < len(top) else zero
        for i in range(1, min(j, len(bottom) - 1) + 1):
            acc -= bottom[i] * series[j - i]
        series.append(acc / bottom[0])
    return series[-1] if series else zero


def residue(f, point) -> tuple[Fraction, Fraction]:
    """The exact residue of f dz at a sphere point; at infinity, minus the
    residue at w = 0 of f(1/w) / w^2 dw (``at_reciprocal``)."""
    a, b = _pair_of(f)
    if not point.is_infinity:
        return _parts(_residue(a, b, sympy.QQ_I(*exact_point(point))))
    top, bottom = at_reciprocal(f)
    return _parts(-_residue(top, ((0, 0),) * 2 + bottom, sympy.QQ_I(0, 0)))


def sum_of_squares(forms):
    """The numerator of sum(phi_k^2) over QQ_I: the sum over k of a_k^2
    times the b_j^2 with j != k, for the exact pairs (a_k, b_k)."""
    pairs = [[poly(p) for p in _pair_of(f)] for f in forms]
    total = RING.zero
    for k, (a, _b) in enumerate(pairs):
        term = a**2
        for j, (_a, b) in enumerate(pairs):
            term *= b**2 if j != k else 1
        total += term
    return total


def _integer_parts(p) -> tuple:
    """The coefficients of p over Z[i] as int pairs, lowest first."""
    return tuple((int(a), int(b)) for a, b in exact_parts(p))


def _float_views(*parts) -> list[np.ndarray]:
    """Polynomials over Z[i] in doubles, highest first; a part past the
    range of a double raises OverflowError."""
    return [np.array([complex(x, y) for x, y in reversed(p)] or [0j]) for p in parts]


def contour_residue(f, center: complex, radius: float, nodes: int) -> complex:
    """Trapezoidal estimate of the residue of f dz on a circle around
    ``center``, the pair evaluated in doubles."""
    a, b = _float_views(*_pair_of(f))
    w = np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return complex(radius / nodes * np.sum(np.polyval(a, center + radius * w) / np.polyval(b, center + radius * w) * w))


# -- total curvature by quadrature -------------------------------------------------------
#
# The density 2(σ1² + σ2²), σ = |g'| / (1 + |g|²) = |a'b - ab'| / (|a|² + |b|²)
# for g = a / b, is smooth on the whole sphere, so it is integrated over
# |z| <= 1 in the chart z and over |w| <= 1 in the chart w = 1/z, by
# adaptive tensor Gauss-Legendre cells in polar coordinates.


def at_reciprocal(g) -> tuple:
    """The exact pair of w -> g(1/w): each side's coefficients reversed,
    times w^(deg b - deg a) on the side it lands on."""
    a, b = _pair_of(g)
    gap = len(b) - len(a) if a else 0
    top, bottom = [(0, 0)] * max(gap, 0) + list(a[::-1]), [(0, 0)] * max(-gap, 0) + list(b[::-1])
    return _integer_parts(poly(top)), _integer_parts(poly(bottom))


def density(g1, g2):
    """The total-curvature density 2(σ1² + σ2²) of two maps, as a callable."""
    views = [_float_views(*_pair_of(g), _integer_parts(wronskian(g))) for g in (g1, g2)]

    def fn(z):
        sigma = [np.abs(np.polyval(w, z)) / (np.abs(np.polyval(a, z)) ** 2 + np.abs(np.polyval(b, z)) ** 2) for a, b, w in views]
        return 2.0 * sum(s * s for s in sigma)

    return fn


def _cell_integral(fn, r0, r1, t0, t1, n):
    x, w = np.polynomial.legendre.leggauss(n)
    rm, rh, tm, th = 0.5 * (r1 + r0), 0.5 * (r1 - r0), 0.5 * (t1 + t0), 0.5 * (t1 - t0)
    rr, tt = np.meshgrid(rm + rh * x, tm + th * x, indexing="ij")
    return float(rh * th * np.einsum("i,j,ij->", w, w, fn(rr * np.exp(1j * tt)) * rr))


def polar_integral(fn, r0, r1, rtol):
    """Adaptive quadrature over the annulus r0 <= |z| <= r1: the cell with
    the largest |GL8 - GL4| is split in four until the summed estimate is
    within rtol of the total."""
    heap, total, err, seq = [], 0.0, 0.0, itertools.count()

    def push(cell):
        nonlocal total, err
        coarse, fine = _cell_integral(fn, *cell, 4), _cell_integral(fn, *cell, 8)
        heapq.heappush(heap, (-abs(fine - coarse), next(seq), cell, fine))
        total, err = total + fine, err + abs(fine - coarse)

    rs, ts = np.linspace(r0, r1, (2 if r0 > 0 else 4) + 1), np.linspace(0.0, 2.0 * math.pi, 9)
    for i in range(len(rs) - 1):
        for j in range(len(ts) - 1):
            push((float(rs[i]), float(rs[i + 1]), float(ts[j]), float(ts[j + 1])))
    while err > rtol * max(abs(total), 1e-12):
        assert len(heap) < 20000, f"no convergence: {total} +- {err} after {len(heap)} cells"
        neg_err, _s, (a, b, c, d), val = heapq.heappop(heap)
        total, err = total - val, err + neg_err
        rm, tm = 0.5 * (a + b), 0.5 * (c + d)
        for child in ((a, rm, c, tm), (a, rm, tm, d), (rm, b, c, tm), (rm, b, tm, d)):
            push(child)
    return math.fsum(item[3] for item in heap)


def total_curvature(g1, g2) -> float:
    """The total curvature of Gauss maps g1, g2 to about 1e-3 relative, on
    the two unit-disk charts; punctures carry no mass."""
    inner = polar_integral(density(g1, g2), 0.0, 1.0, 5e-4)
    return -(inner + polar_integral(density(at_reciprocal(g1), at_reciprocal(g2)), 0.0, 1.0, 5e-4))


# -- the mesh fixtures' primitives -------------------------------------------------------

_I = mpmath.mpc(0, 1)


def _example23_primitive(z):
    # phi = (1 + z, i (1 - z), z - 1, -i (z + 1)) / (2 z^3)
    return (
        -1 / (4 * z**2) - 1 / (2 * z),
        _I * (-1 / (4 * z**2) + 1 / (2 * z)),
        1 / (4 * z**2) - 1 / (2 * z),
        _I * (1 / (2 * z) + 1 / (4 * z**2)),
    )


def _example21_primitive(z):
    # with h = 1/((z-1)(z-2)(z-3)): (1 + z^2) h = 1/(z-1) - 5/(z-2) + 5/(z-3),
    # (1 - z^2) h = 3/(z-2) - 4/(z-3) and z h = 1/(2(z-1)) - 2/(z-2) + 3/(2(z-3));
    # log(p - z) keeps the branch cut right of every pole, off the region
    l1, l2, l3 = mpmath.log(1 - z), mpmath.log(2 - z), mpmath.log(3 - z)
    return (
        (l1 - 5 * l2 + 5 * l3) / 2,
        _I / 2 * (3 * l2 - 4 * l3),
        mpmath.mpf(0),
        -_I * (l1 / 2 - 2 * l2 + 3 * l3 / 2),
    )


PRIMITIVES = {"example23": _example23_primitive, "example21": _example21_primitive}


def mesh_coordinates(name: str, base: complex, points) -> np.ndarray:
    """x at each point for the fixture ``name``: the real parts of its
    closed-form primitive there less at ``base``, at 30 digits, each
    rounded once to a double."""
    primitive = PRIMITIVES[name]
    with mpmath.workdps(30):
        at_base = primitive(mpmath.mpmathify(base))
        return np.array([[float(mpmath.re(f - f0)) for f, f0 in zip(primitive(mpmath.mpmathify(z)), at_base)] for z in points])


# -- the quadratic scans -----------------------------------------------------------------


def _close(p, q, eps_pt: float) -> bool:
    if p.value is None or q.value is None:
        return p.value is None and q.value is None
    return abs(p.value - q.value) <= eps_pt


def scan_distinct(points, eps_pt: float) -> list:
    """The points within eps_pt of none kept before them."""
    out = []
    for p in points:
        if not any(_close(p, q, eps_pt) for q in out):
            out.append(p)
    return out


def scan_fiber(entries, value, eps_pt: float) -> list:
    """The preimages of the (preimage, value) entries within eps_pt of value,
    sorted by (re, im), infinity last, ties in entry order."""
    return sorted(
        (pre for pre, v in entries if _close(v, value, eps_pt)),
        key=lambda pre: (1,) if pre.point.value is None else (0, pre.point.value.real, pre.point.value.imag),
    )
