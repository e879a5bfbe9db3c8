"""Rational functions on the Riemann sphere.

A RationalFunction is a quotient of two polynomials over Q(i), kept exactly
in reduced form with a monic denominator, and read through correctly rounded
float views of numerator and denominator, each built on first read.  That no
coefficient lies beyond the range of a double is proved on the exact pair
when it is made, by bit lengths, and only where that proof fails are the
views built then, to decide it.  Values, principal parts and residues are
computed for the function and for the differential f dz, with no tolerance,
at a point's exact factor (``SpherePoint.exact_factor``: the linear factor
of a literal, or the Yun factor a located root was found from); orders are
not computed here, but read off the exponents of one gcd-free basis
(``Analysis.orders_at``).  The value at infinity is read off the degrees
and leading entries.  Where the factor is linear (a literal P / Q, or a
located root of degree one) the value and the Laurent coefficients are
computed over Z[i], from the Taylor coefficients of the exact pair at P / Q,
and each is rounded once; ``GaussianRational`` keeps the exact value beside
the rounded one.  The residue at infinity is read off the exact
pseudo-remainder.  At located roots whose factor has higher degree, values
are read off the views (``poly.block_values``, once for all such points),
and a principal part there is refused: such poles occur only in data that
is not regular.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from wlab.poly import (
    OUT_OF_RANGE,
    Exact,
    Polynomial,
    block_values,
    coefficient_blocks,
    exact_add,
    exact_coeffs,
    exact_cofactors,
    exact_cancelled,
    exact_derivative,
    exact_exponent,
    exact_gcd,
    exact_mul,
    exact_pow,
    exact_primitive,
    exact_quotient,
    in_range,
    pseudo_divmod,
    rounded,
)
from wlab.tolerances import format_float

__all__ = ["SpherePoint", "INF", "PointIndex", "distinct_points", "GaussianRational", "EXACT_ZERO", "RationalFunction"]

@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: a finite complex value or infinity.

    ``value is None`` encodes the point at infinity. Equality of the
    dataclass is exact; use :meth:`close_to` for tolerance identity (finite
    points compare within eps_pt, infinity only equals infinity).

    ``factor`` is a primitive square-free polynomial over Z[i] that has
    the finite point as a root, and whose roots have one order in each
    function the point is used with: the linear factor Q z - P of a parsed
    literal P / Q, of which ``value`` is the correctly rounded view, or the
    Yun factor a ``LocatedRoot`` was found from, which a point made from one
    keeps.  Equality and hashing go by ``value`` alone.
    """

    value: complex | None = None
    factor: Exact | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.value is not None:
            if self.factor is None:
                object.__setattr__(self, "factor", getattr(self.value, "factor", None))
            # normalize -0.0 parts so formatting and sort order are stable
            v = complex(self.value)
            object.__setattr__(self, "value", complex(v.real + 0.0, v.imag + 0.0))

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    @staticmethod
    def of(x) -> "SpherePoint":
        if isinstance(x, SpherePoint):
            return x
        if isinstance(x, str):
            if x.strip().lower() == "inf":
                return INF
            raise ValueError(f"not a sphere point literal: {x!r}")
        if x is None:
            return INF
        return SpherePoint(x)

    @staticmethod
    def literal(x: Fraction | complex, y: Fraction = Fraction(0)) -> "SpherePoint":
        """The finite point x + iy, kept exactly.  A float part is read as the
        literal it prints as (its shortest repr), as the CLI reads a JSON
        number: 0.1 is 1/10, not the double nearest it."""
        if not isinstance(x, Fraction):
            x, y = (Fraction(repr(t)) for t in (complex(x).real, complex(x).imag))
        q = math.lcm(x.denominator, y.denominator)
        u, v = x.numerator * (q // x.denominator), y.numerator * (q // y.denominator)
        return SpherePoint(complex(x, y), exact_primitive(((-u, -v), (q, 0))))

    @property
    def exact_factor(self) -> Exact:
        """``factor``, else the linear factor of the literal ``value`` prints as."""
        return self.factor if self.factor is not None else SpherePoint.literal(self.value).factor

    def close_to(self, other: "SpherePoint", eps_pt: float) -> bool:
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return abs(self.value - other.value) <= eps_pt

    def sort_key(self):
        """Canonical ordering, infinity last.

        Finite points go by their printed (re, im) under ``format_float``,
        then by the raw (re, im): points whose real parts print alike are
        ordered by im, not by an ulp of re.
        """
        if self.is_infinity:
            return (1,)
        re, im = self.value.real, self.value.imag
        return (0, format_float(re), format_float(im), re, im)

    def __str__(self) -> str:
        if self.is_infinity:
            return "inf"

        def fmt(x: float) -> str:
            return str(int(x)) if x == int(x) else repr(x)

        v = self.value
        if v.imag == 0:
            return fmt(v.real)
        sign = "+" if v.imag >= 0 else "-"
        return f"{fmt(v.real)}{sign}{fmt(abs(v.imag))}i"


INF = SpherePoint(None)


class PointIndex:
    """Sphere points kept sorted, to find those close to a query without a scan.

    Finite points are held sorted by real part, so a bisection narrows a
    query to those whose real part lies within eps_pt of its own, widened by
    a few ulps, and ``close_to`` decides among them: a query finds exactly
    what ``close_to`` over every point finds.  Infinity is kept apart, and a
    point with a non-finite part is in no window, as it is close to nothing.
    """

    def __init__(self, eps_pt: float, points=()):
        self.eps_pt = eps_pt
        self.points: list[SpherePoint] = []
        self._infinite: list[int] = []
        self._re: list[float] = []  # the finite points' real parts, ascending
        self._at: list[int] = []  # and their positions in ``points``
        for p in points:
            self.add(p)

    def add(self, p: SpherePoint) -> None:
        if p.is_infinity:
            self._infinite.append(len(self.points))
        elif cmath.isfinite(p.value):
            k = bisect_right(self._re, p.value.real)
            self._re.insert(k, p.value.real)
            self._at.insert(k, len(self.points))
        self.points.append(p)

    def near(self, q: SpherePoint) -> list[int]:
        """The positions of the points ``close_to`` q, ascending."""
        if q.is_infinity:
            return list(self._infinite)
        if not cmath.isfinite(q.value):
            return []
        re, eps = q.value.real, self.eps_pt
        slack = eps * 2.0**-40 + abs(re) * 2.0**-50  # past what rounding the bounds and |a - b| can move
        window = self._at[bisect_left(self._re, re - eps - slack) : bisect_right(self._re, re + eps + slack)]
        return sorted(i for i in window if self.points[i].close_to(q, eps))


def distinct_points(points, eps_pt: float) -> list[SpherePoint]:
    """The points with near-duplicates dropped, keeping the first of each group:
    a point is kept when no point kept before it is ``close_to`` it."""
    kept = PointIndex(eps_pt)
    for p in points:
        if not kept.near(p):
            kept.add(p)
    return kept.points


class GaussianRational(complex):
    """A Gaussian rational as its correctly rounded view, each part rounded
    once, keeping its exact value: ``exact`` = (u, v, w) for (u + iv) / w
    with w > 0.  Arithmetic on it gives a plain complex."""

    __slots__ = ("exact",)

    def __new__(cls, u: int, v: int, w: int) -> "GaussianRational":
        self = super().__new__(cls, u / w, v / w)  # int division is correctly rounded
        self.exact = (u, v, w)
        return self

    @classmethod
    def quotient(cls, num: tuple[int, int], den: tuple[int, int]) -> "GaussianRational":
        """num / den for Gaussian integers, den != 0: num conj(den) / |den|^2."""
        (u, v), (s, t) = num, den
        return cls(u * s + v * t, v * s - u * t, s * s + t * t)


EXACT_ZERO = GaussianRational(0, 0, 1)


def _combination(a: Exact, d: Exact, c: Exact, b: Exact, sign: int) -> Exact:
    """a d + sign c b over Z[i]."""
    return exact_add(exact_mul(a, d), exact_mul(c, exact_mul(b, ((sign, 0),))))


def _taylor(a: Exact, line: Exact, n: int, terms: int) -> list[tuple[int, int]]:
    """The first ``terms`` coefficients in t of q^n a(p / q + t) over Z[i],
    for the root p / q of the linear factor q z - p and n >= deg a: the sum
    of a_k (p + q t)^k q^(n-k), by Horner in t truncated to ``terms``.  Its
    constant term is q^n a(p / q); the j-th is q^n a^(j)(p / q) / j!."""
    ((x, y), (g, h)) = line
    x, y = -x, -y
    acc = [(0, 0)] * terms
    qr, qi = 1, 0
    for c, d in reversed(a + ((0, 0),) * (n + 1 - len(a))):
        # acc <- acc (p + q t) + a_k q^(n-k)
        for j in range(terms - 1, 0, -1):
            (u, v), (s, t) = acc[j], acc[j - 1]
            acc[j] = (u * x - v * y + s * g - t * h, u * y + v * x + s * h + t * g)
        u, v = acc[0]
        acc[0] = (u * x - v * y + c * qr - d * qi, u * y + v * x + c * qi + d * qr)
        qr, qi = qr * g - qi * h, qr * h + qi * g
    return acc


def _gmul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _laurent(a: Exact, b: Exact, line: Exact, m: int) -> tuple["GaussianRational", ...]:
    """(a_-m, ..., a_-1) of a / b at the root p / q of the linear factor
    ``line``, a root of order m of b.

    With t = z - p / q and n = max(deg a, deg b), q^n a = sum A_j t^j and
    q^n b = t^m sum B_j t^j (``_taylor``; the first m terms of b's vanish),
    so the coefficients are those of the series A / B.  Each is kept over
    one Gaussian-integer denominator, S_j / B_0^(j+1) with
    S_j = A_j B_0^j - sum_{i=1..j} B_i S_(j-i) B_0^(i-1), and rounded once.
    """
    n = max(len(a), len(b)) - 1
    big_a, big_b = _taylor(a, line, n, m), _taylor(b, line, n, 2 * m)[m:]
    powers = [(1, 0)]
    for _ in range(m):
        powers.append(_gmul(powers[-1], big_b[0]))
    s = []
    for j in range(m):
        x, y = _gmul(big_a[j], powers[j])
        for i in range(1, j + 1):
            u, v = _gmul(_gmul(big_b[i], s[j - i]), powers[i - 1])
            x, y = x - u, y - v
        s.append((x, y))
    return tuple(GaussianRational.quotient(c, powers[j + 1]) for j, c in enumerate(s))


# (sqrt(2) 2^1024)^2: a Gaussian rational of larger squared modulus has a
# part beyond the range of a double
_BEYOND_RANGE = 2 * 4**1024


def _power_out_of_range(p: Exact, lead: tuple[int, int], n: int) -> bool:
    """Whether (p / lead)^n, n >= 0, certainly has a part beyond the range of
    a double.  A polynomial q of degree e has |q(x)| <= (e + 1) max|q_k| at
    |x| = 1, so |p(x) / lead|^n > (n deg p + 1) sqrt(2) 2^1024 at one x in
    {1, -1, i, -i} is a proof; it is tested squared, in integers."""
    bound = _BEYOND_RANGE * ((len(p) - 1) * n + 1) ** 2 * (lead[0] ** 2 + lead[1] ** 2) ** n
    for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        u = v = 0
        for c, d in reversed(p):
            u, v = u * x - v * y + c, u * y + v * x + d
        if (u * u + v * v) ** n > bound:
            return True
    return False


def _divides(f: Exact, c: Exact) -> bool:
    """Whether the primitive f divides c over Q(i)."""
    try:
        exact_quotient(c, f)
    except ArithmeticError:
        return False
    return True


class RationalFunction:
    """Quotient N / D of polynomials over Q(i), reduced, with D monic.

    The exact pair is held as (a, b) over Z[i] (``poly.Exact``) with
    N = a / L and D = b / L, where L, the leading entry of b, is the least
    positive integer that clears every denominator; so equal functions hold
    equal pairs.  ``num`` and ``den`` are the float views, each part
    correctly rounded, and every numeric step reads them; ``wronskian`` is
    the float view of N'D - ND'.  Each view is built on first read.  A
    result with a coefficient beyond the range of a double raises
    ``OverflowError`` when it is made: every part x of the pair with
    bit length at most that of L plus 1022 has |x / L| < 2^1023
    (``poly.in_range``), and the views are built at once only for a pair
    where some part is longer, to decide it.  A power that certainly leaves
    the range is refused before it is multiplied out.
    """

    __slots__ = ("_pair", "_num", "_den", "_wronskian")

    def __init__(self, num, den=None):
        (n, qn), (d, qd) = (
            exact_coeffs(x.coeffs if isinstance(x, Polynomial) else (x,)) for x in (num, 1 if den is None else den)
        )
        if not d:
            raise ZeroDivisionError("denominator is the zero polynomial")
        self._set(*exact_cofactors(exact_mul(n, ((qd, 0),)), exact_mul(d, ((qn, 0),))))

    def _set(self, a: Exact, b: Exact) -> None:
        """Hold a / b for coprime a, b over Z[i], in the form above."""
        if not a:
            b = ((1, 0),)
        x, y = b[-1]
        if y or x < 0:  # times the conjugate, the leading entry is real and positive
            a, b = exact_mul(a, ((x, -y),)), exact_mul(b, ((x, -y),))
        g = 1 if b[-1][0] == 1 else math.gcd(*(v for c in a + b for v in c))
        if g > 1:
            a, b = (tuple((x // g, y // g) for x, y in p) for p in (a, b))
        self._pair = (a, b)
        self._num = self._den = self._wronskian = None
        lead = b[-1][0]
        if not in_range(chain(*a, *b), lead):
            self._num, self._den = rounded(a, lead), rounded(b, lead)

    @classmethod
    def _of(cls, a: Exact, b: Exact) -> "RationalFunction":
        """a / b for coprime a, b over Z[i]."""
        out = cls.__new__(cls)
        out._set(a, b)
        return out

    @classmethod
    def of_exact(cls, a: Exact, b: Exact) -> "RationalFunction":
        """a / b for polynomials over Z[i], b nonzero, reduced by their gcd."""
        return cls._of(*exact_cofactors(a, b))

    # -- basic queries -------------------------------------------------------

    @property
    def num(self) -> Polynomial:
        if self._num is None:
            self._num = rounded(self._pair[0], self._pair[1][-1][0])
        return self._num

    @property
    def den(self) -> Polynomial:
        if self._den is None:
            self._den = rounded(self._pair[1], self._pair[1][-1][0])
        return self._den

    @property
    def wronskian(self) -> Polynomial:
        """The float view of N'D - ND': ``derivative_numerator`` / L^2."""
        if self._wronskian is None:
            self._wronskian = rounded(self.derivative_numerator(), self._pair[1][-1][0] ** 2)
        return self._wronskian

    @property
    def pair(self) -> tuple[Exact, Exact]:
        """The exact pair (a, b): N = a / L and D = b / L, L the leading entry of b."""
        return self._pair

    @property
    def is_zero(self) -> bool:
        return not self._pair[0]

    @property
    def degree(self) -> int:
        """Degree as a self-map of the sphere: max(deg N, deg D)."""
        return max(map(len, self._pair)) - 1 if self._pair[0] else 0

    @property
    def degrees(self) -> tuple[int, int]:
        """(deg N, deg D) of the exact pair; the zero function's N has degree -1."""
        a, b = self._pair
        return len(a) - 1, len(b) - 1

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    @property
    def constant_value(self) -> complex:
        if not self.is_constant:
            raise ValueError("not a constant rational function")
        return self.num.coeffs[0] if self.num.coeffs else 0j

    @classmethod
    def constant(cls, value) -> "RationalFunction":
        return cls(value)

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls._of(((0, 0), (1, 0)), ((1, 0),))

    def __repr__(self) -> str:
        return f"RationalFunction({list(self.num.coeffs)!r}, {list(self.den.coeffs)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalFunction) and self._pair == other._pair

    def __hash__(self) -> int:
        return hash(self._pair)

    def __call__(self, z):
        """Evaluate; scalar arguments at a pole raise ZeroDivisionError."""
        if isinstance(z, np.ndarray):
            return self.num(z) / self.den(z)
        dv = self.den(z)
        if dv == 0:
            raise ZeroDivisionError(f"evaluation at a pole: z={z}")
        return self.num(z) / dv

    # -- arithmetic ----------------------------------------------------------
    # Exact over Q(i).  The operands are reduced, so a gcd is taken only
    # where a common factor can arise (Knuth, TAOCP 2, 4.5.1): across the
    # factors of a product, and in a sum between the two denominators and
    # then between the new numerator and their gcd.

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, float, complex, Fraction, Polynomial)):
            return RationalFunction(other)
        return None

    def _sum(self, other: "RationalFunction", sign: int) -> "RationalFunction":
        """Henrici's sum of self = a / b and sign times other = c / d.

        With g = gcd(b, d), t = a (d/g) + sign c (b/g) over (b/g) d is the
        sum; t is prime to b/g and to d/g, so the pair shares only
        gcd(t, g), and that is all that is cancelled.
        """
        (a, b), (c, d) = self._pair, other._pair
        g = exact_gcd(b, d) if len(b) > 1 and len(d) > 1 else ((1, 0),)
        bg, dg = exact_cancelled(b, d, g)  # b/g and d/g, times one common factor
        num = _combination(a, dg, c, bg, sign)
        h = exact_gcd(num, g) if len(num) > 1 and len(g) > 1 else ((1, 0),)
        num, d = exact_cancelled(num, d, h)
        return RationalFunction._of(num, exact_mul(bg, d))

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._sum(o, 1)

    __radd__ = __add__

    def __neg__(self):
        a, b = self._pair
        return RationalFunction._of(exact_mul(a, ((-1, 0),)), b)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._sum(o, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _times(self, c: Exact, d: Exact) -> "RationalFunction":
        """self times c / d, both reduced: cancel across the factors only."""
        a, b = self._pair
        a, d = exact_cofactors(a, d)
        c, b = exact_cofactors(c, b)
        return RationalFunction._of(exact_mul(a, c), exact_mul(b, d))

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._times(*o._pair)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return self._times(*reversed(o._pair))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n: int):
        """The power, refused with ``OverflowError`` before it is multiplied
        out where a part of it certainly lies beyond the range of a double
        (``_power_out_of_range``): its numerator and denominator are a^n and
        b^n over lc(b)^n."""
        if not isinstance(n, int):
            return NotImplemented
        a, b = self._pair
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero function")
            a, b, n = b, a, -n
        # a monomial's power is one power of its coefficient, whose range _set decides
        several_terms = any(x or y for p in (a, b) for x, y in p[:-1])
        if several_terms and any(_power_out_of_range(p, b[-1], n) for p in (a, b)):
            raise OverflowError(OUT_OF_RANGE)
        return RationalFunction._of(exact_pow(a, n), exact_pow(b, n))

    def cross_numerator(self, other: "RationalFunction") -> Exact:
        """N D_o - N_o D over Z[i] (times L L_o), not reduced: its roots are
        the finite points where the two maps agree, common poles included."""
        (a, b), (c, d) = self._pair, other._pair
        return _combination(a, d, c, b, -1)

    def local_degree_at_infinity(self) -> int:
        """Local degree of the map at z = infinity, from the exact pair: the
        order there of f - f(inf), or of 1/f where f(inf) is infinite."""
        if self.is_constant:
            raise ValueError("local degree of a constant map is undefined")
        a, b = self._pair
        if len(a) != len(b):
            return abs(len(a) - len(b))
        # f(inf) = lc(a) / lc(b): the order of b f - lc(a) b / lc(b)
        rest = exact_add(exact_mul(a, (b[-1],)), exact_mul(b, ((-a[-1][0], -a[-1][1]),)))
        return len(b) - len(rest)

    # -- calculus ------------------------------------------------------------

    def derivative_numerator(self) -> Exact:
        """The Wronskian-style numerator N'D - ND' of the derivative, over
        Z[i] as a'b - ab' = L^2 (N'D - ND').

        Kept un-divided because |N'D - ND'| / (|N|^2 + |D|^2) is the
        pole-safe spherical derivative used by the curvature code, and its
        roots are exactly the finite critical points of the map.
        """
        a, b = self._pair
        return _combination(exact_derivative(a), b, a, exact_derivative(b), -1)

    def polynomial_part(self) -> Polynomial:
        """The polynomial part of N / D, as its float view: the pseudo-quotient
        of the exact pair, which carries lc(b)^(deg a - deg b + 1)."""
        a, b = self._pair
        return rounded(pseudo_divmod(a, b)[0], b[-1][0] ** max(len(a) - len(b) + 1, 0))

    # -- values, residues -----------------------------------------------------

    def value_at_sphere(self, point) -> SpherePoint:
        """Value of the map at a sphere point, as a sphere point (``values_at``)."""
        return self.values_at((point,))[0]

    def values_at(self, points) -> list[SpherePoint]:
        """Values of the map at sphere points, as sphere points.

        At infinity the value is read off the degrees and leading entries of
        the exact pair.  At the root P / Q of a linear factor (a literal's,
        or a located root's of degree one) the exact pair is evaluated over
        Z[i] as sum a_k P^k Q^(n-k), numerator and denominator alike, so the
        value is rounded once; infinity where the denominator vanishes.  At
        the roots of a factor of higher degree the value is infinity or 0
        where the factor divides the denominator or numerator, each factor
        tested once, else read off the views as two rows of one power table
        (``poly.block_values``) at all such points at once, or, where that
        is not finite, off the reversed rows at 1/z; infinity where the
        denominator's value is exactly 0 or the quotient is not finite.
        """
        points = [SpherePoint.of(p) for p in points]
        if self.is_zero:
            return [SpherePoint(0j) for _ in points]
        (a, b), out, tested, viewed = self._pair, [], {}, []
        for k, p in enumerate(points):
            if p.is_infinity:
                out.append(
                    INF if len(a) > len(b) else SpherePoint(0j) if len(a) < len(b)
                    else SpherePoint(GaussianRational.quotient(a[-1], b[-1]))
                )
                continue
            f = p.exact_factor
            if len(f) > 2:
                if f not in tested:
                    tested[f] = INF if _divides(f, b) else SpherePoint(0j) if _divides(f, a) else None
                out.append(tested[f])
                if tested[f] is None:
                    viewed.append(k)
                continue
            n = max(len(a), len(b)) - 1
            ((u, v),), ((s, t),) = (_taylor(c, f, n, 1) for c in (a, b))
            if not (s or t):
                out.append(INF)
            elif not (u or v):
                out.append(SpherePoint(0j))
            else:
                out.append(SpherePoint(GaussianRational.quotient((u, v), (s, t))))
        if viewed:
            z, num, den = np.array([points[k].value for k in viewed]), self.num.coeffs, self.den.coeffs
            rows = np.zeros((2, max(len(num), len(den))), dtype=complex)
            rows[0, : len(num)], rows[1, : len(den)] = num, den
            with np.errstate(all="ignore"):
                x, d = block_values(coefficient_blocks(rows), z)
                if (far := ~np.isfinite(x / d) & (d != 0)).any():  # the reversed rows at 1/z: the same quotient
                    x[far], d[far] = block_values(coefficient_blocks(rows[:, ::-1]), 1 / z[far])
            for k, u, v in zip(viewed, x.tolist(), d.tolist()):
                out[k] = SpherePoint(w) if v and cmath.isfinite(w := u / v) else INF
        return out

    def residue_at(self, point) -> GaussianRational:
        """Residue of the differential f dz at a sphere point.

        At a finite point, the last coefficient of ``principal_part_at``.
        At infinity, with f = a / b and lc(b)^(k+1) a = q b + r the pseudo-
        division (k = max(deg a - deg b, -1)), f = q / lc(b)^(k+1) plus
        r / (lc(b)^(k+1) b), whose z^-1 coefficient is r_(deg b - 1) /
        lc(b)^(k+2); the residue is minus that, exact and rounded once.
        """
        if self.is_zero:
            return EXACT_ZERO
        p = SpherePoint.of(point)
        if p.is_infinity:
            (a, b), n = self._pair, len(self._pair[1]) - 1
            r = pseudo_divmod(a, b)[1]
            u, v = r[n - 1] if 0 < n <= len(r) else (0, 0)
            return GaussianRational(-u, -v, b[-1][0] ** (max(len(a) - n, 0) + 1))
        principal = self.principal_part_at(p)
        return principal[-1] if principal else EXACT_ZERO

    def principal_part_at(self, point) -> tuple[GaussianRational, ...]:
        """Laurent coefficients (a_-m, ..., a_-1) of f at a finite pole of order m.

        m is the exact pole order, the exponent of the point's exact factor
        in the denominator alone, as the pair is coprime; empty where f is
        regular.  At the root of a linear exact factor (a literal's, or a
        located root's of degree one) they are exact over Q(i), each rounded
        once (``_laurent``).  At a pole on a factor of higher degree they are
        not computed: ``ArithmeticError``.
        """
        p = SpherePoint.of(point)
        f = p.exact_factor
        m = exact_exponent(self._pair[1], f)
        if m == 0:
            return ()
        if len(f) > 2:
            raise ArithmeticError(f"a pole at {p} on a degree-{len(f) - 1} factor has no exact principal part")
        return _laurent(*self._pair, f, m)
