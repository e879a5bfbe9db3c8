"""Rational functions on the Riemann sphere.

A RationalFunction is a quotient of two Polynomials kept in reduced canonical
form (approximate gcd cancelled, monic denominator). Orders, principal parts
and residues are computed for the function and for the differential f dz.
Each local number is read off Laurent expansions, not off a new
RationalFunction: at a finite point from the Taylor coefficients of numerator
and denominator (``Polynomial.expansion_at``), at infinity from the degrees
and the coefficient-reversed numerator and denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wlab.poly import Polynomial, approx_gcd, exact_divide
from wlab.tolerances import Tolerances, format_float

__all__ = ["SpherePoint", "INF", "distinct_points", "RationalFunction"]

# The canonical form's cut-offs.  They are fixed, not fields of Tolerances: a
# parsed expression is reduced before any command's tolerances exist.
TRIM_RTOL = 1e-12  # a trailing coefficient this small, relative, is zero
CANCEL_RTOL = 1e-8  # a gcd remainder this small, relative, is zero


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: a finite complex value or infinity.

    ``value is None`` encodes the point at infinity. Equality of the
    dataclass is exact; use :meth:`close_to` for tolerance identity (finite
    points compare within eps_pt, infinity only equals infinity).
    """

    value: complex | None = None

    def __post_init__(self):
        if self.value is not None:
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
        return SpherePoint(complex(x))

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


def distinct_points(points, eps_pt: float) -> list[SpherePoint]:
    """The points with near-duplicates dropped, keeping the first of each group."""
    out: list[SpherePoint] = []
    for p in points:
        if not any(p.close_to(q, eps_pt) for q in out):
            out.append(p)
    return out


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, float, complex)):
        return Polynomial((x,))
    raise TypeError(f"cannot interpret {type(x).__name__} as a polynomial")


_ONE = Polynomial((1.0,))
_UNIT = _ONE.coeffs[0]


def _trimmed(n: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Both polynomials with negligible trailing coefficients stripped."""
    n, d = n.trim(TRIM_RTOL), d.trim(TRIM_RTOL)
    if d.is_zero:
        raise ZeroDivisionError("denominator is the zero polynomial")
    return n, d


def _cancel(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Both polynomials divided by their approximate gcd."""
    if a.degree >= 1 and b.degree >= 1:
        g = approx_gcd(a, b, CANCEL_RTOL)
        if g.degree >= 1:
            return exact_divide(a, g, rel_eps=1e-6), exact_divide(b, g, rel_eps=1e-6)
    return a, b


def _normalised(n: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """The canonical pair: monic denominator, and 1 over the zero numerator."""
    if n.is_zero:
        return Polynomial(), Polynomial((1.0,))
    return n.scale(1.0 / d.leading), d.monic()


def canonical_polynomial(p: Polynomial) -> Polynomial:
    """The numerator of p / 1 in canonical form, as ``RationalFunction(p)`` holds it.

    The two steps of the canonical form that can change a bit of a
    polynomial: trimming at ``TRIM_RTOL``, and ``_normalised``'s rescale by
    1 / 1, which can flip the sign of a zero part.
    """
    return p.trim(TRIM_RTOL).scale(1.0 / _UNIT)


def canonical_sum(a: Polynomial, b: Polynomial) -> Polynomial:
    """The numerator of a / 1 + b / 1, as ``RationalFunction.__add__`` forms it.

    The sum first multiplies each numerator by the other's denominator 1:
    per coefficient that product is 0j + c * 1, which turns a -0.0 part into
    0.0, so it is kept.
    """
    x = Polynomial([0j + c * _UNIT for c in a.coeffs])
    y = Polynomial([0j + c * _UNIT for c in b.coeffs])
    return canonical_polynomial(x + y)


def _series_quotient(a, b, terms: int) -> list[complex]:
    """The first ``terms`` coefficients of the power series a / b, b[0] != 0."""
    out: list[complex] = []
    for k in range(terms):
        acc = a[k] if k < len(a) else 0j
        for j in range(1, min(k, len(b) - 1) + 1):
            acc -= b[j] * out[k - j]
        out.append(acc / b[0])
    return out


class RationalFunction:
    """Quotient of complex polynomials in reduced form, monic denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None):
        n, d = _trimmed(_as_poly(num), _as_poly(1 if den is None else den))
        self._num, self._den = _normalised(*_cancel(n, d))

    @classmethod
    def _of_coprime(cls, num: Polynomial, den: Polynomial) -> "RationalFunction":
        """The quotient num / den of two polynomials known to share no factor."""
        out = cls.__new__(cls)
        out._num, out._den = _normalised(*_trimmed(num, den))
        return out

    @classmethod
    def _of_polynomial(cls, p: Polynomial) -> "RationalFunction":
        """p / 1 for a polynomial already in canonical form (``canonical_polynomial``)."""
        out = cls.__new__(cls)
        out._num, out._den = p, _ONE
        return out

    # -- basic queries -------------------------------------------------------

    @property
    def num(self) -> Polynomial:
        return self._num

    @property
    def den(self) -> Polynomial:
        return self._den

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def degree(self) -> int:
        """Degree as a self-map of the sphere: max(deg num, deg den)."""
        if self.is_zero:
            return 0
        return max(self._num.degree, self._den.degree)

    @property
    def is_constant(self) -> bool:
        return self.degree == 0

    @property
    def constant_value(self) -> complex:
        if not self.is_constant:
            raise ValueError("not a constant rational function")
        return 0j if self.is_zero else self._num.coeffs[0]

    @classmethod
    def constant(cls, value: complex) -> "RationalFunction":
        return cls(Polynomial((value,)))

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls(Polynomial.variable())

    def __repr__(self) -> str:
        return f"RationalFunction({list(self._num.coeffs)!r}, {list(self._den.coeffs)!r})"

    def __call__(self, z):
        """Evaluate; scalar arguments at a pole raise ZeroDivisionError."""
        if isinstance(z, np.ndarray):
            return self._num(z) / self._den(z)
        dv = self._den(z)
        if dv == 0:
            raise ZeroDivisionError(f"evaluation at a pole: z={z}")
        return self._num(z) / dv

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction | None":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (int, float, complex, Polynomial)):
            return RationalFunction(_as_poly(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(
            self._num * o._den + o._num * self._den, self._den * o._den
        )

    __radd__ = __add__

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out._num = -self._num
        out._den = self._den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # the factors are reduced, so cancel across only (Knuth, TAOCP 2,
        # 4.5.1); a gcd of the whole product can split a multiple pole
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, d2 = _cancel(self._num, o._den)
        n2, d1 = _cancel(o._num, self._den)
        return RationalFunction._of_coprime(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        n1, n2 = _cancel(self._num, o._num)
        d2, d1 = _cancel(o._den, self._den)
        return RationalFunction._of_coprime(n1 * d2, d1 * n2)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return RationalFunction.constant(1.0)
        num, den = self._num, self._den
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero function")
            num, den, n = den, num, -n
        return RationalFunction._of_coprime(num**n, den**n)

    def equals(self, other: "RationalFunction", rel_eps: float = 1e-10) -> bool:
        """Equality as functions: cross-multiplied coefficient comparison."""
        lhs = self._num * other._den
        rhs = other._num * self._den
        return lhs.close_to(rhs, rel_eps)

    # -- calculus ------------------------------------------------------------

    def derivative_numerator(self) -> Polynomial:
        """The Wronskian-style numerator N'D - ND' of the derivative.

        Kept un-divided because |N'D - ND'| / (|N|^2 + |D|^2) is the
        pole-safe spherical derivative used by the curvature code, and its
        roots are exactly the finite critical points of the map.
        """
        return self._num.derivative() * self._den - self._num * self._den.derivative()

    # -- coordinate changes ----------------------------------------------------

    def reciprocal_argument(self) -> "RationalFunction":
        """The function w -> f(1/w) as a rational function of w."""
        k = max(self._num.degree, self._den.degree) + 1
        return RationalFunction(self._num.reversed_coeffs(k), self._den.reversed_coeffs(k))

    # -- orders, values, residues ----------------------------------------------

    def order_at(self, point, tol: Tolerances | None = None) -> int:
        """Order of vanishing at a sphere point (negative at a pole)."""
        tol = tol or Tolerances()
        if self.is_zero:
            raise ValueError("order of the zero function is undefined")
        p = SpherePoint.of(point)
        if p.is_infinity:
            return self._den.degree - self._num.degree
        m_num, _ = self._num.expansion_at(p.value, tol.eps_res, 0)
        m_den, _ = self._den.expansion_at(p.value, tol.eps_res, 0)
        return m_num - m_den

    def form_order_at(self, point, tol: Tolerances | None = None) -> int:
        """Order of the differential f dz at a sphere point.

        At finite points this is order_at; at infinity dz = -dw/w^2 in
        w = 1/z contributes a double pole.
        """
        p = SpherePoint.of(point)
        return self.order_at(p, tol) - (2 if p.is_infinity else 0)

    def value_at_sphere(self, point, tol: Tolerances | None = None) -> SpherePoint:
        """Value of the map at a sphere point, as a sphere point."""
        p = SpherePoint.of(point)
        if self.is_zero:
            return SpherePoint(0j)
        if p.is_infinity:
            dn, dd = self._num.degree, self._den.degree
            if dn > dd:
                return INF
            if dn < dd:
                return SpherePoint(0j)
            return SpherePoint(self._num.leading / self._den.leading)
        o = self.order_at(p, tol)
        if o < 0:
            return INF
        if o > 0:
            return SpherePoint(0j)
        return SpherePoint(self._num(p.value) / self._den(p.value))

    def residue_at(self, point, tol: Tolerances | None = None) -> complex:
        """Residue of the differential f dz at a sphere point.

        At a pole of order m, f = t^-m A(t)/B(t) in t = z - p, with A and B
        the Taylor series of N and D with their zeros at p divided out; the
        residue is the t^(m-1) coefficient of A/B.  At infinity
        f(1/w) = w^k R(w) with k = ord_inf f and R = rev N / rev D, so the
        residue of -w^(k-2) R(w) dw is minus the w^(1-k) coefficient of R.
        """
        if self.is_zero:
            return 0j
        p = SpherePoint.of(point)
        if p.is_infinity:
            terms = 2 - self.order_at(p, tol)
            r = _series_quotient(self._num.coeffs[::-1], self._den.coeffs[::-1], terms)
            return -r[-1] if r else 0j
        principal = self.principal_part_at(p.value, tol)
        return principal[-1] if principal else 0j

    def principal_part_at(
        self, point: complex, tol: Tolerances | None = None
    ) -> tuple[complex, ...]:
        """Laurent coefficients (a_-m, ..., a_-1) of f at a finite pole of order m.

        Empty where f is regular.  As in ``residue_at``: the leading m
        coefficients of A/B, the Taylor series of N and D with their zeros
        at the point divided out.
        """
        tol = tol or Tolerances()
        if self.is_zero:
            return ()
        m = -self.order_at(point, tol)
        if m <= 0:
            return ()
        _, a = self._num.expansion_at(point, tol.eps_res, m)
        _, b = self._den.expansion_at(point, tol.eps_res, m)
        return tuple(_series_quotient(a, b, m))

    def pole_order_at(self, point, tol: Tolerances | None = None) -> int:
        """max(0, -order_at): the pole order, zero when regular.

        Defined for every rational function; the zero function has no poles.
        """
        if self.is_zero:
            return 0
        return max(0, -self.order_at(point, tol))
