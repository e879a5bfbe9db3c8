"""Rational functions on the Riemann sphere.

A RationalFunction is a quotient of two Polynomials kept in reduced canonical
form (approximate gcd cancelled, monic denominator). Orders, residues and
divisors are computed for the function and for the differential f dz; the
point at infinity is handled through the w = 1/z coordinate change rather
than ad-hoc degree formulas, so the same code path serves orders, residues
and the second quadrature chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from wlab.poly import Polynomial, approx_gcd, exact_divide
from wlab.roots import roots_with_multiplicity
from wlab.tolerances import Tolerances

__all__ = ["SpherePoint", "INF", "distinct_points", "DivisorEntry", "RationalFunction"]


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
        """Canonical ordering: finite points by (re, im), infinity last."""
        if self.is_infinity:
            return (1, 0.0, 0.0)
        return (0, self.value.real, self.value.imag)

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


@dataclass(frozen=True)
class DivisorEntry:
    """One row of a zero/pole table: positive order = zero, negative = pole."""

    point: SpherePoint
    order: int


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, float, complex)):
        return Polynomial((x,))
    raise TypeError(f"cannot interpret {type(x).__name__} as a polynomial")


def _shift(p: Polynomial, k: int) -> Polynomial:
    """Multiply by z^k."""
    if k == 0 or p.is_zero:
        return p
    return Polynomial((0j,) * k + p.coeffs)


class RationalFunction:
    """Quotient of complex polynomials in reduced form, monic denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=None):
        tol = Tolerances()
        n = _as_poly(num)
        d = _as_poly(1 if den is None else den)
        n = n.trim(tol.eps_coeff)
        d = d.trim(tol.eps_coeff)
        if d.is_zero:
            raise ZeroDivisionError("denominator is the zero polynomial")
        if n.is_zero:
            self._num = Polynomial()
            self._den = Polynomial((1.0,))
            return
        if n.degree >= 1 and d.degree >= 1:
            g = approx_gcd(n, d, tol.eps_gcd)
            if g.degree >= 1:
                n = exact_divide(n, g, rel_eps=1e-6)
                d = exact_divide(d, g, rel_eps=1e-6)
        lead = d.leading
        self._num = n.scale(1.0 / lead)
        self._den = d.monic()

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalFunction(self._num * o._num, self._den * o._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self._num * o._den, self._den * o._num)

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
        base = self
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of the zero function")
            base = RationalFunction(self._den, self._num)
            n = -n
        return RationalFunction(base._num**n, base._den**n)

    def equals(self, other: "RationalFunction", rel_eps: float = 1e-10) -> bool:
        """Equality as functions: cross-multiplied coefficient comparison."""
        lhs = self._num * other._den
        rhs = other._num * self._den
        return lhs.close_to(rhs, rel_eps)

    # -- calculus ------------------------------------------------------------

    def derivative(self) -> "RationalFunction":
        return RationalFunction(self.derivative_numerator(), self._den * self._den)

    def derivative_numerator(self) -> Polynomial:
        """The Wronskian-style numerator N'D - ND' of the derivative.

        Kept un-divided because |N'D - ND'| / (|N|^2 + |D|^2) is the
        pole-safe spherical derivative used by the curvature code, and its
        roots are exactly the finite critical points of the map.
        """
        return self._num.derivative() * self._den - self._num * self._den.derivative()

    # -- coordinate changes ----------------------------------------------------

    def compose_moebius(self, a: complex, b: complex, c: complex, d: complex) -> "RationalFunction":
        """Post-compose with T(w) = (a w + b)/(c w + d); degree is preserved."""
        det = a * d - b * c
        scale = max(abs(a * d), abs(b * c), 1.0)
        if abs(det) <= 1e-12 * scale:
            raise ValueError("degenerate moebius matrix (ad - bc ~ 0)")
        new_num = a * self._num + b * self._den
        new_den = c * self._num + d * self._den
        if new_den.trim(Tolerances().eps_coeff).is_zero:
            raise ZeroDivisionError("moebius map sends this constant function to infinity")
        return RationalFunction(new_num, new_den)

    def reciprocal_argument(self) -> "RationalFunction":
        """The function w -> f(1/w) as a rational function of w."""
        if self.is_zero:
            return RationalFunction(Polynomial())
        n, m = self._num.degree, self._den.degree
        rn = self._num.reversed_coeffs()
        rd = self._den.reversed_coeffs()
        if m >= n:
            return RationalFunction(_shift(rn, m - n), rd)
        return RationalFunction(rn, _shift(rd, n - m))

    def form_pullback_reciprocal(self) -> "RationalFunction":
        """Pullback of the differential f dz under z = 1/w: -f(1/w)/w^2."""
        g = self.reciprocal_argument()
        return RationalFunction(-g.num, g.den * Polynomial((0j, 0j, 1.0)))

    # -- orders, values, residues ----------------------------------------------

    def order_at(self, point, tol: Tolerances | None = None) -> int:
        """Order of vanishing at a sphere point (negative at a pole)."""
        tol = tol or Tolerances()
        if self.is_zero:
            raise ValueError("order of the zero function is undefined")
        p = SpherePoint.of(point)
        if p.is_infinity:
            return self._den.degree - self._num.degree
        z0 = p.value
        if self._num.degree >= 1 or self._den.degree >= 1:
            m_num = self._num.multiplicity_at(z0, tol.eps_res)
            m_den = self._den.multiplicity_at(z0, tol.eps_res)
            return m_num - m_den
        return 0

    def form_order_at(self, point, tol: Tolerances | None = None) -> int:
        """Order of the differential f dz at a sphere point.

        At finite points this is order_at; at infinity dz contributes a
        double pole, computed through the w = 1/z substitution.
        """
        p = SpherePoint.of(point)
        if not p.is_infinity:
            return self.order_at(p, tol)
        return self.form_pullback_reciprocal().order_at(SpherePoint(0j), tol)

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

        Computed by deflation plus the derivative formula

            Res = [(d/dz)^(m-1) (N / D1)](p) / (m-1)!

        where D = (z-p)^m D1; the residue at infinity goes through the
        w = 1/z pullback so that the classical sum over the whole sphere
        vanishes.
        """
        tol = tol or Tolerances()
        if self.is_zero:
            return 0j
        p = SpherePoint.of(point)
        if p.is_infinity:
            return self.form_pullback_reciprocal().residue_at(SpherePoint(0j), tol)
        z0 = p.value
        m = -self.order_at(p, tol)
        if m <= 0:
            return 0j
        d1 = self._den
        for _ in range(m):
            d1, _rem = d1.deflate(z0)
        if m == 1:
            return self._num(z0) / d1(z0)
        part = RationalFunction(self._num, d1)
        fact = 1.0
        for j in range(m - 1):
            part = part.derivative()
            fact *= j + 1
        return part(z0) / fact

    def zeros_and_poles(self, tol: Tolerances | None = None) -> list[DivisorEntry]:
        """The divisor on the sphere; zero total (degree balance) guaranteed.

        Constant functions have an empty divisor.
        """
        tol = tol or Tolerances()
        if self.is_zero:
            raise ValueError("divisor of the zero function is undefined")
        if self.is_constant:
            return []
        entries: list[DivisorEntry] = []
        if self._num.degree >= 1:
            for r, m in roots_with_multiplicity(self._num, tol):
                entries.append(DivisorEntry(SpherePoint(r), m))
        if self._den.degree >= 1:
            for r, m in roots_with_multiplicity(self._den, tol):
                entries.append(DivisorEntry(SpherePoint(r), -m))
        o_inf = self._den.degree - self._num.degree
        if o_inf != 0:
            entries.append(DivisorEntry(INF, o_inf))
        entries.sort(key=lambda e: e.point.sort_key())
        plus = sum(e.order for e in entries if e.order > 0)
        minus = -sum(e.order for e in entries if e.order < 0)
        if plus != minus or plus != self.degree:
            raise RuntimeError(
                f"divisor imbalance: zeros {plus}, poles {minus}, degree {self.degree}"
            )
        return entries

    def finite_poles(self, tol: Tolerances | None = None) -> list[tuple[complex, int]]:
        """Finite poles as (point, positive order) pairs."""
        tol = tol or Tolerances()
        if self._den.degree < 1:
            return []
        return [(r, m) for r, m in roots_with_multiplicity(self._den, tol)]

    def pole_order_at(self, point, tol: Tolerances | None = None) -> int:
        """max(0, -order_at): the pole order, zero when regular.

        Defined for every rational function; the zero function has no poles.
        """
        if self.is_zero:
            return 0
        return max(0, -self.order_at(point, tol))
