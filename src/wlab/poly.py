"""Dense complex polynomials.

Coefficients are double-precision complex numbers stored lowest degree first
with exact trailing zeros stripped; the zero polynomial is the empty
coefficient tuple and reports degree -1. Tolerance-aware helpers (trimming,
the order and Taylor coefficients at a point, approximate gcd, exact-quotient
division) live here because every meromorphic object in the package is
carried by a quotient of these.
"""

from __future__ import annotations

import cmath
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Polynomial", "GcdBreakdownError", "ExactDivisionError", "approx_gcd", "exact_divide"]

# A leading remainder entry of ``divmod_by`` this small, absolute, is dropped
# (np.polydiv's allclose test).  Fixed, not a field of Tolerances: it decides
# degrees inside ``approx_gcd`` and ``exact_divide`` whatever their own
# thresholds, and truncating the remainder instead brings back a bogus gcd.
REMAINDER_ATOL = 1e-8


class GcdBreakdownError(ArithmeticError):
    """The gcd remainder sequence met a non-finite coefficient or stalled."""


class ExactDivisionError(ArithmeticError):
    """A division expected to be exact left a significant remainder."""


class Polynomial:
    """A polynomial in one variable with complex coefficients.

    Immutable. ``coeffs`` is a tuple, lowest degree first, with no trailing
    (exact) zeros; the zero polynomial has an empty tuple and ``degree == -1``.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[complex] = ()) -> None:
        if isinstance(coeffs, np.ndarray):
            c = coeffs.astype(complex, copy=False).tolist()
        else:
            c = [complex(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, value: complex) -> "Polynomial":
        return cls((value,))

    @classmethod
    def variable(cls) -> "Polynomial":
        """The monomial z."""
        return cls((0.0, 1.0))

    @classmethod
    def from_roots(cls, roots: Sequence[complex], leading: complex = 1.0) -> "Polynomial":
        """Monic-times-``leading`` polynomial with the given roots."""
        if len(roots) == 0:
            return cls((leading,))
        c = np.poly(np.asarray(roots, dtype=complex))  # highest first
        return cls((leading * c)[::-1])

    # -- basic queries ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[complex, ...]:
        return self._c

    @property
    def degree(self) -> int:
        """Degree, with -1 as the marker for the zero polynomial."""
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def leading(self) -> complex:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return self._c[-1]

    @property
    def max_abs_coeff(self) -> float:
        return max((abs(x) for x in self._c), default=0.0)

    def __call__(self, z):
        """Evaluate via Horner; accepts scalars or numpy arrays."""
        if not self._c:
            return np.zeros_like(z, dtype=complex) if isinstance(z, np.ndarray) else 0j
        hi_first = np.asarray(self._c[::-1], dtype=complex)
        out = np.polyval(hi_first, z)
        if isinstance(z, np.ndarray):
            return out
        return complex(out)

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, float, complex)):
            return Polynomial((other,))
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = max(len(self._c), len(o._c))
        a = list(self._c) + [0j] * (n - len(self._c))
        for i, x in enumerate(o._c):
            a[i] += x
        return Polynomial(a)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-x for x in self._c))

    def __sub__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Polynomial()
        prod = np.convolve(np.asarray(self._c), np.asarray(o._c))
        return Polynomial(prod)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial((1.0,))
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"Polynomial({list(self._c)!r})"

    def scale(self, factor: complex) -> "Polynomial":
        return Polynomial(tuple(factor * x for x in self._c))

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self._c[-1]
        return Polynomial(tuple(x / lead for x in self._c))

    def derivative(self) -> "Polynomial":
        if len(self._c) <= 1:
            return Polynomial()
        return Polynomial(tuple(k * c for k, c in enumerate(self._c) if k >= 1))

    def antiderivative(self) -> "Polynomial":
        """The primitive that vanishes at 0."""
        return Polynomial((0j,) + tuple(c / (k + 1) for k, c in enumerate(self._c)))

    def trim(self, rel_eps: float) -> "Polynomial":
        """Strip trailing coefficients that are tiny relative to the largest.

        Degree decisions downstream (orders at infinity, preimage counts at
        infinity) hinge on this; the canonical form of ``rational`` trims at
        its fixed ``TRIM_RTOL``.  Raises ``OverflowError`` on a non-finite
        coefficient, against which every other one would look tiny.
        """
        if not self._c:
            return self
        if not all(map(cmath.isfinite, self._c)):
            raise OverflowError("a coefficient is beyond the range of a double")
        scale = self.max_abs_coeff
        c = list(self._c)
        while c and abs(c[-1]) <= rel_eps * scale:
            c.pop()
        return Polynomial(c)

    def divmod_by(self, divisor: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        """Long division: self = q * divisor + r with deg r < deg divisor.

        np.polydiv's loop, operation for operation, without its per-call
        overhead: leading remainder entries within ``REMAINDER_ATOL`` of 0 are
        dropped, as its ``allclose`` test drops them (NaN and inf are kept).
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero or self.degree < divisor.degree:
            return Polynomial(), self
        r = np.array(self._c[::-1], dtype=complex) + 0.0
        v = np.array(divisor._c[::-1], dtype=complex) + 0.0
        m, n = len(r) - 1, len(v) - 1
        scale = 1.0 / v[0]
        q = np.zeros(m - n + 1, dtype=complex)
        for k in range(m - n + 1):
            d = scale * r[k]
            q[k] = d
            r[k : k + n + 1] -= d * v
        i = 0
        while i < m and abs(r[i]) <= REMAINDER_ATOL:
            i += 1
        return Polynomial(q[::-1]), Polynomial(r[i:][::-1])

    def expansion_at(self, point: complex, eps_res: float, terms: int) -> tuple[int, tuple[complex, ...]]:
        """Order of ``point`` as a root, and the Taylor coefficients beyond it.

        Returns ``(m, (t_0, ..., t_{terms-1}))`` with
        p(z) = (z - point)^m * sum_k t_k (z - point)^k.  Repeated synthetic
        division by (z - point) leaves the Taylor coefficients at the point
        as its remainders, lowest first.  A remainder counts towards m while
        it stays below ``eps_res`` times the evaluation scale
        sum(|c_k| |point|^k) of the quotient it came from: a relative
        coefficient perturbation of size eps_res moves the value by about
        that much.  Taking the max with the plain coefficient scale keeps
        the test meaningful at the origin, where the evaluation scale
        collapses to |c_0| and would otherwise certify nothing.
        """
        if self.is_zero:
            raise ValueError("the zero polynomial has no order at a point")
        q = list(self._c)
        r = abs(point)
        m = 0
        while len(q) >= 2:
            scale = 0.0
            rk = 1.0
            for c in q:
                scale += abs(c) * rk
                rk *= r
            quotient, rem = _synthetic_division(q, point)
            if abs(rem) > eps_res * max(scale, max(abs(c) for c in q), 1e-300):
                break
            m += 1
            q = quotient
        taylor = []
        for _ in range(terms):
            q, rem = _synthetic_division(q, point)
            taylor.append(rem)
        return m, tuple(taylor)

    def reversed_coeffs(self, length: int | None = None) -> "Polynomial":
        """Coefficient reversal z^n * p(1/z), optionally padded to ``length``.

        Used by the w = 1/z coordinate change.
        """
        n = length if length is not None else len(self._c)
        if n < len(self._c):
            raise ValueError("reversal length shorter than the polynomial")
        padded = list(self._c) + [0j] * (n - len(self._c))
        return Polynomial(padded[::-1])

    def close_to(self, other: "Polynomial", rel_eps: float) -> bool:
        """Coefficient-wise comparison relative to the joint scale."""
        scale = max(self.max_abs_coeff, other.max_abs_coeff, 1e-300)
        n = max(len(self._c), len(other._c))
        a = list(self._c) + [0j] * (n - len(self._c))
        b = list(other._c) + [0j] * (n - len(other._c))
        return all(abs(x - y) <= rel_eps * scale for x, y in zip(a, b))


def _synthetic_division(coeffs: list[complex], point: complex) -> tuple[list[complex], complex]:
    """(quotient, remainder) of coefficients, lowest first, by (z - point)."""
    acc = 0j
    quotient = [0j] * max(len(coeffs) - 1, 0)
    for k in range(len(coeffs) - 1, -1, -1):
        acc = acc * point + coeffs[k]
        if k > 0:
            quotient[k - 1] = acc
    return quotient, acc


def approx_gcd(a: Polynomial, b: Polynomial, eps_gcd: float) -> Polynomial:
    """Monic approximate gcd via the Euclidean remainder sequence.

    Each remainder is rescaled to unit max-coefficient to keep the threshold
    meaningful; a remainder whose coefficients all fall below ``eps_gcd``
    (relative to the rescaled divisor) terminates the sequence.  Every
    remainder must be finite and of lower degree than its divisor, so the
    sequence ends after at most deg(b) divisions; otherwise
    ``GcdBreakdownError`` is raised.
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials")
    _require_finite(a)
    _require_finite(b)
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    x = a.scale(1.0 / a.max_abs_coeff)
    y = b.scale(1.0 / b.max_abs_coeff)
    if x.degree < y.degree:
        x, y = y, x
    while y.degree >= 1:
        _, r = x.divmod_by(y)
        _require_finite(r)
        if r.is_zero or r.max_abs_coeff <= eps_gcd:
            return y.monic()
        if r.degree >= y.degree:
            raise GcdBreakdownError(
                f"gcd remainder of degree {r.degree} did not fall below its "
                f"divisor's degree {y.degree}"
            )
        x, y = y, r.scale(1.0 / r.max_abs_coeff)
    return Polynomial((1.0,))


def _require_finite(p: Polynomial) -> None:
    if not all(cmath.isfinite(c) for c in p.coeffs):
        raise GcdBreakdownError(f"non-finite coefficient in a degree-{p.degree} gcd operand")


def exact_divide(p: Polynomial, divisor: Polynomial, rel_eps: float = 1e-8) -> Polynomial:
    """Divide assuming divisibility; raises if the remainder is significant."""
    q, r = p.divmod_by(divisor)
    if not r.is_zero and r.max_abs_coeff > rel_eps * max(p.max_abs_coeff, 1e-300):
        raise ExactDivisionError("polynomial division left a significant remainder")
    return q
