"""Dense complex polynomials, and the exact polynomials over Q(i) they view.

Coefficients are double-precision complex numbers stored lowest degree first
with exact trailing zeros stripped; the zero polynomial is the empty
coefficient tuple and reports degree -1.  Beside them live the exact
polynomials over Z[i] that ``rational`` keeps its canonical form in and
``roots`` reads multiplicities and orders off: their arithmetic,
subresultant gcd, primitive parts, exact quotients and exponents, and
correctly rounded float views, and their images modulo one prime, where a
gcd of 1 certifies coprimality (``mod_p_gcd_degree``).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable

import numpy as np

__all__ = [
    "Polynomial", "Exact", "LocatedRoot", "exact_gcd", "exact_primitive", "exact_quotient", "exact_exponent", "rounded",
    "in_range",
]


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

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __repr__(self) -> str:
        return f"Polynomial({list(self._c)!r})"

    def antiderivative(self) -> "Polynomial":
        """The primitive that vanishes at 0."""
        return Polynomial((0j,) + tuple(c / (k + 1) for k, c in enumerate(self._c)))


# -- exact polynomials over Q(i) -------------------------------------------------
# A Gaussian integer is a pair (re, im) of ints.  A polynomial over Z[i] is a
# tuple of them, lowest degree first, with no trailing (0, 0); over Q(i) it
# has one positive int denominator besides.  ``rational`` keeps its exact
# canonical form in these and reads its float views off them.

Exact = tuple[tuple[int, int], ...]
OUT_OF_RANGE = "a coefficient is beyond the range of a double"
# The modular certificates' prime: 1 mod 4, so -1 has the square root _I0
# mod P0 and Z[i] reduces onto F_P0 (3 generates F_P0^*).
P0 = 998244353
_I0 = pow(3, (P0 - 1) // 4, P0)


def exact_coeffs(coeffs: Iterable) -> tuple[Exact, int]:
    """(p, q) with p / q the exact value of int, Fraction, float or complex
    coefficients; a double is read at its binary value."""
    parts = []
    for c in coeffs:
        if not isinstance(c, (int, Fraction)) and not cmath.isfinite(c := complex(c)):
            raise OverflowError(OUT_OF_RANGE)
        parts += [c.real.as_integer_ratio(), c.imag.as_integer_ratio()]
    q = math.lcm(*(d for _, d in parts))
    scaled = iter([n * (q // d) for n, d in parts])
    return _stripped(zip(scaled, scaled)), q


def _stripped(p) -> Exact:
    p = list(p)
    while p and p[-1] == (0, 0):
        p.pop()
    return tuple(p)


def rounded(p: Exact, q: int) -> Polynomial:
    """The float view of p / q, each part correctly rounded (int division
    is); ``OverflowError`` when a part is beyond the range of a double."""
    try:
        view = [complex(x / q, y / q) for x, y in p]
    except OverflowError:
        raise OverflowError(OUT_OF_RANGE) from None
    while view and not view[-1]:  # below the least double, a coefficient rounds to 0
        view.pop()
    out = Polynomial.__new__(Polynomial)
    out._c = tuple(view)
    return out


def in_range(parts: Iterable[int], q: int) -> bool:
    """The range proof for parts x over q > 0: bits(x) <= bits(q) + 1022 for
    every x proves |x / q| < 2^1023.  Where it fails, ``rounded`` decides:
    it raises ``OverflowError`` when a part is beyond the range of a double."""
    return max(map(abs, parts), default=0).bit_length() <= q.bit_length() + 1022


def exact_add(a: Exact, b: Exact) -> Exact:
    if len(a) < len(b):
        a, b = b, a
    return _stripped([(x + u, y + v) for (x, y), (u, v) in zip(a, b)] + list(a[len(b) :]))


def exact_mul(a: Exact, b: Exact) -> Exact:
    """The product; zero coefficients of a are skipped, so z^k costs little."""
    if not a or not b:
        return ()
    if b == ((1, 0),) or a == ((1, 0),):
        return a if b == ((1, 0),) else b
    re = [0] * (len(a) + len(b) - 1)
    im = re[:]
    for i, (x, y) in enumerate(a):
        if x:
            for j, (u, v) in enumerate(b, i):
                re[j] += x * u
                im[j] += x * v
        if y:
            for j, (u, v) in enumerate(b, i):
                re[j] -= y * v
                im[j] += y * u
    return tuple(zip(re, im))


def exact_pow(a: Exact, n: int) -> Exact:
    """a^n by squaring; a monomial c z^k, z^k above all, as c^n z^(kn)."""
    if len(a) > 1 and not any(x or y for x, y in a[:-1]):
        return ((0, 0),) * ((len(a) - 1) * n) + exact_pow(a[-1:], n)
    out = ((1, 0),)
    while n:
        if n & 1:
            out = exact_mul(out, a)
        n >>= 1
        a = exact_mul(a, a) if n else a
    return out


def _gdiv(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """a / b for Gaussian integers b dividing a."""
    if not b[1]:  # a rational integer, as every divisor of an integer input is
        return a[0] // b[0], a[1] // b[0]
    n = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) // n, (a[1] * b[0] - a[0] * b[1]) // n


def pseudo_divmod(a: Exact, b: Exact) -> tuple[Exact, Exact]:
    """(q, r) with lc(b)^(deg a - deg b + 1) a = q b + r and deg r < deg b."""
    n = len(b) - 1
    u, v = b[-1]
    r, q = list(a), []
    for k in range(len(a) - 1 - n, -1, -1):
        c, d = r.pop()
        q = [(x * u - y * v, x * v + y * u) for x, y in q] + [(c, d)]
        r = [(x * u - y * v, x * v + y * u) for x, y in r]
        if c or d:
            for j, (s, t) in enumerate(b[:n], k):
                x, y = r[j]
                r[j] = (x - c * s + d * t, y - c * t - d * s)
    return tuple(reversed(q)), _stripped(r)


def mod_p(a: Exact) -> list[int]:
    """The image of a in F_P0[z] under the ring map Z[i] -> F_P0 that sends
    i to _I0, lowest degree first; its leading entry may vanish."""
    return [(x + _I0 * y) % P0 for x, y in a]


def mod_p_gcd_degree(a: list[int], b: list[int]) -> int:
    """The degree of gcd(a, b) in F_P0[z], -1 when both are 0: Euclid on
    the two lists, lowest degree first, which it uses up."""
    while b and not b[-1]:
        b.pop()
    while b:
        inv, n = pow(b[-1], -1, P0), len(b) - 1
        while len(a) > n:
            c, k = a.pop() * inv % P0, len(a) - n
            a[k:] = [(x - c * s) % P0 for x, s in zip(a[k:], b)]
        a, b = b, a
        while b and not b[-1]:
            b.pop()
    while a and not a[-1]:
        a.pop()
    return len(a) - 1


def exact_gcd(a: Exact, b: Exact) -> Exact:
    """A gcd of two nonzero polynomials over Z[i], up to a unit of Q(i).

    The power of z they share is split off first, so a gcd with a monomial,
    such as a denominator z^k, runs no remainder sequence.  Then a gcd of 1
    modulo P0 certifies the rest coprime when either leading coefficient
    survives there (Brown 1971): a common primitive factor g divides both in
    Z[i][z] by Gauss's lemma, and keeps its full degree modulo P0, as lc(g)
    divides that leading coefficient.  Otherwise the subresultant remainder
    sequence decides (Collins 1967; Brown and Traub 1971): each
    pseudo-remainder is divided by the factor g h^delta that it is known to
    carry, so the coefficients grow only linearly, with no content
    computation.
    """
    ka, kb = (next(k for k, c in enumerate(p) if c != (0, 0)) for p in (a, b))
    shared, a, b = ((0, 0),) * min(ka, kb), a[ka:], b[kb:]
    if len(a) > 1 and len(b) > 1:
        ra, rb = mod_p(a), mod_p(b)
        if (ra[-1] or rb[-1]) and mod_p_gcd_degree(ra, rb) == 0:
            return shared + ((1, 0),)
    if len(a) < len(b):
        a, b = b, a
    g = h = (1, 0)
    while len(b) > 1:
        delta = len(a) - len(b)
        r = pseudo_divmod(a, b)[1]
        if len(r) < 2:
            return shared + (b if not r else ((1, 0),))
        divisor = exact_mul((g,), exact_pow((h,), delta))[0]
        a, b = b, tuple(_gdiv(x, divisor) for x in r)
        g = a[-1]
        if delta:
            h = _gdiv(exact_pow((g,), delta)[0], exact_pow((h,), delta - 1)[0])
    return shared + ((1, 0),)


def exact_cofactors(a: Exact, b: Exact) -> tuple[Exact, Exact]:
    """(a / g, b / g) for their gcd g, times one common factor, so that the
    quotient stays a / b; a and b themselves when either is constant."""
    return exact_cancelled(a, b, exact_gcd(a, b) if len(a) > 1 and len(b) > 1 else ((1, 0),))


def exact_cancelled(a: Exact, b: Exact, g: Exact) -> tuple[Exact, Exact]:
    """(a / g, b / g) for a common divisor g, times one common factor, so
    that the quotient stays a / b; a and b themselves when g is constant."""
    if len(g) < 2:
        return a, b
    # the two pseudo-quotients carry lc(g)^(deg a - deg g + 1) and the same in b
    qa, qb = pseudo_divmod(a, g)[0], pseudo_divmod(b, g)[0]
    extra = exact_pow(g[-1:], abs(len(a) - len(b)))
    return (exact_mul(qa, extra), qb) if len(a) < len(b) else (qa, exact_mul(qb, extra))


def exact_derivative(a: Exact) -> Exact:
    return tuple((k * x, k * y) for k, (x, y) in enumerate(a) if k)


def _gaussian_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """A gcd of two Gaussian integers: Euclid, each quotient rounded to the
    nearest Gaussian integer, so each remainder has at most half the norm."""
    while b != (0, 0):
        n = b[0] * b[0] + b[1] * b[1]
        x, y = a[0] * b[0] + a[1] * b[1], a[1] * b[0] - a[0] * b[1]  # a conj(b)
        u, v = (2 * x + n) // (2 * n), (2 * y + n) // (2 * n)
        a, b = b, (a[0] - u * b[0] + v * b[1], a[1] - u * b[1] - v * b[0])
    return a


def exact_primitive(a: Exact) -> Exact:
    """a over its content in Z[i]: the integer gcd of all parts is divided out
    first, then the Gaussian gcd of the coefficients that are left."""
    g = math.gcd(*(v for c in a for v in c))
    if g > 1:
        a = tuple((x // g, y // g) for x, y in a)
    u = (0, 0)
    for c in a:
        u = _gaussian_gcd(c, u)
        if u[0] * u[0] + u[1] * u[1] == 1:
            return a
    return tuple(_gdiv(c, u) for c in a) if a else a


def exact_quotient(a: Exact, b: Exact) -> Exact:
    """a / b for a primitive divisor b of a: by Gauss's lemma the quotient
    lies in Z[i][z], and is primitive when a is, so the long division runs in
    Z[i], with no pseudo-division powers of lc(b) to grow.  A step that does
    not divide, or a remainder, breaks the caller's invariant:
    ``ArithmeticError``.
    """
    n = len(b) - 1
    u, v = b[-1]
    norm = u * u + v * v
    r, q = list(a), []
    for k in range(len(a) - 1 - n, -1, -1):
        x, y = r.pop()
        x, y = x * u + y * v, y * u - x * v  # times conj(lc(b))
        if x % norm or y % norm:
            break
        c, d = x // norm, y // norm
        q.append((c, d))
        if c or d:
            for j, (s, t) in enumerate(b[:n], k):
                x, y = r[j]
                r[j] = (x - c * s + d * t, y - c * t - d * s)
    if len(q) != max(len(a) - n, 0) or any(x or y for x, y in r):
        raise ArithmeticError(f"a degree-{n} polynomial does not divide a degree-{len(a) - 1} one over Q(i)")
    return tuple(reversed(q))


def exact_exponent(a: Exact, b: Exact) -> int:
    """The order of a nonzero a at each root of a primitive square-free b:
    the largest k with b^k dividing a.  Raises ``ArithmeticError`` when b's
    roots have different orders in a, as a / b^k then shares a root with b
    (a linear b has one root; the pieces of a gcd-free basis pass)."""
    if not a:
        raise ValueError("the zero polynomial has every order")
    k = 0
    try:
        while True:
            a = exact_quotient(a, b)
            k += 1
    except ArithmeticError:
        pass
    if len(b) > 2 and len(exact_gcd(a, b)) >= 2:
        raise ArithmeticError("the roots of the factor have different orders in the polynomial")
    return k


class LocatedRoot(complex):
    """A root located in floats, with the exact factor it was located from.

    ``factor`` is the primitive square-free Yun factor over Z[i] that holds
    the root, so each of its roots has one multiplicity in the polynomial
    that was root-found; orders at the root are read off it.  Arithmetic on
    a LocatedRoot gives a plain complex.
    """

    __slots__ = ("factor",)

    def __new__(cls, value: complex, factor: Exact) -> "LocatedRoot":
        self = super().__new__(cls, value)
        self.factor = factor
        return self
