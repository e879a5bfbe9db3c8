"""Complex polynomial roots with multiplicities, located once and certified.

Distinct roots are located by an Aberth-Ehrlich simultaneous iteration and
certified by inclusion discs built from its own Weierstrass corrections:
pairwise disjoint discs hold one root each (``_inclusion_radii``).  Where
the discs overlap, as for roots closer than about sqrt(u) times their
scale, the eigenvalues of the companion matrix (numpy.roots) cross-check
the located roots instead, and a disagreement beyond tolerance is raised as
a diagnostic carrying both candidate lists rather than silently averaged.
The iteration starts from the Newton polygon of the coefficients: each
group of roots of like modulus starts on its own circle, with no random
start, so the iteration stays within 6-18 steps on Wronskians of integer
maps up to degree 126, where a start on one Cauchy-bound circle stalled.

Multiplicities come from Yun's square-free factorization (Yun 1976) of the
exact polynomial over Z[i] (``_yun_factors``), unless a gcd modulo one prime
certifies it square-free first, as it does most inputs; a gcd of the chain
or of the gcd-free basis that is 1 is certified so too (``poly.exact_gcd``).
No tolerance decides a multiplicity. Only the float view of each Yun factor
is located, once, and its roots carry the factor's multiplicity; no root is
matched across factors. The degrees telescope, so multiplicities sum to
deg p by construction -- they feed exact bookkeeping downstream (branching
orders, degree identities) where an off-by-one is fatal. Each root's
residual in p is a sanity bound on the located positions; the monic view of
p is evaluated once, at all of them.
"""

from __future__ import annotations

import math

import numpy as np

from wlab.poly import (
    P0, Exact, LocatedRoot, Polynomial, exact_derivative, exact_gcd, exact_mul, exact_primitive, exact_quotient,
    mod_p, mod_p_gcd_degree, rounded,
)
from wlab.tolerances import Tolerances

__all__ = [
    "roots_with_multiplicity",
    "multiple_part",
    "common_part",
    "gcd_free_basis",
    "RootCrossCheckError",
    "IllConditionedRootsError",
]

_ABERTH_MAX_ITER = 120
_ABERTH_STOP = 1e-14
_CROSS_CHECK_RTOL = 1e-6
_U = 2.0**-53  # unit roundoff of a double
_SUBNORMAL = 2.0**-1074  # the least double: what one rounding below the normal range can lose
_TINY = float(np.finfo(float).tiny)  # the least normal double


class RootCrossCheckError(RuntimeError):
    """Aberth iteration and companion matrix disagree on the root set.

    Attributes:
        aberth: roots located by the simultaneous iteration.
        companion: roots located by the eigenvalue route.
    """

    def __init__(self, aberth, companion, max_distance):
        super().__init__(
            "root cross-check failed: simultaneous iteration and companion "
            f"matrix disagree by {max_distance:.3e}"
        )
        self.aberth = tuple(aberth)
        self.companion = tuple(companion)
        self.max_distance = max_distance


class IllConditionedRootsError(RuntimeError):
    """The located roots disagree with the exact factors, or with p.

    Two roots the exact factors keep distinct fall within the point-identity
    radius, or a root fails its residual bound. Two readings are attached:
    ``merged`` treats near-coincident points as one multiple root,
    ``separate`` keeps them distinct (a residual failure: the root with
    multiplicity 0). The caller sees both and decides; we refuse to guess.
    """

    def __init__(self, message, merged, separate):
        super().__init__(message)
        self.merged = tuple(merged)
        self.separate = tuple(separate)


def _newton_polygon_start(c: np.ndarray) -> np.ndarray:
    """Bini's starting points for the roots of the monic polynomial c (low->high).

    The upper convex hull of the points (k, log|c_k|) over the nonzero
    coefficients splits the n roots by modulus: a hull edge from k = i to
    k = j stands for j - i roots near the circle of radius
    (|c_i|/|c_j|)^(1/(j-i)) (Bini 1996, Numer. Algorithms 13). Start point k,
    for i <= k < j, sits on that circle at angle 2*pi*k/n + 0.7, so no two
    start points share an angle. A zero constant term leaves the points below
    the lowest nonzero coefficient at 0 itself, which is a root; a
    square-free input has at most one of them, and the iteration keeps it
    there.
    """
    n = len(c) - 1
    ks = np.flatnonzero(c)
    logs = np.log(np.abs(c[ks]))
    hull: list[int] = []
    for m in range(len(ks)):
        # drop the last vertex while it lies on or below the chord to point m
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            lift = (ks[b] - ks[a]) * (logs[m] - logs[a]) - (logs[b] - logs[a]) * (ks[m] - ks[a])
            if lift < 0:
                break
            hull.pop()
        hull.append(m)
    z = np.zeros(n, dtype=complex)
    for a, b in zip(hull, hull[1:]):
        i, j = ks[a], ks[b]
        radius = np.exp((logs[a] - logs[b]) / (j - i))
        z[i:j] = radius * np.exp(1j * (2.0 * np.pi * np.arange(i, j) / n + 0.7))
    return z


def _aberth(p: Polynomial) -> np.ndarray:
    """Simultaneous (Aberth-Ehrlich) iteration for all roots of the monic p.

    Starting points sit on the Newton-polygon circles of the coefficients
    (``_newton_polygon_start``), one circle per group of roots of like
    modulus; the correction for root i is

        w_i = (p/p')(z_i) / (1 - (p/p')(z_i) * sum_{j!=i} 1/(z_i - z_j))

    which converges cubically for simple roots. The caller passes the monic
    view of a square-free Yun factor, so simple roots is the expected
    situation.
    """
    n = p.degree
    if n < 1:
        return np.zeros(0, dtype=complex)
    if n == 1:
        c0, c1 = p.coeffs
        return np.array([-c0 / c1], dtype=complex)
    c = np.asarray(p.coeffs, dtype=complex)
    z = _newton_polygon_start(c)
    hi = c[::-1]
    dhi = np.polyder(hi)
    for _ in range(_ABERTH_MAX_ITER):
        pv = np.polyval(hi, z)
        dv = np.polyval(dhi, z)
        dv = np.where(dv == 0, 1e-300, dv)
        ratio = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        s = (1.0 / diff).sum(axis=1) - 1.0  # remove the diagonal 1/1 terms
        denom = 1.0 - ratio * s
        denom = np.where(denom == 0, 1e-300, denom)
        corr = ratio / denom
        z = z - corr
        if np.max(np.abs(corr) / (1.0 + np.abs(z))) < _ABERTH_STOP:
            break
    # two Newton polish steps sharpen the residuals
    for _ in range(2):
        pv = np.polyval(hi, z)
        dv = np.polyval(dhi, z)
        step = np.where(np.abs(dv) > 0, pv / np.where(dv == 0, 1e-300, dv), 0.0)
        z = z - step
    return z


def _companion_roots(p: Polynomial) -> np.ndarray:
    return np.roots(np.asarray(p.coeffs[::-1], dtype=complex))


def _match_root_sets(a: np.ndarray, b: np.ndarray) -> float:
    """Greedy nearest matching; returns the worst pair distance.

    NaN when either set holds a non-finite root, so no bound accepts it.
    """
    if len(a) != len(b):
        return np.inf
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        return np.nan
    remaining = list(range(len(b)))
    worst = 0.0
    for x in a:
        j = min(remaining, key=lambda idx: abs(b[idx] - x))
        worst = max(worst, abs(b[j] - x) / (1.0 + abs(x)))
        remaining.remove(j)
    return worst


def _inclusion_radii(p: Polynomial, z: np.ndarray) -> np.ndarray | None:
    """Radii of pairwise disjoint discs about the z_i, one root of q in each; None if they overlap.

    ``p`` is the monic float view of an exact monic q, each part correctly
    rounded, and z its n Aberth roots.  With the Weierstrass corrections
    W_i = q(z_i) / prod_{j!=i} (z_i - z_j), the discs D(z_i, n|W_i|) cover
    every root of q, and a connected component of m of them holds exactly m
    (Braess and Hadeler 1973, Numer. Math. 21; Carstensen 1991, Numer. Math.
    59): disjoint discs hold one root each.

    |q(z_i)| is bounded above rigorously.  Horner's computed partial sums
    y_k of p(z_i) give G = sum_k |y_k| |z_i|^k; with u the unit roundoff,
    each step's complex product errs by at most sqrt(2) gamma_2 < 3u of
    |z_i y_(k+1)| (Higham, *Accuracy and Stability*, Lemma 3.5) and its sum
    by at most u / (1 - u) < 2u of |y_k|, so the running error bound (ibid.,
    section 5.1) of the computed p(z_i) is at most 5uG.  Each coefficient
    of p errs from q's by at most u relative, and sum_k |p_k| |z_i|^k <=
    2G + 5uG, so |q(z_i)| <= |y_0| + 10uG, plus 8(n + 1)(1 + G) least
    doubles for what rounds below the normal range.  The product of
    distances is bounded below, its factors below 1 certifying that no
    partial product left the normal range.  Every sum and product of
    positive terms above errs by at most (1 + u)^(4n + 8); the factor
    1 + 16(n + 2)u on the radii and 1 - 8u on the distances cover them.
    Anything non-finite, overflowed or underflowed is no certificate.
    """
    n = len(z)
    c = np.asarray(p.coeffs, dtype=complex)
    with np.errstate(all="ignore"):
        az = np.abs(z)
        y = np.full(n, c[n])
        g = np.abs(y)
        for ck in c[n - 1 :: -1]:
            y = y * z + ck
            g = az * g + np.abs(y)
        bound = np.abs(y) + 10 * _U * g + 8 * (n + 1) * _SUBNORMAL * (1 + g)
        dist = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(dist, 1.0)
        product = dist.prod(axis=1)
        floor = np.minimum(dist, 1.0).prod(axis=1)
        radii = n * (1 + 16 * (n + 2) * _U) * bound / product
        np.fill_diagonal(dist, np.inf)
        certified = (
            (floor >= _TINY).all()
            and np.isfinite(product).all()
            and np.isfinite(radii).all()
            and (radii[:, None] + radii[None, :] < dist * (1 - 8 * _U)).all()
        )
    return radii if certified else None


def _located_roots(p: Polynomial) -> list[complex]:
    """Aberth's roots of a square-free monic view, certified by inclusion discs.

    Where the discs do not separate them -- roots closer than about sqrt(u)
    times their scale, a non-finite iterate, an evaluation that overflows --
    the eigenvalues of the companion matrix cross-check them instead, and a
    disagreement raises RootCrossCheckError.  Either way the roots returned
    are Aberth's own.
    """
    located = _aberth(p)
    if _inclusion_radii(p, located) is None:
        check = _companion_roots(p)
        worst = _match_root_sets(located, check)
        if not worst <= _CROSS_CHECK_RTOL:
            raise RootCrossCheckError(located, check, worst)
    return [complex(z) for z in located]


def _certified_square_free(p: Exact) -> bool:
    """Whether p reduces to a square-free polynomial of the same degree mod P0.

    Were p = q^2 r with q primitive over Z[i], q^2 would divide p in Z[i][z]
    (Gauss's lemma), and mod P0 at full degree, as lc(q) divides lc(p).  So
    gcd(p, p') = 1 mod P0 with lc(p) nonzero there certifies p square-free;
    the converse can fail, and then the exact chain decides.
    """
    a = mod_p(p)
    return bool(a[-1]) and mod_p_gcd_degree(a, [k * c % P0 for k, c in enumerate(a) if k]) == 0


def common_part(p: Exact, q: Exact) -> Exact:
    """gcd(p, q) made primitive; 1 when either is constant."""
    return exact_primitive(exact_gcd(p, q)) if len(p) >= 2 and len(q) >= 2 else ((1, 0),)


def multiple_part(p: Exact) -> Exact:
    """gcd(p, p') made primitive, the first link of Yun's chain: it holds each
    root of p of multiplicity m >= 2 with multiplicity m - 1, and is 1 when
    the certificate finds p square-free.  Nonzero p."""
    if len(p) < 2 or _certified_square_free(p):
        return ((1, 0),)
    p = exact_primitive(p)
    return common_part(p, exact_derivative(p))


def _yun_factors(p: Exact) -> list[Exact]:
    """Yun factors f_1, f_2, ...: f_m holds exactly the roots of p of multiplicity m.

    The gcd chain c_0 = p, c_{i+1} = gcd(c_i, c_i') gives square-free layers
    s_i = c_i / c_{i+1}, whose roots are those of multiplicity at least i+1;
    so f_m = s_{m-1} / s_m (Yun 1976), and the last layer is the last factor.
    Every gcd and quotient is exact over Z[i] and primitive (each gcd is
    made so, and a quotient of primitive polynomials is one), so the
    coefficients stay as small as the factors themselves.  Each f_m may be
    constant; sum(m * deg f_m) = deg p.
    """
    if len(c1 := multiple_part(p)) < 2:
        return [exact_primitive(p)]
    chain = [exact_primitive(p), c1]
    while len(g := common_part(chain[-1], exact_derivative(chain[-1]))) >= 2:
        chain.append(g)

    def quotients(seq: list[Exact]) -> list[Exact]:
        return [exact_quotient(a, b) for a, b in zip(seq, seq[1:])] + seq[-1:]

    return quotients(quotients(chain))


def gcd_free_basis(polys) -> list[Exact]:
    """Pairwise coprime, square-free, primitive pieces that factor every input:
    each nonzero input is a constant times a product of powers of them, and
    the roots of one piece have one multiplicity in each input, so an order
    read at one root of a piece holds at all of them.

    Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 15, 1993)
    over the inputs' Yun factors: each factor f enters in turn, and where it
    shares a factor g with a piece y, y is split into g and y / g and f goes
    on as f / g, which is prime to both, as f and y are square-free.  A
    piece never moves: a linear input that enters first stays where it
    entered, one piece of its own.
    """
    basis: list[Exact] = []
    for p in polys:
        for f in _yun_factors(p):
            if len(f) < 2:
                continue
            for i in range(len(basis)):
                g = common_part(f, basis[i])
                if len(g) >= 2:
                    f = exact_quotient(f, g)
                    if len(g) < len(basis[i]):
                        basis.append(exact_quotient(basis[i], g))
                        basis[i] = g
                    if len(f) < 2:
                        break
            if len(f) >= 2:
                basis.append(f)
    return basis


def _monic_view(p: Exact) -> Polynomial:
    """p / lc(p), each part correctly rounded."""
    x, y = p[-1]
    return rounded(exact_mul(p, ((x, -y),)), x * x + y * y)


def roots_with_multiplicity(p: Exact, tol: Tolerances | None = None) -> list[tuple[complex, int]]:
    """All roots of the polynomial ``p`` over Z[i] with multiplicities (summing to deg p).

    Returns (root, multiplicity) pairs sorted by (re, im); the roots of the
    Yun factor f_m carry m, and each root is a ``LocatedRoot`` that carries
    f_m itself, so orders at it are read off f_m exactly. The roots of each
    f_m are certified by disjoint inclusion discs, or else cross-checked
    against the companion matrix, which raises RootCrossCheckError when the
    two disagree. Every root r, simple or multiple, satisfies
    |P(r)| <= eps_res * max|coeff| * (1+|r|)^deg for the monic float view P
    of p, decided through the reversed P at 1/r where P(r) leaves the range
    of a double. Raises IllConditionedRootsError when two located roots fall
    inside the point-identity radius, though the exact factors keep them
    apart, or a root violates its residual bound.
    """
    tol = tol or Tolerances()
    if not p:
        raise ValueError("zero polynomial has every point as a root")
    if len(p) < 2:
        raise ValueError("constant polynomial has no roots")

    located = sorted(
        (
            (LocatedRoot(r, f), m)
            for m, f in enumerate(_yun_factors(p), start=1)
            if len(f) >= 2
            for r in _located_roots(_monic_view(f))
        ),
        key=lambda rm: (rm[0].real, rm[0].imag),
    )

    # the located roots should be pairwise distinct; two of them inside the
    # point-identity radius means the exact factors (distinct) and the point
    # identity (equal) disagree, and we refuse to pick a side.
    for i, (a, ma) in enumerate(located):
        for b, mb in located[i + 1 :]:
            if (b - a).real > tol.eps_pt:
                break  # sorted by (re, im): every later b is farther still
            if abs(a - b) <= tol.eps_pt:
                raise IllConditionedRootsError(
                    "two roots of the square-free part fall within the point "
                    f"identity radius: {a} vs {b}",
                    [(0.5 * (a + b), ma + mb)],
                    [(a, ma), (b, mb)],
                )

    view = _monic_view(p)
    n, scale = view.degree, tol.eps_res * view.max_abs_coeff
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = view(np.array([r for r, _ in located])).tolist()
    for (r, m), residual in zip(located, residuals):
        residual, bound = abs(residual), scale * _power(1.0 + abs(r), n)
        if not math.isfinite(residual) and abs(r) > 1:
            # |P(r)| = |r|^n |P~(1/r)| for the reversed P~, which stays in range
            residual = abs(complex(np.polyval(np.asarray(view.coeffs), 1 / r)))
            bound = scale * _power(1.0 + 1 / abs(r), n)
        if not residual <= bound:
            raise IllConditionedRootsError(
                f"root {r} (multiplicity {m}) fails the residual bound: "
                f"{residual:.3e} > {bound:.3e}",
                [(r, m)],
                [(r, 0)],
            )
    return located


def _power(x: float, n: int) -> float:
    """x ** n, or inf where that leaves the range of a double."""
    try:
        return x**n
    except OverflowError:
        return math.inf
