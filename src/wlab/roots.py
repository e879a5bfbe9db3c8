"""Complex polynomial roots with multiplicities, located once and certified.

Distinct roots are located by an Aberth-Ehrlich simultaneous iteration and
certified by inclusion discs built from its own Weierstrass corrections:
pairwise disjoint discs hold one root each (``_inclusion_radii``).  Where
the discs overlap in doubles, as for roots closer than about sqrt(u) times
their scale, a few more Aberth steps run with exact Newton ratios over Z[i]
and the discs are tested with exact values (``_refined_roots``); where even
those overlap, RootIsolationError carries them.  The discs are the one
certificate: no second float route and no residual bound.  The iteration
starts from the Newton polygon of the coefficients, one circle per group of
roots of like modulus and no random start, so it stays within 6-18 steps on
Wronskians of integer maps up to degree 126.  Each step reads p and p' at
every iterate off one table of powers, contracted with blocks of at most 64
coefficients (``_values_and_slopes``): a fixed number of array operations per
step, not two per coefficient; the first non-finite iterate ends the
iteration, as its correction would spread it to every other.

Multiplicities come from Yun's square-free factorization (Yun 1976) of the
exact polynomial over Z[i] (``_yun_factors``), unless a gcd modulo one prime
certifies it square-free first, as it does most inputs; a gcd of the chain
or of the gcd-free basis that is 1 is certified so too (``poly.exact_gcd``).
No tolerance decides a multiplicity. Each Yun factor is located once, and
its roots carry the factor's multiplicity; the degrees telescope, so
multiplicities sum to deg p by construction -- they feed exact bookkeeping
downstream (branching orders, degree identities) where an off-by-one is
fatal.  The gcd-free basis of several polynomials refines their Yun factors
and records each piece's exponent in each input as it makes the piece
(``gcd_free_basis``), so the orders of an analysis are read off that one
table, never found again root by root.
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
    "roots_with_multiplicity", "multiple_part", "common_part", "gcd_free_basis", "RootIsolationError",
    "IllConditionedRootsError",
]

_ABERTH_MAX_ITER = 120
_ABERTH_STOP = 1e-14
_BLOCK = 64  # coefficients per block of the evaluation table
_REFINE_MAX_STEPS = 8
_OFF_AXIS = 0.25 * complex(math.cos(1.0), math.sin(1.0))  # off-axis move, times the nearest distance
_U = 2.0**-53  # unit roundoff of a double
_SUBNORMAL = 2.0**-1074  # the least double: what one rounding below the normal range can lose
_TINY = float(np.finfo(float).tiny)  # the least normal double


class RootIsolationError(RuntimeError):
    """The inclusion discs of a factor's roots overlap after exact refinement,
    or an iterate is not finite.  ``roots`` holds the last iterates and
    ``radii`` their discs' radii (inf where none is bounded)."""

    def __init__(self, roots, radii):
        self.roots = tuple(complex(z) for z in roots)
        self.radii = tuple(float(r) for r in radii)
        super().__init__(f"root isolation failed: the inclusion discs of {len(self.roots)} roots overlap")


class IllConditionedRootsError(RuntimeError):
    """Two roots the exact factors keep distinct fall within the point-identity
    radius.  ``merged`` reads them as one multiple root, ``separate`` as two;
    the caller sees both and decides, as we refuse to guess."""

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
    blocks = _coefficient_blocks(c)
    with np.errstate(all="ignore"):
        for _ in range(_ABERTH_MAX_ITER):
            pv, dv = _values_and_slopes(blocks, z)
            dv = np.where(dv == 0, 1e-300, dv)
            corr = _aberth_correction(z, pv / dv)
            z = z - corr
            if not np.isfinite(z).all():
                return z  # the correction spreads a non-finite iterate to every other
            if np.max(np.abs(corr) / (1.0 + np.abs(z))) < _ABERTH_STOP:
                break
        # two Newton polish steps sharpen the residuals
        for _ in range(2):
            pv, dv = _values_and_slopes(blocks, z)
            step = np.where(np.abs(dv) > 0, pv / np.where(dv == 0, 1e-300, dv), 0.0)
            z = z - step
    return z


def _coefficient_blocks(c: np.ndarray) -> np.ndarray:
    """The coefficients (low->high) of p and of p' in blocks of b = min(n + 1,
    ``_BLOCK``), zero-padded: entry [j, k, t] is the coefficient of z^(kb + t)
    in p (j = 0) or in p' (j = 1)."""
    n = len(c) - 1
    b = min(n + 1, _BLOCK)
    k = -(-(n + 1) // b)
    blocks = np.zeros((2, k * b), dtype=complex)
    blocks[0, : n + 1] = c
    blocks[1, :n] = c[1:] * np.arange(1, n + 1)
    return blocks.reshape(2, k, b)


def _values_and_slopes(blocks: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p(z_i), p'(z_i)) for every iterate, from ``_coefficient_blocks``.

    One table of the powers z_i^0 .. z_i^(b-1), of shape (b, len(z)) and so
    never more than ``_BLOCK`` rows, is built by one multiply.accumulate; one
    einsum contracts it with every block of p and p' at once, and Horner's
    rule in z_i^b runs across the blocks.  einsum without ``optimize`` sums
    in its own loops, never through BLAS, whose kernels vary with the CPU.
    """
    _, k, b = blocks.shape
    table = np.empty((b, len(z)), dtype=complex)
    table[0] = 1.0
    table[1:] = z
    np.multiply.accumulate(table, axis=0, out=table)
    sums = np.einsum("jkb,bi->kji", blocks, table)
    acc = sums[-1]
    if k > 1:
        zb = table[-1] * z
        for s in sums[-2::-1]:
            acc = acc * zb + s
    return acc[0], acc[1]


def _aberth_correction(z: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """Aberth's w_i for the iterates z and the Newton ratios (p/p')(z_i)."""
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    s = (1.0 / diff).sum(axis=1) - 1.0  # remove the diagonal 1/1 terms
    denom = 1.0 - ratio * s
    return ratio / np.where(denom == 0, 1e-300, denom)


def _disc_radii(z: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Radii of discs about the z_i that hold the roots of q, and which discs may meet another.

    ``bound`` bounds |q(z_i)| above, q the exact monic polynomial whose n
    roots the z_i approximate.  With the Weierstrass corrections W_i =
    q(z_i) / prod_{j!=i} (z_i - z_j), the discs D(z_i, n|W_i|) cover every
    root of q, and a connected component of m of them holds exactly m
    (Braess and Hadeler 1973, Numer. Math. 21; Carstensen 1991, Numer. Math.
    59).  The product of distances is bounded below, its factors below 1
    certifying that no partial product left the normal range; the factors
    1 + 16(n + 2)u on the radii and 1 - 8u on the distances cover the
    (1 + u)^(4n + 8) that sums and products of positive terms can err by;
    a non-finite, overflowed or underflowed disc clashes.
    """
    n = len(z)
    with np.errstate(all="ignore"):
        dist = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(dist, 1.0)
        product = dist.prod(axis=1)
        floor = np.minimum(dist, 1.0).prod(axis=1)
        radii = n * (1 + 16 * (n + 2) * _U) * bound / product
        np.fill_diagonal(dist, np.inf)
        apart = (radii[:, None] + radii[None, :] < dist * (1 - 8 * _U)).all(axis=1)
        clash = ~(apart & (floor >= _TINY) & np.isfinite(product) & np.isfinite(radii))
    return radii, clash


def _horner_bound(p: Polynomial, z: np.ndarray) -> np.ndarray:
    """Upper bounds of |q(z_i)|, for the monic float view p of an exact monic q, each part correctly rounded.

    Horner's computed partial sums y_k of p(z_i) give G = sum_k |y_k|
    |z_i|^k; with u the unit roundoff, each step's complex product errs by
    at most sqrt(2) gamma_2 < 3u of |z_i y_(k+1)| (Higham, *Accuracy and
    Stability*, Lemma 3.5) and its sum by at most u / (1 - u) < 2u of |y_k|,
    so the running error bound (ibid., section 5.1) of the computed p(z_i)
    is at most 5uG.  Each coefficient of p errs from q's by at most u
    relative, and sum_k |p_k| |z_i|^k <= 2G + 5uG, so |q(z_i)| <= |y_0| +
    10uG, plus 8(n + 1)(1 + G) least doubles for what rounds below the
    normal range.
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
        return np.abs(y) + 10 * _U * g + 8 * (n + 1) * _SUBNORMAL * (1 + g)


def _inclusion_radii(p: Polynomial, z: np.ndarray) -> np.ndarray | None:
    """Radii of pairwise disjoint discs about the Aberth roots z of the exact
    monic q, one root in each (``_disc_radii``, with ``_horner_bound``'s
    bounds for the monic view p); None if they overlap."""
    radii, clash = _disc_radii(z, _horner_bound(p, z))
    return None if clash.any() else radii


def _exact_step(q: Exact, z: complex) -> tuple[float, complex]:
    """(a bound above |q(z) / lc(q)|, q(z) / q'(z) rounded once), for the double z read exactly.

    With z = w / 2^k, Horner's scheme on the homogenised q gives V =
    2^(kn) q(z) and W = 2^(k(n-1)) q'(z) over Z[i]; each part of V / (2^k W)
    is one int / int, which Python rounds correctly.  ``OverflowError``
    where a part is beyond the range of a double.
    """
    (a, da), (b, db) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    d = max(da, db)
    a, b, k, n = a * (d // da), b * (d // db), d.bit_length() - 1, len(q) - 1
    (vr, vi), wr, wi = q[-1], 0, 0
    for j in range(n - 1, -1, -1):
        x, y = q[j]
        wr, wi = wr * a - wi * b + vr, wr * b + wi * a + vi
        vr, vi = vr * a - vi * b + (x << k * (n - j)), vr * b + vi * a + (y << k * (n - j))
    num, den = vr * vr + vi * vi, (q[-1][0] ** 2 + q[-1][1] ** 2) << 2 * k * n
    # isqrt(floor(t)) + 1 exceeds sqrt(t); the 2m extra bits leave the root about 60
    m = max(0, 121 - num.bit_length() + den.bit_length()) // 2 + 1
    bound = math.nextafter((math.isqrt((num << 2 * m) // den) + 1) / (1 << m), math.inf)
    norm = (wr * wr + wi * wi) << k
    return bound, complex((vr * wr + vi * wi) / norm, (vi * wr - vr * wi) / norm) if norm else 0j


def _refined_roots(q: Exact, p: Polynomial, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The roots of the exact square-free q and their disjoint discs, refined from Aberth's z.

    Only iterates whose discs meet another's move (p is q's monic view): each
    first off the real axis by a fixed-angle fraction of its nearest-neighbour
    distance, as real steps keep a near-real conjugate pair real, then by up
    to ``_REFINE_MAX_STEPS`` Aberth steps with exact Newton ratios, its bound
    now the exact |q(z_i)| (``_exact_step``).  RootIsolationError where the
    discs still overlap.
    """
    bound = _horner_bound(p, z)
    radii, active = _disc_radii(z, bound)
    corr, ratio = np.zeros(len(z), dtype=complex), np.zeros(len(z), dtype=complex)
    with np.errstate(all="ignore"):
        dist = np.abs(z[:, None] - z[None, :])
        np.fill_diagonal(dist, np.inf)
        z = np.where(active, z + _OFF_AXIS * dist.min(axis=1), z)
        for step in range(_REFINE_MAX_STEPS + 1):
            if step:
                z = z - (corr := np.where(active, _aberth_correction(z, ratio), 0))
            moved = np.flatnonzero(active)
            try:
                bound[moved], ratio[moved] = zip(*(_exact_step(q, x) for x in z[moved].tolist()))
            except (OverflowError, ValueError):  # a part beyond the range of a double, or NaN
                raise RootIsolationError(z, np.full(len(z), np.inf)) from None
            radii, clash = _disc_radii(z, bound)
            converged = step and np.max(np.abs(corr) / (1.0 + np.abs(z))) < _ABERTH_STOP
            if not clash.any() and (converged or step == _REFINE_MAX_STEPS):
                return z, radii
            active |= clash
    raise RootIsolationError(z, radii)


def _located_roots(q: Exact) -> list[complex]:
    """The roots of the exact square-free q: Aberth's, where their double
    discs are disjoint, else ``_refined_roots``."""
    view = _monic_view(q)
    located = _aberth(view)
    if _inclusion_radii(view, located) is None:
        located, _radii = _refined_roots(q, view, located)
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


def gcd_free_basis(polys) -> dict[Exact, list[int]]:
    """Pairwise coprime, square-free, primitive pieces that factor every input,
    each mapped to its exponents, one per input: each nonzero input is a
    constant times the product of the pieces to those powers, and every root
    of a piece has the piece's exponent as its multiplicity in each input.

    Factor refinement (Bach, Driscoll and Shallit, J. Algorithms 15, 1993)
    over the inputs' Yun factors: each factor f, of multiplicity m in input
    j, enters in turn, and where it shares a factor g with a piece y, y is
    split into g, which takes y's exponents with entry j set to m, and
    y / g, which keeps y's; f goes on as f / g, which is prime to both, as f
    and y are square-free, and what is left of it enters with m at entry j
    and 0 elsewhere.  A piece never moves: a linear input that enters first
    stays where it entered, one piece of its own.
    """
    polys = list(polys)
    basis: list[tuple[Exact, list[int]]] = []
    for j, p in enumerate(polys):
        for m, f in enumerate(_yun_factors(p), start=1):
            if len(f) < 2:
                continue
            for i in range(len(basis)):
                y, e = basis[i]
                g = common_part(f, y)
                if len(g) >= 2:
                    f = exact_quotient(f, g)
                    if len(g) < len(y):
                        basis.append((exact_quotient(y, g), e))
                    basis[i] = (g, [*e[:j], m, *e[j + 1 :]])
                    if len(f) < 2:
                        break
            if len(f) >= 2:
                basis.append((f, [m if k == j else 0 for k in range(len(polys))]))
    return dict(basis)


def _monic_view(p: Exact) -> Polynomial:
    """p / lc(p), each part correctly rounded."""
    x, y = p[-1]
    return rounded(exact_mul(p, ((x, -y),)), x * x + y * y)


def roots_with_multiplicity(p: Exact, tol: Tolerances | None = None) -> list[tuple[complex, int]]:
    """All roots of the polynomial ``p`` over Z[i] with multiplicities (summing to deg p).

    Returns (root, multiplicity) pairs sorted by (re, im); the roots of the
    Yun factor f_m carry m, and each root is a ``LocatedRoot`` that carries
    f_m itself, so orders at it are read off f_m exactly. Each root of f_m
    lies in its own inclusion disc (RootIsolationError where none separate
    them); IllConditionedRootsError when two fall within the point-identity
    radius, though the exact factors keep them apart.
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
            for r in _located_roots(f)
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
    return located
