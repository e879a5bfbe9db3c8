"""Complex polynomial roots with multiplicities, via two independent routes.

Distinct roots are located by an Aberth-Ehrlich simultaneous iteration and,
independently, by the eigenvalues of the companion matrix (numpy.roots);
the two sets are matched, and any disagreement beyond tolerance is raised
as a diagnostic carrying both candidate lists rather than silently averaged.

Multiplicities come from the square-free decomposition. The chain
c_0 = p, c_{i+1} = gcd(c_i, c_i') peels one copy of every repeated root per
step, so each layer quotient s_i = c_i / c_{i+1} is square-free and a root
of multiplicity m appears in exactly the first m layers. Every layer is
located separately (both routes) and matched back to the base layer; the
multiplicity of a base root is the number of layers containing it. Layer
degrees telescope, so multiplicities sum to deg p by construction, and they
are integers read off polynomial division rather than counted from repeated
deflation -- they feed exact bookkeeping downstream (branching orders,
degree identities) where an off-by-one is fatal. Deflation survives only as
a per-root residual sanity bound on the final answer.
"""

from __future__ import annotations

import numpy as np

from wlab.poly import Polynomial, approx_gcd, exact_divide
from wlab.tolerances import Tolerances

__all__ = [
    "roots_with_multiplicity",
    "RootCrossCheckError",
    "IllConditionedRootsError",
]

_ABERTH_MAX_ITER = 120
_ABERTH_STOP = 1e-14
_CROSS_CHECK_RTOL = 1e-6
_LAYER_MATCH_RTOL = 1e-6


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
    """A root cluster cannot be resolved against the gcd analysis.

    Two candidate readings of the same polynomial are attached: ``merged``
    treats near-coincident points as one multiple root, ``separate`` keeps
    them distinct. The caller sees both and decides; we refuse to guess.
    """

    def __init__(self, message, merged, separate):
        super().__init__(message)
        self.merged = tuple(merged)
        self.separate = tuple(separate)


def _aberth(p: Polynomial) -> np.ndarray:
    """Simultaneous (Aberth-Ehrlich) iteration for all roots of p.

    Starting points sit on a staggered circle of radius one plus the Cauchy
    bound max|c_k/c_n|; the correction for root i is

        w_i = (p/p')(z_i) / (1 - (p/p')(z_i) * sum_{j!=i} 1/(z_i - z_j))

    which converges cubically for simple roots. The caller passes the
    square-free part, so simple roots is the expected situation.
    """
    n = p.degree
    if n < 1:
        return np.zeros(0, dtype=complex)
    if n == 1:
        c0, c1 = p.coeffs
        return np.array([-c0 / c1], dtype=complex)
    c = np.asarray(p.monic().coeffs, dtype=complex)
    radius = 1.0 + float(np.max(np.abs(c[:-1])))
    k = np.arange(n)
    # deterministic stagger in angle and radius breaks root symmetries
    angles = 2.0 * np.pi * (k + 0.25) / n + 0.5 / n
    radii = radius * (0.85 + 0.3 * ((k * 0.6180339887498949) % 1.0))
    z = radii * np.exp(1j * angles)
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


def _located_roots(p: Polynomial) -> list[complex]:
    """Roots of a square-free polynomial, by both routes, cross-checked."""
    located = _aberth(p)
    check = _companion_roots(p)
    worst = _match_root_sets(located, check)
    if not worst <= _CROSS_CHECK_RTOL:
        raise RootCrossCheckError(located, check, worst)
    order = np.lexsort((located.imag, located.real))
    return [complex(located[i]) for i in order]


def _square_free_layers(p: Polynomial, tol: Tolerances) -> list[Polynomial]:
    """Quotients s_i = c_i / c_{i+1} of the gcd chain c_{i+1} = gcd(c_i, c_i').

    Each s_i is square-free; its roots are exactly the roots of p with
    multiplicity at least i+1, and the layer degrees sum to deg p.
    """
    chain = [p.monic()]
    while chain[-1].degree >= 1:
        c = chain[-1]
        g = approx_gcd(c, c.derivative(), tol.eps_gcd).monic()
        if g.degree < 1 or g.degree >= c.degree:
            break
        chain.append(g)
    # the quotient inherits a remainder of the same order as the gcd
    # threshold, so the divisibility check must track eps_gcd
    rel_eps = max(1e-6, 10 * tol.eps_gcd)
    layers = []
    for i in range(len(chain)):
        upper = chain[i]
        if i + 1 < len(chain):
            layers.append(exact_divide(upper, chain[i + 1], rel_eps=rel_eps).monic())
        else:
            layers.append(upper)
    return layers


def roots_with_multiplicity(
    p: Polynomial, tol: Tolerances | None = None
) -> list[tuple[complex, int]]:
    """All roots of ``p`` with multiplicities (summing to deg p).

    Returns a list of (root, multiplicity) sorted by (re, im). Each simple
    root r satisfies |p(r)| <= eps_res * max|coeff| * (1+|r|)^deg; a
    multiple root's residual is held to the same bound at eps_gcd, the
    tolerance its multiplicity was extracted with. Raises
    RootCrossCheckError when the two location routes disagree and
    IllConditionedRootsError when the located roots cannot be reconciled
    with the gcd chain: a pair inside the point-identity radius that the
    square-free analysis keeps distinct, a deeper-layer root with no
    unambiguous base match, or a residual violation.
    """
    tol = tol or Tolerances()
    if p.is_zero:
        raise ValueError("zero polynomial has every point as a root")
    if p.degree < 1:
        raise ValueError("constant polynomial has no roots")

    layers = [_located_roots(s) if s.degree >= 1 else [] for s in _square_free_layers(p, tol)]
    base = layers[0]

    # the base layer should have pairwise-distinct roots; two of them inside
    # the point-identity radius means the gcd analysis (distinct) and the
    # point identity (equal) disagree, and we refuse to pick a side.
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            if abs(base[i] - base[j]) <= tol.eps_pt:
                merged = [(0.5 * (base[i] + base[j]), 2)]
                separate = [(base[i], 1), (base[j], 1)]
                raise IllConditionedRootsError(
                    "two roots of the square-free part fall within the point "
                    f"identity radius: {base[i]} vs {base[j]}",
                    merged,
                    separate,
                )

    mult = [1] * len(base)
    for depth, layer in enumerate(layers[1:], start=2):
        for r in layer:
            dist = [abs(b - r) for b in base]
            k = min(range(len(base)), key=dist.__getitem__)
            runner_up = min(
                (dist[j] for j in range(len(base)) if j != k), default=np.inf
            )
            if dist[k] > _LAYER_MATCH_RTOL * (1.0 + abs(r)) or 2 * dist[k] >= runner_up:
                raise IllConditionedRootsError(
                    f"depth-{depth} root {r} of the gcd chain has no "
                    "unambiguous match among the base roots",
                    [(base[k], depth)],
                    [(r, 1), (base[k], 1)],
                )
            mult[k] += 1

    out: list[tuple[complex, int]] = []
    for r, m in zip(base, mult):
        eps = tol.eps_res if m == 1 else tol.eps_gcd
        bound = eps * p.max_abs_coeff * (1.0 + abs(r)) ** p.degree
        if not abs(p(r)) <= bound:
            raise IllConditionedRootsError(
                f"root {r} (multiplicity {m}) fails the residual bound: "
                f"{abs(p(r)):.3e} > {bound:.3e}",
                [(r, m)],
                [(r, 0)],
            )
        out.append((r, m))

    total = sum(m for _, m in out)
    if total != p.degree:
        raise IllConditionedRootsError(
            f"multiplicities sum to {total}, expected degree {p.degree}",
            out,
            [(r, 1) for r, _ in out],
        )
    return out
