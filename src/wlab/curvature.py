"""Gauss curvature and total curvature of the induced metric.

The curvature of the metric ds^2 = lambda^2 |dz|^2 built from (h, g1, g2) is

    K = -2 (sigma_1^2 + sigma_2^2) / (|h|^2 (1+|g1|^2)(1+|g2|^2))

where sigma_i = |g_i'| / (1+|g_i|^2) is the spherical derivative of the
i-th Gauss map.  The total curvature integrates 2(sigma_1^2 + sigma_2^2)
over the sphere; for rational Gauss maps each sigma_i^2 contributes exactly
pi times the map degree, giving the closed form -2 pi (d1 + d2).

The quadrature route never trusts that closed form: it integrates the
density adaptively on two unit-disk charts (z and w = 1/z) and the caller
compares.  The integrand is smooth on the whole sphere — the spherical
derivative of a rational map has no poles — so plain Gauss-Legendre cells
converge fast.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .rational import RationalFunction
from .tolerances import Tolerances
from .weierstrass import WeierstrassData

if TYPE_CHECKING:
    from .analysis import Analysis

__all__ = [
    "TotalCurvatureReport",
    "QuadratureError",
    "spherical_derivative",
    "curvature_from_metric",
    "total_curvature_quadrature",
]

VERDICT_FLAT = "flat"
VERDICT_FINITE = "finite-algebraic"
VERDICT_COVER = "infinite-universal-cover"


class QuadratureError(RuntimeError):
    """Adaptive refinement hit the cell budget before reaching tolerance."""

    def __init__(self, value: float, error: float, cells: int):
        self.value = value
        self.error = error
        self.cells = cells
        super().__init__(
            f"quadrature did not converge: value {value:.6g}, error estimate "
            f"{error:.3g} after {cells} cells"
        )


@dataclass(frozen=True)
class TotalCurvatureReport:
    """Closed-form total curvature plus the verdict on the actual surface.

    ``basic_domain_value`` is the integral over the punctured sphere the
    data lives on.  When the periods fail, the immersion only exists on the
    universal cover and the surface-level total curvature is -infinity.
    """

    d1: int
    d2: int
    basic_domain_value: float
    period_ok: bool
    surface_verdict: str
    surface_value: float


def spherical_derivative(g: RationalFunction, z: np.ndarray) -> np.ndarray:
    """|g'| / (1 + |g|^2) on an array of points, computed pole-safely from
    the reduced fraction.

    With g = N/D reduced, this equals |N'D - ND'| / (|N|^2 + |D|^2), which
    stays finite and correct at poles of g (``RationalFunction.wronskian``).
    """
    w, n, d = g.wronskian, g.num, g.den
    return np.abs(w(z)) / (np.abs(n(z)) ** 2 + np.abs(d(z)) ** 2)


def _density(g1: RationalFunction, g2: RationalFunction):
    """The total-curvature density 2(sigma_1^2 + sigma_2^2) as a callable."""

    def fn(z):
        s1 = spherical_derivative(g1, z)
        s2 = spherical_derivative(g2, z)
        return 2.0 * (s1 * s1 + s2 * s2)

    return fn


def curvature_from_metric(d: WeierstrassData, z, lam2):
    """K = -(sigma_1^2 + sigma_2^2) / (2 lambda^2) on an array of points,
    given lambda^2 there; the mesh passes the lambda^2 it already evaluated."""
    s1 = spherical_derivative(d.g1, z)
    s2 = spherical_derivative(d.g2, z)
    return -(s1 * s1 + s2 * s2) / (2.0 * lam2)


@lru_cache(maxsize=8)
def _gl_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def _cell_integrals(fn, cells, n: int) -> list[float]:
    """Tensor Gauss-Legendre estimates of the polar integral over each cell.

    The density is evaluated once over the nodes of all the cells; each
    cell's estimate is then reduced on its own block of values, exactly as
    if the cell had been evaluated alone.
    """
    x, w = _gl_rule(n)
    r0, r1, t0, t1 = np.asarray(cells, dtype=float).T[:, :, None]
    rm, rh = 0.5 * (r1 + r0), 0.5 * (r1 - r0)
    tm, th = 0.5 * (t1 + t0), 0.5 * (t1 - t0)
    r = rm + rh * x
    t = tm + th * x
    rr = np.repeat(r[:, :, None], n, axis=2)
    tt = np.repeat(t[:, None, :], n, axis=1)
    z = rr * np.exp(1j * tt)
    vals = fn(z) * rr
    return [
        float(rh[k, 0] * th[k, 0] * np.einsum("i,j,ij->", w, w, vals[k]))
        for k in range(len(cells))
    ]


def _integrate_polar(fn, r0: float, r1: float, rtol: float, max_cells: int) -> float:
    """Deterministic adaptive quadrature over the annulus r0 <= |z| <= r1.

    Cells are refined worst-error-first (error = |GL8 - GL4|); ties break on
    insertion order, and the final sum is compensated.  Cells pushed
    together (the initial grid, the four children of a split) share one
    density evaluation per rule.
    """
    seq = 0
    heap = []
    total = 0.0
    err = 0.0

    def push(cells) -> None:
        nonlocal seq, total, err
        coarse = _cell_integrals(fn, cells, 4)
        fine = _cell_integrals(fn, cells, 8)
        for cell, c, f in zip(cells, coarse, fine):
            heapq.heappush(heap, (-abs(f - c), seq, cell, f))
            total += f
            err += abs(f - c)
            seq += 1

    n_r = 2 if r0 > 0 else 4
    rs = np.linspace(r0, r1, n_r + 1)
    ts = np.linspace(0.0, 2.0 * math.pi, 9)
    push(
        [
            (float(rs[i]), float(rs[i + 1]), float(ts[j]), float(ts[j + 1]))
            for i in range(len(rs) - 1)
            for j in range(len(ts) - 1)
        ]
    )

    while err > rtol * max(abs(total), 1e-12):
        if len(heap) >= max_cells:
            raise QuadratureError(total, err, len(heap))
        neg_err, _s, (a, b, c, d), val = heapq.heappop(heap)
        total -= val
        err += neg_err
        rm, tm = 0.5 * (a + b), 0.5 * (c + d)
        push([(a, rm, c, tm), (a, rm, tm, d), (rm, b, c, tm), (rm, b, tm, d)])
    return math.fsum(item[3] for item in heap)


def total_curvature_quadrature(
    d: WeierstrassData, tol: Tolerances | None = None, max_cells: int = 20000
) -> float:
    """Total curvature by two-chart adaptive quadrature.

    Chart 1 integrates the density for (g1, g2) over |z| <= 1; chart 2
    integrates the density for (g1(1/w), g2(1/w)) over |w| <= 1, which is
    the |z| >= 1 half of the sphere.  Punctures carry no mass.
    """
    tol = tol or Tolerances()
    inner = _integrate_polar(_density(d.g1, d.g2), 0.0, 1.0, 0.5 * tol.quad_rtol, max_cells)
    outer = _integrate_polar(
        _density(_flip(d.g1), _flip(d.g2)), 0.0, 1.0, 0.5 * tol.quad_rtol, max_cells
    )
    return -(inner + outer)


def _flip(g: RationalFunction) -> RationalFunction:
    if g.is_zero or g.is_constant:
        return g
    return g.reciprocal_argument()


def closed_form_of(an: Analysis) -> TotalCurvatureReport:
    """-2 pi (d1 + d2) on the basic domain of one analysed data set, plus the
    surface-level verdict.

    Degenerate Gauss maps give the flat verdict with zero curvature; a
    period failure means the immersion only closes up on the universal
    cover, whose total curvature is infinite.
    """
    d = an.data
    d1 = 0 if d.g1.is_constant else d.g1.degree
    d2 = 0 if d.g2.is_constant else d.g2.degree
    basic = -2.0 * math.pi * (d1 + d2)
    if d1 + d2 == 0:
        return TotalCurvatureReport(
            d1=d1, d2=d2, basic_domain_value=0.0, period_ok=an.periods.period_ok,
            surface_verdict=VERDICT_FLAT, surface_value=0.0,
        )
    if an.periods.period_ok:
        return TotalCurvatureReport(
            d1=d1, d2=d2, basic_domain_value=basic, period_ok=True,
            surface_verdict=VERDICT_FINITE, surface_value=basic,
        )
    return TotalCurvatureReport(
        d1=d1, d2=d2, basic_domain_value=basic, period_ok=False,
        surface_verdict=VERDICT_COVER, surface_value=-math.inf,
    )
