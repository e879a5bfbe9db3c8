"""Gauss curvature and total curvature of the induced metric.

The curvature of the metric ds^2 = lambda^2 |dz|^2 built from (h, g1, g2) is

    K = -2 (sigma_1^2 + sigma_2^2) / (|h|^2 (1+|g1|^2)(1+|g2|^2))

where sigma_i = |g_i'| / (1+|g_i|^2) is the spherical derivative of the
i-th Gauss map.  The total curvature integrates 2(sigma_1^2 + sigma_2^2)
over the sphere; for rational Gauss maps each sigma_i^2 contributes exactly
pi times the map degree, giving the closed form -2 pi (d1 + d2).

That is an identity (Hoffman and Osserman, *The geometry of the generalized
Gauss map*, Mem. AMS 236, 1980): ``closed_form_of`` reads the total
curvature off the exact map degrees, and no quadrature runs.  Only the
pointwise K is a float evaluation, at the mesh's vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .rational import RationalFunction
from .weierstrass import WeierstrassData

if TYPE_CHECKING:
    from .analysis import Analysis

__all__ = [
    "TotalCurvatureReport",
    "spherical_derivative",
    "curvature_from_metric",
]

VERDICT_FLAT = "flat"
VERDICT_FINITE = "finite-algebraic"
VERDICT_COVER = "infinite-universal-cover"


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


def curvature_from_metric(d: WeierstrassData, z, lam2):
    """K = -(sigma_1^2 + sigma_2^2) / (2 lambda^2) on an array of points,
    given lambda^2 there; the mesh passes the lambda^2 it already evaluated."""
    s1 = spherical_derivative(d.g1, z)
    s2 = spherical_derivative(d.g2, z)
    return -(s1 * s1 + s2 * s2) / (2.0 * lam2)


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
