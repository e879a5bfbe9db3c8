"""Exceptional and totally ramified values of a rational map on a punctured sphere.

A value is *exceptional* when every one of its preimages is a puncture (the
restricted map omits it), and *totally ramified* when the map branches at
every non-puncture preimage.  The weight of a value with minimum
multiplicity nu is 1 - 1/nu, exceptional values weigh 1, and the total
weight nu_f is the quantity the curvature bounds cap.

The search is finite because only finitely many values can qualify: a value
that is neither a critical value nor the image of a puncture has d simple
non-puncture preimages.  The candidate set is therefore the critical values
(both charts) together with the puncture images.  Every fiber is read off
one table per map: each root c of the Wronskian N'D - ND' with local degree
1 + ord_c, infinity with its local degree when it is critical, and the
punctures.  Over a candidate value, deg f minus the local degrees of the
table points counts the simple preimages outside the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exprparse import as_sphere_point
from .poly import Polynomial
from .rational import INF, TRIM_RTOL, RationalFunction, SpherePoint, distinct_points
from .roots import roots_with_multiplicity
from .tolerances import Tolerances

__all__ = [
    "Preimage",
    "RamifiedValue",
    "RamificationReport",
    "preimages",
    "ramification_report",
    "KIND_EXCEPTIONAL",
    "KIND_TOTALLY_RAMIFIED",
    "OverfullFiberError",
]

KIND_EXCEPTIONAL = "exceptional"
KIND_TOTALLY_RAMIFIED = "totally-ramified"


class OverfullFiberError(ArithmeticError):
    """The local degrees over one value add up to more than deg f.

    Either two critical values fell within the point-identity radius while
    their critical points did not, so two fibers were grouped as one, or a
    multiple root of the Wronskian was located as several simple roots.
    """


@dataclass(frozen=True)
class Preimage:
    point: SpherePoint
    multiplicity: int
    is_puncture: bool


@dataclass(frozen=True)
class RamifiedValue:
    """One qualifying value with its full preimage fiber.

    ``nu`` is the minimum multiplicity over non-puncture preimages, and
    math.inf for exceptional values (no non-puncture preimage exists).
    """

    value: SpherePoint
    kind: str
    nu: float
    preimages: tuple[Preimage, ...]

    @property
    def is_exceptional(self) -> bool:
        return self.kind == KIND_EXCEPTIONAL

    def weight(self) -> Fraction:
        """Contribution to nu_f: 1 for exceptional, 1 - 1/nu otherwise."""
        if self.is_exceptional:
            return Fraction(1)
        return 1 - Fraction(1, int(self.nu))


@dataclass(frozen=True)
class RamificationReport:
    degree: int
    puncture_count: int
    values: tuple[RamifiedValue, ...]
    exceptional_count: int
    nu_f: Fraction
    n0: int
    nr: int
    n1: int
    rh_ok: bool
    puncture_budget_ok: bool
    ramified_weight_ok: bool
    ramified_weight_lhs: Fraction
    ramified_weight_rhs: Fraction


def preimages(f: RationalFunction, a, tol: Tolerances | None = None) -> list[tuple[SpherePoint, int]]:
    """The fiber f^{-1}(a) with multiplicities; they always sum to deg f.

    Finite a: roots of num - a*den.  a = infinity: roots of den.  Whenever
    the fiber polynomial drops below deg f, the balance sits at infinity.
    ``bounds.shared_values`` compares the fibers of generic values with it,
    and the tests check every fiber the Wronskian table gives against it.
    """
    if f.is_constant:
        raise ValueError("preimages of a constant map are not a finite fiber")
    target = as_sphere_point(a)
    d = f.degree
    if target.is_infinity:
        fiber_poly = f.den
    else:
        fiber_poly = f.num - f.den.scale(target.value)
    out: list[tuple[SpherePoint, int]] = []
    if fiber_poly.degree >= 1:
        for root, mult in roots_with_multiplicity(fiber_poly, tol):
            out.append((SpherePoint(root), mult))
    covered = sum(m for _, m in out)
    if covered < d:
        out.append((INF, d - covered))
    out.sort(key=lambda pm: pm[0].sort_key())
    return out


def _local_multiplicity_at_infinity(f: RationalFunction, tol: Tolerances) -> int:
    """Local degree of the map at z = infinity."""
    value = f.value_at_sphere(INF, tol)
    if value.is_infinity:
        return f.num.degree - f.den.degree
    # the order of f - c at infinity: deg D - deg(N - c D), with N - c D
    # trimmed as the RationalFunction constructor trims it
    rest = (f.num - f.den.scale(value.value)).trim(TRIM_RTOL)
    if rest.is_zero:
        raise ValueError("local degree of a constant map is undefined")
    return f.den.degree - rest.degree


def _ramified_values(
    f: RationalFunction,
    punctures: tuple[SpherePoint, ...],
    w: Polynomial,
    e_inf: int,
    tol: Tolerances,
) -> tuple[RamifiedValue, ...]:
    """The qualifying values of f, given its Wronskian w and local degree at infinity.

    A critical point within eps_pt of a puncture is that puncture; every
    other puncture has local degree 1.
    """
    critical = [(SpherePoint(c), 1 + m) for c, m in roots_with_multiplicity(w, tol)] if w.degree >= 1 else []
    if e_inf >= 2:
        critical.append((INF, e_inf))
    table: list[tuple[Preimage, SpherePoint]] = []
    for point, e in critical:
        puncture = next((p for p in punctures if point.close_to(p, tol.eps_pt)), None)
        table.append((Preimage(puncture or point, e, puncture is not None), f.value_at_sphere(point, tol)))
    images = [f.value_at_sphere(p, tol) for p in punctures]
    candidates = sorted(distinct_points([v for _, v in table] + images, tol.eps_pt), key=SpherePoint.sort_key)
    claimed = {pre.point for pre, _ in table}
    table += [(Preimage(p, 1, True), v) for p, v in zip(punctures, images) if p not in claimed]

    out = []
    for value in candidates:
        over = [pre for pre, v in table if v.close_to(value, tol.eps_pt)]
        fiber = sorted(over, key=lambda pre: pre.point.sort_key())
        total = sum(pre.multiplicity for pre in fiber)
        if total > f.degree:
            raise OverfullFiberError(f"local degrees over {value} add up to {total} > deg f = {f.degree}")
        free = [pre.multiplicity for pre in fiber if not pre.is_puncture]
        if total == f.degree:
            kind, nu = (KIND_TOTALLY_RAMIFIED, min(free)) if free else (KIND_EXCEPTIONAL, math.inf)
            out.append(RamifiedValue(value, kind, nu, tuple(fiber)))
    return tuple(out)


def _branching_over(rv: RamifiedValue) -> int:
    return sum(pre.multiplicity - 1 for pre in rv.preimages)


def ramification_report(f: RationalFunction, punctures, tol: Tolerances | None = None) -> RamificationReport:
    """All Definition-level quantities plus the instance inequalities.

    ``values`` holds every totally ramified value, the exceptional ones
    (those the restricted map omits) included and marked.

    n1 is the total branching order over the whole sphere, computed from
    the Wronskian degree and the local degree at infinity; rh_ok asserts
    the Riemann-Hurwitz identity n1 = 2 deg - 2, which holds whenever the
    multiplicity extraction was sound.  Two counting inequalities relate
    punctures, exceptional values, and branching:

        puncture budget:  k >= d*r0 - n0
        ramified weight:  l0 - sum(1/nu_j) <= nr / d   (non-exceptional only)

    The ramified-weight inequality can fail legitimately when puncture
    preimages absorb branching; it is reported, not raised.
    """
    tol = tol or Tolerances()
    if f.is_constant:
        raise ValueError("ramification of a constant map is undefined")
    pts = tuple(as_sphere_point(p) for p in punctures)
    d = f.degree
    w = f.derivative_numerator()
    e_inf = _local_multiplicity_at_infinity(f, tol)
    values = _ramified_values(f, pts, w, e_inf, tol)
    r0 = sum(1 for rv in values if rv.is_exceptional)

    nu_f = Fraction(0)
    for rv in values:
        nu_f += rv.weight()

    n0 = sum(_branching_over(rv) for rv in values if rv.is_exceptional)
    nr = sum(_branching_over(rv) for rv in values if not rv.is_exceptional)
    n1 = w.degree + (e_inf - 1)

    free_values = [rv for rv in values if not rv.is_exceptional]
    l0 = len(free_values)
    ramified_weight_lhs = l0 - sum(Fraction(1, int(rv.nu)) for rv in free_values)
    ramified_weight_rhs = Fraction(nr, d)

    return RamificationReport(
        degree=d,
        puncture_count=len(pts),
        values=values,
        exceptional_count=r0,
        nu_f=nu_f,
        n0=n0,
        nr=nr,
        n1=n1,
        rh_ok=n1 == 2 * d - 2,
        puncture_budget_ok=len(pts) >= d * r0 - n0,
        ramified_weight_ok=ramified_weight_lhs <= ramified_weight_rhs,
        ramified_weight_lhs=ramified_weight_lhs,
        ramified_weight_rhs=ramified_weight_rhs,
    )
