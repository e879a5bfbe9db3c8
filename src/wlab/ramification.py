"""Exceptional and totally ramified values of a rational map on a punctured sphere.

A value is *exceptional* when every one of its preimages is a puncture (the
restricted map omits it), and *totally ramified* when the map branches at
every non-puncture preimage.  The weight of a value with minimum
multiplicity nu is 1 - 1/nu, exceptional values weigh 1, and the total
weight nu_f is the quantity the curvature bounds cap.

The search is finite because only finitely many values can qualify: a value
that is neither a critical value nor the image of a puncture has d simple
non-puncture preimages.  The candidate set is therefore the critical values
(both charts) together with the puncture images, each candidate verified by
a full preimage computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exprparse import as_sphere_point
from .rational import INF, RationalFunction, SpherePoint, distinct_points
from .roots import roots_with_multiplicity
from .tolerances import Tolerances
from .weierstrass import require_genus_zero

__all__ = [
    "Preimage",
    "RamifiedValue",
    "RamificationReport",
    "preimages",
    "exceptional_values",
    "totally_ramified_values",
    "ramification_report",
    "KIND_EXCEPTIONAL",
    "KIND_TOTALLY_RAMIFIED",
]

KIND_EXCEPTIONAL = "exceptional"
KIND_TOTALLY_RAMIFIED = "totally-ramified"


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
    """
    tol = tol or Tolerances()
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
    rest = (f.num - f.den.scale(value.value)).trim(Tolerances().eps_coeff)
    if rest.is_zero:
        raise ValueError("local degree of a constant map is undefined")
    return f.den.degree - rest.degree


def _critical_values(f: RationalFunction, tol: Tolerances) -> list[SpherePoint]:
    values: list[SpherePoint] = []
    w = f.derivative_numerator()
    if w.degree >= 1:
        for root, _mult in roots_with_multiplicity(w, tol):
            values.append(f.value_at_sphere(root, tol))
    if _local_multiplicity_at_infinity(f, tol) >= 2:
        values.append(f.value_at_sphere(INF, tol))
    return values


def _classify_value(
    f: RationalFunction,
    value: SpherePoint,
    punctures: tuple[SpherePoint, ...],
    tol: Tolerances,
) -> RamifiedValue | None:
    """RamifiedValue for a candidate, or None when the value is ordinary."""
    fiber = []
    for point, mult in preimages(f, value, tol):
        snapped = point
        is_punc = False
        for p in punctures:
            if point.close_to(p, tol.eps_pt):
                snapped, is_punc = p, True
                break
        fiber.append(Preimage(snapped, mult, is_punc))
    free = [pre for pre in fiber if not pre.is_puncture]
    if not free:
        return RamifiedValue(value=value, kind=KIND_EXCEPTIONAL, nu=math.inf, preimages=tuple(fiber))
    if all(pre.multiplicity >= 2 for pre in free):
        nu = min(pre.multiplicity for pre in free)
        return RamifiedValue(value=value, kind=KIND_TOTALLY_RAMIFIED, nu=nu, preimages=tuple(fiber))
    return None


def _coerce_punctures(punctures) -> tuple[SpherePoint, ...]:
    return tuple(as_sphere_point(p) for p in punctures)


def exceptional_values(f: RationalFunction, punctures, tol: Tolerances | None = None) -> list[RamifiedValue]:
    """Values the restricted map omits entirely.

    Only an image of a puncture can be omitted, so those are the candidates.
    """
    tol = tol or Tolerances()
    pts = _coerce_punctures(punctures)
    candidates = sorted(
        distinct_points([f.value_at_sphere(p, tol) for p in pts], tol.eps_pt),
        key=SpherePoint.sort_key,
    )
    out = []
    for value in candidates:
        rv = _classify_value(f, value, pts, tol)
        if rv is not None and rv.is_exceptional:
            out.append(rv)
    return out


def totally_ramified_values(f: RationalFunction, punctures, tol: Tolerances | None = None) -> list[RamifiedValue]:
    """All totally ramified values, with exceptional ones included and marked."""
    tol = tol or Tolerances()
    pts = _coerce_punctures(punctures)
    candidates = sorted(
        distinct_points(
            _critical_values(f, tol) + [f.value_at_sphere(p, tol) for p in pts], tol.eps_pt
        ),
        key=SpherePoint.sort_key,
    )
    out = []
    for value in candidates:
        rv = _classify_value(f, value, pts, tol)
        if rv is not None:
            out.append(rv)
    return out


def _branching_over(rv: RamifiedValue) -> int:
    return sum(pre.multiplicity - 1 for pre in rv.preimages)


def ramification_report(
    f: RationalFunction, punctures, genus: int = 0, tol: Tolerances | None = None
) -> RamificationReport:
    """All Definition-level quantities plus the instance inequalities.

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
    require_genus_zero(genus)
    if f.is_constant:
        raise ValueError("ramification of a constant map is undefined")
    pts = _coerce_punctures(punctures)
    d = f.degree
    values = tuple(totally_ramified_values(f, pts, tol))
    r0 = sum(1 for rv in values if rv.is_exceptional)

    nu_f = Fraction(0)
    for rv in values:
        nu_f += rv.weight()

    n0 = sum(_branching_over(rv) for rv in values if rv.is_exceptional)
    nr = sum(_branching_over(rv) for rv in values if not rv.is_exceptional)
    w = f.derivative_numerator()
    n1 = w.degree + (_local_multiplicity_at_infinity(f, tol) - 1)

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
