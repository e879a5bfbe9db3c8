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
one table per map (``fiber_table``): each root c of the Wronskian N'D - ND'
with local degree 1 + ord_c, infinity with its local degree when it is
critical, and the punctures.  Over any value, deg f minus the local degrees
of the table points counts the simple preimages outside the table.  The
Wronskian's roots come from three exact factors of it, each with its value:
the multiple zeros (0), the multiple poles (infinity) and the rest, whose
values are finite and nonzero; the puncture images are exact values,
rounded once.

The table is the one route to a fiber, and it has two readers:
``ramification_report`` reads the fibers over its candidates, and
``bounds.shared_values`` reads ``FiberTable.free_count``, the number of
distinct preimages off the punctures, over the values two maps may share.
No fiber polynomial N - aD is root-found.  The table indexes its values once,
sorted by real part (``PointIndex``), so a fiber tests ``close_to`` only in
the window a bisection leaves, and finds what a scan of every entry finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exprparse import as_sphere_point
from .rational import INF, PointIndex, RationalFunction, SpherePoint, distinct_points
from .poly import exact_quotient
from .roots import multiple_part, roots_with_multiplicity
from .tolerances import Tolerances

__all__ = [
    "Preimage",
    "RamifiedValue",
    "RamificationReport",
    "FiberTable",
    "fiber_table",
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


@dataclass(frozen=True)
class FiberTable:
    """Every point of one map's fibers that is not a simple non-puncture preimage.

    ``entries`` pairs each table point, as a ``Preimage`` carrying its local
    degree, with its value: the roots of the Wronskian with local degree 1 +
    their multiplicity, infinity when its local degree is at least 2, then
    every puncture no critical point claimed, with local degree 1.  A
    critical point within eps_pt of a puncture is that puncture.  Every
    other point of the sphere is a simple preimage of its value.
    ``candidates`` are the critical values and the puncture images, sorted:
    the only values that can be exceptional or totally ramified.
    ``branching`` is the total branching order n1 over the whole sphere.
    """

    degree: int
    branching: int
    entries: tuple[tuple[Preimage, SpherePoint], ...]
    candidates: tuple[SpherePoint, ...]
    eps_pt: float
    _values: PointIndex = field(init=False, repr=False, compare=False)
    _keys: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # one index of the values and one sort key per table point, for every fiber
        object.__setattr__(self, "_values", PointIndex(self.eps_pt, (v for _, v in self.entries)))
        object.__setattr__(self, "_keys", tuple(pre.point.sort_key() for pre, _ in self.entries))

    def fiber(self, value: SpherePoint) -> tuple[Preimage, ...]:
        """The table points over ``value``, sorted.

        Raises ``OverfullFiberError`` when their local degrees add up to more
        than deg f.
        """
        over = tuple(self.entries[i][0] for i in sorted(self._values.near(value), key=self._keys.__getitem__))
        total = sum(pre.multiplicity for pre in over)
        if total > self.degree:
            raise OverfullFiberError(f"local degrees over {value} add up to {total} > deg f = {self.degree}")
        return over

    def free_count(self, value: SpherePoint) -> int:
        """The number of distinct preimages of ``value`` off the punctures.

        The non-puncture table points over ``value``, plus the simple
        preimages outside the table: deg f minus the local degrees of all
        table points over ``value``.
        """
        fiber = self.fiber(value)
        free = sum(1 for pre in fiber if not pre.is_puncture)
        return free + self.degree - sum(pre.multiplicity for pre in fiber)


def roots_and_values(f: RationalFunction, parts, tol: Tolerances) -> list[tuple[SpherePoint, int, SpherePoint]]:
    """(point, multiplicity, f's value there) for each root of the exact
    parts, sorted by (re, im).  Each point carries the Yun factor it was
    located from, so the value is 0 or infinity exactly where that factor
    divides f's numerator or denominator; the values at one part's roots
    are read together (``values_at``)."""
    located = []
    for p in parts:
        if len(p) >= 2:
            points, ms = zip(*((SpherePoint(r), m) for r, m in roots_with_multiplicity(p, tol)))
            located += zip(points, ms, f.values_at(points))
    return sorted(located, key=lambda pmv: (pmv[0].value.real, pmv[0].value.imag))


def fiber_table(f: RationalFunction, punctures, tol: Tolerances | None = None) -> FiberTable:
    """The fiber table of a non-constant map f = a / b, from the Wronskian
    W = a'b - ab' and three exact factors of it.

    A zero of f of multiplicity m is a root of W of multiplicity m - 1, as
    it is of gcd(a, a'), and likewise a pole, of gcd(b, b'); so these two
    give the multiple zeros and poles, and W1 = W / (gcd(a, a') gcd(b, b'))
    the critical points with finite nonzero values (``roots_and_values``).
    For a map whose a and b are square-free, W1 is W.
    """
    tol = tol or Tolerances()
    pts = tuple(as_sphere_point(p) for p in punctures)
    a, b = f.pair
    w = f.derivative_numerator()
    zeros, poles = multiple_part(a), multiple_part(b)
    parts = (zeros, poles, exact_quotient(exact_quotient(w, zeros), poles))
    e_inf = f.local_degree_at_infinity()
    entries: list[tuple[Preimage, SpherePoint]] = []
    for point, m, value in roots_and_values(f, parts, tol):
        puncture = next((p for p in pts if point.close_to(p, tol.eps_pt)), None)
        entries.append((Preimage(puncture or point, 1 + m, puncture is not None), value))
    if e_inf >= 2:
        entries.append((Preimage(INF, e_inf, INF in pts), f.value_at_sphere(INF)))
    images = [f.value_at_sphere(p) for p in pts]
    candidates = sorted(distinct_points([v for _, v in entries] + images, tol.eps_pt), key=SpherePoint.sort_key)
    claimed = {pre.point for pre, _ in entries}
    entries += [(Preimage(p, 1, True), v) for p, v in zip(pts, images) if p not in claimed]
    return FiberTable(f.degree, len(w) - 2 + e_inf, tuple(entries), tuple(candidates), tol.eps_pt)


def _ramified_values(table: FiberTable) -> tuple[RamifiedValue, ...]:
    """The candidates whose table points carry all of deg f."""
    out = []
    for value in table.candidates:
        fiber = table.fiber(value)
        if sum(pre.multiplicity for pre in fiber) == table.degree:
            free = [pre.multiplicity for pre in fiber if not pre.is_puncture]
            kind, nu = (KIND_TOTALLY_RAMIFIED, min(free)) if free else (KIND_EXCEPTIONAL, math.inf)
            out.append(RamifiedValue(value, kind, nu, fiber))
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
    if f.is_constant:
        raise ValueError("ramification of a constant map is undefined")
    pts = tuple(as_sphere_point(p) for p in punctures)
    table = fiber_table(f, pts, tol)
    d = f.degree
    values = _ramified_values(table)
    r0 = sum(1 for rv in values if rv.is_exceptional)

    nu_f = Fraction(0)
    for rv in values:
        nu_f += rv.weight()

    n0 = sum(_branching_over(rv) for rv in values if rv.is_exceptional)
    nr = sum(_branching_over(rv) for rv in values if not rv.is_exceptional)
    n1 = table.branching

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
