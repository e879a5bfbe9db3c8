"""One lazy analysis of one Weierstrass data set.

The paper's bounds rest on a few invariants of one triple (h dz, g1, g2):
the φ-forms, the three surface conditions, the end classification, the
periods and the ramification of each Gauss component.  ``Analysis`` derives
each of them at most once, on first use, and every consumer reads them from
it: the CLI commands, the bounds, the unicity comparison, the closed-form
total curvature and the mesh.  Nothing is derived before it is asked for, so ``ramify``
computes only its own component, and each step runs in the order its first
consumer asks for it, so the first failing step is the one a plain
evaluation would meet.

Every pole of a φ-form is a pole of h, g1 or g2, so each distinct
denominator of those is root-found once (``singular_points``) and the
forms' principal parts are read there (``principal_parts``): regularity,
the periods and the mesh primitive all read that one table.  Equal Gauss
components share one ramification report.

An ``Analysis`` lives as long as its caller holds it (one CLI command, one
library call); no cache outlives it.  It is the library's one entry to the
invariants of a data set: ``bounds`` and ``curvature`` read an ``Analysis``
and never build one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .bounds import BoundsReport, bounds_of
from .curvature import TotalCurvatureReport, closed_form_of
from .poly import exact_primitive
from .ramification import RamificationReport, ramification_report
from .rational import SpherePoint, distinct_points
from .roots import roots_with_multiplicity
from .tolerances import Tolerances
from .weierstrass import (
    ConformalityReport,
    DuplicatePunctureError,
    EndClassification,
    PeriodReport,
    PhiForms,
    RegularityReport,
    UnsupportedGenusError,
    WeierstrassData,
    check_conformality,
    check_regularity,
    classify_ends,
    compute_periods,
    phi_from_data,
)

__all__ = ["Analysis", "PoleTableError"]


class PoleTableError(ArithmeticError):
    """The poles located for h, g1 and g2 miss part of a φ-form's denominator."""


@dataclass(frozen=True, eq=False)
class Analysis:
    """The derived invariants of one genus-0 data set at one tolerance setting.

    Construction checks only that the punctures are distinct at ``tol.eps_pt``
    and that the genus is 0, the one genus gate of every computed analysis;
    every other field is computed on first access and then kept.
    """

    data: WeierstrassData
    tol: Tolerances = field(default_factory=Tolerances)
    _ramification: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        pts = self.data.punctures
        for i, p in enumerate(pts):
            for q in pts[i + 1 :]:
                if p.close_to(q, self.tol.eps_pt):
                    raise DuplicatePunctureError(f"punctures must be pairwise distinct: {p} ~ {q}")
        if self.data.genus != 0:
            raise UnsupportedGenusError(
                f"computed analyses require genus 0, got genus {self.data.genus}; "
                "use the abstract bounds for higher genus"
            )

    @cached_property
    def phi(self) -> PhiForms:
        return phi_from_data(self.data)

    @cached_property
    def singular_points(self) -> tuple[complex, ...]:
        """The finite punctures, then every finite pole of h, g1 and g2: each
        distinct denominator is root-found once, from its exact primitive
        part, and a point within eps_pt of an earlier one is dropped."""
        d, tol = self.data, self.tol
        points = d.finite_punctures()
        for den in dict.fromkeys(exact_primitive(f.pair[1]) for f in (d.h, d.g1, d.g2) if f.den.degree >= 1):
            points += [r for r, _m in roots_with_multiplicity(den, tol)]
        return tuple(p.value for p in distinct_points(map(SpherePoint, points), tol.eps_pt))

    @cached_property
    def principal_parts(self) -> dict[complex, tuple[tuple[complex, ...], ...]]:
        """Each singular point where some form has a pole, mapped to the four
        forms' Laurent coefficients (a_-m, ..., a_-1) there, () where regular.

        Raises ``PoleTableError`` unless each form's pole orders add up to
        its (monic) denominator's degree: no pole went unlocated.
        """
        forms = self.phi.forms
        table = {}
        for p in self.singular_points:
            laurent = tuple(f.principal_part_at(p, self.tol) for f in forms)
            if any(laurent):
                table[p] = laurent
        for k, f in enumerate(forms):
            located = sum(len(laurent[k]) for laurent in table.values())
            if located != f.den.degree:
                raise PoleTableError(
                    f"the poles of phi_{k + 1} at the data's singular points have total "
                    f"order {located}, but its denominator has degree {f.den.degree}"
                )
        return table

    @cached_property
    def conformality(self) -> ConformalityReport:
        return check_conformality(self.phi, self.tol)

    @cached_property
    def regularity(self) -> RegularityReport:
        return check_regularity(self)

    @cached_property
    def ends(self) -> EndClassification:
        return classify_ends(self)

    @cached_property
    def periods(self) -> PeriodReport:
        return compute_periods(self)

    def ramification(self, component: int) -> RamificationReport:
        """Ramification report of Gauss component 1 or 2 (non-constant only).

        Reports are kept by the exact component, so equal components share
        one.
        """
        g = self.data.g1 if component == 1 else self.data.g2
        if g not in self._ramification:
            self._ramification[g] = ramification_report(g, self.data.punctures, self.tol)
        return self._ramification[g]

    @cached_property
    def bounds(self) -> BoundsReport:
        return bounds_of(self)

    @cached_property
    def curvature_closed_form(self) -> TotalCurvatureReport:
        return closed_form_of(self)
