"""One lazy analysis of one Weierstrass data set.

The paper's bounds rest on a few invariants of one triple (h dz, g1, g2):
the φ-forms, the three surface conditions, the end classification, the
periods and the ramification of each Gauss component.  ``Analysis`` derives
each of them at most once, on first use, and every consumer reads them from
it: the CLI commands, the bounds, the unicity comparison and the closed-form
total curvature.  Nothing is derived before it is asked for, so ``ramify``
computes only its own component, and each step runs in the order its first
consumer asks for it, so the first failing step is the one a plain
evaluation would meet.

An ``Analysis`` lives as long as its caller holds it (one CLI command, one
library call); no cache outlives it.

``bounds`` and ``curvature`` build on this module: their public entry points
wrap an ``Analysis``.  The two fields that read their results reach them
through an import at first use, so this module imports neither at load time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .ramification import RamificationReport, ramification_report
from .tolerances import Tolerances
from .weierstrass import (
    ConformalityReport,
    EndClassification,
    PeriodReport,
    PhiForms,
    RegularityReport,
    WeierstrassData,
    check_conformality,
    check_regularity,
    classify_ends,
    compute_periods,
    phi_from_data,
    require_genus_zero,
)

if TYPE_CHECKING:
    from .bounds import BoundsReport
    from .curvature import TotalCurvatureReport

__all__ = ["Analysis"]


@dataclass(frozen=True, eq=False)
class Analysis:
    """The derived invariants of one genus-0 data set at one tolerance setting.

    Construction only checks the genus; every other field is computed on
    first access and then kept.
    """

    data: WeierstrassData
    tol: Tolerances = field(default_factory=Tolerances)
    _ramification: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        require_genus_zero(self.data.genus)

    @cached_property
    def phi(self) -> PhiForms:
        return phi_from_data(self.data)

    @cached_property
    def conformality(self) -> ConformalityReport:
        return check_conformality(self.phi, self.tol)

    @cached_property
    def regularity(self) -> RegularityReport:
        return check_regularity(self.data, self.tol)

    @cached_property
    def ends(self) -> EndClassification:
        return classify_ends(self.data, self.tol)

    @cached_property
    def periods(self) -> PeriodReport:
        return compute_periods(self.data, self.tol, phi=self.phi)

    def ramification(self, component: int) -> RamificationReport:
        """Ramification report of Gauss component 1 or 2 (non-constant only)."""
        if component not in self._ramification:
            g = self.data.g1 if component == 1 else self.data.g2
            self._ramification[component] = ramification_report(
                g, self.data.punctures, self.data.genus, self.tol
            )
        return self._ramification[component]

    @cached_property
    def bounds(self) -> BoundsReport:
        from .bounds import bounds_of

        return bounds_of(self)

    @cached_property
    def curvature_closed_form(self) -> TotalCurvatureReport:
        from .curvature import closed_form_of

        return closed_form_of(self)
