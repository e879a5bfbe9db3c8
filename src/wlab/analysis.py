"""One lazy analysis of one Weierstrass data set.

The paper's bounds rest on a few invariants of one triple (h dz, g1, g2):
the φ-forms, the regularity of the metric, the end classification, the
periods and the ramification of each Gauss component.  ``Analysis`` derives
each of them at most once, on first use, and every consumer reads them from
it: the CLI commands, the bounds, the unicity comparison, the closed-form
total curvature and the mesh.  Nothing is derived before it is asked for, so ``ramify``
computes only its own component, and each step runs in the order its first
consumer asks for it, so the first failing step is the one a plain
evaluation would meet.

Every finite order of vanishing is an integer read off one table.  One
gcd-free basis over Z[i] factors h's numerator, the denominators of h, g1
and g2, what each φ-form cancelled over their shared denominator, and the
linear factor of each finite puncture, and records each piece's exponent in
each of these as it makes the piece; the forms' pole orders follow from
them (``exponents``), so each piece's roots have one order in each.  A
puncture's piece has the puncture as its root, so it is never root-found;
every other piece is root-found at most once, when a step first needs its
roots (``located``), and each root carries its piece as its
``SpherePoint.factor``.  Regularity and the ends read the orders at a point
off its piece's exponents, and at infinity off the degrees (``orders_at``);
the periods read the exact residues at the punctures, each at the order
the table holds.  Every pole of a φ-form is a pole of h, g1 or g2, and the
mesh primitive reads the forms' principal parts at those points
(``principal_parts``), at the table's orders, exact where each point's
piece is linear; a pole on a piece of higher degree, off the
punctures, makes the data irregular, and the table refuses it.  Equal Gauss
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
from .poly import Exact, exact_mul, exact_primitive, exact_quotient
from .ramification import RamificationReport, ramification_report
from .rational import GaussianRational, SpherePoint
from .roots import gcd_free_basis, roots_with_multiplicity
from .tolerances import Tolerances
from .weierstrass import (
    DuplicatePunctureError,
    EndClassification,
    PeriodReport,
    PhiForms,
    RegularityReport,
    UnsupportedGenusError,
    WeierstrassData,
    check_regularity,
    classify_ends,
    compute_periods,
    phi_from_data,
)

__all__ = ["Analysis", "PoleTableError"]


class PoleTableError(ArithmeticError):
    """The poles located for h, g1 and g2 miss part of a φ-form's denominator,
    or one lies on a piece of higher degree, where the data is not regular."""


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
    _roots: dict = field(default_factory=dict, init=False, repr=False)

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
    def exponents(self) -> dict[Exact, list[int]]:
        """Each piece of one gcd-free basis mapped to its exponents in h's
        numerator p, h's denominator q, g1's and g2's denominators b1, b2,
        and φ1's .. φ4's denominators.

        The basis refines the finite punctures' linear factors, p, q, b1, b2
        and what each nonzero form cancelled: c_k = q b1 b2 / den(φ_k), an
        exact quotient by the primitive denominator, as φ_k is its numerator
        over 2 q b1 b2 reduced (``phi_from_data``).  The exponents in these
        fix the rest, so no φ-denominator is refined: a piece's exponent in
        den(φ_k) is e_q + e_b1 + e_b2 - e_(c_k), and 0 for a zero form.  An
        input that repeats an earlier one is refined once.  Each linear
        factor stays a piece of its own.

        No consumer depends on the order of the keys or on a piece's unit: a
        piece's monic view, and so its located roots, do not change under a
        unit, and the located points are sorted where they are read
        (``check_regularity``, ``_singular``)."""
        d, forms = self.data, self.phi.forms
        punctures = [p.factor for p in d.punctures if not p.is_infinity]
        (p, q), (_a1, b1), (_a2, b2) = (f.pair for f in (d.h, d.g1, d.g2))
        common = exact_mul(q, exact_mul(b1, b2))
        poles = [k for k, f in enumerate(forms) if not f.is_zero]  # a zero form has no pole
        inputs = [*punctures, p, q, b1, b2, *(exact_quotient(common, exact_primitive(forms[k].pair[1])) for k in poles)]
        distinct = list(dict.fromkeys(inputs))  # a repeated input adds a column, never a piece
        columns = [distinct.index(x) for x in inputs[len(punctures) :]]
        table = {}
        for piece, e in gcd_free_basis(distinct).items():
            ep, eq, e1, e2, *cancelled = (e[k] for k in columns)
            dens = [0] * 4
            for k, c in zip(poles, cancelled):
                dens[k] = eq + e1 + e2 - c
            table[piece] = [ep, eq, e1, e2, *dens]
        return table

    def orders_at(self, point: SpherePoint) -> tuple[int, int, int]:
        """ord(h dz), poleord(g1) and poleord(g2) at a puncture, a located root
        or infinity: the triple that both regularity (away from the
        punctures) and the ends (at them) read.  A finite point's orders are
        its piece's exponents; at infinity, where dz = -dw/w^2 adds a double
        pole, they are read off the degrees."""
        if point.is_infinity:
            (a, b), (n1, d1), (n2, d2) = (f.pair for f in (self.data.h, self.data.g1, self.data.g2))
            return len(b) - len(a) - 2, max(0, len(n1) - len(d1)), max(0, len(n2) - len(d2))
        e = self.exponents[point.factor]
        return e[0] - e[1], e[2], e[3]

    def _located(self, pieces) -> tuple[SpherePoint, ...]:
        """The roots of those pieces that are not a puncture's, each carrying
        its piece; each piece is root-found once per analysis."""
        punctures = {p.factor for p in self.data.punctures}
        for piece in pieces:
            if piece not in self._roots and piece not in punctures:
                self._roots[piece] = [SpherePoint(r, piece) for r, _m in roots_with_multiplicity(piece, self.tol)]
        return tuple(p for piece in pieces for p in self._roots.get(piece, ()))

    @cached_property
    def located(self) -> tuple[SpherePoint, ...]:
        """The roots of every piece that is not a puncture's: the zeros and
        poles of h and the poles of g1 and g2 off the punctures."""
        return self._located(self.exponents)

    @cached_property
    def _singular(self) -> tuple[SpherePoint, ...]:
        """The finite punctures, then the roots of the other pieces with an
        exponent in h's, g1's and g2's denominators, each sorted by (re, im);
        only those pieces are root-found."""
        out = [p for p in self.data.punctures if not p.is_infinity]
        seen = {p.factor for p in out}
        for k in (1, 2, 3):
            new = [piece for piece, e in self.exponents.items() if piece not in seen and e[k]]
            out += sorted(self._located(new), key=lambda p: (p.value.real, p.value.imag))
            seen.update(new)
        return tuple(out)

    @cached_property
    def singular_points(self) -> tuple[complex, ...]:
        """The finite punctures, then every other finite pole of h, g1 and g2."""
        return tuple(p.value for p in self._singular)

    @cached_property
    def principal_parts(self) -> dict[complex, tuple[tuple[GaussianRational, ...], ...]]:
        """Each singular point where some form has a pole, mapped to the four
        forms' Laurent coefficients (a_-m, ..., a_-1) there, () where regular;
        m is the exponent of the point's piece in the form's denominator,
        handed to ``principal_part_at``, and a point whose piece has none is
        skipped.  Every point with a pole has a linear piece, so the
        coefficients are exact ``GaussianRational`` values, rounded once.

        Raises ``PoleTableError`` where a form has a pole at a root of a
        piece of higher degree (off the punctures, so the data is not
        regular), and unless each form's pole orders add up to its (monic)
        denominator's degree: no pole went unlocated.
        """
        forms = self.phi.forms
        table = {}
        for p in self._singular:
            orders = self.exponents[p.factor][4:]
            if not any(orders):
                continue
            if len(p.factor) > 2:
                raise PoleTableError(
                    f"the data is not regular: a phi-form has a pole at {p}, "
                    f"a root of a degree-{len(p.factor) - 1} piece off the punctures"
                )
            table[p.value] = tuple(f.principal_part_at(p, m) for f, m in zip(forms, orders))
        for k, f in enumerate(forms):
            total = sum(len(laurent[k]) for laurent in table.values())
            if total != f.degrees[1]:
                raise PoleTableError(
                    f"the poles of phi_{k + 1} at the data's singular points have total "
                    f"order {total}, but its denominator has degree {f.degrees[1]}"
                )
        return table

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
