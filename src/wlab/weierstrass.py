"""Weierstrass data for minimal surfaces in R^4.

A surface is described by a triple ``(h dz, g1, g2)`` of rational functions
on a punctured sphere.  This module converts the triple to the four
holomorphic forms ``phi_1 .. phi_4``, checks the structural conditions that
can fail (regularity of the induced metric, vanishing real periods),
classifies the behaviour of the metric at each puncture, and evaluates the
metric pointwise.  The third condition, conformality (sum phi_k^2 = 0), is
an identity of ``phi_from_data``: (1 + g1 g2)^2 - (1 - g1 g2)^2 +
(g1 - g2)^2 - (g1 + g2)^2 = 0 for all g1, g2 (Hoffman and Osserman, Mem.
AMS 236, 1980), and the forms are exact, so nothing here checks it.

Every order is an exact integer that ``Analysis.orders_at`` reads off one
table, the exponents its gcd-free basis records for each piece, or, at
infinity, off the degrees.
Every finite puncture is a Gaussian-rational point, with a linear exact
factor, so the residues at every puncture, infinity included, are exact over
Q(i), and so is the period verdict; no step here is numeric but the metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .exprparse import as_sphere_point as _as_sphere_point
from .poly import exact_add, exact_mul
from .rational import EXACT_ZERO, INF, RationalFunction, SpherePoint

if TYPE_CHECKING:
    from .analysis import Analysis

__all__ = [
    "WeierstrassData",
    "PhiForms",
    "RegularityViolation",
    "RegularityReport",
    "EndRecord",
    "EndClassification",
    "PeriodEntry",
    "PeriodReport",
    "MetricOverflowError",
    "UnsupportedGenusError",
    "DuplicatePunctureError",
    "phi_from_data",
    "check_regularity",
    "classify_ends",
    "compute_periods",
    "metric_factor_from_phi",
]

VERDICT_COMPLETE = "complete-end"
VERDICT_REMOVABLE = "removable-point"
VERDICT_DEGENERATE = "degenerate"


class UnsupportedGenusError(ValueError):
    """Computed (function-level) analyses exist only on the genus-0 sphere."""


class DuplicatePunctureError(ValueError):
    """Two punctures lie within the analysis's eps_pt of each other."""


class MetricOverflowError(ArithmeticError):
    """The metric factor at a point leaves the range of a double."""


@dataclass(frozen=True)
class WeierstrassData:
    """The triple (h dz, g1, g2) on a sphere with marked punctures.

    ``genus`` is carried for the abstract bound computations; every function
    in this module that actually evaluates on the domain requires genus 0.
    A finite puncture is a Gaussian-rational point: one whose exact factor
    is not linear (a root located from a factor of higher degree) is refused
    with ``ValueError``.  That the punctures are distinct depends on eps_pt,
    so ``Analysis`` checks it at its own tolerances.
    """

    h: RationalFunction
    g1: RationalFunction
    g2: RationalFunction
    punctures: tuple[SpherePoint, ...] = ()
    genus: int = 0
    label: str = ""

    def __post_init__(self):
        pts = tuple(_as_sphere_point(p) for p in self.punctures)
        object.__setattr__(self, "punctures", pts)
        for p in pts:
            if not p.is_infinity and len(p.factor) > 2:
                raise ValueError(
                    f"puncture {p} is a root of a degree-{len(p.factor) - 1} factor, not a Gaussian-rational point"
                )
        if self.h.is_zero:
            raise ValueError("h must not be the zero function")
        if self.genus < 0:
            raise ValueError("genus must be a nonnegative integer")

    def finite_punctures(self) -> list[complex]:
        return [p.value for p in self.punctures if not p.is_infinity]


@dataclass(frozen=True)
class PhiForms:
    """The four coordinate 1-forms phi_i dz of the immersion."""

    phi1: RationalFunction
    phi2: RationalFunction
    phi3: RationalFunction
    phi4: RationalFunction

    @property
    def forms(self) -> tuple[RationalFunction, ...]:
        return (self.phi1, self.phi2, self.phi3, self.phi4)

    def coefficient_scale(self) -> float:
        """Largest coefficient magnitude across all numerators/denominators."""
        out = 1.0
        for f in self.forms:
            out = max(out, f.num.max_abs_coeff, f.den.max_abs_coeff)
        return out


def phi_from_data(d: WeierstrassData) -> PhiForms:
    """Produce the coordinate forms.

    phi1 = (1 + g1 g2) h / 2        phi2 = i (1 - g1 g2) h / 2
    phi3 = (g1 - g2) h / 2          phi4 = -i (g1 + g2) h / 2

    so that phi1^2 + phi2^2 + phi3^2 + phi4^2 = 0 identically.  With the
    exact pairs h = p / q and g_k = a_k / b_k the four share the denominator
    2 q b1 b2, over which their numerators are p (b1 b2 + a1 a2),
    i p (b1 b2 - a1 a2), p (a1 b2 - a2 b1) and -i p (a1 b2 + a2 b1); each
    form is that quotient reduced by one gcd (``RationalFunction.of_exact``),
    the one cancellation a sum over a shared denominator needs (Knuth,
    TAOCP 2, 4.5.1).
    """
    (p, q), (a1, b1), (a2, b2) = (f.pair for f in (d.h, d.g1, d.g2))
    bb, aa, ab, ba = exact_mul(b1, b2), exact_mul(a1, a2), exact_mul(a1, b2), exact_mul(a2, b1)
    den = exact_mul(exact_mul(q, bb), ((2, 0),))
    minus = ((-1, 0),)
    nums = (
        exact_mul(p, exact_add(bb, aa)),
        exact_mul(exact_mul(p, ((0, 1),)), exact_add(bb, exact_mul(aa, minus))),
        exact_mul(p, exact_add(ab, exact_mul(ba, minus))),
        exact_mul(exact_mul(p, ((0, -1),)), exact_add(ab, ba)),
    )
    return PhiForms(*(RationalFunction.of_exact(num, den) for num in nums))


@dataclass(frozen=True)
class RegularityViolation:
    point: SpherePoint
    form_order: int
    g1_pole_order: int
    g2_pole_order: int

    def __str__(self) -> str:
        need = self.g1_pole_order + self.g2_pole_order
        return f"at {self.point}: ord(h dz) = {self.form_order}, needs {need} to balance the Gauss maps"


@dataclass(frozen=True)
class RegularityReport:
    ok: bool
    violations: tuple[RegularityViolation, ...]
    checked_points: tuple[SpherePoint, ...]


def check_regularity(an: Analysis) -> RegularityReport:
    """Check that h dz vanishes exactly where the Gauss maps have poles.

    At every non-puncture point the metric factor is ``|h dz|^2 (1+|g1|^2)(1+|g2|^2) / 4``
    and must be finite and nonzero, which pins the order of h dz to the sum
    of the two pole orders.  Punctures are exempt.  Away from zeros and
    poles of h and poles of g1, g2 the metric is a positive finite multiple
    of |dz|^2, so only those points are inspected, and infinity, where dz
    itself degenerates.  They are ``an.located``, the roots of the pieces
    that are not a puncture's, each carrying its piece, whose exponents are
    the orders there (``an.orders_at``).
    """
    candidates = [*an.located] if INF in an.data.punctures else [INF, *an.located]
    violations, checked = [], []
    for pt in sorted(candidates, key=SpherePoint.sort_key):
        checked.append(pt)
        a, d1, d2 = an.orders_at(pt)
        if a != d1 + d2:
            violations.append(RegularityViolation(pt, a, d1, d2))
    return RegularityReport(ok=not violations, violations=tuple(violations), checked_points=tuple(checked))


@dataclass(frozen=True)
class EndRecord:
    """Local book-keeping of the metric at one puncture.

    ``metric_exponent`` is the integer m with ds ~ |w|^m |dw| in a local
    coordinate w centred at the puncture; ``mu`` is the pole order of h dz
    there (negative when h dz actually extends with a zero).
    """

    puncture: SpherePoint
    form_order: int
    mu: int
    g1_pole_order: int
    g2_pole_order: int
    metric_exponent: int
    verdict: str


@dataclass(frozen=True)
class EndClassification:
    records: tuple[EndRecord, ...]
    complete: bool


def classify_ends(an: Analysis) -> EndClassification:
    """Classify each puncture as a genuine end, a removable point, or worse.

    The metric factor near a puncture behaves like |w|^m with
    m = ord(h dz) - poleord(g1) - poleord(g2).  A divergent path into the
    puncture has infinite length iff m <= -1.  m = 0 means the metric
    extends regularly (the puncture was unnecessary), and m >= 1 means the
    immersion degenerates there.  The orders at a finite puncture are the
    exponents of its linear factor, a piece of ``an``'s basis, and at
    infinity are read off the degrees (``an.orders_at``).
    """
    records = []
    for p in an.data.punctures:
        a, d1, d2 = an.orders_at(p)
        m = a - d1 - d2
        if m <= -1:
            verdict = VERDICT_COMPLETE
        elif m == 0:
            verdict = VERDICT_REMOVABLE
        else:
            verdict = VERDICT_DEGENERATE
        records.append(
            EndRecord(
                puncture=p,
                form_order=a,
                mu=-a,
                g1_pole_order=d1,
                g2_pole_order=d2,
                metric_exponent=m,
                verdict=verdict,
            )
        )
    complete = bool(records) and all(r.verdict == VERDICT_COMPLETE for r in records)
    return EndClassification(records=tuple(records), complete=complete)


@dataclass(frozen=True)
class PeriodEntry:
    puncture: SpherePoint
    residues: tuple[complex, complex, complex, complex]
    periods: tuple[complex, complex, complex, complex]
    real_parts: tuple[float, float, float, float]
    ok: bool


@dataclass(frozen=True)
class PeriodReport:
    entries: tuple[PeriodEntry, ...]
    period_ok: bool
    eps_period: float
    residue_sums: tuple[complex, complex, complex, complex]
    max_cross_check_error: float


def compute_periods(an: Analysis) -> PeriodReport:
    """Residues of the four forms at each puncture and the resulting periods.

    On a genus-0 domain every cycle is homologous to a sum of small loops
    around punctures, so the period condition reduces to
    Re(2*pi*i*Res) = 0, that is Im Res = 0, per puncture and component.
    Each residue is ``residue_at`` the puncture, exact over Q(i)
    (``GaussianRational``): every finite puncture has a linear exact factor,
    whose exponent in each form's denominator ``an.exponents`` holds, and at
    infinity the residue is read off the exact pseudo-remainder, so no root
    is sought and no order is found again.  The verdict reads the exact
    imaginary parts, never their rounding, so a residue of 1e-400 i fails.  By the residue theorem the
    residues of each form sum to zero: ``residue_sums`` and the global-sum
    error ``max_cross_check_error`` print those exact zeros, and
    ``eps_period`` decides nothing; all three are printed until schema 3.
    """
    eps_period = an.tol.eps_period_rel * an.phi.coefficient_scale()
    entries = []
    for p in an.data.punctures:
        orders = (None,) * 4 if p.is_infinity else an.exponents[p.factor][4:]
        res4 = tuple(f.residue_at(p, m) for f, m in zip(an.phi.forms, orders))
        periods = tuple(2j * math.pi * r for r in res4)
        real_parts = tuple(pd.real for pd in periods)
        ok = all(r.exact[1] == 0 for r in res4)
        entries.append(PeriodEntry(p, res4, periods, real_parts, ok))

    return PeriodReport(
        entries=tuple(entries),
        period_ok=bool(entries) and all(e.ok for e in entries),
        eps_period=eps_period,
        residue_sums=(EXACT_ZERO,) * 4,
        max_cross_check_error=0.0,
    )


def metric_factor_from_phi(phi: PhiForms, z):
    """lambda^2 computed as sum(|phi_i|^2)/2; finite across poles of g1, g2.

    A scalar lambda^2 beyond the range of a double raises
    ``MetricOverflowError``; arrays carry inf.
    """
    if isinstance(z, np.ndarray):
        total = np.zeros(z.shape, dtype=float)
        for f in phi.forms:
            total += np.abs(f(z)) ** 2
        return 0.5 * total
    try:
        total = 0.5 * sum(abs(f(complex(z))) ** 2 for f in phi.forms)
    except OverflowError:
        total = math.inf
    if math.isinf(total):
        raise MetricOverflowError(f"the metric factor at {complex(z)} exceeds the range of a double")
    return total
