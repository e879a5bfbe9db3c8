"""Sharp bounds on totally ramified value numbers, and unicity comparisons.

For rational Gauss components g1, g2 of degrees d1, d2 on the k-punctured
genus-G sphere, the divisor of h dz ties the degrees to the pole orders
mu_j of h dz at the punctures: d1 + d2 = 2G - 2 + sum(mu_j), provided the
components are first rotated so neither has a pole at a puncture and all
their poles are simple.  No rotation is carried out: a rotation multiplies
h by (b g + conj(a)) per component, whose order at a puncture is minus the
pole order of g there (an admissible rotation never makes it vanish), so
mu_j = poleord g1 + poleord g2 - ord(h dz) = -metric_exponent, read off the
end classification.  That identity controls the ratios

    R_i = d_i / (2G - 2 + k)

and the totally ramified value numbers obey nu_i <= 2 + 1/R_i per
component; when both exceed 2 they obey the joint bound

    1/(nu_1 - 2) + 1/(nu_2 - 2) >= R_1 + R_2 >= 1,

with strict R_1 + R_2 > 1 when the periods vanish (the surface closes up
on the punctured sphere itself instead of its universal cover).  The same
ratios limit how many values two distinct Gauss maps can share with equal
preimage sets: p <= 4 + 1/R_1 against one component, jointly
1/(p - 4) + 1/(q - 4) >= R_1 + R_2, which forces the maps to be identical
at (p, q) = (7, 7), or at p = 6 when the second components are the same
constant.

Both estimates have the same two shapes, each evaluated by one helper: a
per-component ceiling x <= c + 1/R_i (``_ceiling``) and a joint inequality
1/(x - c) + 1/(y - c) >= R_1 + R_2 (``_joint``), with c = 2 for totally
ramified value numbers and c = 4 for shared-value counts.  One evaluator
(``_bounds_report``) applies them to the invariants of a surface, whether
computed from data (``bounds_of``, behind ``Analysis.bounds``) or asserted
(``compute_bounds_abstract``).

Shared values are decided by counting, on the one fiber route of
``ramification.fiber_table``: a value a is shared when the common points of
the two maps over a (roots of the cross numerator N_A D_B - N_B D_A, which
is never reduced) are as many as the distinct preimages of a off the
punctures under each map.  No fiber polynomial is root-found.  The common
poles and zeros are split off the cross numerator exactly, so a value is
read off the float views only where it is finite and nonzero.

Every verdict here is evaluated in integer / Fraction arithmetic; floats
enter only upstream (root finding, residues).  Conclusions that depend on
the surface hypotheses (regularity and completeness; conformality holds by
construction of the φ-forms) are gated on those checks: a falsified
conclusion on data satisfying the hypotheses is reported as a
contradiction, because the underlying statements are theorems and a
contradiction can only mean an implementation bug.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .exprparse import as_sphere_point
from .poly import Exact, exact_quotient
from .ramification import fiber_table, roots_and_values
from .rational import INF, PointIndex, RationalFunction, SpherePoint, distinct_points
from .roots import common_part
from .tolerances import Tolerances
from .weierstrass import VERDICT_DEGENERATE

if TYPE_CHECKING:
    from .analysis import Analysis

__all__ = [
    "CASE_BOTH",
    "CASE_ONE_CONSTANT",
    "CASE_FLAT",
    "COROLLARY_CONSISTENT",
    "COROLLARY_SHARP",
    "COROLLARY_CONTRADICTION",
    "SHARED_GENERIC",
    "SHARED_IDENTICAL",
    "SHARED_CONSTANT_PAIR",
    "IDENTITY_IDENTICAL",
    "IDENTITY_FORCED",
    "IDENTITY_NOT_FORCED",
    "BoundsReport",
    "SharedValue",
    "SharedValues",
    "UnicityReport",
    "compute_bounds_abstract",
    "corollary_check",
    "shared_values",
    "unicity_of",
]

CASE_BOTH = "both-nonconstant"
CASE_ONE_CONSTANT = "one-constant"
CASE_FLAT = "flat"

COROLLARY_CONSISTENT = "consistent"
COROLLARY_SHARP = "consistent, at the sharp boundary"
COROLLARY_CONTRADICTION = "contradiction"

SHARED_GENERIC = "generic"
SHARED_IDENTICAL = "identical"
SHARED_CONSTANT_PAIR = "constant-pair"

IDENTITY_IDENTICAL = "identical"
IDENTITY_FORCED = "forced identical"
IDENTITY_NOT_FORCED = "not forced"


@dataclass(frozen=True)
class BoundsReport:
    """Exact evaluation of the degree/ramification bounds on one data set.

    Quantities that do not apply (constant component, undefined ratio,
    missing abstract inputs) are None rather than guessed.  ``contradiction``
    is True only when a conclusion fails while its hypotheses hold.
    """

    mode: str  # "computed" | "abstract"
    case: str  # CASE_BOTH | CASE_ONE_CONSTANT | CASE_FLAT
    G: int
    k: int
    chi_term: int  # 2G - 2 + k
    d1: int
    d2: int
    nu_g1: Fraction | None = None
    nu_g2: Fraction | None = None
    exceptional_g1: int | None = None
    exceptional_g2: int | None = None
    R1: Fraction | None = None
    R2: Fraction | None = None
    ratio_sum: Fraction | None = None
    ratio_sum_at_least_one: bool | None = None
    nu_bound_g1: Fraction | None = None  # 2 + chi_term/d1
    nu_bound_g1_ok: bool | None = None
    nu_bound_g1_equality: bool | None = None
    nu_bound_g2: Fraction | None = None
    nu_bound_g2_ok: bool | None = None
    nu_bound_g2_equality: bool | None = None
    joint_bound_applies: bool = False  # both nu > 2 and ratios defined
    joint_bound_lhs: Fraction | None = None  # 1/(nu1-2) + 1/(nu2-2)
    joint_bound_ok: bool | None = None
    joint_bound_equality: bool | None = None
    mu: tuple[int, ...] | None = None  # -metric_exponent: pole orders of rotated h dz
    degree_identity_ok: bool | None = None  # d1 + d2 == 2G - 2 + sum(mu)
    mu_all_at_least_two: bool | None = None
    algebraic: bool | None = None  # hypotheses + vanishing periods
    strict_ok: bool | None = None  # ratio_sum > 1, resp. chi/d < 1
    conformal_ok: bool | None = None
    regular_ok: bool | None = None
    complete_ok: bool | None = None  # no degenerate end, at least one puncture
    hypotheses_ok: bool | None = None
    chi_nonpositive: bool = False
    contradiction: bool = False
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class SharedValue:
    value: SpherePoint
    delta: int  # number of common preimage points off the punctures


@dataclass(frozen=True)
class SharedValues:
    kind: str  # SHARED_GENERIC | SHARED_IDENTICAL | SHARED_CONSTANT_PAIR
    values: tuple[SharedValue, ...]


@dataclass(frozen=True)
class UnicityReport:
    """Shared-value counts of two data sets against their sharp ceilings."""

    case: str  # "identical" | CASE_BOTH | CASE_ONE_CONSTANT | "mixed"
    G: int
    k: int
    chi_term: int
    d1: int
    d2: int
    shared_g1: SharedValues | None
    shared_g2: SharedValues | None
    p: int | None
    q: int | None
    R1: Fraction | None = None
    R2: Fraction | None = None
    count_bound_g1: Fraction | None = None  # 4 + chi_term/d1
    count_bound_g2: Fraction | None = None
    count_bound_g1_ok: bool | None = None
    count_bound_g2_ok: bool | None = None
    count_bound_g1_equality: bool | None = None
    count_bound_g2_equality: bool | None = None
    pair_bound_applies: bool = False  # both components distinct, p > 4, q > 4
    pair_bound_lhs: Fraction | None = None  # 1/(p-4) + 1/(q-4)
    pair_bound_ok: bool | None = None
    pair_bound_equality: bool | None = None
    pole_budget_g1_ok: bool | None = None  # sum(delta) <= 2 d1
    pole_budget_g2_ok: bool | None = None
    identity_verdict: str = IDENTITY_NOT_FORCED
    hypotheses_ok: bool = False
    contradiction: bool = False
    notes: tuple[str, ...] = ()


# -- Theorem evaluation ---------------------------------------------------------


def _ratio(degree: int, chi: int) -> Fraction | None:
    """R = degree / (2G - 2 + k), defined for a non-constant component when chi >= 1."""
    return Fraction(degree, chi) if chi >= 1 and degree >= 1 else None


def _ceiling(
    count: Fraction | int | None, degree: int, chi: int, offset: int
) -> tuple[Fraction | None, bool | None, bool | None]:
    """The per-component ceiling count <= offset + chi/degree and its verdicts."""
    if degree < 1:
        return None, None, None
    bound = offset + Fraction(chi, degree)
    if count is None:
        return bound, None, None
    return bound, count <= bound, count == bound


def _joint(
    x: Fraction | int | None,
    y: Fraction | int | None,
    R1: Fraction | None,
    R2: Fraction | None,
    offset: int,
) -> tuple[Fraction | None, bool | None, bool | None]:
    """1/(x - offset) + 1/(y - offset) >= R1 + R2 as (lhs, ok, equality).

    The left side exists only when both counts exceed ``offset``; the
    verdicts need both ratios as well.
    """
    if x is None or y is None or x <= offset or y <= offset:
        return None, None, None
    lhs = Fraction(1) / (x - offset) + Fraction(1) / (y - offset)
    if R1 is None or R2 is None:
        return lhs, None, None
    return lhs, lhs >= R1 + R2, lhs == R1 + R2


def _bounds_report(
    mode: str,
    G: int,
    k: int,
    d1: int,
    d2: int,
    nu1: Fraction | None = None,
    nu2: Fraction | None = None,
    mu: tuple[int, ...] | None = None,
    *,
    algebraic: bool | None = None,
    regular: bool = True,
    complete: bool = True,
    notes: list[str] | tuple[str, ...] = (),
    **hypotheses,
) -> BoundsReport:
    """Every degree/ramification bound on the invariants of one surface.

    The invariants are computed from data (``bounds_of``) or asserted by the
    caller (``compute_bounds_abstract``).  The per-component ceiling
    nu <= 2 + chi/d and the joint bound are pure counting facts for rational
    maps with finitely many punctures, so their failure is flagged
    unconditionally.  The degree identity needs a regular metric, the
    ratio-sum bound R1 + R2 >= 1 also a complete surface, and the strict
    bound an algebraic complete one; they are reported always but only
    promote to a contradiction under those gates.  ``hypotheses`` are the
    reported hypothesis fields, passed through to the report.
    """
    chi = 2 * G - 2 + k
    head = dict(mode=mode, G=G, k=k, chi_term=chi, d1=d1, d2=d2, chi_nonpositive=chi <= 0)
    if d1 == 0 and d2 == 0:
        what = "Gauss components" if mode == "computed" else "components"
        return BoundsReport(
            case=CASE_FLAT, notes=(f"both {what} constant: flat data, nothing to bound",), **head
        )

    case = CASE_BOTH if min(d1, d2) >= 1 else CASE_ONE_CONSTANT
    notes = list(notes)

    degree_identity_ok: bool | None = None
    mu_all2: bool | None = None
    if mu is not None:
        degree_identity_ok = d1 + d2 == 2 * G - 2 + sum(mu)
        mu_all2 = all(m >= 2 for m in mu) if mu else None
        if mode == "abstract" and not degree_identity_ok:
            # asserted pole orders: say which sums disagree
            notes.append(f"d1 + d2 = {d1 + d2} but 2G - 2 + sum(mu) = {2 * G - 2 + sum(mu)}")

    R1, R2 = _ratio(d1, chi), _ratio(d2, chi)
    ratio_sum = R1 + R2 if (R1 is not None and R2 is not None) else None
    ratio_sum_ok = None if ratio_sum is None else ratio_sum >= 1
    if chi <= 0:
        notes.append(
            "2G-2+k <= 0: ratios undefined, the bound degenerates to nu <= 2 + (2G-2+k)/d"
        )

    bound1, b1_ok, b1_eq = _ceiling(nu1, d1, chi, 2)
    bound2, b2_ok, b2_eq = _ceiling(nu2, d2, chi, 2)
    j_lhs, j_ok, j_eq = _joint(nu1, nu2, R1, R2, 2)

    if case == CASE_BOTH:
        strict_ok = None if ratio_sum is None else ratio_sum > 1
    else:
        strict_ok = Fraction(chi, max(d1, d2)) < 1

    contradiction = (
        b1_ok is False
        or b2_ok is False
        or j_ok is False
        or (regular and degree_identity_ok is False)
        or (regular and complete and ratio_sum_ok is False)
        or (bool(algebraic) and complete and strict_ok is False)
    )

    return BoundsReport(
        case=case,
        nu_g1=nu1,
        nu_g2=nu2,
        R1=R1,
        R2=R2,
        ratio_sum=ratio_sum,
        ratio_sum_at_least_one=ratio_sum_ok,
        nu_bound_g1=bound1,
        nu_bound_g1_ok=b1_ok,
        nu_bound_g1_equality=b1_eq,
        nu_bound_g2=bound2,
        nu_bound_g2_ok=b2_ok,
        nu_bound_g2_equality=b2_eq,
        joint_bound_applies=j_ok is not None,
        joint_bound_lhs=j_lhs,
        joint_bound_ok=j_ok,
        joint_bound_equality=j_eq,
        mu=mu,
        degree_identity_ok=degree_identity_ok,
        mu_all_at_least_two=mu_all2,
        algebraic=algebraic,
        strict_ok=strict_ok,
        contradiction=contradiction,
        notes=tuple(notes),
        **hypotheses,
        **head,
    )


def bounds_of(an: Analysis) -> BoundsReport:
    """Every degree/ramification bound, from the invariants of one analysis."""
    d = an.data
    k, d1, d2 = len(d.punctures), d.g1.degree, d.g2.degree
    if d1 == 0 and d2 == 0:  # flat: nothing to bound, so no hypothesis is evaluated
        return _bounds_report("computed", 0, k, d1, d2)

    notes: list[str] = []
    # every hypothesis is evaluated, in this order, before any verdict
    ends = an.ends
    regular = an.regularity.ok
    nondegenerate = bool(ends.records) and all(
        r.verdict != VERDICT_DEGENERATE for r in ends.records
    )
    hypotheses_ok = regular and nondegenerate  # non-flat here
    if not regular:
        notes.append("metric degenerates away from the punctures")
    if not nondegenerate:
        notes.append("a degenerate end (or no puncture at all) breaks completeness")
    period_ok = bool(an.periods.period_ok)
    if hypotheses_ok and not period_ok:
        notes.append("periods do not vanish: surface lives on the universal cover")

    ram1 = an.ramification(1) if d1 >= 1 else None
    ram2 = an.ramification(2) if d2 >= 1 else None
    return _bounds_report(
        "computed",
        0,
        k,
        d1,
        d2,
        ram1.nu_f if ram1 else None,
        ram2.nu_f if ram2 else None,
        tuple(-rec.metric_exponent for rec in ends.records),
        algebraic=hypotheses_ok and period_ok,
        regular=regular,
        complete=ends.complete,
        notes=notes,
        exceptional_g1=ram1.exceptional_count if ram1 else None,
        exceptional_g2=ram2.exceptional_count if ram2 else None,
        conformal_ok=True,  # sum phi_k^2 = 0 by construction
        regular_ok=regular,
        complete_ok=nondegenerate,
        hypotheses_ok=hypotheses_ok,
    )


# Every invariant, and the numerator and denominator of a nu, lies below this,
# so each ratio and bound built from them prints as a finite double.
_ABSTRACT_LIMIT = 2**1000


def _nu(value, name: str) -> Fraction | None:
    if value is None:
        return None
    nu = Fraction(value)
    if nu < 0:
        raise ValueError(f"{name} must be non-negative")
    if max(nu.numerator, nu.denominator) >= _ABSTRACT_LIMIT:
        raise ValueError(f"{name} must have a numerator and denominator below 2^1000")
    return nu


def compute_bounds_abstract(
    G: int,
    k: int,
    d1: int,
    d2: int = 0,
    nu1=None,
    nu2=None,
    mu=None,
) -> BoundsReport:
    """Pure arithmetic evaluation from user-supplied invariants.

    Constant components are encoded by degree 0 with nu omitted.  The caller
    asserts that a surface with these numbers exists, so it counts as
    regular and complete, and any falsified conclusion -- including a mu
    list that breaks the degree identity -- is reported as a contradiction
    rather than silently accepted; it counts as algebraic when every mu is
    at least 2.  Genus >= 1 is allowed here (nothing is computed from
    functions).
    """
    for name, v in (("G", G), ("k", k), ("d1", d1), ("d2", d2)):
        if not isinstance(v, int) or v < 0:
            raise ValueError(f"{name} must be a non-negative integer")
        if v >= _ABSTRACT_LIMIT:
            raise ValueError(f"{name} must be below 2^1000")
    nu1, nu2 = _nu(nu1, "nu1"), _nu(nu2, "nu2")
    if d1 == 0 and nu1 is not None:
        raise ValueError("nu1 given for a constant first component")
    if d2 == 0 and nu2 is not None:
        raise ValueError("nu2 given for a constant second component")
    algebraic = None
    if mu is not None:
        mu = tuple(int(m) for m in mu)
        if len(mu) != k:  # checked on flat data too, which then ignores it
            raise ValueError("mu must list one pole order per puncture")
        algebraic = bool(mu) and all(m >= 2 for m in mu)
    return _bounds_report(
        "abstract", G, k, d1, d2, nu1, nu2, mu, algebraic=algebraic, hypotheses_ok=True
    )


def corollary_check(report: BoundsReport) -> str:
    """Exceptional-value counts against the planarity thresholds.

    Non-flat data cannot have both components omitting more than four
    values (more than three on each when the periods vanish); with one
    component constant the other cannot omit more than three (two in the
    vanishing-period case).  The sharp boundaries are flagged.
    """
    if report.case == CASE_FLAT:
        return COROLLARY_CONSISTENT
    algebraic = bool(report.algebraic)
    if report.case == CASE_BOTH:
        r1, r2 = report.exceptional_g1, report.exceptional_g2
        if r1 is None or r2 is None:
            raise ValueError("corollary check needs exceptional-value counts")
        if r1 > 4 and r2 > 4:
            return COROLLARY_CONTRADICTION
        if algebraic and r1 > 3 and r2 > 3:
            return COROLLARY_CONTRADICTION
        if not algebraic and r1 == 4 and r2 == 4:
            return COROLLARY_SHARP
        return COROLLARY_CONSISTENT
    r = report.exceptional_g1 if report.d1 >= 1 else report.exceptional_g2
    if r is None:
        raise ValueError("corollary check needs exceptional-value counts")
    if r > 3:
        return COROLLARY_CONTRADICTION
    if algebraic and r > 2:
        return COROLLARY_CONTRADICTION
    if (algebraic and r == 2) or (not algebraic and r == 3):
        return COROLLARY_SHARP
    return COROLLARY_CONSISTENT


# -- shared values and unicity --------------------------------------------------


def _point_sets_equal(xs, ys, eps_pt: float) -> bool:
    if len(xs) != len(ys):
        return False
    pool = list(ys)
    for x in xs:
        hit = next((i for i, y in enumerate(pool) if x.close_to(y, eps_pt)), None)
        if hit is None:
            return False
        pool.pop(hit)
    return True


def shared_values(
    gA: RationalFunction,
    gB: RationalFunction,
    punctures,
    tol: Tolerances | None = None,
) -> SharedValues:
    """All values whose preimage sets off the punctures coincide.

    Both maps' fibers are read off their ``ramification.fiber_table``; no
    fiber is root-found.  The common points, where gA = gB, are the distinct
    roots of the cross numerator N_A D_B - N_B D_A and infinity when
    gA(inf) = gB(inf), punctures dropped; its roots are located in three
    exact parts (``roots_and_values``): the common poles, gcd(b_A, b_B),
    the common zeros, gcd(a_A, a_B), and the rest, where both values are
    finite and nonzero.  The common
    points over a value a lie in both fibers, so the two preimage sets off
    the punctures coincide exactly when both hold as many distinct points
    as there are common points over a: a is shared iff that count equals
    ``free_count`` of both tables, and delta is the count.  A shared value
    is a value at a common point, or has both preimage sets empty, and is
    then a puncture image; so the puncture images, the values at the
    common points and infinity form a complete candidate list.  Identical
    maps share everything and are reported as a special kind, as is a pair
    of distinct constants.  Against a constant c, the shared values are
    the varying map's exceptional values other than c.
    """
    tol = tol or Tolerances()
    pts = tuple(as_sphere_point(p) for p in punctures)
    if gA == gB:
        return SharedValues(SHARED_IDENTICAL, ())
    if gA.is_constant and gB.is_constant:
        return SharedValues(SHARED_CONSTANT_PAIR, ())
    if gA.is_constant or gB.is_constant:
        const, varying = (gA, gB) if gA.is_constant else (gB, gA)
        c = SpherePoint.of(const.constant_value)
        table = fiber_table(varying, pts, tol)
        return SharedValues(
            SHARED_GENERIC,
            tuple(
                SharedValue(v, 0)
                for v in table.candidates
                if table.free_count(v) == 0 and not v.close_to(c, tol.eps_pt)
            ),
        )

    tableA, tableB = fiber_table(gA, pts, tol), fiber_table(gB, pts, tol)
    (aA, bA), (aB, bB) = gA.pair, gB.pair
    poles, zeros = common_part(bA, bB), common_part(aA, aB)
    rest = _without_roots_of(_without_roots_of(gA.cross_numerator(gB), poles), zeros)
    common = [(c, value) for c, _m, value in roots_and_values(gA, (poles, zeros, rest), tol)]
    if gA.value_at_sphere(INF).close_to(gB.value_at_sphere(INF), tol.eps_pt):
        common.append((INF, gA.value_at_sphere(INF)))
    common_values = [value for c, value in common if not any(c.close_to(p, tol.eps_pt) for p in pts)]

    # the puncture images come first: they are exact where the input is,
    # and ``distinct_points`` keeps the first of each group
    images = [g.value_at_sphere(p) for p in pts for g in (gA, gB)]
    common_index = PointIndex(tol.eps_pt, common_values)
    shared: list[SharedValue] = []
    for a in distinct_points([*images, *common_values, INF], tol.eps_pt):
        delta = len(common_index.near(a))
        if delta == tableA.free_count(a) == tableB.free_count(a):
            shared.append(SharedValue(a, delta))
    shared.sort(key=lambda sv: sv.value.sort_key())
    return SharedValues(SHARED_GENERIC, tuple(shared))


def _without_roots_of(p: Exact, g: Exact) -> Exact:
    """p with every root it shares with g divided out, to its full multiplicity."""
    while len(c := common_part(p, g)) >= 2:
        p = exact_quotient(p, c)
    return p


def _complete_surface(an: Analysis) -> bool:
    """Regular, non-flat, and every end a genuine complete end (conformal by
    construction)."""
    d = an.data
    ends, regular = an.ends, an.regularity.ok
    nonflat = d.g1.degree >= 1 or d.g2.degree >= 1
    return regular and ends.complete and nonflat


def unicity_of(a: Analysis, b: Analysis) -> UnicityReport:
    """Shared-value counts of two analysed data sets against their ceilings.

    Requires the same puncture set and componentwise equal degrees (a
    hypothesis of the statement being checked, not a convention).
    The count bounds p <= 4 + chi/d1 and the pole budget sum(delta) <= 2 d1
    are counting facts for any same-degree pair, so their failure always
    flags a contradiction; the forced-identity conclusions additionally
    need both data sets to be honest complete surfaces and are gated on
    those hypotheses.
    """
    tol = a.tol
    dataA, dataB = a.data, b.data
    if not _point_sets_equal(dataA.punctures, dataB.punctures, tol.eps_pt):
        raise ValueError("the two data sets have different puncture sets")
    d1, d2 = dataA.g1.degree, dataA.g2.degree
    if d1 != dataB.g1.degree:
        raise ValueError("first Gauss components must have the same degree")
    if d2 != dataB.g2.degree:
        raise ValueError("second Gauss components must have the same degree")

    G, k = 0, len(dataA.punctures)
    chi = 2 * G - 2 + k
    notes: list[str] = []

    id1 = dataA.g1 == dataB.g1
    id2 = dataA.g2 == dataB.g2
    const2 = dataA.g2.is_constant and dataB.g2.is_constant

    complete_a = _complete_surface(a)
    complete_b = _complete_surface(b)
    hypotheses = complete_a and complete_b
    if not hypotheses:
        notes.append(
            "at least one data set fails the complete-surface hypotheses; "
            "identity cannot be forced"
        )

    if id1 and id2:
        return UnicityReport(
            case="identical",
            G=G,
            k=k,
            chi_term=chi,
            d1=d1,
            d2=d2,
            shared_g1=SharedValues(SHARED_IDENTICAL, ()),
            shared_g2=SharedValues(SHARED_IDENTICAL, ()),
            p=None,
            q=None,
            identity_verdict=IDENTITY_IDENTICAL,
            hypotheses_ok=hypotheses,
            notes=("the two Gauss maps are identical; every value is shared",),
        )

    R1, R2 = _ratio(d1, chi), _ratio(d2, chi)
    if chi <= 0:
        notes.append("2G-2+k <= 0: ratios undefined")

    shared1 = shared_values(dataA.g1, dataB.g1, dataA.punctures, tol) if not id1 else SharedValues(SHARED_IDENTICAL, ())
    # equal components in both data sets: the second pair is the first
    if all(d.g2 == d.g1 for d in (dataA, dataB)):
        shared2 = shared1
    else:
        shared2 = shared_values(dataA.g2, dataB.g2, dataA.punctures, tol) if not id2 else SharedValues(SHARED_IDENTICAL, ())

    def _count(sv: SharedValues) -> int | None:
        return len(sv.values) if sv.kind == SHARED_GENERIC else None

    p = _count(shared1)
    q = _count(shared2)

    unset = (None, None, None)
    distinct1, distinct2 = not id1, not id2 and not const2
    cb1, cb1_ok, cb1_eq = _ceiling(p, d1, chi, 4) if distinct1 else unset
    cb2, cb2_ok, cb2_eq = _ceiling(q, d2, chi, 4) if distinct2 else unset

    def _pole_budget(sv: SharedValues, degree, distinct):
        if not distinct or degree < 1 or sv.kind != SHARED_GENERIC:
            return None
        return sum(v.delta for v in sv.values) <= 2 * degree

    budget1 = _pole_budget(shared1, d1, distinct1)
    budget2 = _pole_budget(shared2, d2, distinct2)

    if const2 and id2 and not id1 and d1 >= 1:
        case = CASE_ONE_CONSTANT
    elif not id1 and not id2 and min(d1, d2) >= 1:
        case = CASE_BOTH
    else:
        case = "mixed"
        notes.append(
            "component pattern outside the two theorem cases; "
            "only the per-component count bounds are evaluated"
        )

    pair_lhs, pair_ok, pair_eq = _joint(p, q, R1, R2, 4) if case == CASE_BOTH else unset
    pair_applies = pair_lhs is not None

    if case == CASE_BOTH and p is not None and q is not None and p >= 7 and q >= 7:
        verdict = IDENTITY_FORCED
    elif case == CASE_ONE_CONSTANT and p is not None and p >= 6:
        verdict = IDENTITY_FORCED
    else:
        verdict = IDENTITY_NOT_FORCED

    contradiction = (
        cb1_ok is False
        or cb2_ok is False
        or budget1 is False
        or budget2 is False
        or pair_ok is False
        or (verdict == IDENTITY_FORCED and hypotheses)
    )
    if verdict == IDENTITY_FORCED:
        notes.append(
            "shared-value counts force identical maps, yet the maps differ"
            + ("" if hypotheses else " (hypotheses already fail, not flagged)")
        )

    return UnicityReport(
        case=case,
        G=G,
        k=k,
        chi_term=chi,
        d1=d1,
        d2=d2,
        shared_g1=shared1,
        shared_g2=shared2,
        p=p,
        q=q,
        R1=R1,
        R2=R2,
        count_bound_g1=cb1,
        count_bound_g2=cb2,
        count_bound_g1_ok=cb1_ok,
        count_bound_g2_ok=cb2_ok,
        count_bound_g1_equality=cb1_eq,
        count_bound_g2_equality=cb2_eq,
        pair_bound_applies=pair_applies,
        pair_bound_lhs=pair_lhs,
        pair_bound_ok=pair_ok,
        pair_bound_equality=pair_eq,
        pole_budget_g1_ok=budget1,
        pole_budget_g2_ok=budget2,
        identity_verdict=verdict,
        hypotheses_ok=hypotheses,
        contradiction=contradiction,
        notes=tuple(notes),
    )
