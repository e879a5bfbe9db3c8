"""Weierstrass data for minimal surfaces in R^4.

A surface is described by a triple ``(h dz, g1, g2)`` of rational functions
on a punctured sphere.  This module converts the triple to and from the four
holomorphic forms ``phi_1 .. phi_4``, checks the three structural conditions
(conformality, regularity of the induced metric, vanishing real periods),
classifies the behaviour of the metric at each puncture, and evaluates the
metric and the projective Gauss-map image pointwise.

All order bookkeeping is exact integer arithmetic on top of the tolerance
layer in :mod:`wlab.rational`; the only genuinely numeric step here is the
contour-quadrature cross-check of the residues.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .exprparse import as_sphere_point as _as_sphere_point
from .poly import Polynomial
from .rational import INF, RationalFunction, SpherePoint
from .tolerances import Tolerances

__all__ = [
    "WeierstrassData",
    "PhiForms",
    "ConformalityReport",
    "ConformalityOverflowError",
    "RegularityViolation",
    "RegularityReport",
    "EndRecord",
    "EndClassification",
    "PeriodEntry",
    "PeriodReport",
    "DataRequiresRotationError",
    "ResidueQuadratureError",
    "UnsupportedGenusError",
    "require_genus_zero",
    "phi_from_data",
    "data_from_phi",
    "check_conformality",
    "check_regularity",
    "classify_ends",
    "compute_periods",
    "metric_factor",
    "metric_factor_from_phi",
    "quadric_embedding",
]

VERDICT_COMPLETE = "complete-end"
VERDICT_REMOVABLE = "removable-point"
VERDICT_DEGENERATE = "degenerate"


class DataRequiresRotationError(ValueError):
    """phi_1 - i*phi_2 vanishes identically, so h dz cannot be recovered."""


class UnsupportedGenusError(ValueError):
    """Computed (function-level) analyses exist only on the genus-0 sphere."""


class ResidueQuadratureError(RuntimeError):
    """Exact residue and contour quadrature disagree beyond tolerance."""

    def __init__(self, puncture: SpherePoint, component: int, exact: complex, quadrature: complex):
        self.puncture = puncture
        self.component = component
        self.exact = exact
        self.quadrature = quadrature
        super().__init__(
            f"residue cross-check failed at {puncture} for phi_{component + 1}: "
            f"exact {exact!r} vs contour {quadrature!r}"
        )


@dataclass(frozen=True)
class WeierstrassData:
    """The triple (h dz, g1, g2) on a sphere with marked punctures.

    ``genus`` is carried for the abstract bound computations; every function
    in this module that actually evaluates on the domain requires genus 0.
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
        if self.h.is_zero:
            raise ValueError("h must not be the zero function")
        if self.genus < 0:
            raise ValueError("genus must be a nonnegative integer")
        eps = Tolerances().eps_pt
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[i].close_to(pts[j], eps):
                    raise ValueError(f"punctures must be pairwise distinct: {pts[i]} ~ {pts[j]}")

    def is_puncture(self, point: SpherePoint, eps_pt: float) -> bool:
        return any(point.close_to(p, eps_pt) for p in self.punctures)

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


def require_genus_zero(genus: int) -> None:
    """The one genus gate of every computed analysis."""
    if genus != 0:
        raise UnsupportedGenusError(
            f"computed analyses require genus 0, got genus {genus}; "
            "use the abstract bounds for higher genus"
        )


def phi_from_data(d: WeierstrassData) -> PhiForms:
    """Produce the coordinate forms.

    phi1 = (1 + g1 g2) h / 2        phi2 = i (1 - g1 g2) h / 2
    phi3 = (g1 - g2) h / 2          phi4 = -i (g1 + g2) h / 2
    """
    gg = d.g1 * d.g2
    one = RationalFunction.constant(1.0)
    return PhiForms(
        phi1=(one + gg) * d.h * 0.5,
        phi2=(one - gg) * d.h * 0.5j,
        phi3=(d.g1 - d.g2) * d.h * 0.5,
        phi4=(d.g1 + d.g2) * d.h * (-0.5j),
    )


def data_from_phi(phi: PhiForms, punctures: tuple[SpherePoint, ...] = (), genus: int = 0) -> WeierstrassData:
    """Invert :func:`phi_from_data`.

    h dz = phi1 - i phi2,  g1 = (phi3 + i phi4) / (h dz),  g2 = (-phi3 + i phi4) / (h dz).
    """
    h = phi.phi1 - phi.phi2 * 1j
    if h.is_zero:
        raise DataRequiresRotationError(
            "phi1 - i*phi2 is identically zero: data requires rotation before the "
            "(h, g1, g2) chart applies"
        )
    g1 = (phi.phi3 + phi.phi4 * 1j) / h
    g2 = (-phi.phi3 + phi.phi4 * 1j) / h
    return WeierstrassData(h=h, g1=g1, g2=g2, punctures=punctures, genus=genus)


@dataclass(frozen=True)
class ConformalityReport:
    ok: bool
    symbolic_zero: bool
    symbolic_residual: float
    numeric_residual: float
    samples: int


def _conformality_numerator(phi: PhiForms) -> tuple[Polynomial, float]:
    """Numerator of sum(phi_i^2) over the common denominator, plus its scale.

    Built term by term without gcd reduction so that exact cancellation is
    visible: for conformal data the four term polynomials sum to zero.
    """
    nums = [f.num for f in phi.forms]
    dens = [f.den for f in phi.forms]
    terms = []
    for i in range(4):
        t = nums[i] * nums[i]
        for j in range(4):
            if j != i:
                t = t * (dens[j] * dens[j])
        terms.append(t)
    total = Polynomial()
    scale = 0.0
    for t in terms:
        total = total + t
        scale = max(scale, t.max_abs_coeff)
    return total, max(scale, 1.0)


_SAMPLES = 100
_SAMPLE_SIGMA = 1.5
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
# node k turns by k golden angles, at the ((k mod _SAMPLES) + 1/2) / _SAMPLES
# quantile of the Rayleigh law with scale _SAMPLE_SIGMA (the law of |z| for a
# complex Gaussian z with that deviation per part); later rounds repeat the
# radii at new angles, standing in for nodes at poles
_NODES = np.array(
    [
        cmath.rect(
            _SAMPLE_SIGMA * math.sqrt(-2.0 * math.log1p(-(k % _SAMPLES + 0.5) / _SAMPLES)),
            k * _GOLDEN_ANGLE,
        )
        for k in range(4 * _SAMPLES)
    ]
)


class ConformalityOverflowError(ArithmeticError):
    """The conformality check leaves the range of a double.

    Either the numerator of sum(phi_i^2) has a non-finite coefficient, or
    fewer than _SAMPLES nodes give finite, nonzero forms.
    """


def check_conformality(phi: PhiForms, tol: Tolerances | None = None) -> ConformalityReport:
    """Verify sum(phi_i^2) = 0, symbolically and at _SAMPLES fixed nodes.

    The four forms are evaluated once each on the 4 * _SAMPLES nodes of
    ``_NODES``.  A node is usable when sum(|phi_i|^2) is finite and nonzero,
    which skips every node at a pole of some form (its value is not finite);
    the first _SAMPLES usable nodes are kept, and ``numeric_residual`` is the
    largest |sum(phi_i^2)| / sum(|phi_i|^2) over them.  Raises
    ``ConformalityOverflowError`` when the numerator has a non-finite
    coefficient or fewer than _SAMPLES nodes are usable.
    """
    tol = tol or Tolerances()
    numerator, scale = _conformality_numerator(phi)
    if not np.isfinite(np.asarray(numerator.coeffs, dtype=complex)).all():
        raise ConformalityOverflowError(
            "the numerator of sum(phi_i^2) has a coefficient beyond the range of a double"
        )
    symbolic_residual = numerator.max_abs_coeff / scale
    symbolic_zero = numerator.is_zero or symbolic_residual <= tol.eps_conformal

    with np.errstate(all="ignore"):
        vals = [f(_NODES) for f in phi.forms]
        mag = sum(np.abs(v) ** 2 for v in vals)
        keep = np.flatnonzero(np.isfinite(mag) & (mag != 0.0))[:_SAMPLES]
    if keep.size < _SAMPLES:
        raise ConformalityOverflowError(
            f"only {keep.size} of {_NODES.size} sample nodes give finite, nonzero "
            f"forms; the check needs {_SAMPLES}"
        )
    squares = sum(v[keep] * v[keep] for v in vals)
    numeric_residual = float(np.max(np.abs(squares) / np.maximum(mag[keep], 1e-300)))
    ok = symbolic_zero and numeric_residual <= 100 * tol.eps_conformal
    return ConformalityReport(
        ok=ok,
        symbolic_zero=symbolic_zero,
        symbolic_residual=symbolic_residual,
        numeric_residual=numeric_residual,
        samples=_SAMPLES,
    )


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


def _candidate_points(d: WeierstrassData, tol: Tolerances) -> list[SpherePoint]:
    """Every point where the metric factor could vanish or blow up.

    Away from zeros/poles of h and poles of g1, g2 the metric is a positive
    finite multiple of |dz|^2, so those are the only points to inspect
    (infinity always is, because dz itself degenerates there).
    """
    found: list[SpherePoint] = [INF]

    def push(pt: SpherePoint) -> None:
        for known in found:
            if pt.close_to(known, tol.eps_pt):
                return
        found.append(pt)

    for entry in d.h.zeros_and_poles(tol):
        push(entry.point)
    for g in (d.g1, d.g2):
        for z0, _order in g.finite_poles(tol):
            push(SpherePoint(z0))
        if not g.is_constant and g.order_at(INF, tol) < 0:
            push(INF)
    found.sort(key=lambda p: p.sort_key())
    return found


def check_regularity(d: WeierstrassData, tol: Tolerances | None = None) -> RegularityReport:
    """Check that h dz vanishes exactly where the Gauss maps have poles.

    At every non-puncture point the metric factor is ``|h dz|^2 (1+|g1|^2)(1+|g2|^2) / 4``
    and must be finite and nonzero, which pins the order of h dz to the sum
    of the two pole orders.  Punctures are exempt.
    """
    tol = tol or Tolerances()
    require_genus_zero(d.genus)
    violations = []
    checked = []
    for pt in _candidate_points(d, tol):
        if d.is_puncture(pt, tol.eps_pt):
            continue
        checked.append(pt)
        a = d.h.form_order_at(pt, tol)
        d1 = d.g1.pole_order_at(pt, tol)
        d2 = d.g2.pole_order_at(pt, tol)
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

    def record_at(self, point) -> EndRecord:
        target, eps_pt = _as_sphere_point(point), Tolerances().eps_pt
        for rec in self.records:
            if rec.puncture.close_to(target, eps_pt):
                return rec
        raise KeyError(f"no puncture at {target}")


def classify_ends(d: WeierstrassData, tol: Tolerances | None = None) -> EndClassification:
    """Classify each puncture as a genuine end, a removable point, or worse.

    The metric factor near a puncture behaves like |w|^m with
    m = ord(h dz) - poleord(g1) - poleord(g2).  A divergent path into the
    puncture has infinite length iff m <= -1.  m = 0 means the metric
    extends regularly (the puncture was unnecessary), and m >= 1 means the
    immersion degenerates there.
    """
    tol = tol or Tolerances()
    require_genus_zero(d.genus)
    records = []
    for p in d.punctures:
        a = d.h.form_order_at(p, tol)
        d1 = d.g1.pole_order_at(p, tol)
        d2 = d.g2.pole_order_at(p, tol)
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


def _contour_residue(f: RationalFunction, center: complex, radius: float, nodes: int) -> complex:
    """Trapezoidal estimate of the residue on a circle around ``center``."""
    k = np.arange(nodes)
    w = np.exp(2j * np.pi * k / nodes)
    vals = f(center + radius * w)
    return complex(radius / nodes * np.sum(vals * w))


def _quadrature_cross_check(
    f: RationalFunction,
    center: complex,
    radius: float,
    exact: complex,
    rtol: float,
    puncture: SpherePoint,
    component: int,
) -> float:
    """Compare the exact residue against contour quadrature at two resolutions."""
    worst = 0.0
    for nodes in (256, 512):
        approx = _contour_residue(f, center, radius, nodes)
        err = abs(approx - exact) / max(1.0, abs(exact))
        worst = max(worst, err)
        if err > rtol:
            raise ResidueQuadratureError(puncture, component, exact, approx)
    return worst


def compute_periods(
    d: WeierstrassData, tol: Tolerances | None = None, *, phi: PhiForms | None = None
) -> PeriodReport:
    """Residues of the four forms at each puncture and the resulting periods.

    On a genus-0 domain every cycle is homologous to a sum of small loops
    around punctures, so the period condition reduces to
    Re(2*pi*i*Res) = 0 per puncture and component.  Exact residues are
    authoritative; trapezoidal contour quadrature (finite punctures only)
    guards against mis-clustered poles.  The loop around infinity is
    resolved through the global residue relation instead of a contour.
    ``phi`` is the forms of ``d`` when the caller already holds them.

    Each distinct denominator's poles are located once, and each form's
    residue at infinity and sum of finite-pole residues are computed once.
    """
    tol = tol or Tolerances()
    require_genus_zero(d.genus)
    if phi is None:
        phi = phi_from_data(d)
    forms = phi.forms
    scale = phi.coefficient_scale()
    eps_period = tol.eps_period_rel * scale

    # forms often share a denominator, and equal denominators have equal poles
    poles_of_den: dict[tuple[complex, ...], list[complex]] = {}
    for f in forms:
        if f.den.coeffs not in poles_of_den:
            poles_of_den[f.den.coeffs] = [z0 for z0, _ in f.finite_poles(tol)]
    poles = [poles_of_den[f.den.coeffs] for f in forms]
    special: list[complex] = list(d.finite_punctures())
    for form_poles in poles:
        for z0 in form_poles:
            if all(abs(z0 - s) > tol.eps_pt for s in special):
                special.append(z0)

    at_inf = [f.residue_at(INF, tol) for f in forms]
    finite_sums = [sum(f.residue_at(z0, tol) for z0 in fp) for f, fp in zip(forms, poles)]

    entries = []
    max_err = 0.0
    for p in d.punctures:
        residues = []
        if p.is_infinity:
            for idx in range(len(forms)):
                exact = at_inf[idx]
                # Dual route: residue at infinity must close the global sum.
                others = finite_sums[idx]
                err = abs(exact + others) / max(1.0, abs(exact))
                if err > tol.residue_cross_rtol:
                    raise ResidueQuadratureError(p, idx, exact, -others)
                max_err = max(max_err, err)
                residues.append(exact)
        else:
            center = p.value
            others = [s for s in special if abs(s - center) > tol.eps_pt]
            radius = 0.5 * min((abs(s - center) for s in others), default=2.0)
            for idx, f in enumerate(forms):
                exact = f.residue_at(center, tol)
                err = _quadrature_cross_check(
                    f, center, radius, exact, tol.residue_cross_rtol, p, idx
                )
                max_err = max(max_err, err)
                residues.append(exact)
        res4 = tuple(residues)
        periods = tuple(2j * math.pi * r for r in res4)
        real_parts = tuple(pd.real for pd in periods)
        ok = all(abs(rp) <= eps_period for rp in real_parts)
        entries.append(PeriodEntry(p, res4, periods, real_parts, ok))

    sums = [complex(s + r) for s, r in zip(finite_sums, at_inf)]

    return PeriodReport(
        entries=tuple(entries),
        period_ok=bool(entries) and all(e.ok for e in entries),
        eps_period=eps_period,
        residue_sums=tuple(sums),
        max_cross_check_error=max_err,
    )


def metric_factor(d: WeierstrassData, z):
    """Squared conformal factor lambda^2 with ds^2 = lambda^2 |dz|^2.

    lambda^2 = |h|^2 (1 + |g1|^2) (1 + |g2|^2) / 4.  Scalars raise at poles
    and punctures; arrays propagate inf/nan and are the caller's problem.
    """
    if isinstance(z, np.ndarray):
        hv = d.h(z)
        g1v = d.g1(z)
        g2v = d.g2(z)
        return 0.25 * np.abs(hv) ** 2 * (1.0 + np.abs(g1v) ** 2) * (1.0 + np.abs(g2v) ** 2)
    eps = Tolerances().eps_pt
    if d.is_puncture(SpherePoint(complex(z)), eps):
        raise ValueError(f"metric evaluated at a puncture: {z}")
    hv = d.h(complex(z))
    g1v = d.g1(complex(z))
    g2v = d.g2(complex(z))
    return 0.25 * abs(hv) ** 2 * (1.0 + abs(g1v) ** 2) * (1.0 + abs(g2v) ** 2)


def metric_factor_from_phi(phi: PhiForms, z):
    """lambda^2 computed as sum(|phi_i|^2)/2; finite across poles of g1, g2."""
    if isinstance(z, np.ndarray):
        total = np.zeros(z.shape, dtype=float)
        for f in phi.forms:
            total += np.abs(f(z)) ** 2
        return 0.5 * total
    return 0.5 * sum(abs(f(complex(z))) ** 2 for f in phi.forms)


def _cleared_numerators(phi: PhiForms) -> tuple[Polynomial, Polynomial, Polynomial, Polynomial]:
    """Multiply the four forms by their common denominator.

    The result is a polynomial representative of the projective tuple
    (phi1 : phi2 : phi3 : phi4), valid away from common zeros.
    """
    dens = [f.den for f in phi.forms]
    out = []
    for i, f in enumerate(phi.forms):
        w = f.num
        for j, dj in enumerate(dens):
            if j != i:
                w = w * dj
        out.append(w)
    return tuple(out)


def quadric_embedding(phi: PhiForms, z, tol: Tolerances | None = None) -> tuple[complex, complex, complex, complex]:
    """Projective image (phi1 : phi2 : phi3 : phi4) at a point.

    Poles are cleared symbolically (the projective limit of the rational
    forms) and the tuple is scaled so its largest component is exactly 1.
    A point where all four forms are finite and vanish is a branch point of
    the immersion and is rejected; the image otherwise always satisfies
    sum(w_i^2) = 0 — that is the quadric the Gauss map lives on.
    """
    tol = tol or Tolerances()
    z0 = complex(z)
    try:
        vals = [f(z0) for f in phi.forms]
    except ZeroDivisionError:
        vals = None
    if vals is not None:
        if max(abs(v) for v in vals) == 0.0:
            raise ValueError(f"branch point: all four forms vanish at {z0}")
        return _normalize_projective(vals)

    # each cleared numerator divided by (z - z0)^mult, the least order there
    expansions = [None if w.is_zero else w.expansion_at(z0, tol.eps_res, 1) for w in _cleared_numerators(phi)]
    orders = [e[0] for e in expansions if e is not None]
    if not orders:
        raise ValueError("all four forms vanish identically")
    mult = min(orders)
    return _normalize_projective([e[1][0] if e is not None and e[0] == mult else 0j for e in expansions])


def _normalize_projective(vals) -> tuple[complex, complex, complex, complex]:
    mags = [abs(v) for v in vals]
    pivot = vals[mags.index(max(mags))]
    return tuple(v / pivot for v in vals)
