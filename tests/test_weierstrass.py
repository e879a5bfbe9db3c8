from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import oracle
from conftest import LOADABLE, load_fixture, loadable_fixtures, random_regular_data
from wlab.analysis import Analysis
from wlab.exprparse import as_sphere_point, parse_expression
from wlab.rational import GaussianRational, RationalFunction
from wlab.roots import roots_with_multiplicity
from wlab.tolerances import Tolerances
from wlab.weierstrass import (
    DuplicatePunctureError,
    PhiForms,
    UnsupportedGenusError,
    WeierstrassData,
    check_regularity,
    classify_ends,
    compute_periods,
    metric_factor_from_phi,
    phi_from_data,
)

Z = RationalFunction.variable()
ONE = RationalFunction.constant(1)
ZERO = RationalFunction.constant(0)


def triple_poles_123() -> WeierstrassData:
    """Both Gauss maps the identity, simple poles of h dz at 1, 2, 3."""
    h = 1 / ((Z - 1) * (Z - 2) * (Z - 3))
    return WeierstrassData(h=h, g1=Z, g2=Z, punctures=("1", "2", "3", "inf"))


def double_pole_pair() -> WeierstrassData:
    """One identity Gauss map, simple poles of h dz at 0 and 1."""
    return WeierstrassData(h=1 / (Z * (Z - 1)), g1=Z, g2=ZERO, punctures=("0", "1", "inf"))


def cubic_pole(c: complex = 1.0) -> WeierstrassData:
    """h = 1/z^3 with one constant Gauss map; punctured at 0 and infinity."""
    return WeierstrassData(h=1 / Z**3, g1=Z, g2=RationalFunction.constant(c), punctures=("0", "inf"))


# ---------------------------------------------------------------------------
# phi <-> data


def test_phi_from_data_simple():
    phi = phi_from_data(WeierstrassData(h=ONE, g1=Z, g2=ZERO, punctures=("inf",)))
    assert phi.phi1 == RationalFunction.constant(0.5)
    assert phi.phi2 == RationalFunction.constant(0.5j)
    assert phi.phi3 == Z * 0.5
    assert phi.phi4 == Z * -0.5j


def test_phi_from_data_cubic_third_component():
    phi = phi_from_data(cubic_pole(c=0.0))
    assert phi.phi3 == 1 / (2 * Z**2)
    for f in phi.forms:
        assert f.residue_at(0j) == pytest.approx(0.0, abs=1e-12)


def test_phi_from_data_flat():
    h = 1 / (Z - 4)
    phi = phi_from_data(WeierstrassData(h=h, g1=ZERO, g2=ZERO, punctures=("4",)))
    assert phi.phi3.is_zero
    assert phi.phi4.is_zero
    assert phi.phi1 == h * 0.5
    assert phi.phi2 == h * 0.5j


# ---------------------------------------------------------------------------
# conformality


def corrupted_phi() -> PhiForms:
    phi = phi_from_data(double_pole_pair())
    return PhiForms(phi.phi1, phi.phi2, phi.phi3, phi.phi4 * 1.01)


def test_conformality_by_construction():
    # phi_from_data builds the forms so that sum(phi_k^2) vanishes identically
    rng = np.random.default_rng(3)
    phis = [phi_from_data(load_fixture(name)) for name in LOADABLE]
    phis += [phi_from_data(random_regular_data(rng)) for _ in range(40)]
    phis += [phi_from_data(d) for d in (triple_poles_123(), double_pole_pair(), cubic_pole())]
    for phi in phis:
        assert oracle.sum_of_squares(phi.forms).is_zero, phi


def test_conformality_detects_corruption():
    # the oracle can fail: phi4 scaled by 1.01 leaves 0.0201 phi4^2 != 0
    assert not oracle.sum_of_squares(corrupted_phi().forms).is_zero


# ---------------------------------------------------------------------------
# regularity


def test_regularity_passes_on_fixtures():
    for data in (triple_poles_123(), double_pole_pair(), cubic_pole()):
        report = check_regularity(Analysis(data))
        assert report.ok, [str(v) for v in report.violations]


def test_regularity_gauss_pole_without_zero():
    data = WeierstrassData(h=ONE, g1=1 / Z, g2=ZERO, punctures=())
    report = check_regularity(Analysis(data))
    assert not report.ok
    bad_points = {str(v.point) for v in report.violations}
    assert "0" in bad_points
    v0 = next(v for v in report.violations if str(v.point) == "0")
    assert v0.form_order == 0
    assert v0.g1_pole_order == 1


def test_regularity_counts_infinity():
    # plain dz degenerates at infinity, so leaving it unpunctured must fail
    data = WeierstrassData(h=ONE, g1=ZERO, g2=ZERO, punctures=())
    report = check_regularity(Analysis(data))
    assert not report.ok
    assert any(v.point.is_infinity for v in report.violations)


def test_regularity_compensated_double_zero():
    # h dz vanishing to order 2 at 1 against two simple Gauss-map poles
    data = WeierstrassData(h=(Z - 1) ** 2, g1=1 / (Z - 1), g2=1 / (Z - 1), punctures=("inf",))
    assert check_regularity(Analysis(data)).ok


# ---------------------------------------------------------------------------
# end classification


def ends_of(d: WeierstrassData):
    return classify_ends(Analysis(d))


def record_at(ends, point):
    """The end record of the puncture ``point``, matched exactly."""
    target = as_sphere_point(point)
    return next(rec for rec in ends.records if rec.puncture == target)


def test_ends_all_complete_on_double_pole_pair():
    ends = ends_of(double_pole_pair())
    assert ends.complete
    assert [r.metric_exponent for r in ends.records] == [-1, -1, -1]
    at_inf = record_at(ends, "inf")
    assert at_inf.form_order == 0
    assert at_inf.g1_pole_order == 1


def test_ends_cubic_pole_flags_removable_point():
    ends = ends_of(cubic_pole())
    assert not ends.complete
    at0 = record_at(ends, 0j)
    assert (at0.form_order, at0.metric_exponent, at0.verdict) == (-3, -3, "complete-end")
    assert at0.mu == 3
    ati = record_at(ends, "inf")
    assert (ati.form_order, ati.metric_exponent, ati.verdict) == (1, 0, "removable-point")


def test_ends_flat_plane():
    ends = ends_of(WeierstrassData(h=ONE, g1=ZERO, g2=ZERO, punctures=("inf",)))
    assert ends.complete
    assert ends.records[0].metric_exponent == -2


def test_ends_degenerate_uncompensated_zero():
    # h dz keeps a zero at the puncture that no Gauss-map pole eats
    data = WeierstrassData(h=1 / (Z * (Z - 2) * (2 * Z - 1)), g1=1 / Z, g2=1 / Z,
                           punctures=("0", "2", "1/2", "inf"))
    ends = ends_of(data)
    assert record_at(ends, "inf").verdict == "degenerate"
    assert record_at(ends, "inf").metric_exponent == 1
    assert not ends.complete


def test_ends_moebius_invariance():
    # reparametrize by z = 1/w: h dz pulls back as a differential,
    # the Gauss maps by plain substitution
    data = double_pole_pair()
    w = RationalFunction.variable()
    def at_reciprocal(g):
        return RationalFunction.of_exact(*oracle.at_reciprocal(g))

    pulled = WeierstrassData(
        h=-at_reciprocal(data.h) / w**2,
        g1=at_reciprocal(data.g1),
        g2=at_reciprocal(data.g2),
        punctures=("inf", "1", "0"),  # preimages of 0, 1, inf under z = 1/w
    )
    before = ends_of(data)
    after = ends_of(pulled)
    pairs = [("0", "inf"), ("1", "1"), ("inf", "0")]
    for src, dst in pairs:
        assert record_at(before, src).verdict == record_at(after, dst).verdict
        assert record_at(before, src).metric_exponent == record_at(after, dst).metric_exponent


# ---------------------------------------------------------------------------
# periods


def entry_at(report, point):
    """The period entry of the puncture ``point``, matched exactly."""
    target = as_sphere_point(point)
    return next(entry for entry in report.entries if entry.puncture == target)


def as_fractions(r: GaussianRational) -> tuple[Fraction, Fraction]:
    """The exact (re, im) of a residue, read off its unreduced ``exact``."""
    u, v, w = r.exact
    return Fraction(u, w), Fraction(v, w)


def test_periods_triple_poles_fail_with_known_residue():
    report = compute_periods(Analysis(triple_poles_123()))
    assert not report.period_ok
    entry1 = entry_at(report, "1")
    assert entry1.residues[3].exact == (0, -2, 4)
    assert [as_fractions(r) for r in entry1.residues] == [
        (Fraction(1, 2), 0), (0, 0), (0, 0), (0, Fraction(-1, 2)),
    ]
    assert entry1.real_parts[3] == math.pi
    assert entry1.real_parts[0] == 0.0
    assert not entry1.ok
    assert report.residue_sums == (0j,) * 4


def test_periods_double_pole_pair_fails_via_phi2():
    report = compute_periods(Analysis(double_pole_pair()))
    assert not report.period_ok
    entry0 = entry_at(report, "0")
    assert [as_fractions(r) for r in entry0.residues] == [
        (Fraction(-1, 2), 0), (0, Fraction(-1, 2)), (0, 0), (0, 0),
    ]
    assert entry0.real_parts[1] == math.pi


def test_periods_cubic_pole_all_zero():
    report = compute_periods(Analysis(cubic_pole()))
    assert report.period_ok
    for entry in report.entries:
        assert [as_fractions(r) for r in entry.residues] == [(0, 0)] * 4
    assert report.max_cross_check_error == 0.0


def test_periods_scale_recorded():
    report = compute_periods(Analysis(cubic_pole()))
    assert report.eps_period >= 1e-10


def contour_error(an: Analysis) -> float:
    """The largest relative gap between trapezoidal contours of 256 and 512
    nodes around each finite puncture and the exact residues there; each
    circle's radius is half the distance to the nearest other singular
    point of the data."""
    worst = 0.0
    for entry in an.periods.entries:
        if entry.puncture.is_infinity:
            continue
        c = entry.puncture.value
        radius = 0.5 * min((abs(s - c) for s in an.singular_points if s != c), default=2.0)
        for f, r in zip(an.phi.forms, entry.residues):
            for nodes in (256, 512):
                worst = max(worst, abs(oracle.contour_residue(f, c, radius, nodes) - r) / max(1.0, abs(r)))
    return worst


def test_periods_from_the_pole_table_match_the_phi_denominators():
    # on regular data every pole of a form is a puncture, so each form's
    # exact residues at the punctures, infinity included, sum to exactly 0
    # by the residue theorem; the contours meet the exact residues within 1e-6
    rng = np.random.default_rng(3)
    regular = 0
    for d in loadable_fixtures() + [random_regular_data(rng) for _ in range(40)]:
        an = Analysis(d)
        report = an.periods
        if an.regularity.ok:
            regular += 1
            for k in range(4):
                parts = [as_fractions(entry.residues[k]) for entry in report.entries]
                assert [sum(part[j] for part in parts) for j in (0, 1)] == [0, 0], d
        assert report.residue_sums == (0j,) * 4 and report.max_cross_check_error == 0.0
        assert contour_error(an) <= 1e-6, d
    assert regular >= 40


def test_exact_residues_equal_a_qq_i_oracle():
    # every residue a period report prints is exact: at each finite puncture
    # and at infinity its unrounded value is the oracle's Gaussian rational
    rng = np.random.default_rng(3)
    checked = 0
    for d in loadable_fixtures() + [random_regular_data(rng) for _ in range(40)]:
        an = Analysis(d)
        for entry in an.periods.entries:
            p = entry.puncture
            for f, got in zip(an.phi.forms, entry.residues):
                want = oracle.residue(f, p)
                u, v, w = got.exact
                assert (Fraction(u, w), Fraction(v, w)) == want, (d, p)
                assert got == complex(Fraction(u, w), Fraction(v, w))
                checked += 1
    assert checked >= 400


@pytest.mark.parametrize("factor", ["z^2+1", "z^2+z+1"])
def test_a_puncture_at_a_located_root_of_a_quadratic_is_refused(factor):
    # a residue there could only be read off the float views, so a library
    # caller's puncture must be a Gaussian-rational point, as the CLI
    # grammar's always is; the same float without its factor is the literal
    # it prints as, and is accepted
    located = [r for r, _m in roots_with_multiplicity(parse_expression(factor).pair[0])]
    with pytest.raises(ValueError, match="is a root of a degree-2 factor, not a Gaussian-rational point"):
        WeierstrassData(h=ONE, g1=Z, g2=Z, punctures=(*located, "inf"))
    d = WeierstrassData(h=ONE, g1=Z, g2=Z, punctures=(*map(complex, located), "inf"))
    assert all(len(p.factor) == 2 for p in d.punctures if not p.is_infinity)


# ---------------------------------------------------------------------------
# metric


def test_metric_factor_constants():
    flat = WeierstrassData(h=ONE, g1=ZERO, g2=ZERO, punctures=("inf",))
    assert metric_factor_from_phi(phi_from_data(flat), 0.3 + 7j) == pytest.approx(0.25)
    both = WeierstrassData(h=ONE, g1=Z, g2=Z, punctures=("inf",))
    assert metric_factor_from_phi(phi_from_data(both), 1.0) == pytest.approx(1.0)


def test_metric_factor_matches_phi_identity():
    # lambda^2 = |h|^2 (1 + |g1|^2) (1 + |g2|^2) / 4 against sum(|phi_i|^2) / 2
    data = triple_poles_123()
    phi = phi_from_data(data)
    rng = np.random.default_rng(11)
    z = rng.normal(size=100) + 1j * rng.normal(size=100)
    h, g1, g2 = (np.abs(f(z)) ** 2 for f in (data.h, data.g1, data.g2))
    direct = 0.25 * h * (1 + g1) * (1 + g2)
    via_phi = metric_factor_from_phi(phi, z)
    assert np.allclose(direct, via_phi, rtol=1e-12, atol=0)


def test_metric_factor_from_phi_finite_at_gauss_pole():
    # at a compensated pole of g1 the phi route stays finite
    data = WeierstrassData(h=(Z - 1) ** 2, g1=1 / (Z - 1), g2=1 / (Z - 1), punctures=("inf",))
    value = metric_factor_from_phi(phi_from_data(data), 1.0)
    assert math.isfinite(value)
    assert value == pytest.approx(0.25)  # |phi| = (1/2, 1/2, 0, 0) there


# ---------------------------------------------------------------------------
# data validation


def test_duplicate_punctures_rejected():
    # distinctness is a question of eps_pt, so the Analysis decides it
    data = WeierstrassData(h=ONE, g1=Z, g2=ZERO, punctures=("1", "1"))
    with pytest.raises(DuplicatePunctureError, match="pairwise distinct: 1 ~ 1"):
        Analysis(data)
    near = WeierstrassData(h=ONE, g1=Z, g2=ZERO, punctures=("0", "1e-9"))
    with pytest.raises(DuplicatePunctureError):
        Analysis(near)
    Analysis(near, Tolerances().scaled(1e-3))


def test_zero_h_rejected():
    with pytest.raises(ValueError):
        WeierstrassData(h=ZERO, g1=Z, g2=ZERO, punctures=())


def test_genus_gate():
    data = WeierstrassData(h=ONE, g1=Z, g2=ZERO, punctures=("inf",), genus=2)
    with pytest.raises(UnsupportedGenusError):
        Analysis(data)
