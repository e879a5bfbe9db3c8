from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from wlab import weierstrass
from wlab.exprparse import parse_expression
from wlab.rational import INF, RationalFunction, SpherePoint
from wlab.weierstrass import (
    ConformalityOverflowError,
    DataRequiresRotationError,
    PhiForms,
    WeierstrassData,
    check_conformality,
    check_regularity,
    classify_ends,
    compute_periods,
    data_from_phi,
    metric_factor,
    metric_factor_from_phi,
    phi_from_data,
    quadric_embedding,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
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
    assert phi.phi1.equals(RationalFunction.constant(0.5))
    assert phi.phi2.equals(RationalFunction.constant(0.5j))
    assert phi.phi3.equals(Z * 0.5)
    assert phi.phi4.equals(Z * -0.5j)


def test_phi_from_data_cubic_third_component():
    phi = phi_from_data(cubic_pole(c=0.0))
    assert phi.phi3.equals(1 / (2 * Z**2))
    for f in phi.forms:
        assert f.residue_at(0j) == pytest.approx(0.0, abs=1e-12)


def test_phi_from_data_flat():
    h = 1 / (Z - 4)
    phi = phi_from_data(WeierstrassData(h=h, g1=ZERO, g2=ZERO, punctures=("4",)))
    assert phi.phi3.is_zero
    assert phi.phi4.is_zero
    assert phi.phi1.equals(h * 0.5)
    assert phi.phi2.equals(h * 0.5j)


def test_data_from_phi_direct():
    phi = PhiForms(
        RationalFunction.constant(0.5),
        RationalFunction.constant(0.5j),
        Z * 0.5,
        Z * -0.5j,
    )
    d = data_from_phi(phi)
    assert d.h.equals(ONE)
    assert d.g1.equals(Z)
    assert d.g2.equals(ZERO)


def test_data_from_phi_round_trip():
    original = triple_poles_123()
    restored = data_from_phi(phi_from_data(original))
    assert restored.h.equals(original.h)
    assert restored.g1.equals(original.g1)
    assert restored.g2.equals(original.g2)


def test_data_from_phi_rotation_needed():
    # phi1 - i*phi2 = z - i*(-i z) = 0, so the chart is unusable as-is
    phi = PhiForms(Z, Z * -1j, ZERO, ZERO)
    with pytest.raises(DataRequiresRotationError):
        data_from_phi(phi)


# ---------------------------------------------------------------------------
# conformality


def test_conformality_by_construction():
    for data in (triple_poles_123(), double_pole_pair(), cubic_pole()):
        report = check_conformality(phi_from_data(data))
        assert report.ok
        assert report.symbolic_zero
        assert report.numeric_residual < 1e-12
        assert report.samples == 100


def test_conformality_detects_corruption():
    report = check_conformality(corrupted_phi())
    assert not report.ok
    assert not report.symbolic_zero


def corrupted_phi() -> PhiForms:
    phi = phi_from_data(double_pole_pair())
    return PhiForms(phi.phi1, phi.phi2, phi.phi3, phi.phi4 * 1.01)


def reference_nodes():
    """The conformality nodes, one at a time: 4 * 100 candidates."""
    golden_angle = math.pi * (3.0 - math.sqrt(5.0))
    for k in range(400):
        u = (k % 100 + 0.5) / 100
        yield cmath.rect(1.5 * math.sqrt(-2.0 * math.log1p(-u)), k * golden_angle)


def reference_conformality(phi: PhiForms) -> tuple[float, int]:
    """(numeric_residual, samples) by scalar evaluation, node after node."""
    numeric_residual = 0.0
    samples = 0
    for z in reference_nodes():
        if samples == 100:
            break
        try:
            vals = [f(z) for f in phi.forms]
        except ZeroDivisionError:
            continue
        mag = sum(abs(v) ** 2 for v in vals)
        if not math.isfinite(mag) or mag == 0.0:
            continue
        residual = abs(sum(v * v for v in vals)) / max(mag, 1e-300)
        numeric_residual = max(numeric_residual, residual)
        samples += 1
    return numeric_residual, samples


def fixture_phi(name: str) -> PhiForms:
    raw = json.loads((FIXTURES / f"{name}.json").read_text())
    return phi_from_data(
        WeierstrassData(
            h=parse_expression(raw["h"]),
            g1=parse_expression(raw["g1"]),
            g2=parse_expression(raw["g2"]),
            punctures=tuple(raw["punctures"]),
        )
    )


def pole_on_first_node() -> PhiForms:
    first = next(reference_nodes())
    phi = phi_from_data(WeierstrassData(h=1 / (Z - first), g1=Z, g2=ZERO, punctures=("inf",)))
    assert all(f.den(first) == 0 for f in phi.forms if not f.is_zero)
    return phi


def test_conformality_nodes_are_the_reference_nodes():
    assert np.array_equal(weierstrass._NODES, np.array(list(reference_nodes())))


FIXTURE_NAMES = (
    "example21", "example22", "example23", "irregular",
    "unicity_five_a", "unicity_five_b", "unicity_six_a", "unicity_six_b",
)
CONFORMALITY_CASES = {
    **{name: (lambda name=name: fixture_phi(name)) for name in FIXTURE_NAMES},
    "corrupted": corrupted_phi,
    "pole-on-first-node": pole_on_first_node,
}


@pytest.mark.parametrize("name", sorted(CONFORMALITY_CASES))
def test_conformality_batch_matches_the_node_loop(name):
    phi = CONFORMALITY_CASES[name]()
    residual, samples = reference_conformality(phi)
    report = check_conformality(phi)
    assert report.samples == samples == 100
    assert abs(report.numeric_residual - residual) <= 1e-14


def test_conformality_evaluates_each_form_once(monkeypatch):
    phi = phi_from_data(triple_poles_123())
    calls = 0
    evaluate = RationalFunction.__call__

    def counting(self, z):
        nonlocal calls
        calls += 1
        return evaluate(self, z)

    monkeypatch.setattr(RationalFunction, "__call__", counting)
    check_conformality(phi)
    assert calls == 4


def test_conformality_overflow_is_typed():
    huge = phi_from_data(WeierstrassData(h=RationalFunction.constant(1e160), g1=Z, g2=ZERO))
    with pytest.raises(ConformalityOverflowError, match="numerator"):
        check_conformality(huge)
    # the numerator 1e308 z^2 - 1e308 z^2 is finite, but |phi|^2 = 2e308 |z|^2
    # is finite only for |z| < 0.95, at fewer than 100 of the nodes
    edge = PhiForms(Z * 1e154, Z * 1e154j, ZERO, ZERO)
    with pytest.raises(ConformalityOverflowError, match="sample nodes"):
        check_conformality(edge)


# ---------------------------------------------------------------------------
# regularity


def test_regularity_passes_on_fixtures():
    for data in (triple_poles_123(), double_pole_pair(), cubic_pole()):
        report = check_regularity(data)
        assert report.ok, [str(v) for v in report.violations]


def test_regularity_gauss_pole_without_zero():
    data = WeierstrassData(h=ONE, g1=1 / Z, g2=ZERO, punctures=())
    report = check_regularity(data)
    assert not report.ok
    bad_points = {str(v.point) for v in report.violations}
    assert "0" in bad_points
    v0 = next(v for v in report.violations if str(v.point) == "0")
    assert v0.form_order == 0
    assert v0.g1_pole_order == 1


def test_regularity_counts_infinity():
    # plain dz degenerates at infinity, so leaving it unpunctured must fail
    data = WeierstrassData(h=ONE, g1=ZERO, g2=ZERO, punctures=())
    report = check_regularity(data)
    assert not report.ok
    assert any(v.point.is_infinity for v in report.violations)


def test_regularity_compensated_double_zero():
    # h dz vanishing to order 2 at 1 against two simple Gauss-map poles
    data = WeierstrassData(h=(Z - 1) ** 2, g1=1 / (Z - 1), g2=1 / (Z - 1), punctures=("inf",))
    assert check_regularity(data).ok


# ---------------------------------------------------------------------------
# end classification


def test_ends_all_complete_on_double_pole_pair():
    ends = classify_ends(double_pole_pair())
    assert ends.complete
    assert [r.metric_exponent for r in ends.records] == [-1, -1, -1]
    at_inf = ends.record_at("inf")
    assert at_inf.form_order == 0
    assert at_inf.g1_pole_order == 1


def test_ends_cubic_pole_flags_removable_point():
    ends = classify_ends(cubic_pole())
    assert not ends.complete
    at0 = ends.record_at(0j)
    assert (at0.form_order, at0.metric_exponent, at0.verdict) == (-3, -3, "complete-end")
    assert at0.mu == 3
    ati = ends.record_at("inf")
    assert (ati.form_order, ati.metric_exponent, ati.verdict) == (1, 0, "removable-point")


def test_ends_flat_plane():
    ends = classify_ends(WeierstrassData(h=ONE, g1=ZERO, g2=ZERO, punctures=("inf",)))
    assert ends.complete
    assert ends.records[0].metric_exponent == -2


def test_ends_degenerate_uncompensated_zero():
    # h dz keeps a zero at the puncture that no Gauss-map pole eats
    data = WeierstrassData(h=1 / (Z * (Z - 2) * (2 * Z - 1)), g1=1 / Z, g2=1 / Z,
                           punctures=("0", "2", "1/2", "inf"))
    ends = classify_ends(data)
    assert ends.record_at("inf").verdict == "degenerate"
    assert ends.record_at("inf").metric_exponent == 1
    assert not ends.complete


def test_ends_moebius_invariance():
    # reparametrize by z = 1/w: h dz pulls back as a differential,
    # the Gauss maps by plain substitution
    data = double_pole_pair()
    w = RationalFunction.variable()
    pulled = WeierstrassData(
        h=-data.h.reciprocal_argument() / w**2,
        g1=data.g1.reciprocal_argument(),
        g2=data.g2.reciprocal_argument(),
        punctures=("inf", "1", "0"),  # preimages of 0, 1, inf under z = 1/w
    )
    before = classify_ends(data)
    after = classify_ends(pulled)
    pairs = [("0", "inf"), ("1", "1"), ("inf", "0")]
    for src, dst in pairs:
        assert before.record_at(src).verdict == after.record_at(dst).verdict
        assert before.record_at(src).metric_exponent == after.record_at(dst).metric_exponent


# ---------------------------------------------------------------------------
# periods


def test_periods_triple_poles_fail_with_known_residue():
    report = compute_periods(triple_poles_123())
    assert not report.period_ok
    entry1 = next(e for e in report.entries if e.puncture.close_to(SpherePoint(1 + 0j), 1e-9))
    assert entry1.residues[3] == pytest.approx(-0.5j, abs=1e-10)
    assert entry1.real_parts[3] == pytest.approx(math.pi, abs=1e-9)
    assert entry1.real_parts[0] == pytest.approx(0.0, abs=1e-10)
    assert not entry1.ok
    for s in report.residue_sums:
        assert abs(s) <= 1e-10


def test_periods_double_pole_pair_fails_via_phi2():
    report = compute_periods(double_pole_pair())
    assert not report.period_ok
    entry0 = next(e for e in report.entries if e.puncture.close_to(SpherePoint(0j), 1e-9))
    assert entry0.residues[1] == pytest.approx(-0.5j, abs=1e-10)
    assert entry0.real_parts[1] == pytest.approx(math.pi, abs=1e-9)


def test_periods_cubic_pole_all_zero():
    report = compute_periods(cubic_pole())
    assert report.period_ok
    for entry in report.entries:
        for r in entry.residues:
            assert r == pytest.approx(0.0, abs=1e-12)
    assert report.max_cross_check_error < 1e-6


def test_periods_scale_recorded():
    report = compute_periods(cubic_pole())
    assert report.eps_period >= 1e-10


# ---------------------------------------------------------------------------
# metric


def test_metric_factor_constants():
    flat = WeierstrassData(h=ONE, g1=ZERO, g2=ZERO, punctures=("inf",))
    assert metric_factor(flat, 0.3 + 7j) == pytest.approx(0.25)
    both = WeierstrassData(h=ONE, g1=Z, g2=Z, punctures=("inf",))
    assert metric_factor(both, 1.0) == pytest.approx(1.0)


def test_metric_factor_matches_phi_identity():
    data = triple_poles_123()
    phi = phi_from_data(data)
    rng = np.random.default_rng(11)
    z = rng.normal(size=100) + 1j * rng.normal(size=100)
    direct = metric_factor(data, z)
    via_phi = metric_factor_from_phi(phi, z)
    assert np.allclose(direct, via_phi, rtol=1e-12, atol=0)


def test_metric_factor_errors_at_puncture():
    with pytest.raises((ValueError, ZeroDivisionError)):
        metric_factor(double_pole_pair(), 0.0)


def test_metric_factor_from_phi_finite_at_gauss_pole():
    # at a compensated pole of g1 the phi route stays finite
    data = WeierstrassData(h=(Z - 1) ** 2, g1=1 / (Z - 1), g2=1 / (Z - 1), punctures=("inf",))
    value = metric_factor_from_phi(phi_from_data(data), 1.0)
    assert math.isfinite(value)
    assert value == pytest.approx(0.25)  # |phi| = (1/2, 1/2, 0, 0) there


# ---------------------------------------------------------------------------
# quadric embedding


def project(w):
    return tuple(v / w[0] for v in w)


def test_quadric_embedding_simple_point():
    phi = phi_from_data(WeierstrassData(h=ONE, g1=Z, g2=ZERO, punctures=("inf",)))
    w = quadric_embedding(phi, 0.0)
    assert project(w) == pytest.approx((1, 1j, 0, 0))
    assert abs(sum(v * v for v in w)) < 1e-12
    assert max(abs(v) for v in w) == pytest.approx(1.0)


def test_quadric_embedding_clears_pole():
    w = quadric_embedding(phi_from_data(cubic_pole(c=0.0)), 0.0)
    assert project(w) == pytest.approx((1, 1j, 0, 0))
    assert abs(sum(v * v for v in w)) < 1e-12


def test_quadric_embedding_at_gauss_pole():
    data = WeierstrassData(h=(Z - 1) ** 2, g1=1 / (Z - 1), g2=1 / (Z - 1), punctures=("inf",))
    w = quadric_embedding(phi_from_data(data), 1.0)
    assert project(w) == pytest.approx((1, -1j, 0, 0))


def test_quadric_embedding_branch_point():
    phi = phi_from_data(WeierstrassData(h=Z, g1=ZERO, g2=ZERO, punctures=("inf",)))
    with pytest.raises(ValueError):
        quadric_embedding(phi, 0.0)


def test_quadric_residual_random_points():
    phi = phi_from_data(triple_poles_123())
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = complex(rng.normal(), rng.normal())
        w = quadric_embedding(phi, z)
        assert abs(sum(v * v for v in w)) < 1e-10


# ---------------------------------------------------------------------------
# data validation


def test_duplicate_punctures_rejected():
    with pytest.raises(ValueError):
        WeierstrassData(h=ONE, g1=Z, g2=ZERO, punctures=("1", "1"))


def test_zero_h_rejected():
    with pytest.raises(ValueError):
        WeierstrassData(h=ZERO, g1=Z, g2=ZERO, punctures=())


def test_genus_gate():
    data = WeierstrassData(h=ONE, g1=Z, g2=ZERO, punctures=("inf",), genus=2)
    with pytest.raises(ValueError):
        classify_ends(data)
