from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import FIXTURES, NO_SIMD_DISPATCH, PUNCTURE_POOL, _ladder_maps, assert_fibers_match_counting, from_roots, random_map, write_data
from wlab.cli import main
from wlab.exprparse import as_sphere_point, parse_expression, parse_sphere_point
from wlab.ramification import FiberTable, OverfullFiberError, Preimage, fiber_table, ramification_report
from wlab.rational import INF, PointIndex, RationalFunction, SpherePoint, distinct_points
from wlab.roots import IllConditionedRootsError, RootIsolationError, roots_with_multiplicity
from wlab.tolerances import Tolerances

Z = RationalFunction.variable()


def preimage_list(f: RationalFunction, a) -> list[tuple[SpherePoint, int]]:
    """The oracle's fibre f^-1(a) as sorted (point, multiplicity): text read
    exactly, a number as the literal it prints as, and a value that is f(inf)
    as a double is f(inf)."""
    point = as_sphere_point(a)
    exact = oracle.at_infinity(f) if point == f.value_at_sphere(INF) else oracle.exact_point(point)
    fibre = [(INF if z is None else SpherePoint(complex(z)), m) for z, m in oracle.fibre(f, exact)]
    return sorted(fibre, key=lambda pm: pm[0].sort_key())


def test_preimages_double_root():
    assert preimage_list(Z**2, 0) == [(SpherePoint(0j), 2)]


def test_preimages_two_simple_roots():
    fiber = preimage_list(Z**2, 4)
    assert sorted((p.value.real, m) for p, m in fiber) == [(-2.0, 1), (2.0, 1)]


def test_preimages_infinity_with_balance():
    f = (Z - 1) ** 2 / (Z + 2)
    fiber = preimage_list(f, "inf")
    assert len(fiber) == 2
    assert (SpherePoint(-2 + 0j), 1) in [(p, m) for p, m in fiber if not p.is_infinity]
    assert any(p.is_infinity and m == 1 for p, m in fiber)


def test_preimages_all_at_infinity():
    # 1/z takes the value 0 only at infinity
    fiber = preimage_list(1 / Z, 0)
    assert fiber == [(INF, 1)]


def test_preimages_sum_to_degree_random():
    rng = np.random.default_rng(17)
    for _ in range(30):
        dn = int(rng.integers(1, 5))
        dd = int(rng.integers(0, 5))
        num = from_roots(rng.normal(size=dn) + 1j * rng.normal(size=dn))
        den = from_roots(rng.normal(size=dd) + 1j * rng.normal(size=dd))
        f = RationalFunction(num, den)
        if f.is_constant:
            continue
        a = complex(rng.normal(), rng.normal())
        assert sum(m for _p, m in preimage_list(f, a)) == f.degree


def test_preimages_over_a_rounded_value_at_infinity():
    # A(inf) = -7/3 = B(0): the exact N_A - (-7/3) D_A is constant, so the
    # whole fibre sits at infinity, and the correctly rounded views of the
    # two values agree (they differed in the last bit under float reduction)
    a = parse_expression("(-8-7*z)/(-4+3*z)")
    b = parse_expression("(-8*z-7)/(-4*z+3)")
    assert b.value_at_sphere(0j) == a.value_at_sphere(INF)
    assert preimage_list(a, "-7/3") == preimage_list(a, b.value_at_sphere(0j)) == [(INF, 1)]


def test_free_count_is_the_number_of_distinct_preimages_off_the_punctures():
    # z^2 (z - 1) over 0: a double point at 0 and the puncture 1; over
    # -4/27: a double point at 2/3 and a simple one; over infinity: only
    # the puncture infinity, with local degree 3
    table = fiber_table(Z**2 * (Z - 1), ("1", "inf"))
    assert [table.free_count(SpherePoint(v)) for v in (0j, -4 / 27 + 0j, 5 + 0j)] == [1, 2, 3]
    assert table.free_count(INF) == 0


@st.composite
def point_clouds(draw):
    """(eps_pt, points): clusters about a few centres, 0 among them, at offsets
    of 0, eps_pt / 2, eps_pt and eps_pt (1 +- 1e-3) in each part, so that
    points fall just inside, just outside and exactly at eps_pt in real part;
    with infinity, NaN and infinite parts, and duplicates."""
    eps = draw(st.sampled_from([1e-8, 1e-3, 0.5]))
    centres = [0.0, *draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3))]
    offsets = st.sampled_from([0.0, 0.5, 1.0, 1 - 1e-3, 1 + 1e-3]).flatmap(lambda t: st.sampled_from([t * eps, -t * eps]))
    near = st.builds(lambda c, d, x, y: SpherePoint(complex(c + x, d + y)), *[st.sampled_from(centres)] * 2, offsets, offsets)
    odd = st.sampled_from([INF, SpherePoint(complex(math.nan, 0.0)), SpherePoint(complex(math.inf, 1.0))])
    points = draw(st.lists(st.one_of(near, near, near, odd), max_size=40))
    duplicates = draw(st.lists(st.sampled_from(points), max_size=6)) if points else []
    return eps, points + duplicates


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(point_clouds())
def test_the_sorted_index_finds_what_the_scan_finds(cloud):
    eps, points = cloud
    kept = distinct_points(points, eps)
    reference = oracle.scan_distinct(points, eps)
    assert len(kept) == len(reference) and all(a is b for a, b in zip(kept, reference))
    # a table over the cloud, its points' sort keys tied in threes, so a
    # fiber's order among equal keys is the entries' order
    entries = tuple((Preimage(SpherePoint(complex(k % 3, 0)), 1 + k % 2, k % 5 == 0), v) for k, v in enumerate(points))
    degree = sum(pre.multiplicity for pre, _ in entries)
    table = FiberTable(degree, 0, entries, (), eps)
    # bounds.shared_values counts delta as the size of such a query
    common = PointIndex(eps, points)
    for value in [*points, INF, SpherePoint(complex(math.nan, math.nan))]:
        fiber = oracle.scan_fiber(entries, value, eps)
        got = table.fiber(value)
        assert len(got) == len(fiber) and all(a is b for a, b in zip(got, fiber))
        free = sum(1 for pre in fiber if not pre.is_puncture) + degree - sum(pre.multiplicity for pre in fiber)
        assert table.free_count(value) == free
        assert len(common.near(value)) == sum(1 for v in points if v.close_to(value, eps))


def test_grouping_a_degree_64_table_makes_linearly_many_point_comparisons(record_calls, tmp_path):
    # the scans compared every table value with every candidate: 24,256
    # close_to calls for one ramify of a degree-64 map
    g1 = _ladder_maps()[32]  # a generic A / B of degree 64
    path = write_data(tmp_path, "d64", ["inf"], "1", g1, "z")
    compared = record_calls(SpherePoint, "close_to")
    assert main(["ramify", str(path), "--component", "1"]) == 0
    calls = len(compared)
    table = fiber_table(parse_expression(g1), ("inf",))
    assert len(table.entries) == len(table.candidates) == 127  # 126 critical points and the puncture
    assert calls <= 4 * (len(table.entries) + len(table.candidates)), calls


def test_preimages_constant_rejected():
    with pytest.raises(ValueError):
        preimage_list(RationalFunction.constant(3), 1)


# ---------------------------------------------------------------------------
# exceptional values


def test_exceptional_identity_map_four_punctures():
    vals = [v for v in ramification_report(Z, ("1", "2", "3", "inf")).values if v.is_exceptional]
    assert sorted(str(v.value) for v in vals) == ["1", "2", "3", "inf"]
    assert all(v.is_exceptional and v.nu == math.inf for v in vals)


def test_exceptional_skips_unpunctured_infinity():
    vals = [v for v in ramification_report(Z, ("0", "2")).values if v.is_exceptional]
    assert sorted(str(v.value) for v in vals) == ["0", "2"]


def test_exceptional_none_without_punctures():
    assert [v for v in ramification_report(Z**2, ()).values if v.is_exceptional] == []


def test_exceptional_preimages_flagged():
    vals = [v for v in ramification_report(Z**2, ("0", "inf")).values if v.is_exceptional]
    assert len(vals) == 2
    for v in vals:
        assert all(pre.is_puncture for pre in v.preimages)


# ---------------------------------------------------------------------------
# totally ramified values


def test_squaring_map_unpunctured():
    vals = ramification_report(Z**2, ()).values
    assert sorted(str(v.value) for v in vals) == ["0", "inf"]
    assert all(v.kind == "totally-ramified" and v.nu == 2 for v in vals)


def test_squaring_map_with_punctures_promotes_to_exceptional():
    vals = ramification_report(Z**2, ("0", "inf")).values
    assert all(v.is_exceptional for v in vals)


def test_identity_map_has_no_ramified_values():
    assert ramification_report(Z, ()).values == ()


def test_mixed_fiber_disqualifies():
    # value 0 of z^2(z-1) has a double root at 0 and a simple root at 1
    f = Z**2 * (Z - 1)
    vals = ramification_report(f, ()).values
    assert not any(str(v.value) == "0" for v in vals)
    # but puncturing the simple preimage re-qualifies it
    vals_p = ramification_report(f, ("1",)).values
    zero = next(v for v in vals_p if str(v.value) == "0")
    assert zero.nu == 2
    free = [pre for pre in zero.preimages if not pre.is_puncture]
    assert [pre.multiplicity for pre in free] == [2]


# ---------------------------------------------------------------------------
# reports


def test_report_identity_map_four_punctures():
    rep = ramification_report(Z, ("1", "2", "3", "inf"))
    assert rep.degree == 1
    assert rep.exceptional_count == 4
    assert rep.nu_f == Fraction(4)
    assert rep.n0 == 0 and rep.nr == 0 and rep.n1 == 0
    assert rep.rh_ok
    assert rep.puncture_budget_ok  # 4 punctures >= 1*4 - 0
    assert rep.ramified_weight_ok


def test_report_identity_map_three_punctures():
    rep = ramification_report(Z, ("0", "1", "inf"))
    assert rep.nu_f == Fraction(3)


def test_report_squaring_map():
    rep = ramification_report(Z**2, ())
    assert rep.nu_f == Fraction(1)
    assert rep.n1 == 2
    assert rep.nr == 2
    assert rep.ramified_weight_lhs == Fraction(1)
    assert rep.ramified_weight_rhs == Fraction(1)
    assert rep.ramified_weight_ok


def test_report_degree_five_total_branching():
    rng = np.random.default_rng(5)
    num = from_roots(rng.normal(size=5) + 1j * rng.normal(size=5))
    den = from_roots(rng.normal(size=3) + 1j * rng.normal(size=3))
    rep = ramification_report(RationalFunction(num, den), ())
    assert rep.degree == 5
    assert rep.n1 == 8
    assert rep.rh_ok


def test_riemann_hurwitz_many_random_maps():
    rng = np.random.default_rng(101)
    for _ in range(300):
        d = int(rng.integers(2, 9))
        split = int(rng.integers(0, d + 1))
        num = from_roots(rng.normal(size=d) + 1j * rng.normal(size=d))
        den = from_roots(rng.normal(size=split) + 1j * rng.normal(size=split))
        f = RationalFunction(num, den)
        rep = ramification_report(f, ())
        assert rep.n1 == 2 * f.degree - 2
        assert rep.rh_ok


def test_nu_f_moebius_invariant():
    rng = np.random.default_rng(77)
    fixtures = [
        (Z**2, ("0", "inf")),
        (Z**2 * (Z - 1), ("1",)),
        ((Z**2 - 1) / Z, ("0", "inf")),
    ]
    for f, pts in fixtures:
        base = ramification_report(f, pts).nu_f
        for _ in range(5):
            a, b, c, d = (complex(rng.normal(), rng.normal()) for _ in range(4))
            if abs(a * d - b * c) < 1e-3:
                continue
            rotated = (f * a + b) / (f * c + d)
            assert ramification_report(rotated, pts).nu_f == base


def test_fundamental_bound_on_random_fixtures():
    rng = np.random.default_rng(31)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        num = from_roots(rng.normal(size=d) + 1j * rng.normal(size=d))
        den = from_roots(rng.normal(size=int(rng.integers(0, d))) * 1j)
        f = RationalFunction(num, den)
        k = int(rng.integers(0, 5))
        pts = []
        if k and rng.random() < 0.5:
            pts.append(INF)
        while len(pts) < k:
            pts.append(SpherePoint(complex(rng.normal(), rng.normal())))
        rep = ramification_report(f, tuple(pts))
        chi = -2 + len(pts)
        if chi >= 0:
            assert rep.nu_f <= 2 + Fraction(chi, f.degree)


def test_preimage_multiplicities_sum_to_degree_in_reports():
    rep = ramification_report((Z**3 - 1) / (Z**3 + 1), ())
    for rv in rep.values:
        assert sum(pre.multiplicity for pre in rv.preimages) == rep.degree


def test_overfull_fiber_is_a_typed_failure():
    # the critical points +-0.1 map to -+0.002, one value at eps_pt = 1e-2,
    # while the points themselves stay apart: local degrees 2 + 2 > 3
    f = Z**3 - 0.03 * Z
    assert issubclass(OverfullFiberError, ArithmeticError)
    assert not issubclass(OverfullFiberError, ValueError)
    with pytest.raises(OverfullFiberError):
        ramification_report(f, (), Tolerances(eps_pt=1e-2)).values
    vals = ramification_report(f, ()).values
    assert [(str(v.value), v.kind, v.nu) for v in vals] == [("inf", "totally-ramified", 3)]


# ---------------------------------------------------------------------------
# fiber counting: every fiber against the oracle's exact table


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_fixture_fibers_match_counting(path):
    raw = json.loads(path.read_text())
    punctures = tuple(parse_sphere_point(str(p)) for p in raw["punctures"])
    for key in ("g1", "g2"):
        g = parse_expression(raw[key])
        if not g.is_constant:
            assert_fibers_match_counting(g, punctures)


def test_random_fibers_match_counting():
    rng = np.random.default_rng(2026)
    compared, failed = 0, Counter()
    for k in range(240):
        f = random_map(rng, k % 4)
        names = rng.choice(PUNCTURE_POOL, size=int(rng.integers(0, 6)), replace=False)
        if f.is_constant:
            continue
        try:
            assert_fibers_match_counting(f, tuple(parse_sphere_point(str(p)) for p in names))
            compared += 1
        except (RootIsolationError, IllConditionedRootsError, OverfullFiberError) as exc:
            # float root-finding breaks down on a few A^m/B maps, by either
            # route; a typed failure is allowed, a differing fiber is not
            failed[type(exc).__name__] += 1
    assert compared >= 200, failed


def _bits(point: SpherePoint) -> str:
    return "inf" if point.is_infinity else f"{point.value.real.hex()} {point.value.imag.hex()}"


def values_batch_against_single() -> tuple[int, list[str]]:
    """(points compared, mismatches): each ladder map of degree at most 20
    is read at all roots of its Wronskian, at infinity and at 1/3 in one
    ``values_at`` batch, and at each point alone."""
    count, mismatches = 0, []
    for text in _ladder_maps():
        f = parse_expression(text)
        if f.degree > 20:
            continue
        points = [SpherePoint(r) for r, _m in roots_with_multiplicity(f.derivative_numerator())]
        points += [INF, parse_sphere_point("1/3")]
        for point, value in zip(points, f.values_at(points)):
            count += 1
            if _bits(value) != _bits(f.value_at_sphere(point)):
                mismatches.append(f"{text} at {point}")
    return count, mismatches


def test_values_at_a_batch_are_the_values_at_each_point_alone():
    count, mismatches = values_batch_against_single()
    assert count > 400 and not mismatches


def test_values_at_far_critical_points_of_high_degree_are_finite():
    # the map of test_ramify_residual_bound_of_a_far_root_of_high_degree_*:
    # at its critical points 297.18 +- 26.26i the degree-130 views leave the
    # range of a double, and their quotient was NaN, with a RuntimeWarning
    f = parse_expression("(z-300)^2*(z-1)^64*(z-1)^64/((z-299)^2*(z+1)^64*(z+1)^64)")
    far = [r for r, _m in roots_with_multiplicity(f.derivative_numerator()) if abs(r.imag) > 1]
    assert far == pytest.approx([297.18 - 26.26j, 297.18 + 26.26j], abs=5e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = f.values_at(far)
    for value, exact in zip(values, oracle.map_values(f, far)):
        assert oracle.close(value.value, exact, 0.0, 1e-12)


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 dispatch targets")
def test_values_at_a_batch_are_the_values_at_each_point_alone_without_simd_dispatch():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_SIMD_DISPATCH}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={NO_SIMD_DISPATCH!r}")
    tests, src = Path(__file__).resolve().parent, Path(__file__).resolve().parents[1] / "src"
    code = "import json, test_ramification as t; print(json.dumps(t.values_batch_against_single()))"
    env["PYTHONPATH"] = os.pathsep.join([str(tests), str(src)])
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    count, mismatches = json.loads(proc.stdout)
    assert count > 400 and not mismatches
