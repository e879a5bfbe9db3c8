from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import from_roots
from test_exprparse import _ladder_maps
from test_snapshots import NO_SIMD_DISPATCH
from wlab.exprparse import as_sphere_point, parse_expression, parse_sphere_point
from wlab.poly import Polynomial
from wlab.ramification import OverfullFiberError, fiber_table, ramification_report
from wlab.rational import INF, RationalFunction, SpherePoint
from wlab.roots import IllConditionedRootsError, RootIsolationError, roots_with_multiplicity
from wlab.tolerances import Tolerances

Z = RationalFunction.variable()
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
PUNCTURE_POOL = ("inf", "0", "1", "-1", "i", "2", "-2")
CLUSTER_RTOL = 1e-6


def preimages(f: RationalFunction, a, tol: Tolerances | None = None) -> list[tuple[SpherePoint, int]]:
    """The fiber f^{-1}(a) with multiplicities, from the roots of N - aD.

    The test oracle for every fiber the Wronskian table gives.  Finite a
    (an expression, read exactly, or a number, read at its binary value):
    roots of N - aD, formed exactly.  A value that prints as f(inf) does is
    f(inf) up to rounding, and the exact pair's local degree at infinity
    fixes the degree of its fibre polynomial, instead of a root near 1e16.
    a = infinity: roots of D.  Whenever the fiber polynomial drops below
    deg f, the balance sits at infinity.

    A float a is its true value up to rounding, and the rounding splits a
    point of multiplicity m of the true fibre into m simple roots of the
    exact N - aD, about (1e-16)^(1/m) apart, around it: all roots are
    located (no point identity), roots within ``CLUSTER_RTOL`` of each
    other form one point, and the point is their mean.
    """
    if f.is_constant:
        raise ValueError("preimages of a constant map are not a finite fiber")
    target = as_sphere_point(a)
    if target.is_infinity:
        fiber_poly = f.pair[1]
    else:
        value = parse_expression(a) if isinstance(a, str) else RationalFunction.constant(target.value)
        fiber_poly = f.cross_numerator(value)
        if target == f.value_at_sphere(INF):
            fiber_poly = fiber_poly[: f.degree - f.local_degree_at_infinity() + 1]
    clusters: list[list[complex]] = []
    if len(fiber_poly) >= 2:
        for root, mult in roots_with_multiplicity(fiber_poly, replace(tol or Tolerances(), eps_pt=0.0)):
            near = next((c for c in clusters if abs(c[0] - root) <= CLUSTER_RTOL * (1 + abs(root))), None)
            if near is None:
                near = []
                clusters.append(near)
            near += [root] * mult
    out = [(SpherePoint(sum(c) / len(c)), len(c)) for c in clusters]
    covered = sum(m for _, m in out)
    if covered < f.degree:
        out.append((INF, f.degree - covered))
    return sorted(out, key=lambda pm: pm[0].sort_key())


def points_of(fiber):
    return sorted(str(p) for p, _m in fiber)


def test_preimages_double_root():
    assert preimages(Z**2, 0) == [(SpherePoint(0j), 2)]


def test_preimages_two_simple_roots():
    fiber = preimages(Z**2, 4)
    assert sorted((p.value.real, m) for p, m in fiber) == [(-2.0, 1), (2.0, 1)]


def test_preimages_infinity_with_balance():
    f = (Z - 1) ** 2 / (Z + 2)
    fiber = preimages(f, "inf")
    assert len(fiber) == 2
    assert (SpherePoint(-2 + 0j), 1) in [(p, m) for p, m in fiber if not p.is_infinity]
    assert any(p.is_infinity and m == 1 for p, m in fiber)


def test_preimages_all_at_infinity():
    # 1/z takes the value 0 only at infinity
    fiber = preimages(1 / Z, 0)
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
        assert sum(m for _p, m in preimages(f, a)) == f.degree


def test_preimages_over_a_rounded_value_at_infinity():
    # A(inf) = -7/3 = B(0): the exact N_A - (-7/3) D_A is constant, so the
    # whole fibre sits at infinity, and the correctly rounded views of the
    # two values agree (they differed in the last bit under float reduction)
    a = parse_expression("(-8-7*z)/(-4+3*z)")
    b = parse_expression("(-8*z-7)/(-4*z+3)")
    assert b.value_at_sphere(0j) == a.value_at_sphere(INF)
    assert preimages(a, "-7/3") == preimages(a, b.value_at_sphere(0j)) == [(INF, 1)]


def test_free_count_is_the_number_of_distinct_preimages_off_the_punctures():
    # z^2 (z - 1) over 0: a double point at 0 and the puncture 1; over
    # -4/27: a double point at 2/3 and a simple one; over infinity: only
    # the puncture infinity, with local degree 3
    table = fiber_table(Z**2 * (Z - 1), ("1", "inf"))
    assert [table.free_count(SpherePoint(v)) for v in (0j, -4 / 27 + 0j, 5 + 0j)] == [1, 2, 3]
    assert table.free_count(INF) == 0


def test_preimages_constant_rejected():
    with pytest.raises(ValueError):
        preimages(RationalFunction.constant(3), 1)


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
# fiber counting: the second route to every fiber


def counted_fiber(f, value, punctures, tol):
    """(point, multiplicity, is_puncture) over ``value`` from the roots of N - vD."""
    fiber = []
    for point, mult in preimages(f, value, tol):
        puncture = next((p for p in punctures if point.close_to(p, tol.eps_pt)), None)
        fiber.append((puncture or point, mult, puncture is not None))
    return fiber


def near(a: SpherePoint, b: SpherePoint) -> bool:
    if a.is_infinity or b.is_infinity:
        return a.is_infinity and b.is_infinity
    return abs(a.value - b.value) <= 1e-6


def assert_fibers_match_counting(f, punctures):
    """Every reported fiber is the counted one; every other candidate is ordinary."""
    tol = Tolerances()
    reported = ramification_report(f, punctures, tol).values
    for rv in reported:
        counted = counted_fiber(f, rv.value, punctures, tol)
        free = [mult for _p, mult, is_puncture in counted if not is_puncture]
        if free:
            assert (rv.kind, rv.nu) == ("totally-ramified", min(free)) and rv.nu >= 2, (f, rv, counted)
        else:
            assert (rv.kind, rv.nu) == ("exceptional", math.inf), (f, rv, counted)
        assert len(rv.preimages) == len(counted), (f, rv)
        # any order: conjugate pairs can swap on ulp-different real parts
        for pre in rv.preimages:
            hit = [
                k
                for k, (point, mult, is_puncture) in enumerate(counted)
                if (mult, is_puncture) == (pre.multiplicity, pre.is_puncture) and near(point, pre.point)
            ]
            assert hit, (f, rv, counted)
            counted.pop(hit[0])
    w = f.derivative_numerator()
    critical = [c for c, _m in roots_with_multiplicity(w, tol)] if len(w) >= 2 else []
    candidates = [f.value_at_sphere(p) for p in (*critical, INF, *punctures)]
    for value in candidates:
        if not any(value.close_to(rv.value, tol.eps_pt) for rv in reported):
            fiber = counted_fiber(f, value, punctures, tol)
            assert any(mult == 1 and not is_puncture for _p, mult, is_puncture in fiber), (f, value, fiber)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
def test_fixture_fibers_match_counting(path):
    raw = json.loads(path.read_text())
    punctures = tuple(parse_sphere_point(str(p)) for p in raw["punctures"])
    for key in ("g1", "g2"):
        g = parse_expression(raw[key])
        if not g.is_constant:
            assert_fibers_match_counting(g, punctures)


def integer_poly(rng, degree: int) -> RationalFunction:
    coeffs = [complex(c) for c in rng.integers(-9, 10, size=degree)]
    return RationalFunction(Polynomial(coeffs + [complex(rng.choice([-3, -2, -1, 1, 2, 3]))]))


def random_map(rng, shape: int) -> RationalFunction:
    """Generic N/D, A^m/B, a polynomial, or z^a/((z-1)^b (z+2))."""

    def degree(lo: int, hi: int) -> int:
        return int(rng.integers(lo, hi + 1))

    if shape == 0:
        return integer_poly(rng, degree(1, 6)) / integer_poly(rng, degree(0, 6))
    if shape == 1:
        m, a = degree(2, 4), integer_poly(rng, degree(1, 2))
        return a**m / integer_poly(rng, degree(0, m * a.degree))
    if shape == 2:
        return integer_poly(rng, degree(1, 8))
    return Z ** degree(1, 5) / ((Z - 1) ** degree(0, 4) * (Z + 2))


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
    mpmath = pytest.importorskip("mpmath")
    f = parse_expression("(z-300)^2*(z-1)^64*(z-1)^64/((z-299)^2*(z+1)^64*(z+1)^64)")
    far = [r for r, _m in roots_with_multiplicity(f.derivative_numerator()) if abs(r.imag) > 1]
    assert far == pytest.approx([297.18 - 26.26j, 297.18 + 26.26j], abs=5e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = f.values_at(far)
    with mpmath.workdps(50):
        for z, value in zip(far, values):
            x = mpmath.mpc(z.real, z.imag)
            exact = (x - 300) ** 2 * (x - 1) ** 128 / ((x - 299) ** 2 * (x + 1) ** 128)
            assert abs(value.value - complex(exact)) <= 1e-12 * abs(exact)


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
