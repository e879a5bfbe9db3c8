from __future__ import annotations

import heapq
import math

import numpy as np
import pytest

from wlab.analysis import Analysis
from wlab.curvature import curvature_from_metric, spherical_derivative
from wlab.rational import RationalFunction
from wlab.weierstrass import WeierstrassData, metric_factor_from_phi, phi_from_data

Z = RationalFunction.variable()
ONE = RationalFunction.constant(1)
ZERO = RationalFunction.constant(0)


def test_spherical_derivative_identity_map():
    # |1| / (1 + |z|^2)
    z = np.array([0.0, 1.0, 3j])
    assert spherical_derivative(Z, z) == pytest.approx([1.0, 0.5, 0.1])


def test_spherical_derivative_finite_at_pole():
    g = 1 / (Z - 1)
    assert spherical_derivative(g, np.array([1.0])) == pytest.approx([1.0])


def gauss_curvature(d: WeierstrassData, z):
    """K at the points z, from lambda^2 as the mesh evaluates it."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    return curvature_from_metric(d, z, metric_factor_from_phi(phi_from_data(d), z))


def test_gauss_curvature_known_values():
    both = WeierstrassData(h=ONE, g1=Z, g2=Z, punctures=("inf",))
    assert gauss_curvature(both, 0.0) == pytest.approx([-4.0])
    single = WeierstrassData(h=ONE, g1=Z, g2=ZERO, punctures=("inf",))
    assert gauss_curvature(single, 0.0) == pytest.approx([-2.0])


def test_gauss_curvature_flat():
    flat = WeierstrassData(h=ONE, g1=ZERO, g2=RationalFunction.constant(2j), punctures=("inf",))
    assert np.all(gauss_curvature(flat, [0.0, 1.5 - 2j, 40.0]) == 0.0)


def test_gauss_curvature_nonpositive_everywhere():
    fixtures = [
        WeierstrassData(h=1 / ((Z - 1) * (Z - 2) * (Z - 3)), g1=Z, g2=Z, punctures=("1", "2", "3", "inf")),
        WeierstrassData(h=1 / (Z * (Z - 1)), g1=Z, g2=ZERO, punctures=("0", "1", "inf")),
        WeierstrassData(h=1 / Z**3, g1=Z, g2=ONE, punctures=("0", "inf")),
        WeierstrassData(h=ONE, g1=Z**2, g2=(Z**2 + 1) / (Z - 1), punctures=("inf",)),
    ]
    rng = np.random.default_rng(23)
    for data in fixtures:
        z = rng.normal(size=250) + 1j * rng.normal(size=250)
        k = gauss_curvature(data, z)
        k = k[np.isfinite(k)]
        assert np.all(k <= 1e-15)


def test_gauss_curvature_finite_at_compensated_pole():
    data = WeierstrassData(h=(Z - 1) ** 2, g1=1 / (Z - 1), g2=1 / (Z - 1), punctures=("inf",))
    assert gauss_curvature(data, 1.0) == pytest.approx([-4.0])


# ---------------------------------------------------------------------------
# total curvature by a reference quadrature
#
# The run path reads -2 pi (d1 + d2) off the map degrees (closed_form_of).
# This quadrature is the test-side check of that identity: the density
# 2(sigma_1^2 + sigma_2^2) is smooth on the whole sphere, so it is
# integrated over |z| <= 1 in the chart z and over |w| <= 1 in the chart
# w = 1/z, by adaptive tensor Gauss-Legendre cells in polar coordinates.


def _density(g1: RationalFunction, g2: RationalFunction):
    """The total-curvature density 2(sigma_1^2 + sigma_2^2) as a callable."""

    def fn(z):
        s1 = spherical_derivative(g1, z)
        s2 = spherical_derivative(g2, z)
        return 2.0 * (s1 * s1 + s2 * s2)

    return fn


def at_reciprocal(g: RationalFunction) -> RationalFunction:
    """w -> g(1/w), by substituting 1/w into the exact pair of g."""
    inverse, i = 1 / Z, RationalFunction.constant(1j)

    def at(p):
        coeffs = (RationalFunction.constant(x) + RationalFunction.constant(y) * i for x, y in p)
        return sum((c * inverse**k for k, c in enumerate(coeffs)), ZERO)

    a, b = g.pair
    return at(a) / at(b)


def _cell_integral(fn, r0, r1, t0, t1, n):
    x, w = np.polynomial.legendre.leggauss(n)
    rm, rh = 0.5 * (r1 + r0), 0.5 * (r1 - r0)
    tm, th = 0.5 * (t1 + t0), 0.5 * (t1 - t0)
    rr, tt = np.meshgrid(rm + rh * x, tm + th * x, indexing="ij")
    vals = fn(rr * np.exp(1j * tt)) * rr
    return float(rh * th * np.einsum("i,j,ij->", w, w, vals))


def _polar_integral(fn, r0, r1, rtol):
    """Adaptive quadrature over the annulus r0 <= |z| <= r1: the cell with
    the largest |GL8 - GL4| is split in four until the summed estimate is
    within rtol of the total."""
    seq, heap, total, err = 0, [], 0.0, 0.0

    def push(cell):
        nonlocal seq, total, err
        coarse = _cell_integral(fn, *cell, 4)
        fine = _cell_integral(fn, *cell, 8)
        heapq.heappush(heap, (-abs(fine - coarse), seq, cell, fine))
        total += fine
        err += abs(fine - coarse)
        seq += 1

    n_r = 2 if r0 > 0 else 4
    rs = np.linspace(r0, r1, n_r + 1)
    ts = np.linspace(0.0, 2.0 * math.pi, 9)
    for i in range(len(rs) - 1):
        for j in range(len(ts) - 1):
            push((float(rs[i]), float(rs[i + 1]), float(ts[j]), float(ts[j + 1])))
    while err > rtol * max(abs(total), 1e-12):
        assert len(heap) < 20000, f"no convergence: {total} +- {err} after {len(heap)} cells"
        neg_err, _s, (a, b, c, d), val = heapq.heappop(heap)
        total -= val
        err += neg_err
        rm, tm = 0.5 * (a + b), 0.5 * (c + d)
        for child in ((a, rm, c, tm), (a, rm, tm, d), (rm, b, c, tm), (rm, b, tm, d)):
            push(child)
    return math.fsum(item[3] for item in heap)


def total_curvature_quadrature(data: WeierstrassData) -> float:
    """The total curvature to about 1e-3 relative, on the two unit-disk
    charts; punctures carry no mass."""
    inner = _polar_integral(_density(data.g1, data.g2), 0.0, 1.0, 5e-4)
    outer = _polar_integral(_density(at_reciprocal(data.g1), at_reciprocal(data.g2)), 0.0, 1.0, 5e-4)
    return -(inner + outer)


def test_total_curvature_quadrature_degree_one():
    data = WeierstrassData(h=ONE, g1=Z, g2=ZERO, punctures=("inf",))
    tau = total_curvature_quadrature(data)
    assert tau == pytest.approx(-2 * math.pi, rel=0.01)


def test_total_curvature_quadrature_degree_two():
    data = WeierstrassData(h=ONE, g1=Z, g2=Z, punctures=("inf",))
    assert total_curvature_quadrature(data) == pytest.approx(-4 * math.pi, rel=0.01)


def test_total_curvature_quadrature_degree_four():
    data = WeierstrassData(h=ONE, g1=Z**2, g2=(Z**2 + 1) / (Z - 1), punctures=("inf",))
    assert total_curvature_quadrature(data) == pytest.approx(-8 * math.pi, rel=0.01)


def test_total_curvature_quadrature_flat_zero():
    data = WeierstrassData(h=ONE, g1=ZERO, g2=ZERO, punctures=("inf",))
    assert total_curvature_quadrature(data) == pytest.approx(0.0, abs=1e-12)


def test_chart_independence_on_overlap():
    # the image of the annulus 0.5 <= |z| <= 1 under z = 1/w is 1 <= |w| <= 2
    g1, g2 = Z**2, 1 / (Z - 3)
    direct = _polar_integral(_density(g1, g2), 0.5, 1.0, 1e-4)
    flipped = _polar_integral(_density(at_reciprocal(g1), at_reciprocal(g2)), 1.0, 2.0, 1e-4)
    assert direct == pytest.approx(flipped, rel=1e-3)


def test_closed_form_universal_cover():
    data = WeierstrassData(h=1 / ((Z - 1) * (Z - 2) * (Z - 3)), g1=Z, g2=Z,
                           punctures=("1", "2", "3", "inf"))
    report = Analysis(data).curvature_closed_form
    assert report.basic_domain_value == pytest.approx(-4 * math.pi)
    assert not report.period_ok
    assert report.surface_verdict == "infinite-universal-cover"
    assert report.surface_value == -math.inf


def test_closed_form_algebraic():
    data = WeierstrassData(h=1 / Z**3, g1=Z, g2=ONE, punctures=("0", "inf"))
    report = Analysis(data).curvature_closed_form
    assert report.basic_domain_value == pytest.approx(-2 * math.pi)
    assert report.period_ok
    assert report.surface_verdict == "finite-algebraic"
    assert report.surface_value == pytest.approx(-2 * math.pi)
    assert (report.d1, report.d2) == (1, 0)


def test_closed_form_flat():
    data = WeierstrassData(h=ONE, g1=ZERO, g2=ZERO, punctures=("inf",))
    report = Analysis(data).curvature_closed_form
    assert report.surface_verdict == "flat"
    assert report.surface_value == 0.0


def test_quadrature_matches_closed_form_across_fixtures():
    fixtures = [
        WeierstrassData(h=1 / ((Z - 1) * (Z - 2) * (Z - 3)), g1=Z, g2=Z, punctures=("1", "2", "3", "inf")),
        WeierstrassData(h=1 / (Z * (Z - 1)), g1=Z, g2=ZERO, punctures=("0", "1", "inf")),
        WeierstrassData(h=1 / Z**3, g1=Z, g2=ONE, punctures=("0", "inf")),
    ]
    for data in fixtures:
        expect = Analysis(data).curvature_closed_form.basic_domain_value
        assert total_curvature_quadrature(data) == pytest.approx(expect, rel=0.01)
