from __future__ import annotations

import math

import numpy as np
import pytest

import oracle
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
# The oracle's polar quadrature of the density 2(sigma_1^2 + sigma_2^2) on
# the two unit-disk charts is the test-side check of that identity.


def test_total_curvature_quadrature_degree_one():
    assert oracle.total_curvature(Z, ZERO) == pytest.approx(-2 * math.pi, rel=0.01)


def test_total_curvature_quadrature_degree_two():
    assert oracle.total_curvature(Z, Z) == pytest.approx(-4 * math.pi, rel=0.01)


def test_total_curvature_quadrature_degree_four():
    assert oracle.total_curvature(Z**2, (Z**2 + 1) / (Z - 1)) == pytest.approx(-8 * math.pi, rel=0.01)


def test_total_curvature_quadrature_flat_zero():
    assert oracle.total_curvature(ZERO, ZERO) == pytest.approx(0.0, abs=1e-12)


def test_chart_independence_on_overlap():
    # the image of the annulus 0.5 <= |z| <= 1 under z = 1/w is 1 <= |w| <= 2
    g1, g2 = Z**2, 1 / (Z - 3)
    direct = oracle.polar_integral(oracle.density(g1, g2), 0.5, 1.0, 1e-4)
    flipped = oracle.polar_integral(oracle.density(oracle.at_reciprocal(g1), oracle.at_reciprocal(g2)), 1.0, 2.0, 1e-4)
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
        assert oracle.total_curvature(data.g1, data.g2) == pytest.approx(expect, rel=0.01)
