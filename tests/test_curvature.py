from __future__ import annotations

import math

import numpy as np
import pytest

from wlab.analysis import Analysis
from wlab.curvature import (
    QuadratureError,
    _density,
    _integrate_polar,
    curvature_from_metric,
    spherical_derivative,
    total_curvature_quadrature,
)
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
# total curvature


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


def test_quadrature_cell_budget_diagnostic():
    import dataclasses

    from wlab.tolerances import Tolerances

    data = WeierstrassData(h=ONE, g1=Z**2, g2=(Z**2 + 1) / (Z - 1), punctures=("inf",))
    impossible = dataclasses.replace(Tolerances(), quad_rtol=1e-16)
    with pytest.raises(QuadratureError) as err:
        total_curvature_quadrature(data, tol=impossible, max_cells=64)
    assert err.value.cells >= 64


def test_chart_independence_on_overlap():
    # the image of the annulus 0.5 <= |z| <= 1 under z = 1/w is 1 <= |w| <= 2
    g1, g2 = Z**2, 1 / (Z - 3)
    direct = _integrate_polar(_density(g1, g2), 0.5, 1.0, 1e-4, 20000)
    flipped = _integrate_polar(
        _density(g1.reciprocal_argument(), g2.reciprocal_argument()), 1.0, 2.0, 1e-4, 20000
    )
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


# ---------------------------------------------------------------------------
# batched cells against the one-cell-at-a-time quadrature


def _one_cell_integral(fn, r0, r1, t0, t1, n):
    x, w = np.polynomial.legendre.leggauss(n)
    rm, rh = 0.5 * (r1 + r0), 0.5 * (r1 - r0)
    tm, th = 0.5 * (t1 + t0), 0.5 * (t1 - t0)
    rr, tt = np.meshgrid(rm + rh * x, tm + th * x, indexing="ij")
    vals = fn(rr * np.exp(1j * tt)) * rr
    return float(rh * th * np.einsum("i,j,ij->", w, w, vals))


def _one_cell_polar(fn, r0, r1, rtol, max_cells):
    """The quadrature loop as it was before cells were batched: one density
    evaluation per cell and rule."""
    import heapq

    seq, heap, total, err = 0, [], 0.0, 0.0

    def push(cell):
        nonlocal seq, total, err
        coarse = _one_cell_integral(fn, *cell, 4)
        fine = _one_cell_integral(fn, *cell, 8)
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
        if len(heap) >= max_cells:
            raise QuadratureError(total, err, len(heap))
        neg_err, _s, (a, b, c, d), val = heapq.heappop(heap)
        total -= val
        err += neg_err
        rm, tm = 0.5 * (a + b), 0.5 * (c + d)
        for child in ((a, rm, c, tm), (a, rm, tm, d), (rm, b, c, tm), (rm, b, tm, d)):
            push(child)
    return math.fsum(item[3] for item in heap)


def _one_cell_total(data, rtol, max_cells):
    def flip(g):
        return g if g.is_constant else g.reciprocal_argument()

    inner = _one_cell_polar(_density(data.g1, data.g2), 0.0, 1.0, 0.5 * rtol, max_cells)
    outer = _one_cell_polar(_density(flip(data.g1), flip(data.g2)), 0.0, 1.0, 0.5 * rtol, max_cells)
    return -(inner + outer)


def _seeded_maps(count, seed):
    from wlab.poly import Polynomial

    rng = np.random.default_rng(seed)

    def poly(degree):
        c = rng.integers(-5, 6, size=degree + 1) + 1j * rng.integers(-2, 3, size=degree + 1)
        c[-1] = c[-1] or 1
        return Polynomial(c)

    out = []
    for _ in range(count):
        g1 = RationalFunction(poly(int(rng.integers(1, 4))), poly(int(rng.integers(0, 3))))
        g2 = RationalFunction(poly(int(rng.integers(0, 3))), poly(int(rng.integers(1, 3))))
        out.append(WeierstrassData(h=ONE, g1=g1, g2=g2, punctures=("inf",)))
    return out


@pytest.mark.parametrize("rtol", [1e-3, 1e-4, 1e-5])
def test_batched_cells_keep_every_bit(rtol):
    import dataclasses

    from wlab.tolerances import Tolerances

    tol = dataclasses.replace(Tolerances(), quad_rtol=rtol)
    refined = 0
    for data in _seeded_maps(12, seed=31):
        expect = _one_cell_total(data, rtol, 20000)
        assert total_curvature_quadrature(data, tol).hex() == expect.hex()
        refined += expect != _one_cell_total(data, 1.0, 20000)
    assert refined >= 6  # most maps refine past the initial grid


def test_batched_cells_hit_the_budget_at_the_same_cell():
    import dataclasses

    from wlab.tolerances import Tolerances

    tol = dataclasses.replace(Tolerances(), quad_rtol=1e-9)
    for data in _seeded_maps(4, seed=5):
        for max_cells in (40, 97):
            with pytest.raises(QuadratureError) as expect:
                _one_cell_total(data, tol.quad_rtol, max_cells)
            with pytest.raises(QuadratureError) as got:
                total_curvature_quadrature(data, tol, max_cells=max_cells)
            assert got.value.cells == expect.value.cells
            assert got.value.value.hex() == expect.value.value.hex()
            assert got.value.error.hex() == expect.value.error.hex()
