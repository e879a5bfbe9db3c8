from __future__ import annotations

import random

import numpy as np
import pytest

from wlab import roots
from wlab.exprparse import parse_expression
from wlab.poly import Polynomial
from wlab.roots import IllConditionedRootsError, RootCrossCheckError, roots_with_multiplicity

# a degree-32 map A^4/B: the float square-free layers miss the triple roots
# of its Wronskian, so both routes scatter each triple root differently
TRIPLE_ROOTS_MAP = (
    "(z^8 - 8*z^7 + 9*z^6 + 2*z^4 - z^3 + 7*z^2 - 7*z - 6)^4/(4*z^32 + 4*z^31 - 2*z^30 - 7*z^29 + 2*z^28"
    " - 6*z^27 + 2*z^26 + 3*z^25 + 5*z^24 + 6*z^22 - z^21 - 5*z^20 - 2*z^19 - 4*z^18 + 3*z^17 - 3*z^16"
    " - 8*z^15 + 3*z^14 - 6*z^13 - z^12 - 4*z^11 - 9*z^10 - 5*z^9 + 2*z^8 + 9*z^7 - 2*z^6 - 7*z^5 - 2*z^4"
    " + z^3 - 3*z^2 - 9*z + 3)"
)


def by_value(result):
    return {complex(round(r.real, 6), round(r.imag, 6)): m for r, m in result}


def test_double_root_plus_simple():
    # z^3 - 3z + 2 = (z-1)^2 (z+2), expanded by hand
    p = Polynomial([2, -3, 0, 1])
    got = by_value(roots_with_multiplicity(p))
    assert got == {(1 + 0j): 2, (-2 + 0j): 1}


def test_pair_of_simple_imaginary_roots():
    p = Polynomial([1, 0, 1])  # z^2 + 1
    got = roots_with_multiplicity(p)
    assert sorted(m for _, m in got) == [1, 1]
    values = sorted(got, key=lambda t: t[0].imag)
    assert values[0][0] == pytest.approx(-1j, abs=1e-10)
    assert values[1][0] == pytest.approx(1j, abs=1e-10)


def test_quadruple_root_from_expanded_coefficients():
    # (z-5)^4 = z^4 - 20 z^3 + 150 z^2 - 500 z + 625 (binomial expansion)
    p = Polynomial([625, -500, 150, -20, 1])
    got = roots_with_multiplicity(p)
    assert len(got) == 1
    r, m = got[0]
    assert m == 4
    assert r == pytest.approx(5.0, abs=1e-6)


def test_degree_one():
    p = Polynomial([3, 2])  # 2z + 3
    assert roots_with_multiplicity(p) == [(-1.5 + 0j, 1)]


def test_residual_bound_holds():
    rng = np.random.default_rng(7)
    for _ in range(25):
        deg = rng.integers(2, 9)
        roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        p = Polynomial.from_roots(roots)
        for r, m in roots_with_multiplicity(p):
            bound = 1e-9 * p.max_abs_coeff * (1 + abs(r)) ** p.degree
            assert abs(p(r)) <= bound


def test_multiset_union_on_products():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ra = rng.normal(size=3) + 1j * rng.normal(size=3)
        rb = rng.normal(size=2) + 1j * rng.normal(size=2)
        p = Polynomial.from_roots(ra) * Polynomial.from_roots(rb)
        got = roots_with_multiplicity(p)
        expected = sorted(list(ra) + list(rb), key=lambda z: (z.real, z.imag))
        flat = sorted(
            [r for r, m in got for _ in range(m)], key=lambda z: (z.real, z.imag)
        )
        assert len(flat) == len(expected)
        for a, b in zip(flat, expected):
            assert abs(a - b) < 1e-7


def test_cluster_below_point_identity_merges():
    # separation far below eps_pt: gcd and deflation agree on one double root
    p = Polynomial.from_roots([1.0, 1.0 + 1e-9])
    got = roots_with_multiplicity(p)
    assert len(got) == 1
    r, m = got[0]
    assert m == 2
    assert abs(r - 1.0) < 1e-8


def test_ambiguous_cluster_raises_with_both_candidates():
    # a pair inside the point-identity radius that the square-free analysis
    # keeps distinct: the merge threshold is forced below the separation, so
    # gcd says "two simple roots" while the identity radius says "one point".
    # The diagnostic must carry both readings instead of guessing.
    from dataclasses import replace

    from wlab.tolerances import Tolerances

    strict = replace(Tolerances(), eps_gcd=1e-20)
    p = Polynomial([0.0, -5e-9, 1.0])  # z (z - 5e-9), exact coefficients
    with pytest.raises(IllConditionedRootsError) as info:
        roots_with_multiplicity(p, strict)
    assert info.value.merged and info.value.separate
    (center, m), = info.value.merged
    assert m == 2 and abs(center - 2.5e-9) < 1e-8


def test_errors_on_constant_and_zero():
    with pytest.raises(ValueError):
        roots_with_multiplicity(Polynomial([1]))
    with pytest.raises(ValueError):
        roots_with_multiplicity(Polynomial())


def test_non_finite_roots_fail_the_cross_check(monkeypatch):
    # a check written as "x > bound" passes NaN; the cross-check must not
    p = Polynomial.from_roots([1.0, 2.0, 3j])
    monkeypatch.setattr(roots, "_aberth", lambda q: np.full(q.degree, np.nan + 0j))
    with pytest.raises(RootCrossCheckError) as info:
        roots_with_multiplicity(p)
    assert len(info.value.aberth) == 3
    assert not np.isfinite(info.value.aberth).any()


def test_unresolved_triple_roots_fail_the_cross_check_typed():
    w = parse_expression(TRIPLE_ROOTS_MAP).derivative_numerator()
    with pytest.raises(RootCrossCheckError) as info:
        roots_with_multiplicity(w)
    assert np.isfinite(info.value.aberth).all() and np.isfinite(info.value.companion).all()


def test_newton_polygon_start_is_finite_and_deterministic():
    w = parse_expression(TRIPLE_ROOTS_MAP).derivative_numerator()
    c = np.asarray(w.monic().coeffs, dtype=complex)
    start = roots._newton_polygon_start(c)
    assert len(start) == w.degree and np.isfinite(start).all()
    assert np.array_equal(start, roots._newton_polygon_start(c.copy()))
    # no two start points coincide
    assert len({complex(z) for z in start}) == w.degree


def test_start_radii_are_the_newton_polygon_radii():
    # root moduli 1e-3, 1 and 1e3, two roots each; the odd coefficients vanish
    p = Polynomial.from_roots([1e-3j, -1e-3j, 1.0, -1.0, 1e3j, -1e3j])
    c = np.asarray(p.monic().coeffs, dtype=complex)
    assert (c[1::2] == 0).all()
    # the hull vertices are k = 0, 2, 4, 6: one edge per modulus, two roots each
    hull = [(abs(c[i]) / abs(c[i + 2])) ** 0.5 for i in (0, 2, 4)]
    radii = np.abs(roots._newton_polygon_start(c))
    assert radii == pytest.approx(np.repeat(hull, 2), rel=1e-12)
    assert radii == pytest.approx([1e-3, 1e-3, 1.0, 1.0, 1e3, 1e3], rel=1e-5)


def test_root_at_zero_starts_and_stays_there():
    p = Polynomial.from_roots([0.0, 1j, -1j, 2.0])
    assert p.coeffs[0] == 0
    start = roots._newton_polygon_start(np.asarray(p.monic().coeffs, dtype=complex))
    assert start[0] == 0 and (start[1:] != 0).all()
    got = roots_with_multiplicity(p)
    assert (0j, 1) in got
    assert by_value(got) == {0j: 1, 1j: 1, -1j: 1, (2 + 0j): 1}


def _integer_poly(rng: random.Random, degree: int) -> list[int]:
    coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
    coeffs[-1] = coeffs[-1] or 1
    return coeffs


@pytest.mark.parametrize("degree", [24, 32, 48])
def test_generic_wronskian_has_2d_minus_2_simple_critical_points(degree):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(f"generic:{degree}")
    num, den = _integer_poly(rng, degree), _integer_poly(rng, degree)

    def text(coeffs):
        return " + ".join(f"({c})*z^{k}" for k, c in enumerate(coeffs))

    w = parse_expression(f"({text(num)})/({text(den)})").derivative_numerator()
    got = roots_with_multiplicity(w)
    assert len(got) == w.degree == 2 * degree - 2
    assert all(m == 1 for _, m in got)

    z = sympy.Symbol("z")
    n, d = (sympy.Poly(list(reversed(c)), z) for c in (num, den))
    exact = (n.diff(z) * d - n * d.diff(z))
    _, factors = exact.sqf_list()
    assert exact.degree() == 2 * degree - 2
    assert [m for _, m in factors] == [1]
