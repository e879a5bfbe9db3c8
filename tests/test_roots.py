from __future__ import annotations

import math
import random

import numpy as np
import pytest

from conftest import exact, from_roots
from test_ramification import PUNCTURE_POOL, assert_fibers_match_counting, random_map
from wlab import poly, roots
from wlab.exprparse import parse_expression, parse_sphere_point
from wlab.poly import P0, Exact, Polynomial, exact_exponent, exact_gcd, exact_mul, exact_pow, exact_primitive
from wlab.ramification import ramification_report
from wlab.rational import SpherePoint
from wlab.roots import IllConditionedRootsError, RootIsolationError, roots_with_multiplicity
from wlab.tolerances import Tolerances

# a degree-32 map A^4/B: each root of A is a triple root of its Wronskian,
# which float square-free layers missed
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
    got = by_value(roots_with_multiplicity(exact(p)))
    assert got == {(1 + 0j): 2, (-2 + 0j): 1}


def test_pair_of_simple_imaginary_roots():
    p = Polynomial([1, 0, 1])  # z^2 + 1
    got = roots_with_multiplicity(exact(p))
    assert sorted(m for _, m in got) == [1, 1]
    values = sorted(got, key=lambda t: t[0].imag)
    assert values[0][0] == pytest.approx(-1j, abs=1e-10)
    assert values[1][0] == pytest.approx(1j, abs=1e-10)


def test_quadruple_root_from_expanded_coefficients():
    # (z-5)^4 = z^4 - 20 z^3 + 150 z^2 - 500 z + 625 (binomial expansion)
    p = Polynomial([625, -500, 150, -20, 1])
    got = roots_with_multiplicity(exact(p))
    assert len(got) == 1
    r, m = got[0]
    assert m == 4
    assert r == pytest.approx(5.0, abs=1e-6)


def test_degree_one():
    p = Polynomial([3, 2])  # 2z + 3
    assert roots_with_multiplicity(exact(p)) == [(-1.5 + 0j, 1)]


def test_residual_bound_holds():
    rng = np.random.default_rng(7)
    for _ in range(25):
        deg = rng.integers(2, 9)
        roots = rng.normal(size=deg) + 1j * rng.normal(size=deg)
        p = from_roots(roots)
        for r, m in roots_with_multiplicity(exact(p)):
            bound = 1e-9 * p.max_abs_coeff * (1 + abs(r)) ** p.degree
            assert abs(p(r)) <= bound


def test_multiset_union_on_products():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ra = rng.normal(size=3) + 1j * rng.normal(size=3)
        rb = rng.normal(size=2) + 1j * rng.normal(size=2)
        p = Polynomial(np.convolve(from_roots(ra).coeffs, from_roots(rb).coeffs))
        got = roots_with_multiplicity(exact(p))
        expected = sorted(list(ra) + list(rb), key=lambda z: (z.real, z.imag))
        flat = sorted(
            [r for r, m in got for _ in range(m)], key=lambda z: (z.real, z.imag)
        )
        assert len(flat) == len(expected)
        for a, b in zip(flat, expected):
            assert abs(a - b) < 1e-7


def test_cluster_below_point_identity_raises_with_both_candidates():
    # separation far below eps_pt: the exact factors keep the roots apart,
    # where the float gcd chain read one double root.  Refined, the roots
    # lie 1e-9 apart, inside eps_pt as the 5e-9 pair below does, so they are
    # one point or two simple roots and the diagnostic carries both readings
    # (Aberth's unrefined roots, each about 1e-8 off, fell just beyond it)
    p = from_roots([1.0, 1.0 + 1e-9])
    with pytest.raises(IllConditionedRootsError) as info:
        roots_with_multiplicity(exact(p))
    assert [m for _r, m in info.value.separate] == [1, 1]
    assert all(abs(r - 1.0) < 1e-8 for r, _m in info.value.separate)
    # below the pair's separation, the identity radius keeps them apart
    got = roots_with_multiplicity(exact(p), Tolerances().scaled(1e-3))
    assert [r for r, _m in got] == [r for r, _m in info.value.separate]


def test_ambiguous_cluster_raises_with_both_candidates():
    # a pair inside the point-identity radius that the exact square-free
    # factors keep distinct: Yun says "two simple roots" while the identity
    # radius says "one point".  The diagnostic must carry both readings
    # instead of guessing.
    p = Polynomial([0.0, -5e-9, 1.0])  # z (z - 5e-9) at its binary values
    with pytest.raises(IllConditionedRootsError) as info:
        roots_with_multiplicity(exact(p))
    assert info.value.merged and info.value.separate
    (center, m), = info.value.merged
    assert m == 2 and abs(center - 2.5e-9) < 1e-8


def test_errors_on_constant_and_zero():
    with pytest.raises(ValueError):
        roots_with_multiplicity(((1, 0),))
    with pytest.raises(ValueError):
        roots_with_multiplicity(())


def test_non_finite_roots_fail_the_cross_check(monkeypatch):
    # a check written as "x > bound" passes NaN; the disc test must not
    p = from_roots([1.0, 2.0, 3j])
    monkeypatch.setattr(roots, "_aberth", lambda q: np.full(q.degree, np.nan + 0j))
    with pytest.raises(RootIsolationError) as info:
        roots_with_multiplicity(exact(p))
    assert len(info.value.roots) == len(info.value.radii) == 3
    assert not np.isfinite(info.value.roots).any()


def test_triple_roots_of_a_degree_32_wronskian_are_exact():
    sympy = pytest.importorskip("sympy")
    w = parse_expression(TRIPLE_ROOTS_MAP).derivative_numerator()
    got = roots_with_multiplicity(w)
    assert sum(m for _r, m in got) == len(w) - 1
    base = TRIPLE_ROOTS_MAP[1 : TRIPLE_ROOTS_MAP.index(")^4")].replace("^", "**")
    exact_roots = [complex(r) for r in sympy.Poly(sympy.sympify(base)).nroots(n=30)]
    triples = [r for r, m in got if m == 3]
    assert len(triples) == len(exact_roots) == 8
    for r in triples:
        assert min(abs(r - x) for x in exact_roots) < 1e-11


def test_newton_polygon_start_is_finite_and_deterministic():
    w = parse_expression(TRIPLE_ROOTS_MAP).derivative_numerator()
    c = np.asarray(roots._monic_view(w).coeffs, dtype=complex)
    start = roots._newton_polygon_start(c)
    assert len(start) == len(w) - 1 and np.isfinite(start).all()
    assert np.array_equal(start, roots._newton_polygon_start(c.copy()))
    # no two start points coincide
    assert len({complex(z) for z in start}) == len(w) - 1


def test_start_radii_are_the_newton_polygon_radii():
    # root moduli 1e-3, 1 and 1e3, two roots each; the odd coefficients vanish
    p = from_roots([1e-3j, -1e-3j, 1.0, -1.0, 1e3j, -1e3j])
    c = np.asarray(p.coeffs, dtype=complex)
    assert (c[1::2] == 0).all()
    # the hull vertices are k = 0, 2, 4, 6: one edge per modulus, two roots each
    hull = [(abs(c[i]) / abs(c[i + 2])) ** 0.5 for i in (0, 2, 4)]
    radii = np.abs(roots._newton_polygon_start(c))
    assert radii == pytest.approx(np.repeat(hull, 2), rel=1e-12)
    assert radii == pytest.approx([1e-3, 1e-3, 1.0, 1.0, 1e3, 1e3], rel=1e-5)


def test_root_at_zero_starts_and_stays_there():
    p = from_roots([0.0, 1j, -1j, 2.0])
    assert p.coeffs[0] == 0
    start = roots._newton_polygon_start(np.asarray(p.coeffs, dtype=complex))
    assert start[0] == 0 and (start[1:] != 0).all()
    got = roots_with_multiplicity(exact(p))
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
    assert len(got) == len(w) - 1 == 2 * degree - 2
    assert all(m == 1 for _, m in got)

    z = sympy.Symbol("z")
    n, d = (sympy.Poly(list(reversed(c)), z) for c in (num, den))
    exact = (n.diff(z) * d - n * d.diff(z))
    _, factors = exact.sqf_list()
    assert exact.degree() == 2 * degree - 2
    assert [m for _, m in factors] == [1]


def test_each_yun_factor_is_located_once(record_calls):
    # (z-1)^3 (z+2)^2 (z-i), expanded: the factors z+2, z-1 and z-i hold
    # three distinct roots, and no deeper layer is root-found again
    located = record_calls(roots, "_located_roots")
    p = from_roots([1, 1, 1, -2, -2, 1j])
    got = by_value(roots_with_multiplicity(exact(p)))
    assert got == {(1 + 0j): 3, (-2 + 0j): 2, 1j: 1}
    assert sum(len(f) - 1 for (f,) in located) == 3


def test_a_linear_factor_reads_its_root_off_the_monic_view(record_calls):
    # (z - 1)^2 (z + 2)^3: both Yun factors are linear, and a lone root
    # meets no other disc, so no Aberth step and no bound is taken
    aberth, evaluated = record_calls(roots, "_aberth"), record_calls(poly, "block_values")
    got = roots_with_multiplicity(exact(from_roots([1, 1, -2, -2, -2])))
    assert got == [(-2, 3), (1, 2)] and all(len(r.factor) == 2 for r, _m in got)
    # the bound overflows at 1e308, where the disc test refused a root a double holds
    assert roots_with_multiplicity(((-10**308, 0), (1, 0))) == [(1e308, 1)]
    # -c0 / c1 of the correctly rounded monic view: 1/3 rounded once
    assert roots_with_multiplicity(((-1, 0), (3, 0))) == [(1 / 3, 1)]
    assert not aberth and not evaluated


def test_exponents_of_gaussian_integer_products_are_recovered():
    # the invariant the runtime no longer checks: multiplicities sum to deg p
    rng = random.Random("yun-products")
    grid = [complex(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for _ in range(60):
        exponents: dict[complex, int] = {}
        for r in rng.sample(grid, rng.randint(1, 5)):
            m = rng.randint(1, 3)
            if sum(exponents.values()) + m <= 9:
                exponents[r] = m
        p = from_roots([r for r, m in exponents.items() for _ in range(m)])
        got = roots_with_multiplicity(exact(p))
        assert sum(m for _, m in got) == p.degree
        assert by_value(got) == exponents
        assert got == sorted(got, key=lambda rm: (rm[0].real, rm[0].imag))


def test_multiple_roots_sit_on_their_30_digit_positions():
    sympy = pytest.importorskip("sympy")
    base = "-8*z^4 + 2*z^3 - 4*z^2 + 7*z - 9"
    den = (
        "-5*z^16 - 6*z^15 + 9*z^14 + 5*z^13 + 3*z^12 - z^11 - 4*z^10 + 2*z^9 + z^8"
        " + 4*z^7 + 6*z^6 + 2*z^4 + 8*z^3 - 9*z^2 - 7*z - 9"
    )
    report = ramification_report(parse_expression(f"({base})^4/({den})"), ("inf",))
    (zero,) = [v for v in report.values if v.value.close_to(SpherePoint(0j), 1e-9)]
    exact = [complex(r) for r in sympy.Poly(sympy.sympify(base.replace("^", "**"))).nroots(n=30)]
    assert len(zero.preimages) == len(exact) == 4
    for pre in zero.preimages:
        assert pre.multiplicity == 4
        assert min(abs(pre.point.value - r) for r in exact) < 1e-9


def _gaussian_poly(rng: random.Random, degree: int) -> Exact:
    coeffs = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(degree)]
    return tuple(coeffs) + ((rng.choice([-2, -1, 1, 3]), rng.randint(-2, 2)),)


def _certified(p: Exact, remainders: list) -> bool:
    """Whether ``multiple_part(p)`` is decided by the modular certificate:
    no pseudo-remainder is taken (``remainders`` records them)."""
    before = len(remainders)
    roots.multiple_part(p)
    return len(remainders) == before


def test_square_free_certificate_agrees_with_the_exact_chain(monkeypatch, record_calls):
    rng = random.Random("certificate")
    products = []
    for _ in range(80):
        p = ((1, 0),)
        for _ in range(rng.randint(1, 3)):
            p = exact_mul(p, exact_pow(_gaussian_poly(rng, rng.randint(1, 4)), rng.choice([1, 1, 2, 3])))
        products.append(p)
    remainders = record_calls(poly, "pseudo_divmod")
    verdicts = [_certified(p, remainders) for p in products]
    # the exact chain alone: the certificate never succeeds
    monkeypatch.setattr(poly, "mod_p_gcd_degree", lambda a, b: 1)
    for p, certified in zip(products, verdicts):
        factors = roots._yun_factors(p)
        assert sum(m * (len(f) - 1) for m, f in enumerate(factors, start=1)) == len(p) - 1
        assert certified == all(len(f) == 1 for f in factors[1:])
    # both answers occur
    assert 10 <= sum(verdicts) <= 70


@pytest.mark.parametrize(
    "p, expected",
    [
        # z (z - P0): square-free over Q(i), but z^2 mod P0
        (((0, 0), (-P0, 0), (1, 0)), {0j: 1, complex(P0): 1}),
        # P0 (z - 1)^2 (z + 1): the leading coefficient vanishes mod P0
        (exact_mul(((P0, 0),), ((1, 0), (-1, 0), (-1, 0), (1, 0))), {(-1 + 0j): 1, (1 + 0j): 2}),
        # (P0 z - 1)(z - 2): square-free, with P0 | lc
        (exact_mul(((-1, 0), (P0, 0)), ((-2, 0), (1, 0))), {complex(1 / P0): 1, (2 + 0j): 1}),
    ],
)
def test_what_the_certificate_cannot_certify_falls_through_to_the_chain(p, expected, record_calls):
    # expected: root -> multiplicity, in the (re, im) order of the result
    assert not _certified(p, record_calls(poly, "pseudo_divmod"))
    got = roots_with_multiplicity(p)
    assert [m for _r, m in got] == list(expected.values())
    for (r, _m), want in zip(got, expected):
        assert r == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_wronskian_roots_of_a_tiny_imaginary_term_match_mpmath():
    # one root lies near 1.5e8 i, where the float square-free layers left a
    # remainder and raised
    mpmath = pytest.importorskip("mpmath")
    w = parse_expression("(1+1e-8i*z)/(1+1.5*z+z^2+0.25*z^3)").derivative_numerator()
    got = roots_with_multiplicity(w)
    with mpmath.workdps(50):
        coeffs = [mpmath.mpc(x, y) for x, y in reversed(w)]
        exact_roots = [complex(r) for r in mpmath.polyroots(coeffs, maxsteps=500, extraprec=200)]
    assert [m for _r, m in got] == [1] * len(exact_roots) == [1] * 3
    assert max(abs(r.imag) for r, _m in got) > 1e8
    for r, _m in got:
        assert min(abs(r - x) / abs(x) for x in exact_roots) < 1e-12


def test_gcd_free_basis_factors_every_input_with_one_order_per_piece():
    # random products of Gaussian-integer linear factors: the pieces are
    # pairwise coprime and square-free, each input is a constant times a
    # product of their powers, the exponents recorded are exact_exponent's,
    # and each root of a piece has the piece's exponent as its multiplicity
    # in every input
    rng = random.Random("gcd-free-basis")
    grid = [complex(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    for _ in range(40):
        inputs = []
        for _k in range(rng.randint(1, 4)):
            chosen = rng.sample(grid, rng.randint(1, 4))
            inputs.append([r for r in chosen for _ in range(rng.randint(1, 3))])
        basis = roots.gcd_free_basis([exact(from_roots(rs)) for rs in inputs])
        located = [[r for r, _m in roots_with_multiplicity(piece)] for piece in basis]
        pieces = list(basis)
        for i, piece in enumerate(pieces):
            assert exact_primitive(piece) == piece
            assert all(m == 1 for _r, m in roots_with_multiplicity(piece))
            for other in pieces[i + 1 :]:
                assert len(exact_gcd(piece, other)) == 1
        for j, rs in enumerate(inputs):
            p = exact(from_roots(rs))
            orders = [e[j] for e in basis.values()]
            assert orders == [exact_exponent(p, piece) for piece in pieces]
            assert sum(e * (len(piece) - 1) for e, piece in zip(orders, basis)) == len(p) - 1
            for e, points in zip(orders, located):
                for r in points:
                    assert e == sum(1 for x in rs if abs(x - r) < 1e-9)


def test_a_linear_input_that_enters_first_stays_its_own_piece():
    # (3z - 1)^2 z (z - 2)(z - 5i), exact: the puncture-like lines 3z - 1 and
    # z keep their places, and the rest is one piece, after them
    lines = [exact_primitive(((-1, 0), (3, 0))), ((0, 0), (1, 0))]
    rest = exact_mul(((-2, 0), (1, 0)), ((0, -5), (1, 0)))
    other = exact_mul(exact_mul(exact_pow(lines[0], 2), lines[1]), rest)
    basis = roots.gcd_free_basis([*lines, other, other])
    pieces = list(basis)
    assert pieces[:2] == lines
    assert len(pieces) == 3 and len(exact_gcd(pieces[2], rest)) == 3
    assert list(basis.values()) == [[1, 0, 2, 2], [0, 1, 1, 1], [0, 0, 1, 1]]


def test_multiple_part_holds_each_multiple_root_once_less():
    p = exact(from_roots([1, 1, 1, -2, -2, 1j]))
    got = by_value(roots_with_multiplicity(roots.multiple_part(p)))
    assert got == {(1 + 0j): 2, (-2 + 0j): 1}
    assert roots.multiple_part(exact(from_roots([1, 2, 3]))) == ((1, 0),)


def _ladder_map(rng: random.Random, degree: int, power: int) -> str:
    """A random integer map A^power / B of the given degree, A of degree degree / power."""

    def text(coeffs):
        return " + ".join(f"({c})*z^{k}" for k, c in enumerate(coeffs))

    return f"({text(_integer_poly(rng, degree // power))})^{power}/({text(_integer_poly(rng, degree))})"


def assert_one_50_digit_root_per_disc(f: Exact, centres, radii) -> None:
    """Each disc about the centres holds exactly one of mpmath's 50-digit roots of the exact f.

    The iteration starts from the companion matrix's eigenvalues, which
    shortens it on near-double roots from hundreds of steps to a few; where
    that start does not converge, from mpmath's own.
    """
    mpmath = pytest.importorskip("mpmath")
    assert len(centres) == len(radii) == len(f) - 1
    start = np.roots([complex(x, y) for x, y in reversed(f)])
    with mpmath.workdps(50):
        coeffs = [mpmath.mpc(x, y) for x, y in reversed(f)]
        try:
            exact_roots = mpmath.polyroots(
                coeffs, maxsteps=400, extraprec=200, roots_init=[mpmath.mpc(z.real, z.imag) for z in start]
            )
        except mpmath.libmp.NoConvergence:
            exact_roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=200)
        for z, r in zip(centres, radii):
            centre = mpmath.mpc(z.real, z.imag)
            assert sum(1 for x in exact_roots if abs(x - centre) <= r) == 1, (f, z, r)


@pytest.mark.parametrize("power", [1, 2, 3])
def test_every_inclusion_disc_holds_one_50_digit_root(power):
    # the discs of each Yun factor of a Wronskian, against mpmath's roots of
    # the exact factor: each disc holds exactly one of them, so none is left out
    rng = random.Random(f"discs:{power}")
    for degree in (6, 12, 18):
        w = parse_expression(_ladder_map(rng, degree, power)).derivative_numerator()
        for f in roots._yun_factors(w):
            if len(f) < 2:
                continue
            view = roots._monic_view(f)
            located = roots._aberth(view)
            bound = poly.block_values(poly.coefficient_blocks((view.coeffs,)), located, bound=True)[1]
            radii, clash = roots._disc_radii(located, bound)
            assert not clash.any()
            assert_one_50_digit_root_per_disc(f, located, radii)


def test_every_refined_disc_holds_one_50_digit_root(record_calls):
    # the factors whose double discs overlap: the 1e-9 pair, and the
    # near-double fibre factors of N - aD for a float critical value a that
    # test_random_fibers_match_counting locates on its first 80 maps
    refined = record_calls(roots, "_refined_roots")
    with pytest.raises(IllConditionedRootsError):
        roots_with_multiplicity(exact(from_roots([1.0, 1.0 + 1e-9])))
    rng = np.random.default_rng(2026)
    for k in range(80):
        f = random_map(rng, k % 4)
        names = rng.choice(PUNCTURE_POOL, size=int(rng.integers(0, 6)), replace=False)
        if not f.is_constant:
            try:
                assert_fibers_match_counting(f, tuple(parse_sphere_point(str(p)) for p in names))
            except RootIsolationError:
                pass
    factors = {q: (z, bound) for q, z, bound in refined}
    assert len(factors) >= 200
    for q, (z, bound) in factors.items():
        centres, radii = roots._refined_roots(q, z, bound)
        assert_one_50_digit_root_per_disc(q, centres, radii)


def test_only_overlapping_discs_take_the_refinement(record_calls):
    # disjoint double discs certify Aberth's roots, on every Wronskian of a
    # ladder map A^power / B up to degree 64; the 1e-9 pair's discs overlap
    # in doubles, and only that factor is refined
    refined = record_calls(roots, "_refined_roots")
    roots_with_multiplicity(exact(from_roots([1, 1, 1, -2, -2, 1j])))
    roots_with_multiplicity(parse_expression(_ladder_map(random.Random("companion"), 20, 1)).derivative_numerator())
    rng = random.Random("fast path")
    for degree in (4, 8, 12, 16, 20, 24, 32, 48, 64):
        for power in (1, 2, 3):
            roots_with_multiplicity(parse_expression(_ladder_map(rng, degree, power)).derivative_numerator())
    assert refined == []
    p = exact(from_roots([1.0, 1.0 + 1e-9]))
    roots_with_multiplicity(p, Tolerances().scaled(1e-3))
    assert [q for q, _z, _bound in refined] == [exact_primitive(p)]


def test_roots_closer_than_two_doubles_hold_apart_raise_with_their_discs():
    # 2^254 (-(z - 2)(z - 1)^2 (2z^3 + 2z^2 - z - 2)) + i: the double root 1
    # splits into 1 +- 4.2e-39 (1 - i), which no two doubles resolve; the
    # companion cross-check once passed a pair up to 3e-8 from them
    p = tuple((c << 254, 0) for c in (-4, 8, 1, -8, -1, 6, -2))
    p = ((p[0][0], 1),) + p[1:]
    with pytest.raises(RootIsolationError) as info:
        roots_with_multiplicity(p)
    assert len(info.value.roots) == len(info.value.radii) == 6
    near = [(z, r) for z, r in zip(info.value.roots, info.value.radii) if abs(z - 1) < 1e-6]
    assert len(near) == 2
    (a, ra), (b, rb) = near
    assert abs(a - b) <= ra + rb


@pytest.mark.parametrize("n", [1, 2, 4, 38, 63, 64, 65, 127, 128, 129, 254])
def test_values_and_slopes_match_50_digit_evaluation(n):
    # poly.block_values on the rows of p and p': each term c_j z^j passes
    # through at most P = n + b + k complex products (the powers, the
    # coefficient, j c_j for p', and z^b with the product by it at each Horner
    # level), each within 3u of exact (Higham, Lemma 3.5), and A = b + k sums,
    # each within u; so |computed - p(z)| <= gamma_(3P + A) sum_j |c_j| |z|^j,
    # and likewise for p' with the coefficients j c_j
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(n)
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    z = rng.choice([0.3, 0.9, 1.0, 1.1, 1.4], size=24) * np.exp(2j * np.pi * rng.random(24))
    blocks = poly.coefficient_blocks((c, c[1:] * np.arange(1, n + 1)))
    _, k, b = blocks.shape
    assert b == min(n + 1, 64)  # the power table has at most 64 rows
    m = 3 * (n + b + k) + b + k
    gamma = m * poly._U / (1 - m * poly._U)
    values, slopes = poly.block_values(blocks, z)
    with mpmath.workdps(50):
        coeffs = [mpmath.mpc(x) for x in c[::-1]]
        for x, value, slope in zip(z, values, slopes):
            exact_value, exact_slope = mpmath.polyval(coeffs, mpmath.mpc(x), derivative=True)
            size = sum(abs(cj) * abs(x) ** j for j, cj in enumerate(c))
            slope_size = sum(j * abs(cj) * abs(x) ** (j - 1) for j, cj in enumerate(c) if j)
            assert abs(value - exact_value) <= gamma * size, (n, x)
            assert abs(slope - exact_slope) <= gamma * slope_size, (n, x)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 63, 64, 65, 130])
def test_the_value_bound_holds_at_50_digits_even_where_the_value_cancels(n):
    # q = prod (z - r_j), r_j = (a_j + b_j i) / 20, is exact over Q(i); the
    # bound from its correctly rounded monic view covers |q(z)| at 50 digits
    # at random points, at points 1e-10 from a root, and at each root rounded
    # to a double, where the computed value is mostly rounding error
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(f"bound:{n}")
    parts = [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(n)]
    f = ((1, 0),)
    for a, b in parts:
        f = exact_mul(f, ((-a, -b), (20, 0)))
    at_roots = [complex(a / 20, b / 20) for a, b in parts]
    near = [r + 1e-10 * complex(math.cos(t), math.sin(t)) for r, t in zip(at_roots, range(n))]
    far = [complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(8)]
    z = np.array(near + at_roots + far)
    values, bound = poly.block_values(poly.coefficient_blocks((roots._monic_view(f).coeffs,)), z, bound=True)
    short = 0
    with mpmath.workdps(50):
        exact_roots = [mpmath.mpc(mpmath.mpf(a) / 20, mpmath.mpf(b) / 20) for a, b in parts]
        for x, value, upper in zip(z.tolist(), values[0].tolist(), bound.tolist()):
            exact_value = abs(mpmath.fprod(mpmath.mpc(x) - r for r in exact_roots))
            assert upper >= exact_value, (n, x, upper, exact_value)
            short += abs(value) < exact_value
    assert short  # the computed value alone falls short of |q(z)| somewhere
