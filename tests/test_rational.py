from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

import oracle
from conftest import from_roots
from wlab import poly
from wlab.exprparse import as_sphere_point, parse_expression, parse_sphere_point
from wlab.analysis import Analysis
from wlab.poly import Polynomial, exact_add, exact_cofactors, exact_exponent, exact_mul
from wlab.rational import INF, RationalFunction, SpherePoint
from wlab.roots import roots_with_multiplicity
from wlab.weierstrass import WeierstrassData

Z = RationalFunction.variable()


def test_reduction_and_monic_denominator():
    f = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-2, 2]))  # (z^2-1)/(2z-2)
    assert f.den.coeffs == (1 + 0j,)  # cancelled to (z+1)/2 -> monic den 1
    assert f.num.coeffs == (0.5 + 0j, 0.5 + 0j)


@pytest.mark.parametrize(
    "num, den, degree",
    [
        # the float gcd raised GcdBreakdownError on the first (Hypothesis
        # found it) and ExactDivisionError on the second
        ([0.5j, 1e-10j], [1, 1, 1.5], 2),
        ([0j, 1.5, 1e-9], [1, 1, 1, 1], 3),
    ],
)
def test_near_common_factors_are_not_cancelled(num, den, degree):
    f = RationalFunction(Polynomial(num), Polynomial(den))
    assert f.degree == degree
    assert f == RationalFunction(Polynomial(num)) / RationalFunction(Polynomial(den))


def test_exact_cancellation_of_a_gaussian_common_factor():
    common = (Z - 1j) ** 3 * (2 * Z + 0.5)
    f = common * (Z + 3) / (common * (Z**2 - 1j))
    assert f == (Z + 3) / (Z**2 - 1j)
    assert f.num.coeffs == (3 + 0j, 1 + 0j) and f.den.coeffs == (-1j, 0j, 1 + 0j)


def test_a_coefficient_below_the_least_double_rounds_to_zero():
    # 5e-324 / 2 is exactly half the least subnormal: its view rounds to 0
    f = RationalFunction(Polynomial([5e-324]), Polynomial([2]))
    assert f.num.coeffs == () and f != RationalFunction.constant(0)
    g = RationalFunction(Polynomial([1, 0, 5e-324]), Polynomial([2]))
    assert g.num.coeffs == (0.5 + 0j,)


def test_equal_functions_are_equal_and_hash_alike():
    f, g = (Z**2 - 1) / (2 * Z - 2), Z / 2 + 0.5
    assert f == g and hash(f) == hash(g) and len({f, g}) == 1
    assert f != g + 1e-300


def test_full_cancellation_gives_constant():
    f = RationalFunction(Polynomial([-1, 0, 1]), Polynomial([-1, 0, 1]))
    assert f.is_constant
    assert f.constant_value == pytest.approx(1.0)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Polynomial([1]), Polynomial())


def test_map_degree():
    assert Z.degree == 1
    assert (1 / Z).degree == 1
    assert ((Z**2 + 1) / (Z - 1)).degree == 2
    assert RationalFunction.constant(4).degree == 0


def test_order_at_examples():
    assert oracle.order(Z, INF) == -1  # simple pole of the identity map
    f = 1 / Z**3
    assert oracle.order(f, SpherePoint(0j)) == -3
    g = (Z - 1) ** 2 / (Z + 2)
    assert oracle.order(g, SpherePoint(1.0)) == 2
    assert oracle.order(g, SpherePoint(-2.0)) == -1
    assert oracle.order(g, SpherePoint(5.0)) == 0


def test_order_invariant_under_common_factor():
    # z (z - 4)(z + 2i) / ((z - 1)(z - 4)(z + 2i))
    f = RationalFunction(from_roots([0, 4, -2j]), from_roots([1, 4, -2j]))
    g = RationalFunction(Polynomial([0, 1]), from_roots([1]))
    assert f.pair == g.pair


def test_form_order_at_infinity():
    def form_order(h: RationalFunction, puncture: str) -> int:
        # ord(h dz) at the one puncture of the data set (h dz, z, z)
        an = Analysis(WeierstrassData(h=h, g1=Z, g2=Z, punctures=(puncture,)))
        return an.orders_at(an.data.punctures[0])[0]

    # f dz with f = 1/z^3: substitute z = 1/w, dz = -dw/w^2 -> -w dw
    assert form_order(1 / Z**3, "inf") == 1
    # dz itself has a double pole at infinity
    assert form_order(RationalFunction.constant(1), "inf") == -2
    f = 1 / ((Z - 1) * (Z - 2) * (Z - 3))
    assert form_order(f, "inf") == 1
    # finite points agree with plain order
    assert form_order(f, "1") == -1


def test_residues_partial_fractions():
    # 1/(z(z-1)) = -1/z + 1/(z-1)
    f = 1 / (Z * (Z - 1))
    assert f.residue_at(0j) == pytest.approx(-1.0)
    assert f.residue_at(1.0) == pytest.approx(1.0)
    assert f.residue_at(5.0) == 0


def test_residue_no_inverse_power_term():
    assert (1 / Z**3).residue_at(0j) == pytest.approx(0.0)


@pytest.mark.parametrize("text", ["1/z^4", "(z^2+1)/z^4"])
def test_residue_of_a_fourth_order_pole_is_exactly_zero(text):
    # the root of z^4 is the exact start point 0, and the Laurent route
    # reads the t^3 coefficient of a Taylor quotient with no t^3 term
    assert parse_expression(text).residue_at(0) == 0j


def test_residue_higher_order_pole():
    # f = (z^2+1)/(z-2)^3; residue at 2 is the z^2 Taylor coefficient: 1
    f = (Z**2 + 1) / (Z - 2) ** 3
    assert f.residue_at(2.0) == pytest.approx(1.0)


def test_residue_at_infinity_balances():
    f = (Z**2 + 3) / (Z - 1)
    finite = f.residue_at(1.0)
    at_inf = f.residue_at(INF)
    assert finite + at_inf == pytest.approx(0.0, abs=1e-10)


# The item-2 triple of the ROADMAP: h, g1, g2 with punctures inf, 0, 1.
TRIPLE_H = (-(Z**2) - 2 * Z + 1) / (Z**3 - Z**2 + 2 * Z - 1)
TRIPLE_G1 = -(Z**3) + Z**2 - 2 * Z + 3
TRIPLE_G2 = (-2 * Z**2 - 2) / (Z - 1)


def test_residues_at_infinity_of_the_triple_forms_are_exact():
    from wlab.weierstrass import WeierstrassData, phi_from_data

    data = WeierstrassData(h=TRIPLE_H, g1=TRIPLE_G1, g2=TRIPLE_G2, punctures=("inf", "0", "1"))
    residues = [f.residue_at(INF) for f in phi_from_data(data).forms]
    # exact values from sympy
    assert residues == pytest.approx([-3.5, 4.5j, 5, 3j], rel=1e-15, abs=0)


def test_residue_at_infinity_of_a_polynomial_part():
    # z^5/((z-1)(z-3)): finite residues -1/2 and 243/2, so -121 at infinity
    f = Z**5 / ((Z - 1) * (Z - 3))
    assert f.residue_at(INF) == pytest.approx(-121, rel=1e-15, abs=0)


def test_residue_at_a_triple_pole_is_exact():
    # 1/((z-1)(z-2)) = 1/2 + 3z/4 + 7z^2/8 + ...
    f = 1 / (Z**3 * (Z - 1) * (Z - 2))
    assert f.residue_at(0j) == pytest.approx(0.875, rel=1e-15, abs=0)


def test_local_numbers_run_no_gcd(monkeypatch):
    import wlab.poly
    import wlab.rational

    at_inf = Z**5 / ((Z - 1) * (Z - 3))
    triple = 1 / (Z**3 * (Z - 1) * (Z - 2))
    calls = []

    def counting(name):
        def call(*args):
            calls.append(args)
            return getattr(wlab.poly, name)(*args)

        return call

    # a sum reduces through exact_gcd, every other operation through exact_cofactors
    for name in ("exact_cofactors", "exact_gcd"):
        monkeypatch.setattr(wlab.rational, name, counting(name))
    at_inf.residue_at(INF)
    triple.residue_at(0j)
    assert calls == []


def test_global_residue_sum_random():
    # poles drawn as Gaussian-rational literals, so every residue is exact:
    # by the residue theorem the finite ones and the one at infinity sum to
    # exactly 0 over Q(i)
    rng = np.random.default_rng(3)
    for _ in range(40):
        num = tuple((int(x), int(y)) for x, y in rng.integers(-9, 10, size=(int(rng.integers(1, 6)), 2)))
        if not any(x or y for x, y in num):
            continue
        poles = [
            SpherePoint.literal(Fraction(int(x) - 4, int(q)), Fraction(int(y) - 4, int(q)))
            for x, y, q in rng.integers(1, 8, size=(int(rng.integers(1, 5)), 3))
        ]
        den = ((1, 0),)
        for p in poles:
            den = exact_mul(den, p.factor)
        f = RationalFunction.of_exact(num, den)
        total = [Fraction(0), Fraction(0)]
        for r in [*(f.residue_at(p) for p in set(poles)), f.residue_at(INF)]:
            u, v, w = r.exact
            total[0] += Fraction(u, w)
            total[1] += Fraction(v, w)
        assert total == [0, 0], (num, poles)


def _sum_by_one_gcd(f: RationalFunction, g: RationalFunction, sign: int) -> RationalFunction:
    """(a d + sign c b) / (b d), reduced by one gcd of the whole pair."""
    (a, b), (c, d) = f._pair, g._pair
    num = exact_add(exact_mul(a, d), exact_mul(c, exact_mul(b, ((sign, 0),))))
    return RationalFunction._of(*exact_cofactors(num, exact_mul(b, d)))


def _gaussian_poly(rng: random.Random, degree: int) -> RationalFunction:
    coeffs = [complex(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(degree)]
    return RationalFunction(Polynomial([*coeffs, complex(rng.choice([1, -2, 3]), rng.randint(-2, 2))]))


def test_henrici_sums_equal_the_sum_reduced_by_one_gcd():
    # the canonical pair is unique, so both routes give the same exact pair;
    # the draws share factors between the denominators (g = gcd(b, d)) and
    # cancel a shared pole outright (then t and g share a factor too)
    rng = random.Random(20261019)
    shared_factors = 0
    for _ in range(150):
        common = _gaussian_poly(rng, rng.randint(0, 2)) * Z ** rng.randint(0, 3)
        f = _gaussian_poly(rng, rng.randint(0, 3)) / (common * _gaussian_poly(rng, rng.randint(0, 2)))
        g = _gaussian_poly(rng, rng.randint(0, 3)) / (common * _gaussian_poly(rng, rng.randint(0, 2)))
        pole = _gaussian_poly(rng, rng.randint(0, 2)) / common**2
        for x, y in ((f, g), (f + pole, g - pole), (f, -f), (f, g * 0)):
            for sign, got in ((1, x + y), (-1, x - y)):
                assert got._pair == _sum_by_one_gcd(x, y, sign)._pair
        shared_factors += common.degree > 0
    assert shared_factors > 100


def test_difference_cancels_to_zero():
    f = Z / (Z - 1)
    assert (f - f).is_zero


def test_value_at_sphere():
    f = (Z - 1) ** 2 / (Z + 2)
    assert f.value_at_sphere(1.0) == SpherePoint(0j)
    assert f.value_at_sphere(-2.0) == INF
    assert f.value_at_sphere(INF) == INF  # deg num > deg den
    g = 1 / (Z * (Z - 1))
    assert g.value_at_sphere(INF) == SpherePoint(0j)
    h = (2 * Z + 1) / (Z - 5)
    assert h.value_at_sphere(INF) == SpherePoint(2 + 0j)


def test_order_and_value_at_infinity_are_read_off_the_exact_pair(record_calls):
    # 1e-600 z^2: the numerator's view rounds to 0, the exact pair does not
    f = parse_expression("(1e-300*z)^2")
    rounded = record_calls(poly, "rounded")
    assert oracle.order(f, INF) == -2 and f.value_at_sphere(INF) == INF
    h = parse_expression("(1e-300*z)^2/(z^3+1)")
    assert oracle.order(h, INF) == 1 and h.value_at_sphere(INF) == SpherePoint(0j)
    g = parse_expression("(1e-300*z^2 + 1)/(3*z^2 + z)")
    assert oracle.order(g, INF) == 0 and g.value_at_sphere(INF).value == complex(Fraction(1, 3 * 10**300))
    assert not rounded  # no view was built
    assert f.num.coeffs == () and f.degrees == (2, 0)


def test_pow_negative():
    f = Z**-2
    assert f == 1 / Z**2


def test_sphere_point_identity():
    assert SpherePoint(1 + 0j).close_to(SpherePoint(1 + 1e-10), 1e-8)
    assert not SpherePoint(1 + 0j).close_to(INF, 1e-8)
    assert INF.close_to(INF, 1e-8)
    assert SpherePoint.of("inf") is INF or SpherePoint.of("inf") == INF


@pytest.mark.parametrize("im", [0.8982697572, -0.8982697572])
def test_sort_key_orders_by_printed_re_then_im(im):
    # a conjugate pair whose real parts differ by one ulp: the order is set
    # by the imaginary parts, whichever point has the larger real part
    re = 0.05394226018119466
    pair = [SpherePoint(complex(re, im)), SpherePoint(complex(np.nextafter(re, 1.0), -im))]
    ordered = sorted(pair, key=SpherePoint.sort_key)
    assert [p.value.imag for p in ordered] == [-0.8982697572, 0.8982697572]
    assert sorted([INF, *pair], key=SpherePoint.sort_key)[-1] == INF


def test_a_parsed_point_keeps_its_exact_factor_out_of_equality():
    third = parse_sphere_point("1/3")
    assert third.factor == ((-1, 0), (3, 0))
    assert third == SpherePoint(1 / 3) and hash(third) == hash(SpherePoint(1 / 3))
    # a float is the literal it prints as, which is not 1/3
    assert SpherePoint(1 / 3).factor is None
    assert SpherePoint(1 / 3).exact_factor == ((-3333333333333333, 0), (10**16, 0))
    assert parse_sphere_point("(1+i)/2").factor == ((1, 0), (-1, 1))
    # a library float and the CLI's JSON number read alike: 0.1 is 1/10
    assert as_sphere_point(0.1).factor == parse_sphere_point(str(0.1)).factor == ((-1, 0), (10, 0))
    assert as_sphere_point(complex(0.1, -2.5)).factor == parse_sphere_point("0.1-2.5i").factor


def test_orders_at_a_located_root_are_read_off_its_yun_factor():
    # no double is 1/3, but its located root carries the Yun factor 3z - 1
    # it came from, as -i and i carry z^2 + 1
    f = parse_expression("(z-2)/((3*z-1)^2*(z^2+1))")
    located = roots_with_multiplicity(f.pair[1])
    quadratic, line = ((1, 0), (0, 0), (1, 0)), ((-1, 0), (3, 0))
    assert [(m, r.factor) for r, m in located] == [(1, quadratic), (1, quadratic), (2, line)]
    for r, m in located:
        assert oracle.order(f, SpherePoint(r)) == -m and exact_exponent(f.pair[1], r.factor) == m
        assert f.value_at_sphere(r) == INF
    # a principal part is exact at the root of 3z - 1, and refused at a pole
    # on the quadratic factor, where it could only be read off the floats
    assert len(f.principal_part_at(located[2][0])) == 2
    for r, _m in located[:2]:
        with pytest.raises(ArithmeticError, match="degree-2 factor has no exact principal part"):
            f.principal_part_at(r)
    (zero, _m), = roots_with_multiplicity(f.pair[0])
    assert oracle.order(f, SpherePoint(zero)) == 1 and f.value_at_sphere(zero) == SpherePoint(0j)
    # the same float without its factor is the literal it prints as, and
    # that number is no pole
    r = complex(located[2][0])
    assert oracle.order(f, SpherePoint(r)) == 0 and f.residue_at(r) == 0j
    # a root located from another polynomial, whose factor's roots have
    # different orders in g, has no order read off that factor
    g = parse_expression("1/(z-2)")
    two, three = (r for r, _m in roots_with_multiplicity(parse_expression("(z-2)*(z-3)").pair[0]))
    for r in (two, three):
        with pytest.raises(ArithmeticError, match="different orders"):
            exact_exponent(g.pair[1], r.factor)
    # a pole order is read off the denominator alone: where that factor
    # shares nothing with it, there is no pole, whatever the numerator holds
    h = parse_expression("(z-2)/(z-5)")
    for r in (two, three):
        with pytest.raises(ArithmeticError, match="different orders"):
            exact_exponent(h.pair[0], r.factor)
        assert exact_exponent(h.pair[1], r.factor) == 0 and h.principal_part_at(r) == () and h.residue_at(r) == 0j


def test_orders_and_values_at_a_non_dyadic_point_are_exact():
    # 3z - 1 - 3e-12 has its root 1e-12 from 1/3: the float views cannot tell
    # the two apart, the exact pair can
    third = parse_sphere_point("1/3")
    f = parse_expression("1/((3*z-1)*(3*z-1-3e-12))")
    assert oracle.order(f, third) == -1
    assert oracle.order(f * parse_expression("1/(3*z-1)"), third) == -2
    assert f.value_at_sphere(third) == INF
    g = parse_expression("(z-1)/(z+1)")
    assert g.value_at_sphere(third) == SpherePoint(-0.5)
    # (1/9 + 1/3 + 1) / (1/3 - 5) = -13/42, rounded once
    assert parse_expression("(z^2+z+1)/(z-5)").value_at_sphere(third).value == complex(Fraction(-13, 42))
    assert (g - parse_expression("-1/2")).value_at_sphere(third) == SpherePoint(0j)
