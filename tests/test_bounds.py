from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wlab.analysis import Analysis
from wlab.bounds import (
    CASE_BOTH,
    CASE_FLAT,
    CASE_ONE_CONSTANT,
    COROLLARY_CONSISTENT,
    COROLLARY_CONTRADICTION,
    COROLLARY_SHARP,
    IDENTITY_FORCED,
    IDENTITY_IDENTICAL,
    IDENTITY_NOT_FORCED,
    SHARED_CONSTANT_PAIR,
    SHARED_GENERIC,
    SHARED_IDENTICAL,
    BoundsReport,
    compute_bounds_abstract,
    corollary_check,
    shared_values,
    unicity_of,
)
from wlab.exprparse import parse_expression, parse_sphere_point
from wlab.poly import Polynomial
from wlab.rational import RationalFunction
from wlab.roots import IllConditionedRootsError, RootIsolationError, roots_with_multiplicity
from wlab.weierstrass import WeierstrassData

Z = RationalFunction.variable()
ONE = RationalFunction.constant(1)


def four_punctures() -> WeierstrassData:
    """Both Gauss maps the identity, simple poles of h dz at 0, 1, 2."""
    return WeierstrassData(
        h=1 / (Z * (Z - 1) * (Z - 2)), g1=Z, g2=Z, punctures=("0", "1", "2", "inf")
    )


def one_constant_three() -> WeierstrassData:
    return WeierstrassData(
        h=1 / (Z * (Z - 1)), g1=Z, g2=RationalFunction.constant(0), punctures=("0", "1", "inf")
    )


def algebraic_cubic() -> WeierstrassData:
    return WeierstrassData(h=1 / Z**3, g1=Z, g2=ONE, punctures=("0", "inf"))


def sharp_pair(punctures):
    """Identity vs reciprocal Gauss maps over the same h dz."""
    h = 1 / (Z * (Z - 2) * (2 * Z - 1))
    a = WeierstrassData(h=h, g1=Z, g2=Z, punctures=punctures)
    b = WeierstrassData(h=h, g1=1 / Z, g2=1 / Z, punctures=punctures)
    return a, b


# ---------------------------------------------------------------------------
# rotation oracle for mu

# A fixed sphere rotation T(w) = (a w - conj(b)) / (b w + conj(a)) with
# |a|^2 + |b|^2 = 1, generic enough that the rotated components of every
# data set below are finite at the punctures and have only simple poles.
_ROT = np.array([0.61, 0.27, -0.47, 0.58]) / np.linalg.norm([0.61, 0.27, -0.47, 0.58])
ROT_A, ROT_B = complex(_ROT[0], _ROT[1]), complex(_ROT[2], _ROT[3])


def rotated_mu(d: WeierstrassData) -> tuple[int, ...]:
    """Pole orders of h dz at the punctures after rotating each component.

    Rotating g multiplies h by (b g + conj(a)), which keeps the metric.
    """
    h = d.h
    for g in (d.g1, d.g2):
        if g.is_constant:
            continue
        gr = (g * ROT_A - ROT_B.conjugate()) / (g * ROT_B + ROT_A.conjugate())
        assert not any(gr.value_at_sphere(p).is_infinity for p in d.punctures)
        # simple poles only: the finite ones, and at most degree gap 1 at inf
        poles = roots_with_multiplicity(gr.pair[1]) if gr.den.degree else []
        assert all(m == 1 for _, m in poles) and gr.num.degree <= gr.den.degree + 1
        h = h * (g * ROT_B + ROT_A.conjugate())
    return tuple(-h.form_order_at(p) for p in d.punctures)


def random_regular_data(rng) -> WeierstrassData:
    """Random Gauss maps, with h vanishing exactly where they have poles.

    h = den(g1) den(g2) / prod (z - p)^m over the finite punctures, and inf
    is always a puncture, so the metric is regular off the punctures.
    """

    def rand_rat(deg):
        num = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        den = Polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        return RationalFunction(Polynomial(num), den), RationalFunction(den)

    pool = ["0", "1", "-1", "2", "i", "1/2"]
    finite = [pool[i] for i in rng.choice(len(pool), size=int(rng.integers(0, 4)), replace=False)]
    g1, den1 = rand_rat(int(rng.integers(1, 4)))
    g2, den2 = rand_rat(int(rng.integers(0, 3)))
    h = den1 * den2
    for p in finite:
        h = h / (Z - parse_sphere_point(p).value) ** int(rng.integers(1, 4))
    return WeierstrassData(h=h, g1=g1, g2=g2, punctures=(*finite, "inf"))


def loadable_fixtures() -> list[WeierstrassData]:
    from wlab.cli import CliUsageError, _load_data

    fixtures = Path(__file__).resolve().parents[1] / "fixtures"
    cases = []
    for path in sorted(fixtures.glob("*.json")):
        try:
            cases.append(_load_data(str(path)))
        except CliUsageError:
            continue
    return cases


def test_rotation_oracle_pole_orders_match_mu():
    cases = loadable_fixtures()
    rng = np.random.default_rng(3)
    cases += [random_regular_data(rng) for _ in range(40)]
    checked = identities = 0
    for d in cases:
        if d.g1.is_constant and d.g2.is_constant:
            continue
        # root location still fails on some random data; those data sets say
        # nothing about mu and are skipped
        try:
            mu = rotated_mu(d)
            r = Analysis(d).bounds
        except (IllConditionedRootsError, RootIsolationError):
            continue
        assert r.mu == mu, d
        if r.regular_ok:
            assert r.d1 + r.d2 == 2 * r.G - 2 + sum(mu), d
            assert r.degree_identity_ok
            identities += 1
        checked += 1
    assert checked >= 35 and identities >= 30


def test_rotated_product_keeps_multiple_poles():
    # a gcd of the whole product once split h's double pole at 1 of data
    # set 0 into two simple poles off the puncture
    rng = np.random.default_rng(3)
    cases = [random_regular_data(rng) for _ in range(22)]
    for d in (cases[0], cases[21]):
        factors = [g * ROT_B + ROT_A.conjugate() for g in (d.g1, d.g2) if not g.is_constant]
        product = d.h
        for f in factors:
            product = product * f
        for p in d.punctures:
            expected = d.h.form_order_at(p) + sum(f.order_at(p) for f in factors)
            assert product.form_order_at(p) == expected, (p, d)
    assert [str(p) for p in cases[0].punctures] == ["1", "0+1i", "0", "inf"]
    assert rotated_mu(cases[0]) == (2, 1, 1, 2)


# ---------------------------------------------------------------------------
# bounds on computed data


def test_bounds_four_punctures_identity_maps():
    r = Analysis(four_punctures()).bounds
    assert r.case == CASE_BOTH
    assert (r.G, r.k, r.chi_term, r.d1, r.d2) == (0, 4, 2, 1, 1)
    assert r.nu_g1 == 4 and r.nu_g2 == 4
    assert r.R1 == Fraction(1, 2) and r.R2 == Fraction(1, 2)
    assert r.ratio_sum == 1 and r.ratio_sum_at_least_one
    assert r.nu_bound_g1 == 4 and r.nu_bound_g1_ok and r.nu_bound_g1_equality
    assert r.nu_bound_g2 == 4 and r.nu_bound_g2_ok and r.nu_bound_g2_equality
    assert r.joint_bound_applies
    assert r.joint_bound_lhs == 1 and r.joint_bound_ok and r.joint_bound_equality
    assert r.mu == (1, 1, 1, 1)
    assert r.degree_identity_ok
    assert r.hypotheses_ok and not r.algebraic
    assert not r.strict_ok  # ratio sum is exactly 1, so no closed-period version
    assert not r.contradiction


def test_bounds_one_constant_component():
    r = Analysis(one_constant_three()).bounds
    assert r.case == CASE_ONE_CONSTANT
    assert (r.k, r.chi_term, r.d1, r.d2) == (3, 1, 1, 0)
    assert r.nu_g1 == 3 and r.nu_g2 is None
    assert r.R1 == 1 and r.R2 is None
    assert r.nu_bound_g1 == 3 and r.nu_bound_g1_ok and r.nu_bound_g1_equality
    assert not r.joint_bound_applies
    assert r.mu == (1, 1, 1) and r.degree_identity_ok
    assert r.hypotheses_ok and not r.algebraic
    assert not r.contradiction


def test_bounds_vanishing_period_data():
    r = Analysis(algebraic_cubic()).bounds
    assert r.case == CASE_ONE_CONSTANT
    assert (r.k, r.chi_term) == (2, 0)
    assert r.chi_nonpositive
    assert r.R1 is None and r.ratio_sum is None
    assert r.nu_g1 == 2
    assert r.nu_bound_g1 == 2 and r.nu_bound_g1_ok and r.nu_bound_g1_equality
    assert r.mu == (3, 0) and r.degree_identity_ok
    assert r.mu_all_at_least_two is False
    assert r.algebraic and r.strict_ok
    assert r.hypotheses_ok and not r.contradiction


def test_bounds_flat_data():
    d = WeierstrassData(h=ONE, g1=ONE * 2, g2=ONE * 3, punctures=("inf",))
    r = Analysis(d).bounds
    assert r.case == CASE_FLAT
    assert not r.contradiction
    assert r.nu_g1 is None and r.nu_bound_g1 is None


def test_bounds_reject_positive_genus():
    d = WeierstrassData(h=ONE, g1=Z, g2=Z, punctures=("inf",), genus=1)
    with pytest.raises(ValueError):
        Analysis(d).bounds


def test_bounds_random_data_never_contradict():
    # The per-component and joint ceilings are counting facts for arbitrary
    # rational maps, and everything else is gated on the surface hypotheses,
    # so no random data set may ever be flagged.
    rng = np.random.default_rng(90125)
    pool = ["0", "1", "-1", "2", "i", "inf", "-2", "1/2"]
    checked = 0
    for _ in range(25):
        def rand_rat():
            deg = int(rng.integers(0, 4))
            num = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            den = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            return RationalFunction(Polynomial(num), Polynomial(den))

        k = int(rng.integers(1, 5))
        idx = rng.choice(len(pool), size=k, replace=False)
        data = WeierstrassData(
            h=rand_rat() + 1,
            g1=rand_rat(),
            g2=rand_rat(),
            punctures=tuple(pool[i] for i in idx),
        )
        try:
            r = Analysis(data).bounds
        except (IllConditionedRootsError, RootIsolationError):
            continue
        assert not r.contradiction, data
        checked += 1
    assert checked >= 15


# ---------------------------------------------------------------------------
# bounds from abstract invariants


def test_abstract_four_punctures_equality_case():
    r = compute_bounds_abstract(0, 4, 1, 1, 4, 4)
    assert r.mode == "abstract" and r.case == CASE_BOTH
    assert r.nu_bound_g1 == 4 and r.nu_bound_g1_equality
    assert r.joint_bound_applies and r.joint_bound_lhs == 1 and r.joint_bound_equality
    assert r.ratio_sum == 1 and r.ratio_sum_at_least_one
    assert not r.contradiction


def test_abstract_one_constant_case():
    r = compute_bounds_abstract(0, 3, 1, 0, 3)
    assert r.case == CASE_ONE_CONSTANT
    assert r.nu_bound_g1 == 3 and r.nu_bound_g1_ok and r.nu_bound_g1_equality
    assert r.R1 == 1 and r.R2 is None
    assert not r.contradiction


def test_abstract_pole_orders_check_degree_identity():
    r = compute_bounds_abstract(0, 2, 2, 0, mu=(2, 2))
    assert r.degree_identity_ok
    assert r.mu_all_at_least_two and r.algebraic
    assert r.chi_nonpositive and r.R1 is None
    assert r.strict_ok
    assert not r.contradiction


def test_abstract_inconsistent_pole_orders_flagged():
    r = compute_bounds_abstract(0, 3, 1, 0, mu=(2, 1, 1))
    assert r.degree_identity_ok is False
    assert r.contradiction
    assert any("d1 + d2" in n for n in r.notes)


def test_abstract_ramification_number_above_ceiling_flagged():
    r = compute_bounds_abstract(0, 4, 1, 1, 5, 4)
    assert r.nu_bound_g1_ok is False
    assert r.contradiction


def test_abstract_accepts_fraction_strings():
    r = compute_bounds_abstract(0, 4, 2, 0, "7/2")
    assert r.nu_g1 == Fraction(7, 2)
    assert r.nu_bound_g1 == 3
    assert r.nu_bound_g1_ok is False and r.contradiction


def test_abstract_positive_genus():
    r = compute_bounds_abstract(1, 1, 2, 0, 2)
    assert r.chi_term == 1
    assert r.nu_bound_g1 == Fraction(5, 2)
    assert r.nu_bound_g1_ok and not r.nu_bound_g1_equality
    assert not r.contradiction


def test_abstract_agrees_with_computed_on_every_fixture():
    """The asserted invariants of a computed surface give the same verdicts."""
    fields = (
        "R1",
        "R2",
        "ratio_sum",
        "nu_bound_g1",
        "nu_bound_g1_ok",
        "nu_bound_g1_equality",
        "nu_bound_g2",
        "nu_bound_g2_ok",
        "nu_bound_g2_equality",
        "joint_bound_applies",
        "joint_bound_lhs",
        "joint_bound_ok",
        "joint_bound_equality",
        "degree_identity_ok",
        "strict_ok",
    )
    checked = 0
    for d in loadable_fixtures():
        r = Analysis(d).bounds
        a = compute_bounds_abstract(0, r.k, r.d1, r.d2, r.nu_g1, r.nu_g2, r.mu)
        assert a.case == r.case, d.label
        for name in fields:
            assert getattr(a, name) == getattr(r, name), (d.label, name)
        checked += 1
    assert checked >= 8


def test_abstract_input_validation():
    with pytest.raises(ValueError):
        compute_bounds_abstract(-1, 3, 1)
    with pytest.raises(ValueError):
        compute_bounds_abstract(0, 3, 1, 0, mu=(1, 1))
    with pytest.raises(ValueError):
        compute_bounds_abstract(0, 3, 1, 0, nu2=3)


# ---------------------------------------------------------------------------
# exceptional-value corollary


def test_corollary_sharp_on_reference_data():
    assert corollary_check(Analysis(four_punctures()).bounds) == COROLLARY_SHARP
    assert corollary_check(Analysis(one_constant_three()).bounds) == COROLLARY_SHARP
    assert corollary_check(Analysis(algebraic_cubic()).bounds) == COROLLARY_SHARP


def _handcrafted(case, r1, r2, algebraic, d1=1, d2=1):
    return BoundsReport(
        mode="abstract",
        case=case,
        G=0,
        k=5,
        chi_term=3,
        d1=d1,
        d2=d2,
        exceptional_g1=r1,
        exceptional_g2=r2,
        algebraic=algebraic,
        hypotheses_ok=True,
    )


def test_corollary_contradiction_when_both_omit_five():
    rep = _handcrafted(CASE_BOTH, 5, 5, algebraic=False)
    assert corollary_check(rep) == COROLLARY_CONTRADICTION


def test_corollary_vanishing_periods_tighten_both_case():
    rep = _handcrafted(CASE_BOTH, 4, 4, algebraic=True)
    assert corollary_check(rep) == COROLLARY_CONTRADICTION
    rep = _handcrafted(CASE_BOTH, 4, 3, algebraic=True)
    assert corollary_check(rep) == COROLLARY_CONSISTENT


def test_corollary_one_constant_thresholds():
    rep = _handcrafted(CASE_ONE_CONSTANT, 4, None, algebraic=False, d2=0)
    assert corollary_check(rep) == COROLLARY_CONTRADICTION
    rep = _handcrafted(CASE_ONE_CONSTANT, 3, None, algebraic=True, d2=0)
    assert corollary_check(rep) == COROLLARY_CONTRADICTION
    rep = _handcrafted(CASE_ONE_CONSTANT, 2, None, algebraic=False, d2=0)
    assert corollary_check(rep) == COROLLARY_CONSISTENT


def test_corollary_flat_and_missing_counts():
    flat = Analysis(WeierstrassData(h=ONE, g1=ONE, g2=ONE, punctures=("inf",))).bounds
    assert corollary_check(flat) == COROLLARY_CONSISTENT
    rep = _handcrafted(CASE_BOTH, None, 4, algebraic=False)
    with pytest.raises(ValueError):
        corollary_check(rep)


# ---------------------------------------------------------------------------
# shared values


def _shared_as_dict(sv):
    return {str(v.value): v.delta for v in sv.values}


def test_shared_values_reciprocal_pair_four_punctures():
    sv = shared_values(Z, 1 / Z, ("0", "2", "1/2", "inf"))
    assert sv.kind == SHARED_GENERIC
    assert _shared_as_dict(sv) == {
        "0": 0,
        "inf": 0,
        "2": 0,
        "0.5": 0,
        "1": 1,
        "-1": 1,
    }


def test_shared_values_reciprocal_pair_three_punctures():
    sv = shared_values(Z, 1 / Z, ("0", "2", "inf"))
    # 2 is not shared: its preimage under z is the puncture 2, but under 1/z
    # it is the interior point 1/2.
    assert _shared_as_dict(sv) == {"0": 0, "inf": 0, "1": 1, "-1": 1}


def test_shared_values_translation_pair():
    sv = shared_values(Z, Z + 1, ("0", "inf"))
    assert _shared_as_dict(sv) == {"inf": 0}


def test_shared_values_common_pole_shares_infinity():
    # both fibres over infinity are {3}, yet a common pole is no zero of
    # gA - gB: infinity must be a candidate of its own
    a = parse_expression("(z+4)/(z-3)")
    b = parse_expression("-(z+4)/(z-3)")
    assert _shared_as_dict(shared_values(a, b, ("0", "inf"))) == {"0": 1, "inf": 1}


def test_shared_values_exact_puncture_image_beats_a_float_zero():
    # gA(4/3) = 0.9999999999999977 falls in one group with gA(inf) = 1; the
    # exact puncture image must be the one kept, or the fibre polynomial of
    # the float value grows a spurious root near 1e15
    a = parse_expression("(z^2-3*z+3)/(z^2-1)")
    b = parse_expression("1/((z^2-3*z+3)/(z^2-1))")
    sv = shared_values(a, b, ("2", "i", "0", "inf"))
    # -1 is read off a float zero of gA - gB
    assert [(v.value.value, v.delta) for v in sv.values] == [
        (pytest.approx(-1, abs=1e-12), 2),
        (1, 1),
    ]


def test_shared_values_over_a_rounded_value_at_infinity():
    # B(0) = -7/3 = A(inf) up to the last bit; read off the fibre tables,
    # A's fibre over it is {inf}, where a root-found N_A - B(0) D_A put a
    # finite root near 1.3e16 and missed the value
    a = parse_expression("(-8-7*z)/(-4+3*z)")
    b = parse_expression("(-8*z-7)/(-4*z+3)")
    sv = shared_values(a, b, ("2", "i", "0", "inf"))
    assert [(v.value.value, v.delta) for v in sv.values] == [
        (pytest.approx(-7 / 3, rel=1e-12), 0),
        (pytest.approx(1 / 7, rel=1e-12), 1),
        (2, 0),
        (pytest.approx(15, rel=1e-12), 1),
    ]


def test_shared_values_of_a_map_and_its_negative():
    # the cross numerator is 2 N D, never reduced: gA - gB through the float
    # gcd lost about 8 digits and with them the shared value 0
    a = parse_expression("(z^4-2*z^3+6*z^2+2*z-6)/(z^4+9*z^3-6*z^2+8*z+3)")
    b = parse_expression("-(z^4-2*z^3+6*z^2+2*z-6)/(z^4+9*z^3-6*z^2+8*z+3)")
    assert _shared_as_dict(shared_values(a, b, ("0", "1", "inf"))) == {"0": 4, "inf": 4}


def test_shared_values_need_no_fibre_polynomial_layers():
    # root-finding the fibres' N - aD raised ExactDivisionError in the
    # square-free layers; the oracle shares no value
    a = parse_expression("(6*z^3-6*z^2-9*z+6)/(5*z^3+4*z+4)")
    b = parse_expression("(6*z^3-9*z^2-6*z+6)/(4*z^3+4*z^2+5)")
    sv = shared_values(a, b, ("2", "i", "0", "inf"))
    assert sv.kind == SHARED_GENERIC and sv.values == ()


def test_shared_values_identical_and_constant_kinds():
    assert shared_values(Z, Z, ("inf",)).kind == SHARED_IDENTICAL
    one = RationalFunction.constant(1)
    two = RationalFunction.constant(2)
    assert shared_values(one, two, ()).kind == SHARED_CONSTANT_PAIR
    assert shared_values(one, one * 1, ()).kind == SHARED_IDENTICAL


def test_shared_values_against_constant_map():
    sv = shared_values(Z, RationalFunction.constant(5), ("0", "5", "inf"))
    assert _shared_as_dict(sv) == {"0": 0, "inf": 0}


# ---------------------------------------------------------------------------
# unicity of the Gauss maps


def test_unicity_six_shared_values_at_the_boundary():
    a, b = sharp_pair(("0", "2", "1/2", "inf"))
    u = unicity_of(Analysis(a), Analysis(b))
    assert u.case == CASE_BOTH
    assert (u.p, u.q) == (6, 6)
    assert u.count_bound_g1 == 6 and u.count_bound_g1_ok and u.count_bound_g1_equality
    assert u.count_bound_g2 == 6 and u.count_bound_g2_ok and u.count_bound_g2_equality
    assert u.pair_bound_applies
    assert u.pair_bound_lhs == 1
    assert u.R1 == Fraction(1, 2) and u.R2 == Fraction(1, 2)
    assert u.pair_bound_ok and u.pair_bound_equality
    assert u.pole_budget_g1_ok and u.pole_budget_g2_ok
    assert u.identity_verdict == IDENTITY_NOT_FORCED
    assert not u.contradiction


def test_unicity_one_constant_pair():
    h = 1 / (Z * (Z - 2))
    zero = RationalFunction.constant(0)
    a = WeierstrassData(h=h, g1=Z, g2=zero, punctures=("0", "2", "inf"))
    b = WeierstrassData(h=h, g1=1 / Z, g2=zero, punctures=("0", "2", "inf"))
    u = unicity_of(Analysis(a), Analysis(b))
    assert u.case == CASE_ONE_CONSTANT
    assert u.p == 4 and u.q is None
    assert _shared_as_dict(u.shared_g1) == {"0": 0, "inf": 0, "1": 1, "-1": 1}
    assert u.count_bound_g1 == 5 and u.count_bound_g1_ok
    assert u.count_bound_g1_equality is False
    assert u.pole_budget_g1_ok
    assert u.identity_verdict == IDENTITY_NOT_FORCED
    assert not u.contradiction


def test_unicity_identical_data():
    a, _ = sharp_pair(("0", "2", "1/2", "inf"))
    u = unicity_of(Analysis(a), Analysis(a))
    assert u.case == "identical"
    assert u.identity_verdict == IDENTITY_IDENTICAL
    assert u.p is None and u.q is None
    assert not u.contradiction


def test_unicity_forced_identity_needs_hypotheses():
    # Eight punctures give eight shared values for the reciprocal pair, which
    # would force the maps to coincide -- but only for data satisfying the
    # complete-surface hypotheses, which this pair does not.
    pts = ("0", "inf", "1", "-1", "i", "-i", "2", "1/2")
    a, b = sharp_pair(pts)
    u = unicity_of(Analysis(a), Analysis(b))
    assert (u.p, u.q) == (8, 8)
    assert u.identity_verdict == IDENTITY_FORCED
    assert not u.hypotheses_ok
    assert not u.contradiction
    assert any("identity cannot be forced" in n for n in u.notes)


def test_unicity_rejects_mismatched_inputs():
    a, b = sharp_pair(("0", "2", "1/2", "inf"))
    other_punctures = WeierstrassData(h=b.h, g1=b.g1, g2=b.g2, punctures=("0", "3", "1/2", "inf"))
    with pytest.raises(ValueError):
        unicity_of(Analysis(a), Analysis(other_punctures))
    higher_degree = WeierstrassData(h=b.h, g1=Z**2, g2=b.g2, punctures=a.punctures)
    with pytest.raises(ValueError):
        unicity_of(Analysis(a), Analysis(higher_degree))
    genus_one = WeierstrassData(h=b.h, g1=b.g1, g2=b.g2, punctures=a.punctures, genus=1)
    with pytest.raises(ValueError):
        unicity_of(Analysis(a), Analysis(genus_one))


def test_unicity_random_pairs_never_contradict():
    rng = np.random.default_rng(2718)
    pool = ["0", "1", "-1", "2", "i", "inf"]
    checked = 0
    for _ in range(20):
        def rand_rat(deg):
            num = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            den = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            return RationalFunction(Polynomial(num), Polynomial(den))

        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(0, 3))
        k = int(rng.integers(1, 5))
        idx = rng.choice(len(pool), size=k, replace=False)
        pts = tuple(pool[i] for i in idx)
        h = rand_rat(2) + 2
        ga2 = rand_rat(d2) if d2 else RationalFunction.constant(complex(rng.normal(), rng.normal()))
        gb2 = rand_rat(d2) if d2 else ga2
        a = WeierstrassData(h=h, g1=rand_rat(d1), g2=ga2, punctures=pts)
        b = WeierstrassData(h=h, g1=rand_rat(d1), g2=gb2, punctures=pts)
        if a.g1.degree != b.g1.degree or a.g2.degree != b.g2.degree:
            continue
        try:
            u = unicity_of(Analysis(a), Analysis(b))
        except (IllConditionedRootsError, RootIsolationError):
            continue
        assert not u.contradiction, (a, b)
        assert u.pole_budget_g1_ok is not False
        assert u.pole_budget_g2_ok is not False
        checked += 1
    assert checked >= 12


# ---------------------------------------------------------------------------
# shared values against a 60-digit oracle
#
# The oracle decides each candidate value the way the definition reads: it
# compares the two preimage sets off the punctures as point sets.  Every
# fiber is the root set of the square-free part of N - aD (of D at a =
# infinity), found by mpmath at 60 digits, plus infinity when that
# polynomial drops below the degree of the map.

ORACLE_EPS = 1e-15  # point identity at 60 digits
PROPERTY_POOL = ("inf", "0", "1", "-1", "i", "2", "-2")


def _mp_trim(p: list, scale) -> list:
    p = list(p)
    while p and abs(p[-1]) <= 1e-30 * scale:
        p.pop()
    return p


def _mp_divmod(a: list, b: list) -> tuple[list, list]:
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        q[k] = a[k + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            a[k + j] -= q[k] * c
    return q, a[: len(b) - 1]


def _mp_distinct_roots(mp, p: list) -> list:
    """The distinct roots of p (coefficients lowest first): the roots of p / gcd(p, p')."""
    p = _mp_trim(p, max(abs(c) for c in p))
    if len(p) < 2:
        return []
    g, r = p, _mp_trim([k * c for k, c in enumerate(p)][1:], max(abs(c) for c in p))
    while len(r) > 1:
        g, r = r, _mp_trim(_mp_divmod(g, r)[1], max(abs(c) for c in g))
    if r:  # a nonzero constant remainder: p is square-free
        g = [1]
    q = _mp_divmod(p, g)[0][::-1]
    if len(q) < 2:
        return []
    # started from double-precision eigenvalue roots, the iteration only polishes
    start = np.roots([complex(c) for c in q])
    return mp.polyroots(q, maxsteps=100, extraprec=20, roots_init=[mp.mpc(r) for r in start])


def _mp_eval(p: list, z):
    return sum(c * z**k for k, c in enumerate(p))


def _oracle_value(mp, num: list, den: list, z):
    """num/den at z, with None for infinity."""
    if z is None:
        if len(num) != len(den):
            return None if len(num) > len(den) else mp.mpc(0)
        return mp.mpc(num[-1]) / den[-1]
    d = _mp_eval(den, z)
    if abs(d) <= 1e-30 * sum(abs(c) for c in den) * (1 + abs(z)) ** len(den):
        return None
    return _mp_eval(num, z) / d


def _oracle_close(x, y) -> bool:
    if x is None or y is None:
        return x is None and y is None
    return abs(x - y) <= ORACLE_EPS * (1 + abs(x))


def _oracle_fiber(mp, num: list, den: list, a, punctures) -> list:
    """The distinct preimages of a off the punctures."""
    size = max(len(num), len(den))
    if a is None:
        poly = [mp.mpc(c) for c in den]
    else:
        num, den = num + [0] * (size - len(num)), den + [0] * (size - len(den))
        poly = [n - a * d for n, d in zip(num, den)]
    poly = _mp_trim(poly, max(abs(c) for c in poly))
    points = list(_mp_distinct_roots(mp, poly))
    if len(poly) < size:
        points.append(None)
    return [z for z in points if not any(_oracle_close(z, p) for p in punctures)]


def _same_point_sets(xs: list, ys: list) -> bool:
    pool = list(ys)
    for x in xs:
        hit = next((i for i, y in enumerate(pool) if _oracle_close(x, y)), None)
        if hit is None:
            return False
        pool.pop(hit)
    return not pool


def oracle_shared_values(mp, a: tuple[list, list], b: tuple[list, list], punctures) -> list[tuple] | None:
    """(value, delta) of every shared value of two maps; None when they are identical.

    Each map is a coprime pair of integer coefficient lists, lowest first;
    a puncture is an mpc or None for infinity.
    """
    (na, da), (nb, db) = a, b
    cross = [0] * (max(len(na) + len(db), len(nb) + len(da)) - 1)
    for x, y, sign in ((na, db, 1), (nb, da, -1)):
        for i, c in enumerate(x):
            for j, e in enumerate(y):
                cross[i + j] += sign * c * e
    if not any(cross):
        return None
    common = list(_mp_distinct_roots(mp, [mp.mpc(c) for c in cross]))
    if _oracle_close(_oracle_value(mp, na, da, None), _oracle_value(mp, nb, db, None)):
        common.append(None)
    candidates = [_oracle_value(mp, *m, p) for p in punctures for m in (a, b)]
    candidates += [_oracle_value(mp, na, da, z) for z in common if not any(_oracle_close(z, p) for p in punctures)]
    shared = []
    for value in [*candidates, None]:
        if any(_oracle_close(value, v) for v, _delta in shared):
            continue
        fa, fb = (_oracle_fiber(mp, *m, value, punctures) for m in (a, b))
        if _same_point_sets(fa, fb):
            shared.append((value, len(fa)))
    return shared


def _integer_coeffs(rng, degree: int) -> list[int]:
    return [int(c) for c in rng.integers(-9, 10, size=degree)] + [int(rng.choice([-3, -2, -1, 1, 2, 3]))]


def _stripped(coeffs: list[int]) -> list[int]:
    while coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    return coeffs


def _random_coprime_map(rng, sympy) -> tuple[list[int], list[int]]:
    """An integer N/D of degree 1 to 4 in lowest terms, coefficients lowest first."""
    z = sympy.Symbol("z")
    while True:
        degrees = [int(rng.integers(1, 5))]
        degrees.insert(int(rng.integers(2)), int(rng.integers(0, degrees[0] + 1)))
        num, den = (_integer_coeffs(rng, k) for k in degrees)
        if sympy.gcd(sympy.Poly(num[::-1], z), sympy.Poly(den[::-1], z)).degree() == 0:
            return num, den


def _pair_of_kind(rng, sympy, kind: int) -> tuple[tuple[list, list], tuple[list, list]]:
    """(A, 1/A), (A, -A), A(1/z), A(-z) or an unrelated pair."""
    num, den = a = _random_coprime_map(rng, sympy)
    if kind == 0:
        return a, (den, num)
    if kind == 1:
        return a, ([-c for c in num], den)
    if kind == 2:
        k = max(len(num), len(den))
        return a, (_stripped((num + [0] * (k - len(num)))[::-1]), _stripped((den + [0] * (k - len(den)))[::-1]))
    if kind == 3:
        return a, ([c * (-1) ** j for j, c in enumerate(num)], [c * (-1) ** j for j, c in enumerate(den)])
    return a, _random_coprime_map(rng, sympy)


def test_shared_values_match_a_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(19)
    with mpmath.mp.workdps(60):
        for k in range(150):
            a, b = _pair_of_kind(rng, sympy, k % 5)
            names = [str(x) for x in rng.choice(PROPERTY_POOL, size=int(rng.integers(1, 5)), replace=False)]
            points = [None if x == "inf" else mpmath.mpc(parse_sphere_point(x).value) for x in names]
            expected = oracle_shared_values(mpmath.mp, a, b, points)
            ga, gb = (RationalFunction(Polynomial(num), Polynomial(den)) for num, den in (a, b))
            sv = shared_values(ga, gb, names)
            if expected is None:
                assert sv.kind == SHARED_IDENTICAL, (a, b)
                continue
            got = [(v.value.value, v.delta) for v in sv.values]
            assert sv.kind == SHARED_GENERIC and len(got) == len(expected), (a, b, names, got, expected)
            for value, delta in got:
                assert any(
                    d == delta and (value is None if y is None else value is not None and abs(value - complex(y)) <= 1e-6 * (1 + abs(value)))
                    for y, d in expected
                ), (a, b, names, got, expected)
