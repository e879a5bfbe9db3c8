"""One command derives each invariant of a data set once.

Every test counts calls to the derivation functions while one CLI command
runs, through the ``record_calls`` fixture of ``conftest.py``.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

import wlab.cli
from wlab import poly, ramification, roots, weierstrass
from wlab.analysis import Analysis, PoleTableError
from wlab.cli import _load_data
from wlab.exprparse import parse_expression
from wlab.rational import RationalFunction
from wlab.weierstrass import UnsupportedGenusError, WeierstrassData, phi_from_data

from conftest import LOADABLE, _ladder_maps, fixture, load_fixture, write_data

DERIVATIONS = (
    (weierstrass, "phi_from_data"),
    (weierstrass, "check_regularity"),
    (weierstrass, "classify_ends"),
    (weierstrass, "compute_periods"),
)
# root-finding calls of one ``report``: each piece of the data's gcd-free
# basis that is not a puncture's linear factor (the Gauss maps of the
# fixtures have constant Wronskians).  Every pole of these fixtures lies at
# a puncture, whose exact value is its place, so only the zero of h at 0 in
# ``irregular`` is root-found.
REPORT_ROOT_CALLS = {
    "example21": 0,
    "example22": 0,
    "example23": 0,
    "irregular": 1,
    "unicity_five_a": 0,
    "unicity_five_b": 0,
    "unicity_six_a": 0,
    "unicity_six_b": 0,
}


def run(capsys, *argv: str) -> int:
    code = wlab.cli.main(list(argv))
    capsys.readouterr()
    return code


@pytest.mark.parametrize("name", LOADABLE)
def test_report_derives_each_invariant_once(record_calls, capsys, name):
    derived = {fn: record_calls(mod, fn) for mod, fn in DERIVATIONS}
    ramified = record_calls(ramification, "ramification_report")
    located = record_calls(roots, "roots_with_multiplicity")

    code = run(capsys, "report", fixture(name))

    assert code in (0, 2)
    for fn, calls in derived.items():
        assert len(calls) == 1, fn
    components = [call[0] for call in ramified]
    assert len(components) <= 2
    assert all(not g.is_constant for g in components)
    assert len({(g.num.coeffs, g.den.coeffs) for g in components}) == len(components)
    polys = [call[0] for call in located]
    assert len(polys) == len(set(polys)) == REPORT_ROOT_CALLS[name]
    d = load_fixture(name)
    allowed = set(Analysis(d).exponents) | {g.derivative_numerator() for g in (d.g1, d.g2) if not g.is_constant}
    assert set(polys) <= allowed
    # a φ-form's own denominator is never root-found
    assert not set(polys) & {poly.exact_primitive(f.pair[1]) for f in phi_from_data(d).forms} - allowed


@pytest.mark.parametrize("name", ["example21", "unicity_six_a", "unicity_six_b"])
def test_equal_components_share_one_ramification_report(record_calls, capsys, name):
    ramified = record_calls(ramification, "ramification_report")

    code = run(capsys, "report", fixture(name))

    assert code in (0, 2)
    assert len(ramified) == 1


# root-finding calls of one ``unicity`` on a fixture pair: the two analyses'
# own, none here, as every pole lies at a puncture and h has no zero; and
# the cross numerator N_A D_B - N_B D_A once per distinct component pair,
# whole, as z and 1/z share no zero and no pole; the fibres are read off the
# Wronskian tables (constant here), so no fibre polynomial is root-found
UNICITY_ROOT_CALLS = {"five": 1, "six": 1}


@pytest.mark.parametrize("pair", sorted(UNICITY_ROOT_CALLS))
def test_unicity_locates_each_difference_numerator_once(record_calls, capsys, pair):
    located = record_calls(roots, "roots_with_multiplicity")
    paths = [fixture(f"unicity_{pair}_{side}") for side in "ab"]

    code = run(capsys, "unicity", *paths)

    assert code == 0
    assert len(located) == UNICITY_ROOT_CALLS[pair]
    a, b = (_load_data(p) for p in paths)
    cross = a.g1.cross_numerator(b.g1)
    assert [call[0] for call in located].count(cross) == 1


def test_a_pole_missing_from_the_table_is_a_typed_failure():
    # example21 with the pole at 3 off the punctures: its piece z - 3 is the
    # last of the basis, and the one that is root-found
    data = load_fixture("example21")
    an = Analysis(replace(data, punctures=data.punctures[:2] + data.punctures[3:]))
    assert [len(piece) for piece in an.exponents] == [2, 2, 2]
    # drop the piece of the pole at 3
    an.__dict__["exponents"] = dict(list(an.exponents.items())[:-1])
    with pytest.raises(PoleTableError, match="total order 2, but its denominator has degree 3"):
        an.principal_parts
    assert issubclass(PoleTableError, ArithmeticError)


def test_orders_are_read_off_the_basis_not_found_again_at_each_root(record_calls):
    # regular data from two generic degree-32 maps, h vanishing at their
    # poles: every order at a root of a degree-32 piece is the exponent its
    # piece carries, so no exact_exponent runs on a factor of higher degree
    g1, g2 = (parse_expression(_ladder_maps()[k]) for k in (24, 26))
    h = RationalFunction.of_exact(poly.exact_mul(g1.pair[1], g2.pair[1]), ((1, 0),))
    an = Analysis(WeierstrassData(h=h, g1=g1, g2=g2, punctures=("inf",)))
    exponents = record_calls(poly, "exact_exponent")
    an.regularity, an.ends, an.periods, an.principal_parts
    assert [len(factor) for _a, factor in exponents if len(factor) > 2] == []
    assert an.regularity.ok and len(an.regularity.checked_points) == 64


def test_a_fourth_order_pole_at_zero_is_located_exactly():
    # the pole table holds the pole of z^4 as exactly 0, not a point near it;
    # no finite puncture is given, so both points come from root-finding
    data = WeierstrassData(
        h=parse_expression("1/(z^4*(z-1))"),
        g1=parse_expression("z"),
        g2=parse_expression("1"),
        punctures=("inf",),
    )
    an = Analysis(data)
    assert an.singular_points == (0j, 1 + 0j)
    assert list(an.principal_parts) == [0j, 1 + 0j]


def test_ramify_derives_only_its_own_component(record_calls, capsys):
    derived = {fn: record_calls(mod, fn) for mod, fn in DERIVATIONS}
    ramified = record_calls(ramification, "ramification_report")

    code = run(capsys, "ramify", fixture("example21"), "--component", "2")

    assert code == 0
    assert derived["phi_from_data"] == [] and derived["compute_periods"] == []
    assert len(ramified) == 1


# the non-constant exact parts of each map's Wronskian W: gcd(N, N'),
# gcd(D, D') and W over both
WRONSKIAN_PARTS = {"z": 0, "1/z": 0, "z^2": 1, "z^2*(z-1)": 2, "(z^3-1)/(z^3+1)": 1, "(z^2+1)^3/(z^4-2)": 2}


@pytest.mark.parametrize(
    "g, punctures",
    [
        ("z", ["1", "2", "3", "inf"]),
        ("1/z", ["0", "inf"]),
        ("z^2", ["0", "inf"]),
        ("z^2*(z-1)", ["1"]),
        ("(z^3-1)/(z^3+1)", []),
        ("(z^2+1)^3/(z^4-2)", ["i", "inf"]),
    ],
)
def test_ramify_locates_the_wronskian_once(record_calls, capsys, tmp_path, g, punctures):
    path = write_data(tmp_path, "data", punctures, "1", g, "0")
    located = record_calls(roots, "roots_with_multiplicity")

    code = run(capsys, "ramify", str(path), "--component", "1")

    assert code == 0
    # W is located in its exact parts: the multiple zeros, the multiple
    # poles and the rest, each once, and W itself when N and D are square-free
    w = parse_expression(g).derivative_numerator()
    polys = [call[0] for call in located]
    assert len(polys) == len(set(polys)) == WRONSKIAN_PARTS[g]
    product = functools.reduce(poly.exact_mul, polys, ((1, 0),))
    assert len(poly.exact_quotient(w, poly.exact_primitive(product))) == 1
    if g == "(z^3-1)/(z^3+1)":
        assert polys == [w]


@pytest.mark.parametrize(
    "name, region, base",
    [("example23", "annulus:0,0,0.5,2", "1,0"), ("example21", "rect:-0.5,0.5,-0.5,0.5", "0,0.25")],
)
def test_mesh_derives_phi_and_periods_once(record_calls, capsys, tmp_path, name, region, base):
    derived = {fn: record_calls(mod, fn) for mod, fn in DERIVATIONS}

    code = run(
        capsys, "mesh", fixture(name), "--region", region,
        f"--base={base}", "--res", "9", "--mesh-out", str(tmp_path / "m.csv"),
    )

    assert code == 0
    assert len(derived["phi_from_data"]) == 1
    assert len(derived["compute_periods"]) == 1


def test_analysis_is_lazy_and_keeps_what_it_derived(record_calls):
    z = RationalFunction.variable()
    data = WeierstrassData(h=1 / ((z - 1) * (z - 2) * (z - 3)), g1=z, g2=z, punctures=("1", "2", "3", "inf"))
    phi_calls = record_calls(weierstrass, "phi_from_data")
    periods_calls = record_calls(weierstrass, "compute_periods")

    an = Analysis(data)
    assert phi_calls == [] and periods_calls == []
    assert an.bounds.contradiction is False
    assert an.curvature_closed_form.period_ok == an.periods.period_ok
    assert an.ramification(1) is an.ramification(1)
    assert len(phi_calls) == 1 and len(periods_calls) == 1


def test_analysis_rejects_other_genera():
    z = RationalFunction.variable()
    data = WeierstrassData(h=RationalFunction.constant(1), g1=z, g2=z, punctures=("inf",), genus=1)
    with pytest.raises(UnsupportedGenusError, match="genus 0"):
        Analysis(data)


@pytest.mark.parametrize("name", LOADABLE)
def test_building_a_data_set_takes_no_float_gcd(name):
    # the algebra is exact, the Yun chain of roots included: no float gcd
    # is left to take
    an = Analysis(load_fixture(name))
    an.phi
    assert not hasattr(poly, "approx_gcd")


@pytest.mark.parametrize("power, mu", [(1, 1), (2, 2)])
def test_a_pole_1e_12_from_a_non_dyadic_puncture_is_its_own_point(power, mu):
    # the poles at 1/3 and at 1/3 + 1e-12 are roots of different exact
    # factors: the end at 1/3 reads only its own pole order, and the other
    # pole, off the punctures, is a regularity violation of its own
    data = WeierstrassData(
        h=parse_expression(f"1/((3*z-1)^{power}*(3*z-1-3e-12))"),
        g1=parse_expression("z"),
        g2=parse_expression("z"),
        punctures=("1/3", "inf"),
    )
    an = Analysis(data)
    assert [(str(rec.puncture), rec.mu) for rec in an.ends.records] == [("0.3333333333333333", mu), ("inf", 1 - mu)]
    reg = an.regularity
    assert not reg.ok
    (violation,) = reg.violations
    assert violation.point == reg.checked_points[0]
    assert 0 < violation.point.value.real - 1 / 3 < 2e-12
    assert (violation.form_order, violation.g1_pole_order, violation.g2_pole_order) == (-1, 0, 0)


@pytest.mark.parametrize("command", ["check", "report"])
@pytest.mark.parametrize("name", LOADABLE)
def test_poles_at_punctures_are_not_root_found(record_calls, capsys, name, command):
    # a puncture's piece of the basis has the puncture as its root
    located = record_calls(roots, "roots_with_multiplicity")

    run(capsys, command, fixture(name))

    assert len(located) == REPORT_ROOT_CALLS[name]


def test_a_float_puncture_reads_alike_from_the_library_and_the_cli(tmp_path):
    # 0.1 is 1/10 both as a library float and as a JSON number, so the pole
    # of 1/(z - 0.1), exactly at 1/10, is the puncture's on both routes
    path = write_data(tmp_path, "tenth", [0.1, "inf"], "1/(z-0.1)", "z", "1")
    cli = Analysis(_load_data(str(path)))
    h, g1, g2 = (parse_expression(text) for text in ("1/(z-0.1)", "z", "1"))
    lib = Analysis(WeierstrassData(h=h, g1=g1, g2=g2, punctures=(0.1, "inf")))
    for an in (cli, lib):
        assert [(rec.mu, rec.metric_exponent) for rec in an.ends.records] == [(1, -1), (1, -2)]
        assert an.regularity.ok and an.regularity.checked_points == ()
    assert cli.ends == lib.ends


def test_the_pole_table_root_finds_only_the_poles_and_each_piece_once(record_calls):
    # h's zeros at +-i sqrt(2) are located for regularity, never for the
    # pole table that the periods and the mesh read
    located = record_calls(roots, "roots_with_multiplicity")
    data = WeierstrassData(
        h=parse_expression("(z^2+2)/((z-1)*(z-2)*(z+3))"),
        g1=parse_expression("z"),
        g2=parse_expression("z"),
        punctures=("1", "2", "inf"),
    )
    an = Analysis(data)
    assert an.singular_points == (1, 2, -3)
    an.principal_parts
    assert [call[0] for call in located] == [((3, 0), (1, 0))]
    an.regularity
    an.ends
    assert [call[0] for call in located] == [((3, 0), (1, 0)), ((2, 0), (0, 0), (1, 0))]
