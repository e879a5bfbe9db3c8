"""One command derives each invariant of a data set once.

Every test counts calls to the derivation functions while one CLI command
runs, through the ``record_calls`` fixture of ``conftest.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import wlab.cli
from wlab import ramification, roots, weierstrass
from wlab.analysis import Analysis, PoleTableError
from wlab.cli import _load_data
from wlab.exprparse import parse_expression
from wlab.rational import RationalFunction
from wlab.weierstrass import UnsupportedGenusError, WeierstrassData, phi_from_data

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
REPORT_FIXTURES = [
    "example21",
    "example22",
    "example23",
    "irregular",
    "unicity_five_a",
    "unicity_five_b",
    "unicity_six_a",
    "unicity_six_b",
]
DERIVATIONS = (
    (weierstrass, "phi_from_data"),
    (weierstrass, "check_conformality"),
    (weierstrass, "check_regularity"),
    (weierstrass, "classify_ends"),
    (weierstrass, "compute_periods"),
)
# root-finding calls of one ``report``: h's numerator and each distinct
# denominator of h, g1 and g2 that is not constant (the Gauss maps of the
# fixtures have constant Wronskians)
REPORT_ROOT_CALLS = {
    "example21": 1,
    "example22": 1,
    "example23": 1,
    "irregular": 1,
    "unicity_five_a": 1,
    "unicity_five_b": 2,
    "unicity_six_a": 1,
    "unicity_six_b": 2,
}


def run(capsys, *argv: str) -> int:
    code = wlab.cli.main(list(argv))
    capsys.readouterr()
    return code


@pytest.mark.parametrize("name", REPORT_FIXTURES)
def test_report_derives_each_invariant_once(record_calls, capsys, name):
    derived = {fn: record_calls(mod, fn) for mod, fn in DERIVATIONS}
    ramified = record_calls(ramification, "ramification_report")
    located = record_calls(roots, "roots_with_multiplicity")

    code = run(capsys, "report", str(FIXTURES / f"{name}.json"))

    assert code in (0, 2)
    for fn, calls in derived.items():
        assert len(calls) == 1, fn
    components = [call[0] for call in ramified]
    assert len(components) <= 2
    assert all(not g.is_constant for g in components)
    assert len({(g.num.coeffs, g.den.coeffs) for g in components}) == len(components)
    polys = [call[0].coeffs for call in located]
    assert len(polys) == len(set(polys)) == REPORT_ROOT_CALLS[name]
    d = _load_data(str(FIXTURES / f"{name}.json"))
    allowed = {d.h.num.coeffs, d.h.den.coeffs, d.g1.den.coeffs, d.g2.den.coeffs}
    allowed |= {g.derivative_numerator().coeffs for g in (d.g1, d.g2) if not g.is_constant}
    assert set(polys) <= allowed
    # a φ-form's own denominator is never root-found
    assert not set(polys) & {f.den.coeffs for f in phi_from_data(d).forms} - allowed


@pytest.mark.parametrize("name", ["example21", "unicity_six_a", "unicity_six_b"])
def test_equal_components_share_one_ramification_report(record_calls, capsys, name):
    ramified = record_calls(ramification, "ramification_report")

    code = run(capsys, "report", str(FIXTURES / f"{name}.json"))

    assert code in (0, 2)
    assert len(ramified) == 1


# root-finding calls of one ``unicity`` on a fixture pair: the two analyses'
# own, the numerator of gA - gB once per distinct component pair, and the
# fibres of the candidate values
UNICITY_ROOT_CALLS = {"five": 14, "six": 14}


@pytest.mark.parametrize("pair", sorted(UNICITY_ROOT_CALLS))
def test_unicity_locates_each_difference_numerator_once(record_calls, capsys, pair):
    located = record_calls(roots, "roots_with_multiplicity")
    paths = [str(FIXTURES / f"unicity_{pair}_{side}.json") for side in "ab"]

    code = run(capsys, "unicity", *paths)

    assert code == 0
    assert len(located) == UNICITY_ROOT_CALLS[pair]
    a, b = (_load_data(p) for p in paths)
    diff = (a.g1 - b.g1).num.coeffs
    assert [call[0].coeffs for call in located].count(diff) == 1


def test_a_pole_missing_from_the_table_is_a_typed_failure():
    an = Analysis(_load_data(str(FIXTURES / "example21.json")))
    # drop the pole at 3 from the located points
    an.__dict__["singular_points"] = an.singular_points[:-1]
    with pytest.raises(PoleTableError, match="total order 2, but its denominator has degree 3"):
        an.principal_parts
    assert issubclass(PoleTableError, ArithmeticError)


def test_ramify_derives_only_its_own_component(record_calls, capsys):
    derived = {fn: record_calls(mod, fn) for mod, fn in DERIVATIONS}
    ramified = record_calls(ramification, "ramification_report")

    code = run(capsys, "ramify", str(FIXTURES / "example21.json"), "--component", "2")

    assert code == 0
    assert derived["phi_from_data"] == [] and derived["compute_periods"] == []
    assert len(ramified) == 1


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
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"genus": 0, "punctures": punctures, "h": "1", "g1": g, "g2": "0"}))
    located = record_calls(roots, "roots_with_multiplicity")
    fibers = record_calls(ramification, "preimages")

    code = run(capsys, "ramify", str(path), "--component", "1")

    assert code == 0
    w = parse_expression(g).derivative_numerator()
    assert [call[0].coeffs for call in located] == ([w.coeffs] if w.degree >= 1 else [])
    assert fibers == []


@pytest.mark.parametrize(
    "name, region, base",
    [("example23", "annulus:0,0,0.5,2", "1,0"), ("example21", "rect:-0.5,0.5,-0.5,0.5", "0,0.25")],
)
def test_mesh_derives_phi_and_periods_once(record_calls, capsys, tmp_path, name, region, base):
    derived = {fn: record_calls(mod, fn) for mod, fn in DERIVATIONS}

    code = run(
        capsys, "mesh", str(FIXTURES / f"{name}.json"), "--region", region,
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
