"""One command derives each invariant of a data set once.

Every test counts calls to the derivation functions while one CLI command
runs.  The counting wrapper is bound into every ``wlab`` module that holds
the function, so a call is seen whichever module makes it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import wlab.cli
from wlab import ramification, roots, weierstrass
from wlab.analysis import Analysis
from wlab.exprparse import parse_expression
from wlab.rational import RationalFunction
from wlab.weierstrass import UnsupportedGenusError, WeierstrassData

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


def record_calls(monkeypatch, module, name: str) -> list[tuple]:
    """Positional arguments of every call to ``module.name`` from now on."""
    original = getattr(module, name)
    calls: list[tuple] = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname == "wlab" or modname.startswith("wlab."):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def run(capsys, *argv: str) -> int:
    code = wlab.cli.main(list(argv))
    capsys.readouterr()
    return code


@pytest.mark.parametrize("name", REPORT_FIXTURES)
def test_report_derives_each_invariant_once(monkeypatch, capsys, name):
    derived = {fn: record_calls(monkeypatch, mod, fn) for mod, fn in DERIVATIONS}
    ramified = record_calls(monkeypatch, ramification, "ramification_report")
    located = record_calls(monkeypatch, roots, "roots_with_multiplicity")

    code = run(capsys, "report", str(FIXTURES / f"{name}.json"))

    assert code in (0, 2)
    for fn, calls in derived.items():
        assert len(calls) == 1, fn
    components = [call[0] for call in ramified]
    assert len(components) <= 2
    assert all(not g.is_constant for g in components)
    assert len({id(g) for g in components}) == len(components)
    distinct = {call[0].coeffs for call in located}
    # h's denominator is located by check_regularity and again by compute_periods
    assert len(located) <= len(distinct) + 1


def test_ramify_derives_only_its_own_component(monkeypatch, capsys):
    derived = {fn: record_calls(monkeypatch, mod, fn) for mod, fn in DERIVATIONS}
    ramified = record_calls(monkeypatch, ramification, "ramification_report")

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
def test_ramify_locates_the_wronskian_once(monkeypatch, capsys, tmp_path, g, punctures):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({"genus": 0, "punctures": punctures, "h": "1", "g1": g, "g2": "0"}))
    located = record_calls(monkeypatch, roots, "roots_with_multiplicity")
    fibers = record_calls(monkeypatch, ramification, "preimages")

    code = run(capsys, "ramify", str(path), "--component", "1")

    assert code == 0
    w = parse_expression(g).derivative_numerator()
    assert [call[0].coeffs for call in located] == ([w.coeffs] if w.degree >= 1 else [])
    assert fibers == []


@pytest.mark.parametrize(
    "name, region, base",
    [("example23", "annulus:0,0,0.5,2", "1,0"), ("example21", "rect:-0.5,0.5,-0.5,0.5", "0,0.25")],
)
def test_mesh_derives_phi_and_periods_once(monkeypatch, capsys, tmp_path, name, region, base):
    derived = {fn: record_calls(monkeypatch, mod, fn) for mod, fn in DERIVATIONS}

    code = run(
        capsys, "mesh", str(FIXTURES / f"{name}.json"), "--region", region,
        f"--base={base}", "--res", "9", "--mesh-out", str(tmp_path / "m.csv"),
    )

    assert code == 0
    assert len(derived["phi_from_data"]) == 1
    assert len(derived["compute_periods"]) == 1


def test_analysis_is_lazy_and_keeps_what_it_derived(monkeypatch):
    z = RationalFunction.variable()
    data = WeierstrassData(h=1 / ((z - 1) * (z - 2) * (z - 3)), g1=z, g2=z, punctures=("1", "2", "3", "inf"))
    phi_calls = record_calls(monkeypatch, weierstrass, "phi_from_data")
    periods_calls = record_calls(monkeypatch, weierstrass, "compute_periods")

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
