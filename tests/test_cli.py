"""Exit codes, document shape, and flag handling of the command-line front end.

Every test drives ``wlab.cli.main`` in-process with an explicit argv list;
one test at the end goes through ``python -m wlab.cli`` to cover the module
entry point itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wlab.cli
import wlab.poly
import wlab.roots
from wlab.analysis import Analysis
from wlab.cli import EXIT_MATH, EXIT_OK, EXIT_USAGE, _load_data, main
from wlab.tolerances import Tolerances

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def run(capsys, *argv: str) -> tuple[int, dict | None, str]:
    """Invoke main(), returning (exit code, parsed stdout document, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


# -- document envelope ------------------------------------------------------


def test_document_envelope_fields(capsys):
    code, doc, _ = run(capsys, "check", fixture("example23"))
    assert code == EXIT_OK
    assert doc["schema"] == 2
    assert doc["command"] == "check"
    assert doc["label"] == "twice-punctured sphere with a removable puncture at infinity"
    assert doc["tolerance_scale"] == 1.0
    assert set(doc) == {"schema", "command", "label", "tolerance_scale", "report"}


def test_seed_flag_is_gone_and_tolerance_scale_is_recorded(capsys):
    code, doc, err = run(capsys, "check", fixture("example23"), "--seed", "7")
    assert code == EXIT_USAGE and doc is None and "--seed" in err
    code, doc, _ = run(capsys, "check", fixture("example23"), "--tolerance-scale", "10")
    assert code == EXIT_OK
    assert doc["tolerance_scale"] == 10.0


@pytest.mark.parametrize("scale", ["nan", "inf", "0"])
def test_non_finite_or_zero_tolerance_scale_is_a_usage_error(capsys, scale):
    code, doc, err = run(capsys, "check", fixture("example23"), "--tolerance-scale", scale)
    assert code == EXIT_USAGE and doc is None and "positive and finite" in err


def test_environment_does_not_change_the_document(capsys, monkeypatch, tmp_path):
    # g1 is z - 1 over z - 1 - 1e-9: a degree-1 map, read exactly; no
    # variable in the environment makes it constant
    path = tmp_path / "near_constant.json"
    path.write_text(
        json.dumps(
            {"genus": 0, "punctures": ["inf"], "h": "1", "g1": "(z-1)/(z-1.000000001)", "g2": "z"}
        )
    )
    monkeypatch.delenv("WLAB_TOLERANCE_SCALE", raising=False)
    for flags in ([], ["--tolerance-scale", "1"]):
        code, doc, _ = run(capsys, "ramify", str(path), *flags)
        assert code == EXIT_OK and doc["report"]["ramification"]["degree"] == 1
        monkeypatch.setenv("WLAB_TOLERANCE_SCALE", "1e-4")
        assert run(capsys, "ramify", str(path), *flags) == (code, doc, "")
        monkeypatch.delenv("WLAB_TOLERANCE_SCALE")


def test_out_flag_writes_file_and_silences_stdout(capsys, tmp_path):
    out = tmp_path / "doc.json"
    code, doc, _ = run(capsys, "check", fixture("example23"), "--out", str(out))
    assert code == EXIT_OK
    assert doc is None  # nothing on stdout
    on_disk = json.loads(out.read_text())
    assert on_disk["command"] == "check"


# -- check ------------------------------------------------------------------


def test_check_failed_period_exits_math(capsys):
    code, doc, _ = run(capsys, "check", fixture("example21"))
    assert code == EXIT_MATH
    rep = doc["report"]
    assert rep["failures"] == ["period"]
    assert rep["conformality"]["ok"] is True
    assert rep["regularity"]["ok"] is True
    assert rep["ends"]["complete"] is True


def test_check_removable_puncture_warns_but_passes(capsys):
    code, doc, _ = run(capsys, "check", fixture("example23"))
    assert code == EXIT_OK
    rep = doc["report"]
    assert rep["ok"] is True
    assert rep["warnings"] == ["end at inf is a removable point, not a genuine end"]


def test_check_degenerate_metric_exits_math(capsys):
    code, doc, _ = run(capsys, "check", fixture("irregular"))
    assert code == EXIT_MATH
    assert "regularity" in doc["report"]["failures"]


def test_check_malformed_expression_exits_usage(capsys):
    code, doc, err = run(capsys, "check", fixture("malformed"))
    assert code == EXIT_USAGE
    assert doc is None
    assert "position" in err


def test_check_missing_file_exits_usage(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
    assert code == EXIT_USAGE
    assert "cannot read" in err


def test_check_rejects_bad_genus_and_missing_fields(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"genus": -1, "punctures": ["inf"], "h": "1", "g1": "z", "g2": "0"}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == EXIT_USAGE and "genus" in err

    bad.write_text('{"genus": 0, "punctures": ["inf"], "h": "1"}')
    code, _, err = run(capsys, "check", str(bad))
    assert code == EXIT_USAGE and "g1" in err and "g2" in err

    bad.write_text("[1, 2, 3]")
    code, _, err = run(capsys, "check", str(bad))
    assert code == EXIT_USAGE and "JSON object" in err


# -- ramify -------------------------------------------------------------------


def test_ramify_reports_totally_ramified_values(capsys):
    code, doc, _ = run(capsys, "ramify", fixture("example21"), "--component", "1")
    assert code == EXIT_OK
    ram = doc["report"]["ramification"]
    assert ram["nu_f"] == {"num": 4, "den": 1, "decimal": 4.0}
    assert ram["exceptional_count"] == 4
    assert ram["rh_ok"] is True


def test_ramify_constant_component_verdict(capsys):
    code, doc, _ = run(capsys, "ramify", fixture("example22"), "--component", "2")
    assert code == EXIT_OK
    assert doc["report"]["verdict"] == "constant component"
    assert doc["report"]["constant_value"] == "0"


def test_ramify_rejects_component_three(capsys):
    code, _, err = run(capsys, "ramify", fixture("example21"), "--component", "3")
    assert code == EXIT_USAGE
    assert "--component" in err


def test_ramify_rejects_a_literal_that_overflows(capsys, tmp_path):
    data = tmp_path / "huge.json"
    data.write_text(json.dumps(
        {"genus": 0, "punctures": ["1", "inf"], "h": "1", "g1": "(z^2+1e400)/(z-1)", "g2": "0"}
    ))
    code, doc, err = run(capsys, "ramify", str(data), "--component", "1")
    assert code == EXIT_USAGE and doc is None
    assert "'1e400' overflows" in err


def test_ramify_rejects_a_literal_below_the_range_of_a_double(capsys, tmp_path):
    # read as 0, the literal would drop the cubic term: degree 2, silently
    data = tmp_path / "tiny.json"
    data.write_text(json.dumps({"genus": 0, "punctures": ["inf"], "h": "1", "g1": "1e-400*z^3 + z^2", "g2": "z"}))
    code, doc, err = run(capsys, "ramify", str(data), "--component", "1")
    assert code == EXIT_USAGE and doc is None
    assert err == f"error: {data}: number '1e-400' underflows a double (at position 0)\n"


def test_nested_powers_past_the_degree_cap_are_a_usage_error(capsys, tmp_path):
    # each operand is within the degree cap; the result would have degree 262,144
    data = tmp_path / "nested.json"
    data.write_text(json.dumps({"genus": 0, "punctures": ["inf"], "h": "1", "g1": "((z^64)^64)^64", "g2": "z"}))
    code, doc, err = run(capsys, "ramify", str(data), "--component", "1")
    assert code == EXIT_USAGE and doc is None
    assert err == (
        f"error: {data}: degree overflow: the result can reach degree 262144 > 4096 (at position 11)\n"
    )


@pytest.mark.parametrize(
    "g1, message",
    [
        ("(" * 400 + "z" + ")" * 400, "nesting deeper than 200 levels (at position 200)"),
        ("-" * 1200 + "z", "nesting deeper than 200 levels (at position 200)"),
        ("0" * 5000 + "1*z", "number of more than 4300 characters (at position 0)"),
        ("z + 0." + "0" * 5000 + "1", "number of more than 4300 characters (at position 4)"),
    ],
    ids=["parentheses", "unary-minuses", "integer-literal", "decimal-literal"],
)
def test_deep_nesting_and_long_literals_are_input_errors_at_their_position(capsys, tmp_path, g1, message):
    # nesting past Python's recursion limit once failed as a RecursionError,
    # and a literal past its int conversion limit as Python's message
    data = tmp_path / "deep.json"
    data.write_text(json.dumps({"genus": 0, "punctures": ["inf"], "h": "1", "g1": g1, "g2": "z"}))
    code, doc, err = run(capsys, "check", str(data))
    assert code == EXIT_USAGE and doc is None
    assert err == f"error: {data}: {message}\n"


@pytest.mark.parametrize("g1", ["z + 1e200^2", "z/(1e200)^-2", "(1e200*z)^2"])
@pytest.mark.parametrize("command", ["check", "ramify"])
def test_a_coefficient_that_overflows_is_a_usage_error(capsys, tmp_path, command, g1):
    data = tmp_path / "huge.json"
    data.write_text(json.dumps({"genus": 0, "punctures": ["inf"], "h": "1", "g1": g1, "g2": "z"}))
    code, doc, err = run(capsys, command, str(data))
    assert code == EXIT_USAGE and doc is None
    assert err == f"error: {data}: a coefficient is beyond the range of a double\n"


# two degree-32 ladder maps A^m / B: float square-free layers of their
# Wronskians failed typed (ExactDivisionError for m = 2, RootCrossCheckError
# for m = 4, whose Aberth iteration once returned NaN for every root)
DEGREE_32_POWERS = {
    2: (
        "-z^16 + 7*z^15 + 2*z^14 + 9*z^13 - 9*z^12 - 5*z^11 + 5*z^9 - 9*z^8 - 3*z^7"
        " + 8*z^6 + 4*z^5 - 7*z^4 + 9*z^3 + 7*z^2 + 2*z - 8",
        "-6*z^32 - 5*z^31 + z^30 - z^29 + 6*z^28 - 9*z^27 - 9*z^26 - 2*z^25 + 3*z^23 + 8*z^22 - z^21 - 5*z^20"
        " + 4*z^19 - 8*z^18 + 3*z^17 - z^16 + 5*z^15 + 6*z^14 + 9*z^13 + z^12 + 9*z^11"
        " - 9*z^10 - 6*z^9 + 9*z^8 + 5*z^7 + 5*z^6 + 3*z^5 + 2*z^4 + z^3 + 7*z^2 - 2*z - 7",
    ),
    4: (
        "z^8 - 8*z^7 + 9*z^6 + 2*z^4 - z^3 + 7*z^2 - 7*z - 6",
        "4*z^32 + 4*z^31 - 2*z^30 - 7*z^29 + 2*z^28 - 6*z^27 + 2*z^26 + 3*z^25 + 5*z^24 + 6*z^22 - z^21"
        " - 5*z^20 - 2*z^19 - 4*z^18 + 3*z^17 - 3*z^16 - 8*z^15 + 3*z^14 - 6*z^13 - z^12 - 4*z^11 - 9*z^10"
        " - 5*z^9 + 2*z^8 + 9*z^7 - 2*z^6 - 7*z^5 - 2*z^4 + z^3 - 3*z^2 - 9*z + 3",
    ),
}


def degree_32_power(tmp_path, m: int) -> str:
    base, den = DEGREE_32_POWERS[m]
    return write_data(tmp_path, "ladder", ["inf"], "1", "z", f"({base})^{m}/({den})")


@pytest.mark.parametrize("m", sorted(DEGREE_32_POWERS))
def test_degree_32_powers_ramify_exactly(capsys, tmp_path, time_limit, m):
    # 0 is totally ramified with nu = m over the roots of A, within the
    # ladders' 2 s; the exact Yun chain needs its primitive gcds for m = 4
    sympy = pytest.importorskip("sympy")
    path = degree_32_power(tmp_path, m)
    with time_limit(2.0):
        code, doc, err = run(capsys, "ramify", path, "--component", "2")
    assert code == EXIT_OK and err == ""
    zero = [v for v in doc["report"]["ramification"]["values"] if v["value"] == {"re": 0.0, "im": 0.0}]
    assert [(v["kind"], v["nu"]) for v in zero] == [("totally-ramified", m)]
    base = DEGREE_32_POWERS[m][0].replace("^", "**")
    exact_roots = [complex(r) for r in sympy.Poly(sympy.sympify(base)).nroots(n=30)]
    points = [complex(p["point"]["re"], p["point"]["im"]) for p in zero[0]["preimages"]]
    assert [p["multiplicity"] for p in zero[0]["preimages"]] == [m] * len(exact_roots)
    assert len(points) == len(exact_roots)
    for z in points:
        assert min(abs(z - r) for r in exact_roots) < 1e-11


def test_ramify_non_finite_roots_are_a_typed_math_failure(capsys, tmp_path, monkeypatch):
    # an Aberth iteration that returns NaN fails root isolation: a
    # numerical failure (exit 2), not bad input
    monkeypatch.setattr(wlab.roots, "_aberth", lambda p: np.full(p.degree, np.nan + 0j))
    code, doc, err = run(capsys, "ramify", degree_32_power(tmp_path, 4), "--component", "2")
    assert code == EXIT_MATH and doc is None
    assert err.startswith("failure: RootIsolationError: ")


def test_ramify_residual_bound_of_a_far_root_of_high_degree_stays_in_range(capsys, tmp_path):
    # (1 + 300)^128 is beyond a double: the residual bound of the root 300 of
    # the degree-128 zeros part raised a raw OverflowError
    g1 = "(z-300)^2*(z-1)^64*(z-1)^64/((z-299)^2*(z+1)^64*(z+1)^64)"
    path = write_data(tmp_path, "far_root", ["inf"], "1", g1, "z")
    code, doc, err = run(capsys, "ramify", path, "--component", "1")
    assert code == EXIT_OK and err == ""
    report = doc["report"]["ramification"]
    assert (report["n1"], report["rh_ok"], report["exceptional_count"]) == (258, True, 0)
    fibers = {
        "inf" if v["value"] == "inf" else complex(v["value"]["re"], v["value"]["im"]): (
            v["kind"], v["nu"], [(complex(p["point"]["re"], p["point"]["im"]), p["multiplicity"]) for p in v["preimages"]]
        )
        for v in report["values"]
    }
    assert fibers == {
        0j: ("totally-ramified", 2, [(1 + 0j, 128), (300 + 0j, 2)]),
        "inf": ("totally-ramified", 2, [(-1 + 0j, 128), (299 + 0j, 2)]),
    }


# -- bounds -------------------------------------------------------------------


def test_bounds_concrete_sharp_fixture(capsys):
    code, doc, _ = run(capsys, "bounds", fixture("example21"))
    assert code == EXIT_OK
    b = doc["report"]["bounds"]
    assert b["R1"] == {"num": 1, "den": 2, "decimal": 0.5}
    assert b["joint_bound_equality"] is True
    assert b["contradiction"] is False
    assert doc["report"]["corollary"] == "consistent, at the sharp boundary"


def test_bounds_abstract_consistent_and_contradictory(capsys):
    code, doc, _ = run(capsys, "bounds", "--abstract", "0", "4", "1", "1", "--nu1", "4", "--nu2", "4")
    assert code == EXIT_OK
    assert doc["report"]["bounds"]["mode"] == "abstract"

    code, doc, _ = run(capsys, "bounds", "--abstract", "0", "4", "1", "1", "--nu1", "5", "--nu2", "5")
    assert code == EXIT_MATH
    assert doc["report"]["bounds"]["contradiction"] is True


def test_bounds_abstract_accepts_fractional_nu(capsys):
    code, doc, _ = run(
        capsys, "bounds", "--abstract", "0", "3", "1", "0", "--nu1", "5/2", "--mu", "1,1,1"
    )
    assert code == EXIT_OK
    assert doc["report"]["bounds"]["nu_g1"] == {"num": 5, "den": 2, "decimal": 2.5}


def test_bounds_requires_exactly_one_input_mode(capsys):
    code, _, err = run(capsys, "bounds")
    assert code == EXIT_USAGE and "required" in err
    code, _, err = run(capsys, "bounds", fixture("example21"), "--abstract", "0", "4", "1", "1")
    assert code == EXIT_USAGE and "not both" in err


def test_bounds_rejects_malformed_nu_and_mu(capsys):
    code, _, err = run(capsys, "bounds", "--abstract", "0", "4", "1", "1", "--nu1", "two")
    assert code == EXIT_USAGE and "--nu1" in err
    code, _, err = run(capsys, "bounds", "--abstract", "0", "4", "1", "1", "--mu", "1,x")
    assert code == EXIT_USAGE and "--mu" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # printed as a decimal, 10^400 leaves the range of a double
        pytest.param(
            ("0", "4", "1", "1", "--nu1", "1e400"), "nu1 must have a numerator and denominator below 2^1000", id="nu-1e400"
        ),
        pytest.param(("0", str(10**400), "1", "1"), "k must be below 2^1000", id="k-10^400"),
        # nu counts values, so it is never negative
        pytest.param(("0", "4", "1", "1", "--nu1", "-1"), "nu1 must be non-negative", id="nu-negative"),
        # refused before Fraction multiplies the exponent out
        pytest.param(("0", "4", "1", "1", "--nu1", "1e999999999"), "--nu1 must have a numerator", id="nu-long-exponent"),
    ],
)
def test_bounds_abstract_refuses_invariants_out_of_range(capsys, argv, message):
    code, doc, err = run(capsys, "bounds", "--abstract", *argv)
    assert code == EXIT_USAGE and doc is None
    assert message in err and "failure" not in err


@pytest.mark.parametrize("degrees", [("1", "0"), ("0", "0")])
def test_bounds_abstract_rejects_mu_of_the_wrong_length(capsys, degrees):
    code, doc, err = run(capsys, "bounds", "--abstract", "0", "3", *degrees, "--mu", "2,2")
    assert code == EXIT_USAGE and doc is None
    assert "mu must list one pole order per puncture" in err


def test_bounds_abstract_flat_data_ignores_a_well_formed_mu(capsys):
    code, doc, _ = run(capsys, "bounds", "--abstract", "0", "3", "0", "0", "--mu", "2,2,2")
    assert code == EXIT_OK
    assert doc["report"]["bounds"]["case"] == "flat" and doc["report"]["bounds"]["mu"] is None


# -- unicity ------------------------------------------------------------------


def test_unicity_pair_document(capsys):
    code, doc, _ = run(capsys, "unicity", fixture("unicity_six_a"), fixture("unicity_six_b"))
    assert code == EXIT_OK
    u = doc["report"]["unicity"]
    assert u["p"] == 6 and u["q"] == 6
    assert u["contradiction"] is False
    assert doc["label"] == "shared-value pair, first member (g = z, z) vs shared-value pair, second member (g = 1/z, 1/z)"


def test_unicity_mismatched_inputs_exit_usage(capsys):
    code, _, err = run(capsys, "unicity", fixture("unicity_six_a"), fixture("example22"))
    assert code == EXIT_USAGE
    assert err.startswith("error:")


# -- mesh ---------------------------------------------------------------------


def test_mesh_writes_csv_and_summary(capsys, tmp_path):
    out = tmp_path / "m.csv"
    code, doc, _ = run(
        capsys,
        "mesh",
        fixture("example23"),
        "--region", "annulus:0,0,0.5,2",
        "--res", "9,17",
        "--base", "1,0",
        "--mesh-out", str(out),
    )
    assert code == EXIT_OK
    header = out.read_text().splitlines()[0]
    assert header == "re_z,im_z,x1,x2,x3,x4,metric_factor,gauss_curvature"
    rep = doc["report"]
    assert rep["vertices"] == 9 * 17
    assert rep["included"] == rep["vertices"]
    assert rep["universal_cover_patch"] is False


def test_mesh_obj_projection(capsys, tmp_path):
    out = tmp_path / "m.obj"
    code, doc, _ = run(
        capsys,
        "mesh",
        fixture("example23"),
        "--region", "annulus:0,0,0.5,2",
        "--res", "5,9",
        "--base", "1,0",
        "--format", "obj-3d",
        "--project", "1,3,4",
        "--mesh-out", str(out),
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert all(line.split()[0] in ("v", "f") for line in lines)
    assert sum(1 for line in lines if line.startswith("f ")) == 2 * 4 * 8


def test_mesh_usage_errors(capsys, tmp_path):
    out = str(tmp_path / "m.csv")
    base = ["mesh", fixture("example23"), "--base", "1,0", "--mesh-out", out]
    code, _, err = run(capsys, *base, "--region", "blob:1,2")
    assert code == EXIT_USAGE and "--region" in err
    code, _, err = run(capsys, *base, "--region", "rect:-1,1,-1,1", "--res", "1,2,3")
    assert code == EXIT_USAGE and "--res" in err
    code, _, err = run(capsys, *base, "--region", "rect:-1,1,-1,1", "--project", "1,2,5",
                       "--format", "obj-3d")
    assert code == EXIT_USAGE and "--project" in err
    for region in ("rect:-inf,inf,-1,1", "annulus:0,0,0.5,nan"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(capsys, *base, "--region", region)
        assert code == EXIT_USAGE and "must be finite" in err
    # base point outside the region is an input error, not a math failure
    code, _, err = run(capsys, "mesh", fixture("example23"), "--region", "rect:1,2,1,2",
                       "--base", "-5,0", "--mesh-out", out)
    assert code == EXIT_USAGE


def test_mesh_quadrature_breakdown_exits_math(monkeypatch, capsys, tmp_path):
    """A pole on a grid line, left unfenced, defeats the adaptive edge rule."""
    bad = tmp_path / "onaxis.json"
    bad.write_text(
        json.dumps(
            {
                "genus": 0,
                "punctures": ["inf"],
                "h": "1",
                "g1": "1/(z-1/10)",
                "g2": "0",
            }
        )
    )
    bare = replace(Tolerances(), mesh_exclusion_factor=0.0)
    monkeypatch.setattr(wlab.cli, "_tolerances", lambda args: (bare, 1.0))
    # at 9 x 9 every face is sampled, so the edge (0, 0.25) through the pole
    # at 0.1 reaches the quadrature check before the closed form's path check
    code, _, err = run(
        capsys,
        "mesh", str(bad),
        "--region", "rect:-1,1,-1,1",
        "--res", "9",
        "--base=-1,0",
        "--mesh-out", str(tmp_path / "m.csv"),
    )
    assert code == EXIT_MATH
    assert "QuadratureConvergenceError" in err


def huge_h_data(tmp_path, h: str) -> str:
    data = tmp_path / "huge.json"
    data.write_text(json.dumps({"genus": 0, "punctures": ["inf"], "h": h, "g1": "z", "g2": "0"}))
    return str(data)


def test_forms_beyond_a_double_keep_their_document(capsys, tmp_path):
    # (h/2)^2 is beyond a double, but sum(phi_k^2) = 0 holds by construction
    # and is never summed in floats: each document is written, with no NaN
    for h in ("1e160", "1e300"):
        for command in ("check", "report", "bounds"):
            code = main([command, huge_h_data(tmp_path, h)])
            captured = capsys.readouterr()
            assert code == EXIT_OK and captured.err == "", (h, command)
            assert "nan" not in captured.out


def test_forms_near_the_double_limit_keep_their_document(capsys, tmp_path):
    code, doc, _ = run(capsys, "check", huge_h_data(tmp_path, "1e150"))
    assert code == EXIT_OK
    assert doc["report"]["conformality"]["ok"] is True
    assert doc["report"]["conformality"]["samples"] == 100


MESH_NEAR_ORIGIN = ("--region", "rect:-1,1,-1,1", "--base=0,0", "--res", "5")


def test_mesh_metric_beyond_a_double_fails_typed(capsys, tmp_path):
    # lambda^2 ~ 1e320 at the base point: a typed failure, not OverflowError
    out = tmp_path / "m.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc, err = run(
            capsys, "mesh", huge_h_data(tmp_path, "1e160"), *MESH_NEAR_ORIGIN, "--mesh-out", str(out)
        )
    assert code == EXIT_MATH and doc is None
    assert err.startswith("failure: MetricOverflowError: the metric factor at 0j")
    assert not out.exists()


def test_mesh_near_the_double_limit_keeps_its_file(capsys, tmp_path):
    out = tmp_path / "m.csv"
    code, doc, err = run(
        capsys, "mesh", huge_h_data(tmp_path, "1e150"), *MESH_NEAR_ORIGIN, "--mesh-out", str(out)
    )
    assert code == EXIT_OK and err == ""
    summary = doc["report"]
    assert (summary["vertices"], summary["included"], summary["faces"]) == (25, 25, 16)
    assert summary["universal_cover_patch"] is False
    text = out.read_text()
    assert text.splitlines()[1] == "-1,-1,-5e+149,5e+149,0,5e+149,7.5e+299,0"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "e3c9bdebbeb1862b7daafce4761f16a06e1add7e5d24a03612131f5c54998e34"
    )


def test_mesh_refuses_a_form_pole_on_a_quadratic_piece(capsys, tmp_path):
    # g1's poles at -i and i are not balanced by h = 1, so the data is not
    # regular; their principal parts have no exact value, so the mesh refuses
    # the data, while check and report print the two violations
    data = tmp_path / "quadratic.json"
    data.write_text(json.dumps({"genus": 0, "punctures": ["inf"], "h": "1", "g1": "1/(z^2+1)", "g2": "0"}))
    out = tmp_path / "m.csv"
    code, doc, err = run(
        capsys, "mesh", str(data), "--region", "rect:-2,2,-2,2", "--res", "9", "--base=-2,-2", "--mesh-out", str(out)
    )
    assert code == EXIT_MATH and doc is None
    assert err.startswith("failure: PoleTableError: the data is not regular: a phi-form has a pole at ")
    assert err.endswith(", a root of a degree-2 piece off the punctures\n")
    assert not out.exists()
    for command in ("check", "report"):
        code, doc, err = run(capsys, command, str(data))
        assert code == EXIT_MATH and err == ""
        body = doc["report"] if command == "check" else doc["report"]["check"]
        assert body["failures"] == ["regularity"] and len(body["regularity"]["violations"]) == 2
        assert body["periods"]["residue_sums"] == [{"re": 0.0, "im": 0.0}] * 4


def test_check_exact_residue_at_infinity(capsys, tmp_path):
    # the residue of phi_1 at inf is exactly -7/2; a float gcd route once
    # gave -3.49998 and failed the global residue cross-check
    data = tmp_path / "triple.json"
    data.write_text(json.dumps({
        "genus": 0,
        "punctures": ["inf", "0", "1"],
        "h": "(-z^2-2*z+1)/(z^3-z^2+2*z-1)",
        "g1": "-z^3+z^2-2*z+3",
        "g2": "(-2*z^2-2)/(z-1)",
    }))
    code, doc, err = run(capsys, "check", str(data))
    assert doc is not None and "ResidueQuadratureError" not in err
    periods = doc["report"]["periods"]
    assert periods["entries"][0]["puncture"] == "inf"
    assert periods["entries"][0]["residues"][0] == {"re": -3.5, "im": 0.0}
    assert periods["max_cross_check_error"] == 0.0


# -- report ---------------------------------------------------------------------


def test_report_bundles_all_sections(capsys):
    code, doc, _ = run(capsys, "report", fixture("example23"))
    assert code == EXIT_OK
    rep = doc["report"]
    assert set(rep) == {"check", "ramification", "bounds", "corollary", "curvature"}
    assert rep["curvature"]["routes_agree"] is True
    assert rep["ramification"]["g2"]["verdict"] == "constant component"


def test_report_prints_the_closed_form_total_curvature(capsys, tmp_path):
    # -2 pi (5 + 3) by identity; a quadrature of it printed -50.2655429636
    path = write_data(tmp_path, "degree_eight", ["inf"], "1", "z^5+2*z+i", "z^3-1")
    code, doc, _ = run(capsys, "report", path)
    assert code == EXIT_OK
    curvature = doc["report"]["curvature"]
    assert curvature["closed_form"]["basic_domain_value"] == -50.2654824574
    assert curvature["quadrature_value"] == curvature["closed_form"]["basic_domain_value"]
    assert curvature["routes_agree"] is True


def test_report_propagates_check_failure(capsys):
    code, doc, _ = run(capsys, "report", fixture("example21"))
    assert code == EXIT_MATH
    assert doc["report"]["check"]["failures"] == ["period"]


def test_reports_are_byte_identical_between_runs(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["report", fixture("example22"), "--out", str(first)]) == EXIT_MATH
    assert main(["report", fixture("example22"), "--out", str(second)]) == EXIT_MATH
    assert first.read_bytes() == second.read_bytes()


def test_degree_64_map_solves_without_warnings(capsys, tmp_path, time_limit):
    # the Cauchy-circle start once stalled the iteration on this map's
    # Wronskian, overflowed np.polyval, and fed NaN into the gcd chain
    rng = random.Random(1)

    def poly():
        coeffs = [rng.choice([c for c in range(-9, 10) if c or k < 64]) for k in range(65)]
        return " + ".join(f"({c})*z^{k}" for k, c in enumerate(coeffs))

    path = tmp_path / "d64.json"
    path.write_text(
        json.dumps({"genus": 0, "punctures": ["inf"], "h": "1", "g1": f"({poly()})/({poly()})", "g2": "1"})
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with time_limit(20.0):
            code, doc, err = run(capsys, "ramify", str(path))
    assert code == EXIT_OK and err == ""
    ram = doc["report"]["ramification"]
    assert ram["n1"] == 126 and ram["rh_ok"] is True



def _bench_random_poly(rng: random.Random, degree: int) -> list[int]:
    """The bench ladders' generator: integer coefficients in [-9, 9], lowest
    degree first, nonzero leading term."""
    coeffs = [rng.randint(-9, 9) for _ in range(degree + 1)]
    while coeffs[-1] == 0:
        coeffs[-1] = rng.randint(-9, 9)
    return coeffs


def test_a_non_finite_aberth_iterate_stops_the_iteration_without_a_warning(capsys, tmp_path, record_calls):
    # regular data at d = 128: Aberth's iterates on a Wronskian factor of
    # degree 254 leave the range of a double; the iteration stops there with
    # RootIsolationError, as the correction would spread a NaN to every
    # iterate, so the evaluator never sees one, and no numpy RuntimeWarning
    # is raised on the way
    rng = random.Random(128)
    n1, d1, n2, d2 = (" + ".join(f"({c})*z^{k}" for k, c in enumerate(_bench_random_poly(rng, 128))) for _ in range(4))
    path = write_data(tmp_path, "d128", ["inf"], f"({d1})*({d2})", f"({n1})/({d1})", f"({n2})/({d2})")
    evaluated = record_calls(wlab.poly, "block_values")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, doc, err = run(capsys, "report", path)
    assert code == EXIT_MATH and doc is None
    assert err == "failure: RootIsolationError: root isolation failed: the inclusion discs of 254 roots overlap\n"
    assert evaluated and all(np.isfinite(z).all() for _blocks, z in evaluated)


# -- genus gate -------------------------------------------------------------------


@pytest.mark.parametrize("command", ["check", "ramify", "bounds", "report", "unicity", "mesh"])
def test_every_file_command_rejects_other_genera_as_usage(capsys, tmp_path, command):
    data = tmp_path / "torus.json"
    data.write_text(json.dumps({"genus": 1, "punctures": ["inf"], "h": "1", "g1": "z", "g2": "z"}))
    argv = {
        "check": ["check", str(data)],
        "ramify": ["ramify", str(data), "--component", "2"],
        "bounds": ["bounds", str(data)],
        "report": ["report", str(data)],
        "unicity": ["unicity", str(data), str(data)],
        "mesh": ["mesh", str(data), "--region", "rect:-1,1,-1,1", "--base", "0.5,0.5",
                 "--res", "5", "--mesh-out", str(tmp_path / "torus.csv")],
    }[command]
    code, doc, err = run(capsys, *argv)
    assert code == EXIT_USAGE and doc is None
    assert err.startswith("error: ") and "genus 0" in err


# -- puncture distinctness at the command's eps_pt ---------------------------------


def near_punctures(tmp_path, second: str) -> str:
    """example21's Gauss maps with punctures 0, ``second`` and inf, h dz
    with a double pole at 0 and a simple one at ``second``."""
    data = tmp_path / "near.json"
    data.write_text(json.dumps({
        "genus": 0, "punctures": ["0", second, "inf"],
        "h": f"1/(z^2*(z-{second}))", "g1": "z", "g2": "z",
    }))
    return str(data)


@pytest.mark.parametrize("command", ["check", "ramify", "report"])
def test_punctures_within_the_command_eps_pt_are_a_usage_error(capsys, tmp_path, command):
    # eps_pt is 1e-5 at scale 1000, so 0 and 1e-6 are one point
    path = near_punctures(tmp_path, "1e-6")
    code, doc, err = run(capsys, command, path, "--tolerance-scale", "1000")
    assert code == EXIT_USAGE and doc is None
    assert err == "error: punctures must be pairwise distinct: 0 ~ 1e-06\n"


def test_punctures_apart_at_the_command_eps_pt_are_accepted(capsys, tmp_path):
    # eps_pt is 1e-11 at scale 1e-3, so 0 and 1e-9 are two points; at the
    # default 1e-8 they are one
    path = near_punctures(tmp_path, "1e-9")
    code, doc, err = run(capsys, "ramify", path, "--tolerance-scale", "1e-3")
    assert code == EXIT_OK and err == ""
    assert doc["report"]["ramification"]["rh_ok"] is True
    code, doc, err = run(capsys, "ramify", path)
    assert code == EXIT_USAGE and doc is None
    assert err == "error: punctures must be pairwise distinct: 0 ~ 1e-09\n"
    # the orders are exponents of the punctures' exact linear factors: the
    # double pole at 0 and the simple one at 1e-9 are not read as one triple
    # pole, so no command meets a PoleTableError
    an = Analysis(_load_data(path), Tolerances().scaled(1e-3))
    assert [(str(rec.puncture), rec.mu) for rec in an.ends.records] == [("0", 2), ("1e-09", 1), ("inf", -1)]
    assert len(an.principal_parts) == 2
    # the residues are exact: those of phi_1 at 0 and 1e-9, about -5e17 and
    # 5e17 + 1/2, sum to the 1/2 that balances the -1/2 at infinity, though
    # in doubles they sum to 0; the periods fail, and check exits 2 on that
    bodies = {}
    for command in ("check", "bounds", "report"):
        code, doc, err = run(capsys, command, path, "--tolerance-scale", "1e-3")
        assert code == (EXIT_OK if command == "bounds" else EXIT_MATH) and err == "", err
        bodies[command] = doc["report"]
    periods = bodies["check"]["periods"]
    assert bodies["report"]["check"]["periods"] == periods and periods["period_ok"] is False
    assert periods["entries"][-1]["puncture"] == "inf"
    assert periods["entries"][-1]["residues"] == [
        {"re": -0.5, "im": 0.0}, {"re": 0.0, "im": 0.5}, {"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0},
    ]


def test_a_contour_enclosing_two_poles_is_gone(capsys, tmp_path):
    # the pole 1e-12 from the puncture 1/3 is a point of its own: check
    # reports the regularity violation there, with no typed error from a
    # residue contour around 1/3 that enclosed it
    path = write_data(tmp_path, "third", ["1/3", "inf"], "1/((3*z-1)*(3*z-1-3e-12))", "z", "z")
    code, doc, err = run(capsys, "check", path)
    assert code == EXIT_MATH and err == ""
    body = doc["report"]
    assert body["failures"] == ["regularity", "period"]
    (violation,) = body["regularity"]["violations"]
    assert violation["point"] == {"re": 0.333333333334, "im": 0.0}
    assert violation["form_order"] == -1


# -- spellings that the float canonical form read as other maps ---------------------


def write_data(tmp_path, name: str, punctures, h: str, g1: str, g2: str) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"genus": 0, "punctures": punctures, "h": h, "g1": g1, "g2": g2}))
    return str(path)


def test_a_map_written_in_inverse_powers_keeps_its_degree(capsys, tmp_path):
    # a degree-8 map in powers of 1/z: the float gcd left the common z^7,
    # so ramify reported degree 15 and check failed in the Wronskian layers
    g1 = (
        "(3-2/z-7/z^2+5/z^3+2/z^4-5/z^5-7/z^6-9/z^7+2/z^8)"
        "/(2-9/z-9/z^2-1/z^3+8/z^4+5/z^5+3/z^6+7/z^7+1/z^8)"
    )
    expanded = "(3*z^8-2*z^7-7*z^6+5*z^5+2*z^4-5*z^3-7*z^2-9*z+2)/(2*z^8-9*z^7-9*z^6-z^5+8*z^4+5*z^3+3*z^2+7*z+1)"
    paths = [write_data(tmp_path, name, ["0", "1", "inf"], "1", g, "z") for name, g in (("inv", g1), ("exp", expanded))]
    (code, doc, err), (_, expected, _) = (run(capsys, "ramify", p, "--component", "1") for p in paths)
    assert code == EXIT_OK and err == ""
    assert doc["report"]["ramification"]["degree"] == 8
    assert doc["report"] == expected["report"]
    code, doc, err = run(capsys, "check", paths[0])
    assert code == EXIT_MATH and err == "" and doc["report"]["failures"] == ["regularity", "period"]


@pytest.mark.parametrize(
    "component, punctures, h, spelled, expanded",
    [
        (
            1,
            ["1/3", "1"],
            "-4/((3*z-1)*(z-1))",
            "(2-2*M-4*M^2+3*M^3)/(4-4*M+2*M^2+M^3)".replace("M", "((z+1)/(z-1))"),
            "(-z^3+z^2+21*z+3)/(3*z^3-3*z^2+17*z-9)",
        ),
        (2, ["-1/3"], "1", "-4-2*M+3*M^2".replace("M", "((z-2)/(3*z+1))"), "(-39*z^2-26*z+12)/(9*z^2+6*z+1)"),
    ],
)
def test_a_moebius_spelling_ramifies_as_its_expanded_form(capsys, tmp_path, component, punctures, h, spelled, expanded):
    # the float route failed both spellings: ExactDivisionError for the
    # first, OverfullFiberError ("local degrees over -4.333333333333334")
    # for the second; read exactly, the two spellings are one map
    docs = []
    for name, g in (("spelled", spelled), ("expanded", expanded)):
        gs = (g, "z") if component == 1 else ("z", g)
        code, doc, err = run(capsys, "ramify", write_data(tmp_path, name, punctures, h, *gs), "--component", str(component))
        assert code == EXIT_OK and err == ""
        docs.append(doc["report"])
    assert docs[0] == docs[1]


def test_conformality_of_exact_forms_is_exact(capsys, tmp_path):
    # the float forms left a symbolic residual of 2e-11 > eps_conformal
    path = write_data(
        tmp_path, "conformal", ["1"], "-2/(z*(1-z))", "(2*z^3+z^2+3*z-1)/(z*(-3*z^2-2*z+1))", "z^2/(1-z^2)"
    )
    code, doc, err = run(capsys, "check", path)
    assert err == ""
    assert doc["report"]["conformality"] == {
        "ok": True, "symbolic_zero": True, "symbolic_residual": 0.0, "numeric_residual": 0.0, "samples": 100,
    }


def test_conformality_holds_at_every_tolerance_scale(capsys):
    # conformality is an identity of the forms, so no tolerance scale makes
    # it fail; a float residual would round to ~1e-16, far above 1e-19
    for path in sorted(FIXTURES.glob("*.json")):
        if path.stem == "malformed":
            continue
        code, doc, err = run(capsys, "check", str(path), "--tolerance-scale", "1e-7")
        assert err == "" and "conformality" not in doc["report"]["failures"], path.stem
    for command in ("check", "report"):
        code, doc, err = run(capsys, command, fixture("example23"), "--tolerance-scale", "1e-7")
        assert code == EXIT_OK and err == "", command


def test_a_tiny_imaginary_numerator_term_loads(capsys, tmp_path):
    # the float gcd raised GcdBreakdownError while the data was loaded, so
    # no command ran; read exactly, g1 is a map of degree 3 and check runs
    path = write_data(tmp_path, "tiny", ["inf"], "1", "(1+1e-8i*z)/(1+1.5*z+z^2+0.25*z^3)", "z")
    code, doc, err = run(capsys, "check", path)
    assert code == EXIT_MATH and err == "" and doc["report"]["conformality"]["ok"] is True
    # its Wronskian's roots are found (test_roots), but the value at the
    # root near 1.5e8 i, about -5.9e-25 i, is grouped with g1(inf) = 0
    # within eps_pt: an open defect of the point grouping (ROADMAP item 4)
    code, doc, err = run(capsys, "ramify", path, "--component", "1")
    assert code == EXIT_MATH and err.startswith("failure: OverfullFiberError: local degrees over ")


@pytest.mark.parametrize("scale", ["1", "1e-3", "10"])
def test_a_cube_over_a_sextic_is_totally_ramified_at_0(capsys, tmp_path, scale):
    # W = A^2 (3A'D - AD') for A = z^2 - 8z + 8: the float square-free layers
    # read each double root of W as two simple roots 1e-7 apart, so ramify
    # failed with OverfullFiberError (and ExactDivisionError at scale 10)
    g1 = "(z^2-8*z+8)^3/(z^6-9*z^5+4*z^4-6*z^3-5*z^2-5*z+7)"
    path = write_data(tmp_path, "cube", ["-2", "inf", "-1", "0"], "1", g1, "z")
    code, doc, err = run(capsys, "ramify", path, "--component", "1", "--tolerance-scale", scale)
    assert code == EXIT_OK and err == ""
    (zero,) = [v for v in doc["report"]["ramification"]["values"] if v["value"] == {"re": 0.0, "im": 0.0}]
    assert (zero["kind"], zero["nu"]) == ("totally-ramified", 3)
    points = [(complex(p["point"]["re"], p["point"]["im"]), p["multiplicity"]) for p in zero["preimages"]]
    assert [m for _z, m in points] == [3, 3]
    for (z, _m), exact in zip(points, (4 - 2 * 2**0.5, 4 + 2 * 2**0.5)):
        assert abs(z - exact) < 1e-11


# -- global flags / wiring --------------------------------------------------------


def test_unknown_subcommand_and_bad_flags_exit_usage(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys)
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "check", fixture("example23"), "--tolerance-scale", "-1")
    assert code == EXIT_USAGE and "positive" in err


def test_main_builds_no_parser_per_call(capsys, record_calls):
    built = record_calls(argparse.ArgumentParser, "__init__")
    assert run(capsys, "check", fixture("example23"))[0] == EXIT_OK
    assert run(capsys, "bounds", "--abstract", "0", "4", "1", "1")[0] == EXIT_OK
    assert run(capsys, "check", fixture("example23"), "--seed", "7")[0] == EXIT_USAGE
    assert built == []


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "wlab.cli", "check", fixture("example23")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["command"] == "check"
