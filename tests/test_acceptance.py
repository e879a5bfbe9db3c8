"""End-to-end acceptance gate: the sharpness fixtures and property suites.

Each test prints one "criterion N: PASS/FAIL" line (visible with -s or -rA;
the pytest -v status line mirrors it).  Fixture criteria assert exact
integer/rational values from the CLI documents; property criteria run the
seeded random suites at their stated tolerances and time budgets.

Known failure: criterion 4 expects five shared values {0, inf, 2, 1, -1}
for the one-constant pair, but the value 2 has empty preimage off the
punctures on one side and a nonempty one on the other, so the computed
count is four.  The test asserts the stated five and is expected to fail;
see the repository notes for the analysis.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wlab.analysis import Analysis
from wlab.bounds import unicity_of
from wlab.cli import main
from wlab.curvature import total_curvature_quadrature
from wlab.mesh import Rectangle, build_mesh
from wlab.poly import Polynomial
from wlab.ramification import ramification_report
from wlab.rational import RationalFunction
from wlab.roots import IllConditionedRootsError, RootIsolationError
from wlab.weierstrass import WeierstrassData, phi_from_data

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
ANALYZABLE = [
    "example21",
    "example22",
    "example23",
    "unicity_six_a",
    "unicity_six_b",
    "unicity_five_a",
    "unicity_five_b",
]

Z = RationalFunction.variable()
HALF = Fraction(1, 2)


@contextlib.contextmanager
def verdict(number: str, summary: str):
    try:
        yield
    except Exception:
        print(f"criterion {number}: FAIL — {summary}")
        raise
    print(f"criterion {number}: PASS — {summary}")


def cli_doc(tmp_path, *argv: str) -> dict:
    out = tmp_path / "doc.json"
    main([*argv, "--out", str(out)])
    return json.loads(out.read_text())


def fixture(name: str) -> str:
    return str(FIXTURES / f"{name}.json")


def load(name: str) -> WeierstrassData:
    from wlab.cli import _load_data

    return _load_data(fixture(name))


def point_set(values) -> set:
    """JSON point encodings -> hashable set ('inf' or rounded complex)."""
    out = set()
    for v in values:
        if v == "inf":
            out.add("inf")
        else:
            out.add((round(v["re"], 9), round(v["im"], 9)))
    return out


def pts(*values) -> set:
    return {v if v == "inf" else (round(complex(v).real, 9), round(complex(v).imag, 9)) for v in values}


def frac(num: int, den: int = 1) -> dict:
    return {"num": num, "den": den, "decimal": num / den}


# -- fixture reproduction ----------------------------------------------------


def test_criterion_01_four_puncture_equality_instance(tmp_path):
    with verdict("1", "quadruple-punctured fixture: r0 = 4 both components, ratios 1/2 + 1/2 = 1"):
        doc = cli_doc(tmp_path, "report", fixture("example21"))
        rep = doc["report"]
        for comp in ("g1", "g2"):
            ram = rep["ramification"][comp]["ramification"]
            assert ram["exceptional_count"] == 4
            exceptional = point_set(
                v["value"] for v in ram["values"] if v["kind"] == "exceptional"
            )
            assert exceptional == pts(1, 2, 3, "inf")
            assert ram["nu_f"] == frac(4)
        b = rep["bounds"]
        assert b["R1"] == frac(1, 2) and b["R2"] == frac(1, 2)
        assert b["joint_bound_lhs"] == frac(1)
        assert b["ratio_sum"] == frac(1)
        assert b["joint_bound_equality"] is True
        assert b["ratio_sum_at_least_one"] is True
        assert rep["check"]["periods"]["period_ok"] is False
        assert rep["check"]["ends"]["complete"] is True


def test_criterion_02_one_constant_equality_instance(tmp_path):
    with verdict("2", "one-constant fixture: g1 omits exactly {0, 1, inf}, ceiling 3 attained"):
        doc = cli_doc(tmp_path, "report", fixture("example22"))
        rep = doc["report"]
        ram = rep["ramification"]["g1"]["ramification"]
        assert ram["exceptional_count"] == 3
        exceptional = point_set(v["value"] for v in ram["values"] if v["kind"] == "exceptional")
        assert exceptional == pts(0, 1, "inf")
        assert ram["nu_f"] == frac(3)
        b = rep["bounds"]
        assert b["case"] == "one-constant"
        assert b["nu_bound_g1"] == frac(3)
        assert b["nu_bound_g1_equality"] is True
        assert rep["check"]["periods"]["period_ok"] is False


def test_criterion_03_closed_period_instance(tmp_path):
    with verdict("3", "doubly-punctured fixture: zero periods, vanishing Euler term, removable point"):
        doc = cli_doc(tmp_path, "report", fixture("example23"))
        rep = doc["report"]
        periods = rep["check"]["periods"]
        assert periods["period_ok"] is True
        for entry in periods["entries"]:
            for re_part in entry["real_parts"]:
                assert abs(re_part) < 1e-10
        ram = rep["ramification"]["g1"]["ramification"]
        exceptional = point_set(v["value"] for v in ram["values"] if v["kind"] == "exceptional")
        assert exceptional == pts(0, "inf")
        b = rep["bounds"]
        assert b["chi_term"] == 0
        assert b["chi_nonpositive"] is True
        assert b["nu_g1"] == frac(2)
        assert b["nu_bound_g1"] == frac(2)
        assert b["nu_bound_g1_equality"] is True
        ends = {
            "inf" if rec["puncture"] == "inf" else round(rec["puncture"]["re"], 9): rec["verdict"]
            for rec in rep["check"]["ends"]["records"]
        }
        assert ends == {0: "complete-end", "inf": "removable-point"}
        assert rep["check"]["warnings"] == [
            "end at inf is a removable point, not a genuine end"
        ]


def test_criterion_04_shared_value_pair_sharpness(tmp_path):
    with verdict("4", "reciprocal pair shares exactly {0, inf, 2, 1/2, 1, -1}; p = q = 6 at the bound"):
        doc = cli_doc(tmp_path, "unicity", fixture("unicity_six_a"), fixture("unicity_six_b"))
        u = doc["report"]["unicity"]
        assert u["p"] == 6 and u["q"] == 6
        expected = pts(0, "inf", 2, 0.5, 1, -1)
        assert point_set(v["value"] for v in u["shared_g1"]["values"]) == expected
        assert point_set(v["value"] for v in u["shared_g2"]["values"]) == expected
        assert u["pair_bound_lhs"] == frac(1)
        assert u["R1"] == frac(1, 2) and u["R2"] == frac(1, 2)
        assert u["pair_bound_equality"] is True


def test_criterion_04_one_constant_shared_value_count(tmp_path):
    # Stated expectation: five shared values {0, inf, 2, 1, -1} with p = 5.
    # The value 2 is not shared by this pair (its finite preimage 1/2 under
    # z -> 1/z survives off the punctures while z -> z has none), so the
    # computed count is 4 and this test fails; kept as stated rather than
    # adjusted to the computed value.
    with verdict("4", "one-constant pair shares exactly {0, inf, 2, 1, -1} with p = 5"):
        doc = cli_doc(tmp_path, "unicity", fixture("unicity_five_a"), fixture("unicity_five_b"))
        u = doc["report"]["unicity"]
        assert point_set(v["value"] for v in u["shared_g1"]["values"]) == pts(0, "inf", 2, 1, -1)
        assert u["p"] == 5


# -- property suites ----------------------------------------------------------


def test_criterion_05_branching_identity_suite():
    with verdict("5", "300 random maps of degree 2..8: total branching order equals 2d - 2"):
        rng = np.random.default_rng(424242)
        start = time.monotonic()
        checked = 0
        while checked < 300:
            d = int(rng.integers(2, 9))
            num = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            den = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            f = RationalFunction(Polynomial(num), Polynomial(den))
            if f.degree != d:
                continue
            try:
                rep = ramification_report(f, punctures=())
            except (IllConditionedRootsError, RootIsolationError):
                continue
            assert rep.n1 == 2 * d - 2, f
            assert rep.rh_ok
            checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_06_total_curvature_suite():
    with verdict("6", "20 random data sets: quadrature total curvature = -2*pi*(d1+d2) within 1%"):
        rng = np.random.default_rng(31415)
        start = time.monotonic()
        checked = 0
        while checked < 20:
            d1 = int(rng.integers(0, 5))
            d2 = int(rng.integers(0, 5))
            if not 1 <= d1 + d2 <= 4:
                continue

            def rand_map(deg):
                if deg == 0:
                    return RationalFunction.constant(complex(rng.normal(), rng.normal()))
                num = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
                den = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
                return RationalFunction(Polynomial(num), Polynomial(den))

            g1, g2 = rand_map(d1), rand_map(d2)
            if g1.degree != d1 or g2.degree != d2:
                continue
            data = WeierstrassData(h=RationalFunction.constant(1), g1=g1, g2=g2, punctures=("inf",))
            try:
                tau = total_curvature_quadrature(data)
            except (IllConditionedRootsError, RootIsolationError):
                continue
            expect = -2 * math.pi * (d1 + d2)
            assert abs(tau - expect) <= 0.01 * abs(expect), (g1, g2, tau)
            checked += 1
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"suite took {elapsed:.1f}s"


def test_criterion_07_conformality_and_metric_identity():
    with verdict("7", "sum of squared forms vanishes exactly over Q(i); metric identity to 1e-12"):
        rng = np.random.default_rng(8128)
        for name in ANALYZABLE:
            data = load(name)
            phi = phi_from_data(data)
            assert sum((f * f for f in phi.forms), RationalFunction.constant(0)).pair[0] == (), name
            checked = 0
            while checked < 100:
                z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                vals = [form(z) for form in phi.forms]
                hv, g1v, g2v = data.h(z), data.g1(z), data.g2(z)
                entries = [*vals, hv, g1v, g2v]
                if any(
                    not (np.isfinite(v.real) and np.isfinite(v.imag)) or abs(v) > 1e8
                    for v in entries
                ):
                    continue
                lhs = 0.25 * abs(hv) ** 2 * (1 + abs(g1v) ** 2) * (1 + abs(g2v) ** 2)
                rhs = 0.5 * sum(abs(v) ** 2 for v in vals)
                assert abs(lhs - rhs) <= 1e-12 * max(lhs, rhs), (name, z)
                checked += 1


def test_criterion_08_consistency_fuzz():
    with verdict("8", "200 random data sets: no contradiction verdicts, shared-value budget holds"):
        rng = np.random.default_rng(60606)
        pool = ["0", "1", "-1", "2", "i", "inf", "1/2", "-2"]
        checked = 0
        attempts = 0
        while checked < 200 and attempts < 400:
            attempts += 1

            def rand_map(deg):
                if deg == 0:
                    return RationalFunction.constant(complex(rng.normal(), rng.normal()))
                num = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
                den = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
                return RationalFunction(Polynomial(num), Polynomial(den))

            d1 = int(rng.integers(1, 4))
            d2 = int(rng.integers(0, 3))
            k = int(rng.integers(1, 5))
            idx = rng.choice(len(pool), size=k, replace=False)
            punctures = tuple(pool[i] for i in idx)
            h = rand_map(2) + 2
            a_g2 = rand_map(d2)
            a = WeierstrassData(h=h, g1=rand_map(d1), g2=a_g2, punctures=punctures)
            b = WeierstrassData(
                h=h,
                g1=rand_map(d1),
                g2=rand_map(d2) if d2 else a_g2,
                punctures=punctures,
            )
            if (a.g1.degree, a.g2.degree) != (b.g1.degree, b.g2.degree):
                continue
            try:
                an_a = Analysis(a)
                bounds_a = an_a.bounds
                u = unicity_of(an_a, Analysis(b))
            except (IllConditionedRootsError, RootIsolationError):
                continue
            assert bounds_a.contradiction is False, a
            assert u.contradiction is False, (a, b)
            assert sum(v.delta for v in u.shared_g1.values) <= 2 * a.g1.degree
            assert u.pole_budget_g1_ok is not False
            assert u.pole_budget_g2_ok is not False
            checked += 1
        assert checked >= 200, f"only {checked} analyzable data sets in {attempts} attempts"


def test_criterion_09_immersion_oracle_and_tangent_convergence():
    with verdict("9", "planar-curve data match the antiderivative to 1e-8; tangent defects O(h^2)"):
        data = WeierstrassData(
            h=RationalFunction.constant(1),
            g1=Z,
            g2=RationalFunction.constant(0),
            punctures=("inf",),
        )
        mesh = build_mesh(data, Rectangle(-1, 1, -1, 1), 17, 0j)
        for v in range(mesh.z.size):
            z = mesh.z[v]
            exact = np.array(
                [(z / 2).real, (1j * z / 2).real, (z * z / 4).real, (-1j * z * z / 4).real]
            )
            assert np.max(np.abs(mesh.x[v] - exact)) < 1e-8

        # second-order decay of the conformality defects of the discrete tangents
        cubic = WeierstrassData(h=RationalFunction.constant(1), g1=Z, g2=Z, punctures=("inf",))

        def tangent_defect(n: int) -> float:
            m = build_mesh(cubic, Rectangle(-1, 1, -1, 1), n, 0j)
            rows, cols = m.shape
            x = m.x.reshape(rows, cols, 4)
            grid = m.z.reshape(rows, cols)
            du = abs(grid[0, 1] - grid[0, 0])
            dv = abs(grid[1, 0] - grid[0, 0])
            xu = (x[1:-1, 2:] - x[1:-1, :-2]) / (2 * du)
            xv = (x[2:, 1:-1] - x[:-2, 1:-1]) / (2 * dv)
            dot = np.abs(np.sum(xu * xv, axis=-1))
            norms = np.abs(np.sum(xu * xu, axis=-1) - np.sum(xv * xv, axis=-1))
            scale = np.max(np.sum(xu * xu, axis=-1))
            return float(max(np.max(dot), np.max(norms)) / scale)

        defects = [tangent_defect(n) for n in (9, 17, 33)]
        assert defects[0] < 0.05
        assert defects[1] <= 0.4 * defects[0]
        assert defects[2] <= 0.4 * defects[1]


def test_criterion_10_deterministic_documents(tmp_path):
    with verdict("10", "repeated full-report runs are byte-identical on every fixture"):
        for name in ANALYZABLE:
            first = tmp_path / f"{name}_1.json"
            second = tmp_path / f"{name}_2.json"
            main(["report", fixture(name), "--out", str(first)])
            main(["report", fixture(name), "--out", str(second)])
            assert first.read_bytes() == second.read_bytes(), name
