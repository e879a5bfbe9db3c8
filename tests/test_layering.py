"""Each module is reached one way: imports sit at the top of a module,
``Analysis`` is the one entry to a data set's invariants, so ``bounds`` and
``curvature`` need it only for type hints and never load it, and every
definition in the package is reached from inside it.  The period path
reads exact residues only, and the contour that once checked them is gone."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wlab import poly
from wlab.analysis import Analysis
from wlab.exprparse import parse_expression
from wlab.poly import Polynomial
from wlab.rational import INF

from test_bounds import loadable_fixtures
from test_exprparse import _ladder_maps

SRC = Path(__file__).resolve().parents[1] / "src" / "wlab"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_import_inside_a_function_body(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hits = [
        f"{path.name}:{node.lineno}: import in {fn.name}"
        for fn in ast.walk(tree)
        if isinstance(fn, FUNCTIONS)
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not hits, hits


def loads(imports: str, module: str) -> bool:
    """Whether a fresh interpreter that imports ``imports`` has loaded ``module``."""
    code = f"import sys, {imports}; print({module!r} in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    return proc.stdout.strip() == "True"


def test_bounds_and_curvature_do_not_load_analysis():
    assert not loads("wlab.bounds, wlab.curvature", "wlab.analysis")


def test_every_definition_is_reached_from_the_package():
    # a function or class nothing in the package names is a second route no
    # command takes; names in ``__all__`` are strings and do not count, and
    # classmethod/staticmethod constructors exist for callers outside
    defined, named = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
                if not dunder and not decorators & {"classmethod", "staticmethod"}:
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
    unreached = sorted(f"{where}: {name}" for name, where in defined.items() if name not in named)
    assert not unreached, unreached


def test_rational_does_not_load_roots():
    assert not loads("wlab.rational", "wlab.roots")


def test_the_companion_route_and_residual_bound_are_gone():
    # inclusion discs certify every located root, refined exactly where the
    # double discs overlap: no second float route and no residual bound
    pattern = re.compile(r"eps_res|_companion_roots|_match_root_sets|RootCrossCheckError|_CROSS_CHECK_RTOL|np\.roots")
    hits = [
        f"{path.name}:{n}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits, hits


def test_the_period_path_evaluates_no_float_form(monkeypatch):
    # every residue a period report prints is exact, so reading the periods
    # evaluates no float view: no contour, no sampled global sum
    fixtures = loadable_fixtures()

    def refuse(self, z):
        raise AssertionError(f"a float polynomial was evaluated at {z!r}")

    monkeypatch.setattr(Polynomial, "__call__", refuse)
    for d in fixtures:
        assert Analysis(d).periods.entries, d.label


def test_parsing_a_ladder_map_builds_no_float_view(record_calls):
    # the views are built on first read, and the range rule is proved on the
    # exact pair, so parsing alone rounds nothing
    text = _ladder_maps()[16]  # a generic A / B of degree 20
    rounded = record_calls(poly, "rounded")
    f = parse_expression(text)
    assert f.degree == 20 and f.order_at(INF) == 0
    assert not rounded


def test_the_residue_contour_is_gone():
    pattern = re.compile(r"ResidueQuadratureError|residue_cross_rtol|_contour_residue")
    hits = [
        f"{path.name}:{n}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits, hits
