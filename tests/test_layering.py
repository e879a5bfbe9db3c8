"""Each module is reached one way: imports sit at the top of a module,
``Analysis`` is the one entry to a data set's invariants, so ``bounds`` and
``curvature`` need it only for type hints and never load it, and every
definition in the package is reached from inside it.  The period path
reads exact residues only, and the contour that once checked them is gone,
as are the float Laurent expansions, the quadrature that once checked the
total curvature, the per-point order methods that found each order again,
Aberth's Horner loops, the disc bound's and the far values' own
evaluators, and the parser's loop over characters.  The root and fiber
path, with the evaluator it reads, sums nothing through BLAS."""

from __future__ import annotations

import ast
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wlab import poly
from wlab.analysis import Analysis
from wlab.exprparse import parse_expression
from wlab.poly import Polynomial
from wlab.rational import RationalFunction

from test_bounds import loadable_fixtures
from test_exprparse import _integer_poly, _ladder_maps

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
    assert f.degrees == (20, 20)
    assert not rounded


def test_parse_cost_does_not_grow_with_degree(record_calls):
    # a sum of polynomials is merged into one coefficient table, and a power
    # of a monomial stays one whatever its exponent: the only RationalFunction
    # a ladder map A / B builds is its reduced quotient, and a sum of
    # monomials builds just its result
    built, proofs = record_calls(RationalFunction, "_set"), record_calls(poly, "in_range")

    def cost(text: str) -> tuple[int, int]:
        built.clear()
        proofs.clear()
        parse_expression(text)
        return len(built), len(proofs)

    rng = random.Random(36)
    maps = [_ladder_maps()[0], _ladder_maps()[16], _ladder_maps()[32]]  # A / B of degree 4, 20, 64
    maps += [f"({_integer_poly(rng, d)})/({_integer_poly(rng, d)})" for d in (128, 256)]
    for text in maps + ["3*z^65", "3*z^300", "z^4096"]:
        assert cost(text)[0] == 1, text[:40]
    for n in (64, 256):
        sets, range_proofs = cost("+".join(f"{rng.randint(1, 99)}*z^{k}" for k in range(1, n + 1)))
        # the range is proved once per term the sum merges, and on the result
        assert sets == 1 and range_proofs <= 2 * n, (n, sets, range_proofs)


@pytest.mark.parametrize(
    "pattern",
    [
        # residues at punctures are exact over Q(i): no contour checks them
        pytest.param(r"ResidueQuadratureError|residue_cross_rtol|_contour_residue", id="residue-contour"),
        # the total curvature is -2 pi (d1 + d2) by identity: no quadrature
        # of it runs, and no tolerance is kept for one
        pytest.param(r"total_curvature_quadrature|QuadratureError|_integrate_polar|quad_rtol", id="curvature-quadrature"),
        # inclusion discs certify every located root, refined exactly where the
        # double discs overlap: no second float route and no residual bound
        pytest.param(
            r"eps_res|_companion_roots|_match_root_sets|RootCrossCheckError|_CROSS_CHECK_RTOL|np\.roots",
            id="companion-route",
        ),
        # principal parts and residues are exact over Q(i) or refused: no
        # Taylor series of the float views is taken
        pytest.param(r"expansion_at|_synthetic_division|_series_quotient", id="float-laurent"),
        # every finite order is an exponent the gcd-free basis records: no
        # order is found again at a point
        pytest.param(r"def order_at|def form_order_at|def pole_order_at|_orders_at\(", id="point-orders"),
        # Aberth reads p and p' off one table of powers per step, not off a
        # Horner loop of ufunc calls per coefficient
        pytest.param(r"^roots\.py:.*np\.(polyval|polyder)", id="aberth-polyval"),
        # the disc bound and the values at located points come from the one
        # bounded evaluator, poly.block_values: no Horner loop of their own
        pytest.param(r"_horner_bound|_far_value|_values_and_slopes", id="second-evaluator"),
        # np.polyval serves Polynomial.__call__ alone, for the mesh and curvature
        pytest.param(r"^(?!poly\.py:).*np\.polyval", id="polyval-outside-poly"),
        # the lexer is one regex scan of the whole text, not a loop over its characters
        pytest.param(r"^exprparse\.py:.*(class _Token\b|\.isspace\(\))", id="character-lexer"),
        # exact_gcd returns the primitive gcd and every cancellation is an exact
        # quotient by it: no second gcd normal form, pseudo-quotient cancellation
        # or second square-free certificate
        pytest.param(r"common_part|exact_cancelled|_certified_square_free", id="second-gcd"),
    ],
)
def test_a_removed_route_is_gone(pattern):
    # each line is searched behind its file's name, so a pattern may name one module
    hits = [
        f"{path.name}:{n}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(pattern, f"{path.name}:{line}")
    ]
    assert not hits, hits


BLAS_CALLS = {"dot", "matmul", "vdot", "inner", "tensordot", "linalg"}


@pytest.mark.parametrize("name", ["roots.py", "ramification.py", "poly.py", "rational.py"])
def test_the_root_and_fiber_path_calls_no_blas(name):
    # BLAS picks its kernels by CPU at run time, which NPY_DISABLE_CPU_FEATURES
    # does not reach, so a result summed there could differ between machines:
    # no matrix product (a decorator's @ is no operator), no BLAS-backed numpy
    # call, and no einsum with ``optimize``, which may hand off to tensordot
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    hits = [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr in BLAS_CALLS
        or isinstance(node, ast.Name) and node.id in BLAS_CALLS
        or isinstance(node, ast.Call) and "optimize" in {kw.arg for kw in node.keywords}
    ]
    assert not hits, hits
