"""Each module is reached one way: imports sit at the top of a module, and
``Analysis`` is the one entry to a data set's invariants, so ``bounds`` and
``curvature`` need it only for type hints and never load it."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_bounds_and_curvature_do_not_load_analysis():
    code = "import sys, wlab.bounds, wlab.curvature; print('wlab.analysis' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert proc.stdout.strip() == "False"
