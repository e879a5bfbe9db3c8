"""The identity grid: every command the benchmark runs, pinned by one digest each.

Each case is one ``wlab.cli.main`` call, run in-process from the repository
root on the files under ``fixtures/``.  Its digest is the sha256 of its exit
code, its stdout and its stderr, and, for ``mesh``, the bytes of the mesh
file; a mesh summary names its ``--mesh-out`` path, which is written as
``MESH_OUT`` before hashing.  The grid covers:

- every fixture under ``check``, ``ramify --component 1`` and ``2``,
  ``bounds`` and ``report``, at ``--tolerance-scale`` 1, 1e-3 and 1000;
- ``mesh`` at res 17 on the benchmark's two mesh cases, as CSV and OBJ;
- both ``unicity`` pairs and the benchmark's ``bounds --abstract``.

``tests/test_identity_grid.py`` replays it against
``tests/data/identity_grid.json``.  Run this file to rewrite that record,
which is done only on a deliberate change of some document:

    PYTHONPATH=src python tests/identity_grid.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from wlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "data" / "identity_grid.json"

FIXTURES = sorted(p.stem for p in (ROOT / "fixtures").glob("*.json"))
SCALES = ("1", "1e-3", "1000")
COMMANDS = (("check",), ("ramify", "--component", "1"), ("ramify", "--component", "2"), ("bounds",), ("report",))
MESH_CASES = (
    ("example23", "annulus:0,0,0.5,2", "1,0"),
    ("example21", "rect:-0.5,0.5,-0.5,0.5", "0,0.25"),
)


def cases() -> dict[str, tuple[str, ...]]:
    """Each case's name mapped to its argv, paths relative to the repository root."""
    out = {}
    for fixture in FIXTURES:
        for command, *flags in COMMANDS:
            for scale in SCALES:
                argv = (command, f"fixtures/{fixture}.json", *flags, "--tolerance-scale", scale)
                out[" ".join((command, fixture, *flags, "x" + scale))] = argv
    for fixture, region, base in MESH_CASES:
        for fmt in ("csv", "obj-3d"):
            argv = ("mesh", f"fixtures/{fixture}.json", "--region", region, "--res", "17", "--base", base,
                    "--format", fmt)
            out[f"mesh {fixture} 17 {fmt}"] = argv
    for pair in ("six", "five"):
        out[f"unicity {pair}"] = ("unicity", f"fixtures/unicity_{pair}_a.json", f"fixtures/unicity_{pair}_b.json")
    out["bounds --abstract"] = ("bounds", "--abstract", "0", "4", "1", "1", "--nu1", "4", "--nu2", "4")
    return out


def digest(argv: tuple[str, ...]) -> str:
    """The sha256 of one case's exit code, stdout, stderr and mesh file, run from the root."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        mesh_out = os.path.join(tmp, "mesh")
        extra = ["--mesh-out", mesh_out] if argv[0] == "mesh" else []
        here = os.getcwd()
        os.chdir(ROOT)
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main([*argv, *extra])
        finally:
            os.chdir(here)
        mesh = Path(mesh_out).read_bytes() if extra else b""
    h = hashlib.sha256()
    for part in (str(code), stdout.getvalue().replace(mesh_out, "MESH_OUT"), stderr.getvalue()):
        data = part.encode()
        h.update(len(data).to_bytes(8, "little") + data)
    h.update(len(mesh).to_bytes(8, "little") + mesh)
    return h.hexdigest()


if __name__ == "__main__":
    RECORD.write_text(json.dumps({name: digest(argv) for name, argv in cases().items()}, indent=1) + "\n")
