"""Byte-level regression tests against stored command output.

The files under snapshots/ were produced by the commands below with the
default tolerance scale.  Regenerating them must reproduce every byte, on
any platform: the JSON walker visits dataclass fields in declaration order,
every float in a document, CSV or OBJ file is written under the rule of
``report.format_float`` (12 decimal places, 12 significant digits, no -0),
which drops the last-ulp differences of numpy's kernels between platforms,
and no step draws random numbers.
The OBJ snapshots were written before the export was vectorised, so they
also pin its bytes to the field-by-field formatter.  A diff here means the output
format or the numerics changed, and the snapshot should only be refreshed
deliberately.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, NO_SIMD_DISPATCH, REGULAR, fixture
from wlab.cli import EXIT_MATH, main

HERE = Path(__file__).resolve().parent
SNAPSHOTS = HERE / "snapshots"


def regenerate(tmp_path, name: str, argv: list[str]) -> bytes:
    out = tmp_path / name
    main(argv + ["--out", str(out)])
    return out.read_bytes()


@pytest.mark.parametrize("name", REGULAR)
def test_report_snapshots(tmp_path, name):
    fresh = regenerate(tmp_path, "doc.json", ["report", fixture(name)])
    assert fresh == (SNAPSHOTS / f"report_{name}.json").read_bytes()


@pytest.mark.parametrize("name", REGULAR)
@pytest.mark.parametrize(
    "command, flags, subtree",
    [
        ("check", [], lambda body: body["check"]),
        ("ramify", ["--component", "1"], lambda body: body["ramification"]["g1"]),
        ("ramify", ["--component", "2"], lambda body: body["ramification"]["g2"]),
        ("bounds", [], lambda body: {"bounds": body["bounds"], "corollary": body["corollary"]}),
    ],
    ids=["check", "ramify1", "ramify2", "bounds"],
)
def test_commands_emit_subtrees_of_the_report(tmp_path, name, command, flags, subtree):
    # the benchmark reads each command's reference document off the report
    # snapshot (bench/checks.py, expected_fixture_doc)
    report = json.loads((SNAPSHOTS / f"report_{name}.json").read_text())
    doc = json.loads(regenerate(tmp_path, "doc.json", [command, fixture(name), *flags]))
    assert (doc["command"], doc["label"]) == (command, report["label"])
    assert doc["report"] == subtree(report["report"])


@pytest.mark.parametrize("pair", ["six", "five"])
def test_unicity_snapshots(tmp_path, pair):
    fresh = regenerate(tmp_path, "doc.json", ["unicity", fixture(f"unicity_{pair}_a"), fixture(f"unicity_{pair}_b")])
    assert fresh == (SNAPSHOTS / f"unicity_{pair}.json").read_bytes()


@pytest.mark.parametrize(
    "name, args, code",
    [
        ("flat", "0 3 0 0", 0),
        ("one_constant_mu", "0 3 1 0 --nu1 5/2 --mu 1,1,1", 0),
        ("sharp", "0 4 1 1 --nu1 4 --nu2 4", 0),
        ("mu_mismatch", "0 3 1 0 --mu 2,1,1", 2),
        ("genus_one", "1 1 2 0 --nu1 2", 0),
    ],
)
def test_abstract_bounds_snapshots(tmp_path, name, args, code):
    out = tmp_path / "doc.json"
    assert main(["bounds", "--abstract", *args.split(), "--out", str(out)]) == code
    assert out.read_bytes() == (SNAPSHOTS / f"bounds_abstract_{name}.json").read_bytes()


def test_mesh_snapshot(tmp_path):
    mesh_out = tmp_path / "mesh.csv"
    summary = regenerate(
        tmp_path,
        "summary.json",
        [
            "mesh",
            str(FIXTURES / "example23.json"),
            "--region", "annulus:0,0,0.5,2",
            "--res", "5,9",
            "--base", "1,0",
            "--mesh-out", str(mesh_out),
        ],
    )
    stored_summary = (SNAPSHOTS / "mesh_example23_summary.json").read_bytes()
    # the summary embeds the --mesh-out path, which differs per run
    assert summary.replace(str(mesh_out).encode(), b"X") == stored_summary.replace(
        b"tests/snapshots/mesh_example23.csv", b"X"
    )
    assert mesh_out.read_bytes() == (SNAPSHOTS / "mesh_example23.csv").read_bytes()


@pytest.mark.parametrize(
    "name, argv",
    [
        (
            "mesh_example23.obj",
            ["example23", "--region", "annulus:0,0,0.5,2", "--res", "5,9", "--base", "1,0"],
        ),
        (
            "mesh_example21_p234.obj",
            [
                "example21", "--region", "rect:-0.5,0.5,-0.5,0.5", "--res", "9",
                "--base", "0,0.25", "--project", "2,3,4",
            ],
        ),
    ],
)
def test_obj_snapshots(tmp_path, name, argv):
    source, *flags = argv
    mesh_out = tmp_path / name
    regenerate(tmp_path, "summary.json", ["mesh", fixture(source), *flags, "--format", "obj-3d", "--mesh-out", str(mesh_out)])
    assert mesh_out.read_bytes() == (SNAPSHOTS / name).read_bytes()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 dispatch targets")
def test_report_bytes_do_not_depend_on_simd_dispatch():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_SIMD_DISPATCH}
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True)
    if probe.returncode != 0:
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={NO_SIMD_DISPATCH!r}")
    proc = subprocess.run(
        [sys.executable, "-m", "wlab.cli", "report", str(FIXTURES / "example21.json")],
        env=env,
        capture_output=True,
    )
    # example21 fails the period check, so its report exits 2 with a full document
    assert (proc.returncode, proc.stderr) == (EXIT_MATH, b"")
    assert proc.stdout == (SNAPSHOTS / "report_example21.json").read_bytes()
