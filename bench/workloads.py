"""The benchmark's workloads: which wlab commands run, on which inputs.

Each workload is a cycle of ops (one ``wlab`` command line each) that the
timed phase repeats in whole cycles, a few warm-up ops, and for the ladders
a sweep that runs every other ladder map once.  README.md records why each
workload was chosen.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from checks import (
    check_mesh,
    compare,
    compare_csv,
    expected_fixture_doc,
    ladder_summary,
)

FIXTURES = (
    "example21",
    "example22",
    "example23",
    "irregular",
    "unicity_five_a",
    "unicity_five_b",
    "unicity_six_a",
    "unicity_six_b",
)
UNICITY_PAIRS = ("six", "five")
ABSTRACT_BOUNDS = ("bounds", "--abstract", "0", "4", "1", "1", "--nu1", "4", "--nu2", "4")

MESH_CASES = (
    ("example23", "annulus:0,0,0.5,2", "1,0"),
    ("example21", "rect:-0.5,0.5,-0.5,0.5", "0,0.25"),
)
MESH_RESOLUTIONS = (17, 33, 65, 129)

LADDER_DEGREES = (4, 8, 12, 16, 20, 24, 32, 48, 64)
# The timing band: the degrees at which every ladder map solved at the seed
# commit (04dd8bd).  Timing metrics of the ladders cover only these.
TIMING_BAND = {"ladder_generic": (4, 8, 12, 16, 20), "ladder_ramified": (4,)}
DOCS_PER_DEGREE = 2
DEFAULT_LADDER_SEED = 20060313
COEFF_RANGE = 9

FIXTURE_TIMEOUT_S = 30.0
MESH_TIMEOUT_S = 60.0
LADDER_TIMEOUT_S = 2.0


@dataclass
class Op:
    name: str
    argv: tuple[str, ...]
    kind: str
    degree: int
    expect_exit: int
    timeout: float
    # returns a list of problems found in (stdout, stderr); the ladder ops
    # return a summary for the exact oracle instead
    check: Callable[[str, str], list[str]] | None = None
    summarize: Callable[[str], dict] | None = None
    map_index: int | None = None
    vertices: Callable[[str], int] | None = None


@dataclass
class Plan:
    cycle: list[Op]
    warmup: list[Op]
    sweep: list[Op] = field(default_factory=list)
    maps: list[tuple[list[int], list[int], int]] = field(default_factory=list)
    # timed ops whose durations feed report_ms_* (None: every op)
    report_kind: str | None = None
    # each op's time is its median over at least this many cycles
    min_cycles: int = 1


def _doc_check(ref) -> Callable[[str, str], list[str]]:
    def check(stdout: str, stderr: str) -> list[str]:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"stdout is not a JSON document: {exc}"]
        return compare(ref, doc)

    return check


def _usage_error_check(stdout: str, stderr: str) -> list[str]:
    return [] if stderr.startswith("error:") else [f"no usage error on stderr: {stderr[:80]!r}"]


# -- fixtures ---------------------------------------------------------------------


def fixture_plan(root: Path, work: Path, reference: dict) -> Plan:
    fixtures = root / "fixtures"
    snapdir = root / "tests" / "snapshots"
    snapshots = {p.stem: json.loads(p.read_text()) for p in snapdir.glob("*.json")}
    exits = reference["fixture_exit_codes"]
    degrees = reference["fixture_degrees"]

    def op(name, argv, kind, degree, ref):
        return Op(name, tuple(argv), kind, degree, exits[name], FIXTURE_TIMEOUT_S, check=_doc_check(ref))

    cycle = []
    for fx in FIXTURES:
        path = str(fixtures / f"{fx}.json")
        commands = [
            ("check", ["check", path], None),
            ("ramify", ["ramify", path, "--component", "1"], 1),
            ("ramify", ["ramify", path, "--component", "2"], 2),
            ("bounds", ["bounds", path], None),
            ("report", ["report", path], None),
        ]
        for kind, argv, component in commands:
            name = " ".join([kind, fx] + argv[2:])
            ref = expected_fixture_doc(snapshots, kind, fx, component)
            if ref is None:
                ref = reference["documents"][name]
            cycle.append(op(name, argv, kind, degrees[fx], ref))
    cycle.append(op("bounds --abstract", ABSTRACT_BOUNDS, "bounds", 1, reference["documents"]["bounds --abstract"]))
    for pair in UNICITY_PAIRS:
        argv = ["unicity", str(fixtures / f"unicity_{pair}_a.json"), str(fixtures / f"unicity_{pair}_b.json")]
        degree = max(degrees[f"unicity_{pair}_a"], degrees[f"unicity_{pair}_b"])
        cycle.append(op(f"unicity {pair}", argv, "unicity", degree, snapshots[f"unicity_{pair}"]))
    name = "check malformed"
    cycle.append(
        Op(name, ("check", str(fixtures / "malformed.json")), "check", 0, exits[name],
           FIXTURE_TIMEOUT_S, check=_usage_error_check)
    )
    by_name = {o.name: o for o in cycle}
    warmup = [by_name[n] for n in ("report example21", "unicity six", "bounds --abstract", "check malformed")]
    return Plan(cycle=cycle, warmup=warmup, report_kind="report", min_cycles=5)


# -- mesh -------------------------------------------------------------------------


def _mesh_op(root: Path, work: Path, fixture, region, base, res, fmt, check) -> Op:
    ext = "csv" if fmt == "csv" else "obj"
    out = work / f"mesh_{fixture}_{res.replace(',', 'x')}.{ext}"
    argv = (
        "mesh", str(root / "fixtures" / f"{fixture}.json"),
        "--region", region, "--res", res, "--base", base,
        "--format", fmt, "--mesh-out", str(out),
    )

    def run_check(stdout: str, stderr: str) -> list[str]:
        try:
            summary = json.loads(stdout)
            text = out.read_text()
        except (json.JSONDecodeError, OSError) as exc:
            return [f"mesh output unreadable: {exc}"]
        return check(summary, text)

    def vertices(stdout: str) -> int:
        return int(json.loads(stdout)["report"]["included"])

    return Op(f"mesh {fixture} {res} {fmt}", argv, "mesh", 1, 0, MESH_TIMEOUT_S,
              check=run_check, vertices=vertices)


def mesh_plan(root: Path, work: Path, reference: dict) -> Plan:
    snapdir = root / "tests" / "snapshots"
    snap_summary = json.loads((snapdir / "mesh_example23_summary.json").read_text())
    snap_csv = (snapdir / "mesh_example23.csv").read_text()

    def snapshot_check(summary, text):
        return compare(snap_summary, summary) + compare_csv(snap_csv, text)

    fixture, region, base = MESH_CASES[0]
    snapshot_op = _mesh_op(root, work, fixture, region, base, "5,9", "csv", snapshot_check)
    cycle = [snapshot_op]
    # every (fixture, resolution) once per cycle; the two fixtures take
    # opposite formats, so both formats run at every resolution
    for case_index, (fixture, region, base) in enumerate(MESH_CASES):
        for res_index, res in enumerate(MESH_RESOLUTIONS):
            fmt = "csv" if (case_index + res_index) % 2 == 0 else "obj-3d"
            ref = reference["mesh"][f"{fixture} {res}"]

            def check(summary, text, ref=ref, fmt=fmt):
                return check_mesh(summary, text, fmt, ref)

            cycle.append(_mesh_op(root, work, fixture, region, base, str(res), fmt, check))
    return Plan(cycle=cycle, warmup=[snapshot_op], min_cycles=2)


# -- ladders ----------------------------------------------------------------------


def _random_poly(rng: random.Random, degree: int) -> list[int]:
    """Integer coefficients, lowest degree first, nonzero leading term."""
    coeffs = [rng.randint(-COEFF_RANGE, COEFF_RANGE) for _ in range(degree + 1)]
    while coeffs[-1] == 0:
        coeffs[-1] = rng.randint(-COEFF_RANGE, COEFF_RANGE)
    return coeffs


def poly_expr(coeffs: list[int]) -> str:
    """An integer polynomial in the wlab expression grammar."""
    out = ""
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            term = str(mag)
        else:
            power = "z" if k == 1 else f"z^{k}"
            term = power if mag == 1 else f"{mag}*{power}"
        out = (f"-{term}" if sign == "-" else term) if not out else f"{out} {sign} {term}"
    return out or "0"


def ladder_map(rng: random.Random, kind: str, degree: int) -> tuple[list[int], list[int], int]:
    """(base, den, power): the Gauss map base^power / den of the given degree.

    Generic maps have power 1.  Ramified maps take power m in {2, 3, 4}
    dividing the degree, so the value 0 is totally ramified with nu = m
    whenever base is square-free and prime to den.
    """
    if kind == "ladder_generic":
        return _random_poly(rng, degree), _random_poly(rng, degree), 1
    power = rng.choice([m for m in (2, 3, 4) if degree % m == 0])
    return _random_poly(rng, degree // power), _random_poly(rng, degree), power


def map_expr(base: list[int], den: list[int], power: int) -> str:
    num = f"({poly_expr(base)})" if power == 1 else f"({poly_expr(base)})^{power}"
    return f"{num}/({poly_expr(den)})"


def ladder_plan(kind: str, ladder_seed: int, work: Path) -> Plan:
    """The fixed ladder: band degrees are timed, the rest form the sweep."""
    rng = random.Random(f"{kind}:{ladder_seed}")
    maps: list = []
    ops = []
    for degree in LADDER_DEGREES:
        for i in range(DOCS_PER_DEGREE):
            pair = [ladder_map(rng, kind, degree) for _ in range(2)]
            path = work / f"{kind}_d{degree}_{i}.json"
            doc = {
                "label": f"{kind} degree {degree} map pair {i}",
                "genus": 0,
                "punctures": ["inf"],
                "h": "1",
                "g1": map_expr(*pair[0]),
                "g2": map_expr(*pair[1]),
            }
            path.write_text(json.dumps(doc, indent=1) + "\n")
            for component, m in enumerate(pair, start=1):
                maps.append(m)
                ops.append(
                    Op(f"d{degree} #{i} g{component}",
                       ("ramify", str(path), "--component", str(component)),
                       "ramify", degree, 0, LADDER_TIMEOUT_S,
                       summarize=lambda stdout: ladder_summary(json.loads(stdout)),
                       map_index=len(maps) - 1)
                )
    band = [op for op in ops if op.degree in TIMING_BAND[kind]]
    sweep = [op for op in ops if op.degree not in TIMING_BAND[kind]]
    return Plan(cycle=band, warmup=band[:1], sweep=sweep, maps=maps, min_cycles=3)
