"""Output checks that survive the planned document-format changes.

Documents are compared field by field against a reference document (a
stored snapshot, or a subtree of one): every key of the reference must be
present, exact values (integers, booleans, strings, rationals as num/den)
must be equal, and floats must agree to a relative tolerance rather than
byte for byte, since numeric-route floats drift by a few ulps across
platforms.  Keys the roadmap schedules for deletion or renumbering are not
compared, and keys the reference lacks are ignored, so added fields do not
count as failures.
"""

from __future__ import annotations

import csv
import io
import math

# seed, rotation and rotation_seed go away with the rotation normalisation;
# schema is bumped by the planned format change; out echoes a file path.
IGNORED_KEYS = frozenset({"schema", "seed", "rotation", "rotation_seed", "out"})

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9


def _as_float(x):
    if isinstance(x, bool):
        return None
    if isinstance(x, (int, float)):
        return float(x)
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def floats_close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)) + FLOAT_ATOL


def compare(ref, got, path: str = "$") -> list[str]:
    """Differences between a reference document and a fresh one."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key, value in ref.items():
            if key in IGNORED_KEYS:
                continue
            if key not in got:
                out.append(f"{path}.{key}: missing")
                continue
            out.extend(compare(value, got[key], f"{path}.{key}"))
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out.extend(compare(r, g, f"{path}[{i}]"))
        return out
    if isinstance(ref, float):
        g = _as_float(got)
        if g is None or not floats_close(ref, g):
            return [f"{path}: {got!r} != {ref!r}"]
        return []
    if ref in ("nan", "inf", "-inf"):  # non-finite floats are encoded as strings
        g = _as_float(got)
        if g is not None and floats_close(float(ref), g):
            return []
    if isinstance(ref, (bool, str)) or ref is None:
        if type(got) is type(ref) and got == ref:
            return []
        return [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, int):
        if isinstance(got, bool) or not isinstance(got, (int, float)) or got != ref:
            return [f"{path}: {got!r} != {ref!r}"]
        return []
    return [f"{path}: unsupported reference value {ref!r}"]


# -- fixtures ---------------------------------------------------------------------


def expected_fixture_doc(snapshots: dict, command: str, fixture: str, component: int | None):
    """Reference document for one fixture op, derived from its report snapshot.

    ``check``, ``ramify`` and ``bounds`` emit the same bodies that ``report``
    nests, so their references are subtrees of the report snapshot.
    """
    report = snapshots.get(f"report_{fixture}")
    if report is None:
        return None
    body = report["report"]
    if command == "report":
        return report
    if command == "check":
        ref = body["check"]
    elif command == "ramify":
        ref = body["ramification"][f"g{component}"]
    elif command == "bounds":
        ref = {"bounds": body["bounds"]}
        if body.get("corollary") is not None:
            ref["corollary"] = body["corollary"]
    else:
        return None
    return {"command": command, "label": report["label"], "report": ref}


# -- mesh -------------------------------------------------------------------------


def compare_csv(ref_text: str, got_text: str) -> list[str]:
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    got_rows = list(csv.reader(io.StringIO(got_text)))
    if len(ref_rows) != len(got_rows):
        return [f"csv: {len(got_rows)} rows, expected {len(ref_rows)}"]
    if ref_rows[0] != got_rows[0]:
        return ["csv: header differs"]
    out = []
    for i, (r, g) in enumerate(zip(ref_rows[1:], got_rows[1:]), start=1):
        if len(r) != len(g):
            out.append(f"csv row {i}: {len(g)} fields, expected {len(r)}")
            continue
        for j, (a, b) in enumerate(zip(r, g)):
            if not floats_close(float(a), float(b)):
                out.append(f"csv row {i} col {j}: {b} != {a}")
    return out


def mesh_file_counts(text: str, fmt: str) -> tuple[int, int]:
    """(vertex rows, face records) of an exported mesh file."""
    lines = text.splitlines()
    if fmt == "csv":
        return len(lines) - 1, 0
    vertices = sum(1 for line in lines if line.startswith("v "))
    faces = sum(1 for line in lines if line.startswith("f "))
    return vertices, faces


def check_mesh(summary: dict, mesh_text: str, fmt: str, ref: dict) -> list[str]:
    """Counts against the benchmark's reference plus residual/error bounds."""
    body = summary.get("report", {})
    out = []
    for key in ("vertices", "included", "faces", "universal_cover_patch"):
        if body.get(key) != ref[key]:
            out.append(f"mesh {key}: {body.get(key)!r} != {ref[key]!r}")
    residual = _as_float(body.get("max_loop_residual"))
    if residual is None or not residual <= ref["max_loop_residual_bound"]:
        out.append(f"mesh max_loop_residual {residual!r} above {ref['max_loop_residual_bound']}")
    path_error = _as_float(body.get("max_path_error"))
    if path_error is None or not path_error <= ref["max_path_error_bound"]:
        out.append(f"mesh max_path_error {path_error!r} above {ref['max_path_error_bound']}")
    rows, faces = mesh_file_counts(mesh_text, fmt)
    if rows != ref["included"]:
        out.append(f"mesh file has {rows} vertices, expected {ref['included']}")
    if fmt == "obj-3d" and faces != 2 * ref["faces"]:
        out.append(f"mesh file has {faces} triangles, expected {2 * ref['faces']}")
    return out


# -- ladders ----------------------------------------------------------------------


def _point(value):
    """A sphere point from a document value: {"re", "im"}, "inf" or a number."""
    if value == "inf":
        return None
    if isinstance(value, dict):
        return complex(_as_float(value.get("re")) or 0.0, _as_float(value.get("im")) or 0.0)
    f = _as_float(value)
    return complex(f) if f is not None else None


def ladder_summary(doc: dict) -> dict:
    """The parts of a ramify document the oracle checks."""
    body = doc["report"]
    ram = body["ramification"]
    zero = None
    for entry in ram["values"]:
        p = _point(entry["value"])
        if p is not None and abs(p) <= 1e-9:
            zero = {"kind": entry["kind"], "nu": entry["nu"]}
    return {"degree": ram["degree"], "n1": ram["n1"], "zero": zero}


def ladder_oracle(maps: list[tuple[list[int], list[int], int]]) -> list[dict]:
    """Exact expectations for maps num/den, num = base^power, by sympy.

    Returns per map the degree of the reduced map, n1 = 2d - 2 and the
    least multiplicity of a finite root of the reduced numerator.  The only
    puncture is infinity, so the value 0 is totally ramified with that nu
    exactly when the least multiplicity is at least 2.
    """
    import sympy

    z = sympy.Symbol("z")
    out = []
    for base, den, power in maps:
        num_p = sympy.Poly(list(reversed(base)), z) ** power
        den_p = sympy.Poly(list(reversed(den)), z)
        g = sympy.gcd(num_p, den_p)
        num_r = sympy.div(num_p, g)[0]
        den_r = sympy.div(den_p, g)[0]
        degree = max(num_r.degree(), den_r.degree())
        _, factors = sympy.sqf_list(num_r)
        nu0 = min(mult for _, mult in factors)
        out.append({"degree": degree, "n1": 2 * degree - 2, "nu0": nu0})
    return out


def check_ladder(summary: dict, expected: dict) -> list[str]:
    out = []
    if summary["degree"] != expected["degree"]:
        out.append(f"degree {summary['degree']} != {expected['degree']}")
    if summary["n1"] != expected["n1"]:
        out.append(f"n1 {summary['n1']} != {expected['n1']}")
    zero = summary["zero"]
    if expected["nu0"] >= 2:
        if zero is None or zero["kind"] != "totally-ramified" or zero["nu"] != expected["nu0"]:
            out.append(f"value 0 reported as {zero!r}, expected totally ramified with nu {expected['nu0']}")
    elif zero is not None and zero["kind"] == "totally-ramified":
        out.append(f"value 0 reported as {zero!r}, but it has a simple preimage")
    return out
