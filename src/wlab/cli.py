"""Command-line front end: JSON data sets in, JSON/CSV/OBJ analyses out.

Subcommands: check (conformality/regularity/periods plus end classification),
ramify (totally ramified values of one Gauss component), bounds (degree and
ramification ceilings, concrete or abstract), unicity (shared-value comparison
of two data sets), mesh (numerical immersion export), and report (everything
about one data set in a single document).

Exit codes: 0 clean, 1 usage or input error (a genus other than 0 included),
2 mathematical failure (a failed condition, a contradiction verdict, or a
numerical cross-check that did not converge).  Each command that reads a data
file derives what it reports from one ``Analysis`` of that file (for mesh, the
one ``build_mesh`` holds).  Documents go to stdout, or to --out when given.
No step draws random numbers, so a document depends only on its input and
flags; every document records the tolerance scale used.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .analysis import Analysis
from .bounds import CASE_FLAT, BoundsReport, compute_bounds_abstract, corollary_check, unicity_of
from .curvature import total_curvature_quadrature
from .exprparse import ExpressionError, format_complex, parse_expression, parse_sphere_point
from .mesh import Annulus, Rectangle, build_mesh, export_mesh
from .report import document, to_json
from .tolerances import Tolerances
from .weierstrass import VERDICT_REMOVABLE, UnsupportedGenusError, WeierstrassData

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MATH = 2


class CliUsageError(Exception):
    """Bad flags or malformed input; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); our contract says 1
        raise CliUsageError(message)


def _load_data(path: str) -> WeierstrassData:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliUsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise CliUsageError(f"{path}: input document must be a JSON object")
    missing = [key for key in ("genus", "punctures", "h", "g1", "g2") if key not in raw]
    if missing:
        raise CliUsageError(f"{path}: missing required fields: {', '.join(missing)}")
    genus = raw["genus"]
    if not isinstance(genus, int) or genus < 0:
        raise CliUsageError(f"{path}: genus must be a non-negative integer")
    if not isinstance(raw["punctures"], list):
        raise CliUsageError(f"{path}: punctures must be a list of point literals")
    label = raw.get("label", "")
    if not isinstance(label, str):
        raise CliUsageError(f"{path}: label must be a string")
    try:
        punctures = tuple(parse_sphere_point(str(p)) for p in raw["punctures"])
        data = WeierstrassData(
            h=parse_expression(str(raw["h"])),
            g1=parse_expression(str(raw["g1"])),
            g2=parse_expression(str(raw["g2"])),
            punctures=punctures,
            genus=genus,
            label=label,
        )
    except (ExpressionError, ValueError) as exc:
        raise CliUsageError(f"{path}: {exc}") from exc
    return data


def _tolerances(args) -> tuple[Tolerances, float]:
    try:
        return Tolerances().scaled(args.tolerance_scale), args.tolerance_scale
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc


def _emit(doc: dict, out: str | None) -> None:
    text = to_json(doc)
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand bodies ----------------------------------------------------------


def _check_body(an: Analysis) -> tuple[dict, list[str]]:
    # this order decides which failing step is reported first
    conf = an.conformality
    reg = an.regularity
    periods = an.periods
    ends = an.ends
    failures = []
    if not conf.ok:
        failures.append("conformality")
    if not reg.ok:
        failures.append("regularity")
    if not periods.period_ok:
        failures.append("period")
    warnings = [
        f"end at {rec.puncture} is a removable point, not a genuine end"
        for rec in ends.records
        if rec.verdict == VERDICT_REMOVABLE
    ]
    body = {
        "conformality": conf,
        "regularity": reg,
        "periods": periods,
        "ends": ends,
        "ok": not failures,
        "failures": failures,
        "warnings": warnings,
    }
    return body, failures


def cmd_check(args) -> int:
    tol, scale = _tolerances(args)
    an = Analysis(_load_data(args.file), tol)
    body, failures = _check_body(an)
    _emit(document("check", an.data.label, body, tolerance_scale=scale), args.out)
    return EXIT_MATH if failures else EXIT_OK


def _ramify_body(an: Analysis, component: int) -> tuple[dict, bool]:
    g = an.data.g1 if component == 1 else an.data.g2
    if g.is_constant:
        return (
            {
                "component": component,
                "verdict": "constant component",
                "constant_value": format_complex(g.constant_value),
            },
            True,
        )
    rep = an.ramification(component)
    body = {"component": component, "verdict": "analyzed", "ramification": rep}
    return body, bool(rep.rh_ok and rep.puncture_budget_ok)


def cmd_ramify(args) -> int:
    tol, scale = _tolerances(args)
    an = Analysis(_load_data(args.file), tol)
    body, ok = _ramify_body(an, args.component)
    _emit(document("ramify", an.data.label, body, tolerance_scale=scale), args.out)
    return EXIT_OK if ok else EXIT_MATH


def _parse_fraction(text: str | None, flag: str):
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliUsageError(f"{flag} must be an integer or fraction, got {text!r}") from exc


def _corollary(rep: BoundsReport) -> str | None:
    """The corollary verdict, or None where the exceptional-value counts are unknown."""
    if rep.exceptional_g1 is None and rep.exceptional_g2 is None and rep.case != CASE_FLAT:
        return None
    return corollary_check(rep)


def cmd_bounds(args) -> int:
    tol, scale = _tolerances(args)
    if args.abstract is not None and args.file:
        raise CliUsageError("give either an input file or --abstract, not both")
    if args.abstract is not None:
        G, k, d1, d2 = args.abstract
        mu = None
        if args.mu is not None:
            try:
                mu = tuple(int(m) for m in args.mu.split(","))
            except ValueError as exc:
                raise CliUsageError(f"--mu must be a comma-separated integer list: {exc}") from exc
        try:
            rep = compute_bounds_abstract(
                G,
                k,
                d1,
                d2,
                nu1=_parse_fraction(args.nu1, "--nu1"),
                nu2=_parse_fraction(args.nu2, "--nu2"),
                mu=mu,
            )
        except ValueError as exc:
            raise CliUsageError(str(exc)) from exc
        label = ""
    else:
        if not args.file:
            raise CliUsageError("an input file (or --abstract) is required")
        an = Analysis(_load_data(args.file), tol)
        label = an.data.label
        rep = an.bounds
    body = {"bounds": rep}
    corollary = _corollary(rep)
    if corollary is not None:
        body["corollary"] = corollary
    _emit(document("bounds", label, body, tolerance_scale=scale), args.out)
    return EXIT_MATH if rep.contradiction else EXIT_OK


def cmd_unicity(args) -> int:
    tol, scale = _tolerances(args)
    data_a = _load_data(args.file_a)
    data_b = _load_data(args.file_b)
    a, b = Analysis(data_a, tol), Analysis(data_b, tol)
    try:
        rep = unicity_of(a, b)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    label = " vs ".join(x for x in (data_a.label, data_b.label) if x)
    _emit(document("unicity", label, {"unicity": rep}, tolerance_scale=scale), args.out)
    return EXIT_MATH if rep.contradiction else EXIT_OK


def _parse_region(text: str):
    kind, _, rest = text.partition(":")
    parts = rest.split(",") if rest else []
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise CliUsageError(f"--region values must be numbers: {exc}") from exc
    try:
        if kind == "rect" and len(values) == 4:
            return Rectangle(*values)
        if kind == "annulus" and len(values) == 4:
            cx, cy, r0, r1 = values
            return Annulus(complex(cx, cy), r0, r1)
    except ValueError as exc:
        raise CliUsageError(f"--region: {exc}") from exc
    raise CliUsageError(
        "--region must be rect:re_min,re_max,im_min,im_max or annulus:cx,cy,r_inner,r_outer"
    )


def _parse_resolution(text: str):
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise CliUsageError(f"--res must be an integer or pair: {exc}") from exc
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        return (parts[0], parts[1])
    raise CliUsageError("--res must be N or NROWS,NCOLS")


def _parse_base(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise CliUsageError(f"--base must be re,im: {exc}") from exc


def _parse_projection(text: str):
    try:
        axes = tuple(int(a) - 1 for a in text.split(","))
    except ValueError as exc:
        raise CliUsageError(f"--project must be three axes like 1,2,3: {exc}") from exc
    if len(axes) != 3 or not all(0 <= a <= 3 for a in axes) or len(set(axes)) != 3:
        raise CliUsageError("--project must pick three distinct coordinates from 1..4")
    return axes


def cmd_mesh(args) -> int:
    tol, scale = _tolerances(args)
    data = _load_data(args.file)
    region = _parse_region(args.region)
    resolution = _parse_resolution(args.res)
    base = _parse_base(args.base)
    try:
        mesh = build_mesh(data, region, resolution, base, tol)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    projection = _parse_projection(args.project) if args.format == "obj-3d" else None
    export_mesh(mesh, args.mesh_out, args.format, projection)
    summary = {
        "out": args.mesh_out,
        "format": args.format,
        "vertices": int(mesh.z.size),
        "included": mesh.included_count,
        "faces": len(mesh.faces),
        "universal_cover_patch": mesh.universal_cover_patch,
        "max_loop_residual": mesh.max_loop_residual,
        "max_path_error": mesh.max_path_error,
        "base_point": mesh.base_point,
    }
    _emit(document("mesh", data.label, summary, tolerance_scale=scale), args.out)
    return EXIT_OK


def cmd_report(args) -> int:
    tol, scale = _tolerances(args)
    an = Analysis(_load_data(args.file), tol)
    check_body, failures = _check_body(an)
    ram1, _ = _ramify_body(an, 1)
    ram2, _ = _ramify_body(an, 2)
    bounds = an.bounds
    closed = an.curvature_closed_form
    quad = total_curvature_quadrature(an.data, tol)
    agree = abs(quad - closed.basic_domain_value) <= 10 * tol.quad_rtol * max(
        1.0, abs(closed.basic_domain_value)
    )
    body = {
        "check": check_body,
        "ramification": {"g1": ram1, "g2": ram2},
        "bounds": bounds,
        "corollary": _corollary(bounds),
        "curvature": {
            "closed_form": closed,
            "quadrature_value": quad,
            "routes_agree": agree,
        },
    }
    _emit(document("report", an.data.label, body, tolerance_scale=scale), args.out)
    failed = bool(failures) or bounds.contradiction or not agree
    return EXIT_MATH if failed else EXIT_OK


# -- argument wiring ------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="wlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tolerance-scale", type=float, default=1.0, help="multiply all tolerances")
        p.add_argument("--out", default=None, help="write the JSON document here instead of stdout")

    p = sub.add_parser("check", help="conformality, regularity, periods, end classification")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("ramify", help="totally ramified values of one Gauss component")
    p.add_argument("file")
    p.add_argument("--component", type=int, choices=(1, 2), default=1)
    common(p)
    p.set_defaults(fn=cmd_ramify)

    p = sub.add_parser("bounds", help="degree/ramification ceilings; concrete file or abstract invariants")
    p.add_argument("file", nargs="?")
    p.add_argument("--abstract", nargs=4, type=int, metavar=("G", "K", "D1", "D2"), default=None)
    p.add_argument("--nu1", default=None, help="totally ramified value number of g1 (fraction ok)")
    p.add_argument("--nu2", default=None, help="totally ramified value number of g2 (fraction ok)")
    p.add_argument("--mu", default=None, help="comma-separated pole orders of h dz at the punctures")
    common(p)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("unicity", help="shared-value comparison of two data sets")
    p.add_argument("file_a")
    p.add_argument("file_b")
    common(p)
    p.set_defaults(fn=cmd_unicity)

    p = sub.add_parser("mesh", help="integrate the immersion on a grid and export it")
    p.add_argument("file")
    p.add_argument("--region", required=True, help="rect:re0,re1,im0,im1 or annulus:cx,cy,r0,r1")
    p.add_argument("--res", default="33", help="vertices per axis: N or NROWS,NCOLS")
    p.add_argument("--base", required=True, help="base point re,im (maps to the origin)")
    p.add_argument("--format", choices=("csv", "obj-3d"), default="csv")
    p.add_argument("--project", default="1,2,3", help="three 4D coordinates for obj-3d, e.g. 1,2,4")
    p.add_argument("--mesh-out", required=True, help="mesh file to write")
    common(p)
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("report", help="check + ramify both components + bounds + curvature")
    p.add_argument("file")
    common(p)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (CliUsageError, ExpressionError, UnsupportedGenusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # numerical cross-checks, contradictory data
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
