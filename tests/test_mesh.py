from __future__ import annotations

import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import oracle
from conftest import load_fixture, write_data
import wlab.cli
import wlab.roots
import wlab.report
from wlab.mesh import (
    Annulus,
    MeshRegionError,
    PoleOnPathError,
    QuadratureConvergenceError,
    Rectangle,
    build_mesh,
    export_mesh,
)
from wlab.rational import RationalFunction
from wlab.report import format_float
from wlab.tolerances import Tolerances
from wlab.weierstrass import WeierstrassData

HERE = Path(__file__).resolve().parent
SNAPSHOTS = HERE / "snapshots"

Z = RationalFunction.variable()
ONE = RationalFunction.constant(1)
ZERO = RationalFunction.constant(0)


def enneper() -> WeierstrassData:
    return WeierstrassData(h=ONE, g1=Z, g2=ZERO, punctures=("inf",))


def enneper_exact(z: complex) -> np.ndarray:
    """Antiderivative of (1/2, i/2, z/2, -iz/2): x = Re(z/2, iz/2, z^2/4, -iz^2/4)."""
    return np.array(
        [(z / 2).real, (1j * z / 2).real, (z * z / 4).real, (-1j * z * z / 4).real]
    )


def vertex_at(mesh, z: complex) -> int:
    v = int(np.argmin(np.abs(mesh.z - z)))
    assert abs(mesh.z[v] - z) < 1e-12
    return v


# ---------------------------------------------------------------------------
# integration correctness


def test_matches_closed_form_antiderivative():
    m = build_mesh(enneper(), Rectangle(-1.5, 1.5, -1.5, 1.5), 13, 0j)
    assert np.allclose(m.x[vertex_at(m, 1.0)], [0.5, 0.0, 0.25, 0.0], atol=1e-8)
    assert np.allclose(m.x[vertex_at(m, 1j)], [0.0, -0.5, -0.25, 0.0], atol=1e-8)
    for v in np.flatnonzero(m.included):
        assert np.linalg.norm(m.x[v] - enneper_exact(m.z[v])) < 1e-8


def test_base_point_maps_to_origin():
    m = build_mesh(enneper(), Rectangle(-1.0, 1.0, -1.0, 1.0), 9, 0j)
    assert np.allclose(m.x[vertex_at(m, 0j)], 0.0, atol=1e-14)
    shifted = build_mesh(enneper(), Rectangle(-1.0, 1.0, -1.0, 1.0), 9, 0.5 + 0.5j)
    assert np.allclose(shifted.x[vertex_at(shifted, 0.5 + 0.5j)], 0.0, atol=1e-14)


def test_refinement_stays_within_error_estimate():
    # the closed form is exact to rounding at every resolution: the coarse
    # and fine meshes agree with the exact primitive, and so with each other
    d = WeierstrassData(h=1 / Z**3, g1=Z, g2=ONE, punctures=("0", "inf"))
    region = Rectangle(0.5, 2.5, 0.5, 2.5)
    z0 = 1.0 + 1.0j
    coarse = build_mesh(d, region, 9, z0)
    fine = build_mesh(d, region, 17, z0)
    exact = oracle.mesh_coordinates("example23", z0, coarse.z)  # h = 1/z^3, g1 = z, g2 = 1
    rows, cols = coarse.shape
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            v = (2 * i) * (2 * cols - 1) + 2 * j
            assert abs(fine.z[v] - coarse.z[u]) < 1e-12
            assert np.linalg.norm(coarse.x[u] - exact[u]) <= 1e-12
            assert np.linalg.norm(fine.x[v] - coarse.x[u]) <= 1e-12


def test_loop_residuals_far_below_error_budget():
    # the forms are linear, so order-8 quadrature is exact on every edge
    m = build_mesh(enneper(), Rectangle(-1.0, 1.0, -1.0, 1.0), 13, 0j)
    assert m.max_loop_residual <= 1e-12
    assert m.max_path_error <= 1e-12
    for v in np.flatnonzero(m.included):
        assert np.linalg.norm(m.x[v] - enneper_exact(m.z[v])) <= 1e-12


def test_discrete_conformality_and_pullback_metric():
    n = 41
    m = build_mesh(enneper(), Rectangle(-1.0, 1.0, -1.0, 1.0), n, 0j)
    rows, cols = m.shape
    h = 2.0 / (n - 1)
    x = m.x.reshape(rows, cols, 4)
    lam2 = m.metric.reshape(rows, cols)
    xu = (x[:, 2:, :] - x[:, :-2, :]) / (2 * h)
    xv = (x[2:, :, :] - x[:-2, :, :]) / (2 * h)
    inner = np.einsum("ijk,ijk->ij", xu[1:-1, :, :], xv[:, 1:-1, :])
    eu = np.einsum("ijk,ijk->ij", xu[1:-1, :, :], xu[1:-1, :, :])
    ev = np.einsum("ijk,ijk->ij", xv[:, 1:-1, :], xv[:, 1:-1, :])
    scale = 1.0 + lam2[1:-1, 1:-1]
    assert np.max(np.abs(inner) / scale) < 5e-3
    assert np.max(np.abs(eu - ev) / scale) < 5e-3
    assert np.max(np.abs(eu - lam2[1:-1, 1:-1]) / scale) < 5e-3


def test_flat_data_spans_a_two_plane():
    d = WeierstrassData(
        h=ONE, g1=RationalFunction.constant(2), g2=RationalFunction.constant(0.5j), punctures=("inf",)
    )
    m = build_mesh(d, Rectangle(-1.0, 1.0, -1.0, 1.0), 9, 0j)
    svals = np.linalg.svd(np.cov(m.x[m.included].T), compute_uv=False)
    assert svals[2] < 1e-9 and svals[3] < 1e-9


def inverse_square() -> WeierstrassData:
    """phi = (1/(2z^2), i/(2z^2), 1/2, -i/2), a double pole at the puncture 0."""
    return WeierstrassData(h=1 / Z**2, g1=Z**2, g2=ZERO, punctures=("0", "inf"))


def inverse_square_exact(z: complex, z0: complex) -> np.ndarray:
    def antiderivative(w):
        return np.array([-1 / (2 * w), -1j / (2 * w), w / 2, -1j * w / 2])

    return (antiderivative(z) - antiderivative(z0)).real


@pytest.mark.parametrize(
    "resolution, included, faces", [(17, 288, 252), ((17, 23), 390, 348)]
)
def test_matches_closed_form_through_an_exclusion(resolution, included, faces):
    # the puncture at 0 fences off the centre vertex and cuts its row, so the
    # breadth-first sweep reaches the far side and the faces around the hole
    # are dropped
    z0 = 1.0 + 1.0j
    m = build_mesh(inverse_square(), Rectangle(-1.0, 1.0, -1.0, 1.0), resolution, z0)
    assert (m.included_count, m.z.size - m.included_count, len(m.faces)) == (included, 1, faces)
    for v in np.flatnonzero(m.included):
        exact = inverse_square_exact(m.z[v], z0)
        assert np.linalg.norm(m.x[v] - exact) <= 1e-12


@pytest.mark.parametrize("resolution", [2, (2, 5), 5])
def test_edges_grazing_a_pole_bisect_to_the_closed_form(resolution):
    # the bottom row passes 0.01 from the double pole, where the forms reach
    # 5000: those edges converge only after several rounds of bisection
    z0 = 1.0 + 1.0j
    m = build_mesh(inverse_square(), Rectangle(-1.0, 1.0, 0.01, 1.0), resolution, z0)
    assert m.included.all()
    for v in range(m.z.size):
        assert np.linalg.norm(m.x[v] - inverse_square_exact(m.z[v], z0)) < 1e-4
    assert m.max_loop_residual < 1e-4


def test_forms_are_evaluated_a_fixed_number_of_times(monkeypatch):
    # x comes from the closed form, and the only quadrature is the sampled
    # check, one batch of at most 64 cells: the number of form evaluations
    # does not grow with the grid
    calls = 0
    evaluate = RationalFunction.__call__

    def counting(self, z):
        nonlocal calls
        calls += 1
        return evaluate(self, z)

    monkeypatch.setattr(RationalFunction, "__call__", counting)
    counts = []
    for resolution in (17, 65):
        calls = 0
        m = build_mesh(load_fixture("example21"), Rectangle(-0.5, 0.5, -0.5, 0.5), resolution, 0.25j)
        assert m.included_count == resolution * resolution
        counts.append(calls)
    assert counts[0] == counts[1] <= 64


# ---------------------------------------------------------------------------
# the exact primitive, at 30 digits (oracle.mesh_coordinates)

# fixture: (region, base point) of the snapshot and bench meshes
EXACT_CASES = {
    "example23": (Annulus(0j, 0.5, 2.0), 1.0 + 0j),
    "example21": (Rectangle(-0.5, 0.5, -0.5, 0.5), 0.25j),
}


def exact_mesh(name: str, resolution):
    """The mesh of a fixture, and x at its included vertices from the exact
    primitive at 30 digits, each rounded once to a double."""
    region, z0 = EXACT_CASES[name]
    mesh = build_mesh(load_fixture(name), region, resolution, z0)
    return mesh, oracle.mesh_coordinates(name, z0, mesh.z[mesh.included])


@pytest.mark.parametrize(
    "name, resolution",
    [
        ("example23", (5, 9)),
        ("example21", 9),
        ("example23", 17),
        ("example23", 33),
        ("example21", 17),
        ("example21", 33),
    ],
)
def test_vertices_equal_the_exact_primitive(name, resolution):
    # the snapshot meshes and the benchmark's cases: within 1e-12, and the
    # same value under the float rule the CSV and OBJ files are written by
    mesh, exact = exact_mesh(name, resolution)
    x = mesh.x[mesh.included]
    assert np.max(np.abs(x - exact)) <= 1e-12
    assert [format_float(v) for v in x.ravel()] == [format_float(v) for v in exact.ravel()]


@pytest.mark.parametrize(
    "snapshot, name, resolution, columns",
    [
        ("mesh_example23.csv", "example23", (5, 9), None),
        ("mesh_example23.obj", "example23", (5, 9), (0, 1, 2)),
        ("mesh_example21_p234.obj", "example21", 9, (1, 2, 3)),
    ],
)
def test_mesh_snapshots_carry_the_exact_primitive(snapshot, name, resolution, columns):
    lines = (SNAPSHOTS / snapshot).read_text().splitlines()
    if columns is None:  # csv: re_z, im_z, x1..x4, metric, K
        stored = [[float(f) for f in line.split(",")[2:6]] for line in lines[1:]]
        columns = (0, 1, 2, 3)
    else:
        stored = [[float(f) for f in line.split()[1:]] for line in lines if line.startswith("v ")]
    _, exact = exact_mesh(name, resolution)
    expected = [[format_float(v) for v in row] for row in exact[:, list(columns)]]
    assert stored == expected


def _through_pole() -> WeierstrassData:
    # g1 has a pole at 0.125, not a puncture, so only a positive exclusion
    # radius fences it off
    return WeierstrassData(h=ONE, g1=1 / (Z - 0.125), g2=ZERO, punctures=("inf",))


def test_unsampled_edge_through_pole_fails_typed():
    # at 33 x 33 on [-1, 1]^2 the pole is the vertex (0.125, 0), and the
    # sampled cells (columns 0 and 16 of each row) miss it: the closed form's
    # own path check must refuse, not pick a side of the pole
    bare = replace(Tolerances(), mesh_exclusion_factor=0.0)
    with pytest.raises(PoleOnPathError) as caught:
        build_mesh(_through_pole(), Rectangle(-1.0, 1.0, -1.0, 1.0), 33, -1.0 + 0j, tol=bare)
    assert caught.value.pole == 0.125


def test_unsampled_edge_through_pole_exits_math(monkeypatch, tmp_path, capsys):
    data = write_data(tmp_path, "pole", ["inf"], "1", "1/(z-1/8)", "0")
    bare = replace(Tolerances(), mesh_exclusion_factor=0.0)
    monkeypatch.setattr(wlab.cli, "_tolerances", lambda args: (bare, 1.0))
    code = wlab.cli.main(
        ["mesh", str(data), "--region", "rect:-1,1,-1,1", "--res", "33", "--base=-1,0",
         "--mesh-out", str(tmp_path / "m.csv")]
    )
    assert code == wlab.cli.EXIT_MATH
    assert "PoleOnPathError" in capsys.readouterr().err


@pytest.mark.parametrize("name", sorted(EXACT_CASES))
def test_benchmark_meshes_raise_no_runtime_warning(name):
    region, z0 = EXACT_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for resolution in (17, 33):
            build_mesh(load_fixture(name), region, resolution, z0)


@pytest.mark.parametrize("name", ["example23", "example21"])
def test_mesh_locates_no_extra_roots(record_calls, name):
    # the exclusion centres, the primitive and the periods all read the one
    # pole table; every pole of h lies at a puncture (g1, g2 are
    # polynomials), whose exact value is its place, so nothing is root-found
    located = record_calls(wlab.roots, "roots_with_multiplicity")
    region, z0 = EXACT_CASES[name]
    data = load_fixture(name)
    build_mesh(data, region, 17, z0)
    assert located == []


# ---------------------------------------------------------------------------
# annulus patches and periods


def test_annulus_seam_gap_is_the_period():
    # phi_4 = -i/(2z) has residue -i/2, so x_4 gains Re(2 pi i * -i/2) = pi
    # per loop; the cut seam exposes exactly that gap.
    d = WeierstrassData(h=1 / Z**2, g1=Z, g2=ZERO, punctures=("0", "inf"))
    m = build_mesh(d, Annulus(0j, 0.5, 2.0), (7, 25), 1.0 + 0j)
    assert m.universal_cover_patch
    rows, cols = m.shape
    gaps = [m.x[r * cols + cols - 1] - m.x[r * cols] for r in range(rows)]
    for gap in gaps:
        assert np.allclose(gap, [0.0, 0.0, 0.0, np.pi], atol=1e-9)


def test_annulus_closes_when_periods_vanish():
    d = WeierstrassData(h=1 / Z**3, g1=Z, g2=ONE, punctures=("0", "inf"))
    m = build_mesh(d, Annulus(0j, 0.5, 2.0), (7, 25), 1.0 + 0j)
    assert not m.universal_cover_patch
    rows, cols = m.shape
    for r in range(rows):
        gap = m.x[r * cols + cols - 1] - m.x[r * cols]
        assert np.linalg.norm(gap) < 1e-9


# ---------------------------------------------------------------------------
# exclusions and validation


def test_puncture_inside_region_is_fenced_off():
    d = WeierstrassData(h=1 / Z, g1=Z, g2=ZERO, punctures=("0", "inf"))
    m = build_mesh(d, Rectangle(-1.0, 1.0, -1.0, 1.0), 9, 1.0 + 1.0j)
    center = vertex_at(m, 0j)
    assert not m.included[center]
    assert m.included_count == m.z.size - 1
    assert np.isnan(m.x[center, 0]) and np.isnan(m.metric[center])
    assert all(center not in quad for quad in m.faces)
    assert len(m.faces) == 64 - 4
    assert np.isfinite(m.x[m.included]).all()


def test_zero_exclusion_with_interior_puncture_rejected():
    d = WeierstrassData(h=1 / Z, g1=Z, g2=ZERO, punctures=("0", "inf"))
    bare = replace(Tolerances(), mesh_exclusion_factor=0.0)
    with pytest.raises(MeshRegionError):
        build_mesh(d, Rectangle(-1.0, 1.0, -1.0, 1.0), 9, 1.0 + 1.0j, tol=bare)


def test_base_point_validation():
    with pytest.raises(MeshRegionError):
        build_mesh(enneper(), Rectangle(-1.0, 1.0, -1.0, 1.0), 9, 5.0 + 0j)
    d = WeierstrassData(h=1 / Z, g1=Z, g2=ZERO, punctures=("0", "inf"))
    with pytest.raises(MeshRegionError):
        build_mesh(d, Rectangle(-1.0, 1.0, -1.0, 1.0), 9, 0j)


def test_region_and_resolution_validation():
    with pytest.raises(TypeError):
        build_mesh(enneper(), "rectangle", 9, 0j)
    with pytest.raises(ValueError):
        build_mesh(enneper(), Rectangle(-1.0, 1.0, -1.0, 1.0), 1, 0j)
    with pytest.raises(ValueError):
        Rectangle(1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Annulus(0j, 2.0, 0.5)
    for bounds in ((-np.inf, np.inf, -1.0, 1.0), (0.0, np.nan, 0.0, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            Rectangle(*bounds)
    for center, r_inner, r_outer in ((complex(np.nan, 0.0), 0.5, 1.0), (0j, 0.5, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            Annulus(center, r_inner, r_outer)


def test_edge_through_pole_fails_loudly():
    # g1 has a pole at 0.1, placed exactly on a grid row, and the exclusion
    # radius is zeroed so nothing fences it off.  At 9 x 9 every cell is in
    # the sampled check, whose edge quadrature must refuse rather than return
    # garbage.
    d = WeierstrassData(h=ONE, g1=1 / (Z - 0.1), g2=ZERO, punctures=("inf",))
    bare = replace(Tolerances(), mesh_exclusion_factor=0.0)
    with pytest.raises(QuadratureConvergenceError):
        build_mesh(d, Rectangle(-1.0, 1.0, -1.0, 1.0), 9, -1.0 + 0j, tol=bare)


# ---------------------------------------------------------------------------
# export


def test_csv_two_by_two(tmp_path):
    m = build_mesh(enneper(), Rectangle(0.0, 1.0, 0.0, 1.0), 2, 0j)
    out = tmp_path / "m.csv"
    export_mesh(m, out, "csv")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "re_z,im_z,x1,x2,x3,x4,metric_factor,gauss_curvature"
    assert len(lines) == 1 + 4


def test_csv_fields_follow_the_float_rule(tmp_path):
    # x2 and x4 vanish along the real axis here, where rounding leaves
    # values below 1e-12 of either sign
    d = WeierstrassData(h=1 / Z**3, g1=Z, g2=ONE, punctures=("0", "inf"))
    m = build_mesh(d, Annulus(0j, 0.5, 2.0), (5, 9), 1.0 + 0j)
    out = tmp_path / "m.csv"
    export_mesh(m, out, "csv")
    fields = [f for line in out.read_text().splitlines()[1:] for f in line.split(",")]
    assert len(fields) == 8 * m.included_count
    assert not any(f.startswith("-0") and float(f) == 0.0 for f in fields)
    for f in fields:
        mantissa = f.split("e")[0].lstrip("-").replace(".", "").lstrip("0")
        assert len(mantissa) <= 12, f


def test_csv_deterministic(tmp_path):
    region = Rectangle(-1.0, 1.0, -1.0, 1.0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    export_mesh(build_mesh(enneper(), region, 7, 0j), a, "csv")
    export_mesh(build_mesh(enneper(), region, 7, 0j), b, "csv")
    assert a.read_bytes() == b.read_bytes()


def test_obj_counts_and_projection(tmp_path):
    d = WeierstrassData(h=1 / Z, g1=Z, g2=ZERO, punctures=("0", "inf"))
    m = build_mesh(d, Rectangle(-1.0, 1.0, -1.0, 1.0), 9, 1.0 + 1.0j)
    out = tmp_path / "m.obj"
    export_mesh(m, out, "obj-3d", projection=(0, 1, 3))
    lines = out.read_text(encoding="utf-8").splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == m.included_count
    assert len(fs) == 2 * len(m.faces)
    assert set(l.split()[0] for l in lines) == {"v", "f"}
    refs = {int(t) for l in fs for t in l.split()[1:]}
    assert min(refs) >= 1 and max(refs) <= len(vs)


def test_obj_matrix_projection(tmp_path):
    # the projection matrix keeps three of the four coordinates; a 3x4
    # matrix is not an axis triple and is rejected like any other
    m = build_mesh(enneper(), Rectangle(0.0, 1.0, 0.0, 1.0), 3, 0j)
    export_mesh(m, tmp_path / "ok.obj", "obj-3d", projection=(0, 1, 3))
    rows = [line.split()[1:] for line in (tmp_path / "ok.obj").read_text().splitlines()
            if line.startswith("v ")]
    assert np.array(rows, dtype=float) == pytest.approx(m.x[m.included][:, [0, 1, 3]], abs=1e-11)
    ortho = np.array(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.6, 0.8]]
    )
    for bad in (ortho, (0, 0, 1), (0, 1, 4)):
        with pytest.raises(ValueError):
            export_mesh(m, tmp_path / "bad.obj", "obj-3d", projection=bad)
    with pytest.raises(ValueError):
        export_mesh(m, tmp_path / "bad3.csv", "vtk")


def test_export_is_formatted_in_blocks(tmp_path, monkeypatch):
    # fields are rounded in numpy, with the scalar round only where that is
    # not certified exact, and no Python line runs once per face or vertex
    scalar_rounds = 0

    def counting_round(x, ndigits=None):
        nonlocal scalar_rounds
        scalar_rounds += 1
        return round(x, ndigits)

    monkeypatch.setattr(wlab.report, "round", counting_round, raising=False)
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if "wlab" not in frame.f_code.co_filename:
            return None
        lines += event == "line"
        return tracer

    m = build_mesh(load_fixture("example21"), Rectangle(-0.5, 0.5, -0.5, 0.5), 65, 0.25j)
    assert len(m.faces) == 64 * 64
    for fmt, columns in (("csv", 8), ("obj-3d", 3)):
        scalar_rounds = lines = 0
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            export_mesh(m, tmp_path / "mesh.out", fmt)
        finally:
            sys.settrace(previous)
        assert scalar_rounds <= 0.01 * columns * m.included_count, fmt
        # a line per vertex or per face would come to thousands
        assert lines - 2 * scalar_rounds < 300, fmt
