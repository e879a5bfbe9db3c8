"""Immersion x(z) = Re integral(phi) on a chart grid, in closed form, plus export.

Every form phi_k is rational, so x_k = Re(F_k(z) - F_k(z0)) for an exact
primitive F_k: the integral of the polynomial part of phi_k (read off the
exact pair, ``RationalFunction.polynomial_part``), plus
a_-n / ((1 - n) (z - p)^(n-1)) for each principal-part term
a_-n (z - p)^-n, n >= 2, plus c log(z - p) for the
residue c at each pole p (Bronstein, *Symbolic Integration I*, ch. 2).  The
Laurent coefficients are the ``Analysis`` table of principal parts, exact
over Q(i) and read at the data's poles with their exact orders, so meshing
seeks no root of its own.  A form's pole at a root of a piece of higher
degree, off the punctures, has no exact principal part: the data is not
regular there, and the table raises ``PoleTableError``.

Re(c log(z - p)) = Re(c) log|z - p| - Im(c) arg(z - p).  Where Im c != 0 the
arg is continued along a fixed integration tree, laid out from the grid
before anything is evaluated: the column through the base vertex first,
then each row from that column outward, then a breadth-first sweep for any
vertices whose row was interrupted by an exclusion.  On a tree edge a -> b
that misses p the arg changes by angle((b - p) / (a - p)), in (-pi, pi);
the tree sum only picks each vertex's branch, and the arg itself is taken
in one step from the base point.  A vertex or tree edge that meets a pole
raises ``PoleOnPathError`` rather than guess a side.

Punctures and poles of h, g1, g2 (``Analysis.singular_points``) are fenced
off by an exclusion radius (mesh_exclusion_factor times the region
diameter), because the metric blows up at complete ends.  The patch itself
is always simply connected, so x is single-valued on it even when the
periods of the data do not vanish; the mesh is then stamped
``universal_cover_patch`` to record that the surface as a whole only closes
up on the universal cover.  Annular grids are cut along
the angle-0 seam, with the seam column duplicated, for the same reason.

An independent check runs first, on a sample of at most 64 grid cells: each
cell's four edges are integrated by adaptive Gauss-Legendre quadrature
(order 8 for the value, order 4 for the error estimate, bisecting edges
that disagree, and raising ``QuadratureConvergenceError`` on one that keeps
failing, as an edge through a pole does).  The largest sum around a cell is
recorded as ``max_loop_residual``, and the largest gap between a quadrature
increment and the closed form's as ``max_path_error``.

The export writes every float under the package's float rule (12 decimal
places, then 12 significant digits) in blocks of rows: each block is
rounded in numpy, with Python's scalar ``round`` only on the few fields
where numpy's rounding is not certified to equal it, and turned into text
by one %-format (see ``report.format_float_rows``).  The bytes are those of
formatting each field on its own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .analysis import Analysis
from .curvature import curvature_from_metric
from .poly import Polynomial
from .report import format_float_rows
from .tolerances import Tolerances
from .weierstrass import WeierstrassData, metric_factor_from_phi

__all__ = [
    "Rectangle",
    "Annulus",
    "SurfaceMesh",
    "MeshRegionError",
    "PoleOnPathError",
    "QuadratureConvergenceError",
    "build_mesh",
    "export_mesh",
]


class MeshRegionError(ValueError):
    """The requested region, base point, and exclusions are incompatible."""


class PoleOnPathError(ArithmeticError):
    """A grid vertex or an integration-tree edge meets a pole of a form."""

    def __init__(self, pole: complex, a: complex, b: complex):
        self.pole = pole
        self.a = a
        self.b = b
        super().__init__(
            f"the path from {a} to {b} meets the pole {pole}, where the "
            "primitive has no value; raise the exclusion factor"
        )


class QuadratureConvergenceError(RuntimeError):
    """An edge integral keeps disagreeing between quadrature orders."""

    def __init__(self, a: complex, b: complex, error: float):
        self.a = a
        self.b = b
        self.error = error
        super().__init__(
            f"edge integral from {a} to {b} does not converge "
            f"(order-8 vs order-4 disagreement {error:.3e}); "
            "the edge probably grazes a pole"
        )


@dataclass(frozen=True)
class Rectangle:
    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        if not np.isfinite([self.re_min, self.re_max, self.im_min, self.im_max]).all():
            raise ValueError("rectangle bounds must be finite")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("rectangle must have positive extent on both axes")

    @property
    def diameter(self) -> float:
        return float(np.hypot(self.re_max - self.re_min, self.im_max - self.im_min))

    def contains(self, z: complex) -> bool:
        return (
            self.re_min <= z.real <= self.re_max
            and self.im_min <= z.imag <= self.im_max
        )


@dataclass(frozen=True)
class Annulus:
    center: complex
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not np.isfinite([self.center, self.r_inner, self.r_outer]).all():
            raise ValueError("annulus center and radii must be finite")
        if not (0 < self.r_inner < self.r_outer):
            raise ValueError("annulus needs 0 < r_inner < r_outer")

    @property
    def diameter(self) -> float:
        return 2.0 * self.r_outer

    def contains(self, z: complex) -> bool:
        return self.r_inner <= abs(z - self.center) <= self.r_outer


@dataclass(frozen=True)
class SurfaceMesh:
    """Grid immersion with per-vertex metric and curvature.

    Arrays are flat over the row-major grid of ``shape`` = (rows, cols);
    ``included`` masks vertices inside exclusion zones or unreachable from
    the base point (their x, metric, and K entries are NaN).  ``faces`` holds
    one counter-clockwise quad of flat indices per row, only over included
    vertices.
    ``max_loop_residual`` and ``max_path_error`` come from the sampled
    quadrature check (module docstring); both are 0 when there are no faces.
    """

    z: np.ndarray  # (n,) complex grid points
    x: np.ndarray  # (n, 4) immersion, x(base_point) = 0
    metric: np.ndarray  # (n,) lambda^2
    gauss: np.ndarray  # (n,) K
    included: np.ndarray  # (n,) bool
    faces: np.ndarray  # (F, 4) vertex indices
    shape: tuple[int, int]
    base_point: complex
    universal_cover_patch: bool
    max_loop_residual: float
    max_path_error: float

    def __post_init__(self):
        for arr in (self.z, self.x, self.metric, self.gauss, self.included, self.faces):
            arr.setflags(write=False)

    @property
    def included_count(self) -> int:
        return int(np.count_nonzero(self.included))


# -- quadrature -----------------------------------------------------------------

_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL4_NODES, _GL4_WEIGHTS = np.polynomial.legendre.leggauss(4)
_MAX_EDGE_SPLITS = 8
_EDGE_RTOL = 1e-3  # requested relative accuracy of the sampled edge check


def _gauss_rule(forms, mid: np.ndarray, half: np.ndarray, nodes, weights) -> np.ndarray:
    z = mid[:, None] + half[:, None] * nodes
    return np.stack([half * np.sum(weights * f(z), axis=1) for f in forms], axis=1)


def _integrate_edges(forms, a: np.ndarray, b: np.ndarray, rtol: float, depth: int = 0):
    """(E, 4) integrals of the four forms along each segment [a[k], b[k]].

    Edges whose order-8 and order-4 values disagree are bisected together as
    one sub-batch; a NaN from a node on a pole fails the test like any other
    disagreement.
    """
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    inc = _gauss_rule(forms, mid, half, _GL8_NODES, _GL8_WEIGHTS)
    err = np.linalg.norm(inc - _gauss_rule(forms, mid, half, _GL4_NODES, _GL4_WEIGHTS), axis=1)
    bad = np.flatnonzero(~(err <= rtol * np.fmax(1.0, np.linalg.norm(inc, axis=1))))
    if bad.size == 0:
        return inc
    if depth >= _MAX_EDGE_SPLITS:
        k = bad[0]
        raise QuadratureConvergenceError(complex(a[k]), complex(b[k]), float(err[k]))
    # halves interleaved, so the sub-batch stays in depth-first order and
    # a failure names the first piece, in path order, that gives up
    ends = np.stack((a[bad], mid[bad], b[bad]), axis=1)
    sub = _integrate_edges(
        forms, ends[:, :2].reshape(-1), ends[:, 1:].reshape(-1), rtol, depth + 1
    )
    inc[bad] = sub[0::2] + sub[1::2]
    return inc


# -- grid construction ----------------------------------------------------------


def _normalize_resolution(resolution) -> tuple[int, int]:
    if isinstance(resolution, int):
        rows = cols = resolution
    else:
        rows, cols = (int(r) for r in resolution)
    if rows < 2 or cols < 2:
        raise ValueError("resolution must be at least 2 vertices per axis")
    return int(rows), int(cols)


def _grid_points(region, rows: int, cols: int) -> np.ndarray:
    if isinstance(region, Rectangle):
        re = np.linspace(region.re_min, region.re_max, cols)
        im = np.linspace(region.im_min, region.im_max, rows)
        return (re[None, :] + 1j * im[:, None]).reshape(-1)
    radii = np.linspace(region.r_inner, region.r_outer, rows)
    angles = np.linspace(0.0, 2.0 * np.pi, cols)  # seam column duplicated
    return (region.center + radii[:, None] * np.exp(1j * angles[None, :])).reshape(-1)


def _segments_clear(a: np.ndarray, b: np.ndarray, centers, radius: float) -> np.ndarray:
    """Whether each segment [a, b] stays at least ``radius`` from every center."""
    ab = b - a
    length2 = np.abs(ab) ** 2
    clear = np.ones(ab.shape, dtype=bool)
    for c in centers:
        along = (c - a).real * ab.real + (c - a).imag * ab.imag
        t = np.divide(along, length2, out=np.zeros_like(along), where=length2 != 0.0)
        t = np.minimum(1.0, np.maximum(0.0, t))
        clear &= ~(np.abs(a + t * ab - c) < radius)
    return clear


def _leading_run(open_edges: np.ndarray) -> int:
    """Number of edges passed before the first closed one."""
    return int(np.argmin(np.append(open_edges, False)))


def _integration_tree(right, down, anchor: int, cols: int):
    """Edges (parent, child, depth of child) reaching every vertex it can.

    ``right[i, j]`` / ``down[i, j]`` say whether the edge from vertex (i, j)
    to (i, j+1) / (i+1, j) is open.  Order: the column through the anchor,
    then each row from that column outward (left, then right), then a
    breadth-first sweep for vertices cut off from their row.
    """
    rows = down.shape[0] + 1
    parent = np.empty(rows * cols, dtype=np.intp)
    child = np.empty(rows * cols, dtype=np.intp)
    depth = np.zeros(rows * cols, dtype=np.intp)
    assigned = np.zeros((rows, cols), dtype=bool)
    assigned.flat[anchor] = True
    count = 0

    def grow(walk: np.ndarray) -> None:
        # walk[0] is already reached; each later vertex from the one before
        nonlocal count
        n = walk.size - 1
        parent[count : count + n], child[count : count + n] = walk[:-1], walk[1:]
        depth[walk[1:]] = depth[walk[0]] + np.arange(1, n + 1)
        assigned.flat[walk[1:]] = True
        count += n

    ai, aj = divmod(anchor, cols)
    grow(anchor - cols * np.arange(_leading_run(down[:ai, aj][::-1]) + 1))
    grow(anchor + cols * np.arange(_leading_run(down[ai:, aj]) + 1))
    for i in np.flatnonzero(assigned[:, aj]):
        start = i * cols + aj
        grow(start - np.arange(_leading_run(right[i, :aj][::-1]) + 1))
        grow(start + np.arange(_leading_run(right[i, aj:]) + 1))

    # open edges by direction, padded to the grid: up, down, left, right
    no_row, no_col = np.zeros((1, cols), bool), np.zeros((rows, 1), bool)
    neighbours = (
        (np.vstack((no_row, down)), -cols),
        (np.vstack((down, no_row)), cols),
        (np.hstack((no_col, right)), -1),
        (np.hstack((right, no_col)), 1),
    )
    # a vertex with no unassigned open neighbour now never gains one, so
    # only this frontier of the assigned set can extend the tree
    frontier = np.zeros((rows, cols), dtype=bool)
    for open_dir, delta in neighbours:
        frontier |= open_dir & ~np.roll(assigned, -delta)
    queue = deque(np.flatnonzero(assigned & frontier).tolist())
    while queue:
        u = queue.popleft()
        for open_dir, delta in neighbours:
            v = u + delta
            if open_dir.flat[u] and not assigned.flat[v]:
                grow(np.array([u, v]))
                queue.append(v)
    return parent[:count], child[:count], depth[child[:count]]


def _faces(included: np.ndarray, clear_right: np.ndarray, clear_down: np.ndarray) -> np.ndarray:
    """(F, 4) counter-clockwise quads, row-major, of the grid cells whose four
    corners are included and whose four sides clear every exclusion."""
    cols = included.shape[1]
    cell = (
        included[:-1, :-1] & included[:-1, 1:] & included[1:, :-1] & included[1:, 1:]
        & clear_right[:-1, :] & clear_right[1:, :] & clear_down[:, :-1] & clear_down[:, 1:]
    )
    ci, cj = np.nonzero(cell)
    c = ci * cols + cj
    return np.stack((c, c + 1, c + cols + 1, c + cols), axis=1)


# -- closed-form primitive ------------------------------------------------------

# |Im((b - p) conj(a - p))| up to this multiple of |b - p| |a - p| is rounding
# noise: which side of p the segment [a, b] passes is then unknown
_ANGLE_NOISE = 16 * np.finfo(float).eps
_BLOCK_VERTICES = 4096  # vertices whose closed form is evaluated at a time


@dataclass(frozen=True)
class _Primitive:
    """An exact primitive F_k of each form phi_k, by its parts.

    F_k(z) = poly[k](z) + sum_j sum_n inverse[k, j, n - 1] (z - p_j)^-n
             + sum_j residues[k, j] log(z - p_j)
    """

    poly: tuple[Polynomial, ...]
    poles: np.ndarray  # (J,) every finite pole of some form
    inverse: np.ndarray  # (4, J, M)
    residues: np.ndarray  # (4, J)

    def difference(self, z: np.ndarray, base) -> np.ndarray:
        """(N, 4): each F_k(z) - F_k(base), with every log(z - p) taken as
        log|z - p|.

        Each part is differenced on its own.  The log term is half the log1p
        of (|z - p|^2 - |base - p|^2) / |base - p|^2, whose numerator
        Re((z - base) conj((z - p) + (base - p))) shrinks with z - base, so
        its rounding error does not scale with the size of the logs.
        """
        base = np.asarray(base, dtype=complex)  # one point, or one per z
        out = np.empty((z.size, 4), dtype=complex)
        for k, poly in enumerate(self.poly):
            out[:, k] = poly(z) - poly(base)
        for j, p in enumerate(self.poles):
            d, d0 = z - p, base - p
            w, w0 = 1.0 / d, 1.0 / d0
            ratio = ((z - base) * np.conj(d + d0)).real / (d0.real**2 + d0.imag**2)
            # much nearer p than base is, log1p gains nothing, and rounding
            # could take ratio below -1: there the plain log of |d| / |d0|
            near = ratio < -0.5
            log_ratio = 0.5 * np.log1p(np.where(near, 0.0, ratio))
            log_ratio[near] = np.log(np.abs(d[near]) / np.abs(np.broadcast_to(d0, d.shape)[near]))
            for k in range(4):
                acc = acc0 = 0j
                for c in self.inverse[k, j, ::-1]:
                    acc, acc0 = (acc + c) * w, (acc0 + c) * w0
                out[:, k] += (acc - acc0) + self.residues[k, j] * log_ratio
        return out


def _primitive(forms, parts: dict) -> _Primitive:
    """Each form's primitive, from its principal parts at the table's poles."""
    width = max((len(a) for laurent in parts.values() for a in laurent), default=1) - 1
    inverse = np.zeros((4, len(parts), width), dtype=complex)
    residues = np.zeros((4, len(parts)), dtype=complex)
    for j, laurent in enumerate(parts.values()):
        for k, a in enumerate(laurent):
            # a = (a_-m, ..., a_-1); a_-(n+1) (z - p)^-(n+1) integrates to
            # -a_-(n+1) / n (z - p)^-n
            m = len(a)
            if m:
                residues[k, j] = a[-1]
            for n in range(1, m):
                inverse[k, j, n - 1] = -a[m - 1 - n] / n
    poly = tuple(f.polynomial_part().antiderivative() for f in forms)
    return _Primitive(poly, np.array(list(parts), dtype=complex), inverse, residues)


def _turns(prim: _Primitive, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(E, J) changes of arg(z - p_j) along each segment [a, b]: the angle of
    (b - p) conj(a - p).  Raises where a segment meets a pole."""
    out = np.empty((a.size, prim.poles.size))
    for j, p in enumerate(prim.poles):
        w = (b - p) * np.conj(a - p)
        meets = (w.real <= 0.0) & (np.abs(w.imag) <= _ANGLE_NOISE * np.abs(w))
        if meets.any():
            e = int(np.argmax(meets))
            raise PoleOnPathError(complex(p), complex(a[e]), complex(b[e]))
        out[:, j] = np.angle(w)
    return out


def _increments(prim: _Primitive, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(E, 4) integrals F(b) - F(a) of the forms along each segment [a, b]."""
    turns = _turns(prim, a, b)
    out = prim.difference(b, a)
    for j in range(prim.poles.size):
        out += 1j * turns[:, j, None] * prim.residues[:, j]
    return out


def _closed_form(prim: _Primitive, zs, z0: complex, anchor: int, parent, child, depth):
    """x at the anchor and at every child of the tree; NaN elsewhere.

    x_k(z) = Re(F_k(z) - F_k(z0)), with arg(z - p) continued from z0 along
    the segment to the anchor and then the tree, wherever Im c != 0.
    """
    reached = np.concatenate(([anchor], child))
    turns = _turns(
        prim, np.concatenate(([z0], zs[parent])), np.concatenate(([zs[anchor]], zs[child]))
    )
    z = zs[reached]
    values = np.empty((z.size, 4))
    for start in range(0, z.size, _BLOCK_VERTICES):  # bounds the temporaries
        block = slice(start, start + _BLOCK_VERTICES)
        values[block] = prim.difference(z[block], z0).real
    winding = np.flatnonzero(np.any(prim.residues.imag != 0.0, axis=0))
    if winding.size:
        # the tree sum of the turns only picks the branch; the arg itself is
        # one angle off the base point, so no rounding accumulates in it
        tree = np.zeros((zs.size, winding.size))
        tree[reached] = turns[:, winding]
        order = np.argsort(depth, kind="stable")
        for level in np.split(order, np.flatnonzero(np.diff(depth[order])) + 1):
            tree[child[level]] += tree[parent[level]]
        p = prim.poles[winding]
        direct = np.angle((z[:, None] - p) * np.conj(z0 - p))
        arg = direct + 2.0 * np.pi * np.round((tree[reached] - direct) / (2.0 * np.pi))
        for i, j in enumerate(winding):
            values -= arg[:, i, None] * prim.residues[:, j].imag
    x = np.full((zs.size, 4), np.nan)
    x[reached] = values
    return x


# -- mesh assembly --------------------------------------------------------------


def build_mesh(
    d: WeierstrassData,
    region,
    resolution,
    z0: complex,
    tol: Tolerances | None = None,
) -> SurfaceMesh:
    """The immersion on a grid over ``region``, from each form's exact
    primitive, anchored at ``z0``.

    ``region`` is a Rectangle or Annulus; ``resolution`` a vertex count per
    axis (int or (rows, cols)).  x(z0) = 0 fixes the translation.  Punctures
    and poles are fenced off by mesh_exclusion_factor * diameter; a puncture
    strictly inside the region with a zero exclusion factor is an error, as
    is a base point that is excluded, outside, or at a degenerate metric
    point.  A path that meets a pole raises ``PoleOnPathError`` (or
    ``QuadratureConvergenceError``, when the sampled check meets it first),
    and a metric factor at the base point beyond the range of a double
    raises ``MetricOverflowError``; a form's pole on a piece of higher
    degree raises ``PoleTableError``.  The forms, the exclusion centres, the
    principal parts and the periods come from one ``Analysis`` of ``d``.
    """
    tol = tol or Tolerances()
    an = Analysis(d, tol)
    if not isinstance(region, (Rectangle, Annulus)):
        raise TypeError("region must be a Rectangle or an Annulus")
    rows, cols = _normalize_resolution(resolution)
    z0 = complex(z0)

    zs = _grid_points(region, rows, cols)
    n = zs.size
    radius = tol.mesh_exclusion_factor * region.diameter
    centers = an.singular_points

    if radius <= 0.0:
        for p in d.finite_punctures():
            if region.contains(p):
                raise MeshRegionError(
                    f"puncture {p} lies inside the region and the exclusion radius is zero"
                )
    if not region.contains(z0):
        raise MeshRegionError(f"base point {z0} is outside the region")
    if any(abs(z0 - c) < radius for c in centers):
        raise MeshRegionError(f"base point {z0} is inside an exclusion zone")
    phi = an.phi
    if not metric_factor_from_phi(phi, z0) > 0.0:
        raise MeshRegionError(f"metric degenerates at the base point {z0}")

    included = _segments_clear(zs, zs, centers, radius)  # each vertex as a point segment
    if not included.any():
        raise MeshRegionError("every grid vertex falls inside an exclusion zone")

    grid = zs.reshape(rows, cols)
    clear_right = _segments_clear(grid[:, :-1], grid[:, 1:], centers, radius)
    clear_down = _segments_clear(grid[:-1, :], grid[1:, :], centers, radius)
    inc2 = included.reshape(rows, cols)
    right = clear_right & inc2[:, :-1] & inc2[:, 1:]
    down = clear_down & inc2[:-1, :] & inc2[1:, :]

    forms = phi.forms
    prim = _primitive(forms, an.principal_parts)
    candidates = np.flatnonzero(included)
    anchor = int(candidates[np.argmin(np.abs(zs[candidates] - z0))])
    parent, child, depth = _integration_tree(right, down, anchor, cols)
    # vertices the tree never reaches are dropped
    reached = np.zeros(n, dtype=bool)
    reached[anchor] = True
    reached[child] = True
    included &= reached
    faces = _faces(included.reshape(rows, cols), clear_right, clear_down)

    # the sampled check runs first, so an edge through a pole in the sample
    # fails there, with QuadratureConvergenceError
    max_residual = max_path_error = 0.0
    if len(faces):
        sample = faces[:: max(1, len(faces) // 64)]
        a = zs[sample].reshape(-1)
        b = zs[np.roll(sample, -1, axis=1)].reshape(-1)
        inc = _integrate_edges(forms, a, b, _EDGE_RTOL)
        loops = np.sum(inc.reshape(-1, 4, 4), axis=1)
        max_residual = float(np.max(np.linalg.norm(loops.real, axis=1)))
        max_path_error = float(np.max(np.linalg.norm(inc - _increments(prim, a, b), axis=1)))

    x = _closed_form(prim, zs, z0, anchor, parent, child, depth)
    with np.errstate(divide="ignore", invalid="ignore"):
        metric = metric_factor_from_phi(phi, zs)
        curvature = curvature_from_metric(d, zs, metric)
    metric = np.where(included, metric, np.nan)
    curvature = np.where(included, curvature, np.nan)

    return SurfaceMesh(
        z=zs,
        x=x,
        metric=metric,
        gauss=curvature,
        included=included,
        faces=faces,
        shape=(rows, cols),
        base_point=z0,
        universal_cover_patch=not an.periods.period_ok,
        max_loop_residual=max_residual,
        max_path_error=max_path_error,
    )


# -- export ---------------------------------------------------------------------

_CSV_HEADER = "re_z,im_z,x1,x2,x3,x4,metric_factor,gauss_curvature"
_BLOCK_ROWS = 1024  # rows (or triangles) formatted and written at a time


def _projection_matrix(projection) -> np.ndarray:
    """The 3x4 matrix that keeps the axes ``projection`` (default x1x2x3)."""
    axes = tuple((0, 1, 2) if projection is None else projection)
    valid = all(isinstance(i, int) and 0 <= i <= 3 for i in axes)
    if len(axes) != 3 or not valid or len(set(axes)) != 3:
        raise ValueError("projection axes must be three distinct indices in 0..3")
    return np.eye(4)[list(axes)]


def export_mesh(mesh: SurfaceMesh, path, fmt: str = "csv", projection=None) -> None:
    """Write the included vertices as CSV, or a triangulated OBJ projection.

    CSV columns: re_z, im_z, x1..x4, metric_factor, gauss_curvature, one row
    per included vertex.  OBJ writes only v/f records, with the 4D immersion
    projected by three coordinate axes (default x1x2x3); quads become two
    triangles.  Every coordinate is written under the float rule of
    ``report.format_float`` (12 significant digits, no "-0"), through
    ``report.format_float_rows``: rounded in numpy, with the scalar
    ``round`` only on fields where that is not certified exact.
    The file is written in blocks of ``_BLOCK_ROWS`` rows (and of as many
    faces), each formatted by one %-format.
    """
    included = np.flatnonzero(mesh.included)
    if fmt == "csv":
        z = mesh.z[included]
        table = np.column_stack(
            (z.real, z.imag, mesh.x[included], mesh.metric[included], mesh.gauss[included])
        )
        header, sep, prefix = _CSV_HEADER + "\n", ",", ""
        tris = np.zeros((0, 3), dtype=int)
    elif fmt == "obj-3d":
        table = mesh.x[included] @ _projection_matrix(projection).T
        header, sep, prefix = "", " ", "v "
        obj_index = np.zeros(mesh.z.size, dtype=int)
        obj_index[included] = np.arange(1, included.size + 1)  # OBJ indices are 1-based
        quads = obj_index[mesh.faces]
        # each quad (a, b, c, e) becomes the triangles (a, b, c) and (a, c, e)
        tris = quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)
    else:
        raise ValueError(f"unknown export format: {fmt!r} (expected 'csv' or 'obj-3d')")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header)
        for start in range(0, len(table), _BLOCK_ROWS):
            lines = format_float_rows(table[start : start + _BLOCK_ROWS], sep)
            fh.write(prefix + ("\n" + prefix).join(lines) + "\n")
        for start in range(0, len(tris), _BLOCK_ROWS):
            block = tris[start : start + _BLOCK_ROWS]
            fh.write("\n".join(["f %d %d %d"] * len(block)) % tuple(block.ravel().tolist()) + "\n")
