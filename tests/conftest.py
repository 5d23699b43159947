import csv
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
try:
    import polyvem  # noqa: F401
except ImportError:
    sys.path.insert(0, str(SRC))

from polyvem import cli, study
from polyvem.assembly import build_dof_map, source_moments
from polyvem.basis import (QuadRule, dim_poly, edge_rules, eval_monomials, fan_triangles,
                           monomial_derivatives, monomial_gram, triangle_rule)
from polyvem.local import data_rules
from polyvem.mesh import (DEFAULT_LLOYD_ITERS, CellGeometry, PolyMesh, generate_cartesian,
                          generate_mesh)
from polyvem.study import StudyRow, _energy_sums


def lone_cell(verts) -> CellGeometry:
    """The geometry of the polygon `verts`: the one-cell stack of its one-cell mesh."""
    return PolyMesh(verts, [range(len(verts))]).cell_geom([0])


def star_polygon(rng: np.random.Generator, n: int, irregular: bool = True) -> CellGeometry:
    """Random CCW polygon that is star-shaped with respect to its centroid,
    as a one-cell stack."""
    from polyvem.basis import polygon_quadrature

    while True:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
        if gaps.min() < 0.25 or gaps.max() > 2.2:
            continue
        radii = rng.uniform(0.7, 1.0, n) if irregular else np.ones(n)
        verts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        verts += rng.uniform(-0.2, 0.2, 2)
        try:
            E = lone_cell(verts)
            polygon_quadrature(E, 1)
        except Exception:
            continue
        return E


def tensor_mesh(xs, ys) -> PolyMesh:
    """The mesh of the axis-aligned rectangles between ascending ticks xs
    and ys, numbered row by row from the bottom left, each from its
    bottom-left vertex: `generate_cartesian` on uneven ticks."""
    X, Y = np.meshgrid(xs, ys)
    nx, ny = len(xs) - 1, len(ys) - 1
    bottom_left = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    return PolyMesh(np.column_stack([X.ravel(), Y.ravel()]),
                    bottom_left[:, None] + [0, 1, nx + 2, nx + 1])


def nudged_cartesian(n) -> PolyMesh:
    """Cartesian n with one inner vertex moved by 1e-7 / n in x and y."""
    mesh = generate_cartesian(n)
    vertices = mesh.vertices.copy()
    vertices[n + 2] += 1e-7 / n
    return PolyMesh(vertices, mesh.cells)


def mixed_mesh() -> PolyMesh:
    """Cartesian 2 with its first square cut into two triangles and its
    last split on its top side: three rectangles, of which one has 5
    vertices, and two triangles."""
    mesh = generate_cartesian(2)
    vertices = np.vstack([mesh.vertices, [[0.75, 1.0]]])
    (a, b, c, d), second, third, (e, f, g, h) = mesh.cells
    return PolyMesh(vertices, [[a, b, c], [a, c, d], second, third, [e, f, g, 9, h]])


def doubled_cartesian2() -> PolyMesh:
    """Cartesian 2 and a copy of it on other vertex ids: every edge conforms,
    and the 8 cell areas sum to 2."""
    mesh = generate_cartesian(2)
    n = mesh.n_vertices
    return PolyMesh(np.vstack([mesh.vertices, mesh.vertices]),
                    [*mesh.cells, *(cell + n for cell in mesh.cells)])


def cell_data_rule(E: CellGeometry, k: int):
    """The order-k data rule of the one-cell stack E: the only block of its
    one-cell mesh."""
    (rule,) = data_rules(PolyMesh(E.verts[0], [np.arange(E.n_vertices)]), k)
    return rule


def fan_rule(E: CellGeometry, degree: int, max_y_extent=None) -> QuadRule:
    """The centroid-fan rule of the one-cell stack E, cut into horizontal
    bands of at most `max_y_extent` when it is set (`fan_triangles`): the
    rule the data passes form for E's cell."""
    corners, _ = fan_triangles(E.verts[0], [0, E.n_vertices], E.centroid, E.area,
                               max_y_extent=max_y_extent)
    return flat_rule(*triangle_rule(*corners, degree))


def rectangle_rule(E: CellGeometry, m: int, max_y_extent=None) -> QuadRule:
    """The m x m-point tensor Gauss-Legendre rule (numpy's `leggauss`) on
    the axis-aligned rectangle of the one-cell stack E, in ceil(height /
    max_y_extent) equal horizontal strips, bottom first, when it is set:
    the rule the data passes form for a cell of a mesh of rectangles."""
    t, w = np.polynomial.legendre.leggauss(m)
    (x0, y0), (x1, y1) = E.verts[0].min(axis=0), E.verts[0].max(axis=0)
    n = 1 if max_y_extent is None else math.ceil((y1 - y0) / max_y_extent)
    points, weights = [], []
    for j in range(n):
        ya, yb = y0 + (y1 - y0) * j / n, y0 + (y1 - y0) * (j + 1) / n
        X, Y = np.meshgrid(0.5 * (x0 + x1 + (x1 - x0) * t), 0.5 * (ya + yb + (yb - ya) * t),
                           indexing="ij")
        points.append(np.column_stack([X.ravel(), Y.ravel()]))
        weights.append(np.outer(w, w).ravel() * (x1 - x0) * (yb - ya) / 4.0)
    return QuadRule(np.concatenate(points), np.concatenate(weights))


def flat_rule(x, y, w) -> QuadRule:
    """The (R, q) planes x, y, w of `triangle_rule` as one rule of R*q
    points, row after row."""
    return QuadRule(np.column_stack([x.ravel(), y.ravel()]), w.ravel())


def monomial_grads(E, pts, degree: int) -> np.ndarray:
    """Gradients of all scaled monomials of degree <= `degree` at pts on each
    cell of the stack E, shape (n, npts, dim, 2): the monomials of degree - 1
    times `monomial_derivatives(degree)`, over h_E.  An oracle: the element
    kernels read the gradients through `monomial_derivatives` alone."""
    lower = eval_monomials(E, pts, degree - 1)
    h = E.diameter[:, None, None]
    return np.stack([lower @ D / h for D in monomial_derivatives(degree)], axis=-1)


def edge_gram(E, degree: int):
    """`monomial_gram` of the stack E up to `degree`, the Gram matrix and its
    Cholesky factor, its moments read from the scaled monomials at the
    points of a Gauss-Legendre edge rule exact to degree 2*degree."""
    _, t, w = edge_rules(1, 2 * degree)
    tang = np.roll(E.verts, -1, axis=-2) - E.verts
    points = E.verts[..., None, :] + t[:, None] * tang[..., None, :]
    table = eval_monomials(E, points.reshape(E.cells.size, -1, 2), 2 * degree)
    return monomial_gram(E, tang, degree, table, w)


def exact_energy_norm(mesh: PolyMesh, case, k: int = 1) -> float:
    """Quadrature value of sqrt(int (K grad u, grad u)) over the mesh, with
    order-k data rules: the denominator of the energy error."""
    return math.sqrt(_energy_sums(mesh, k, [], case)[0])


def interpolate_dofs(mesh: PolyMesh, k: int, func) -> np.ndarray:
    """Dof vector of the interpolant of a smooth function."""
    dm = build_dof_map(mesh, k)
    out = np.zeros(dm.n_total)
    out[:len(dm.nodes)] = func(*dm.nodes.T)
    n_mom = dim_poly(k - 2)
    if n_mom:
        # the moment dofs (1/|E|) int_E func m_a, |a| <= k-2, lead the source moments
        moments = source_moments(mesh, k, func)[:, :n_mom] / mesh.cell_areas[:, None]
        for cells, dofs in dm.groups:
            out[dofs[:, -n_mom:]] = moments[cells]
    return out


def parse_rows_csv(path) -> list:
    """Read back a study_rows.csv; floats round-trip exactly."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            rows.append(StudyRow(
                family=rec["family"], case=rec["case"], method=rec["method"],
                order=int(rec["order"]), level=int(rec["level"]),
                h_max=float(rec["h_max"]), n_dofs=int(rec["n_dofs"]),
                e_star=float(rec["e_star"]),
                alpha=float(rec["alpha"]) if rec["alpha"] else None,
                stab_ratio=float(rec["stab_ratio"]) if rec["stab_ratio"] else None,
                note=rec["note"]))
    return rows


# the star-shape check's message as a regex, given the fan triangle and
# the regex of its signed area
STAR_SHAPE = (r"cell is not star-shaped with respect to its centroid \(fan triangle {} has "
              r"signed area {}\)$")

# the vertex lines of the unit square in the mesh text format
SQUARE_VERTICES = "0 0\n1 0\n1 1\n0 1\n"

UNIT_SQUARE = lone_cell([[0, 0], [1, 0], [1, 1], [0, 1]])
TRIANGLE = lone_cell([[0, 0], [1, 0], [0, 1]])
PENTAGON = lone_cell(
    [[0, 0], [0.7, 0.05], [1, 0.6], [0.45, 1.0], [-0.05, 0.55]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


_MESHES = {}


def shared_mesh(family: str, n: int, seed: int = 0,
                lloyd_iters: int = DEFAULT_LLOYD_ITERS) -> PolyMesh:
    """`generate_mesh(family, n, seed, lloyd_iters)`, built once per session
    for each set of arguments; a mesh's arrays are read-only, so the tests
    and the paper run share it."""
    key = (family, n, seed, lloyd_iters)
    if key not in _MESHES:
        _MESHES[key] = generate_mesh(*key)
    return _MESHES[key]


@pytest.fixture(scope="session")
def paper_run(tmp_path_factory):
    """`polyvem paper -o DIR` on the full ladders, once per session, with
    `study.generate_mesh` served by `shared_mesh`: (DIR, the (family, n) of
    each mesh the run asked for, the run's seconds).  It exits 3, after
    writing every artifact, on tc1's two order-3 Voronoi E2VEM failures."""
    out = tmp_path_factory.mktemp("paper")
    built = []

    def memo(family, n, *args):
        built.append((family, n))
        return shared_mesh(family, n, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(study, "generate_mesh", memo)
        start = time.perf_counter()
        assert cli.main(["paper", "-o", str(out)]) == 3
    return out, built, time.perf_counter() - start
