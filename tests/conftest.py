import csv
import math
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
try:
    import polyvem  # noqa: F401
except ImportError:
    sys.path.insert(0, str(SRC))

from polyvem.assembly import build_dof_map, source_moments
from polyvem.basis import QuadRule, dim_poly, fan_triangles, triangle_rule
from polyvem.local import data_rules
from polyvem.mesh import CellGeometry, PolyMesh
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


def cell_data_rule(E: CellGeometry, k: int):
    """The order-k data rule of the one-cell stack E: the only block of its
    one-cell mesh."""
    (rule,) = data_rules(PolyMesh(E.verts[0], [np.arange(E.n_vertices)]), k)
    return rule


def fan_rule(E: CellGeometry, degree: int, max_y_extent=None) -> QuadRule:
    """The centroid-fan rule of the one-cell stack E, in horizontal strips
    of at most `max_y_extent` when it is set: the rule the data passes form
    for E's cell."""
    corners, _ = fan_triangles(E.verts[0], [0, E.n_vertices], E.centroid, E.area,
                               max_y_extent=max_y_extent)
    return QuadRule(*triangle_rule(*corners, degree))


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


UNIT_SQUARE = lone_cell([[0, 0], [1, 0], [1, 1], [0, 1]])
TRIANGLE = lone_cell([[0, 0], [1, 0], [0, 1]])
PENTAGON = lone_cell(
    [[0, 0], [0.7, 0.05], [1, 0.6], [0.45, 1.0], [-0.05, 0.55]])


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
