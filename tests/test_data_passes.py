"""The block data passes against a per-cell reference built here.

`source_moments`, `energy_error` and its denominator (conftest's
`exact_energy_norm`) integrate over blocks of cells (`local.data_rules`).
The reference integrates every cell in plain loops with its own rule, the
fan rule (`conftest.fan_rule`) on a Voronoi mesh and the tensor
Gauss-Legendre rule of numpy's `leggauss` (`conftest.rectangle_rule`) on a
mesh of rectangles, and takes each cell's energy projection from a pack built on
that cell.  On a mesh of congruent
cells the passes read cell 0's rule for every cell; they are also compared
with the passes over each cell's own triangles, on the same mesh with its
`congruent_cells` flag forced off.  Each rule's shared monomial table and
per-row transfers are checked against the scaled monomials at its points.
"""

import io
import math

import numpy as np
import pytest

from polyvem import local
from polyvem.assembly import assemble, source_moments
from polyvem.basis import dim_poly, eval_monomials, scaled_monomials
from polyvem.cases import testcase as get_case
from polyvem.errors import MeshError
from polyvem.local import Method, build_projection_pack, data_rules
from polyvem.mesh import PolyMesh, generate_cartesian, generate_voronoi, read_mesh
from polyvem.study import METHODS, energy_error, solve_cases
from conftest import (STAR_SHAPE, exact_energy_norm, fan_rule, interpolate_dofs, mixed_mesh,
                      monomial_grads, nudged_cartesian, rectangle_rule, tensor_mesh)
from test_cli import U_SHAPED_MESH

RTOL = 1e-13
MESHES = {"cartesian4": lambda: generate_cartesian(4),
          # rectangles of uneven sides: the per-cell passes of the tensor rule
          "tensor6": lambda: tensor_mesh([0.0, 0.13, 0.3, 0.52, 0.7, 0.86, 1.0],
                                         [0.0, 0.1, 0.27, 0.5, 0.66, 0.9, 1.0]),
          "voronoi64": lambda: generate_voronoi(64, rng_seed=0, lloyd_iters=10)}


def _cell_rule(E, k, case, rectangles):
    """Cell E's order-k data rule: k+5 points per direction on a rectangle,
    else the fan rule exact to 2k+6."""
    max_y = case.y_wavelength / 2.0 if case.y_wavelength else None
    return rectangle_rule(E, k + 5, max_y) if rectangles else fan_rule(E, 2 * k + 6, max_y)


def _reference_moments(mesh, k, case, rectangles):
    """The moments, and the largest integral of |f| over a cell: their scale,
    since |m_a| <= 1 on the cell."""
    out, scale = [], 0.0
    for ci in range(mesh.n_cells):
        E = mesh.cell_geom([ci])
        q = _cell_rule(E, k, case, rectangles)
        fw = q.weights * case.f(q.points[:, 0], q.points[:, 1])
        out.append(eval_monomials(E, q.points[None], k - 1)[0].T @ fw)
        scale = max(scale, float(np.abs(fw).sum()))
    return np.array(out), scale


def _energy(weights, grads, K):
    return float(np.einsum("p,pi,ij,pj->", weights, grads, K, grads))


def _reference_energy_sums(mesh, k, method, solved, case, rectangles):
    # every system of `solved` is assembled with `method`
    K = case.K.matrix
    sums = [0.0] * (len(solved) + 1)
    cell_dofs = [{ci: row for cells, rows in system.dof_map.groups
                  for ci, row in zip(cells, rows)} for system, _ in solved]
    for ci in range(mesh.n_cells):
        E = mesh.cell_geom([ci])
        q = _cell_rule(E, k, case, rectangles)
        ge = np.column_stack(case.grad_u(q.points[:, 0], q.points[:, 1]))
        sums[0] += _energy(q.weights, ge, K)
        grads = monomial_grads(E, q.points[None], k)[0]
        for j, (system, u_dofs) in enumerate(solved, start=1):
            pi_star = build_projection_pack(E, k, method).pi_star[0]
            coeffs = pi_star @ u_dofs[cell_dofs[j - 1][ci]]
            gh = np.tensordot(grads, coeffs, axes=([1], [0]))              # (nq, 2)
            sums[j] += _energy(q.weights, ge - gh, K)
    return sums


@pytest.mark.parametrize("mesh_name, case_id", [("voronoi64", "tc1"), ("voronoi64", "tc2"),
                                               ("cartesian4", "tc1"), ("tensor6", "tc1"),
                                               ("tensor6", "tc2")])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_rule_table_and_transfer_give_each_rows_scaled_monomials(k, mesh_name, case_id,
                                                                 monkeypatch):
    # tc2 cuts the Voronoi cells into y-bands and the rectangles into
    # y-strips; cartesian 4 takes the congruent-cell rule
    monkeypatch.setattr(local, "DATA_BLOCK_POINTS", 500)
    mesh = MESHES[mesh_name]()
    wavelength = get_case(case_id).y_wavelength
    rules = list(data_rules(mesh, k, wavelength))
    assert len(rules) > 1
    n = dim_poly(k - 1)
    rows = 0
    for rule in rules:
        R, q = rule.x.shape
        assert rule.y.shape == rule.weights.shape == (R, q)
        rows += R
        # one (q, n) table per rule, no per-point table
        assert rule.table.shape == (q, n)
        assert rule.transfer.shape == ((1, n, n) if mesh.congruent_cells else (R, n, n))
        rx, ry = ((plane - mesh.cell_centroids[rule.row_cells, i, None])
                  / mesh.cell_diameters[rule.row_cells, None]
                  for i, plane in enumerate((rule.x, rule.y)))
        got = rule.table @ np.swapaxes(rule.transfer, -1, -2)
        assert np.abs(got - scaled_monomials(rx, ry, k - 1)).max() <= 1e-13
    # a row is a congruent cell, a rectangle, a strip, a fan triangle or a
    # triangle of a band piece
    if mesh.congruent_cells:
        assert rows == mesh.n_cells
    else:
        whole = mesh.n_cells if mesh_name == "tensor6" else sum(len(c) for c in mesh.cells)
        assert rows == whole if case_id == "tc1" else rows > whole


@pytest.mark.parametrize("case_id", ["tc1", "tc2"])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_block_passes_match_per_cell_reference(k, mesh_name, case_id, monkeypatch):
    monkeypatch.setattr(local, "DATA_BLOCK_POINTS", 500)
    mesh = MESHES[mesh_name]()
    case = get_case(case_id)
    blocks = [rule.cells for rule in data_rules(mesh, k, case.y_wavelength)]
    assert len(blocks) > 1
    assert [ci for cells in blocks for ci in cells] == list(range(mesh.n_cells))

    rectangles = mesh_name != "voronoi64"
    moments = source_moments(mesh, k, case.f, y_wavelength=case.y_wavelength)
    ref, scale = _reference_moments(mesh, k, case, rectangles)
    assert moments.shape == ref.shape
    assert np.abs(moments - ref).max() <= RTOL * scale

    system = assemble(mesh, k, Method.STANDARD, case.K)
    rng = np.random.default_rng(k)
    solved = [(system, interpolate_dofs(mesh, k, case.u)),
              (system, rng.standard_normal(system.dof_map.n_total))]
    den, *num = _reference_energy_sums(mesh, k, Method.STANDARD, solved, case, rectangles)
    assert exact_energy_norm(mesh, case, k) == pytest.approx(math.sqrt(den), rel=RTOL)
    errors = energy_error(mesh, solved, case)
    assert errors == pytest.approx([math.sqrt(n / den) for n in num], rel=RTOL)


@pytest.mark.parametrize("case_id, k", [("tc1", 1), ("tc1", 2), ("tc1", 3),
                                       ("tc2", 1), ("tc2", 2)])
@pytest.mark.parametrize("n", [8, 40])
def test_congruent_passes_match_the_per_cell_passes(n, case_id, k):
    mesh = generate_cartesian(n)
    per_cell = PolyMesh(mesh.vertices, mesh.cells)
    assert mesh.congruent_cells
    per_cell.congruent_cells = False
    case = get_case(case_id)
    wavelength = case.y_wavelength

    moments = source_moments(mesh, k, case.f, y_wavelength=wavelength)
    ref = source_moments(per_cell, k, case.f, y_wavelength=wavelength)
    # the moments' scale: the largest integral of |f| over a cell
    scale = source_moments(per_cell, 1, lambda x, y: np.abs(case.f(x, y)),
                           y_wavelength=wavelength).max()
    # the rows (strips) of each cell of the per-cell passes; every cell
    # takes cell 0's count in the congruent passes
    rows = np.concatenate([np.diff(rule.starts, append=rule.row_cells.size)
                           for rule in data_rules(per_cell, k, wavelength)])
    same = rows == rows[0]
    assert np.abs(moments - ref)[same].max() <= 1e-10 * scale
    # on cartesian 40, a cell's height is the tc2 half wavelength, and the
    # cell is cut into 2 or 3 strips, as ceil rounds the cell's exact height
    # ratios either way; both cuts are converged, so against 32 strips per
    # cell the congruent and the per-cell moments differ by rounding alone
    # (at most 1.7e-13 of the scale at k = 1, 2)
    assert same.all() == ((n, case_id) != (40, "tc2"))
    if not same.all():
        assert (rows.min(), rows.max()) == (2, 3)
        fine = source_moments(per_cell, k, case.f, y_wavelength=wavelength / 16)
        assert max(np.abs(moments - fine).max(), np.abs(ref - fine).max()) <= 1e-12 * scale

    sols = solve_cases(mesh, k, METHODS, case)
    solved = [(sol.system, sol.report.solution) for sol in sols.values()]
    assert energy_error(per_cell, solved, case) == pytest.approx(
        [sol.e_star for sol in sols.values()], rel=1e-10)


def test_block_pass_names_a_nonstar_cell_inside_its_block():
    # the U-shaped cell, not star-shaped about its centroid, is cell 1 here;
    # both cells fit in one block: 12 fan triangles of 36 points at k = 2
    u_mesh = read_mesh(io.StringIO(U_SHAPED_MESH))
    mesh = PolyMesh(u_mesh.vertices, u_mesh.cells[::-1])
    assert 12 * 36 <= local.DATA_BLOCK_POINTS
    u_cell = r"^cell 1: " + STAR_SHAPE.format(3, r"-0\.07")
    with pytest.raises(MeshError, match=u_cell):
        source_moments(mesh, 2, get_case("tc1").f)
    with pytest.raises(MeshError, match=u_cell):
        exact_energy_norm(mesh, get_case("tc1"), 2)


def _points_per_row(mesh, k, wavelength=None):
    """The q points of each row of the mesh's order-k data rules."""
    return {rule.x.shape[1] for rule in data_rules(mesh, k, wavelength)}


@pytest.mark.parametrize("wavelength", [None, 0.1])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_rectangle_rule_is_exact_to_degree_2k_plus_9_in_each_variable(k, wavelength, rng):
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 3)), [1.0]])
    ys = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, 2)), [1.0]])
    mesh = tensor_mesh(xs, ys)
    assert not mesh.congruent_cells
    rules = list(data_rules(mesh, k, wavelength))
    assert _points_per_row(mesh, k, wavelength) == {(k + 5) ** 2}
    # a cell of height s is ceil(s / (wavelength / 2)) equal strips, one row each
    height = np.repeat(np.diff(ys), xs.size - 1)
    strips = (np.ones(mesh.n_cells) if wavelength is None
              else np.ceil(height / (wavelength / 2.0)))
    rows = np.concatenate([np.diff(rule.starts, append=rule.row_cells.size) for rule in rules])
    assert np.array_equal(rows, strips)
    row_areas = np.concatenate([rule.weights.sum(axis=1) for rule in rules])
    assert row_areas == pytest.approx(np.repeat(mesh.cell_areas / strips, strips.astype(int)),
                                      rel=1e-14)
    x0, y0 = (np.repeat(xs[:-1][None], ys.size - 1, axis=0).ravel(),
              np.repeat(ys[:-1], xs.size - 1))
    x1, y1 = (np.repeat(xs[1:][None], ys.size - 1, axis=0).ravel(),
              np.repeat(ys[1:], xs.size - 1))
    for a in range(2 * k + 10):
        for b in range(2 * k + 10):
            got = np.concatenate([local.local_load(lambda x, y: x ** a * y ** b, rule)[:, 0]
                                  for rule in rules])
            exact = ((x1 ** (a + 1) - x0 ** (a + 1)) / (a + 1)
                     * (y1 ** (b + 1) - y0 ** (b + 1)) / (b + 1))
            assert got == pytest.approx(exact, rel=1e-13, abs=0.0), (a, b)


@pytest.mark.parametrize("k", [1, 3])
def test_data_rules_take_the_tensor_rule_only_on_axis_aligned_rectangles(k):
    # a quarter turn keeps the squares axis-aligned and starts each cell at
    # another corner
    quarter = generate_cartesian(4)
    quarter = PolyMesh(quarter.vertices @ [[0.0, 1.0], [-1.0, 0.0]], quarter.cells)
    assert quarter.congruent_cells
    assert _points_per_row(quarter, k) == {(k + 5) ** 2}
    # an eighth turn does not; a congruent cell is one row of its four triangles
    turned = generate_cartesian(4)
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    turned = PolyMesh(turned.vertices @ [[c, s], [-s, c]], turned.cells)
    assert turned.congruent_cells
    assert _points_per_row(turned, k) == {4 * (k + 4) ** 2}
    for mesh in (nudged_cartesian(4), mixed_mesh()):
        assert not mesh.congruent_cells
        assert _points_per_row(mesh, k) == {(k + 4) ** 2}
        rows = sum(rule.row_cells.size for rule in data_rules(mesh, k))
        assert rows == sum(len(cell) for cell in mesh.cells)


@pytest.mark.parametrize("cell, order", [(0, [3, 2, 1, 0]), (4, [3, 2, 1, 0]),
                                         (0, [0, 1, 1, 0]), (4, [0, 1, 1, 0])])
def test_a_clockwise_or_flat_rectangle_raises_naming_its_cell(cell, order):
    # a cell's vertex ids replaced in the cell list of cartesian 3 before
    # construction: reversed, a clockwise rectangle, or its bottom side
    # there and back, a rectangle of zero height.  No mesh holds such a
    # cell, so `PolyMesh.rectangles` checks no orientation or area
    mesh = generate_cartesian(3)
    cells = mesh.cells
    cells[cell] = cells[cell][order]
    message = (r"polygon is not CCW \(signed area -" if order[0] == 3
               else "repeated consecutive vertex$")
    with pytest.raises(MeshError, match=f"^cell {cell}: {message}"):
        PolyMesh(mesh.vertices, cells)


# The largest relative error of each scheme's e_star, vem then e2vem,
# against the error pass on a centroid fan exact to degree 2k+30, at the
# data rules of the cartesian levels 8 and 16 (the fan exact to 2k+6 gave
# 1.7e-6, 1.4e-7 and 1.2e-8 for vem on tc1 cartesian 8 at k = 1..3; tc2 is
# at rounding)
E_STAR_ERRORS = {
    (8, "tc1", 1): (6.6e-7, 8.5e-7), (8, "tc1", 2): (4.5e-8, 6.7e-8),
    (8, "tc1", 3): (3.2e-9, 3.8e-9),
    (16, "tc1", 1): (1.4e-9, 1.6e-9), (16, "tc1", 2): (4.9e-11, 6.7e-11),
    (16, "tc1", 3): (3.3e-12, 3.7e-12),
    **{(n, "tc2", k): (1e-13, 1e-13) for n in (8, 16) for k in (1, 2, 3)},
}


@pytest.mark.parametrize("n, case_id, k", sorted(E_STAR_ERRORS))
def test_e_star_of_the_tensor_rule_against_a_fine_fan(n, case_id, k, monkeypatch):
    mesh = generate_cartesian(n)
    case = get_case(case_id)
    sols = solve_cases(mesh, k, METHODS, case)
    fan = PolyMesh(mesh.vertices, mesh.cells)
    fan.rectangles = None
    monkeypatch.setattr(local, "_data_reference", lambda k, rectangles: ("triangle", k + 16))
    fine = energy_error(fan, [(sol.system, sol.report.solution) for sol in sols.values()],
                        case)
    for sol, e, bound in zip(sols.values(), fine, E_STAR_ERRORS[n, case_id, k]):
        assert abs(sol.e_star / e - 1.0) <= bound


# The largest relative error of each scheme's e_star, vem then e2vem, on
# tc2 against the error pass on triangles exact to degree 2k+31, on the
# Voronoi levels 64 and 256 (seed 0, 100 Lloyd steps) of the band-cut rule
# (`basis.fan_triangles`), exact to 2k+6; errors below 1e-14 are rounding
# and take 1e-14
VORONOI_TC2_E_STAR_ERRORS = {
    (64, 1): (6.8e-12, 5.5e-12), (64, 2): (2.6e-14, 4.5e-13),
    (256, 1): (2.8e-11, 4.5e-11), (256, 2): (1e-14, 4.4e-13),
}


@pytest.fixture(scope="module")
def voronoi_ladder():
    return {n: generate_voronoi(n, rng_seed=0, lloyd_iters=100) for n in (64, 256)}


@pytest.mark.parametrize("n, k", sorted(VORONOI_TC2_E_STAR_ERRORS))
def test_e_star_of_the_band_cut_against_a_fine_rule(n, k, voronoi_ladder, monkeypatch):
    mesh = voronoi_ladder[n]
    case = get_case("tc2")
    sols = solve_cases(mesh, k, METHODS, case)
    monkeypatch.setattr(local, "_data_reference", lambda k, rectangles: ("triangle", k + 16))
    fine = energy_error(mesh, [(sol.system, sol.report.solution) for sol in sols.values()],
                        case)
    for sol, e, bound in zip(sols.values(), fine, VORONOI_TC2_E_STAR_ERRORS[n, k]):
        assert abs(sol.e_star / e - 1.0) <= bound
