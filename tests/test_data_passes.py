"""The block data passes against a per-cell reference built here.

`source_moments`, `energy_error` and its denominator (conftest's
`exact_energy_norm`) integrate over blocks of cells (`local.data_rules`).  The reference integrates every cell
with its own fan rule (`conftest.fan_rule`) in plain loops, and takes each
cell's energy projection from a pack built on that cell.  On a mesh of congruent
cells the passes read cell 0's rule for every cell; they are also compared
with the passes over each cell's own triangles, on the same mesh with its
`congruent_cells` flag forced off.
"""

import io
import math

import numpy as np
import pytest

from polyvem import local
from polyvem.assembly import assemble, source_moments
from polyvem.basis import eval_monomial_grads, eval_monomials
from polyvem.cases import testcase as get_case
from polyvem.errors import QuadratureError
from polyvem.local import Method, build_projection_pack, data_rules
from polyvem.mesh import PolyMesh, generate_cartesian, generate_voronoi, read_mesh
from polyvem.study import METHODS, energy_error, solve_cases
from conftest import exact_energy_norm, fan_rule, interpolate_dofs
from test_cli import U_SHAPED_MESH

RTOL = 1e-13
MESHES = {"cartesian4": lambda: generate_cartesian(4),
          "voronoi64": lambda: generate_voronoi(64, rng_seed=0, lloyd_iters=10)}


def _cell_rule(E, k, case):
    max_y = case.y_wavelength / 2.0 if case.y_wavelength else None
    return fan_rule(E, 2 * k + 6, max_y)


def _reference_moments(mesh, k, case):
    """The moments, and the largest integral of |f| over a cell: their scale,
    since |m_a| <= 1 on the cell."""
    out, scale = [], 0.0
    for ci in range(mesh.n_cells):
        E = mesh.cell_geom([ci])
        q = _cell_rule(E, k, case)
        fw = q.weights * case.f(q.points[:, 0], q.points[:, 1])
        out.append(eval_monomials(E, q.points[None], k - 1)[0].T @ fw)
        scale = max(scale, float(np.abs(fw).sum()))
    return np.array(out), scale


def _energy(weights, grads, K):
    return float(np.einsum("p,pi,ij,pj->", weights, grads, K, grads))


def _reference_energy_sums(mesh, k, method, solved, case):
    # every system of `solved` is assembled with `method`
    K = case.K.matrix
    sums = [0.0] * (len(solved) + 1)
    cell_dofs = [{ci: row for cells, rows in system.dof_map.groups
                  for ci, row in zip(cells, rows)} for system, _ in solved]
    for ci in range(mesh.n_cells):
        E = mesh.cell_geom([ci])
        q = _cell_rule(E, k, case)
        ge = np.column_stack(case.grad_u(q.points[:, 0], q.points[:, 1]))
        sums[0] += _energy(q.weights, ge, K)
        grads = eval_monomial_grads(E, q.points[None], k)[0]
        for j, (system, u_dofs) in enumerate(solved, start=1):
            pi_star = build_projection_pack(E, k, method).pi_star[0]
            coeffs = pi_star @ u_dofs[cell_dofs[j - 1][ci]]
            gh = np.tensordot(grads, coeffs, axes=([1], [0]))              # (nq, 2)
            sums[j] += _energy(q.weights, ge - gh, K)
    return sums


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

    moments = source_moments(mesh, k, case.f, y_wavelength=case.y_wavelength)
    ref, scale = _reference_moments(mesh, k, case)
    assert moments.shape == ref.shape
    assert np.abs(moments - ref).max() <= RTOL * scale

    system = assemble(mesh, k, Method.STANDARD, case.K)
    rng = np.random.default_rng(k)
    solved = [(system, interpolate_dofs(mesh, k, case.u)),
              (system, rng.standard_normal(system.dof_map.n_total))]
    den, *num = _reference_energy_sums(mesh, k, Method.STANDARD, solved, case)
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
    # the triangles of each cell of the per-cell passes; every cell takes
    # cell 0's count in the congruent passes
    triangles = np.concatenate([np.diff(rule.starts, append=rule.shape[0])
                                for rule in data_rules(per_cell, k, wavelength)])
    same = triangles == triangles[0]
    assert np.abs(moments - ref)[same].max() <= 1e-10 * scale
    # on cartesian 40, the tc2 strips of a cell's fan number from 6 to 16
    # triangles, as ceil rounds the cell's exact height ratios either way;
    # the cells cut otherwise than cell 0 are integrated at least as well
    # as the per-cell rules integrate them
    assert same.all() == ((n, case_id) != (40, "tc2"))
    if not same.all():
        assert (triangles.min(), triangles.max()) == (6, 16)
        fine = source_moments(per_cell, k, case.f, y_wavelength=wavelength / 16)
        assert np.abs(moments - fine).max() <= np.abs(ref - fine).max()

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
    with pytest.raises(QuadratureError, match="^cell 1: cell is not star-shaped"):
        source_moments(mesh, 2, get_case("tc1").f)
    with pytest.raises(QuadratureError, match="^cell 1: cell is not star-shaped"):
        exact_energy_norm(mesh, get_case("tc1"), 2)
