import dataclasses
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import (STAR_SHAPE, cell_data_rule, doubled_cartesian2, interpolate_dofs,
                      mixed_mesh, tensor_mesh)
from polyvem import assembly, local, study
from polyvem.assembly import (RESIDUAL_RTOL, ReducedSystem, SolverError, apply_dirichlet,
                              assemble, build_dof_map, solve, source_moments,
                              stab_consistency_ratio)
from polyvem.basis import dim_poly
from polyvem.cases import testcase as get_case
from polyvem.errors import CellDegeneracyError, MeshError
from polyvem.local import (DiffusionTensor, ElementContext, Method,
                           build_projection_pack, local_load, local_stiffness,
                           min_ell)
from polyvem.mesh import PolyMesh, generate_cartesian, generate_voronoi
from polyvem.study import solve_case, solve_cases

K_ANISO = DiffusionTensor.diagonal(8.0e-3, 1.0)


def _stiffness(system, part=None):
    """The full stiffness matrix of an assembled system before boundary
    elimination, or its part `part` (0 consistency, 1 stabilization), as
    CSR: its element stacks scattered with the identity dof map."""
    n = system.dof_map.n_total
    rows, cols, vals = assembly._scatter(system.dof_map, np.arange(n), system.stiffness)
    return sp.coo_matrix((vals.sum(axis=0) if part is None else vals[part], (rows, cols)),
                         shape=(n, n)).tocsr()


# -- dof map -----------------------------------------------------------------

def test_dof_map_counts_cartesian2_k1():
    dm = build_dof_map(generate_cartesian(2), 1)
    assert dm.n_total == 9
    assert dm.boundary_dofs.size == 8
    assert dm.free_dofs.size == 1


def test_dof_map_counts_cartesian2_k2():
    mesh = generate_cartesian(2)
    dm = build_dof_map(mesh, 2)
    assert dm.n_total == 25            # 9 vertices + 12 edges + 4 moments
    # the vertex dofs lead the nodes, the edge dofs follow, the moments close
    assert np.array_equal(dm.nodes[:9], mesh.vertices)
    assert dm.nodes.shape[0] - 9 == 12
    assert dm.n_total - dm.nodes.shape[0] == 4


def test_dof_map_single_square_all_boundary():
    dm = build_dof_map(generate_cartesian(1), 1)
    assert dm.n_total == 4
    assert dm.boundary_dofs.size == 4
    assert dm.free_dofs.size == 0


def test_dof_map_shared_edges_consistent():
    mesh = generate_voronoi(12, rng_seed=4, lloyd_iters=20)
    for k in (2, 3):
        dm = build_dof_map(mesh, k)
        assert dm.nodes.shape == (mesh.n_vertices + mesh.n_edges * (k - 1), 2)
        # every boundary dof sits exactly on a side of the unit square
        p = dm.nodes[dm.boundary_dofs]
        assert ((p == 0.0) | (p == 1.0)).any(axis=1).all()
        seen = {}
        for cells, rows in dm.groups:
            for ci, dofs in zip(cells, rows):
                cell = mesh.cells[ci]
                m = len(cell)
                for e_loc in range(m):
                    a, b = int(cell[e_loc]), int(cell[(e_loc + 1) % m])
                    ids = tuple(dofs[m + e_loc * (k - 1): m + (e_loc + 1) * (k - 1)])
                    key = (min(a, b), max(a, b))
                    canon = ids if a < b else tuple(reversed(ids))
                    assert seen.setdefault(key, canon) == canon
                # the element's Lobatto nodes, in local dof order, are the nodes
                # of the cell's global dofs (reversed edges included)
                ctx = ElementContext(mesh.cell_geom([ci]), k)
                nodes = ctx.edge_node_points[0]
                local = np.vstack([nodes[:, 0], nodes[:, 1:-1].reshape(-1, 2)])
                assert np.allclose(local, dm.nodes[dofs[:m * k]], rtol=0.0, atol=1e-15)
        assert len(seen) == mesh.n_edges


def _bisections(centroids, cells):
    """Every bisection (lower, upper) of the recursive median split of the
    list `cells` by centroid along the longer side of their box, x on a tie
    and ties of coordinate by cell index, the lower half taking the odd cell."""
    if len(cells) < 2:
        return []
    width, height = centroids[cells].max(axis=0) - centroids[cells].min(axis=0)
    axis = 1 if height > width else 0
    cells = sorted(cells, key=lambda c: (centroids[c, axis], c))
    lower, upper = cells[:(len(cells) + 1) // 2], cells[(len(cells) + 1) // 2:]
    return [(lower, upper)] + _bisections(centroids, lower) + _bisections(centroids, upper)


@pytest.mark.parametrize("maker", [lambda: generate_cartesian(4),
                                   lambda: generate_voronoi(64, rng_seed=0)],
                         ids=["cartesian 4", "voronoi 64"])
def test_free_dofs_follow_a_nested_dissection(maker):
    # free_dofs is the free set in elimination order: every dof shared by
    # both halves of a bisection comes after every dof held by one half alone
    mesh = maker()
    for k in (1, 2, 3):
        dm = build_dof_map(mesh, k)
        assert np.array_equal(np.sort(dm.free_dofs),
                              np.setdiff1d(np.arange(dm.n_total), dm.boundary_dofs))
        assert np.array_equal(build_dof_map(mesh, k).free_dofs, dm.free_dofs)
        holders = [set() for _ in range(dm.n_total)]
        for cells, rows in dm.groups:
            for ci, dofs in zip(cells.tolist(), rows.tolist()):
                for d in dofs:
                    holders[d].add(ci)
        free = dm.free_dofs.tolist()
        position = {d: i for i, d in enumerate(free)}
        separators = 0
        for lower, upper in _bisections(mesh.cell_centroids, list(range(mesh.n_cells))):
            lower, upper = set(lower), set(upper)
            inside = [position[d] for d in free if holders[d] <= lower or holders[d] <= upper]
            shared = [position[d] for d in free if holders[d] & lower and holders[d] & upper]
            if shared:
                separators += 1
                assert max(inside, default=-1) < min(shared)
        assert separators >= mesh.n_cells // 2


def _block_groups(mesh, k):
    """The dof map's groups as the blocks of each cell's global dofs put side
    by side: vertices, then each side's edge dofs (reversed on a side that
    runs against its edge), then the cell's moments."""
    nv, ne, nc = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    n_mom = dim_poly(k - 2)
    edge_dofs = nv + np.arange(ne * (k - 1)).reshape(ne, k - 1)
    moment_dofs = nv + ne * (k - 1) + np.arange(nc * n_mom).reshape(nc, n_mom)
    ids, starts = mesh.flat_cells
    edge_ids, against = mesh.cell_sides
    n_verts = np.diff(starts)
    for m in np.unique(n_verts):
        cells = np.flatnonzero(n_verts == m)
        sides = starts[cells][:, None] + np.arange(m)
        dofs = edge_dofs[edge_ids[sides]]
        dofs = np.where(against[sides][..., None], dofs[..., ::-1], dofs)
        yield cells, np.hstack([ids[sides], dofs.reshape(cells.size, -1), moment_dofs[cells]])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("maker", [lambda: generate_cartesian(3),
                                   lambda: generate_voronoi(40, rng_seed=2, lloyd_iters=10),
                                   mixed_mesh,
                                   lambda: tensor_mesh([0.0, 0.2, 0.7, 1.0], [0.0, 0.45, 1.0])],
                         ids=["cartesian3", "voronoi40", "mixed", "tensor"])
def test_dof_map_groups_equal_the_blocks_side_by_side(maker, k):
    """The group tables, filled through `DofLayout`, equal the vertex, edge
    and moment blocks of each cell put side by side."""
    mesh = maker()
    groups = build_dof_map(mesh, k).groups
    reference = list(_block_groups(mesh, k))
    assert len(groups) == len(reference)
    for (cells, table), (want_cells, want) in zip(groups, reference):
        assert np.array_equal(cells, want_cells)
        assert table.dtype == want.dtype and np.array_equal(table, want)


def test_dof_map_rejects_a_double_cover():
    """A mesh and its copy on other vertex ids conform edge by edge; only
    their area sum, 2, tells the dof map that they cover the square twice."""
    with pytest.raises(MeshError,
                       match=r"^mesh breaks partition: cell areas sum to 2\.0, not 1; "
                             "run validate_mesh for details$"):
        build_dof_map(doubled_cartesian2(), 1)


def test_dof_map_rejects_nonconforming():
    verts = [[0, 0], [0.5, 0], [1, 0], [1, 1], [0.5, 1], [0, 1], [0.5, 0.5]]
    cells = [[0, 1, 4, 5], [1, 2, 3, 4, 6]]
    mesh = PolyMesh(verts, cells)
    with pytest.raises(MeshError,
                       match=r"^edge \(1,4\) breaks conformity: single-cell edge not on the "
                             "square boundary; run validate_mesh for details$"):
        build_dof_map(mesh, 1)


# -- assembly ----------------------------------------------------------------

@pytest.mark.parametrize("method", [Method.STANDARD, Method.E2VEM])
def test_assembled_matrix_symmetric(method):
    mesh = generate_voronoi(10, rng_seed=2, lloyd_iters=20)
    a = _stiffness(assemble(mesh, 2, method, K_ANISO))
    diff = (a - a.T).tocoo()
    scale = np.abs(a.data).max()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12 * scale


@pytest.mark.parametrize("k", [1, 2])
def test_global_kernel_constants(k):
    mesh = generate_voronoi(10, rng_seed=2, lloyd_iters=20)
    sys_ = assemble(mesh, k, Method.STANDARD, K_ANISO)
    ones = interpolate_dofs(mesh, k, lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
    assert np.abs(_stiffness(sys_) @ ones).max() <= 1e-9


def test_e2vem_stabilization_identically_zero():
    # the stabilization-free scheme keeps no stabilization stack, on one
    # group of congruent cells and on several groups
    for mesh, k in ((generate_cartesian(3), 1), (generate_voronoi(10, rng_seed=2,
                                                                  lloyd_iters=20), 2)):
        free = assemble(mesh, k, Method.E2VEM, K_ANISO)
        standard = assemble(mesh, k, Method.STANDARD, K_ANISO)
        assert all(len(stacks) == 1 for stacks in free.stiffness)
        assert all(len(stacks) == 2 for stacks in standard.stiffness)
        assert _stiffness(free).nnz > 0


def test_assembly_splits_parts():
    # the system keeps each part of the element matrices as its own stack,
    # and the ratio reads the scatter of each, the stacks of a congruent
    # mesh serving every cell
    mesh = generate_cartesian(3)
    sys_ = assemble(mesh, 1, Method.STANDARD, K_ANISO)
    (cells, rows), = sys_.dof_map.groups
    (stacks,) = sys_.stiffness
    norms = []
    for stack in stacks:
        want = np.zeros((sys_.dof_map.n_total,) * 2)
        for idx, element in zip(rows, np.broadcast_to(stack, (cells.size, *stack.shape[1:]))):
            want[np.ix_(idx, idx)] += element
        assert np.abs(stack).max() > 0.0
        norms.append(np.abs(want).sum(axis=1).max())
    assert stab_consistency_ratio(sys_) == pytest.approx(norms[1] / norms[0], rel=1e-14)


def test_assembly_load_linearity():
    mesh = generate_cartesian(3)
    f1 = lambda x, y: np.sin(3 * x) + y
    f2 = lambda x, y: np.exp(x - y)
    b1 = assemble(mesh, 2, Method.STANDARD, K_ANISO, source_moments(mesh, 2, f1)).b
    b2 = assemble(mesh, 2, Method.STANDARD, K_ANISO, source_moments(mesh, 2, f2)).b
    b12 = assemble(mesh, 2, Method.STANDARD, K_ANISO,
                   source_moments(mesh, 2, lambda x, y: f1(x, y) + f2(x, y))).b
    assert np.abs(b12 - (b1 + b2)).max() <= 1e-13 * max(1.0, np.abs(b12).max())


def test_congruent_cache_matches_direct_assembly():
    # oracle: every cell's element and load built from its own geometry and
    # its own data rule, scattered here
    mesh = generate_cartesian(4)
    assert mesh.congruent_cells
    case = get_case("tc1")
    k = 2
    sys_ = assemble(mesh, k, Method.STANDARD, case.K, source_moments(mesh, k, case.f))
    dm = sys_.dof_map
    A = np.zeros((dm.n_total, dm.n_total))
    b = np.zeros(dm.n_total)
    (cells, rows), = dm.groups
    for ci, idx in zip(cells, rows):
        E = mesh.cell_geom([ci])
        pack = build_projection_pack(E, k, Method.STANDARD)
        a_pi, a_s = local_stiffness(pack, Method.STANDARD, case.K)
        A[np.ix_(idx, idx)] += (a_pi + a_s)[0]
        b[idx] += pack.pi0_val[0].T @ local_load(case.f, cell_data_rule(E, k))[0]
    assert np.abs(_stiffness(sys_).toarray() - A).max() <= 1e-12
    assert np.abs(sys_.b - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("shift,congruent", [(1e-7, False), (1e-11, True)])
def test_congruence_tolerance_decides_the_element_branch(shift, congruent, monkeypatch):
    """An interior vertex of cartesian 4 moved by 1e-7 h_E, a hundred times
    CONGRUENCE_TOL, makes the cells no longer congruent, and the solve builds
    every cell's element; moved by 1e-11 h_E the mesh stays congruent and
    cell 0's element serves every cell."""
    cart = generate_cartesian(4)
    nudged = cart.vertices.copy()
    nudged[6] += shift * cart.cell_diameters[0] * np.array([0.6, -0.8])
    mesh = PolyMesh(nudged, cart.cells)
    assert mesh.congruent_cells is congruent
    built = []

    def recording(E, *args):
        built.extend(E.cells)
        return local.element_matrices(E, *args)

    monkeypatch.setattr(assembly, "element_matrices", recording)
    solve_case(mesh, 2, Method.STANDARD, get_case("tc1"))
    assert built == ([0] if congruent else list(range(mesh.n_cells)))


# -- failures inside a stack -------------------------------------------------

def _dented_cartesian4():
    """Cartesian 4 with the top-right vertex of cell 5 pulled deep into it:
    that cell alone is a dart that is not star-shaped about its centroid."""
    mesh = generate_cartesian(4)
    verts = mesh.vertices.copy()
    verts[6 + 6] = verts[6] + 0.025
    return PolyMesh(verts, mesh.cells)


@pytest.mark.parametrize("stack_cells", [assembly.STACK_CELLS, 3])
def test_degenerate_cell_in_a_stack_is_named(monkeypatch, stack_cells):
    # the 16 quadrilaterals of the dented cartesian 4 are one group, built as
    # one stack or as six
    monkeypatch.setattr(assembly, "STACK_CELLS", stack_cells)
    dented = _dented_cartesian4()
    assert len(build_dof_map(dented, 2).groups) == 1 and not dented.congruent_cells
    # element construction integrates along edges only, so it builds the dart;
    # the data pass checks the polygons and names it
    for method in (Method.STANDARD, Method.E2VEM):
        assert np.isfinite(_stiffness(assemble(dented, 2, method, K_ANISO)).data).all()
    case = get_case("tc1")
    dart = r"^cell 5: " + STAR_SHAPE.format(1, r"-0\.003125")
    with pytest.raises(MeshError, match=dart):
        source_moments(dented, 2, case.f)
    with pytest.raises(MeshError, match=dart):
        solve_case(dented, 2, Method.STANDARD, case)
    # a failure that names no cell, in whichever stack holds cell 5, names it
    gram = local.monomial_gram

    def failing_gram(E, sides, degree, table, weights):
        if (E.cells == 5).any():
            raise CellDegeneracyError("Gram matrix failed")
        return gram(E, sides, degree, table, weights)

    monkeypatch.setattr(local, "monomial_gram", failing_gram)
    for method in (Method.STANDARD, Method.E2VEM):
        with pytest.raises(CellDegeneracyError, match=r"^cell 5: Gram matrix failed$"):
            assemble(dented, 2, method, K_ANISO)


def test_stack_size_leaves_the_system_unchanged(monkeypatch):
    mesh = generate_voronoi(64, rng_seed=0, lloyd_iters=100)
    case = get_case("tc1")
    source = source_moments(mesh, 2, case.f)
    for method in (Method.STANDARD, Method.E2VEM):
        whole = assemble(mesh, 2, method, case.K, source)
        monkeypatch.setattr(assembly, "STACK_CELLS", 3)
        split = assemble(mesh, 2, method, case.K, source)
        monkeypatch.undo()
        scale = abs(_stiffness(whole)).max()
        for part in (None, *range(len(whole.stiffness[0]))):
            diff = _stiffness(split, part) - _stiffness(whole, part)
            assert (abs(diff).max() if diff.nnz else 0.0) <= 1e-14 * scale
        assert np.abs(split.b - whole.b).max() <= 1e-14 * np.abs(whole.b).max()
        for got, want in zip(split.pi_stars, whole.pi_stars):
            assert got.shape == want.shape and np.abs(got - want).max() <= 1e-13


@pytest.fixture(scope="module")
def voronoi_groups():
    mesh = generate_voronoi(64, rng_seed=0, lloyd_iters=100)
    return mesh, [cells for cells, _ in build_dof_map(mesh, 1).groups]


def _failing_gram(monkeypatch, fails):
    """Make `local.monomial_gram` raise an error that names no cell, as a
    batched LAPACK failure does, on every stack E of degree d with
    fails(E.cells, d); return its calls, (cells, degree, raised) each."""
    gram, calls = local.monomial_gram, []

    def failing_gram(E, sides, degree, table, weights):
        raised = bool(fails(E.cells, degree))
        calls.append((E.cells.copy(), degree, raised))
        if raised:
            raise CellDegeneracyError("Gram matrix failed")
        return gram(E, sides, degree, table, weights)

    monkeypatch.setattr(local, "monomial_gram", failing_gram)
    return calls


def _builds_below_each_failure(calls):
    """The lowest cell that failed alone in `calls`, or False if a stack
    built after such a failure holds a cell not below the lowest so far."""
    kept = None
    for cells, _, raised in calls:
        if kept is not None and cells.max() >= kept:
            return False
        if raised and cells.size == 1:
            kept = cells.item()
    return kept


@pytest.mark.parametrize("positions", [{1: [20, 12], 2: [10]}, {1: [13, 12]}],
                         ids=["lowest-in-a-later-group", "one-group"])
def test_assemble_names_the_lowest_failing_cell(monkeypatch, voronoi_groups, positions):
    """Stacks of 3 that fail as a whole: the error names the lowest failing
    cell of the mesh, also when a later group holds it or when it shares its
    stack with a higher one, and every stack built after a failure holds
    only cells below the lowest failing cell so far."""
    mesh, groups = voronoi_groups
    assert [cells.size for cells in groups] == [4, 27, 28, 5]
    bad = np.concatenate([groups[g][p] for g, p in positions.items()])
    # in a later group, the 6-vertex one, or in one stack with the other
    assert bad[2] < bad[1] < bad[0] if bad.size == 3 else bad[1] < bad[0]
    monkeypatch.setattr(assembly, "STACK_CELLS", 3)
    calls = _failing_gram(monkeypatch, lambda cells, _: np.isin(cells, bad).any())
    for method in (Method.STANDARD, Method.E2VEM):
        calls.clear()
        with pytest.raises(CellDegeneracyError,
                           match=f"^cell {bad.min()}: Gram matrix failed$"):
            assemble(mesh, 1, method, K_ANISO)
        assert _builds_below_each_failure(calls) == bad.min()


def test_a_failure_no_cell_has_alone_names_no_cell(monkeypatch, voronoi_groups):
    """A Gram that fails only when two given cells share a stack: built
    alone, no cell fails, so the stack's error leaves naming no cell."""
    mesh, groups = voronoi_groups
    pair = groups[1][[3, 5]]              # in one stack of 3
    monkeypatch.setattr(assembly, "STACK_CELLS", 3)
    _failing_gram(monkeypatch, lambda cells, _: np.isin(pair, cells).all())
    with pytest.raises(CellDegeneracyError, match="^Gram matrix failed$") as info:
        assemble(mesh, 1, Method.STANDARD, K_ANISO)
    assert info.value.cell is None


@pytest.mark.parametrize("stack_cells", [assembly.STACK_CELLS, 3])
def test_a_failure_at_the_next_enlargement_names_its_cell(monkeypatch, stack_cells):
    """The stabilization-free order-2 build of the dented cartesian 4 keeps
    the dart, cell 5, and its neighbours 6, 9 and 10 at the minimal ell, and
    builds the exact squares again at ell + 1.  A failure of that rebuild,
    which names no cell, on the squares 7 and 13 names the lower, 7, which
    sits at position 5 of the rebuilt stack when the 16 cells are one."""
    monkeypatch.setattr(assembly, "STACK_CELLS", stack_cells)
    dented = _dented_cartesian4()
    top = 2 + min_ell(2, 4)
    short = build_projection_pack(dented.cell_geom(np.arange(16)), 2, Method.E2VEM).short
    assert np.flatnonzero(~short).tolist() == [5, 6, 9, 10]
    calls = _failing_gram(monkeypatch,
                          lambda cells, degree: degree > top and np.isin(cells, [7, 13]).any())
    with pytest.raises(CellDegeneracyError, match=r"^cell 7: Gram matrix failed$"):
        assemble(dented, 2, Method.E2VEM, K_ANISO)
    failed = [(cells.tolist(), degree) for cells, degree, raised in calls if raised]
    assert failed[-1] == ([7], top + 1)
    assert _builds_below_each_failure(calls) == 7


@pytest.mark.parametrize("kernel", ["build_pi0_grad", "build_pi0_val"])
def test_a_linalg_error_in_an_element_kernel_names_its_cell(monkeypatch, voronoi_groups,
                                                            kernel):
    """A `LinAlgError` of a batched triangular solve names no cell, and it is
    a `ValueError`, the input-error class: it becomes a `CellDegeneracyError`
    (exit code 3) naming the lowest cell that fails alone."""
    mesh, groups = voronoi_groups
    bad = np.array([groups[2][10], groups[1][12]])
    real = getattr(local, kernel)

    def failing(ctx, moments):
        if np.isin(ctx.E.cells, bad).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return real(ctx, moments)

    monkeypatch.setattr(local, kernel, failing)
    for method in (Method.STANDARD, Method.E2VEM):
        with pytest.raises(CellDegeneracyError) as info:
            assemble(mesh, 2, method, K_ANISO)
        assert str(info.value) == f"cell {bad.min()}: element kernel failed (Singular matrix, k=2)"
        assert info.value.exit_code == 3


# -- dirichlet elimination ---------------------------------------------------

def test_homogeneous_elimination_counts():
    mesh = generate_cartesian(3)
    sys_ = assemble(mesh, 2, Method.STANDARD, K_ANISO,
                    source_moments(mesh, 2, get_case("tc1").f))
    red = apply_dirichlet(sys_)
    assert red.free_dofs.size == sys_.dof_map.n_total - sys_.dof_map.boundary_dofs.size
    diff = (red.a_ff - red.a_ff.T).tocoo()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12


def test_all_boundary_system_is_trivial():
    mesh = generate_cartesian(1)
    sys_ = assemble(mesh, 1, Method.STANDARD, K_ANISO,
                    source_moments(mesh, 1, get_case("tc1").f))
    red = apply_dirichlet(sys_)
    rep = solve(red)
    assert red.free_dofs.size == 0
    assert (rep.solver, rep.ordering, rep.fill_nnz) == ("trivial", "none", 0)
    assert np.all(rep.solution == 0.0)


def test_inhomogeneous_elimination_moves_values():
    mesh = generate_cartesian(2)
    case = get_case("patch:1")
    sys_ = assemble(mesh, 1, Method.STANDARD, case.K, source_moments(mesh, 1, case.f))
    vals = np.asarray([case.u(*mesh.vertices[d]) for d in sys_.dof_map.boundary_dofs])
    red = apply_dirichlet(sys_, vals)
    rep = solve(red)
    exact = interpolate_dofs(mesh, 1, case.u)
    assert np.abs(rep.solution - exact).max() <= 1e-12


# -- solve -------------------------------------------------------------------

def test_solve_single_free_dof_exact():
    mesh = generate_cartesian(2)
    case = get_case("tc1")
    sys_ = assemble(mesh, 1, Method.STANDARD, case.K, source_moments(mesh, 1, case.f))
    red = apply_dirichlet(sys_)
    assert red.free_dofs.size == 1
    rep = solve(red)
    assert rep.residual <= 1e-14
    assert rep.spd_ok


def test_solve_recovers_known_solution(rng):
    n = 60
    Q = rng.random((n, n))
    A = sp.csr_matrix(Q @ Q.T + n * np.eye(n))
    x_star = rng.random(n)
    red = ReducedSystem(a_ff=A, b_f=A @ x_star, free_dofs=np.arange(n),
                        fixed_dofs=np.empty(0, int), fixed_values=np.empty(0),
                        n_total=n)
    rep = solve(red)
    assert np.abs(rep.solution - x_star).max() <= 1e-10
    assert rep.spd_ok


def test_solve_flags_indefinite_matrix():
    A = sp.csr_matrix(np.diag([1.0, -2.0, 3.0]))
    red = ReducedSystem(a_ff=A, b_f=np.ones(3), free_dofs=np.arange(3),
                        fixed_dofs=np.empty(0, int), fixed_values=np.empty(0),
                        n_total=3)
    assert solve(red).spd_ok is False


def test_solver_error_cites_order_limitation(monkeypatch):
    # the solve knows no scheme: solve_cases adds the order caveat of the
    # stabilization-free scheme to its solver errors above order 1
    def failing_solve(reduced):
        raise SolverError("sparse factorization failed (singular)")

    monkeypatch.setattr(study, "solve", failing_solve)
    mesh = generate_cartesian(2)
    case = get_case("tc1")
    note = (" (note: the stabilization-free scheme is only guaranteed well-posed "
            "at order 1; this run uses order 3)")
    for k in (1, 3):
        results = solve_cases(mesh, k, (Method.STANDARD, Method.E2VEM), case)
        for method, exc in results.items():
            assert isinstance(exc, SolverError)
            tail = note if method is Method.E2VEM and k == 3 else ""
            assert str(exc) == "sparse factorization failed (singular)" + tail


@pytest.fixture(scope="module")
def voronoi_256():
    return generate_voronoi(256, rng_seed=0)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("method", [Method.STANDARD, Method.E2VEM])
@pytest.mark.parametrize("mesh_name", ["cartesian 8", "voronoi 256"])
def test_reduced_matrix_is_its_own_csc(mesh_name, method, k, voronoi_256):
    # solve hands SuperLU the CSR arrays of a_ff as CSC arrays; that is a_ff
    # itself only when it is bitwise symmetric with sorted indices
    mesh = generate_cartesian(8) if mesh_name == "cartesian 8" else voronoi_256
    a_ff = apply_dirichlet(assemble(mesh, k, method, K_ANISO)).a_ff
    csc = a_ff.tocsc()
    assert a_ff.nnz > 0 and a_ff.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a_ff, name), getattr(csc, name))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_element_parts_are_bitwise_symmetric(k, voronoi_256):
    # what the reduced matrix's CSR-as-CSC reading rests on: every part of
    # every element stack, (I - Pi)^T (I - Pi) as formed included, equals its
    # transpose bit for bit
    system = assemble(voronoi_256, k, Method.STANDARD, K_ANISO)
    assert len(system.stiffness) > 1
    for stacks in system.stiffness:
        assert len(stacks) == 2
        for part in stacks:
            assert np.array_equal(part, np.swapaxes(part, -1, -2))


def _reference_scatter(mesh, k, method, K, source, monkeypatch):
    """`assemble`'s system, and from the same element stacks, by per-group
    index lists joined and converted by scipy: its parts (a_pi, a_s), or
    (a_pi,) for E2VEM, its load, and its reduced matrix.  The reduced
    matrix's lists hold each dof's position in the elimination (-1 - its
    boundary index for a fixed dof) and the summed element matrices; their
    free-free entries are converted once."""
    stacks = []

    def recording(E, *args):
        stacks.append((E.cells, local.element_matrices(E, *args)))
        return stacks[-1][1]

    monkeypatch.setattr(assembly, "element_matrices", recording)
    system = assemble(mesh, k, method, K, source)
    monkeypatch.undo()
    dm = system.dof_map
    position = np.empty(dm.n_total, int)
    position[dm.free_dofs] = np.arange(dm.free_dofs.size)
    position[dm.boundary_dofs] = -1 - np.arange(dm.boundary_dofs.size)
    b = np.zeros(dm.n_total)
    rows, cols, vals_pi, vals_s, vals = [], [], [], [], []
    for cells, dofs in dm.groups:
        # (a_pi, a_s) for the standard scheme, (a_pi,) for E2VEM
        _, pi0_val, *parts = [np.concatenate(parts) for parts in zip(
            *(out for at, out in stacks if np.isin(at, cells).all()))]
        assert len(parts) == (2 if method is Method.STANDARD else 1)
        n = dofs.shape[1]
        rows.append(np.repeat(dofs, n, axis=1).ravel())
        cols.append(np.tile(dofs, n).ravel())
        for out, part in zip((vals_pi, vals_s), parts):
            out.append(np.broadcast_to(part.reshape(-1, n * n), (cells.size, n * n)).ravel())
        vals.append(np.broadcast_to(sum(parts[1:], parts[0]).reshape(-1, n * n),
                                    (cells.size, n * n)).ravel())
        loads = (source[cells][:, None, :] @ pi0_val)[:, 0]
        b += np.bincount(dofs.ravel(), loads.ravel(), minlength=dm.n_total)
    ij = (np.concatenate(rows), np.concatenate(cols))
    full = tuple(sp.coo_matrix((np.concatenate(part), ij), shape=(dm.n_total,) * 2).tocsr()
                 for part in (vals_pi, vals_s) if part)
    i, j = position[ij[0]], position[ij[1]]
    free = (i >= 0) & (j >= 0)
    a_ff = sp.coo_matrix((np.concatenate(vals)[free], (i[free], j[free])),
                         shape=(dm.free_dofs.size,) * 2).tocsr()
    return system, full, a_ff, b


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("method", [Method.STANDARD, Method.E2VEM])
@pytest.mark.parametrize("mesh_name", ["cartesian 8", "voronoi 256"])
def test_scatter_is_bitwise_the_joined_index_lists(mesh_name, method, k, voronoi_256,
                                                   monkeypatch):
    # the preallocated int32 COO arrays give the very parts, load and reduced
    # matrix that per-group repeat/tile lists, joined, gave
    mesh = generate_cartesian(8) if mesh_name == "cartesian 8" else voronoi_256
    case = get_case("tc1")
    system, parts, a_ff, b = _reference_scatter(mesh, k, method, case.K,
                                                source_moments(mesh, k, case.f), monkeypatch)
    assert (len(system.dof_map.groups) > 1) == (mesh_name == "voronoi 256")
    got_ff = apply_dirichlet(system).a_ff
    for got, want in (*((_stiffness(system, i), part) for i, part in enumerate(parts)),
                      (got_ff, a_ff)):
        for name in ("data", "indices", "indptr"):
            assert _same_bits(getattr(got, name), getattr(want, name)), name
    assert got_ff.indices.dtype == np.int32
    assert _same_bits(system.b, b)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("mesh_name", ["mixed", "voronoi 256"])
def test_ratio_is_bitwise_the_norms_of_the_joined_index_lists(mesh_name, k, voronoi_256,
                                                              monkeypatch):
    # over several dof groups, the ratio is that of the largest absolute row
    # sums of the parts that per-group repeat/tile lists, joined, give
    mesh = mixed_mesh() if mesh_name == "mixed" else voronoi_256
    case = get_case("tc1")
    system, (a_pi, a_s), _, _ = _reference_scatter(mesh, k, Method.STANDARD, case.K,
                                                   source_moments(mesh, k, case.f), monkeypatch)
    assert len(system.dof_map.groups) > 1
    norm_s, norm_pi = (float(np.abs(part).sum(axis=1).max()) for part in (a_s, a_pi))
    assert stab_consistency_ratio(system) == norm_s / norm_pi


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("method", [Method.STANDARD, Method.E2VEM])
@pytest.mark.parametrize("mesh_name", ["cartesian 8", "voronoi 256"])
def test_reduced_system_is_the_free_block_of_the_parts(mesh_name, method, k, voronoi_256):
    # the system holds element stacks only, and the elimination at the scatter
    # gives the free block of the parts' sum and moves the boundary values
    mesh = generate_cartesian(8) if mesh_name == "cartesian 8" else voronoi_256
    case = get_case("tc1")
    system = assemble(mesh, k, method, K_ANISO, source_moments(mesh, k, case.f))
    assert not any(sp.issparse(value) for value in vars(system).values())
    assert all(isinstance(part, np.ndarray) for stacks in system.stiffness for part in stacks)
    free, fixed = system.dof_map.free_dofs, system.dof_map.boundary_dofs
    vals = 1.0 + np.random.default_rng(k).random(fixed.size)
    red = apply_dirichlet(system, vals)
    a = _stiffness(system)
    want = a[free][:, free].tocsr()
    want.sort_indices()
    assert np.array_equal(red.a_ff.indptr, want.indptr)
    assert np.array_equal(red.a_ff.indices, want.indices)
    assert np.abs(red.a_ff.data - want.data).max() <= 1e-15 * np.abs(want.data).max()
    transpose = red.a_ff.T.tocsr()
    transpose.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert _same_bits(getattr(red.a_ff, name), getattr(transpose, name)), name
    b_f = system.b[free] - a[free][:, fixed] @ vals
    assert np.abs(red.b_f - b_f).max() <= 1e-13 * np.abs(b_f).max()


def test_solve_factors_the_reduced_matrix_arrays(monkeypatch):
    mesh = generate_cartesian(4)
    red = apply_dirichlet(assemble(mesh, 2, Method.STANDARD, K_ANISO))
    seen = []

    def recording_splu(A, **kwargs):
        seen.append((A, kwargs))
        return splu(A, **kwargs)

    monkeypatch.setattr(assembly, "splu", recording_splu)
    assert solve(red).solver == "splu"
    [(A, kwargs)] = seen
    assert kwargs["panel_size"] == assembly.PANEL_COLUMNS
    assert A.format == "csc"
    assert np.shares_memory(A.data, red.a_ff.data)
    assert np.shares_memory(A.indices, red.a_ff.indices)


class _ProbedFactor:
    """A SuperLU factor that calls `probe` before its `U` is read."""

    def __init__(self, lu, probe):
        self._lu, self._probe = lu, probe
        self.solve, self.nnz = lu.solve, lu.nnz

    @property
    def U(self):
        self._probe()
        return self._lu.U


def test_solve_frees_the_reduced_matrix_before_the_spd_check(monkeypatch):
    """The residual check is the last reader of `a_ff`: a reduced system that
    no caller holds is freed before the SPD check copies L and U, and one
    that the caller holds gives the same report bit for bit."""
    system = assemble(generate_cartesian(4), 2, Method.STANDARD, K_ANISO)
    red = apply_dirichlet(system)
    held = solve(red)
    holder = [apply_dirichlet(system)]
    data = weakref.ref(holder[0].a_ff.data)
    alive = []

    def probed_splu(A, **kwargs):
        return _ProbedFactor(splu(A, **kwargs), lambda: alive.append(data() is not None))

    monkeypatch.setattr(assembly, "splu", probed_splu)
    dropped = solve(holder.pop())
    assert alive == [False]
    assert red.a_ff.data.size > 0
    assert _same_bits(dropped.solution, held.solution)
    for name in ("solver", "residual", "spd_ok", "ordering", "fill_nnz"):
        assert getattr(dropped, name) == getattr(held, name), name


def _raise_memory_error(*args, **kwargs):
    raise MemoryError


def _factor_without_memory_for_u(A, **kwargs):
    return _ProbedFactor(splu(A, **kwargs), _raise_memory_error)


@pytest.mark.parametrize("fake_splu", [_raise_memory_error, _factor_without_memory_for_u],
                         ids=["splu", "U"])
def test_solve_maps_a_memory_error_to_a_solver_error(monkeypatch, fake_splu):
    red = apply_dirichlet(assemble(generate_cartesian(4), 2, Method.STANDARD, K_ANISO))
    size = f"{red.a_ff.shape[0]} unknowns, {red.a_ff.nnz} nonzeros in a_ff"
    monkeypatch.setattr(assembly, "splu", fake_splu)
    with pytest.raises(SolverError) as info:
        solve(red)
    assert str(info.value) == f"out of memory in the sparse solve ({size})"
    assert info.value.exit_code == 3
    # solve_cases keeps the error in the scheme's entry, without the frames
    # of the error it replaced, which hold the failed factor
    results = solve_cases(generate_cartesian(4), 2, (Method.STANDARD,), get_case("tc1"))
    exc = results[Method.STANDARD]
    assert isinstance(exc, SolverError) and str(exc).startswith("out of memory")
    assert exc.__traceback__ is None and exc.__context__ is None


def test_solve_rejects_a_nonsymmetric_matrix():
    # SuperLU reads the CSR arrays as CSC, so it solves with the transpose;
    # the residual, computed with the matrix itself, catches it (0.707)
    A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
    red = ReducedSystem(a_ff=A, b_f=np.array([1.0, 2.0]), free_dofs=np.arange(2),
                        fixed_dofs=np.empty(0, int), fixed_values=np.empty(0), n_total=2)
    with pytest.raises(SolverError, match=r"^residual 7\.071e-01 exceeds"):
        solve(red)


@pytest.mark.parametrize("matrix", [
    [[1e-20, 1.0], [1.0, 1.0]],         # unpivoted elimination: residual ~1
    [[1.0, 0.0], [0.0, 1e-310]],        # subnormal pivot: the solution overflows
    [[1.0, 0.0], [0.0, np.inf]],        # non-finite entry: the residual is NaN
    [[1e-9, 1.0], [1.0, 1.0]],          # small unpivoted pivot: residual 1.4e-7
])
def test_solve_rejects_unverified_solution(matrix):
    red = ReducedSystem(a_ff=sp.csr_matrix(np.array(matrix)), b_f=np.array([1.0, 2.0]),
                        free_dofs=np.arange(2), fixed_dofs=np.empty(0, int),
                        fixed_values=np.empty(0), n_total=2)
    with pytest.raises(SolverError):
        solve(red)


def test_solve_ordering_reduces_fill():
    # the dof map's nested-dissection order, factored in natural order, leaves
    # less L+U fill than SuperLU's COLAMD and under a thirtieth of the fill of
    # the plain numbering on an order-3 system, with the same checks passing;
    # the panel width changes the speed of the factorization, not its fill
    case = get_case("tc1")
    mesh = generate_cartesian(16)
    system = assemble(mesh, 3, Method.STANDARD, case.K, source_moments(mesh, 3, case.f))
    red = apply_dirichlet(system)
    rep = solve(red)
    plain = np.sort(red.free_dofs)
    a_plain = _stiffness(system)[plain][:, plain].tocsc()
    options = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    colamd = splu(a_plain, permc_spec="COLAMD", **options)
    unordered = splu(a_plain, permc_spec="NATURAL", **options)
    default_panel = splu(red.a_ff.tocsc(), permc_spec="NATURAL", **options)
    assert rep.ordering == "NATURAL"
    assert 0 < rep.fill_nnz < colamd.nnz
    assert 30 * rep.fill_nnz < unordered.nnz
    assert rep.fill_nnz == default_panel.nnz
    assert rep.spd_ok
    assert rep.residual <= RESIDUAL_RTOL * np.linalg.norm(red.b_f)


@pytest.mark.parametrize("maker", [
    lambda: generate_cartesian(4),
    lambda: generate_voronoi(24, rng_seed=9, lloyd_iters=30),
])
def test_e2vem_order1_spd(maker):
    mesh = maker()
    case = get_case("tc1")
    sys_ = assemble(mesh, 1, Method.E2VEM, case.K, source_moments(mesh, 1, case.f))
    rep = solve(apply_dirichlet(sys_))
    assert rep.spd_ok


# -- ratio -------------------------------------------------------------------

def test_ratio_requires_stabilization(monkeypatch):
    # the stabilization-free system is refused before any scatter
    system = assemble(generate_cartesian(3), 1, Method.E2VEM, K_ANISO)

    def scatter(*args):
        raise AssertionError("the ratio scattered a stabilization-free system")

    monkeypatch.setattr(assembly, "_scatter", scatter)
    with pytest.raises(ValueError, match="only defined for the standard scheme"):
        stab_consistency_ratio(system)


def _with_stacks(system, a_pi, a_s):
    """The system with every cell's element parts set to the (N, N) a_pi, a_s."""
    return dataclasses.replace(system, stiffness=[(a_pi[None], a_s[None])
                                                  for _ in system.stiffness])


def test_ratio_of_equal_parts_is_one():
    system = assemble(generate_voronoi(10, rng_seed=2, lloyd_iters=20), 1, Method.STANDARD,
                      K_ANISO)
    assert stab_consistency_ratio(dataclasses.replace(
        system, stiffness=[(a_pi, a_pi) for a_pi, _ in system.stiffness])) == 1.0
    zero = np.zeros((4, 4))
    square = assemble(generate_cartesian(1), 1, Method.STANDARD, K_ANISO)
    for a_pi, a_s, part in ((np.eye(4), zero, "stabilization"), (zero, np.eye(4), "consistency")):
        with pytest.raises(ValueError, match=f"^{part} part has zero norm$"):
            stab_consistency_ratio(_with_stacks(square, a_pi, a_s))


def test_infinity_norm_is_max_row_sum():
    # on the one square of cartesian 1 the parts are its element matrices,
    # whose largest absolute row sums 3 and 2 are in row 0, where the plain
    # row sums are -1 and 0 (row 1 sums to 1 and 0.5)
    square = assemble(generate_cartesian(1), 1, Method.STANDARD, K_ANISO)
    a_pi, a_s = np.zeros((2, 4, 4))
    a_pi[:2, :2] = [[1.0, -1.0], [0.25, 0.25]]
    a_s[:2, :2] = [[1.0, -2.0], [0.5, 0.5]]
    assert stab_consistency_ratio(_with_stacks(square, a_pi, a_s)) == 1.5


def test_cartesian_k1_ratio_is_one():
    mesh = generate_cartesian(8)
    system = assemble(mesh, 1, Method.STANDARD, get_case("tc1").K)
    assert stab_consistency_ratio(system) == pytest.approx(1.0, abs=1e-2)


# -- method agreement / determinism ------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_patch_solutions_match_interpolant(k):
    from polyvem.study import solve_case
    mesh = generate_voronoi(12, rng_seed=6, lloyd_iters=25)
    case = get_case(f"patch:{k}")
    exact = interpolate_dofs(mesh, k, case.u)
    for method in (Method.STANDARD, Method.E2VEM):
        sol = solve_case(mesh, k, method, case)
        assert np.abs(sol.report.solution - exact).max() <= 1e-9


def test_cell_order_independence():
    mesh = generate_voronoi(14, rng_seed=8, lloyd_iters=25)
    case = get_case("tc1")
    perm = np.random.default_rng(0).permutation(mesh.n_cells)
    shuffled = PolyMesh(mesh.vertices, [mesh.cells[i] for i in perm])

    from polyvem.study import solve_case
    a = solve_case(mesh, 1, Method.STANDARD, case)
    b = solve_case(shuffled, 1, Method.STANDARD, case)
    # k = 1 numbering is cell-order independent (vertex dofs only)
    assert np.abs(a.report.solution - b.report.solution).max() <= 1e-11

    a2 = solve_case(mesh, 2, Method.STANDARD, case)
    b2 = solve_case(shuffled, 2, Method.STANDARD, case)
    nv = mesh.n_vertices
    assert np.abs(a2.report.solution[:nv] - b2.report.solution[:nv]).max() <= 1e-11
