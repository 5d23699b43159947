import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import cell_data_rule, interpolate_dofs
from polyvem import assembly, local, study
from polyvem.assembly import (RESIDUAL_RTOL, ReducedSystem, SolverError, apply_dirichlet,
                              assemble, build_dof_map, infinity_norm, solve,
                              source_moments, stab_consistency_ratio)
from polyvem.cases import testcase as get_case
from polyvem.errors import NumericalDegeneracyError, QuadratureError
from polyvem.local import (DiffusionTensor, ElementContext, Method,
                           build_projection_pack, local_load, local_stiffness,
                           min_ell)
from polyvem.mesh import NonConformingMeshError, PolyMesh, generate_cartesian, generate_voronoi
from polyvem.study import solve_case, solve_cases

K_ANISO = DiffusionTensor.diagonal(8.0e-3, 1.0)


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


def test_dof_map_rejects_nonconforming():
    verts = [[0, 0], [0.5, 0], [1, 0], [1, 1], [0.5, 1], [0, 1], [0.5, 0.5]]
    cells = [[0, 1, 4, 5], [1, 2, 3, 4, 6]]
    mesh = PolyMesh(verts, cells)
    with pytest.raises(NonConformingMeshError,
                       match="single-cell edge not on the square boundary"):
        build_dof_map(mesh, 1)


# -- assembly ----------------------------------------------------------------

@pytest.mark.parametrize("method", [Method.STANDARD, Method.E2VEM])
def test_assembled_matrix_symmetric(method):
    mesh = generate_voronoi(10, rng_seed=2, lloyd_iters=20)
    sys_ = assemble(mesh, 2, method, K_ANISO)
    diff = (sys_.a - sys_.a.T).tocoo()
    scale = np.abs(sys_.a.data).max()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12 * scale


@pytest.mark.parametrize("k", [1, 2])
def test_global_kernel_constants(k):
    mesh = generate_voronoi(10, rng_seed=2, lloyd_iters=20)
    sys_ = assemble(mesh, k, Method.STANDARD, K_ANISO)
    ones = interpolate_dofs(mesh, k, lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
    assert np.abs(sys_.a @ ones).max() <= 1e-9


def test_e2vem_stabilization_identically_zero():
    mesh = generate_cartesian(3)
    sys_ = assemble(mesh, 1, Method.E2VEM, K_ANISO)
    assert sys_.a_s.nnz == 0 or np.abs(sys_.a_s.data).max() == 0.0


def test_assembly_splits_parts():
    mesh = generate_cartesian(3)
    sys_ = assemble(mesh, 1, Method.STANDARD, K_ANISO)
    diff = (sys_.a - (sys_.a_pi + sys_.a_s)).tocoo()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) == 0.0


def test_parts_share_one_read_only_pattern():
    mesh = generate_voronoi(10, rng_seed=2, lloyd_iters=20)
    sys_ = assemble(mesh, 2, Method.STANDARD, K_ANISO)
    for index in ("indices", "indptr"):
        part_s, part_pi = getattr(sys_.a_s, index), getattr(sys_.a_pi, index)
        assert np.shares_memory(part_s, part_pi)
        assert not part_s.flags.writeable and not part_pi.flags.writeable
    a = sys_.a
    assert np.array_equal(a.indices, sys_.a_pi.indices)
    assert np.array_equal(a.indptr, sys_.a_pi.indptr)
    assert np.array_equal(a.data, sys_.a_pi.data + sys_.a_s.data)
    assert (a != sys_.a_pi + sys_.a_s).nnz == 0
    free = assemble(mesh, 2, Method.E2VEM, K_ANISO)
    assert free.a is free.a_pi and free.a_s.nnz == 0


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
    assert np.abs(sys_.a.toarray() - A).max() <= 1e-12
    assert np.abs(sys_.b - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


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
        assert np.isfinite(assemble(dented, 2, method, K_ANISO).a.data).all()
    case = get_case("tc1")
    with pytest.raises(QuadratureError, match=r"^cell 5: cell is not star-shaped"):
        source_moments(dented, 2, case.f)
    with pytest.raises(QuadratureError, match=r"^cell 5: cell is not star-shaped"):
        solve_case(dented, 2, Method.STANDARD, case)
    # a failure that names no cell, in whichever stack holds cell 5, names it
    gram = local.monomial_gram

    def failing_gram(E, degree):
        if (E.cells == 5).any():
            raise NumericalDegeneracyError("Gram matrix failed")
        return gram(E, degree)

    monkeypatch.setattr(local, "monomial_gram", failing_gram)
    for method in (Method.STANDARD, Method.E2VEM):
        with pytest.raises(NumericalDegeneracyError, match=r"^cell 5: Gram matrix failed$"):
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
        for name in ("a", "a_pi", "a_s"):
            diff = getattr(split, name) - getattr(whole, name)
            assert (abs(diff).max() if diff.nnz else 0.0) <= 1e-14 * abs(whole.a).max()
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

    def failing_gram(E, degree):
        raised = bool(fails(E.cells, degree))
        calls.append((E.cells.copy(), degree, raised))
        if raised:
            raise NumericalDegeneracyError("Gram matrix failed")
        return gram(E, degree)

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
        with pytest.raises(NumericalDegeneracyError,
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
    with pytest.raises(NumericalDegeneracyError, match="^Gram matrix failed$") as info:
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
    with pytest.raises(NumericalDegeneracyError, match=r"^cell 7: Gram matrix failed$"):
        assemble(dented, 2, Method.E2VEM, K_ANISO)
    failed = [(cells.tolist(), degree) for cells, degree, raised in calls if raised]
    assert failed[-1] == ([7], top + 1)
    assert _builds_below_each_failure(calls) == 7


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


def test_solve_factors_the_reduced_matrix_arrays(monkeypatch):
    mesh = generate_cartesian(4)
    red = apply_dirichlet(assemble(mesh, 2, Method.STANDARD, K_ANISO))
    seen = []

    def recording_splu(A, **kwargs):
        seen.append(A)
        return splu(A, **kwargs)

    monkeypatch.setattr(assembly, "splu", recording_splu)
    assert solve(red).solver == "splu"
    [A] = seen
    assert A.format == "csc"
    assert np.shares_memory(A.data, red.a_ff.data)
    assert np.shares_memory(A.indices, red.a_ff.indices)


def test_solve_rejects_a_nonsymmetric_matrix():
    # SuperLU reads the CSR arrays as CSC, so it solves with the transpose;
    # the residual, computed with the matrix itself, catches it (0.707)
    A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 3.0]]))
    red = ReducedSystem(a_ff=A, b_f=np.array([1.0, 2.0]), free_dofs=np.arange(2),
                        fixed_dofs=np.empty(0, int), fixed_values=np.empty(0), n_total=2)
    with pytest.raises(SolverError, match=r"^residual 7\.071e-01 exceeds"):
        solve(red)


@pytest.mark.parametrize("matrix", [
    [[1.0, 1.0], [1.0, 1e-20]],         # unpivoted elimination: residual ~1
    [[1.0, 0.0], [0.0, 1e-310]],        # subnormal pivot: the solution overflows
    [[1.0, 0.0], [0.0, np.inf]],        # non-finite entry: the residual is NaN
])
def test_solve_rejects_unverified_solution(matrix):
    red = ReducedSystem(a_ff=sp.csr_matrix(np.array(matrix)), b_f=np.array([1.0, 2.0]),
                        free_dofs=np.arange(2), fixed_dofs=np.empty(0, int),
                        fixed_values=np.empty(0), n_total=2)
    with pytest.raises(SolverError):
        solve(red)


def test_solve_ordering_reduces_fill():
    # the symmetric minimum-degree ordering leaves less L+U fill than SuperLU's
    # default COLAMD on an order-3 system, with the same checks passing
    case = get_case("tc1")
    mesh = generate_cartesian(16)
    red = apply_dirichlet(assemble(mesh, 3, Method.STANDARD, case.K,
                                   source_moments(mesh, 3, case.f)))
    rep = solve(red)
    colamd = splu(red.a_ff.tocsc(), permc_spec="COLAMD", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    assert rep.ordering == "MMD_AT_PLUS_A"
    assert 0 < rep.fill_nnz < colamd.nnz
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

def test_ratio_requires_stabilization():
    mesh = generate_cartesian(3)
    sys_ = assemble(mesh, 1, Method.E2VEM, K_ANISO)
    with pytest.raises(ValueError):
        stab_consistency_ratio(sys_.a_s, sys_.a_pi)


def test_ratio_of_equal_parts_is_one():
    A = sp.csr_matrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert stab_consistency_ratio(A, A) == pytest.approx(1.0)


def test_infinity_norm_is_max_row_sum():
    A = sp.csr_matrix(np.array([[1.0, -2.0], [0.5, 0.25]]))
    assert infinity_norm(A) == pytest.approx(3.0)


def test_cartesian_k1_ratio_is_one():
    mesh = generate_cartesian(8)
    sys_ = assemble(mesh, 1, Method.STANDARD, get_case("tc1").K)
    assert stab_consistency_ratio(sys_.a_s, sys_.a_pi) == pytest.approx(1.0, abs=1e-2)


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
