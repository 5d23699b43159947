import gc
import io
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyvem import assembly, local, study
from polyvem.assembly import assemble, build_dof_map
from polyvem.cases import testcase as get_case
from polyvem.errors import CellDegeneracyError, MeshError, PolyvemError
from polyvem.local import Method
from polyvem.mesh import generate_cartesian, generate_voronoi, read_mesh
from polyvem.study import (METHODS, StudyConfig, convergence_rate, energy_error, ladder_for,
                           run_study, solve_case, solve_cases)
from conftest import STAR_SHAPE, exact_energy_norm, interpolate_dofs, parse_rows_csv
from test_cli import U_SHAPED_MESH


def test_convergence_rate_examples():
    assert convergence_rate(0.1, 0.025, 0.2, 0.1) == pytest.approx(2.0)
    assert convergence_rate(0.1, 0.05, 0.2, 0.1) == pytest.approx(1.0)
    assert convergence_rate(0.3, 0.3, 0.2, 0.1) == pytest.approx(0.0)


def test_convergence_rate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        convergence_rate(0.1, 0.05, 0.1, 0.2)
    with pytest.raises(ValueError):
        convergence_rate(0.0, 0.05, 0.2, 0.1)


def test_energy_of_a_diagonal_tensor_is_the_three_term_sum_bitwise():
    rng = np.random.default_rng(3)
    w, gx, gy = rng.uniform(0.0, 1.0, 1000), *rng.standard_normal((2, 1000))
    Km = np.diag([8.0e-3, 1.0])
    three_terms = float((w * (Km[0, 0] * gx * gx + 2.0 * Km[0, 1] * gx * gy
                              + Km[1, 1] * gy * gy)).sum())
    assert study._energy(w, gx, gy, Km) == three_terms
    # a rotated tensor keeps its cross term
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    Kr = rot @ Km @ rot.T
    ref = np.einsum("p,pi,ij,pj->", w, np.column_stack([gx, gy]), Kr, np.column_stack([gx, gy]))
    assert study._energy(w, gx, gy, Kr) == pytest.approx(ref, rel=1e-13)
    assert abs(ref - study._energy(w, gx, gy, np.diag(np.diag(Kr)))) > 1e-3 * abs(ref)


def test_energy_on_planes_is_the_energy_of_the_flat_points_bitwise():
    # the data passes sum over (R, q) planes, on a congruent mesh with cell
    # 0's weights broadcast; the paper artifacts are byte-identical only if
    # that sums in the order of the flattened points
    rng = np.random.default_rng(4)
    R, q = 53, 677                          # more points than one pairwise block
    gx, gy = rng.standard_normal((2, R, q))
    w = rng.uniform(0.0, 1.0, q)
    Km = np.array([[8.0e-3, 1.0e-3], [1.0e-3, 1.0]])
    flat = study._energy(np.tile(w, R), gx.ravel(), gy.ravel(), Km)
    assert study._energy(np.broadcast_to(w, (R, q)), gx, gy, Km) == flat
    assert study._energy(np.tile(w, (R, 1)), gx, gy, Km) == flat


def test_zero_solution_gives_unit_error():
    mesh = generate_cartesian(4)
    case = get_case("tc1")
    system = assemble(mesh, 1, Method.STANDARD, case.K)
    [e] = energy_error(mesh, [(system, np.zeros(system.dof_map.n_total))], case)
    assert e == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_patch_energy_error_tiny(k):
    mesh = generate_voronoi(9, rng_seed=5, lloyd_iters=25)
    case = get_case(f"patch:{k}")
    for method in (Method.STANDARD, Method.E2VEM):
        sol = solve_case(mesh, k, method, case)
        assert sol.e_star <= 1e-9


@settings(max_examples=120, deadline=None)
@given(n_cells=st.integers(3, 40), seed=st.integers(0, 10_000),
       lloyd_iters=st.sampled_from([0, 1, 3]), k=st.integers(1, 3))
@example(n_cells=40, seed=34, lloyd_iters=0, k=3)
@example(n_cells=30, seed=9, lloyd_iters=1, k=3)
def test_coarse_voronoi_patch_test_passes_or_names_a_cell(n_cells, seed, lloyd_iters, k):
    """On coarse Voronoi meshes both schemes either pass criterion 1's patch
    test (energy error <= 1e-9) or fail with an error that names a cell and
    maps to exit 2 or 3: no scheme returns a wrong answer silently.  The two
    examples are meshes whose stabilization-free solves went wrong silently
    when the gradient energy was formed from monomial coefficients and the
    Gram matrix, on cells whose Gram matrix is singular to working
    precision."""
    mesh = generate_voronoi(n_cells, rng_seed=seed, lloyd_iters=lloyd_iters)
    try:
        results = solve_cases(mesh, k, METHODS, get_case(f"patch:{k}"))
    except PolyvemError as exc:
        results = {None: exc}
    for method, result in results.items():
        if isinstance(result, PolyvemError):
            assert result.cell is not None and result.exit_code in (2, 3), (method, result)
        else:
            assert result.e_star <= 1e-9, (method, result.e_star)


def test_interpolant_energy_error_small():
    # interpolation error bounds the scheme's energy error from below
    mesh = generate_cartesian(8)
    case = get_case("tc1")
    dofs = interpolate_dofs(mesh, 1, case.u)
    [e] = energy_error(mesh, [(assemble(mesh, 1, Method.STANDARD, case.K), dofs)], case)
    assert 0.0 < e < 1.0


def test_cell_loops_name_the_failing_cell():
    # cell 0 of the U-shaped mesh is not star-shaped about its centroid
    mesh = read_mesh(io.StringIO(U_SHAPED_MESH))
    u_cell = r"^cell 0: " + STAR_SHAPE.format(3, r"-0\.07")
    with pytest.raises(MeshError, match=u_cell):
        interpolate_dofs(mesh, 2, get_case("tc1").u)
    with pytest.raises(MeshError, match=u_cell):
        exact_energy_norm(mesh, get_case("tc1"))


def test_solve_case_builds_the_dof_map_once(monkeypatch):
    calls = []

    def counted(mesh, k):
        calls.append(k)
        return build_dof_map(mesh, k)

    monkeypatch.setattr(assembly, "build_dof_map", counted)
    monkeypatch.setattr(study, "build_dof_map", counted)
    solve_case(generate_cartesian(4), 2, Method.STANDARD, get_case("tc1"))
    assert calls == [2]
    # both schemes of a mesh and order share one dof map
    calls.clear()
    results = solve_cases(generate_cartesian(4), 2, METHODS, get_case("tc1"))
    assert calls == [2]
    assert results[Method.STANDARD].system.dof_map is results[Method.E2VEM].system.dof_map


def _count_data_rules(monkeypatch, covered):
    """Record (monomials of the table, cells, points per row) of every data
    rule built; an order-k rule has dim P_{k-1} monomials, 1 at k = 1."""
    init = local.DataRule.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        assert self.table.shape == (self.x.shape[1], self.transfer.shape[-1])
        covered.append((self.table.shape[1], self.cells, self.x.shape[1]))

    monkeypatch.setattr(local.DataRule, "__init__", counted)


def test_congruent_mesh_builds_one_element_and_rule_per_loop(monkeypatch):
    built = {"ctx": 0}
    init = local.ElementContext.__init__

    def counted(self, *args, **kwargs):
        built["ctx"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(local.ElementContext, "__init__", counted)
    covered = []
    _count_data_rules(monkeypatch, covered)
    ruled = []
    affine_rule = local.affine_rule

    def counted_rule(*args):
        x, y, w = affine_rule(*args)
        ruled.append(w.size)
        return x, y, w

    monkeypatch.setattr(local, "affine_rule", counted_rule)
    for n in (2, 8):
        built["ctx"] = 0
        covered.clear()
        ruled.clear()
        solve_case(generate_cartesian(n), 3, Method.STANDARD, get_case("tc2"))
        # one element context; the data rules of the load pass, then those of
        # the error pass, each cover every cell once, in cell order
        assert built["ctx"] == 1
        assert [ci for _, cells, _ in covered for ci in cells] == list(range(n * n)) * 2
        # each pass applies affine_rule once, to cell 0's strips: its points
        # are one row, one cell, of every rule of the pass
        assert len(ruled) == 2 and ruled[0] == ruled[1]
        assert {q for *_, q in covered} == {ruled[0]}


def test_study_level_builds_two_data_rules_per_cell(monkeypatch):
    # both schemes share one source pass and one error pass on each mesh
    covered = []
    _count_data_rules(monkeypatch, covered)
    mesh = generate_voronoi(64, rng_seed=0, lloyd_iters=10)  # the ladder's level 1
    result = run_study(StudyConfig(case_id="tc2", orders=(1,), families=("voronoi",),
                                   levels=1, lloyd_iters=10))
    assert [(r.method, r.n_dofs, r.note) for r in result.rows] == [
        ("vem", mesh.n_vertices, ""), ("e2vem", mesh.n_vertices, "")]
    assert {n for n, *_ in covered} == {1}
    assert [ci for _, cells, _ in covered for ci in cells] == list(range(mesh.n_cells)) * 2


def test_solve_cases_keeps_a_failure_per_scheme(monkeypatch):
    real = local.build_projection_pack

    def failing_e2vem(E, k, method):
        if method is Method.E2VEM:
            raise CellDegeneracyError("singular projector system")
        return real(E, k, method)

    monkeypatch.setattr(local, "build_projection_pack", failing_e2vem)
    results = solve_cases(generate_cartesian(4), 1, METHODS, get_case("tc1"))
    assert str(results[Method.E2VEM]) == "cell 0: singular projector system"
    assert results[Method.STANDARD].e_star > 0.0
    # the kept error holds no frames, so dropping the result frees the solved
    # scheme's system at once, without the cyclic garbage collector
    solved = weakref.ref(results[Method.STANDARD])
    gc.disable()
    try:
        del results
        assert solved() is None
    finally:
        gc.enable()


def test_exact_energy_norm_tc2_quadrature():
    # coarse cartesian meshes already integrate the oscillation after subdivision
    mesh = generate_cartesian(16)
    den = exact_energy_norm(mesh, get_case("tc2"))
    assert den == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-6)


@pytest.fixture(scope="module")
def tc2_voronoi():
    return {n: generate_voronoi(n, rng_seed=0) for n in (64, 256)}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [64, 256])
def test_exact_energy_norm_tc2_voronoi_strips(tc2_voronoi, n, k):
    # the band-cut data rule on the study's Voronoi levels: the worst
    # relative error is about 1.1e-7 (Voronoi-256, k=1)
    den = exact_energy_norm(tc2_voronoi[n], get_case("tc2"), k)
    assert den == pytest.approx(math.pi * math.sqrt(2.0), rel=1e-6)


def test_ladder_prefixes():
    assert ladder_for("cartesian", 0) == (8, 16, 32, 64, 128)
    assert ladder_for("cartesian", 2) == (8, 16)
    assert ladder_for("voronoi", 1) == (64,)


def test_run_study_patch_rows(tmp_path):
    cfg = StudyConfig(case_id="patch:1", orders=(1,), families=("cartesian",),
                      levels=2, out_dir=str(tmp_path / "out"))
    result = run_study(cfg)
    assert len(result.rows) == 4          # 2 levels x 2 methods
    for row in result.rows:
        assert row.e_star <= 1e-9
        assert row.note == ""
    assert ("cartesian", 1) in result.avg_stab_ratio

    out = tmp_path / "out"
    rows_csv = out / "study_rows.csv"
    fig_csv = out / "fig_patch1_cartesian_order1.csv"
    assert rows_csv.exists() and fig_csv.exists()
    assert (out / "rates_summary.csv").exists()
    assert (out / "summary.json").exists()

    # round-trip
    back = parse_rows_csv(rows_csv)
    assert len(back) == len(result.rows)
    for got, want in zip(back, result.rows):
        assert got.h_max == want.h_max
        assert got.e_star == want.e_star
        assert got.method == want.method

    # figure CSV: header + one data row per level, h strictly decreasing
    lines = fig_csv.read_text().strip().splitlines()
    assert lines[0] == "h_max,e_V,e_W,ratio_vw"
    hs = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert len(hs) == 2 and hs[0] > hs[1]


def test_run_study_alpha_attached():
    cfg = StudyConfig(case_id="tc1", orders=(1,), families=("cartesian",), levels=3)
    result = run_study(cfg)
    series = result.series("cartesian", 1, Method.STANDARD)
    assert series[0].alpha is None
    assert all(r.alpha is not None for r in series[1:])
    assert series[-1].alpha == pytest.approx(
        convergence_rate(series[-2].e_star, series[-1].e_star,
                         series[-2].h_max, series[-1].h_max))
    assert all(r.stab_ratio is not None for r in series)
    e2 = result.series("cartesian", 1, Method.E2VEM)
    assert all(r.stab_ratio is None for r in e2)


def test_study_outputs_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run_study(StudyConfig(case_id="tc1", orders=(1,), families=("voronoi",),
                              levels=1, rng_seed=3, lloyd_iters=10,
                              out_dir=str(out)))
    for name in ("study_rows.csv", "fig_tc1_voronoi_order1.csv",
                 "rates_summary.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(case_id="tc1", families=("triangular",))
    with pytest.raises(ValueError):
        StudyConfig(case_id="tc1", orders=(0,))
    with pytest.raises(ValueError):
        StudyConfig(case_id="tc1", orders=(4,))
    for orders, families in (((1, 2, 1), ("cartesian",)), ((), ("cartesian",)),
                             ((1,), ("voronoi", "voronoi")), ((1,), ())):
        with pytest.raises(ValueError, match="must be distinct and non-empty"):
            StudyConfig(case_id="tc1", orders=orders, families=families)


def test_tc1_cartesian_errors_decrease():
    cfg = StudyConfig(case_id="tc1", orders=(1,), families=("cartesian",), levels=3)
    result = run_study(cfg)
    for method in (Method.STANDARD, Method.E2VEM):
        errs = [r.e_star for r in result.series("cartesian", 1, method)]
        assert all(a > b for a, b in zip(errs, errs[1:]))


def test_tc2_method_ordering_floor():
    # the oscillatory case sits on its pre-asymptotic plateau at coarse
    # levels; the standard scheme must not beat the stabilization-free one
    # by more than the 0.95 floor
    case = get_case("tc2")
    for n in (64, 256):
        mesh = generate_voronoi(n, rng_seed=0, lloyd_iters=30)
        sols = solve_cases(mesh, 1, METHODS, case)
        assert sols[Method.STANDARD].e_star / sols[Method.E2VEM].e_star >= 0.95
