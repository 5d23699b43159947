"""Acceptance suite: every criterion at its stated tolerance.

Each criterion is one test; `pytest -v` yields the pass/fail line per
criterion and the prints carry the measured numbers.  Criteria 3, 4 and 5
read the session's full paper run (`conftest.paper_run`); every mesh comes
from the session's mesh memo (`conftest.shared_mesh`), built once.
"""

import csv
import json
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import exact_energy_norm, lone_cell, parse_rows_csv, shared_mesh
from polyvem.assembly import STACK_CELLS, assemble
from polyvem.basis import dim_poly
from polyvem.cases import testcase as get_case
from polyvem.local import (MAX_ELL_BUMPS, RANK_TOL, DiffusionTensor, ElementContext,
                           Method, StabilizationFreeRankError, build_pi_nabla,
                           build_projection_pack, local_stiffness, min_ell)
from polyvem.mesh import (CARTESIAN_LADDER, DEFAULT_LLOYD_ITERS, FAMILIES, VORONOI_LADDER,
                          PolyMesh)
from polyvem.study import run_unit, solve_case

K_PATCH = DiffusionTensor.diagonal(8.0e-3, 1.0)


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{name}: {detail}"


def paper_e_stars(out, case_id):
    """{(family, order, n, method): e_star} of a case's rows in the paper run
    written to `out`, n the ladder mesh of the row's level."""
    return {(r.family, r.order, FAMILIES[r.family][r.level - 1], Method.parse(r.method)): r.e_star
            for r in parse_rows_csv(out / case_id / "study_rows.csv")}


@pytest.fixture(scope="module")
def vor1024_k3_rank_failure():
    """The error raised by the order-3 E2VEM assembly on Voronoi-1024, shared
    by criterion 7 and the two rank-failure tests; fails them if none is."""
    with pytest.raises(StabilizationFreeRankError) as info:
        assemble(shared_mesh("voronoi", 1024), 3, Method.E2VEM, K_PATCH)
    # without its traceback, whose frames would keep the failed assembly alive
    return info.value.with_traceback(None)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_patch_exactness():
    """Patch test: k in {1,2,3}, both methods, cartesian n=8 and voronoi 64."""
    t0 = time.time()
    worst = 0.0
    for k in (1, 2, 3):
        case = get_case(f"patch:{k}")
        assert np.allclose(case.K.matrix, K_PATCH.matrix)
        for mesh in (shared_mesh("cartesian", 8), shared_mesh("voronoi", 64)):
            for method in (Method.STANDARD, Method.E2VEM):
                sol = solve_case(mesh, k, method, case)
                worst = max(worst, sol.e_star)
    elapsed = time.time() - t0
    report("criterion 1 (patch test)",
           worst <= 1e-9 and elapsed < 30.0,
           f"max e_star={worst:.3e} (tol 1e-9), {elapsed:.1f}s (< 30s)")


def test_criterion_2_projection_oracles(rng):
    """Projector identities on every cell of the 256-cell voronoi mesh plus
    the triangle equivalence with anisotropic linear finite elements."""
    t0 = time.time()
    mesh = shared_mesh("voronoi", 256)
    worst_g = 0.0
    worst_fix = 0.0
    from test_local import _quadrature_pi_nabla_gram, fem_triangle_stiffness
    for k in (1, 2, 3):
        for ci in range(mesh.n_cells):
            E = mesh.cell_geom([ci])
            D, _, G, pi_star = (a[0] for a in build_pi_nabla(ElementContext(E, k)))
            G_ref = _quadrature_pi_nabla_gram(E, k)
            worst_g = max(worst_g,
                          np.abs(G - G_ref).max() / np.abs(G_ref).max())
            worst_fix = max(worst_fix,
                            np.abs(pi_star @ D - np.eye(dim_poly(k))).max())
    worst_tri = 0.0
    for _ in range(10):
        verts = rng.uniform(0.0, 1.0, (3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
        if abs(area) < 0.03:
            continue
        if area < 0:
            verts = verts[::-1]
        E = lone_cell(verts)
        (a_pi,) = local_stiffness(build_projection_pack(E, 1, Method.E2VEM),
                                  Method.E2VEM, K_PATCH)
        worst_tri = max(worst_tri,
                        np.abs(a_pi[0] - fem_triangle_stiffness(E, K_PATCH)).max())
    elapsed = time.time() - t0
    report("criterion 2 (projection oracles)",
           worst_g <= 1e-11 and worst_fix <= 1e-11 and worst_tri <= 1e-12
           and elapsed < 30.0,
           f"G vs quadrature {worst_g:.2e} (1e-11), projector fix {worst_fix:.2e} "
           f"(1e-11), triangle-FEM {worst_tri:.2e} (1e-12), {elapsed:.1f}s (< 30s)")


def test_criterion_3_tc1_cartesian_convergence(paper_run):
    """Final-pair rates at orders 1 and 3 and cross-method agreement."""
    out, _, elapsed = paper_run
    e_star = paper_e_stars(out, "tc1")
    details = []
    ok = elapsed < 600.0
    for k in (1, 3):
        for method in (Method.STANDARD, Method.E2VEM):
            e_prev = e_star[("cartesian", k, CARTESIAN_LADDER[-2], method)]
            e_last = e_star[("cartesian", k, CARTESIAN_LADDER[-1], method)]
            alpha = math.log(e_prev / e_last) / math.log(2.0)
            details.append(f"alpha(k={k},{method.value})={alpha:.3f}")
            ok = ok and alpha >= k - 0.15
        for n in CARTESIAN_LADDER:
            r = (e_star[("cartesian", k, n, Method.STANDARD)]
                 / e_star[("cartesian", k, n, Method.E2VEM)])
            ok = ok and (1.0 / 1.1 <= r <= 1.1)
    report("criterion 3 (tc1 cartesian convergence)", ok,
           ", ".join(details) + f" (>= k-0.15); methods within 10%; "
           f"{elapsed:.0f}s (< 600s)")


def test_criterion_4_tc1_method_ordering(paper_run):
    """Stabilization-free scheme at least matches the standard one at order 1
    on the voronoi ladder and wins on the finest level."""
    out, _, elapsed = paper_run
    e_star = paper_e_stars(out, "tc1")
    ratios = [e_star[("voronoi", 1, n, Method.STANDARD)] / e_star[("voronoi", 1, n, Method.E2VEM)]
              for n in VORONOI_LADDER]
    ok = all(r >= 0.95 for r in ratios) and ratios[-1] > 1.0 and elapsed < 600.0
    report("criterion 4 (tc1 voronoi ordering)", ok,
           "e_V/e_W per level " + str([round(r, 4) for r in ratios])
           + f" (>= 0.95, finest > 1.0), {elapsed:.0f}s (< 600s)")


TABLE_TARGETS = {
    # (case, order, family): printed value, tolerance
    ("tc1", 1, "cartesian"): (1.00, 0.10),
    ("tc1", 3, "cartesian"): (0.23, 0.10),
    ("tc2", 1, "cartesian"): (1.00, 0.10),
    ("tc2", 2, "cartesian"): (0.56, 0.10),
    ("tc1", 1, "voronoi"): (1.05, 0.25),
    ("tc1", 3, "voronoi"): (0.27, 0.25),
    ("tc2", 1, "voronoi"): (1.11, 0.25),
    ("tc2", 2, "voronoi"): (0.62, 0.25),
}

# The voronoi order-1 averages are dominated by mesh regularity: sweeping the
# Lloyd iteration count moves them from 0.84 (raw seeds) past 1.7 (converged
# centroidal meshes), while no norm/averaging variant (max entry, Frobenius,
# spectral, element-averaged) matches all other table entries.  The miss is a
# mesh-family difference, handled as the soft case the criterion defines.
SOFT_KEYS = {("tc1", 1, "voronoi"), ("tc2", 1, "voronoi")}


def test_criterion_5_ratio_tables(paper_run):
    """The ladder-averaged stabilization/consistency ratios of the paper
    run's ratio tables against the paper's printed values."""
    out, _, _ = paper_run
    with open(out / "ratio_tables.csv", newline="") as f:
        averages = {(case_id, int(order), family): float(avg)
                    for case_id, family, order, avg, *_ in list(csv.reader(f))[1:]}
    hard_ok = True
    lines = []
    for key, (target, tol) in TABLE_TARGETS.items():
        case_id, order, family = key
        avg = averages[key]
        hit = abs(avg - target) <= tol
        kind = "soft" if key in SOFT_KEYS else "hard"
        lines.append(f"{case_id}/{family}/k={order}: {avg:.3f} vs {target}"
                     f"+/-{tol} {'ok' if hit else 'MISS'} [{kind}]")
        if kind == "hard":
            hard_ok = hard_ok and hit
    print("[acceptance] ratio table details:")
    for ln in lines:
        print("   ", ln)
    report("criterion 5 (ratio tables, soft for voronoi order 1)", hard_ok,
           "; ".join(lines))


def test_criterion_6_tc2_energy_norm():
    t0 = time.time()
    den = exact_energy_norm(shared_mesh("cartesian", 128), get_case("tc2"))
    target = math.pi * math.sqrt(2.0)
    rel = abs(den - target) / target
    elapsed = time.time() - t0
    report("criterion 6 (tc2 energy norm)",
           rel <= 1e-3 and elapsed < 60.0,
           f"computed {den:.8f} vs pi*sqrt(2)={target:.8f}, rel err {rel:.2e} "
           f"(<= 1e-3), {elapsed:.1f}s (< 60s)")


def test_criterion_7_wellposedness_probe(vor1024_k3_rank_failure):
    """Order-1 stabilization-free systems pass the SPD check on every test
    mesh; higher-order rank failures raise the documented diagnostic."""
    case = get_case("tc1")
    spd_flags = [solve_case(shared_mesh(family, n), 1, Method.E2VEM, case).report.spd_ok
                 for family, ladder in FAMILIES.items() for n in ladder]
    all_spd = all(f is True for f in spd_flags)

    # the documented diagnostic on a realistic mesh: at order 3 the Lloyd
    # voronoi 1024 mesh has cells whose tiny edges keep a near-kernel mode
    diagnostic = str(vor1024_k3_rank_failure)
    diag_ok = "rank" in diagnostic and "order 1" in diagnostic
    report("criterion 7 (well-posedness probe)",
           all_spd and diag_ok,
           f"order-1 SPD on {len(spd_flags)} meshes: {all_spd}; "
           f"rank diagnostic fires and cites the order-1 guarantee: {diag_ok}")


def test_rank_failure_names_the_lowest_short_cell(vor1024_k3_rank_failure):
    """The criterion 7 diagnostic names cell 126, the lowest of the four
    Voronoi-1024 cells whose edges below 1e-3 h_E keep a near-kernel mode,
    though every vertex-count group is built as one stack."""
    assert re.match(r"^cell 126: gradient projection stays rank deficient",
                    str(vor1024_k3_rank_failure))


def test_rank_failure_reports_its_diagnosis(vor1024_k3_rank_failure):
    """The criterion 7 failure on cell 126 reports lambda_2/lambda_max below
    RANK_TOL, the cell's shortest edge over its diameter, and the last ell."""
    mesh = shared_mesh("voronoi", 1024)
    error = vor1024_k3_rank_failure
    found = re.search(r"ell=(\d+) \(lambda_2/lambda_max = (\S+) <= RANK_TOL = \S+, "
                      r"shortest edge / h_E = (\S+)\)", str(error))
    assert found, str(error)
    ell, ratio, eps = int(found[1]), float(found[2]), float(found[3])
    E = mesh.cell_geom(np.array([126]))
    edges = np.linalg.norm(np.roll(E.verts[0], -1, axis=0) - E.verts[0], axis=1)
    assert error.cell == 126
    assert ell == min_ell(3, E.n_vertices) + MAX_ELL_BUMPS
    assert ratio < RANK_TOL
    assert eps == pytest.approx(edges.min() / E.diameter[0], rel=1e-6)


DATA = Path(__file__).resolve().parent / "data"
_DIAGNOSIS = re.compile(r"lambda_2/lambda_max = (\S+) <= .*shortest edge / h_E = (\S+)\)")


def _e2vem_decisions(mesh, k):
    """The stabilization-free element pass of `assemble` at order k, stack
    by stack and ell by ell, carried past every failing cell: at the last
    ell each rank error's cell leaves its stack, which is built again.
    Returns the final ell of every cell and the error of every failing one."""
    ells, errors = np.empty(mesh.n_cells, dtype=int), {}
    n_verts = np.diff(mesh.flat_cells[1])
    for m in np.unique(n_verts):
        group = np.flatnonzero(n_verts == m)
        for stack in np.split(group, range(STACK_CELLS, group.size, STACK_CELLS)):
            E, at, ell = mesh.cell_geom(stack), np.arange(stack.size), min_ell(k, m)
            while at.size:
                try:
                    pack = build_projection_pack(E.take(at), k, Method.E2VEM, ell)
                except StabilizationFreeRankError as exc:
                    errors[exc.cell], ells[exc.cell] = exc, ell
                    at = at[stack[at] != exc.cell]
                    continue
                ells[stack[at]] = ell
                if pack.short is None:
                    break
                at, ell = at[pack.short], ell + 1
    return ells, errors


def _decision_record(mesh, k):
    """Per order k: the histogram of the final ell, each rank-failure cell
    with lambda_2/lambda_max and shortest edge / h_E to 3 digits, and the
    study note of the lowest failing cell, which `assemble` raises."""
    ells, errors = _e2vem_decisions(mesh, k)
    record = {"ell_histogram": {str(ell): int(count)
                                for ell, count in zip(*np.unique(ells, return_counts=True))},
              "rank_failures": []}
    for cell in sorted(errors):
        ratio, eps = _DIAGNOSIS.search(str(errors[cell])).groups()
        record["rank_failures"].append({"cell": cell,
                                        "lambda_2/lambda_max": f"{float(ratio):.2e}",
                                        "shortest edge / h_E": f"{float(eps):.2e}"})
    if errors:
        record["failure_note"] = f"solver failure: {errors[min(errors)]}"
    return record


def test_e2vem_decisions_on_the_paper_ladder():
    """Every decision of the stabilization-free scheme on Voronoi-1024 and
    -4096 at orders 1-3 matches `e2vem_decisions.json`: the ells, the cells
    that stay rank deficient with their numbers, and the failure notes of
    the paper reference's tc1 rows, byte for byte.  A change that moves a
    decision on purpose rewrites the file, as the paper reference is."""
    want = json.loads((DATA / "e2vem_decisions.json").read_text())
    got = {str(n): {str(k): _decision_record(shared_mesh("voronoi", n), k) for k in (1, 2, 3)}
           for n in (1024, 4096)}
    assert got == want, json.dumps(got, indent=1)
    with open(DATA / "paper" / "tc1" / "study_rows.csv", newline="") as f:
        notes = [row["note"] for row in csv.DictReader(f) if row["note"]]
    assert notes == [want[n]["3"]["failure_note"] for n in ("1024", "4096")]


def _relabelled(mesh, seed):
    """`mesh` under a fixed-seed random permutation of its vertices and of
    its cells, each cell started at a random vertex of its own.  Returns
    the mesh and `order`: its cell i is cell order[i] of `mesh`."""
    rng = np.random.default_rng(seed)
    new_id = rng.permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[new_id] = mesh.vertices
    order = rng.permutation(mesh.n_cells)
    cells = mesh.cells
    return PolyMesh(vertices, [np.roll(new_id[cells[c]], -rng.integers(len(cells[c])))
                               for c in order]), order


@pytest.mark.parametrize("family, n, seed, lloyd_iters, level", [
    ("voronoi", 256, 0, DEFAULT_LLOYD_ITERS, 2),
    ("cartesian", 16, 0, DEFAULT_LLOYD_ITERS, 2),
    ("voronoi", 40, 34, 0, None),
], ids=["voronoi 256", "cartesian 16", "census (40, 34, 0)"])
def test_relabelling_moves_no_result(request, family, n, seed, lloyd_iters, level):
    """Relabelling a mesh changes only the rounding: every e_star of tc1
    k = 1, 3 and tc2 k = 2 and every stabilization/consistency ratio agree
    to 1e-12 relative, and each cell keeps its E2VEM decisions under its new
    label.  The originals of the ladder meshes are the paper run's rows; the
    relabelled cartesian mesh is no longer `congruent_cells`, so its rows
    also check the congruent-cell reuse against the per-cell path."""
    mesh = shared_mesh(family, n, seed, lloyd_iters)
    relabelled, order = _relabelled(mesh, seed=20240817)
    assert not relabelled.congruent_cells
    if level is not None:
        out, _, _ = request.getfixturevalue("paper_run")
        paper = {case_id: parse_rows_csv(out / case_id / "study_rows.csv")
                 for case_id in ("tc1", "tc2")}
    for case_id, k in (("tc1", 1), ("tc1", 3), ("tc2", 2)):
        got = run_unit((case_id, family, k, level), relabelled)
        want = (run_unit((case_id, family, k, level), mesh) if level is None else
                [r for r in paper[case_id] if (r.family, r.order, r.level) == (family, k, level)])
        assert [(r.method, r.n_dofs, r.note) for r in got] == [
            (r.method, r.n_dofs, r.note) for r in want] == [("vem", got[0].n_dofs, ""),
                                                             ("e2vem", got[0].n_dofs, "")]
        for mine, theirs in zip(got, want):
            assert mine.e_star == pytest.approx(theirs.e_star, rel=1e-12, abs=0.0)
            assert mine.stab_ratio == (theirs.stab_ratio and pytest.approx(
                theirs.stab_ratio, rel=1e-12, abs=0.0))
    new_label = np.argsort(order)
    for k in (1, 2, 3):
        (ells, errors), (ells_r, errors_r) = (_e2vem_decisions(m, k) for m in (mesh, relabelled))
        assert ells_r.tolist() == ells[order].tolist()
        assert sorted(errors_r) == sorted(new_label[list(errors)].tolist())


def _reflected(mesh, axis):
    """`mesh` mirrored in the line x = 1/2 (axis 0) or y = 1/2 (axis 1), each
    cell reversed to stay CCW."""
    vertices = mesh.vertices.copy()
    vertices[:, axis] = 1.0 - vertices[:, axis]
    return PolyMesh(vertices, [cell[::-1] for cell in mesh.cells])


@pytest.mark.parametrize("family, n, rtol", [
    ("cartesian", 16, 1e-12),
    # a reversed fan triangle swaps the two non-apex corners of the collapsed
    # Gauss rule, which is not symmetric in them: the points move, and e_star
    # moved by up to 2.2e-10 (tc1 k = 1 under y -> 1 - y)
    ("voronoi", 256, 1e-9),
], ids=["cartesian 16", "voronoi 256"])
def test_reflections_move_no_result(paper_run, family, n, rtol):
    """tc2 is odd under x -> 1 - x and under y -> 1 - y, and tc1 is even under
    y -> 1 - y, so solving a case on its mirrored level-2 mesh gives the
    paper run's rows again: the same dofs and no note, every e_star to `rtol`
    relative and every stabilization/consistency ratio to 1e-12."""
    out, _, _ = paper_run
    mesh = shared_mesh(family, n)
    for case_id, orders, axes in (("tc2", (1, 2), (0, 1)), ("tc1", (1, 3), (1,))):
        paper = parse_rows_csv(out / case_id / "study_rows.csv")
        for k, axis in ((k, axis) for k in orders for axis in axes):
            got = run_unit((case_id, family, k, 2), _reflected(mesh, axis))
            want = [r for r in paper if (r.family, r.order, r.level) == (family, k, 2)]
            assert [(r.method, r.n_dofs, r.note) for r in got] == [
                (r.method, r.n_dofs, r.note) for r in want] == [("vem", got[0].n_dofs, ""),
                                                                ("e2vem", got[0].n_dofs, "")]
            for mine, theirs in zip(got, want):
                assert mine.e_star == pytest.approx(theirs.e_star, rel=rtol, abs=0.0)
                assert mine.stab_ratio == (theirs.stab_ratio and pytest.approx(
                    theirs.stab_ratio, rel=1e-12, abs=0.0))


def test_criterion_8_study_determinism(tmp_path):
    from polyvem.cli import main
    args = ["study", "--case", "tc1", "--orders", "1", "--family", "both",
            "--levels", "2", "--seed", "0", "--lloyd-iters", "30"]
    assert main(args + ["-o", str(tmp_path / "run1")]) == 0
    assert main(args + ["-o", str(tmp_path / "run2")]) == 0
    names = ["study_rows.csv", "fig_tc1_cartesian_order1.csv",
             "fig_tc1_voronoi_order1.csv", "rates_summary.csv", "summary.json"]
    same = {name: (tmp_path / "run1" / name).read_bytes()
            == (tmp_path / "run2" / name).read_bytes() for name in names}
    report("criterion 8 (study determinism)", all(same.values()),
           f"byte-identical artifacts: {sorted(same)}")
