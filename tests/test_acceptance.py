"""Acceptance suite: every criterion at its stated tolerance.

Each criterion is one test; `pytest -v` yields the pass/fail line per
criterion and the prints carry the measured numbers.  Expensive meshes and
ladder sweeps are shared through module-scoped fixtures.
"""

import math
import re
import time

import numpy as np
import pytest

from conftest import exact_energy_norm, lone_cell
from polyvem.assembly import assemble, stab_consistency_ratio
from polyvem.basis import dim_poly
from polyvem.cases import testcase as get_case
from polyvem.local import (MAX_ELL_BUMPS, RANK_TOL, DiffusionTensor, ElementContext,
                           Method, StabilizationFreeRankError, build_pi_nabla,
                           build_projection_pack, local_stiffness, min_ell)
from polyvem.mesh import CARTESIAN_LADDER, VORONOI_LADDER, generate_cartesian, generate_voronoi
from polyvem.study import METHODS, solve_case, solve_cases

K_PATCH = DiffusionTensor.diagonal(8.0e-3, 1.0)


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared meshes and sweeps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cart_meshes():
    return {n: generate_cartesian(n) for n in CARTESIAN_LADDER}


@pytest.fixture(scope="module")
def vor_meshes():
    return {n: generate_voronoi(n, rng_seed=0, lloyd_iters=100)
            for n in VORONOI_LADDER}


@pytest.fixture(scope="module")
def tc1_cart_sweep(cart_meshes):
    """tc1 on the full cartesian ladder, orders 1 and 3, both methods."""
    case = get_case("tc1")
    t0 = time.time()
    out = {}
    for k in (1, 3):
        for n in CARTESIAN_LADDER:
            for method, sol in solve_cases(cart_meshes[n], k, METHODS, case).items():
                out[(k, n, method)] = sol
    return out, time.time() - t0


@pytest.fixture(scope="module")
def tc1_vor_order1(vor_meshes):
    case = get_case("tc1")
    t0 = time.time()
    out = {}
    for n in VORONOI_LADDER:
        for method, sol in solve_cases(vor_meshes[n], 1, METHODS, case).items():
            out[(n, method)] = sol
    return out, time.time() - t0


@pytest.fixture(scope="module")
def vor1024_k3_rank_failure(vor_meshes):
    """The error raised by the order-3 E2VEM assembly on Voronoi-1024, shared
    by criterion 7 and the two rank-failure tests; fails them if none is."""
    with pytest.raises(StabilizationFreeRankError) as info:
        assemble(vor_meshes[1024], 3, Method.E2VEM, K_PATCH)
    # without its traceback, whose frames would keep the failed assembly alive
    return info.value.with_traceback(None)


def _ratio_ladder(meshes, ladder, k, K):
    ratios = []
    for n in ladder:
        sys_ = assemble(meshes[n], k, Method.STANDARD, K)
        ratios.append(stab_consistency_ratio(sys_.a_s, sys_.a_pi))
    return float(np.mean(ratios)), ratios


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_patch_exactness(cart_meshes, vor_meshes):
    """Patch test: k in {1,2,3}, both methods, cartesian n=8 and voronoi 64."""
    t0 = time.time()
    worst = 0.0
    for k in (1, 2, 3):
        case = get_case(f"patch:{k}")
        assert np.allclose(case.K.matrix, K_PATCH.matrix)
        for mesh in (cart_meshes[8], vor_meshes[64]):
            for method in (Method.STANDARD, Method.E2VEM):
                sol = solve_case(mesh, k, method, case)
                worst = max(worst, sol.e_star)
    elapsed = time.time() - t0
    report("criterion 1 (patch test)",
           worst <= 1e-9 and elapsed < 30.0,
           f"max e_star={worst:.3e} (tol 1e-9), {elapsed:.1f}s (< 30s)")


def test_criterion_2_projection_oracles(vor_meshes, rng):
    """Projector identities on every cell of the 256-cell voronoi mesh plus
    the triangle equivalence with anisotropic linear finite elements."""
    t0 = time.time()
    mesh = vor_meshes[256]
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
        a_pi, a_s = local_stiffness(build_projection_pack(E, 1, Method.E2VEM),
                                    Method.E2VEM, K_PATCH)
        worst_tri = max(worst_tri,
                        np.abs((a_pi + a_s)[0] - fem_triangle_stiffness(E, K_PATCH)).max())
    elapsed = time.time() - t0
    report("criterion 2 (projection oracles)",
           worst_g <= 1e-11 and worst_fix <= 1e-11 and worst_tri <= 1e-12
           and elapsed < 30.0,
           f"G vs quadrature {worst_g:.2e} (1e-11), projector fix {worst_fix:.2e} "
           f"(1e-11), triangle-FEM {worst_tri:.2e} (1e-12), {elapsed:.1f}s (< 30s)")


def test_criterion_3_tc1_cartesian_convergence(tc1_cart_sweep):
    """Final-pair rates at orders 1 and 3 and cross-method agreement."""
    sweep, elapsed = tc1_cart_sweep
    details = []
    ok = elapsed < 600.0
    for k in (1, 3):
        for method in (Method.STANDARD, Method.E2VEM):
            e_prev = sweep[(k, CARTESIAN_LADDER[-2], method)].e_star
            e_last = sweep[(k, CARTESIAN_LADDER[-1], method)].e_star
            alpha = math.log(e_prev / e_last) / math.log(2.0)
            details.append(f"alpha(k={k},{method.value})={alpha:.3f}")
            ok = ok and alpha >= k - 0.15
        for n in CARTESIAN_LADDER:
            r = sweep[(k, n, Method.STANDARD)].e_star / sweep[(k, n, Method.E2VEM)].e_star
            ok = ok and (1.0 / 1.1 <= r <= 1.1)
    report("criterion 3 (tc1 cartesian convergence)", ok,
           ", ".join(details) + f" (>= k-0.15); methods within 10%; "
           f"{elapsed:.0f}s (< 600s)")


def test_criterion_4_tc1_method_ordering(tc1_vor_order1):
    """Stabilization-free scheme at least matches the standard one at order 1
    on the voronoi ladder and wins on the finest level."""
    sweep, elapsed = tc1_vor_order1
    ratios = [sweep[(n, Method.STANDARD)].e_star / sweep[(n, Method.E2VEM)].e_star
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


def test_criterion_5_ratio_tables(cart_meshes, vor_meshes):
    t0 = time.time()
    hard_ok = True
    lines = []
    for (case_id, order, family), (target, tol) in TABLE_TARGETS.items():
        K = get_case(case_id).K
        meshes, ladder = ((cart_meshes, CARTESIAN_LADDER) if family == "cartesian"
                          else (vor_meshes, VORONOI_LADDER))
        avg, _ = _ratio_ladder(meshes, ladder, order, K)
        hit = abs(avg - target) <= tol
        kind = "soft" if (case_id, order, family) in SOFT_KEYS else "hard"
        lines.append(f"{case_id}/{family}/k={order}: {avg:.3f} vs {target}"
                     f"+/-{tol} {'ok' if hit else 'MISS'} [{kind}]")
        if kind == "hard":
            hard_ok = hard_ok and hit
    print(f"[acceptance] ratio table details ({time.time()-t0:.0f}s):")
    for ln in lines:
        print("   ", ln)
    report("criterion 5 (ratio tables, soft for voronoi order 1)", hard_ok,
           "; ".join(lines))


def test_criterion_6_tc2_energy_norm(cart_meshes):
    t0 = time.time()
    den = exact_energy_norm(cart_meshes[128], get_case("tc2"))
    target = math.pi * math.sqrt(2.0)
    rel = abs(den - target) / target
    elapsed = time.time() - t0
    report("criterion 6 (tc2 energy norm)",
           rel <= 1e-3 and elapsed < 60.0,
           f"computed {den:.8f} vs pi*sqrt(2)={target:.8f}, rel err {rel:.2e} "
           f"(<= 1e-3), {elapsed:.1f}s (< 60s)")


def test_criterion_7_wellposedness_probe(tc1_cart_sweep, tc1_vor_order1,
                                         cart_meshes, vor1024_k3_rank_failure):
    """Order-1 stabilization-free systems pass the SPD check on every test
    mesh; higher-order rank failures raise the documented diagnostic."""
    sweep_c, _ = tc1_cart_sweep
    sweep_v, _ = tc1_vor_order1
    spd_flags = []
    for n in CARTESIAN_LADDER:
        spd_flags.append(sweep_c[(1, n, Method.E2VEM)].report.spd_ok)
    for n in VORONOI_LADDER:
        spd_flags.append(sweep_v[(n, Method.E2VEM)].report.spd_ok)
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


def test_rank_failure_reports_its_diagnosis(vor_meshes, vor1024_k3_rank_failure):
    """The criterion 7 failure on cell 126 reports lambda_2/lambda_max below
    RANK_TOL, the cell's shortest edge over its diameter, and the last ell."""
    mesh = vor_meshes[1024]
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
