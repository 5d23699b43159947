"""Run one-line mutants of polyvem against the tier-1 suite.

    python3 tools/mutants.py

Each mutant replaces a text that occurs exactly once in its file, within one
line, and names the test that killed it last.  First, all named killers run
together on an unmutated copy of the checkout (without .git and caches); the
sweep stops if one of them fails there, as it would then give false kills.
Then, for each mutant of MUTANTS, the checkout is copied to a temporary
directory, the replacement is made there, and its killer runs alone on the
copy.  If the killer does not kill it, tier-1 runs on the copy, stopped at
the first failure, and the report names the new killer, to be written into
the list.  A mutant is killed when pytest reports a failed test (exit code 1
and a FAILED or ERROR line; the report names that test) and survives when
the whole suite passes.  Any other outcome (pytest interrupted, an internal
or usage error, no test collected, a copy that does not import its own
polyvem) is reported as an error, not as a kill.  A surviving mutant is a
missing test or code that nothing needs: add the test or remove the code,
and never drop the mutant from the list to hide it.  `tests/test_mutants.py`
checks in tier-1 that every mutant applies and that every named killer is a
test id, without running any.  The exit code is 1 unless every mutant is
killed.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# tier-1 as ROADMAP.md states it, stopped at the first failure, without the
# check that every mutant applies, which any applied mutant fails
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider"]
TIER1 = [*PYTEST, "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".perfbench_out", "out_paper", "*.egg-info")
TIMEOUT_S = 1800


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the root of the checkout
    old: str
    new: str
    killer: str     # the test id that killed it last, run first


MUTANTS = [
    Mutant("gradient energy unsymmetrized", "src/polyvem/local.py",
           "return 0.5 * (A + _t(A))", "return A",
           "tests/test_assembly.py::test_reduced_matrix_is_its_own_csc[voronoi 256-Method.STANDARD-1]"),
    Mutant("SPD check always passes", "src/polyvem/assembly.py",
           "spd_ok=bool(np.all(lu.U.diagonal() > 0.0)),", "spd_ok=True,",
           "tests/test_assembly.py::test_solve_flags_indefinite_matrix"),
    Mutant("RANK_TOL 1e-9 -> 2e-9", "src/polyvem/local.py",
           "RANK_TOL = 1e-9", "RANK_TOL = 2e-9",
           "tests/test_acceptance.py::test_e2vem_decisions_on_the_paper_ladder"),
    Mutant("Gauss-Jacobi without its Newton step", "src/polyvem/basis.py",
           "x = x - p / d", "x = x",
           "tests/test_basis.py::test_gauss_jacobi_matches_a_40_digit_reference[1-0]"),
    Mutant("RESIDUAL_RTOL 1e-10 -> 1e-4", "src/polyvem/assembly.py",
           "RESIDUAL_RTOL = 1e-10", "RESIDUAL_RTOL = 1e-4",
           "tests/test_assembly.py::test_solve_rejects_unverified_solution[matrix3]"),
    Mutant("MAX_ELL_BUMPS 4 -> 5", "src/polyvem/local.py",
           "MAX_ELL_BUMPS = 4", "MAX_ELL_BUMPS = 5",
           "tests/test_acceptance.py::test_e2vem_decisions_on_the_paper_ladder"),
    Mutant("CONGRUENCE_TOL 1e-9 -> 1e-6", "src/polyvem/mesh.py",
           "CONGRUENCE_TOL = 1e-9 ", "CONGRUENCE_TOL = 1e-6 ",
           "tests/test_assembly.py::test_congruence_tolerance_decides_the_element_branch[1e-07-False]"),
    Mutant("moments recovered up to degree k+ell", "src/polyvem/local.py",
           "n_top = dim_poly(max(ctx.k - 1, ctx.grad_degree - 1))",
           "n_top = dim_poly(ctx.k + ctx.ell)",
           "tests/test_local.py::test_recovered_moments_exact_on_polynomials[1-0]"),
    Mutant("stabilization without sup|K|", "src/polyvem/local.py",
           "return a_pi, K.sup_norm() * (_t(Mc) @ Mc)",
           "return a_pi, K.sup_norm() ** 0 * (_t(Mc) @ Mc)",
           "tests/test_local.py::test_stabilization_scaling_equivariance"),
    Mutant("boundary values added to the load", "src/polyvem/assembly.py",
           "b_f -= np.bincount(", "b_f += np.bincount(",
           "tests/test_acceptance.py::test_criterion_1_patch_exactness"),
    Mutant("a_ff kept alive through the SPD check", "src/polyvem/assembly.py",
           "del reduced, A", "del reduced",
           "tests/test_assembly.py::test_solve_frees_the_reduced_matrix_before_the_spd_check"),
    Mutant("MemoryError of the solve not mapped", "src/polyvem/assembly.py",
           "except MemoryError:", "except ():",
           "tests/test_assembly.py::test_solve_maps_a_memory_error_to_a_solver_error[splu]"),
    Mutant("LinAlgError of the element kernels not mapped", "src/polyvem/local.py",
           "except (PolyvemError, np.linalg.LinAlgError) as exc:",
           "except PolyvemError as exc:",
           "tests/test_assembly.py::test_a_linalg_error_in_an_element_kernel_names_its_cell[build_pi0_grad]"),
    Mutant("a kept error holds the error it replaced", "src/polyvem/study.py",
           "exc.__context__ = None", "pass",
           "tests/test_assembly.py::test_solve_maps_a_memory_error_to_a_solver_error[splu]"),
    Mutant("rectangle rule with k+4 points per direction", "src/polyvem/local.py",
           '("square", k + 5)', '("square", k + 4)',
           "tests/test_cli.py::test_paper_rows_match_the_reference[tc1]"),
    Mutant("rectangle strip count rounded down", "src/polyvem/local.py",
           "np.ceil(sides[:, 1] / max_y_extent)", "np.floor(sides[:, 1] / max_y_extent)",
           "tests/test_acceptance.py::test_criterion_6_tc2_energy_norm"),
    Mutant("rectangles of one side parity only", "src/polyvem/mesh.py",
           "(even & odd[:, ::-1]).any(axis=1).all()", "(even & odd[:, ::-1])[:, 1].all()",
           "tests/test_data_passes.py::test_data_rules_take_the_tensor_rule_only_on_axis_aligned_rectangles[1]"),
    Mutant("rectangle sides compared with a tolerance", "src/polyvem/mesh.py",
           "same = verts == np.roll(verts, -1, axis=1)",
           "same = np.isclose(verts, np.roll(verts, -1, axis=1))",
           "tests/test_data_passes.py::test_data_rules_take_the_tensor_rule_only_on_axis_aligned_rectangles[1]"),
    Mutant("rectangle boxes left writable", "src/polyvem/mesh.py",
           "flags, *(self.rectangles or ())):", "flags):",
           "tests/test_mesh.py::test_every_mesh_array_is_read_only[cartesian]"),
    Mutant("shared-pass failure recorded on the standard row only", "src/polyvem/study.py",
           "results = dict.fromkeys(METHODS, _failure(exc))",
           "results = dict.fromkeys(METHODS[:1], _failure(exc))",
           "tests/test_cli.py::test_study_records_source_pass_failure_on_both_rows"),
    Mutant("ratio average over every level, failed levels as zero", "src/polyvem/study.py",
           "sum(ratios) / len(ratios)",
           "sum(ratios) / len(result.series(family, order, Method.STANDARD))",
           "tests/test_cli.py::test_study_records_a_memory_error_and_continues"),
    Mutant("every unit solved on its ladder's finest mesh", "src/polyvem/study.py",
           "ladders[family][level - 1]", "ladders[family][-1]",
           "tests/test_cli.py::test_paper_rows_match_the_reference[tc1]"),
    Mutant("band cut refuses a cell with a straight corner", "src/polyvem/basis.py",
           "e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] >= 0.0",
           "e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0.0",
           "tests/test_basis.py::test_a_cell_with_a_straight_corner_is_cut_whole"),
    # it moves only tc2's Voronoi-4096 rows of the paper run, e_star by up to
    # 7.4e-12 relative: the first three levels have no cell it recuts
    Mutant("band cut whole only above twice the band height", "src/polyvem/basis.py",
           "np.minimum.reduceat(y, starts[:-1]) > max_y_extent",
           "np.minimum.reduceat(y, starts[:-1]) > 2.0 * max_y_extent",
           "tests/test_cli.py::test_paper_rows_match_the_reference[tc2]"),
    Mutant("band count rounded down", "src/polyvem/basis.py",
           "n = np.ceil((hi - lo) / max_y_extent)", "n = np.floor((hi - lo) / max_y_extent)",
           "tests/test_basis.py::test_subdivided_quadrature_is_concatenation_of_triangle_rules[0.3]"),
    Mutant("non-adjacent sides that only touch pass", "src/polyvem/mesh.py",
           "turn(ax, ay, bx, by, cx, cy) * turn(ax, ay, bx, by, dx, dy) <= 0",
           "turn(ax, ay, bx, by, cx, cy) * turn(ax, ay, bx, by, dx, dy) < 0",
           "tests/test_mesh.py::test_a_cell_whose_sides_meet_is_rejected_naming_it[vertex-on-a-side]"),
    Mutant("seed draw's counter starting at 0", "src/polyvem/mesh.py",
           "np.arange(drawn + 1, drawn + 1 + 2 * n - coords.size,",
           "np.arange(drawn, drawn + 2 * n - coords.size,",
           "tests/test_mesh.py::test_draw_seeds_matches_the_sequential_generator[1-1]"),
    Mutant("seed draw not extended after rejections", "src/polyvem/mesh.py",
           "while coords.size < 2 * n:", "if coords.size < 2 * n:",
           "tests/test_mesh.py::test_draw_seeds_redraws_coordinates_within_the_side_gap"),
    Mutant("seed draw at exactly the side gap dropped", "src/polyvem/mesh.py",
           "(c >= SEED_SIDE_GAP)", "(c > SEED_SIDE_GAP)",
           "tests/test_mesh.py::test_draw_seeds_keeps_a_draw_exactly_at_the_side_gap[at-gap]"),
    Mutant("seed draw at exactly one minus the side gap dropped", "src/polyvem/mesh.py",
           "(c <= 1.0 - SEED_SIDE_GAP)", "(c < 1.0 - SEED_SIDE_GAP)",
           "tests/test_mesh.py::test_draw_seeds_keeps_a_draw_exactly_at_the_side_gap[at-one-minus-gap]"),
    Mutant("Voronoi cells not started at their lowest (y, x) vertex", "src/polyvem/mesh.py",
           "+ low[owner]) % lens[owner]", ") % lens[owner]",
           "tests/test_mesh.py::test_stitch_regions_numbering_ignores_qhull_vertex_order"),
    Mutant("vertex column without its previous edge's end", "src/polyvem/local.py",
           "_t(values[..., -1, :] + values[..., nxt, 0, :])", "_t(values[..., nxt, 0, :])",
           "tests/test_local.py::test_edge_columns_equal_np_add_at[3-1]"),
    Mutant("dof map's moment block shifted by one", "src/polyvem/assembly.py",
           "table[:, lay.first_moment:] = moment_dofs[cells]",
           "table[:, lay.first_moment:] = moment_dofs[cells] - 1",
           "tests/test_assembly.py::test_dof_map_groups_equal_the_blocks_side_by_side[cartesian3-2]"),
    # the dof map's one call of the check; its killer's mesh conforms edge by
    # edge, so only the area check refuses it
    Mutant("area check dropped from the dof map", "src/polyvem/assembly.py",
           "check_cross_cell(mesh)", "None",
           "tests/test_assembly.py::test_dof_map_rejects_a_double_cover"),
    Mutant("area sum not checked across cells", "src/polyvem/mesh.py",
           "if abs(area_sum - 1.0) > AREA_SUM_TOL:", "if False:",
           "tests/test_assembly.py::test_dof_map_rejects_a_double_cover"),
    Mutant("MemoryError outside the solve not mapped", "src/polyvem/cli.py",
           "except MemoryError as exc:", "except () as exc:",
           "tests/test_cli.py::test_a_refused_allocation_exits_2[mesh]"),
    Mutant("cross-cell check dropped from polyvem mesh", "src/polyvem/cli.py",
           "check_cross_cell(mesh)", "None",
           "tests/test_cli.py::test_mesh_command_refuses_a_generated_mesh_that_breaks_the_contract"),
    Mutant("unused-vertex check dropped", "src/polyvem/mesh.py",
           "np.flatnonzero(used == 0)", "np.flatnonzero(used < 0)",
           "tests/test_mesh.py::test_validate_flags_an_unused_vertex"),
    Mutant("ratio of plain row sums", "src/polyvem/assembly.py",
           "np.abs(sp.coo_matrix(", "(sp.coo_matrix(",
           "tests/test_assembly.py::test_infinity_norm_is_max_row_sum"),
    Mutant("ratio of the least row sums", "src/polyvem/assembly.py",
           ".sum(axis=1).max())", ".sum(axis=1).min())",
           "tests/test_assembly.py::test_ratio_is_bitwise_the_norms_of_the_joined_index_lists[mixed-1]"),
    Mutant("ratio's norms swapped", "src/polyvem/assembly.py",
           "for part in (vals[1], vals[0])", "for part in (vals[0], vals[1])",
           "tests/test_assembly.py::test_ratio_is_bitwise_the_norms_of_the_joined_index_lists[voronoi 256-2]"),
    Mutant("CellDegeneracyError exits 2", "src/polyvem/errors.py",
           "exit_code = 3   # a cell's failure", "exit_code = 2   # a cell's failure",
           "tests/test_cli.py::test_gram_not_positive_definite_exit_3_names_cell"),
    Mutant("mesh file's counts not checked against its lines", "src/polyvem/mesh.py",
           "if nv + nc > len(body):", "if False:",
           "tests/test_mesh.py::test_read_checks_the_counts_before_allocating[1000000-1]"),
    Mutant("mesh file's errors without their line", "src/polyvem/mesh.py",
           'return MeshError(f"line {lineno}: {message}")', "return MeshError(message)",
           "tests/test_mesh.py::test_read_rejects_malformed_text[non-integer-counts]"),
    Mutant("read_mesh's id range check dropped", "src/polyvem/mesh.py",
           "[i if 0 <= i < nv else -1 for i in ids[1:]]", "ids[1:]",
           "tests/test_cli.py::test_bad_mesh_file_exit_2_names_its_line[id-beyond-int64]"),
    Mutant("side test at BOUNDARY_SNAP_TOL", "src/polyvem/mesh.py",
           "<= AREA_SUM_TOL).any(axis=1)", "<= BOUNDARY_SNAP_TOL).any(axis=1)",
           "tests/test_cli.py::test_a_boundary_vertex_just_off_its_side_exit_2_names_its_edge"),
    Mutant("study orders range check dropped", "src/polyvem/study.py",
           '("orders", orders, (1, 2, 3))', '("orders", orders, orders)',
           "tests/test_cli.py::test_order_above_three_exit_2"),
    Mutant("boundary dofs placed from 0 in the scatter", "src/polyvem/assembly.py",
           "position[fixed] = -1 - np.arange(fixed.size)",
           "position[fixed] = -np.arange(fixed.size)",
           "tests/test_acceptance.py::test_criterion_1_patch_exactness"),
    Mutant("free-free mask without column 0", "src/polyvem/assembly.py",
           "kept = (rows >= 0) & (cols >= 0)", "kept = (rows >= 0) & (cols > 0)",
           "tests/test_assembly.py::test_homogeneous_elimination_counts"),
    Mutant("boundary values read in reverse", "src/polyvem/assembly.py",
           "vals[-1 - cols[moved]]", "vals[cols[moved]]",
           "tests/test_acceptance.py::test_criterion_1_patch_exactness"),
    Mutant("stabilization-free rank target N-2", "src/polyvem/local.py",
           "short = rank < ctx.layout.total - 1", "short = rank < ctx.layout.total - 2",
           "tests/test_local.py::test_e2vem_enlargement_bumps_on_symmetric_cells"),
    Mutant("rank threshold absolute", "src/polyvem/local.py",
           "RANK_TOL * np.abs(evals).max(axis=-1, keepdims=True)", "RANK_TOL",
           "tests/test_acceptance.py::test_criterion_3_tc1_cartesian_convergence"),
    Mutant("MemoryError outside the solve not recorded in the study", "src/polyvem/study.py",
           "results = dict.fromkeys(METHODS, _failure(exc))", "raise",
           "tests/test_cli.py::test_study_records_a_memory_error_outside_the_solve[dof map]"),
    Mutant("a unit's MemoryError kept as it is", "src/polyvem/study.py",
           "if isinstance(exc, MemoryError):", "if False:",
           "tests/test_cli.py::test_study_records_a_memory_error_outside_the_solve[dof map]"),
    Mutant("stabilization ratio's failure not recorded in the study", "src/polyvem/study.py",
           "sol = _failure(exc)", "raise",
           "tests/test_cli.py::test_study_records_a_memory_error_outside_the_solve[ratio]"),
    Mutant("Voronoi region sort keys swapped", "src/polyvem/mesh.py",
           "np.lexsort((np.arctan2(rel[:, 1], rel[:, 0]), seed))",
           "np.lexsort((seed, np.arctan2(rel[:, 1], rel[:, 0])))",
           "tests/test_mesh.py::test_voronoi_16_partition"),
    Mutant("qhull failure not mapped to MeshError", "src/polyvem/mesh.py",
           "except QhullError as exc:", "except () as exc:",
           "tests/test_cli.py::test_a_qhull_failure_exits_2[mesh]"),
    # no generated mesh sees it: their cells start at the lowest (y, x) vertex
    Mutant("band pieces walked from the cell's start vertex", "src/polyvem/basis.py",
           "a[_lowest_first(a, starts)], a)", "a, a)",
           "tests/test_acceptance.py::test_relabelling_moves_no_result[census (40, 34, 0)]"),
]


def mutated_text(root: Path, mutant: Mutant) -> str:
    """The mutant's file under `root` with its replacement made; raises
    ValueError unless the text occurs exactly once, within one line."""
    if "\n" in mutant.old + mutant.new or mutant.old == mutant.new:
        raise ValueError(f"{mutant.name}: not a one-line change")
    text = (root / mutant.path).read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.path}")
    return text.replace(mutant.old, mutant.new)


def verdict(returncode: int, stdout: str) -> tuple[str, str]:
    """(verdict, detail) of one tier-1 run from pytest's exit code and output:
    killed only on exit code 1 with a FAILED or ERROR line, whose test is the
    detail; survived on 0; an error on anything else."""
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if returncode == 0:
        return "survived", summary
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", stdout, re.MULTILINE)
    if returncode == 1 and failed:
        return "killed", failed[1]
    return "error", f"pytest exit code {returncode}: {summary}"


def run(mutant: Mutant | None, tests: list) -> tuple[str, str, float]:
    """(verdict, detail, seconds) of pytest on a copy of the checkout, with
    the mutant's replacement made unless it is None: the `tests` alone, and
    then, for a mutant they do not kill, tier-1, whose detail names the new
    killer."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="polyvem-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        if mutant is not None:
            (copy / mutant.path).write_text(mutated_text(ROOT, mutant), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import polyvem; print(polyvem.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True)
        if where.returncode != 0 or not Path(where.stdout.strip()).is_relative_to(copy):
            found = where.stdout.strip() or where.stderr.strip()[-200:]
            seconds = time.perf_counter() - start
            return "error", f"the copy does not import its own polyvem: {found}", seconds
        done = subprocess.run([*PYTEST, *tests], cwd=copy, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
        outcome = verdict(done.returncode, done.stdout)
        if mutant is not None and outcome[0] != "killed":
            done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S)
            outcome = verdict(done.returncode, done.stdout)
            if outcome[0] == "killed":
                outcome = ("killed", f"{outcome[1]} (new killer; was {mutant.killer})")
    return *outcome, time.perf_counter() - start


def main() -> int:
    killers = sorted({mutant.killer for mutant in MUTANTS})
    outcome, detail, seconds = run(None, killers)
    print(f"{len(killers)} named killers on the unmutated copy, {seconds:.1f} s: {detail}",
          flush=True)
    if outcome != "survived":
        print("a killer fails on the unmutated copy; no mutant was run")
        return 1
    outcomes = []
    for mutant in MUTANTS:
        try:
            outcome, detail, seconds = run(mutant, [mutant.killer])
        except ValueError as exc:
            outcome, detail, seconds = "not applied", str(exc), 0.0
        except subprocess.TimeoutExpired:
            outcome, detail, seconds = "timed out", f"pytest ran past {TIMEOUT_S} s", TIMEOUT_S
        outcomes.append(outcome)
        print(f"{outcome:<11} {seconds:6.1f} s  {mutant.name}: {detail}", flush=True)
    killed = outcomes.count("killed")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
