import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyvem
from polyvem import assembly, local, study
from polyvem.cli import main
from polyvem.errors import CellDegeneracyError, MeshError
from polyvem.local import Method
from polyvem.mesh import PolyMesh, generate_mesh, load_mesh, save_mesh
from conftest import SQUARE_VERTICES, doubled_cartesian2, parse_rows_csv

# a U-shaped cell whose centroid lies in the slot filled by the second cell
U_SHAPED_MESH = """polymesh 1
8 2
0 0
1 0
1 1
0.7 1
0.7 0.3
0.3 0.3
0.3 1
0 1
8 0 1 2 3 4 5 6 7
4 5 4 3 6
"""


def test_mesh_command_writes_valid_file(tmp_path):
    out = tmp_path / "mesh.txt"
    rc = main(["mesh", "--family", "voronoi", "--n", "9", "--seed", "42",
               "--lloyd-iters", "10", "-o", str(out)])
    assert rc == 0
    mesh = load_mesh(out)
    assert mesh.n_cells == 9
    assert abs(mesh.cell_areas.sum() - 1.0) <= 1e-10


def test_mesh_command_cartesian(tmp_path):
    out = tmp_path / "cart.txt"
    assert main(["mesh", "--family", "cartesian", "--n", "3", "-o", str(out)]) == 0
    assert load_mesh(out).n_cells == 9


def test_solve_command_json_payload(tmp_path):
    mesh_path = tmp_path / "m.txt"
    main(["mesh", "--family", "cartesian", "--n", "4", "-o", str(mesh_path)])
    out = tmp_path / "sol.json"
    rc = main(["solve", "--mesh", str(mesh_path), "--method", "e2vem",
               "--order", "1", "--case", "patch:1", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "e2vem"
    assert payload["e_star"] <= 1e-9
    assert payload["spd_ok"] is True
    assert payload["solver"] == "splu"
    assert payload["ordering"] == "NATURAL"
    assert payload["fill_nnz"] > 0
    assert len(payload["solution"]) == payload["n_dofs"]


def test_study_command(tmp_path):
    out = tmp_path / "study"
    rc = main(["study", "--case", "patch:2", "--orders", "1,2", "--family",
               "cartesian", "--levels", "1", "-o", str(out)])
    assert rc == 0
    assert (out / "study_rows.csv").exists()
    assert (out / "fig_patch2_cartesian_order2.csv").exists()


def test_study_determinism_bytes(tmp_path):
    args = ["study", "--case", "tc1", "--orders", "1", "--family", "voronoi",
            "--levels", "1", "--seed", "5", "--lloyd-iters", "10"]
    assert main(args + ["-o", str(tmp_path / "r1")]) == 0
    assert main(args + ["-o", str(tmp_path / "r2")]) == 0
    for name in ("study_rows.csv", "summary.json"):
        assert (tmp_path / "r1" / name).read_bytes() == \
            (tmp_path / "r2" / name).read_bytes()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def paper_first_level(tmp_path_factory):
    out = tmp_path_factory.mktemp("paper")
    return main(["paper", "--levels", "1", "-o", str(out)]), out


def test_paper_writes_each_case_study(paper_first_level):
    rc, out = paper_first_level
    assert rc == 0
    for case_id in ("tc1", "tc2"):
        # 2 families x 2 orders x 2 methods, one level each
        assert len(parse_rows_csv(out / case_id / "study_rows.csv")) == 8
        assert (out / case_id / "summary.json").exists()


def test_paper_writes_ratio_tables(paper_first_level):
    rc, out = paper_first_level
    assert rc == 0
    rows = _read_csv(out / "ratio_tables.csv")
    assert len(rows) == 1 + 8
    assert all(float(r[3]) > 0.0 for r in rows[1:])


def test_paper_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """`polyvem paper --levels 1` in two processes, with one and with two
    OpenBLAS threads, writes the same files byte for byte."""
    env = dict(os.environ, PYTHONPATH=str(Path(polyvem.__file__).resolve().parent.parent))
    outs = [tmp_path / "threads1", tmp_path / "threads2"]
    for threads, out in zip(("1", "2"), outs):
        subprocess.run([sys.executable, "-m", "polyvem.cli", "paper", "--levels", "1",
                        "-o", str(out)], env=dict(env, OPENBLAS_NUM_THREADS=threads),
                       check=True, capture_output=True)
    names = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) for out in outs]
    assert names[0] == names[1] and len(names[0]) > 2
    for name in names[0]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.fixture(scope="module")
def paper_two_levels(tmp_path_factory):
    """`polyvem paper --levels 2`, with the (family, n) of each generated mesh."""
    out = tmp_path_factory.mktemp("paper2")
    real, built = study.generate_mesh, []

    def counted(family, n, *args):
        built.append((family, n))
        return real(family, n, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(study, "generate_mesh", counted)
        rc = main(["paper", "--levels", "2", "-o", str(out)])
    return rc, out, built


def test_paper_builds_each_ladder_mesh_once(paper_two_levels):
    rc, _, built = paper_two_levels
    assert rc == 0
    # one mesh per (family, level), shared by both cases and all their orders
    assert built == [("cartesian", 8), ("cartesian", 16), ("voronoi", 64), ("voronoi", 256)]


def test_paper_cartesian_order1_ratio_near_one(paper_two_levels):
    rc, out, _ = paper_two_levels
    assert rc == 0
    rows = {tuple(r[:3]): r[3:] for r in _read_csv(out / "ratio_tables.csv")[1:]}
    avg, *per_level = rows[("tc1", "cartesian", "1")]
    assert len(per_level) == 2
    assert float(avg) == pytest.approx(1.0, abs=0.05)


# `polyvem paper` (full ladders) at the commit that added them, failure rows
# included.  Their floats are reproduced to REFERENCE_RTOL, above the largest
# drift a change has caused so far (3.3e-13, cartesian e_star); a change that
# moves the numbers on purpose rewrites these files in the same diff.
PAPER_REFERENCE = Path(__file__).resolve().parent / "data" / "paper"
REFERENCE_RTOL = 1e-12


def _agrees(mine, ref, abs_tol=0.0):
    if not ref:
        return mine == ref
    a, b = float(mine), float(ref)
    return (math.isnan(a) and math.isnan(b)) or math.isclose(
        a, b, rel_tol=REFERENCE_RTOL, abs_tol=abs_tol)


@pytest.mark.parametrize("case_id", ["tc1", "tc2"])
def test_paper_rows_match_the_reference(paper_two_levels, case_id):
    _, out, _ = paper_two_levels
    header, *rows = _read_csv(out / case_id / "study_rows.csv")
    ref_header, *ref = _read_csv(PAPER_REFERENCE / case_id / "study_rows.csv")
    assert header == ref_header
    col = {name: i for i, name in enumerate(header)}
    ref = [r for r in ref if int(r[col["level"]]) <= 2]
    exact = [col[name] for name in
             ("family", "case", "method", "order", "level", "n_dofs", "note")]
    assert [[r[i] for i in exact] for r in rows] == [[r[i] for i in exact] for r in ref]
    for mine, theirs in zip(rows, ref):
        for name in ("h_max", "e_star", "stab_ratio"):
            assert _agrees(mine[col[name]], theirs[col[name]]), (name, mine, theirs)
        # a rate is a difference of logs over log(h ratio) > 0.6: errors that
        # moved by REFERENCE_RTOL move it by up to 4 REFERENCE_RTOL, absolute,
        # which matters for the rates near 0 of tc2's unresolved levels
        assert _agrees(mine[col["alpha"]], theirs[col["alpha"]],
                       abs_tol=4 * REFERENCE_RTOL), ("alpha", mine, theirs)


def test_paper_ratio_tables_match_the_reference(paper_two_levels):
    _, out, _ = paper_two_levels
    rows = _read_csv(out / "ratio_tables.csv")
    ref = _read_csv(PAPER_REFERENCE / "ratio_tables.csv")
    assert [r[:3] for r in rows] == [r[:3] for r in ref]
    # the first two per-level ratios; the ladder average spans the ladder run
    for mine, theirs in zip(rows[1:], ref[1:]):
        assert len(mine) == 4 + 2
        assert all(_agrees(a, b) for a, b in zip(mine[4:], theirs[4:6])), (mine, theirs)


def test_study_writes_the_paper_runs_bytes(paper_two_levels, tmp_path):
    # one driver serves both commands: tc1's study at the paper's orders is
    # the paper run's tc1, file by file
    _, out, _ = paper_two_levels
    assert main(["study", "--case", "tc1", "--orders", "1,3", "--family", "both",
                 "--levels", "2", "-o", str(tmp_path)]) == 0
    names = sorted(p.name for p in (out / "tc1").iterdir())
    assert {"study_rows.csv", "summary.json", "rates_summary.csv"} < set(names)
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (out / "tc1" / name).read_bytes(), name


def test_a_unit_alone_gives_its_rows_of_the_paper_run(paper_two_levels):
    _, out, _ = paper_two_levels
    mesh = generate_mesh("voronoi", 256)
    rows = study.run_unit(("tc2", "voronoi", 2, 2), mesh)
    paper = [r for r in parse_rows_csv(out / "tc2" / "study_rows.csv")
             if (r.family, r.order, r.level) == ("voronoi", 2, 2)]
    assert [r.method for r in rows] == ["vem", "e2vem"]
    assert all(r.alpha is None for r in rows)      # the driver attaches the rates
    # floats written with repr read back bitwise; no field is NaN here
    assert rows == [dataclasses.replace(r, alpha=None) for r in paper]


def test_missing_mesh_file_exit_2(tmp_path):
    rc = main(["solve", "--mesh", str(tmp_path / "nope.txt"), "--method", "vem",
               "--order", "1", "--case", "tc1", "-o", str(tmp_path / "x.json")])
    assert rc == 2


def test_unknown_case_exit_2(tmp_path):
    mesh_path = tmp_path / "m.txt"
    main(["mesh", "--family", "cartesian", "--n", "2", "-o", str(mesh_path)])
    rc = main(["solve", "--mesh", str(mesh_path), "--method", "vem",
               "--order", "1", "--case", "nope", "-o", str(tmp_path / "x.json")])
    assert rc == 2


def test_bad_mesh_parameters_exit_2(tmp_path):
    rc = main(["mesh", "--family", "cartesian", "--n", "0",
               "-o", str(tmp_path / "m.txt")])
    assert rc == 2


def test_usage_error_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--method", "bogus"])
    assert exc.value.code == 2


def test_negative_lloyd_iters_exit_2(tmp_path):
    rc = main(["mesh", "--family", "voronoi", "--n", "9", "--lloyd-iters", "-5",
               "-o", str(tmp_path / "m.txt")])
    assert rc == 2
    assert not (tmp_path / "m.txt").exists()


def _one_line_error(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    return lines[0]


def test_non_star_shaped_cell_exit_2(tmp_path, capsys):
    mesh_path = tmp_path / "u.txt"
    mesh_path.write_text(U_SHAPED_MESH)
    rc = main(["solve", "--mesh", str(mesh_path), "--method", "vem",
               "--order", "1", "--case", "tc1", "-o", str(tmp_path / "x.json")])
    assert rc == 2
    assert _one_line_error(capsys) == (
        "error: cell 0: cell is not star-shaped with respect to its centroid "
        "(fan triangle 3 has signed area -0.07); run mesh validation")


@pytest.mark.parametrize("text, message", [
    ("polymesh 1\n4 1\n" + SQUARE_VERTICES + "4 0 3 2 1\n",
     "line 7: cell 0: polygon is not CCW (signed area -1)"),
    ("polymesh 1\n4 1\n0 0\n1 0\n1 y\n0 1\n4 0 1 2 3\n",
     "line 5: bad coordinate for vertex 2"),
    ("polymesh 1\n1000000000000 1\n" + SQUARE_VERTICES + "4 0 1 2 3\n",
     "line 2: counts nv=1000000000000 nc=1 need 1000000000001 vertex and cell lines, "
     "only 5 follow"),
    ("polymesh 1\n4 100000000000\n" + SQUARE_VERTICES + "4 0 1 2 3\n",
     "line 2: counts nv=4 nc=100000000000 need 100000000004 vertex and cell lines, "
     "only 5 follow"),
], ids=["clockwise-cell", "malformed-line", "vertex-count", "cell-count"])
def test_bad_mesh_file_exit_2_names_its_line(tmp_path, capsys, text, message):
    # the counts are checked before anything is allocated: 10**12 vertices
    # would be a 16 TB array
    mesh_path = tmp_path / "bad.txt"
    mesh_path.write_text(text)
    rc = main(["solve", "--mesh", str(mesh_path), "--method", "vem",
               "--order", "1", "--case", "tc1", "-o", str(tmp_path / "x.json")])
    assert rc == 2
    assert _one_line_error(capsys) == f"error: {message}"
    assert not (tmp_path / "x.json").exists()


def test_double_cover_exit_2(tmp_path, capsys):
    mesh_path = tmp_path / "double.txt"
    save_mesh(doubled_cartesian2(), mesh_path)
    rc = main(["solve", "--mesh", str(mesh_path), "--method", "vem",
               "--order", "1", "--case", "tc2", "-o", str(tmp_path / "x.json")])
    assert rc == 2
    assert _one_line_error(capsys) == ("error: mesh breaks partition: cell areas sum to 2.0, "
                                       "not 1; run validate_mesh for details")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("point", [(0.5, 0.25), (0.0, 0.25)], ids=["interior", "boundary"])
def test_unused_vertex_exit_2_names_it(tmp_path, capsys, point):
    # its dof would be a zero row of the stiffness matrix: the dof map
    # refuses the mesh before any solve
    cart = generate_mesh("cartesian", 2)
    mesh_path = tmp_path / "unused.txt"
    save_mesh(PolyMesh(np.vstack([cart.vertices, [point]]), cart.cells), mesh_path)
    rc = main(["solve", "--mesh", str(mesh_path), "--method", "vem",
               "--order", "1", "--case", "tc1", "-o", str(tmp_path / "x.json")])
    assert rc == 2
    assert _one_line_error(capsys) == ("error: vertex 9 breaks conformity: used by no cell; "
                                       "run validate_mesh for details")
    assert not (tmp_path / "x.json").exists()


def test_rank_failure_exit_3_names_cell(tmp_path, capsys, monkeypatch):
    mesh_path = tmp_path / "m.txt"
    main(["mesh", "--family", "cartesian", "--n", "2", "-o", str(mesh_path)])
    capsys.readouterr()
    monkeypatch.setattr(local, "MAX_ELL_BUMPS", 0)
    rc = main(["solve", "--mesh", str(mesh_path), "--method", "e2vem",
               "--order", "2", "--case", "tc1", "-o", str(tmp_path / "x.json")])
    assert rc == 3
    line = _one_line_error(capsys)
    assert "cell 0:" in line and "rank deficient" in line


def test_solver_memory_error_exit_3(tmp_path, capsys, monkeypatch):
    mesh_path = tmp_path / "m.txt"
    main(["mesh", "--family", "cartesian", "--n", "2", "-o", str(mesh_path)])
    capsys.readouterr()

    def no_memory(A, **kwargs):
        raise MemoryError

    monkeypatch.setattr(assembly, "splu", no_memory)
    rc = main(["solve", "--mesh", str(mesh_path), "--method", "vem",
               "--order", "1", "--case", "tc1", "-o", str(tmp_path / "x.json")])
    assert rc == 3
    line = _one_line_error(capsys)
    assert line == "error: out of memory in the sparse solve (1 unknowns, 1 nonzeros in a_ff)"


def test_study_records_a_memory_error_and_continues(tmp_path, monkeypatch):
    real, calls = assembly.splu, []

    def no_memory_first(A, **kwargs):
        calls.append(A.shape)
        if len(calls) == 1:
            raise MemoryError
        return real(A, **kwargs)

    monkeypatch.setattr(assembly, "splu", no_memory_first)
    out = tmp_path / "study"
    rc = main(["study", "--case", "tc1", "--orders", "1", "--family",
               "cartesian", "--levels", "2", "-o", str(out)])
    assert rc == 3
    rows = parse_rows_csv(out / "study_rows.csv")
    assert [(r.level, r.method) for r in rows] == [
        (1, "vem"), (1, "e2vem"), (2, "vem"), (2, "e2vem")]
    assert rows[0].note == ("solver failure: out of memory in the sparse solve "
                            "(49 unknowns, 361 nonzeros in a_ff)")
    assert math.isnan(rows[0].e_star)
    for r in rows[1:]:
        assert r.note == "" and r.e_star > 0.0
    # the ladder average is over the levels that have a ratio
    summary = json.loads((out / "summary.json").read_text())
    assert summary["avg_stab_ratio"] == {"cartesian:order1": rows[2].stab_ratio}


def _linalg_error_on(monkeypatch, cell, k):
    """Make the gradient projection's batched solve raise `LinAlgError` on
    every order-k stack that holds `cell`, as LAPACK does for a stack."""
    real = local.build_pi0_grad

    def failing(ctx, moments):
        if ctx.k == k and (ctx.E.cells == cell).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return real(ctx, moments)

    monkeypatch.setattr(local, "build_pi0_grad", failing)


def test_element_linalg_error_exit_3_names_cell(tmp_path, capsys, monkeypatch):
    mesh_path = tmp_path / "m.txt"
    main(["mesh", "--family", "voronoi", "--n", "64", "-o", str(mesh_path)])
    capsys.readouterr()
    _linalg_error_on(monkeypatch, 37, 2)
    rc = main(["solve", "--mesh", str(mesh_path), "--method", "e2vem",
               "--order", "2", "--case", "tc1", "-o", str(tmp_path / "x.json")])
    assert rc == 3
    line = _one_line_error(capsys)
    assert line == "error: cell 37: element kernel failed (Singular matrix, k=2)"


def test_gram_not_positive_definite_exit_3_names_cell(tmp_path, capsys, monkeypatch):
    # the edge integrals of cell 37 taken with every side reversed: its
    # Gram matrix is negative definite, and its Cholesky factorization fails
    mesh_path = tmp_path / "m.txt"
    main(["mesh", "--family", "voronoi", "--n", "64", "-o", str(mesh_path)])
    capsys.readouterr()
    real = local.monomial_gram

    def reversed_on_37(E, sides, degree, table, weights):
        return real(E, np.where((E.cells == 37)[:, None, None], -sides, sides),
                    degree, table, weights)

    monkeypatch.setattr(local, "monomial_gram", reversed_on_37)
    rc = main(["solve", "--mesh", str(mesh_path), "--method", "vem",
               "--order", "2", "--case", "tc1", "-o", str(tmp_path / "x.json")])
    assert rc == 3
    assert _one_line_error(capsys) == ("error: cell 37: monomial Gram matrix is not "
                                       "positive definite (degree 2)")


def test_study_records_an_element_linalg_error_and_continues(tmp_path, monkeypatch):
    _linalg_error_on(monkeypatch, 37, 2)
    out = tmp_path / "study"
    rc = main(["study", "--case", "tc1", "--orders", "1,2", "--family",
               "voronoi", "--levels", "1", "-o", str(out)])
    assert rc == 3
    rows = parse_rows_csv(out / "study_rows.csv")
    assert [(r.order, r.method) for r in rows] == [
        (1, "vem"), (1, "e2vem"), (2, "vem"), (2, "e2vem")]
    for r in rows:
        if r.order == 2:
            assert r.note == "solver failure: cell 37: element kernel failed (Singular matrix, k=2)"
            assert math.isnan(r.e_star)
        else:
            assert r.note == "" and r.e_star > 0.0
    assert (out / "summary.json").exists()


def test_study_records_cell_failure_and_continues(tmp_path, monkeypatch):
    real = local.build_projection_pack

    def failing_e2vem(E, k, method):
        if method is Method.E2VEM:
            raise CellDegeneracyError(f"singular projector system (k={k})")
        return real(E, k, method)

    monkeypatch.setattr(local, "build_projection_pack", failing_e2vem)
    out = tmp_path / "study"
    rc = main(["study", "--case", "tc1", "--orders", "1", "--family",
               "cartesian", "--levels", "2", "-o", str(out)])
    assert rc == 3
    rows = parse_rows_csv(out / "study_rows.csv")
    assert [(r.level, r.method) for r in rows] == [
        (1, "vem"), (1, "e2vem"), (2, "vem"), (2, "e2vem")]
    for r in rows:
        if r.method == "e2vem":
            assert "cell 0: singular projector system" in r.note
            assert math.isnan(r.e_star)
        else:
            assert r.note == "" and r.e_star > 0.0
    assert (out / "summary.json").exists()


def test_study_records_source_pass_failure_on_both_rows(tmp_path, monkeypatch):
    # the source pass is shared by both schemes, so its failure is theirs;
    # a data-pass failure names its cell, here the sixth of the first block
    real, calls = assembly.local_load, []

    def failing_sixth_cell(f, rule):
        calls.append(rule)
        if len(calls) == 1:
            exc = MeshError("source pass failed")
            exc.cell = rule.cells[5]
            raise exc
        return real(f, rule)

    monkeypatch.setattr(assembly, "local_load", failing_sixth_cell)
    out = tmp_path / "study"
    rc = main(["study", "--case", "tc1", "--orders", "1", "--family",
               "cartesian", "--levels", "2", "-o", str(out)])
    assert rc == 3
    rows = parse_rows_csv(out / "study_rows.csv")
    assert [(r.level, r.method) for r in rows] == [
        (1, "vem"), (1, "e2vem"), (2, "vem"), (2, "e2vem")]
    for r in rows[:2]:
        assert r.note == "solver failure: cell 5: source pass failed"
        assert math.isnan(r.e_star) and r.n_dofs == 0
    for r in rows[2:]:
        assert r.note == "" and r.e_star > 0.0
    assert (out / "summary.json").exists()


def test_paper_exit_3_after_writing_every_artifact(tmp_path, monkeypatch):
    # the first source pass of the run (tc1, cartesian, order 1, level 1) fails
    real, calls = assembly.local_load, []

    def failing_sixth_cell(f, rule):
        calls.append(rule)
        if len(calls) == 1:
            exc = MeshError("source pass failed")
            exc.cell = rule.cells[5]
            raise exc
        return real(f, rule)

    monkeypatch.setattr(assembly, "local_load", failing_sixth_cell)
    rc = main(["paper", "--levels", "1", "-o", str(tmp_path)])
    assert rc == 3
    rows = parse_rows_csv(tmp_path / "tc1" / "study_rows.csv")
    assert [(r.family, r.order, r.method) for r in rows[:2]] == [
        ("cartesian", 1, "vem"), ("cartesian", 1, "e2vem")]
    for r in rows[:2]:
        assert r.note == "solver failure: cell 5: source pass failed"
    assert all(r.note == "" for r in rows[2:])
    for case_id in ("tc1", "tc2"):
        for name in ("study_rows.csv", "rates_summary.csv", "summary.json"):
            assert (tmp_path / case_id / name).exists()
    table = _read_csv(tmp_path / "ratio_tables.csv")
    assert table[1] == ["tc1", "cartesian", "1", "", ""]
    assert all(float(r[3]) > 0.0 for r in table[2:])


def test_negative_levels_exit_2(tmp_path, capsys):
    for argv in (["study", "--case", "tc1", "--family", "cartesian", "--orders", "1"],
                 ["paper"]):
        out = tmp_path / argv[0]
        rc = main([*argv, "--levels", "-1", "-o", str(out)])
        assert rc == 2
        assert "levels must be >= 0" in _one_line_error(capsys)
        assert not out.exists()


def test_repeated_orders_exit_2(tmp_path, capsys):
    rc = main(["study", "--case", "tc1", "--orders", "1,1", "--family", "cartesian",
               "--levels", "2", "-o", str(tmp_path / "s")])
    assert rc == 2
    assert "study orders must be distinct and non-empty, got (1, 1)" in _one_line_error(capsys)
    assert not (tmp_path / "s").exists()


def test_order_below_one_exit_2_names_order(tmp_path, capsys):
    mesh_path = tmp_path / "m.txt"
    main(["mesh", "--family", "cartesian", "--n", "2", "-o", str(mesh_path)])
    capsys.readouterr()
    rc = main(["solve", "--mesh", str(mesh_path), "--method", "vem",
               "--order", "0", "--case", "tc1", "-o", str(tmp_path / "x.json")])
    assert rc == 2
    assert "order must be >= 1, got 0" in _one_line_error(capsys)
