import json
import math

import numpy as np
import pytest

from polyvem import assembly, local
from polyvem.cli import main
from polyvem.errors import CellDegeneracyError, QuadratureError
from polyvem.local import Method
from polyvem.mesh import load_mesh
from polyvem.study import parse_rows_csv

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
    assert payload["ordering"] == "MMD_AT_PLUS_A"
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


def test_ratio_command(capsys, tmp_path):
    rc = main(["ratio", "--case", "tc1", "--order", "1", "--family",
               "cartesian", "--levels", "2"])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    assert "cartesian order 1" in line
    avg = float(line.split("avg=")[1].split()[0].rstrip("]"))
    assert avg == pytest.approx(1.0, abs=0.05)


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
    line = _one_line_error(capsys)
    assert "cell 0:" in line and "star-shaped" in line


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


def test_study_records_cell_failure_and_continues(tmp_path, monkeypatch):
    real = assembly.build_projection_pack

    def failing_e2vem(E, k, method):
        if method is Method.E2VEM:
            raise CellDegeneracyError(f"singular projector system (k={k})")
        return real(E, k, method)

    monkeypatch.setattr(assembly, "build_projection_pack", failing_e2vem)
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
            exc = QuadratureError("source pass failed")
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


def test_negative_levels_exit_2(tmp_path, capsys):
    for command, extra in (("study", ["--orders", "1", "-o", str(tmp_path / "s")]),
                           ("ratio", ["--order", "1"])):
        rc = main([command, "--case", "tc1", "--family", "cartesian",
                   "--levels", "-1", *extra])
        assert rc == 2
        assert "levels must be >= 0" in _one_line_error(capsys)
    assert not (tmp_path / "s").exists()


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
