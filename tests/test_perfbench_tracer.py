"""The benchmark's tracer wraps polyvem functions by name; guard those names.

`perfbench/run.py --trace 1` installs `perfbench/tracer.py`, which fails when
a traced function is renamed, deleted or bound where it cannot be wrapped.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

import polyvem.cli  # the tracer wraps cli.main
from polyvem import assembly, local
from polyvem import mesh as pmesh
from polyvem.cases import testcase as get_case
from polyvem.errors import StabilizationFreeRankError
from polyvem.local import Method
from polyvem.mesh import generate_cartesian, generate_voronoi
from polyvem.study import solve_case
from conftest import parse_rows_csv

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = _load_tracer()
    originals = {(module, name): getattr(module, name) for module, name in
                 ((assembly, "assemble"), (local, "build_projection_pack"),
                  (local, "local_stiffness"), (local, "local_load"))}
    tr = tracer.Tracer()
    try:
        tr.install()
        assert assembly.assemble is not originals[assembly, "assemble"]
        mesh = generate_cartesian(2)
        for method in (Method.STANDARD, Method.E2VEM):
            solve_case(mesh, 2, method, get_case("tc1"))
        take = tr.take()
    finally:
        tr.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn
    assert take["assembly.assemble"]["calls"] == 2
    assert take["local.pack"]["calls"] >= 2
    assert take["counts"]["local.rank_failures"] == 0
    assert take["counts"]["assembly.n_free"] > 0


def test_tracer_take_of_stacked_builds_is_json():
    # `--trace 1` writes each take as JSON: the packs of a stabilization-free
    # build over several vertex-count groups must leave integer counts
    tracer = _load_tracer()
    mesh = generate_voronoi(64, rng_seed=0, lloyd_iters=10)
    assert np.unique(np.diff(mesh.flat_cells[1])).size > 1
    tr = tracer.Tracer()
    try:
        tr.install()
        solve_case(mesh, 1, Method.E2VEM, get_case("tc1"))
        take = tr.take()
    finally:
        tr.uninstall()
    json.dumps(take)
    assert all(type(value) is int for value in take["counts"].values())
    assert take["local.pack"]["calls"] >= np.unique(np.diff(mesh.flat_cells[1])).size
    assert take["counts"]["local.ctx_built"] == take["local.pack"]["calls"]


def test_tracer_counts_a_generated_mesh_and_a_rank_failure(monkeypatch):
    """The hooks read a generator's mesh, a pack's `ell`, `k` and
    `layout.n_vertices`, and the rank error `build_projection_pack` raises."""
    tracer = _load_tracer()
    tr = tracer.Tracer()
    try:
        tr.install()
        mesh = pmesh.generate_cartesian(2)      # the traced binding
        # exact squares at order 2 are built again one ell past the minimum
        solve_case(mesh, 2, Method.E2VEM, get_case("tc1"))
        monkeypatch.setattr(local, "MAX_ELL_BUMPS", 0)
        with pytest.raises(StabilizationFreeRankError, match="^cell 0: "):
            solve_case(mesh, 2, Method.E2VEM, get_case("tc1"))
        take = tr.take()
    finally:
        tr.uninstall()
    counts = take["counts"]
    assert counts["mesh.cells"] == 4
    assert counts["local.ell_bumps"] == 1
    assert counts["local.rank_failures"] == 1


def test_tracer_times_the_ratio_of_each_standard_row(tmp_path):
    """A traced CLI study: the tracer installs over `stab_consistency_ratio`,
    which takes the system, and `study.ratio` runs once per row of the
    standard scheme."""
    tracer = _load_tracer()
    tr = tracer.Tracer()
    try:
        tr.install()
        rc = polyvem.cli.main(["study", "--case", "tc1", "--orders", "1", "--family",
                               "cartesian", "--levels", "2", "-o", str(tmp_path)])
        take = tr.take()
    finally:
        tr.uninstall()
    assert rc == 0 and take["cli"]["calls"] == 1
    standard = [row for row in parse_rows_csv(tmp_path / "study_rows.csv")
                if row.method == Method.STANDARD.value]
    assert len(standard) == 2 and all(row.stab_ratio > 0.0 for row in standard)
    assert take["study.ratio"]["calls"] == len(standard)
