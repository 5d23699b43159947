"""One benchmark workload, run in a fresh process that run.py starts.

    worker.py '<json config>'

The config names the workload, its Voronoi seed, run length, deadline, mode
("run" or "trace") and the file the raw result is written to.  The worker
measures and records; run.py checks the outputs and reports.  The parent
passes the monotonic clock at spawn in PERFBENCH_SPAWN_NS (CLOCK_MONOTONIC is
system-wide on Linux), so the import time measured here includes the
interpreter start.  Every timed interval is recorded as its CLOCK_MONOTONIC
window, so that run.py can match it with the speed meter's samples.
"""

import csv
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import polyvem  # noqa: E402
from polyvem import cli, mesh as pmesh, study  # noqa: E402
from polyvem.cases import testcase  # noqa: E402
from polyvem.local import Method  # noqa: E402

from tracer import Tracer  # noqa: E402

IMPORT_WINDOW = (int(os.environ["PERFBENCH_SPAWN_NS"]) / 1e9, time.monotonic())

# Each workload: test case, mesh built during set-up (family, size) or None
# when the operation builds its own meshes, and the operations of one pass.
# Why these three: see README.md.  vor1024-tc1 leaves out e2vem k=3: it fails
# with StabilizationFreeRankError (ROADMAP Defect B) on 18 of the Voronoi
# seeds 0-29, and every operation of a benchmark workload must succeed.
WORKLOADS = {
    "cart128-tc1-k3": ("tc1", ("cartesian", 128), [("vem", 3)]),
    "vor1024-tc1": ("tc1", ("voronoi", 1024), [("vem", 1), ("e2vem", 1), ("vem", 3)]),
    "vor-tc2-study": ("tc2", None, [("study", 2)]),
}
LLOYD_ITERS = 100
STUDY_LEVELS = 3
SETUPS = 3   # set-up (case lookup and mesh) builds per run; setup_s uses their median
# Spans whose self time is not assigned to a layer: the harness functions
# wrap whole operations, so they are left out of trace.coverage.
HARNESS_SPANS = ("study.harness", "cli")


def _cell_of(exc):
    m = re.search(r"cell (\d+)", str(exc))
    return int(m.group(1)) if m else None


def _mesh_digest(mesh):
    h = hashlib.sha256(mesh.vertices.tobytes())
    for cell in mesh.cells:
        h.update(cell.tobytes())
    return h.hexdigest()


def build_inputs(case_id, mesh_spec, seed):
    case = testcase(case_id)
    if mesh_spec is None:
        return case, None
    family, n = mesh_spec
    if family == "cartesian":
        return case, pmesh.generate_cartesian(n)
    return case, pmesh.generate_voronoi(n, seed, LLOYD_ITERS)


def _call(fn, *args):
    """fn(*args), or the exception it raised: a failed operation is recorded."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _failure(exc):
    return {"error": type(exc).__name__, "cell": _cell_of(exc), "message": str(exc)[:400]}


def solve_outcome(sol, mesh):
    if isinstance(sol, Exception):
        return _failure(sol)
    dm = sol.system.dof_map
    return {"e_star": sol.e_star, "dofs": int(dm.n_total), "cells": mesh.n_cells,
            "residual": float(sol.report.residual),
            "b_norm": float(np.linalg.norm(sol.system.b[dm.free_dofs])),
            "spd_ok": sol.report.spd_ok, "solver": sol.report.solver}


def study_outcome(code, out_dir):
    """Exit code and the rows of study_rows.csv; the artifacts are removed."""
    if isinstance(code, Exception):
        return _failure(code)
    rows = []
    rows_path = out_dir / "study_rows.csv"
    if rows_path.exists():
        with open(rows_path, newline="", encoding="utf-8") as fh:
            for rec in csv.DictReader(fh):
                rows.append({"family": rec["family"], "method": rec["method"],
                             "order": int(rec["order"]), "level": int(rec["level"]),
                             "n_dofs": int(rec["n_dofs"]), "e_star": float(rec["e_star"]),
                             "note": rec["note"]})
    shutil.rmtree(out_dir, ignore_errors=True)
    ok_dofs = sum(r["n_dofs"] for r in rows if not r["note"])
    return {"exit_code": code, "rows": rows, "dofs": ok_dofs}


def measure(fn, *args):
    """(result, [start, end]) of fn(*args), on CLOCK_MONOTONIC."""
    t = time.monotonic()
    result = fn(*args)
    return result, [t, time.monotonic()]


def sum_takes(takes):
    total = {"counts": {}}
    for t in takes:
        for key, val in t.items():
            if key == "counts":
                for c, v in val.items():
                    total["counts"][c] = total["counts"].get(c, 0) + v
            else:
                acc = total.setdefault(key, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
                for f in acc:
                    acc[f] += val[f]
    return total


def op_counts(take):
    c = take["counts"]
    return {
        "mesh.cells": c["mesh.cells"],
        "basis.quad_points": c["basis.quad_points"],
        "local.pack_calls": take["local.pack"]["calls"],
        "local.ctx_built": c["local.ctx_built"],
        "local.ell_bumps": c["local.ell_bumps"],
        "local.rank_failures": c["local.rank_failures"],
        "assembly.n_free": c["assembly.n_free"],
        "assembly.nnz": c["assembly.nnz"],
    }


def layer_metrics(agg, wall, setup_generate_s, setup_cells):
    """Per-layer metrics of one traced pass (see README.md for the map)."""
    c = agg["counts"]

    def self_s(name):
        return agg[name]["self_s"]

    def calls(name):
        return agg[name]["calls"]

    packs = c["local.packs"]
    cells = c["assembly.cells"]
    built = c["assembly.cells_built"] - c["assembly.cache_refs"]
    layers_self = sum(v["self_s"] for k, v in agg.items()
                      if k != "counts" and k not in HARNESS_SPANS)
    return {
        "mesh.generate_s": setup_generate_s + agg["mesh.generate"]["incl_s"],
        "mesh.cells": setup_cells + c["mesh.cells"],
        "basis.quadrature_s": self_s("basis.quadrature"),
        "basis.quadrature_calls": calls("basis.quadrature"),
        "basis.quad_points": c["basis.quad_points"],
        "basis.gram_s": self_s("basis.gram"),
        "basis.gram_calls": calls("basis.gram"),
        "basis.edge_rules_s": self_s("basis.edge_rules"),
        "basis.edge_rules_calls": calls("basis.edge_rules"),
        "local.pack_s": self_s("local.pack"),
        "local.pack_calls": calls("local.pack"),
        "local.ctx_built": c["local.ctx_built"],
        "local.ctx_per_pack": c["local.ctx_built"] / packs if packs else 0.0,
        "local.ell_bumps": c["local.ell_bumps"],
        "local.rank_failures": c["local.rank_failures"],
        "local.stiffness_s": self_s("local.stiffness"),
        "local.load_s": self_s("local.load"),
        "assembly.assemble_self_s": self_s("assembly.assemble"),
        "assembly.cache_hit_ratio": (cells - built) / cells if cells else 0.0,
        "assembly.dof_map_s": self_s("assembly.dof_map"),
        "assembly.dof_map_calls": calls("assembly.dof_map"),
        "assembly.dirichlet_s": self_s("assembly.dirichlet"),
        "assembly.factor_s": self_s("assembly.factor"),
        "assembly.cg_fallbacks": c["assembly.cg_fallbacks"],
        "assembly.n_free": c["assembly.n_free"],
        "assembly.nnz": c["assembly.nnz"],
        "study.error_self_s": self_s("study.error"),
        "study.error_cells": c["study.error_cells"],
        "study.ratio_s": self_s("study.ratio"),
        "study.emit_s": self_s("study.emit"),
        "study.harness_self_s": self_s("study.harness"),
        "cli.self_s": self_s("cli"),
        "trace.wall_s": wall,
        "trace.coverage": layers_self / wall if wall > 0 else 0.0,
    }


def one_pass(case, mesh, ops, mesh_seed, work, tracer):
    """Run every operation of the workload once; return the pass record."""
    outcomes, takes = [], []
    for i, (method, k) in enumerate(ops):
        if method == "study":
            out_dir = work / f"study-{i}"
            argv = ["study", "--case", case.name, "--orders", str(k), "--family", "voronoi",
                    "--levels", str(STUDY_LEVELS), "--seed", str(mesh_seed), "-o", str(out_dir)]
            code, window = measure(_call, cli.main, argv)
            out = study_outcome(code, out_dir)
        else:
            sol, window = measure(_call, study.solve_case, mesh, k, Method.parse(method), case)
            out = solve_outcome(sol, mesh)
            del sol
        out.update(op=f"{method} k={k}", window=window, seconds=window[1] - window[0])
        if tracer is not None:
            take = tracer.take()
            out["counts"] = op_counts(take)
            takes.append(take)
        outcomes.append(out)
    rec = {"traced": tracer is not None, "ops": outcomes,
           "wall_s": sum(o["seconds"] for o in outcomes)}
    if tracer is not None:
        rec["agg"] = sum_takes(takes)
    return rec


def provenance():
    info = {"python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    import scipy
    info["scipy"] = scipy.__version__
    try:
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = "unknown"
    return info


def main(cfg):
    result = {"import_window": IMPORT_WINDOW, "polyvem_file": polyvem.__file__}
    case_id, mesh_spec, ops = WORKLOADS[cfg["workload"]]
    mesh_seed, seconds, deadline = cfg["mesh_seed"], cfg["seconds"], cfg["deadline"]
    work = Path(cfg["work_dir"])
    tracer = Tracer() if cfg["mode"] == "trace" else None

    # set-up: case lookup and mesh generation, repeated; the last mesh is used
    builds, digests, gen_s, gen_cells = [], [], [], []
    if tracer is not None:
        tracer.install()
    for _ in range(SETUPS):
        (case, mesh), window = measure(build_inputs, case_id, mesh_spec, mesh_seed)
        builds.append(window)
        digests.append(_mesh_digest(mesh) if mesh is not None else "")
        if tracer is not None:
            take = tracer.take()
            gen_s.append(take["mesh.generate"]["incl_s"])
            gen_cells.append(take["counts"]["mesh.cells"])
    result.update(build_windows=builds, meshes_identical=len(set(digests)) == 1)

    passes = []
    start = time.monotonic()
    if tracer is not None:
        # one untraced pass first: the tracing overhead is traced minus untraced
        tracer.uninstall()
        passes.append(one_pass(case, mesh, ops, mesh_seed, work, None))
        tracer.install()
    while True:
        passes.append(one_pass(case, mesh, ops, mesh_seed, work, tracer))
        if (time.monotonic() - start >= seconds
                or time.monotonic() + passes[-1]["wall_s"] > deadline):
            break
    if tracer is not None:
        tracer.uninstall()
        setup_gen = statistics.median(gen_s) if mesh is not None else 0.0
        setup_cells = gen_cells[-1] if mesh is not None else 0
        for p in passes:
            if p["traced"]:
                p["layers"] = layer_metrics(p.pop("agg"), p["wall_s"], setup_gen, setup_cells)
        if cfg.get("spans_path"):
            tracer.save(cfg["spans_path"])
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = provenance()
    return result


if __name__ == "__main__":
    config = json.loads(sys.argv[1])
    res = main(config)
    with open(config["result_path"], "w", encoding="utf-8") as fh:
        json.dump(res, fh)
