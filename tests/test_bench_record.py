"""The benchmark recorder (`tools/bench_record.py`) builds its file from
canned perfbench run records, and every committed BENCH_*.json holds the
same schema, so a later record can be appended without guessing the format.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

END_TO_END = ("wall_s", "dofs_per_s", "setup_s", "peak_rss_mb", "ok_ratio")
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    LAYER_SECONDS = {m["name"] for m in json.load(_fh)["per_layer"] if m["unit"] == "s"}


def _run_record(workload, seed, trace, wall):
    """A perfbench run record with the keys the recorder reads, and some it drops."""
    metrics = ({"study.error_self_s": wall / 4, "local.load_s": wall / 20,
                "mesh.cells": 1024.0, "trace.coverage": 0.98} if trace
               else {"wall_s": wall, "dofs_per_s": 1e5 / wall, "setup_s": 0.5,
                     "peak_rss_mb": 137.0, "ok_ratio": 1.0})
    return {"workload": workload, "seed": seed, "mesh_seed": seed % 30, "seconds": 10,
            "trace": trace, "problems": [] if seed != 2 else ["e_star off"],
            "attempted": 3, "failed": 0, "fail_ratio": 0.0, "metrics": metrics,
            "raw_seconds": {"wall_s": wall * 1.3, "dofs_per_s": 7e4, "setup_s": 0.7},
            "host_speed": 0.77, "passes": [{"ops": []}],
            "provenance": {"commit": None, "src_sha256": "ab" * 32, "numpy": "2.4.6"}}


def check_schema(record):
    # schema 1 files are kept as they were written; from schema 2 on a traced
    # run also holds its per-layer seconds at the reference host speed
    assert record["schema"] in (1, bench_record.SCHEMA)
    assert isinstance(record["label"], str) and record["label"]
    assert isinstance(record["commit"], str) and len(record["commit"]) == 40
    assert isinstance(record["dirty"], bool)
    bench = record["benchmark"]
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(bench["run_seconds"], int)
    assert bench["seeds"] and bench["trace_seeds"]
    for run in record["runs"]:
        scaled = {"layers_at_reference"} if run["trace"] and record["schema"] >= 2 else set()
        assert set(run) == {"workload", "seed", "trace", "seconds", "correct", "problems",
                            *bench_record.RUN_KEYS, *scaled}
        if scaled:
            layers = run["layers_at_reference"]
            assert set(layers) == LAYER_SECONDS & set(run["metrics"])
            for name, value in layers.items():
                assert math.isclose(value, run["metrics"][name] * run["host_speed"])
        assert run["trace"] in (0, 1)
        assert run["correct"] == (not run["problems"])
        assert set(run["raw_seconds"]) == {"wall_s", "dofs_per_s", "setup_s"}
        assert run["host_speed"] > 0.0
        if not run["trace"]:
            assert set(run["metrics"]) == set(END_TO_END)
    untraced = {run["workload"] for run in record["runs"] if not run["trace"]}
    assert set(record["median"]) == untraced
    for medians in record["median"].values():
        assert set(medians) == set(END_TO_END)
    paper = record["paper"]
    assert set(paper) == {"command", "env", "wall_s", "peak_rss_mb", "exit_code", "identical"}
    assert paper["env"] == {"OPENBLAS_NUM_THREADS": "1"}
    assert set(paper["identical"]) == set(bench_record.PAPER_FILES)
    assert all(isinstance(v, bool) for v in paper["identical"].values())
    assert isinstance(paper["exit_code"], int)
    assert paper["wall_s"] > 0.0 and paper["peak_rss_mb"] > 0.0


def test_record_keeps_each_run_and_the_untraced_medians():
    records = [_run_record(w, seed, 0, wall) for seed, wall in ((1, 0.40), (2, 0.38), (3, 0.41))
               for w in ("vor1024-tc1", "cart128-tc1-k3")]
    records.append(_run_record("vor1024-tc1", 1, 1, 0.5))
    paper = {"command": ["polyvem", "paper", "-o", "DIR"], "env": {"OPENBLAS_NUM_THREADS": "1"},
             "wall_s": 19.1, "peak_rss_mb": 598.0, "exit_code": 3,
             "identical": dict.fromkeys(bench_record.PAPER_FILES, True)}
    benchmark = {"command": ["python3", "perfbench/run.py"], "run_seconds": 10,
                 "seeds": [1, 2, 3], "trace_seeds": [1]}
    record = bench_record.build_record("demo", "a" * 40, False, benchmark, records, paper,
                                       LAYER_SECONDS)
    # the file is JSON as written, and reads back the same
    record = json.loads(json.dumps(record))
    check_schema(record)
    assert len(record["runs"]) == 7
    assert [run["correct"] for run in record["runs"][:3]] == [True, True, False]
    assert "passes" not in record["runs"][0]
    assert record["median"]["vor1024-tc1"]["wall_s"] == 0.40
    assert math.isclose(record["median"]["cart128-tc1-k3"]["dofs_per_s"], 1e5 / 0.40)
    traced = record["runs"][-1]
    assert traced["metrics"] == {"study.error_self_s": 0.125, "local.load_s": 0.025,
                                 "mesh.cells": 1024.0, "trace.coverage": 0.98}
    # seconds scaled by the run's host speed, counts and ratios left out
    assert traced["layers_at_reference"] == {"study.error_self_s": 0.125 * 0.77,
                                             "local.load_s": 0.025 * 0.77}
    assert all("layers_at_reference" not in run for run in record["runs"][:-1])


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_record_holds_the_schema(path):
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    check_schema(record)
    assert path.name == f"BENCH_{record['label']}.json"
    # every workload of the benchmark, untraced and traced
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        workloads = {w["name"] for w in json.load(fh)["workloads"]}
    assert set(record["median"]) == workloads
    assert {run["workload"] for run in record["runs"] if run["trace"]} == workloads
