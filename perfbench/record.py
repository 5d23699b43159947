"""Record the reference outputs that checks.py compares against.

    python3 perfbench/record.py

Runs every workload in traced mode for each Voronoi seed below
run.VORONOI_SEEDS (the cartesian workload once, it has no seed), keeps the
outputs and counts of the last traced pass and rewrites
perfbench/references.json.  Record only at a commit whose outputs are
trusted: every later run is judged against it.
"""

import json
import os
import shutil
import sys
import time

import run

KEEP = ("op", "e_star", "dofs", "cells", "error", "cell", "exit_code", "rows", "counts")


def record_one(workload, seed):
    work = run.ROOT / ".perfbench_out" / f"record-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        deadline = time.monotonic() + 600
        cfg = {"workload": workload, "mesh_seed": seed, "seconds": 1, "mode": "trace",
               "deadline": deadline, "work_dir": str(work),
               "result_path": str(work / "result.json")}
        res = run.spawn_worker(cfg, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    last = [p for p in res["passes"] if p["traced"]][-1]
    ops = [{k: v for k, v in op.items() if k in KEEP} for op in last["ops"]]
    print(f"{workload} seed {seed}: " + ", ".join(
        f"{op['op']} -> {op.get('e_star', op.get('error', op.get('exit_code')))}" for op in ops),
        file=sys.stderr)
    return ops, res["provenance"]


def main():
    jobs = [("cart128-tc1-k3", "*")]
    jobs += [(w, str(s)) for s in range(run.VORONOI_SEEDS) for w in ("vor1024-tc1", "vor-tc2-study")]
    refs = {"workloads": {w: {"seeds": {}} for w in run.WORKLOADS}}
    for workload, key in jobs:
        ops, prov = record_one(workload, 0 if key == "*" else int(key))
        refs["workloads"][workload]["seeds"][key] = ops
    refs["recorded_with"] = dict(prov, **run.source_identity())
    with open(run.HERE / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
