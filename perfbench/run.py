"""Benchmark of the polyvem pipeline: three workloads with checked outputs.

    python3 perfbench/run.py --workload vor1024-tc1 --seed 0 --seconds 10 --trace 0

Run from anywhere; the package is imported from src/ next to this
directory, never from an installed copy.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a traced pass.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the lines before it give every metric by name with its unit.
The full record of the run, provenance included, is written to
.perfbench_out/ at the root of the checkout.  README.md explains the
workloads and the metrics.

The end-to-end times are corrected for the speed of the host: a speed meter
(meter.py) runs beside the worker on the same CPU, and each timed interval is
scaled by the meter's kernel time over that interval, so that the times read
as seconds at the meter's reference speed CAL_REF_S.  The raw seconds are
printed before the metrics and kept in the run record.
"""

import argparse
import bisect
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cart128-tc1-k3", "vor1024-tc1", "vor-tc2-study")
# --seed n selects the Voronoi seed n % VORONOI_SEEDS: references.json holds
# the outputs of the Voronoi seeds 0 .. VORONOI_SEEDS-1.
VORONOI_SEEDS = 30
DEADLINE_S = 170.0    # whole run, worker included
# CPU seconds of the meter's kernel on an undisturbed 2-vCPU Intel Xeon guest
# (Python 3.11) beside a busy worker: the speed the end-to-end times refer to.
CAL_REF_S = 2.9e-4
# Single-threaded BLAS: the baseline HPC benchmarks call for, and with the
# default two threads cart128-tc1-k3 varied 10.6-15.8 s against 11.0-11.6 s.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "dofs_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}
LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "ctx_per_pack": "ratio",
               "coverage": "ratio"}


class BenchError(Exception):
    pass


def _unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def spawn_worker(cfg, deadline):
    """Run worker.py with `cfg` in a fresh process beside the speed meter.

    This process is first pinned to one CPU; the worker and the meter
    inherit that affinity.  Returns the worker's result dict, with the
    meter's samples under "speed" as (CLOCK_MONOTONIC times, kernel CPU
    seconds).
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, **THREAD_ENV, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    samples_path = Path(cfg["work_dir"]) / "speed.txt"
    meter = subprocess.Popen(
        [sys.executable, str(HERE / "meter.py"), str(samples_path),
         str(max(1.0, deadline - time.monotonic()))],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
    try:
        env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                                env=env, cwd=ROOT, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError("worker exceeded the run deadline") from None
    finally:
        meter.kill()
        meter.wait()
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    with open(cfg["result_path"], encoding="utf-8") as fh:
        res = json.load(fh)
    with open(samples_path, encoding="utf-8") as fh:
        samples = [line.split() for line in fh if line.count(" ") == 1]
    if not samples:
        raise BenchError("the speed meter recorded no samples")
    res["speed"] = ([float(t) for t, _ in samples], [float(c) for _, c in samples])
    src = (ROOT / "src" / "polyvem").resolve()
    if Path(res["polyvem_file"]).resolve().parent != src:
        raise BenchError(f"imported polyvem from {res['polyvem_file']}, not {src}")
    return res


def source_identity():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polyvem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=False)
        commit = out.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def ref_seconds(speed, window):
    """Length of `window` at the reference speed CAL_REF_S.

    The window's seconds times the mean of CAL_REF_S / kernel time over the
    meter samples inside it (the nearest ones when it holds none).
    """
    times, costs = speed
    a, b = window
    i, j = bisect.bisect_left(times, a), bisect.bisect_right(times, b)
    if j <= i:
        i, j = max(i - 1, 0), min(i + 1, len(times))
    return (b - a) * statistics.fmean(CAL_REF_S / c for c in costs[i:j])


def end_to_end(res, attempted, failed, seconds):
    """The end-to-end metrics, with `seconds` mapping a window to its length."""
    passes = res["passes"]
    walls = [sum(seconds(op["window"]) for op in p["ops"]) for p in passes]
    rates = [sum(op["dofs"] for op in p["ops"] if op["ok"]) / w for p, w in zip(passes, walls)]
    return {
        "wall_s": statistics.median(walls),
        "dofs_per_s": statistics.median(rates),
        "setup_s": (seconds(res["import_window"])
                    + statistics.median(seconds(w) for w in res["build_windows"])),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(res):
    traced = [p["layers"] for p in res["passes"] if p["traced"]]
    untraced = [p["wall_s"] for p in res["passes"] if not p["traced"]]
    metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "polyvem" / "__init__.py").is_file():
        raise BenchError(f"no polyvem sources under {ROOT / 'src'}")
    refs = checks.load(HERE / "references.json")
    mesh_seed = args.seed % VORONOI_SEEDS

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cfg = {"workload": args.workload, "mesh_seed": mesh_seed, "seconds": args.seconds,
               "work_dir": str(work), "deadline": deadline - 5.0,
               "mode": "trace" if args.trace else "run",
               "result_path": str(work / "result.json"),
               "spans_path": str(out_dir / f"{tag}-spans.npz")}
        res = spawn_worker(cfg, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    source = source_identity()
    attempted, failed, problems = checks.check_run(
        refs, args.workload, mesh_seed, res["passes"], res["meshes_identical"],
        same_source=source["src_sha256"] == refs["recorded_with"]["src_sha256"])

    def corrected(window):
        return ref_seconds(res["speed"], window)

    if args.trace:
        metrics = per_layer(res)
        units = {k: _unit(k) for k in metrics}
    else:
        metrics = end_to_end(res, attempted, failed, corrected)
        units = END_TO_END
    raw = end_to_end(res, attempted, failed, lambda w: w[1] - w[0])
    costs = res["speed"][1]
    record = {"workload": args.workload, "seed": args.seed, "mesh_seed": mesh_seed,
              "seconds": args.seconds, "trace": args.trace, "problems": problems,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "metrics": metrics,
              "raw_seconds": {k: raw[k] for k in ("wall_s", "dofs_per_s", "setup_s")},
              "corrected_s": {
                  "import": corrected(res["import_window"]),
                  "builds": [corrected(w) for w in res["build_windows"]],
                  "passes": [sum(corrected(op["window"]) for op in p["ops"])
                             for p in res["passes"]]},
              "host_speed": CAL_REF_S / statistics.median(costs),
              "meter_kernel_s": dict(zip(("p10", "p50", "p90"),
                                         statistics.quantiles(costs, n=10)[::4]),
                                     samples=len(costs)),
              "import_window": res["import_window"], "build_windows": res["build_windows"],
              "passes": res["passes"], "provenance": dict(res["provenance"], **source)}
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    prov = record["provenance"]
    print(f"# {args.workload} seed {args.seed} (Voronoi seed {mesh_seed}): "
          f"{len(res['passes'])} pass(es), outputs checked against the recorded reference")
    print(f"# {prov['cpu']}, nproc {prov['nproc']}, python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}, {prov['blas']}, "
          f"BLAS threads {prov['threads_env']['OPENBLAS_NUM_THREADS']}, "
          f"commit {prov['commit']}, src {prov['src_sha256'][:12]}")
    for msg in problems:
        print(f"# PROBLEM {msg}")
    for op in res["passes"][-1]["ops"]:
        if "error" in op:
            print(f"# failed {op['op']}: {op['error']}: {op['message']}")
    print(f"# fail_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"# host speed {record['host_speed']:.3f} of the reference (median); uncorrected: "
          + ", ".join(f"{k} {v:.6g}" for k, v in record["raw_seconds"].items()))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
