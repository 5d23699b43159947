"""Record the benchmark and the paper run of this checkout in BENCH_<label>.json.

    python3 tools/bench_record.py LABEL

Runs `polyvem paper` once, then the unchanged `perfbench/run.py` on every
workload of BENCHMARK.json at its run length: untraced at each of SEEDS and
traced at TRACE_SEEDS.  It keeps from each run record that perfbench writes
to .perfbench_out/ the metrics, the raw seconds, the host speed, the
provenance and the output check, and adds the commit from `git rev-parse`,
since perfbench reads none outside a git checkout.  A traced run's per-layer
metrics are raw seconds; the file adds them scaled by that run's own host
speed (`layers_at_reference`, every per-layer metric whose unit in
BENCHMARK.json is s), so that traced runs on hosts of different speed
compare as perfbench's end-to-end times do.  The paper run goes in a
subprocess with single-threaded BLAS; the file records its wall time, its
peak RSS, its exit code and whether each reference file of tests/data/paper/
came out byte-identical.  Apart from the paper run nothing is timed here:
every other number is perfbench's.  The file is written to the root of the
checkout.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
TRACE_SEEDS = (1,)
# what the file keeps of a perfbench run record
RUN_KEYS = ("metrics", "raw_seconds", "host_speed", "provenance")
PAPER_FILES = ("tc1/study_rows.csv", "tc2/study_rows.csv", "ratio_tables.csv")
# 2: traced runs carry layers_at_reference
SCHEMA = 2


def git_commit(root=ROOT):
    """(sha, dirty): HEAD of the checkout and whether its tracked files differ
    from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                              text=True).stdout.strip()
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--untracked-files=no"))


def run_paper(root=ROOT):
    """Run `polyvem paper` on the checkout's sources in a subprocess with
    single-threaded BLAS.  It must be this process's first child: the peak
    RSS read from RUSAGE_CHILDREN is the largest of all children so far."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    with tempfile.TemporaryDirectory() as out:
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "polyvem.cli", "paper", "-o", out],
                              cwd=root, env=env, capture_output=True)
        wall = time.monotonic() - start
        identical = {}
        for name in PAPER_FILES:
            made, ref = Path(out) / name, root / "tests" / "data" / "paper" / name
            identical[name] = made.is_file() and made.read_bytes() == ref.read_bytes()
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"command": ["polyvem", "paper", "-o", "DIR"], "env": {"OPENBLAS_NUM_THREADS": "1"},
            "wall_s": wall, "peak_rss_mb": peak_kb / 1024.0, "exit_code": proc.returncode,
            "identical": identical}


def run_perfbench(workload, seed, seconds, trace, root=ROOT):
    """Run perfbench once and return its run record."""
    subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                   cwd=root, check=True, stdout=subprocess.DEVNULL)
    path = root / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def at_reference(rec, layer_seconds):
    """A traced run's per-layer seconds among `layer_seconds`, each scaled by
    the run's host speed to seconds at perfbench's reference speed."""
    return {name: value * rec["host_speed"] for name, value in rec["metrics"].items()
            if name in layer_seconds}


def build_record(label, commit, dirty, benchmark, records, paper, layer_seconds):
    """The BENCH file's contents from perfbench run records and the paper
    run: each run's kept keys, each traced run's `layer_seconds` metrics at
    the reference speed, and per workload the median of each untraced
    metric."""
    runs = [{"workload": rec["workload"], "seed": rec["seed"], "trace": rec["trace"],
             "seconds": rec["seconds"], "correct": not rec["problems"],
             "problems": rec["problems"], **{key: rec[key] for key in RUN_KEYS},
             **({"layers_at_reference": at_reference(rec, layer_seconds)}
                if rec["trace"] else {})}
            for rec in records]
    medians = {}
    for run in runs:
        if not run["trace"]:
            for name, value in run["metrics"].items():
                medians.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    return {"schema": SCHEMA, "label": label, "commit": commit, "dirty": dirty,
            "benchmark": benchmark,
            "median": {w: {name: statistics.median(v) for name, v in m.items()}
                       for w, m in medians.items()},
            "runs": runs, "paper": paper}


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].replace("_", "").replace("-", "").isalnum():
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    paper = run_paper()
    records = [run_perfbench(w, seed, seconds, trace)
               for trace, seeds in ((0, SEEDS), (1, TRACE_SEEDS))
               for seed in seeds for w in workloads]
    benchmark = {"command": spec["command"], "run_seconds": seconds,
                 "seeds": list(SEEDS), "trace_seeds": list(TRACE_SEEDS)}
    layer_seconds = {m["name"] for m in spec["per_layer"] if m["unit"] == "s"}
    record = build_record(args[0], *git_commit(), benchmark, records, paper, layer_seconds)
    path = ROOT / f"BENCH_{args[0]}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
