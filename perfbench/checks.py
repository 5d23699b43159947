"""Output checks of one benchmark run.

references.json holds what each operation returned at the commit that
recorded it, per workload and seed: the energy error `e_star`, the global
dof count and the exact counts of a traced pass, or the failure the
operation raised (exception class and cell).  The cartesian workload has no
seed, so its reference is stored once, under "*".

An operation fails when it raises, returns a wrong answer, or a study exits
non-zero.  A failure that the reference also recorded still counts as
failed, but it is not a wrong answer.  An operation whose reference is a
failure counts as succeeded only if its solution passes the residual and SPD
checks.

The counts of a traced pass are of two kinds.  PROBLEM_COUNTS are fixed by
the problem and are always compared with the reference.  The others count
work the implementation does (packs, element contexts, quadrature points,
matrix nonzeros), which an optimisation may change; they are compared with
the reference only when the sources are the ones that recorded it, and
otherwise only checked to repeat between traced passes of the run.
"""

import json

REL_TOL = 1e-8          # e_star against the reference
RESIDUAL_RTOL = 1e-10   # report.residual against ||b|| of the reduced system
PROBLEM_COUNTS = ("mesh.cells", "assembly.n_free")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_ops(refs, workload, mesh_seed):
    seeds = refs["workloads"][workload]["seeds"]
    return seeds.get("*") or seeds[str(mesh_seed)]


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _check_solve(out, ref):
    """(succeeded, problems) of one solve_case operation."""
    problems = []
    if "error" in out:
        got = (out["error"], out["cell"])
        if "error" not in ref:
            problems.append(f"raised {got}, the reference solved it")
        elif got != (ref["error"], ref["cell"]):
            problems.append(f"raised {got}, the reference raised {(ref['error'], ref['cell'])}")
        return False, problems
    if not out["residual"] <= RESIDUAL_RTOL * out["b_norm"]:
        problems.append(f"residual {out['residual']:.3e} > {RESIDUAL_RTOL} * ||b|| "
                        f"({out['b_norm']:.3e})")
    if out["op"].startswith("vem ") and out["spd_ok"] is not True:
        problems.append("standard-scheme matrix not reported SPD")
    if "error" not in ref:
        if not _rel(out["e_star"], ref["e_star"]) <= REL_TOL:
            problems.append(f"e_star {out['e_star']!r} != reference {ref['e_star']!r}")
        if out["dofs"] != ref["dofs"] or out["cells"] != ref["cells"]:
            problems.append(f"problem size {out['dofs']} dofs / {out['cells']} cells != "
                            f"reference {ref['dofs']} / {ref['cells']}")
    return not problems, problems


def _check_study(out, ref):
    if "error" in out:
        return False, [f"study raised {out['error']}: {out['message']}"]
    problems = []
    if out["exit_code"] != 0:
        problems.append(f"study exit code {out['exit_code']}")
    rows = out["rows"]
    if len(rows) != len(ref["rows"]):
        problems.append(f"{len(rows)} study rows, the reference has {len(ref['rows'])}")
    for r, (row, want) in enumerate(zip(rows, ref["rows"])):
        if row["note"]:
            problems.append(f"study row {r}: {row['note']}")
            continue
        keys = ("family", "method", "order", "level", "n_dofs")
        if any(row[k] != want[k] for k in keys) or not _rel(row["e_star"], want["e_star"]) <= REL_TOL:
            problems.append(f"study row {r}: {row} != reference {want}")
    return not problems, problems


def _same_outcome(a, b):
    if "rows" in a or "rows" in b:
        return a.get("rows") == b.get("rows") and a.get("exit_code") == b.get("exit_code")
    if "error" in a or "error" in b:
        return (a.get("error"), a.get("cell")) == (b.get("error"), b.get("cell"))
    return a["e_star"] == b["e_star"] and a["dofs"] == b["dofs"]


def check_run(refs, workload, mesh_seed, passes, meshes_identical, same_source):
    """Return (attempted, failed, problems) of one run; mark each op "ok".

    `same_source` tells whether the sources are those that recorded the
    references, so that the implementation counts must equal them too.
    """
    ref_ops = reference_ops(refs, workload, mesh_seed)
    attempted = failed = 0
    problems = [] if meshes_identical else ["repeated set-up built different meshes"]
    for p in passes:
        for i, out in enumerate(p["ops"]):
            attempted += 1
            ref = ref_ops[i]
            if out["op"].startswith("study"):
                ok, probs = _check_study(out, ref)
            else:
                ok, probs = _check_solve(out, ref)
            out["ok"] = ok
            failed += not ok
            problems += [f"{out['op']}: {msg}" for msg in probs]
            if "counts" in out:
                for key, want in ref["counts"].items():
                    if not same_source and key not in PROBLEM_COUNTS:
                        continue
                    if out["counts"].get(key) != want:
                        problems.append(f"{out['op']}: count {key} = "
                                        f"{out['counts'].get(key)}, reference {want}")
    # the same inputs must give the same outputs and counts on every pass
    first = passes[0]["ops"]
    traced = [p for p in passes if p["traced"]]
    for p in passes[1:]:
        for a, b in zip(first, p["ops"]):
            if not _same_outcome(a, b):
                problems.append(f"{a['op']}: output differs between passes of one run")
    for p in traced[1:]:
        for a, b in zip(traced[0]["ops"], p["ops"]):
            if a["counts"] != b["counts"]:
                problems.append(f"{a['op']}: counts differ between traced passes")
    return attempted, failed, problems
