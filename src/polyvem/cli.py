"""Command-line interface: mesh generation, single solves, studies, the paper run.

Exit codes: 0 success, 2 bad input (a mesh that breaks the contract across
cells included, and a mesh size or order that needs more memory than there
is), 3 solver failure; a `PolyvemError` exits with its own `exit_code` (see
errors.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .cases import testcase
from .errors import PolyvemError
from .local import Method
from .mesh import (DEFAULT_LLOYD_ITERS, FAMILIES, check_cross_cell, generate_mesh,
                   load_mesh, save_mesh)
from .study import PAPER_STUDIES, emit_plot_data, emit_ratio_tables, run_study, solve_case


def _build_parser():
    p = argparse.ArgumentParser(prog="polyvem",
                                description="Polygonal virtual element solvers "
                                            "and convergence studies")
    sub = p.add_subparsers(dest="command", required=True)

    pm = sub.add_parser("mesh", help="generate a mesh and write the text format")
    pm.add_argument("--family", choices=list(FAMILIES), required=True)
    pm.add_argument("--n", type=int, required=True,
                    help="cells per side (cartesian) or cell count (voronoi)")
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument("--lloyd-iters", type=int, default=DEFAULT_LLOYD_ITERS)
    pm.add_argument("-o", "--output", required=True)

    ps = sub.add_parser("solve", help="solve one case on a mesh file")
    ps.add_argument("--mesh", required=True)
    ps.add_argument("--method", choices=["vem", "e2vem"], required=True)
    ps.add_argument("--order", type=int, required=True)
    ps.add_argument("--case", required=True, help="tc1 | tc2 | patch:<k>")
    ps.add_argument("-o", "--output", required=True, help="JSON output path")

    pt = sub.add_parser("study", help="run a refinement study and write CSV/JSON")
    pt.add_argument("--case", required=True)
    pt.add_argument("--orders", required=True, help="comma list, e.g. 1,3")
    pt.add_argument("--family", choices=[*FAMILIES, "both"],
                    required=True)
    pt.add_argument("--levels", type=int, default=0,
                    help="ladder prefix length (0 = full ladder)")
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--lloyd-iters", type=int, default=DEFAULT_LLOYD_ITERS)
    pt.add_argument("-o", "--output", required=True, help="output directory")

    pp = sub.add_parser("paper", help="run every study of the paper on one set of "
                                      "ladder meshes and write its ratio tables")
    pp.add_argument("--levels", type=int, default=0,
                    help="ladder prefix length (0 = full ladder)")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("-o", "--output", required=True, help="output directory")
    return p


def _families(arg):
    return tuple(FAMILIES) if arg == "both" else (arg,)


def _cmd_mesh(args):
    mesh = generate_mesh(args.family, args.n, args.seed, args.lloyd_iters)
    check_cross_cell(mesh)
    save_mesh(mesh, args.output)
    print(f"wrote {args.output}: {mesh.n_cells} cells, {mesh.n_vertices} vertices, "
          f"h_max={mesh.h_max!r}")
    return 0


def _cmd_solve(args):
    mesh = load_mesh(args.mesh)
    case = testcase(args.case)
    method = Method.parse(args.method)
    sol = solve_case(mesh, args.order, method, case)
    payload = {
        "case": case.name,
        "method": method.value,
        "order": args.order,
        "mesh_file": args.mesh,
        "n_cells": mesh.n_cells,
        "h_max": mesh.h_max,
        "n_dofs": sol.system.dof_map.n_total,
        "e_star": sol.e_star,
        "solver": sol.report.solver,
        "residual": sol.report.residual,
        "spd_ok": sol.report.spd_ok,
        "ordering": sol.report.ordering,
        "fill_nnz": sol.report.fill_nnz,
        "solution": sol.report.solution.tolist(),
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    print(f"e_star={sol.e_star!r} ({case.name}, {method.value}, order {args.order})")
    return 0


def _report_study(name, result, out_dir) -> int:
    """Print a study's row count and ratio averages; return its failure count."""
    failures = sum(1 for r in result.rows if r.note)
    print(f"study {name}: {len(result.rows)} rows -> {out_dir}"
          + (f" ({failures} solver failures)" if failures else ""))
    for key, value in sorted(result.avg_stab_ratio.items()):
        print(f"avg stab/consistency ratio {key[0]} order {key[1]}: {value:.4f}")
    return failures


def _cmd_study(args):
    orders = tuple(int(tok) for tok in args.orders.split(",") if tok.strip())
    result = run_study([(args.case, orders)], _families(args.family), args.levels,
                       args.seed, args.lloyd_iters)[args.case]
    emit_plot_data(result, args.output)
    return 3 if _report_study(args.case, result, args.output) else 0


def _cmd_paper(args):
    results = run_study(PAPER_STUDIES, tuple(FAMILIES), args.levels, args.seed,
                        DEFAULT_LLOYD_ITERS)
    failures = 0
    for case_id, result in results.items():
        out_dir = os.path.join(args.output, case_id)
        emit_plot_data(result, out_dir)
        failures += _report_study(case_id, result, out_dir)
    emit_ratio_tables(results, args.output)
    print(f"wrote {os.path.join(args.output, 'ratio_tables.csv')}")
    return 3 if failures else 0


_COMMANDS = {"mesh": _cmd_mesh, "solve": _cmd_solve,
             "study": _cmd_study, "paper": _cmd_paper}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (PolyvemError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, PolyvemError) else 2
    except MemoryError as exc:
        # an array sized by a mesh or order the user gave; the sparse solve's
        # own MemoryError is a SolverError
        print(f"error: out of memory ({exc or 'allocation refused'})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
