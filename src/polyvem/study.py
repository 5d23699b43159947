"""Convergence studies and the paper run: energy errors, rates, ratio tables,
CSV/JSON artifacts.

A study sweeps a mesh refinement ladder for one manufactured case, solves both
schemes at the requested orders, and records the relative energy error

    e* = sqrt(sum_E ||sqrt(K) grad(u - P_k u_h)||^2_E) / ||sqrt(K) grad u||_Omega

where P_k is the element energy projector of the assembled system (its dof
map and `pi_stars`), plus the convergence rate of the last two
errors and, for the standard scheme, the stabilization/consistency
norm ratio per level and its ladder average.  On each mesh and order
`solve_cases` serves every scheme with one dof map, one data pass for the
source moments and one for the errors.  Both passes run block by block over
the mesh (`local.data_rules`), in array code with no loop over cells; the
gradient of a projection is mapped once per rule row to the rule's shared
monomial table, so the points see only the data and one product.
Artifacts are written with full-precision floats so repeated runs are
byte-identical.

A study is a list of units `(case_id, family, order, level)`, plain values.
`run_unit` solves one unit on its mesh and returns its rows; no unit reads
another's result.  One driver, `run_study`, checks its inputs, builds each
ladder mesh once, maps `run_unit` over the units of every study it is given
and then attaches the rates and ratio averages.  `polyvem study` runs it on
one study and `polyvem paper` on `PAPER_STUDIES`; the artifacts are written
from its results (`emit_plot_data`, `emit_ratio_tables`).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .assembly import (SparseSystem, apply_dirichlet, assemble, build_dof_map,
                       solve, source_moments, stab_consistency_ratio)
from .basis import monomial_derivatives
from .cases import TestCase, testcase
from .errors import PolyvemError, SolverError
from .local import Method, data_rules
from .mesh import FAMILIES, PolyMesh, generate_mesh


def convergence_rate(e_prev: float, e_last: float, h_prev: float,
                     h_last: float) -> Optional[float]:
    """Observed order from the last two errors, log(e ratio) / log(h ratio);
    None where it is undefined: an error that is not finite and positive,
    or mesh sizes that do not decrease."""
    if not (0.0 < e_prev < math.inf and 0.0 < e_last < math.inf and h_prev > h_last > 0.0):
        return None
    return math.log(e_prev / e_last) / math.log(h_prev / h_last)


def _energy(weights, gx, gy, Km) -> float:
    """Quadrature value of the integral of (K g, g) = K00 gx^2 + 2 K01 gx gy
    + K11 gy^2 from the values gx, gy of a gradient at the points of
    `weights`, arrays of one shape; K is read by its entries, as in
    `local._gradient_energy`.  numpy's pairwise sum, unlike a BLAS dot, adds
    in the same order whatever the BLAS thread count, and over the (R, q)
    planes of a data rule in the order of their flattened points."""
    density = Km[0, 0] * gx * gx + 2.0 * Km[0, 1] * gx * gy + Km[1, 1] * gy * gy
    return float((weights * density).sum())


def _energy_sums(mesh: PolyMesh, k: int, solved, case: TestCase) -> list:
    """One pass over the data blocks of order-k rules: the squared exact
    norm, then the squared energy error of each (system, u_dofs) in `solved`.

    The data are evaluated on each rule's (R, q) coordinate planes.  A
    projection's gradient is taken in the degree k-1 monomials of each
    cell and mapped to each rule row by the row's transfer, (R, n, 2), so
    the rule's one shared table serves every row and every solution."""
    Km = case.K.matrix
    # (n_cells, dim P_{k-1}, 2) coefficients of each projection's gradient
    grads = [np.einsum("dba,ca->cbd", monomial_derivatives(k), system.projections(u_dofs))
             / mesh.cell_diameters[:, None, None] for system, u_dofs in solved]
    sums = [0.0] * (len(solved) + 1)
    for rule in data_rules(mesh, k, case.y_wavelength):
        ux, uy = case.grad_u(rule.x, rule.y)
        sums[0] += _energy(rule.weights, ux, uy, Km)
        for j, g in enumerate(grads, start=1):
            coeffs = np.swapaxes(rule.transfer, -1, -2) @ g[rule.row_cells]
            gh = rule.table @ coeffs                        # (R, q, 2)
            sums[j] += _energy(rule.weights, ux - gh[..., 0], uy - gh[..., 1], Km)
    return sums


def energy_error(mesh: PolyMesh, solved, case: TestCase) -> list:
    """Relative energy-norm errors of the (system, u_dofs) pairs in `solved`.

    One pass over the mesh serves every pair; all are assembled on the mesh
    at one order.  A solution's energy projection on each cell comes from its
    system's dof map and projector coefficients (`SparseSystem.projections`).
    """
    den, *num = _energy_sums(mesh, solved[0][0].dof_map.k, solved, case)
    if den <= 0.0:
        raise ValueError("exact solution has zero energy norm")
    return [math.sqrt(n / den) for n in num]


@dataclass
class CaseSolution:
    e_star: float
    report: object
    system: SparseSystem


def solve_cases(mesh: PolyMesh, k: int, methods, case: TestCase) -> dict:
    """Solve several schemes on one mesh and order with shared data passes.

    One source pass feeds every scheme's load, one dof map numbers every
    scheme's system and one error pass measures every scheme that solved.
    Returns {method: CaseSolution, or the `PolyvemError` that stopped that
    scheme}; the error of a shared step is raised.  A `SolverError` of the
    stabilization-free scheme above order 1 ends with a note that the scheme
    is only guaranteed well-posed at order 1.
    """
    # the dof map checks the contract across cells before any data pass
    # integrates on the mesh
    dm = build_dof_map(mesh, k)
    source = source_moments(mesh, k, case.f, y_wavelength=case.y_wavelength)
    values = None if case.zero_boundary else case.u(*dm.nodes[dm.boundary_dofs].T)
    results = {}
    for method in methods:
        try:
            system = assemble(mesh, k, method, case.K, source, dof_map=dm)
            report = solve(apply_dirichlet(system, values))
        except PolyvemError as exc:
            if isinstance(exc, SolverError) and method is Method.E2VEM and k > 1:
                exc.args = (exc.args[0] + " (note: the stabilization-free scheme is only "
                            f"guaranteed well-posed at order 1; this run uses order {k})",)
            # kept without its traceback, whose frames would hold `results` in a
            # cycle, or the error it replaced, whose frames hold the failed step's
            # arrays (a failed factor after a MemoryError)
            exc.__context__ = None
            results[method] = exc.with_traceback(None)
            continue
        results[method] = CaseSolution(math.nan, report, system)
    solved = [sol for sol in results.values() if isinstance(sol, CaseSolution)]
    if solved:
        e_stars = energy_error(mesh, [(sol.system, sol.report.solution) for sol in solved], case)
        for sol, e_star in zip(solved, e_stars):
            sol.e_star = e_star
    return results


def solve_case(mesh: PolyMesh, k: int, method: Method, case: TestCase) -> CaseSolution:
    """Assemble, apply Dirichlet data, solve, and measure the energy error:
    the one-scheme case of `solve_cases`, which raises the scheme's failure."""
    sol = solve_cases(mesh, k, (method,), case)[method]
    if isinstance(sol, PolyvemError):
        raise sol
    return sol


# ---------------------------------------------------------------------------
# study driver
# ---------------------------------------------------------------------------

METHODS = (Method.STANDARD, Method.E2VEM)   # the schemes every study compares


@dataclass
class StudyRow:
    family: str
    case: str
    method: str
    order: int
    level: int
    h_max: float
    n_dofs: int = 0                        # 0 and NaN on a failed row
    e_star: float = math.nan
    alpha: Optional[float] = None
    stab_ratio: Optional[float] = None
    note: str = ""


@dataclass
class StudyResult:
    case: str
    rows: list = field(default_factory=list)
    avg_stab_ratio: dict = field(default_factory=dict)   # (family, order) -> float

    def series(self, family: str, order: int, method: Method):
        tag = method.value
        return [r for r in self.rows
                if r.family == family and r.order == order and r.method == tag]


def _failure(exc) -> PolyvemError:
    """The error a unit records for the `PolyvemError` or `MemoryError` `exc`,
    without the traceback whose frames hold the failed step's arrays; a
    `MemoryError` becomes a new `SolverError`, "out of memory (...)"."""
    if isinstance(exc, MemoryError):
        return SolverError(f"out of memory ({exc or 'allocation refused'})")
    return exc.with_traceback(None)


def run_unit(unit, mesh: PolyMesh) -> list:
    """The rows of the unit `(case_id, family, order, level)`, one per scheme
    of `METHODS`, solved on `mesh`, the family's level-th ladder mesh.  A
    scheme's failure goes in its row, a shared pass's failure in both, and a
    failure of the stabilization/consistency ratio in the standard row; a
    `MemoryError` in any of them reads "out of memory (...)".  Only scalars
    are returned, so the unit's systems are freed when it returns."""
    case_id, family, order, level = unit
    case = testcase(case_id)
    try:
        results = solve_cases(mesh, order, METHODS, case)
    except (PolyvemError, MemoryError) as exc:
        results = dict.fromkeys(METHODS, _failure(exc))
    rows = []
    for method, sol in results.items():
        row = StudyRow(family=family, case=case.name, method=method.value,
                       order=order, level=level, h_max=mesh.h_max)
        if method is Method.STANDARD and isinstance(sol, CaseSolution):
            try:
                row.stab_ratio = stab_consistency_ratio(sol.system)
            except (PolyvemError, MemoryError) as exc:
                sol = _failure(exc)
        if isinstance(sol, PolyvemError):
            row.note = f"solver failure: {sol}"
        else:
            row.n_dofs = sol.system.dof_map.n_total
            row.e_star = sol.e_star
        rows.append(row)
    return rows


# the paper's studies: each case with its orders, over every family
PAPER_STUDIES = (("tc1", (1, 3)), ("tc2", (1, 2)))


def run_study(studies, families, levels: int, rng_seed: int, lloyd_iters: int) -> dict:
    """{case_id: StudyResult} of the studies `(case_id, orders)` on the first
    `levels` meshes (0: all) of each family's ladder, each mesh built once.
    The inputs are checked before any mesh is built.  The units `(case_id,
    family, order, level)` run in that order; then each (family, order) of a
    study gets its rates and ladder-averaged stabilization ratio."""
    for name, values, allowed in [("families", families, tuple(FAMILIES)),
                                  *(("orders", orders, (1, 2, 3)) for _, orders in studies)]:
        if not values or len(set(values)) != len(values):
            raise ValueError(f"study {name} must be distinct and non-empty, got {values}")
        if not set(values) <= set(allowed):
            raise ValueError(f"study {name} are limited to {', '.join(map(str, allowed))}, "
                             f"got {values}")
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    results = {case_id: StudyResult(case=testcase(case_id).name) for case_id, _ in studies}
    ladders = {family: [generate_mesh(family, n, rng_seed, lloyd_iters)
                        for n in FAMILIES[family][:levels or None]]
               for family in families}
    units = [(case_id, family, order, level)
             for case_id, orders in studies for family, meshes in ladders.items()
             for order in orders for level in range(1, len(meshes) + 1)]
    unit_meshes = [ladders[family][level - 1] for _, family, _, level in units]
    for unit, rows in zip(units, map(run_unit, units, unit_meshes)):
        results[unit[0]].rows += rows
    for result in results.values():
        for family, order in dict.fromkeys((r.family, r.order) for r in result.rows):
            ratios = [r.stab_ratio for r in result.series(family, order, Method.STANDARD)
                      if r.stab_ratio is not None]
            if ratios:
                result.avg_stab_ratio[(family, order)] = sum(ratios) / len(ratios)
            for method in METHODS:
                _attach_rates(result.series(family, order, method))
    return results


def _attach_rates(series):
    for prev, cur in zip(series, series[1:]):
        cur.alpha = convergence_rate(prev.e_star, cur.e_star, prev.h_max, cur.h_max)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return "" if value is None else repr(value)


ROWS_HEADER = ["family", "case", "method", "order", "level", "h_max",
               "n_dofs", "e_star", "alpha", "stab_ratio", "note"]


def emit_plot_data(result: StudyResult, out_dir: str):
    """Write the study rows, per-figure series, rate summary and JSON digest."""
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "study_rows.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(ROWS_HEADER)
        for r in result.rows:
            w.writerow([r.family, r.case, r.method, r.order, r.level,
                        _fmt(r.h_max), r.n_dofs, _fmt(r.e_star),
                        _fmt(r.alpha), _fmt(r.stab_ratio), r.note])

    combos = sorted({(r.family, r.order) for r in result.rows})
    safe_case = result.case.replace(":", "")
    for family, order in combos:
        with open(os.path.join(out_dir, f"fig_{safe_case}_{family}_order{order}.csv"), "w",
                  newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["h_max", "e_V", "e_W", "ratio_vw"])
            # run_unit writes one row per scheme, and the units run in level order
            for rv, rw in zip(result.series(family, order, Method.STANDARD),
                              result.series(family, order, Method.E2VEM)):
                ev, ew = rv.e_star, rw.e_star
                ratio = ev / ew if (math.isfinite(ev) and math.isfinite(ew)
                                    and ew > 0) else float("nan")
                w.writerow([_fmt(rv.h_max), _fmt(ev), _fmt(ew), _fmt(ratio)])

    final_alpha = {(family, order, method): result.series(family, order, method)[-1].alpha
                   for family, order in combos for method in METHODS}
    with open(os.path.join(out_dir, "rates_summary.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["family", "case", "order", "method", "alpha_final"])
        for (family, order, method), alpha in final_alpha.items():
            w.writerow([family, result.case, order, method.value, _fmt(alpha)])

    summary = {
        "case": result.case,
        "avg_stab_ratio": {
            f"{family}:order{order}": value
            for (family, order), value in sorted(result.avg_stab_ratio.items())
        },
        "final_alpha": {f"{family}:order{order}:{method.value}": alpha
                        for (family, order, method), alpha in final_alpha.items()},
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_ratio_tables(results: dict, out_dir: str):
    """Write ratio_tables.csv from the standard-scheme rows of each case's
    study ({case_id: StudyResult}): one row per (case, family, order) with the
    ladder-averaged stabilization/consistency ratio, then the ratio of each
    level (empty for a failed level)."""
    path = os.path.join(out_dir, "ratio_tables.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["case", "family", "order", "avg_ratio", "per_level..."])
        for case_id, result in results.items():
            # study rows run family by family, order by order
            for family, order in dict.fromkeys((r.family, r.order) for r in result.rows):
                w.writerow([case_id, family, order,
                            _fmt(result.avg_stab_ratio.get((family, order)))]
                           + [_fmt(r.stab_ratio)
                              for r in result.series(family, order, Method.STANDARD)])
