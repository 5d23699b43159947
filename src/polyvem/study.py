"""Convergence studies: energy errors, rates, ratio tables, CSV/JSON artifacts.

A study sweeps a mesh refinement ladder for one manufactured case, solves both
schemes at the requested orders, and records the relative energy error

    e* = sqrt(sum_E ||sqrt(K) grad(u - P_k u_h)||^2_E) / ||sqrt(K) grad u||_Omega

where P_k is the element energy projector of the assembled system (its dof
map and per-cell `pi_stars`), integrated cell by cell with the same data rule
as the load (`assembly.map_cells`), plus the convergence rate of the last two
errors and, for the standard scheme, the stabilization/consistency
norm ratio per level and its ladder average.  Artifacts are written with
full-precision floats so repeated runs are byte-identical.
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
                       map_cells, solve, stab_consistency_ratio)
from .basis import dim_poly
from .cases import TestCase, testcase
from .errors import PolyvemError
from .local import Method
from .mesh import DEFAULT_LLOYD_ITERS, FAMILIES, PolyMesh, generate_mesh


def convergence_rate(e_prev: float, e_last: float, h_prev: float, h_last: float) -> float:
    """Observed order from the last two errors: log(e ratio) / log(h ratio)."""
    if min(e_prev, e_last, h_prev, h_last) <= 0.0:
        raise ValueError("errors and mesh sizes must be positive")
    if h_prev <= h_last:
        raise ValueError(f"mesh sizes must decrease, got {h_prev} -> {h_last}")
    return math.log(e_prev / e_last) / math.log(h_prev / h_last)


def _energy(weights, grads, sqK) -> float:
    """Quadrature value of ||sqrt(K) g||^2 from the values g of a gradient."""
    wg = grads @ sqK.T
    return float(weights @ (wg * wg).sum(axis=1))


def energy_error(mesh: PolyMesh, system: SparseSystem, u_dofs: np.ndarray,
                 case: TestCase) -> float:
    """Relative energy-norm error of a dof solution against the exact case.

    The solution's energy projection on each cell comes from the assembled
    system's dof map and per-cell projector coefficients (`system.pi_stars`).
    """
    k = system.k
    sqK = case.K.sqrt_matrix()

    def cell(ci, E, rule):
        coeffs = system.pi_stars[ci] @ u_dofs[system.dof_map.cell_dofs[ci]]
        gh = np.tensordot(rule.monomial_grads(k), coeffs, axes=([1], [0]))  # (nq, 2)
        pts = rule.points(E)
        ge = np.column_stack(case.grad_u(pts[:, 0], pts[:, 1]))
        return _energy(rule.weights, ge - gh, sqK), _energy(rule.weights, ge, sqK)

    num = den = 0.0
    for cell_num, cell_den in map_cells(mesh, cell, data_order=k,
                                        y_wavelength=case.y_wavelength):
        num += cell_num
        den += cell_den
    if den <= 0.0:
        raise ValueError("exact solution has zero energy norm")
    return math.sqrt(num / den)


def exact_energy_norm(mesh: PolyMesh, case: TestCase, k: int = 1) -> float:
    """Quadrature value of ||sqrt(K) grad u|| over the mesh, with order-k data rules."""
    sqK = case.K.sqrt_matrix()

    def cell(ci, E, rule):
        pts = rule.points(E)
        ge = np.column_stack(case.grad_u(pts[:, 0], pts[:, 1]))
        return _energy(rule.weights, ge, sqK)

    total = 0.0
    for value in map_cells(mesh, cell, data_order=k, y_wavelength=case.y_wavelength):
        total += value
    return math.sqrt(total)


def interpolate_dofs(mesh: PolyMesh, k: int, func) -> np.ndarray:
    """Dof vector of the interpolant of a smooth function."""
    dm = build_dof_map(mesh, k)
    out = np.zeros(dm.n_total)
    out[:len(dm.nodes)] = func(*dm.nodes.T)
    n_mom = dim_poly(k - 2)
    if n_mom:
        def moments(ci, E, rule):
            pts = rule.points(E)
            fv = np.asarray(func(pts[:, 0], pts[:, 1]), dtype=float)
            out[dm.cell_dofs[ci][-n_mom:]] = \
                rule.monomials(k - 2).T @ (rule.weights * fv) / E.area

        map_cells(mesh, moments, data_order=k)
    return out


@dataclass
class CaseSolution:
    u_dofs: np.ndarray
    e_star: float
    report: object
    system: SparseSystem


def solve_case(mesh: PolyMesh, k: int, method: Method, case: TestCase) -> CaseSolution:
    """Assemble, apply Dirichlet data, solve, and measure the energy error.

    Cases flagged `zero_boundary` use homogeneous elimination; the polynomial
    patch cases interpolate their exact boundary values instead.
    """
    system = assemble(mesh, k, method, case.K, case.f,
                      y_wavelength=case.y_wavelength)
    dm = system.dof_map
    values = None if case.zero_boundary else case.u(*dm.nodes[dm.boundary_dofs].T)
    reduced = apply_dirichlet(system, values)
    report = solve(reduced)
    e_star = energy_error(mesh, system, report.solution, case)
    return CaseSolution(u_dofs=report.solution, e_star=e_star,
                        report=report, system=system)


# ---------------------------------------------------------------------------
# study driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StudyConfig:
    case_id: str
    orders: tuple = (1,)
    families: tuple = ("cartesian",)       # subset of FAMILIES
    levels: int = 0                        # 0 means the full default ladder
    rng_seed: int = 0
    lloyd_iters: int = DEFAULT_LLOYD_ITERS
    methods: tuple = (Method.STANDARD, Method.E2VEM)
    out_dir: Optional[str] = None

    def __post_init__(self):
        for fam in self.families:
            if fam not in FAMILIES:
                raise ValueError(f"unknown family {fam!r}")
        if any(k not in (1, 2, 3) for k in self.orders):
            raise ValueError("study orders are limited to {1, 2, 3}")


@dataclass
class StudyRow:
    family: str
    case: str
    method: str
    order: int
    level: int
    h_max: float
    n_dofs: int
    e_star: float
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


def ladder_for(family: str, levels: int = 0):
    """The first `levels` meshes of the family's ladder; 0 means all of it."""
    if levels < 0:
        raise ValueError(f"levels must be >= 0, got {levels}")
    base = FAMILIES[family]
    return base if levels == 0 else base[:levels]


def run_study(cfg: StudyConfig) -> StudyResult:
    """Run the full sweep described by `cfg`; write artifacts when out_dir set."""
    case = testcase(cfg.case_id)
    result = StudyResult(case=case.name)

    for family in cfg.families:
        ladder = ladder_for(family, cfg.levels)
        meshes = [generate_mesh(family, n, cfg.rng_seed, cfg.lloyd_iters)
                  for n in ladder]
        for order in cfg.orders:
            level_ratios = []
            for level, mesh in enumerate(meshes, start=1):
                for method in cfg.methods:
                    row = StudyRow(family=family, case=case.name,
                                   method=method.value, order=order, level=level,
                                   h_max=mesh.h_max, n_dofs=0, e_star=float("nan"))
                    try:
                        sol = solve_case(mesh, order, method, case)
                        row.n_dofs = sol.system.dof_map.n_total
                        row.e_star = sol.e_star
                        if method is Method.STANDARD:
                            ratio = stab_consistency_ratio(sol.system.a_s,
                                                           sol.system.a_pi)
                            row.stab_ratio = ratio
                            level_ratios.append(ratio)
                    except PolyvemError as exc:
                        row.note = f"solver failure: {exc}"
                    result.rows.append(row)
            if level_ratios:
                result.avg_stab_ratio[(family, order)] = \
                    sum(level_ratios) / len(level_ratios)
            for method in cfg.methods:
                _attach_rates(result.series(family, order, method))

    if cfg.out_dir:
        emit_plot_data(result, cfg.out_dir)
    return result


def _attach_rates(series):
    for prev, cur in zip(series, series[1:]):
        if (math.isfinite(prev.e_star) and math.isfinite(cur.e_star)
                and prev.e_star > 0 and cur.e_star > 0 and prev.h_max > cur.h_max):
            cur.alpha = convergence_rate(prev.e_star, cur.e_star,
                                         prev.h_max, cur.h_max)


def ratio_ladder(case_id: str, order: int, family: str, *, levels: int = 0,
                 rng_seed: int = 0, lloyd_iters: int = DEFAULT_LLOYD_ITERS):
    """Per-level stabilization/consistency norm ratios and their average.

    Only the standard scheme is assembled (no loads, no solves), which is all
    the ratio needs.
    """
    case = testcase(case_id)
    ratios = []
    for n in ladder_for(family, levels):
        mesh = generate_mesh(family, n, rng_seed, lloyd_iters)
        system = assemble(mesh, order, Method.STANDARD, case.K)
        ratios.append(stab_consistency_ratio(system.a_s, system.a_pi))
    return ratios, sum(ratios) / len(ratios)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


ROWS_HEADER = ["family", "case", "method", "order", "level", "h_max",
               "n_dofs", "e_star", "alpha", "stab_ratio", "note"]


def emit_plot_data(result: StudyResult, out_dir: str):
    """Write the study rows, per-figure series, rate summary and JSON digest."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    rows_path = os.path.join(out_dir, "study_rows.csv")
    with open(rows_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(ROWS_HEADER)
        for r in result.rows:
            w.writerow([r.family, r.case, r.method, r.order, r.level,
                        _fmt(r.h_max), r.n_dofs, _fmt(r.e_star),
                        _fmt(r.alpha), _fmt(r.stab_ratio), r.note])
    paths.append(rows_path)

    combos = sorted({(r.family, r.order) for r in result.rows})
    safe_case = result.case.replace(":", "")
    for family, order in combos:
        vem = result.series(family, order, Method.STANDARD)
        e2 = result.series(family, order, Method.E2VEM)
        by_level = {r.level: [None, None] for r in vem + e2}
        for r in vem:
            by_level[r.level][0] = r
        for r in e2:
            by_level[r.level][1] = r
        fig_path = os.path.join(out_dir, f"fig_{safe_case}_{family}_order{order}.csv")
        with open(fig_path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["h_max", "e_V", "e_W", "ratio_vw"])
            for level in sorted(by_level):
                rv, rw = by_level[level]
                h = rv.h_max if rv is not None else rw.h_max
                ev = rv.e_star if rv is not None else float("nan")
                ew = rw.e_star if rw is not None else float("nan")
                ratio = ev / ew if (math.isfinite(ev) and math.isfinite(ew)
                                    and ew > 0) else float("nan")
                w.writerow([_fmt(h), _fmt(ev), _fmt(ew), _fmt(ratio)])
        paths.append(fig_path)

    rates_path = os.path.join(out_dir, "rates_summary.csv")
    with open(rates_path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["family", "case", "order", "method", "alpha_final"])
        for family, order in combos:
            for method in (Method.STANDARD, Method.E2VEM):
                series = result.series(family, order, method)
                alpha = series[-1].alpha if series else None
                w.writerow([family, result.case, order, method.value, _fmt(alpha)])
    paths.append(rates_path)

    summary = {
        "case": result.case,
        "avg_stab_ratio": {
            f"{family}:order{order}": value
            for (family, order), value in sorted(result.avg_stab_ratio.items())
        },
        "final_alpha": {
            f"{family}:order{order}:{method.value}":
                (result.series(family, order, method)[-1].alpha
                 if result.series(family, order, method) else None)
            for family, order in combos
            for method in (Method.STANDARD, Method.E2VEM)
        },
    }
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(summary_path)
    return paths


def parse_rows_csv(path) -> list:
    """Read back a study_rows.csv; floats round-trip exactly."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            rows.append(StudyRow(
                family=rec["family"], case=rec["case"], method=rec["method"],
                order=int(rec["order"]), level=int(rec["level"]),
                h_max=float(rec["h_max"]), n_dofs=int(rec["n_dofs"]),
                e_star=float(rec["e_star"]),
                alpha=float(rec["alpha"]) if rec["alpha"] else None,
                stab_ratio=float(rec["stab_ratio"]) if rec["stab_ratio"] else None,
                note=rec["note"]))
    return rows
