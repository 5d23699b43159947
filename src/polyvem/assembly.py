"""Global dof numbering, sparse assembly, Dirichlet elimination and SPD solve.

Vertex dofs come first, then k-1 dofs per mesh edge (ordered along the edge by
ascending global vertex index, so adjacent cells agree), then the per-cell
moment dofs blocked after everything else.  The consistency and stabilization
parts of the stiffness matrix are accumulated separately so their norms can be
compared after assembly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg, splu

from .basis import dim_poly, eval_monomials, polygon_quadrature
from .errors import PolyvemError, SolverError
from .local import (DiffusionTensor, Method, build_projection_pack,
                    local_load, local_stiffness)
from .mesh import NonConformingMeshError, PolyMesh

log = logging.getLogger(__name__)

RESIDUAL_RTOL = 1e-10
CG_RTOL = 1e-12


@dataclass
class GlobalDofMap:
    k: int
    n_vertex_dofs: int
    n_edge_dofs: int
    n_moment_dofs: int
    n_total: int
    cell_dofs: list                      # per cell, local -> global index array
    boundary_dofs: np.ndarray            # sorted vertex/edge dofs on the boundary
    free_dofs: np.ndarray


def build_dof_map(mesh: PolyMesh, k: int) -> GlobalDofMap:
    """Global numbering for order k on a conforming mesh."""
    from .mesh import _on_square_side

    for eid, adj in enumerate(mesh.edge_cells):
        a, b = mesh.edges[eid]
        bad = (len(adj) > 2
               or (len(adj) == 2 and adj[0][1] == adj[1][1])
               or (len(adj) == 1
                   and not _on_square_side(mesh.vertices[a], mesh.vertices[b])))
        if bad:
            raise NonConformingMeshError(
                f"edge ({a},{b}) breaks conformity; run validate_mesh for details")

    nv, ne, nc = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    n_edge = ne * (k - 1)
    n_mom_per = dim_poly(k - 2)
    n_total = nv + n_edge + nc * n_mom_per
    mom_base = nv + n_edge

    cell_dofs = []
    for ci, cell in enumerate(mesh.cells):
        m = len(cell)
        ids = list(map(int, cell))
        for e_loc in range(m):
            a, b = int(cell[e_loc]), int(cell[(e_loc + 1) % m])
            eid = mesh.edge_index[(a, b) if a < b else (b, a)]
            base = nv + eid * (k - 1)
            span = range(base, base + k - 1)
            # interior edge nodes are symmetric in the edge parameter, so the
            # reversed traversal is exactly the reversed index range
            ids.extend(span if a < b else reversed(span))
        ids.extend(range(mom_base + ci * n_mom_per, mom_base + (ci + 1) * n_mom_per))
        cell_dofs.append(np.array(ids, dtype=int))

    bset = set(np.nonzero(mesh.boundary_vertex_flags)[0].tolist())
    for eid, is_b in enumerate(mesh.boundary_edge_flags):
        if is_b:
            base = nv + eid * (k - 1)
            bset.update(range(base, base + k - 1))
    boundary = np.array(sorted(bset), dtype=int)
    mask = np.ones(n_total, dtype=bool)
    mask[boundary] = False
    return GlobalDofMap(k=k, n_vertex_dofs=nv, n_edge_dofs=n_edge,
                        n_moment_dofs=nc * n_mom_per, n_total=n_total,
                        cell_dofs=cell_dofs, boundary_dofs=boundary,
                        free_dofs=np.nonzero(mask)[0])


@dataclass
class SparseSystem:
    a: sp.csr_matrix
    a_pi: sp.csr_matrix
    a_s: sp.csr_matrix
    b: np.ndarray
    dof_map: GlobalDofMap
    k: int
    method: Method
    pi_stars: list                       # per cell, energy projector coefficients


def _congruent_to(geom, ref_geom, tol=1e-9):
    if geom.n_vertices != ref_geom.n_vertices:
        return False
    rel = geom.verts - geom.centroid
    rel_ref = ref_geom.verts - ref_geom.centroid
    return bool(np.abs(rel - rel_ref).max() <= tol * max(ref_geom.diameter, 1e-300))


def assemble(mesh: PolyMesh, k: int, method: Method, K: DiffusionTensor,
             f=None, *, y_wavelength=None) -> SparseSystem:
    """Scatter-add of the local stiffness matrices and loads over the mesh.

    With `f` omitted only the matrices are built (enough for norm studies).
    On meshes whose cells are congruent translates (the cartesian family) the
    element matrices are built once and reused; the reuse is verified per cell
    against the reference geometry, never assumed.  A `PolyvemError` raised
    while building a cell leaves with that cell's index set on it.
    """
    dm = build_dof_map(mesh, k)
    max_y = y_wavelength / 2.0 if y_wavelength else None

    rows, cols, vals_pi, vals_s = [], [], [], []
    b = np.zeros(dm.n_total)
    pi_stars = []

    ci = 0
    try:
        cache = None
        if mesh.congruent_cells and K.constant:
            ref_geom = mesh.cell_geom(0)
            ref_pack = build_projection_pack(ref_geom, k, method)
            ref_stiff = local_stiffness(ref_geom, k, method, K, pack=ref_pack)
            rel_pts = Vw = None
            if f is not None:
                ref_quad = polygon_quadrature(ref_geom, 2 * k + 6, max_y_extent=max_y)
                rel_pts = ref_quad.points - ref_geom.centroid
                Vw = eval_monomials(ref_geom, ref_quad.points, k - 1).T * ref_quad.weights
            cache = (ref_geom, ref_pack, ref_stiff, rel_pts, Vw)

        for ci in range(mesh.n_cells):
            geom = mesh.cell_geom(ci)
            if cache is not None and _congruent_to(geom, cache[0]):
                _, pack, stiff, rel_pts, Vw = cache
                if f is not None:
                    pts = rel_pts + geom.centroid
                    fm = Vw @ np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float)
                    load = pack.pi0_val.T @ fm
                else:
                    load = None
            else:
                pack = build_projection_pack(geom, k, method)
                stiff = local_stiffness(geom, k, method, K, pack=pack)
                load = None
                if f is not None:
                    load = local_load(geom, k, f, pack.pi0_val, max_y_extent=max_y)
            idx = dm.cell_dofs[ci]
            n = idx.size
            rows.append(np.repeat(idx, n))
            cols.append(np.tile(idx, n))
            vals_pi.append(stiff.a_pi.ravel())
            vals_s.append(stiff.a_s.ravel())
            if load is not None:
                b[idx] += load
            pi_stars.append(pack.pi_star)
    except PolyvemError as exc:
        exc.cell = ci
        raise

    shape = (dm.n_total, dm.n_total)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    a_pi = sp.coo_matrix((np.concatenate(vals_pi), (rows, cols)), shape=shape).tocsr()
    a_s = sp.coo_matrix((np.concatenate(vals_s), (rows, cols)), shape=shape).tocsr()
    return SparseSystem(a=(a_pi + a_s).tocsr(), a_pi=a_pi, a_s=a_s, b=b,
                        dof_map=dm, k=k, method=method, pi_stars=pi_stars)


# ---------------------------------------------------------------------------
# boundary conditions and solve
# ---------------------------------------------------------------------------

@dataclass
class ReducedSystem:
    a_ff: sp.csr_matrix
    b_f: np.ndarray
    free_dofs: np.ndarray
    fixed_dofs: np.ndarray
    fixed_values: np.ndarray
    n_total: int
    k: int
    method: Method


def apply_dirichlet(system: SparseSystem, boundary_values=None) -> ReducedSystem:
    """Eliminate boundary dofs symmetrically, moving known values to the rhs."""
    dm = system.dof_map
    free, fixed = dm.free_dofs, dm.boundary_dofs
    if boundary_values is None:
        vals = np.zeros(fixed.size)
    else:
        vals = np.asarray(boundary_values, dtype=float)
        if vals.shape != (fixed.size,):
            raise ValueError(f"expected {fixed.size} boundary values, got {vals.shape}")
    a_free = system.a[free]
    a_ff = a_free[:, free].tocsr()
    b_f = system.b[free]
    if vals.size and np.any(vals):
        b_f = b_f - a_free[:, fixed] @ vals
    return ReducedSystem(a_ff=a_ff, b_f=b_f, free_dofs=free, fixed_dofs=fixed,
                         fixed_values=vals, n_total=dm.n_total,
                         k=system.k, method=system.method)


@dataclass
class SolveReport:
    solution: np.ndarray
    solver: str
    iterations: int
    residual: float
    spd_ok: Optional[bool]


def _embed(reduced: ReducedSystem, x_free) -> np.ndarray:
    x = np.zeros(reduced.n_total)
    x[reduced.free_dofs] = x_free
    if reduced.fixed_values.size:
        x[reduced.fixed_dofs] = reduced.fixed_values
    return x


def _wellposedness_note(reduced: ReducedSystem) -> str:
    if reduced.method is Method.E2VEM and reduced.k > 1:
        return (" (note: the stabilization-free scheme is only guaranteed "
                f"well-posed at order 1; this run uses order {reduced.k})")
    return ""


def solve(reduced: ReducedSystem) -> SolveReport:
    """Direct symmetric factorization with a verified residual.

    The LU factorization runs in symmetric mode without off-diagonal pivoting,
    so for an SPD matrix all pivots are positive; that sign pattern is the
    reported SPD check.  If the factorization fails or the residual exceeds
    1e-10 relative, diagonally preconditioned conjugate gradients take over.
    """
    n = reduced.free_dofs.size
    if n == 0:
        return SolveReport(solution=_embed(reduced, np.zeros(0)), solver="trivial",
                           iterations=0, residual=0.0, spd_ok=True)
    A = reduced.a_ff
    b = reduced.b_f
    bnorm = float(np.linalg.norm(b))

    x = None
    spd_ok = None
    solver = "splu"
    try:
        lu = splu(A.tocsc(), diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
        x = lu.solve(b)
        spd_ok = bool(np.all(lu.U.diagonal() > 0.0))
    except RuntimeError as exc:
        log.warning("sparse factorization failed (%s), falling back to CG", exc)

    def _residual(v):
        return float(np.linalg.norm(A @ v - b))

    if x is None or not np.all(np.isfinite(x)) or _residual(x) > RESIDUAL_RTOL * max(bnorm, 1e-300):
        solver = "cg"
        diag = A.diagonal()
        if np.any(diag <= 0):
            raise SolverError(
                "system matrix has non-positive diagonal entries; cannot "
                "precondition" + _wellposedness_note(reduced))
        M = sp.diags(1.0 / diag)
        count = {"it": 0}

        def cb(_):
            count["it"] += 1

        x, info = cg(A, b, rtol=CG_RTOL, atol=0.0, maxiter=20 * n, M=M, callback=cb)
        if info != 0 or _residual(x) > RESIDUAL_RTOL * max(bnorm, 1e-300):
            raise SolverError(
                f"conjugate gradients did not converge (info={info}, "
                f"residual={_residual(x):.3e})" + _wellposedness_note(reduced))
        return SolveReport(solution=_embed(reduced, x), solver=solver,
                           iterations=count["it"], residual=_residual(x),
                           spd_ok=spd_ok)

    return SolveReport(solution=_embed(reduced, x), solver=solver, iterations=0,
                       residual=_residual(x), spd_ok=spd_ok)


def infinity_norm(A: sp.spmatrix) -> float:
    """Maximum absolute row sum."""
    if A.shape[0] == 0:
        return 0.0
    return float(np.abs(A).sum(axis=1).max())


def stab_consistency_ratio(a_s: sp.spmatrix, a_pi: sp.spmatrix) -> float:
    """Ratio of infinity norms of the stabilization and consistency parts.

    Computed on the full assembled matrices before boundary elimination.
    Raises for an identically zero stabilization part (stabilization-free
    assembly) or a zero consistency norm.
    """
    ns = infinity_norm(a_s)
    if ns == 0.0:
        raise ValueError("stabilization part is identically zero; "
                         "the ratio is only defined for the standard scheme")
    np_ = infinity_norm(a_pi)
    if np_ == 0.0:
        raise ValueError("consistency part has zero norm")
    return ns / np_
