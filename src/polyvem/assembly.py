"""Global dof numbering, sparse assembly, Dirichlet elimination and SPD solve.

Vertex dofs come first, then k-1 dofs per mesh edge (ordered along the edge by
ascending global vertex index, so adjacent cells agree), then the per-cell
moment dofs blocked after everything else.  `build_dof_map` is the one place
this numbering is made; it groups the cells by vertex count, each group's
dofs one (cells, local dofs) table, and its `nodes` give the point of every
vertex and edge dof.  The scatter and the source pass go by groups and by
blocks of cells, not cell by cell.  The consistency and stabilization parts
of the stiffness matrix are the stored matrices, on one shared sparse
pattern, so their norms can be compared after assembly; their sum, the
matrix that is solved, is formed when it is read.  Only `assemble` knows the
scheme: the Dirichlet elimination and the solve know only the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .basis import dim_poly, edge_rules
from .errors import PolyvemError, SolverError
from .local import DiffusionTensor, Method, data_rules, element_matrices, local_load
from .mesh import NonConformingMeshError, PolyMesh, edge_conformity_violations

RESIDUAL_RTOL = 1e-10
# Cells per element stack.  On Voronoi-1024 at orders 1-3, stacks of this
# size built the elements within a few per cent of the time of whole
# vertex-count groups, while the quadrature tables of a stack stay at a few MB
# (a 697-cell stack of stabilization-free order-2 hexagons peaked at 42 MB).
STACK_CELLS = 256
# Symmetric minimum-degree ordering on the pattern of A+A^T: the ordering
# SuperLU pairs with symmetric mode and no off-diagonal pivoting.  On the
# cartesian 128 k=3 system it leaves a third of COLAMD's L+U fill.
ORDERING = "MMD_AT_PLUS_A"


@dataclass
class GlobalDofMap:
    k: int
    n_total: int
    # cells grouped by vertex count, so by local dof count N: (cells (n_g,),
    # ascending, and their global dofs (n_g, N) in local dof order)
    groups: list
    boundary_dofs: np.ndarray            # sorted vertex/edge dofs on the boundary
    free_dofs: np.ndarray
    nodes: np.ndarray                    # (n, 2) point of each of the n vertex/edge dofs


def build_dof_map(mesh: PolyMesh, k: int) -> GlobalDofMap:
    """Global numbering for order k on a conforming mesh."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    bad = next(edge_conformity_violations(mesh), None)
    if bad is not None:
        raise NonConformingMeshError(f"{bad.where} breaks conformity: {bad.detail}; "
                                     "run validate_mesh for details")

    nv, ne, nc = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    n_edge = ne * (k - 1)
    n_mom_per = dim_poly(k - 2)
    n_total = nv + n_edge + nc * n_mom_per
    edge_dofs = nv + np.arange(n_edge).reshape(ne, k - 1)
    moment_dofs = nv + n_edge + np.arange(nc * n_mom_per).reshape(nc, n_mom_per)

    ids, starts = mesh.flat_cells
    edge_ids, against = mesh.cell_sides
    n_verts = np.diff(starts)
    groups = []
    for m in np.unique(n_verts):
        cells = np.flatnonzero(n_verts == m)
        sides = starts[cells][:, None] + np.arange(m)                 # (n_g, m)
        dofs = edge_dofs[edge_ids[sides]]
        # interior edge nodes are symmetric in the edge parameter, so the
        # reversed traversal is exactly the reversed index range
        dofs = np.where(against[sides][..., None], dofs[..., ::-1], dofs)
        groups.append((cells, np.hstack([ids[sides], dofs.reshape(cells.size, -1),
                                         moment_dofs[cells]])))

    # edge dof j of edge (a, b), a < b, sits at interior Lobatto parameter j from a
    inner = edge_rules(k, 1)[0][1:-1]
    tail, head = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
    edge_nodes = tail[:, None, :] + inner[None, :, None] * (head - tail)[:, None, :]
    nodes = np.vstack([mesh.vertices, edge_nodes.reshape(-1, 2)])

    boundary = np.concatenate([np.nonzero(mesh.boundary_vertex_flags)[0],
                               edge_dofs[mesh.boundary_edge_flags].ravel()])
    mask = np.ones(n_total, dtype=bool)
    mask[boundary] = False
    return GlobalDofMap(k=k, n_total=n_total, groups=groups, boundary_dofs=boundary,
                        free_dofs=np.nonzero(mask)[0], nodes=nodes)


@dataclass
class SparseSystem:
    a_pi: sp.csr_matrix
    a_s: sp.csr_matrix
    b: np.ndarray
    dof_map: GlobalDofMap
    # per group of dof_map.groups, the energy projector coefficients of its
    # cells, (n_g, dim P_k, N); (1, dim P_k, N) serves every cell of a
    # congruent mesh
    pi_stars: list

    def projections(self, u_dofs) -> np.ndarray:
        """(n_cells, dim P_k) monomial coefficients of the energy projection
        of the dof vector `u_dofs` on every cell."""
        groups = self.dof_map.groups
        out = np.empty((sum(cells.size for cells, _ in groups), self.pi_stars[0].shape[1]))
        for (cells, dofs), pi_star in zip(groups, self.pi_stars):
            out[cells] = (pi_star @ u_dofs[dofs][..., None])[..., 0]
        return out

    @property
    def a(self) -> sp.csr_matrix:
        """The stiffness matrix a_pi + a_s: `a_pi` itself when `a_s` has no
        stored entries (the stabilization-free scheme scatters none), else
        the sum of the parts' data on their shared pattern, formed at each
        read."""
        if not self.a_s.nnz:
            return self.a_pi
        return sp.csr_matrix((self.a_pi.data + self.a_s.data, self.a_pi.indices,
                              self.a_pi.indptr), shape=self.a_pi.shape)


def map_cells(mesh: PolyMesh, stacks, visit) -> list:
    """[visit(mesh.cell_geom(cells)) for cells in stacks], each `cells` an
    index array of cells that share a vertex count.

    This is the loop of element construction: it goes by stacks, not cells.
    If a visit raises a `PolyvemError`, the error of the lowest-numbered
    failing cell of all stacks leaves, naming that cell.  An error that
    names a cell (from the stack's `cells`) has the cells below it visited
    again to find any lower one; a stack that failed as a whole is halved
    until one cell fails, and that cell is set on its error.  Only the
    failure path visits a cell twice.
    """
    out = []
    for i, cells in enumerate(stacks):
        try:
            out.append(visit(mesh.cell_geom(cells)))
        except PolyvemError as exc:
            exc = _first_failure(mesh, cells, visit, exc)
            for later in stacks[i + 1:]:
                exc = _first_failure(mesh, later[later < exc.cell], visit) or exc
            raise exc
    return out


def _first_failure(mesh: PolyMesh, cells, visit, exc=None):
    """The error of the lowest-numbered cell of `cells` whose visit fails,
    naming that cell, or None if none fails; `exc` is the error of visiting
    all of `cells`, if that is already known."""
    if exc is None:
        if not cells.size:
            return None
        try:
            visit(mesh.cell_geom(cells))
            return None
        except PolyvemError as err:
            exc = err
    if exc.cell is not None:
        return _first_failure(mesh, cells[cells < exc.cell], visit) or exc
    if cells.size == 1:
        exc.cell = int(cells[0])
        return exc
    half = cells.size // 2
    found = _first_failure(mesh, cells[:half], visit) or _first_failure(mesh, cells[half:], visit)
    if found is None:           # no part fails alone: the error names no cell
        raise exc
    return found


def source_moments(mesh: PolyMesh, k: int, f, *, y_wavelength=None) -> np.ndarray:
    """(n_cells, dim P_{k-1}) moments int_E f m_a of a source on every cell,
    with order-k data rules: one pass serves the load of every scheme."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    return np.concatenate([local_load(f, rule)
                           for rule in data_rules(mesh, k, y_wavelength)])


def assemble(mesh: PolyMesh, k: int, method: Method, K: DiffusionTensor,
             source=None, dof_map: GlobalDofMap | None = None) -> SparseSystem:
    """Scatter-add of the local stiffness matrices and loads over the mesh.

    The elements of each group of the dof map, cells with one vertex count,
    are built in stacks of at most STACK_CELLS cells (`map_cells`) and
    scattered group by group.  Cell ci's load is `pack.pi0_val.T @
    source[ci]`, from the `source_moments` of the mesh at order k; without
    `source` b is zero (enough for norm studies).  Element matrices are
    invariant under translation, so on a mesh of congruent cells the stack of
    cell 0 serves every cell.  The consistency and stabilization parts share
    one read-only sparse pattern; the stabilization-free scheme scatters no
    stabilization, so its `a_s` has no stored entries and its `a` is `a_pi`.
    `dof_map` is the mesh's `build_dof_map` at order k, built here if not
    given; the schemes solved on one mesh and order share it.
    """
    dm = build_dof_map(mesh, k) if dof_map is None else dof_map

    # per group, its stacks: runs of at most STACK_CELLS of its cells, or on
    # a mesh of congruent cells the stack of cell 0, which serves every cell
    stacks = [[cells[:1]] if mesh.congruent_cells
              else np.split(cells, range(STACK_CELLS, cells.size, STACK_CELLS))
              for cells, _ in dm.groups]
    built = iter(map_cells(mesh, [stack for group in stacks for stack in group],
                           lambda E: element_matrices(E, k, method, K)))
    # per group, (pi_star, pi0_val, a_pi, a_s) of its cells in order
    elements = [[np.concatenate(parts) for parts in zip(*(next(built) for _ in group))]
                for group in stacks]

    b = np.zeros(dm.n_total)
    rows, cols, vals_pi, vals_s = [], [], [], []
    for (cells, dofs), (_, pi0_val, a_pi, a_s) in zip(dm.groups, elements):
        n = dofs.shape[1]
        rows.append(np.repeat(dofs, n, axis=1).ravel())
        cols.append(np.tile(dofs, n).ravel())
        vals_pi.append(np.broadcast_to(a_pi.reshape(-1, n * n), (cells.size, n * n)).ravel())
        if method is Method.STANDARD:
            vals_s.append(np.broadcast_to(a_s.reshape(-1, n * n), (cells.size, n * n)).ravel())
        if source is not None:
            loads = (source[cells][:, None, :] @ pi0_val)[:, 0]
            b += np.bincount(dofs.ravel(), loads.ravel(), minlength=dm.n_total)

    shape = (dm.n_total, dm.n_total)
    ij = (np.concatenate(rows), np.concatenate(cols))
    a_pi = sp.coo_matrix((np.concatenate(vals_pi), ij), shape=shape).tocsr()
    pattern = (a_pi.indices, a_pi.indptr)
    for index in pattern:
        index.setflags(write=False)
    if method is Method.STANDARD:
        # the parts share their entries (i, j), so the conversion sorts and
        # sums the stabilization part onto the consistency part's pattern
        a_s = sp.coo_matrix((np.concatenate(vals_s), ij), shape=shape).tocsr()
        a_s = sp.csr_matrix((a_s.data, *pattern), shape=shape)
    else:
        a_s = sp.csr_matrix(shape)
    return SparseSystem(a_pi=a_pi, a_s=a_s, b=b, dof_map=dm,
                        pi_stars=[pi_star for pi_star, *_ in elements])


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
    a_ff = a_free[:, free]
    b_f = system.b[free]
    if vals.size and np.any(vals):
        b_f = b_f - a_free[:, fixed] @ vals
    return ReducedSystem(a_ff=a_ff, b_f=b_f, free_dofs=free, fixed_dofs=fixed,
                         fixed_values=vals, n_total=dm.n_total)


@dataclass
class SolveReport:
    solution: np.ndarray
    solver: str
    residual: float
    spd_ok: bool
    ordering: str                        # SuperLU column ordering, "none" if trivial
    fill_nnz: int                        # nonzeros of L + U


def _embed(reduced: ReducedSystem, x_free) -> np.ndarray:
    x = np.zeros(reduced.n_total)
    x[reduced.free_dofs] = x_free
    x[reduced.fixed_dofs] = reduced.fixed_values
    return x


def solve(reduced: ReducedSystem) -> SolveReport:
    """Direct symmetric factorization with a verified residual.

    `a_ff` must be symmetric with sorted indices, as `apply_dirichlet`
    returns it: its CSR arrays are then its CSC arrays, and SuperLU factors
    them as they are, with no conversion or copy.  A non-symmetric `a_ff`
    would be solved as its transpose and fail the residual check, which is
    computed with `a_ff` itself.  The LU factorization runs in symmetric mode
    without off-diagonal pivoting, after a symmetric minimum-degree ordering
    (ORDERING), so for an SPD matrix all pivots are positive; that sign
    pattern is the reported SPD check.  A failed factorization, a non-finite
    solution or a residual above RESIDUAL_RTOL relative to the right-hand
    side raises `SolverError`.
    """
    if reduced.free_dofs.size == 0:
        return SolveReport(solution=_embed(reduced, np.zeros(0)), solver="trivial",
                           residual=0.0, spd_ok=True, ordering="none", fill_nnz=0)
    A = reduced.a_ff
    b = reduced.b_f
    try:
        lu = splu(sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
                  permc_spec=ORDERING, diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed ({exc})") from None
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise SolverError("the factorized solve gave a non-finite solution")
    residual = float(np.linalg.norm(A @ x - b))
    if not residual <= RESIDUAL_RTOL * max(float(np.linalg.norm(b)), 1e-300):  # NaN fails
        raise SolverError(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:g} "
                          "relative to the right-hand side")
    return SolveReport(solution=_embed(reduced, x), solver="splu", residual=residual,
                       spd_ok=bool(np.all(lu.U.diagonal() > 0.0)),
                       ordering=ORDERING, fill_nnz=int(lu.nnz))


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
