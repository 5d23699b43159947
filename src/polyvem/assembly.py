"""Global dof numbering, sparse assembly, Dirichlet elimination and SPD solve.

Vertex dofs come first, then k-1 dofs per mesh edge (ordered along the edge by
ascending global vertex index, so adjacent cells agree), then the per-cell
moment dofs blocked after everything else.  `build_dof_map` is the one place
this numbering is made; it groups the cells by vertex count, each group's
dofs one (cells, local dofs) table, and its `nodes` give the point of every
vertex and edge dof.  It also fixes the elimination order of the solve:
`free_dofs` lists the free dofs by a nested dissection of the cells, each
cell's moments first and each interface between two halves after both, and
the reduced matrix comes in that order, so SuperLU factors it as it is.
The source pass and the scatter go by groups and by blocks of cells, not
cell by cell.  `assemble` builds no sparse matrix: it keeps each group's
stacks of element stiffness parts beside its projectors, and the Dirichlet
elimination is done at the scatter, which broadcasts each element's summed
parts into one preallocated int32 COO triple at their elimination
positions, whose free-free entries are converted once.  The full
consistency and stabilization parts are formed only inside
`stab_consistency_ratio`, one at a time, and no full matrix leaves it.
Only `assemble` knows the scheme: the Dirichlet elimination and
the solve know only the element matrices and the reduced matrix.  An
element failure leaves `assemble` naming the mesh's lowest failing cell.
The memory peak of a solve is the SPD check, when `lu.U` copies L and U
beside the factor (on cartesian 128 k=3, 12.80M nonzeros in L+U).  The
reduced matrix is no longer read by then, as the residual check comes
first, so `solve` lets it go before that copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .basis import dim_poly, edge_rules
from .errors import MeshError, PolyvemError, SolverError
from .local import DiffusionTensor, DofLayout, Method, data_rules, element_matrices, local_load
from .mesh import PolyMesh, cross_cell_violations

RESIDUAL_RTOL = 1e-10
# Cells per element stack.  On Voronoi-1024 at orders 1-3, stacks of this
# size built the elements within a few per cent of the time of whole
# vertex-count groups, while the quadrature tables of a stack stay at a few MB
# (a 697-cell stack of stabilization-free order-2 hexagons peaked at 42 MB).
STACK_CELLS = 256
# SuperLU's column ordering: none, for the reduced matrix comes in the dof
# map's nested-dissection order.  On cartesian 128 k=3 that order left 12.80M
# nonzeros in L+U against 13.25M after SuperLU's symmetric minimum degree
# (MMD_AT_PLUS_A), and factored in about a quarter less time: its separators
# are whole element interfaces, so its supernodes are larger.
ORDERING = "NATURAL"
# SuperLU's panel width: its default of 20 columns is too wide for VEM's small
# supernodes.  On cartesian 128 k=3, 6 cut `gstrf` by 7-8%, with equal fill,
# under minimum degree and by 7% under the nested-dissection order.
PANEL_COLUMNS = 6


@dataclass
class GlobalDofMap:
    k: int
    n_total: int
    # cells grouped by vertex count, so by local dof count N: (cells (n_g,),
    # ascending, and their global dofs (n_g, N) in local dof order)
    groups: list
    boundary_dofs: np.ndarray            # sorted vertex/edge dofs on the boundary
    free_dofs: np.ndarray                # the other dofs, in nested-dissection order
    nodes: np.ndarray                    # (n, 2) point of each of the n vertex/edge dofs


def build_dof_map(mesh: PolyMesh, k: int) -> GlobalDofMap:
    """Global numbering for order k, filled through `local.DofLayout`, with
    its free dofs in nested-dissection elimination order; a mesh that fails
    `cross_cell_violations` raises `MeshError` naming the first."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    bad = next(cross_cell_violations(mesh), None)
    if bad is not None:
        raise MeshError(f"{bad.where} breaks {bad.kind}: {bad.detail}; "
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
    for m in np.unique(n_verts).tolist():
        cells, lay = np.flatnonzero(n_verts == m), DofLayout(k, m)
        sides = starts[cells][:, None] + np.arange(m)                 # (n_g, m)
        dofs = edge_dofs[edge_ids[sides]]
        # interior edge nodes are symmetric in the edge parameter, so the
        # reversed traversal is exactly the reversed index range
        dofs = np.where(against[sides, None], dofs[..., ::-1], dofs)
        table = np.empty((cells.size, lay.total), dtype=int)
        table[:, lay.edge_node_dofs[:, :-1]] = np.dstack([ids[sides], dofs])
        table[:, lay.first_moment:] = moment_dofs[cells]
        groups.append((cells, table))

    # edge dof j of edge (a, b), a < b, sits at interior Lobatto parameter j from a
    inner = edge_rules(k, 1)[0][1:-1]
    tail, head = mesh.vertices[mesh.edges[:, 0]], mesh.vertices[mesh.edges[:, 1]]
    edge_nodes = tail[:, None, :] + inner[None, :, None] * (head - tail)[:, None, :]
    nodes = np.vstack([mesh.vertices, edge_nodes.reshape(-1, 2)])

    boundary = np.concatenate([np.nonzero(mesh.boundary_vertex_flags)[0],
                               edge_dofs[mesh.boundary_edge_flags].ravel()])
    mask = np.ones(n_total, dtype=bool)
    mask[boundary] = False
    free = np.nonzero(mask)[0]

    # a dof's node in the dissection tree is the lowest common ancestor of
    # the leaves of its cells: the common prefix of their lowest and highest
    # leaf codes, below which `below` sets every bit
    leaf, depth = _dissection_leaves(mesh.cell_centroids)
    low = np.full(nv + ne, (1 << depth) - 1, dtype=np.int64)
    high = np.zeros(nv + ne, dtype=np.int64)
    at, side_leaf = np.concatenate([ids, nv + edge_ids]), np.tile(np.repeat(leaf, n_verts), 2)
    np.minimum.at(low, at, side_leaf)
    np.maximum.at(high, at, side_leaf)
    low, high = (np.concatenate([bound[:nv], np.repeat(bound[nv:], k - 1),
                                 np.repeat(leaf, n_mom_per)]) for bound in (low, high))
    below = low ^ high
    shift = 1
    while shift < depth:
        below |= below >> shift
        shift *= 2
    # postorder: by the last leaf under the node, then deeper nodes first,
    # and the dofs of one node in numbering order
    key = ((low | below) + 1) << depth | below
    return GlobalDofMap(k=k, n_total=n_total, groups=groups, boundary_dofs=boundary,
                        free_dofs=free[np.argsort(key[free], kind="stable")], nodes=nodes)


def _dissection_leaves(centroids):
    """(leaf, depth): the leaf of every cell in a nested dissection of the
    cells by their centroids, as the `depth` bits of its path from the root.

    Each level splits every part of two or more cells at the median of its
    centroids along the longer side of their bounding box (x on a tie), the
    lower half (ties by cell index; one more cell if the part is odd) taking
    bit 0 and the upper half bit 1; a cell alone in its part takes 0 bits
    from then on.  So every part is a run of equal codes, and a node of
    the tree is a common prefix of its cells' codes.
    """
    n = len(centroids)
    depth = max(n - 1, 0).bit_length()
    # each cell's integer rank along x and along y, ties by cell index
    rank = np.empty((2, n), dtype=np.int64)
    for axis in (0, 1):
        rank[axis, np.lexsort((np.arange(n), centroids[:, axis]))] = np.arange(n)
    leaf = np.zeros(n, dtype=np.int64)
    order = np.arange(n)                  # the cells by part, parts by ascending code
    for _ in range(depth):
        part = leaf[order]
        starts = np.flatnonzero(np.r_[True, part[1:] != part[:-1]])
        size = np.diff(np.r_[starts, n])
        x, y = centroids[order].T
        tall = (np.maximum.reduceat(y, starts) - np.minimum.reduceat(y, starts)
                > np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts))
        order = order[np.argsort(part << depth | rank[tall.repeat(size).astype(np.intp), order])]
        place = np.arange(n) - starts.repeat(size)
        leaf[order] = 2 * part + (2 * place >= size.repeat(size))
    return leaf, depth


def _scatter(dm: GlobalDofMap, at_dof, stiffness):
    """(rows, cols, vals): one COO triple of the element matrices of every
    group of the dof map, each group broadcast into its slice.  An entry's
    row and column are `at_dof` of its two dofs, and `vals` has one row per
    part in `stiffness` (per group, a tuple of (n_g, N, N) stacks, or one
    (1, N, N) stack for every cell).  With int32 `at_dof`, scipy converts
    the triple without copying its indices."""
    ends = np.cumsum([dofs.size * dofs.shape[1] for _, dofs in dm.groups])
    rows, cols = np.empty((2, ends[-1]), at_dof.dtype)
    vals = np.empty((len(stiffness[0]), ends[-1]))
    for (_, dofs), stacks, end in zip(dm.groups, stiffness, ends):
        n_g, n = dofs.shape
        at = slice(end - n_g * n * n, end)
        table = at_dof[dofs]
        rows[at].reshape(n_g, n, n)[...] = table[:, :, None]
        cols[at].reshape(n_g, n, n)[...] = table[:, None, :]
        for out, part in zip(vals, stacks):
            out[at].reshape(n_g, n, n)[...] = part
    return rows, cols, vals


def _index_dtype(n):
    """Index dtype of the COO triples of n dofs: int32 below 2**31."""
    return np.int32 if n < 2**31 else np.int64


@dataclass
class SparseSystem:
    """An assembled system: its load, dof map and per-group element stacks.

    It holds no sparse matrix.  `apply_dirichlet` scatters the element
    stiffness straight into the reduced matrix, and `stab_consistency_ratio`
    reads the norms of the full parts from the stacks."""
    b: np.ndarray
    dof_map: GlobalDofMap
    # per group of dof_map.groups, the energy projector coefficients of its
    # cells, (n_g, dim P_k, N); (1, dim P_k, N) serves every cell of a
    # congruent mesh
    pi_stars: list
    # per group, the `local_stiffness` parts of its cells as pi_stars stacks
    # them, as built: (a_pi, a_s) each (n_g, N, N), or (a_pi,) for E2VEM
    stiffness: list

    def projections(self, u_dofs) -> np.ndarray:
        """(n_cells, dim P_k) monomial coefficients of the energy projection
        of the dof vector `u_dofs` on every cell."""
        groups = self.dof_map.groups
        out = np.empty((sum(cells.size for cells, _ in groups), self.pi_stars[0].shape[1]))
        for (cells, dofs), pi_star in zip(groups, self.pi_stars):
            out[cells] = (pi_star @ u_dofs[dofs][..., None])[..., 0]
        return out


def source_moments(mesh: PolyMesh, k: int, f, *, y_wavelength=None) -> np.ndarray:
    """(n_cells, dim P_{k-1}) moments int_E f m_a of a source on every cell,
    with order-k data rules: one pass serves the load of every scheme."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    return np.concatenate([local_load(f, rule)
                           for rule in data_rules(mesh, k, y_wavelength)])


def assemble(mesh: PolyMesh, k: int, method: Method, K: DiffusionTensor,
             source=None, dof_map: GlobalDofMap | None = None) -> SparseSystem:
    """The element matrices and the scatter-added load over the mesh.

    The elements of each group of the dof map, cells with one vertex count,
    are built in stacks of at most STACK_CELLS cells (`element_matrices`).
    Once a stack fails, naming its lowest failing cell, later stacks are
    built only on their cells below the lowest failing cell so far, whose
    error leaves at the end; an error that names no cell leaves at once.
    Cell ci's load is `pack.pi0_val.T @ source[ci]`, from the
    `source_moments` of the mesh at order k; without `source` b is zero
    (enough for norm studies).  Element matrices are invariant under
    translation, so on a mesh of congruent cells the stack of cell 0 serves
    every cell.  The system keeps each group's stiffness parts as stacks
    (`SparseSystem.stiffness`), as `local_stiffness` gives them, and
    assembles no sparse matrix.
    `dof_map` is the mesh's `build_dof_map` at order k, built here if not
    given; the schemes solved on one mesh and order share it.
    """
    dm = build_dof_map(mesh, k) if dof_map is None else dof_map

    # per group, (pi_star, pi0_val, *parts) of its cells in order, from runs
    # of at most STACK_CELLS of them, or on congruent cells from cell 0 alone
    elements, failure = [], None
    for cells, _ in dm.groups:
        built = []
        for stack in ([cells[:1]] if mesh.congruent_cells
                      else np.split(cells, range(STACK_CELLS, cells.size, STACK_CELLS))):
            stack = stack if failure is None else stack[stack < failure.cell]
            if not stack.size:
                continue
            try:
                built.append(element_matrices(mesh.cell_geom(stack), k, method, K))
            except PolyvemError as exc:
                if exc.cell is None:
                    raise
                failure = exc
        elements.append([np.concatenate(parts) for parts in zip(*built)])
    if failure is not None:
        raise failure

    b = np.zeros(dm.n_total)
    if source is not None:
        for (cells, dofs), (_, pi0_val, *_) in zip(dm.groups, elements):
            loads = (source[cells][:, None, :] @ pi0_val)[:, 0]
            b += np.bincount(dofs.ravel(), loads.ravel(), minlength=dm.n_total)
    return SparseSystem(b=b, dof_map=dm, pi_stars=[pi_star for pi_star, *_ in elements],
                        stiffness=[tuple(parts) for _, _, *parts in elements])


# ---------------------------------------------------------------------------
# boundary conditions and solve
# ---------------------------------------------------------------------------

@dataclass
class ReducedSystem:
    """The system on the free dofs, as `apply_dirichlet` returns it.

    `a_ff` and `b_f` follow `free_dofs`, the elimination order; `a_ff` is
    sorted and bitwise symmetric, so `solve` factors its CSR arrays as CSC
    arrays.  `fixed_dofs` and `fixed_values` complete the solution."""
    a_ff: sp.csr_matrix
    b_f: np.ndarray
    free_dofs: np.ndarray
    fixed_dofs: np.ndarray
    fixed_values: np.ndarray
    n_total: int


def apply_dirichlet(system: SparseSystem, boundary_values=None) -> ReducedSystem:
    """Eliminate boundary dofs symmetrically, moving known values to the rhs.

    The elimination happens at the scatter: each dof goes to its position
    in `free_dofs`, or to -1 - its index in `boundary_dofs`, and each
    group's summed element matrices `a_pi + a_s` are broadcast into one
    preallocated COO triple at those positions.  Only its free-free entries
    are converted, once, to `a_ff`; its free-row/boundary-column entries
    move the boundary values to `b_f` through one `bincount`.  The rows and
    columns of `a_ff` and the entries of `b_f` follow `free_dofs`, the dof
    map's elimination order.  `a_ff` is symmetric with sorted indices, so
    its CSR arrays are its CSC arrays: the conversion sorts each row, and
    the element matrices are symmetric, with at most two of them on any
    off-diagonal entry, whose sum does not depend on their order."""
    dm = system.dof_map
    free, fixed = dm.free_dofs, dm.boundary_dofs
    vals = np.zeros(fixed.size) if boundary_values is None else np.asarray(boundary_values, float)
    if vals.shape != (fixed.size,):
        raise ValueError(f"expected {fixed.size} boundary values, got {vals.shape}")
    position = np.empty(dm.n_total, _index_dtype(dm.n_total))
    position[free] = np.arange(free.size)
    position[fixed] = -1 - np.arange(fixed.size)
    # each group's a_pi + a_s, or a_pi alone for the stabilization-free scheme
    rows, cols, (entries,) = _scatter(dm, position, [(sum(stacks[1:], stacks[0]),)
                                                     for stacks in system.stiffness])
    b_f = system.b[free]
    free_row = rows >= 0
    if np.any(vals):
        moved = free_row & (cols < 0)
        b_f -= np.bincount(rows[moved], entries[moved] * vals[-1 - cols[moved]],
                           minlength=free.size)
    kept = free_row & (cols >= 0)
    a_ff = sp.coo_matrix((entries[kept], (rows[kept], cols[kept])),
                         shape=(free.size, free.size)).tocsr()
    return ReducedSystem(a_ff=a_ff, b_f=b_f, free_dofs=free, fixed_dofs=fixed,
                         fixed_values=vals, n_total=dm.n_total)


@dataclass
class SolveReport:
    solution: np.ndarray
    solver: str
    residual: float
    spd_ok: bool
    # SuperLU's column ordering (ORDERING; the elimination order is the
    # order of the reduced matrix's rows), "none" if trivial
    ordering: str
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
    without off-diagonal pivoting and with no column ordering of its own
    (ORDERING): it eliminates in the order of `a_ff`, which `apply_dirichlet`
    gives in the dof map's nested-dissection order.  For an SPD matrix all
    pivots are then positive; that sign pattern is the reported SPD check.

    The solve peaks when the SPD check reads `lu.U`, which copies L and U
    beside the factor.  The residual check is the last reader of `a_ff`, so
    `solve` drops its references to `reduced` and `a_ff` before that copy:
    a system passed inline, as `study.solve_cases` passes it, is freed
    there, and a caller that keeps its own reference keeps the matrix.

    A failed factorization, a non-finite solution, a residual above
    RESIDUAL_RTOL relative to the right-hand side, or a `MemoryError` in the
    factorization, the solve or the SPD check raises `SolverError`.
    """
    if reduced.free_dofs.size == 0:
        return SolveReport(solution=_embed(reduced, np.zeros(0)), solver="trivial",
                           residual=0.0, spd_ok=True, ordering="none", fill_nnz=0)
    A = reduced.a_ff
    b = reduced.b_f
    size = f"{A.shape[0]} unknowns, {A.nnz} nonzeros in a_ff"
    try:
        lu = splu(sp.csc_matrix((A.data, A.indices, A.indptr), shape=A.shape),
                  permc_spec=ORDERING, diag_pivot_thresh=0.0, panel_size=PANEL_COLUMNS,
                  options=dict(SymmetricMode=True))
        x = lu.solve(b)
        if not np.all(np.isfinite(x)):
            raise SolverError("the factorized solve gave a non-finite solution")
        residual = float(np.linalg.norm(A @ x - b))
        if not residual <= RESIDUAL_RTOL * max(float(np.linalg.norm(b)), 1e-300):  # NaN fails
            raise SolverError(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:g} "
                              "relative to the right-hand side")
        solution = _embed(reduced, x)
        del reduced, A
        return SolveReport(solution=solution, solver="splu", residual=residual,
                           spd_ok=bool(np.all(lu.U.diagonal() > 0.0)),
                           ordering=ORDERING, fill_nnz=int(lu.nnz))
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed ({exc})") from None
    except MemoryError:
        raise SolverError(f"out of memory in the sparse solve ({size})") from None


def stab_consistency_ratio(system: SparseSystem) -> float:
    """Ratio of the infinity norms (largest absolute row sums) of the
    stabilization and consistency parts of the full stiffness matrix.

    The parts are those before boundary elimination: the element stacks
    are scattered once into one COO triple, and each part is converted to
    CSR in turn, so that one full matrix is alive at a time.  Raises before
    the scatter for a system with no stabilization part (the
    stabilization-free scheme), and for a zero stabilization or consistency
    norm.
    """
    if len(system.stiffness[0]) == 1:
        raise ValueError("stabilization part is identically zero; "
                         "the ratio is only defined for the standard scheme")
    dm = system.dof_map
    rows, cols, vals = _scatter(dm, np.arange(dm.n_total, dtype=_index_dtype(dm.n_total)),
                                system.stiffness)
    shape = (dm.n_total, dm.n_total)
    ns, np_ = (float(np.abs(sp.coo_matrix((part, (rows, cols)), shape=shape).tocsr())
                     .sum(axis=1).max()) for part in (vals[1], vals[0]))
    if ns == 0.0:
        raise ValueError("stabilization part has zero norm")
    if np_ == 0.0:
        raise ValueError("consistency part has zero norm")
    return ns / np_
