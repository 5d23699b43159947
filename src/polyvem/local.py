"""Element-local construction of both virtual element discretizations.

For a cell E and order k the degrees of freedom are: vertex values (CCW),
values at the k-1 interior Gauss-Lobatto nodes of each edge (CCW), and the
scaled moments (1/|E|) int_E v m_a for |a| <= k-2 (graded-lex).  Everything a
scheme needs is assembled from those dofs:

* the energy projector onto P_k via integration by parts on each basis row,
* moments against monomials beyond degree k-2, recovered from the projector
  (this is what the enhancement constraint of the virtual space guarantees),
* L2 projections of values (degree k-1) and gradients (degree k-1 for the
  standard scheme, degree k+ell-1 for the stabilization-free one),
* the consistency and stabilization parts of the local stiffness matrix;
  the consistency part is the gradient energy (K grad Pi v, grad Pi w)_E,
  stated once in `_gradient_energy`, which with K = I is also the form
  whose rank the stabilization-free scheme checks,
* the source moments of degree k-1, which every scheme shares and tests with
  its own `pi0_val`: `local_load` integrates them on a block of cells at
  once, with the block's `DataRule` (`data_rules` cuts a mesh into blocks).

Every step works on a stack of n >= 1 cells that share a vertex count (a
`mesh.CellGeometry`; a lone cell is a one-cell stack): all arrays lead with
the stack axis, matrix products are stacked `@`, and the solves, Cholesky
checks and eigenvalues are batched LAPACK calls (`assembly.assemble` builds
a mesh in stacks of up to `assembly.STACK_CELLS` cells of one vertex count).
`build_projection_pack` builds a stack's `ElementContext` (Gram matrix and
edge data, from edge integrals alone) and every projector at one ell;
`local_stiffness` takes the finished pack, and `element_matrices` is the one
loop over ell, building the cells a pack leaves `short` again at ell + 1.

The context holds the data of all m edges as (..., m, ...) arrays; the
builders evaluate monomials at all edge points at once and scatter through
the one statement of the local edge order, the (m, k+1) table
`DofLayout.edge_node_dofs`, with `np.add.at`, edge 0 first.

The stabilization-free variant enlarges the enhancement range by the smallest
ell satisfying (k+ell)(k+ell+1) >= k*N_E + k(k+1) - 3, which makes the
higher-degree gradient projection rich enough that no stabilizing term is
needed.  Its coercivity is only guaranteed at order 1; a rank check of each
cell's gradient energy, made on every pack, guards the higher orders.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgWarning, solve

from .basis import (dim_poly, edge_lagrange, edge_rules, eval_monomial_grads,
                    eval_monomials, fan_triangles, monomial_derivatives, monomial_gram,
                    scaled_monomials, triangle_rule)
from .errors import (CellDegeneracyError, NumericalDegeneracyError, PolyvemError,
                     StabilizationFreeRankError)


class Method(Enum):
    STANDARD = "vem"
    E2VEM = "e2vem"

    @classmethod
    def parse(cls, name: str) -> "Method":
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown method {name!r}, expected 'vem' or 'e2vem'")


@dataclass(frozen=True)
class DiffusionTensor:
    """Constant symmetric positive definite 2x2 diffusion coefficient."""

    matrix: np.ndarray
    # every tensor is constant; perfbench/tracer.py reads this attribute
    constant = True

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2) or abs(m[0, 1] - m[1, 0]) > 1e-14 * max(1.0, np.abs(m).max()):
            raise ValueError("constant diffusion tensor must be symmetric 2x2")
        if np.linalg.eigvalsh(m).min() <= 0:
            raise ValueError("diffusion tensor must be positive definite")
        object.__setattr__(self, "matrix", m)

    @classmethod
    def diagonal(cls, kx: float, ky: float) -> "DiffusionTensor":
        return cls(matrix=np.diag([float(kx), float(ky)]))

    def sup_norm(self) -> float:
        """Largest spectral norm of the tensor."""
        return float(np.linalg.eigvalsh(self.matrix).max())


# ---------------------------------------------------------------------------
# dof layout
# ---------------------------------------------------------------------------

def dof_count(k: int, n_vertices: int) -> int:
    if k < 1 or n_vertices < 3:
        raise ValueError("need k >= 1 and at least 3 vertices")
    return k * n_vertices + k * (k - 1) // 2


def min_ell(k: int, n_vertices: int) -> int:
    """Smallest enhancement enlargement making the gradient projection square up.

    Returns the least ell >= 0 with (k+ell)(k+ell+1) >= k*N_E + k(k+1) - 3.
    """
    if k < 1 or n_vertices < 3:
        raise ValueError("need k >= 1 and at least 3 vertices")
    rhs = k * n_vertices + k * (k + 1) - 3
    ell = 0
    while (k + ell) * (k + ell + 1) < rhs:
        ell += 1
    return ell


@dataclass(frozen=True)
class DofLayout:
    """Index bookkeeping for the local dof vector of one cell.

    `edge_node_dofs[e, j]` is the dof of node j of edge e (vertex e, its k-1
    interior nodes, vertex e+1); the moment dofs start at `first_moment`.
    """

    k: int
    n_vertices: int

    @property
    def n_moments(self) -> int:
        return dim_poly(self.k - 2)

    @property
    def total(self) -> int:
        return dof_count(self.k, self.n_vertices)

    @property
    def first_moment(self) -> int:
        return self.k * self.n_vertices

    @cached_property
    def edge_node_dofs(self) -> np.ndarray:
        """(n_vertices, k+1) dofs of each edge's Lobatto nodes, in edge direction."""
        n, k = self.n_vertices, self.k
        vertex = np.arange(n)
        inner = n + np.arange(n * (k - 1)).reshape(n, k - 1)
        return np.column_stack([vertex, inner, np.roll(vertex, -1)])


# ---------------------------------------------------------------------------
# per-element context shared by the build steps
# ---------------------------------------------------------------------------

def _t(a):
    """Transpose of the last two axes: of each matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def _add_edge_columns(target, edge_node_dofs, values):
    """target[..., :, edge_node_dofs[e, j]] += values[..., e, j, :], edge 0
    first, so the column of a vertex dof takes its two edges in edge order."""
    np.add.at(np.moveaxis(target, -1, 0), edge_node_dofs, np.moveaxis(values, (-3, -2), (0, 1)))


class ElementContext:
    """Gram matrix and edge data at (k, ell) of a stack of n cells with one
    vertex count (E from `PolyMesh.cell_geom`), every array leading with
    the stack axis.

    The Gram matrix (`monomial_gram`) and the trace integrals reach degree
    k+ell exactly from edge rules alone, which covers every projector of the
    pack built with this enlargement on any simple polygon.  Edge e runs from
    vertex e to vertex e+1; over m edges, nq Gauss points and k+1 Lobatto
    nodes the edge data are `edge_points` (n, m, nq, 2), outward unit
    `edge_normals` (n, m, 2), `edge_lengths` (n, m), `edge_trace` (n, m,
    k+1, nq) = |e| w_q L_j(t_q) (so `edge_trace @ g` integrates each node's
    trace against g at the Gauss points) and `edge_node_points` (n, m, k+1,
    2), whose dofs are `layout.edge_node_dofs`.
    """

    def __init__(self, E, k: int, ell: int = 0):
        self.E = E
        self.k = k
        self.ell = ell
        self.layout = DofLayout(k, E.n_vertices)
        self.gram = monomial_gram(E, k + ell)

        d_max = 2 * k + ell + 3
        lob, gl_t, gl_w = edge_rules(k, d_max)
        start = E.verts
        tang = np.roll(start, -1, axis=-2) - start
        self.edge_lengths = np.hypot(tang[..., 0], tang[..., 1])
        self.edge_normals = (np.stack([tang[..., 1], -tang[..., 0]], axis=-1)
                             / self.edge_lengths[..., None])
        self.edge_points = start[..., None, :] + gl_t[:, None] * tang[..., None, :]
        self.edge_trace = (edge_lagrange(k, d_max)
                           * (self.edge_lengths[..., None] * gl_w)[..., None, :])
        self.edge_node_points = start[..., None, :] + lob[:, None] * tang[..., None, :]
        self.perimeter = self.edge_lengths.sum(axis=-1)


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------

def build_pi_nabla(ctx: ElementContext):
    """Energy projector onto P_k from the local dof vector: (D, B, G, pi_star).

    D holds the dofs of the monomials, row a of B realizes (grad v, grad m_a)_E
    by parts, G = B @ D, and pi_star = G^-1 B maps a dof vector to the monomial
    coefficients of its projection.  The interior term of B pairs the moment
    dofs with the monomial Laplacians (of degree <= k-2, from
    `monomial_derivatives`) and the boundary term integrates the known
    polynomial edge traces.  Row 0 enforces the average condition: boundary
    mean for k = 1, first moment dof for k > 1.
    """
    E, k, lay = ctx.E, ctx.k, ctx.layout
    nk = dim_poly(k)
    n, m, nq = ctx.edge_points.shape[:3]
    area, h = E.area[:, None, None], E.diameter[:, None, None]

    D = np.empty((n, lay.total, nk))
    D[..., :m, :] = eval_monomials(E, E.verts, k)
    inner = ctx.edge_node_points[..., 1:-1, :].reshape(n, -1, 2)
    D[..., m:lay.first_moment, :] = eval_monomials(E, inner, k)
    D[..., lay.first_moment:, :] = ctx.gram[..., :lay.n_moments, :nk] / area

    B = np.zeros((n, nk, lay.total))
    lower, upper = monomial_derivatives(k - 1), monomial_derivatives(k)
    lap = lower[0] @ upper[0] + lower[1] @ upper[1]      # (dim P_{k-2}, nk), integers
    B[..., lay.first_moment:] = -lap.T / h ** 2 * area
    grads = eval_monomial_grads(E, ctx.edge_points.reshape(n, -1, 2), k)
    grads = grads.reshape(n, m, nq, nk, 2)
    gn = (grads @ ctx.edge_normals[..., :, None, :, None])[..., 0]   # (n, m, nq, nk)
    _add_edge_columns(B, lay.edge_node_dofs, ctx.edge_trace @ gn)

    B[..., 0, :] = 0.0
    if k == 1:
        mean = ctx.edge_trace.sum(axis=-1) / ctx.perimeter[..., None, None]
        _add_edge_columns(B[..., :1, :], lay.edge_node_dofs, mean[..., None])
    else:
        B[..., 0, lay.first_moment] = 1.0

    G = B @ D
    try:
        pi_star = np.linalg.solve(G, B)
    except np.linalg.LinAlgError:
        raise CellDegeneracyError(f"singular projector system (k={k})") from None
    return D, B, G, pi_star


def recover_moments(ctx: ElementContext, pi_star: np.ndarray) -> np.ndarray:
    """Linear maps dof vector -> int_E v m_a for all |a| <= k + ell.

    Moments up to degree k-2 are |E| times the stored moment dofs; the
    remaining ones equal the moments of the energy projection, which the
    enhancement constraint of the virtual space makes exact.
    """
    lay = ctx.layout
    n_top = dim_poly(ctx.k + ctx.ell)
    nk = dim_poly(ctx.k)
    M = np.zeros((ctx.E.cells.size, n_top, lay.total))
    M[..., :lay.n_moments, lay.first_moment:] = (ctx.E.area[:, None, None]
                                                 * np.eye(lay.n_moments))
    M[..., lay.n_moments:, :] = ctx.gram[..., lay.n_moments:n_top, :nk] @ pi_star
    return M


def _cholesky_solve(H, R):
    """H^-1 R for SPD H, each matrix of a stack by LAPACK potrf and potrs, as
    `scipy.linalg.cho_solve` does it.  H is broadcast over R's leading axes
    (a 1x1 H broadcast by `solve` itself would be divided by), and `solve`'s
    ill-conditioning warning is left out, as `cho_solve` gives none.  An H
    that is not SPD raises `NumericalDegeneracyError`."""
    H = np.broadcast_to(H, R.shape[:-2] + H.shape[-2:])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        try:
            return solve(H, R, assume_a="pos", check_finite=False)
        except np.linalg.LinAlgError:
            raise NumericalDegeneracyError("L2-projection mass matrix is not SPD") from None


def build_pi0_val(ctx: ElementContext, moments: np.ndarray) -> np.ndarray:
    """Coefficients of the L2 projection of values onto P_{k-1}."""
    n = dim_poly(ctx.k - 1)
    return _cholesky_solve(ctx.gram[..., :n, :n], moments[..., :n, :])


def build_pi0_grad(ctx: ElementContext, d: int, moments: np.ndarray) -> np.ndarray:
    """Coefficients of the L2 projection of the gradient onto [P_d]^2.

    For each vector monomial q the pairing (grad v, q)_E is integrated by
    parts: the divergence term reads recovered moments (degree <= d-1)
    through `monomial_derivatives` and the boundary term uses exact edge
    quadrature of the traces.  Rows are the x-component block stacked over
    the y-component block.
    """
    E, lay = ctx.E, ctx.layout
    nd, n_lower = dim_poly(d), dim_poly(d - 1)
    h = E.diameter[:, None, None, None]

    # the x block, then the y block: (n, 2, nd, total)
    R = -(_t(monomial_derivatives(d)) / h) @ moments[:, None, :n_lower, :]
    n, m, nq = ctx.edge_points.shape[:3]
    vals = eval_monomials(E, ctx.edge_points.reshape(n, -1, 2), d)
    contrib = ctx.edge_trace @ vals.reshape(n, m, nq, nd)     # (n, m, k+1, nd)
    for c in (0, 1):
        _add_edge_columns(R[..., c, :, :], lay.edge_node_dofs,
                          ctx.edge_normals[..., :, c, None, None] * contrib)

    coef = _cholesky_solve(ctx.gram[..., None, :nd, :nd], R)
    return coef.reshape(n, 2 * nd, lay.total)


@dataclass
class ProjectionPack:
    """All element matrices one scheme needs on a stack of n cells, each
    array leading with the stack axis, built with one enlargement ell.

    `short` (n,) marks the cells whose stabilization-free gradient
    projection is rank deficient at this ell, None when no cell is;
    `element_matrices` builds them again at ell + 1.
    """

    k: int
    ell: int
    grad_degree: int
    layout: DofLayout
    pi_star: np.ndarray  # n x dim P_k x total, monomial coefficients of the projection
    pi_dof: np.ndarray   # n x total x total, D @ pi_star
    pi0_val: np.ndarray
    pi0_grad: np.ndarray
    ctx: ElementContext
    short: np.ndarray | None = None


RANK_TOL = 1e-9
MAX_ELL_BUMPS = 4


def _gradient_energy(pi0_grad, gram, d: int, Km) -> np.ndarray:
    """(K grad Pi v, grad Pi w)_E for the gradient projection onto [P_d]^2
    with the constant tensor Km, per cell: with the x and y blocks X, Y of
    `pi0_grad` and H the degree-d Gram matrix, the symmetrized
    X^T (K00 H) X + X^T (K01 H) Y + Y^T (K01 H)^T X + Y^T (K11 H) Y.
    """
    nd = dim_poly(d)
    X, Y = pi0_grad[..., :nd, :], pi0_grad[..., nd:, :]
    H = gram[..., :nd, :nd]
    Wxx, Wxy, Wyy = Km[0, 0] * H, Km[0, 1] * H, Km[1, 1] * H
    A = (_t(X) @ (Wxx @ X) + _t(X) @ (Wxy @ Y) + _t(Y) @ (_t(Wxy) @ X)
         + _t(Y) @ (Wyy @ Y))
    return 0.5 * (A + _t(A))


def _rank_error(E, ctx, evals, short, k: int, ell: int) -> StabilizationFreeRankError:
    """The error for the first short cell of a pack at its last enlargement,
    naming its mesh cell, with the numbers that diagnose it: lambda_2 /
    lambda_max of its gradient-projection energy (short means at most
    RANK_TOL), its shortest edge over its diameter, and ell."""
    at = int(np.argmax(short))
    lam = evals[at]
    ratio = lam[1] / np.abs(lam).max()
    eps = ctx.edge_lengths[at].min() / E.diameter[at]
    return StabilizationFreeRankError(
        f"gradient projection stays rank deficient up to enlargement ell={ell} "
        f"(lambda_2/lambda_max = {ratio:.3e} <= RANK_TOL = {RANK_TOL:g}, "
        f"shortest edge / h_E = {eps:.6e}); the stabilization-free scheme is only "
        f"guaranteed well-posed at order 1 (got k={k})", cell=int(E.cells[at]))


def build_projection_pack(E, k: int, method: Method, ell: int | None = None) -> ProjectionPack:
    """Projectors, recovered moments and L2 projections for a stack of cells
    with one vertex count, at one enhancement enlargement.

    For the stabilization-free scheme `ell` defaults to the
    counting-inequality minimum, and each cell's gradient projection is
    checked for full rank N-1; the inequality alone is not sufficient on
    symmetric cells (exact squares at order 2, regular hexagons at order 1
    carry a symmetry mode in its kernel).  The cells that fall short are
    marked in the pack's `short`.  At the last ell, MAX_ELL_BUMPS past the
    minimum, the first of them raises `StabilizationFreeRankError` naming
    its mesh cell, with that cell's numbers (`_rank_error`).
    """
    if method is Method.STANDARD:
        ell = 0
    elif ell is None:
        ell = min_ell(k, E.n_vertices)
    d = k - 1 if method is Method.STANDARD else k + ell - 1
    ctx = ElementContext(E, k, ell)
    D, _, _, pi_star = build_pi_nabla(ctx)
    moments = recover_moments(ctx, pi_star)
    pi0_grad = build_pi0_grad(ctx, d, moments)
    pack = ProjectionPack(k=k, ell=ell, grad_degree=d, layout=ctx.layout,
                          pi_star=pi_star, pi_dof=D @ pi_star,
                          pi0_val=build_pi0_val(ctx, moments),
                          pi0_grad=pi0_grad, ctx=ctx)
    if method is Method.STANDARD:
        return pack
    # the unweighted form (K = I) has the rank of any SPD tensor's and keeps
    # the threshold free of the tensor's anisotropy; full rank is N-1, as
    # the constants are its kernel
    evals = np.linalg.eigvalsh(_gradient_energy(pi0_grad, ctx.gram, d, np.eye(2)))
    rank = (evals > RANK_TOL * np.abs(evals).max(axis=-1, keepdims=True)).sum(axis=-1)
    short = rank < ctx.layout.total - 1
    if short.any():
        if ell >= min_ell(k, E.n_vertices) + MAX_ELL_BUMPS:
            raise _rank_error(E, ctx, evals, short, k, ell)
        pack.short = short
    return pack


# ---------------------------------------------------------------------------
# local stiffness and source moments
# ---------------------------------------------------------------------------

def local_stiffness(pack: ProjectionPack, method: Method, K: DiffusionTensor):
    """The consistency and stabilization parts (a_pi, a_s) of the local
    stiffness matrix of the chosen scheme with diffusion tensor K, each
    (n, total, total) over the pack's stack, at the pack's ell (its `short`
    cells included: `element_matrices` replaces theirs).

    Standard scheme: consistency (`_gradient_energy`) from the degree k-1
    gradient projection plus the dofi-dofi stabilization
    sup|K| * (I - Pi)^T (I - Pi) applied to the projection complement.
    Stabilization-free scheme: consistency only, from the degree k+ell-1
    gradient projection, whose rank `build_projection_pack` has already
    checked.
    """
    a_pi = _gradient_energy(pack.pi0_grad, pack.ctx.gram, pack.grad_degree, K.matrix)
    if method is Method.STANDARD:
        Mc = np.eye(pack.layout.total) - pack.pi_dof
        a_s = K.sup_norm() * (_t(Mc) @ Mc)
        a_s = 0.5 * (a_s + _t(a_s))
    else:
        a_s = np.zeros_like(a_pi)
    return a_pi, a_s


def element_matrices(E, k: int, method: Method, K: DiffusionTensor):
    """(pi_star, pi0_val, a_pi, a_s) of every cell of the stack E, each
    stacked, each cell at the first enlargement that passes its rank check.

    This is the one loop over ell: the cells a pack leaves `short` are built
    again at the next ell as a smaller stack, whose matrices are written
    over theirs in place.  A `PolyvemError` names the lowest failing cell of
    E (whose cells ascend), or none if no cell fails alone: the rank error,
    raised at the last ell once every cell has passed every solve, names the
    first short cell, and a batched solve that fails as a whole has the
    cells built alone, in order.
    """
    def matrices(pack):
        return (pack.pi_star, pack.pi0_val, *local_stiffness(pack, method, K))

    try:
        pack = build_projection_pack(E, k, method)
        out, at = matrices(pack), np.arange(E.cells.size)
        while pack.short is not None:
            at = at[pack.short]
            pack = build_projection_pack(E.take(at), k, method, pack.ell + 1)
            for mine, theirs in zip(out, matrices(pack)):
                mine[at] = theirs
    except PolyvemError as exc:
        if exc.cell is None and E.cells.size == 1:
            exc.cell = E.cells.item()
        elif exc.cell is None:
            for i in range(E.cells.size):
                element_matrices(E.take([i]), k, method, K)
        raise
    return out


# Points per data block.  Blocks of about this size ran the data passes
# fastest, and they keep a block's tables to a few MB whatever the mesh.
DATA_BLOCK_POINTS = 25_000


def _data_degree(k: int) -> int:
    return 2 * k + 6


class DataRule:
    """The quadrature for source and error data on a block of consecutive
    cells, with its monomial table; `data_rules` cuts a mesh into blocks.

    It is exact to degree 2k+6 on every cell of the block; for data
    oscillating in y (a case with a `y_wavelength`) the fan triangles taller
    than half the wavelength are cut into horizontal strips
    (`basis.fan_triangles`).  `cells` is the block's range of cell indices.
    The rule has R rows of q points each: `points` (R*q, 2) and `weights`
    (R*q,) run row by row, `row_cells` (R,) is the cell of each row, and the
    rows of cell `cells[i]` start at `starts[i]`, so a per-cell integral is
    a segment sum.  A row is one fan triangle, or on a mesh of congruent
    cells one whole cell.  `monomials` holds the scaled monomials of degree
    <= k-1 at the points, each centred and scaled by its own cell: (R, q, n),
    or (1, q, n) when the rows are congruent cells, which share one table.
    """

    def __init__(self, row_cells, points, weights, monomials):
        self.cells = range(int(row_cells[0]), int(row_cells[-1]) + 1)
        self.points, self.weights = points, weights
        self.shape = (row_cells.size, weights.size // row_cells.size)
        self.row_cells = row_cells
        self.starts = np.searchsorted(row_cells, self.cells)
        self.monomials = monomials


def _blocks(points_before):
    """The (first, stop) cell ranges of consecutive blocks of at most
    DATA_BLOCK_POINTS points, or of one cell that alone has more;
    `points_before[i]` counts the points of the cells before cell i."""
    first, n_cells = 0, points_before.size - 1
    while first < n_cells:
        stop = np.searchsorted(points_before, points_before[first] + DATA_BLOCK_POINTS,
                               side="right") - 1
        stop = max(int(stop), first + 1)
        yield first, stop
        first = stop


def data_rules(mesh, k: int, y_wavelength=None):
    """The order-k `DataRule`s of the mesh: consecutive blocks of whole cells
    in cell order, each of at most DATA_BLOCK_POINTS points unless it is one
    cell that alone has more.

    The fan triangles are formed, checked (the one polygon check of a solve:
    a cell that is not star-shaped raises `QuadratureError` naming that cell
    before any block is built) and, with a `y_wavelength`, cut into strips
    of at most half of it, once (`fan_triangles`).  On a mesh of
    `congruent_cells` this is done for cell 0 alone, about its centroid, and
    cell 0 stands for every cell, as it does for the elements of
    `assembly.assemble`: the star-shape check runs on cell 0, every cell
    takes cell 0's triangles (and strip count), weights and monomial table,
    and its points are its centroid plus cell 0's offsets.  Otherwise every
    cell's own triangles are formed, a cell's triangles stay together and in
    cell order, and each block applies one `triangle_rule` to its triangles.
    """
    max_y = y_wavelength / 2.0 if y_wavelength else None
    degree = _data_degree(k)
    ids, starts = mesh.flat_cells
    if mesh.congruent_cells:
        corners, _ = fan_triangles(mesh.vertices[ids[:starts[1]]] - mesh.cell_centroids[0],
                                   starts[:2], np.zeros((1, 2)), mesh.cell_areas[:1],
                                   max_y_extent=max_y)
        offsets, weights = triangle_rule(*corners, degree)
        table = scaled_monomials(*(offsets.T / mesh.cell_diameters[0]), k - 1)[None]
        for first, stop in _blocks(weights.size * np.arange(mesh.n_cells + 1)):
            points = np.empty((stop - first, weights.size, 2))
            for i in (0, 1):    # one coordinate at a time: the long axis is innermost
                points[..., i] = mesh.cell_centroids[first:stop, i, None] + offsets[:, i]
            yield DataRule(np.arange(first, stop), points.reshape(-1, 2),
                           np.tile(weights, stop - first), table)
        return
    corners, triangle_cells = fan_triangles(mesh.vertices[ids], starts, mesh.cell_centroids,
                                            mesh.cell_areas, max_y_extent=max_y)
    # the points of one triangle's rule: every triangle has as many
    per_triangle = triangle_rule(*(c[:1] for c in corners), degree)[1].size
    first_triangle = np.searchsorted(triangle_cells, np.arange(mesh.n_cells + 1))
    for first, stop in _blocks(first_triangle * per_triangle):
        block = slice(first_triangle[first], first_triangle[stop])
        owner = triangle_cells[block]
        points, weights = triangle_rule(*(c[block] for c in corners), degree)
        centroids = mesh.cell_centroids[owner]
        h = mesh.cell_diameters[owner, None]
        rx, ry = ((points[:, i].reshape(owner.size, -1) - centroids[:, i, None]) / h
                  for i in (0, 1))
        yield DataRule(owner, points, weights, scaled_monomials(rx, ry, k - 1))


def local_load(f, rule: DataRule) -> np.ndarray:
    """Moments int_E f m_a, |a| <= k-1, of a source on every cell E of a data
    block, shape (len(rule.cells), dim P_{k-1}).

    A scheme's load on cell E is `pi0_val.T @` E's row."""
    fvals = np.asarray(f(rule.points[:, 0], rule.points[:, 1]), dtype=float)
    fw = (rule.weights * fvals).reshape(rule.shape)
    per_triangle = (fw[:, None, :] @ rule.monomials)[:, 0]
    return np.add.reduceat(per_triangle, rule.starts, axis=0)
