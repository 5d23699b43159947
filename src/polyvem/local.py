"""Element-local construction of both virtual element discretizations.

For a cell E and order k the degrees of freedom are: vertex values (CCW),
values at the k-1 interior Gauss-Lobatto nodes of each edge (CCW), and the
scaled moments (1/|E|) int_E v m_a for |a| <= k-2 (graded-lex).  Everything a
scheme needs is assembled from those dofs:

* the energy projector onto P_k via integration by parts on each basis row,
* moments of degree k-1 up to the highest degree the L2 projections read,
  recovered from the projector (the enhancement constraint makes them exact),
* L2 projections of values (degree k-1) and gradients (degree k-1 for the
  standard scheme, degree k+ell-1 for the stabilization-free one),
* the parts of the local stiffness matrix: consistency and stabilization
  for the standard scheme, consistency alone for the stabilization-free one;
  the consistency part is the gradient energy (K grad Pi v, grad Pi w)_E,
  stated once in `_gradient_energy` from the gradient projection's
  coefficients in the L2-orthonormal basis L^-1 m, which with K = I is also
  the form whose rank the stabilization-free scheme checks,
* the source moments of degree k-1, which every scheme shares and tests with
  its own `pi0_val`: `local_load` integrates them on a block of cells at
  once, with the block's `DataRule` (`data_rules` cuts a mesh into blocks).
  A rule holds one monomial table that all its rows share and a small
  transfer matrix per row, so a data pass evaluates the data at each
  quadrature point and no monomial there.

Every step works on a stack of n >= 1 cells that share a vertex count (a
`mesh.CellGeometry`; a lone cell is a one-cell stack): all arrays lead with
the stack axis, matrix products are stacked `@`, and the solves and
eigenvalues are batched LAPACK calls (`assembly.assemble` builds a mesh in
stacks of up to `assembly.STACK_CELLS` cells of one vertex count).  The
one dense solver is `np.linalg.solve`, for the energy projector and for the
triangular solves of both L2 projections.  Those read leading blocks of the
Gram matrix's one Cholesky factor L, which `monomial_gram` computes as its
SPD check and the context keeps: no Gram matrix is factored twice.
`build_projection_pack` builds a stack's `ElementContext` (Gram matrix, its
factor and edge data, from edge integrals alone) and every projector at one
ell; `local_stiffness` takes the finished pack, and `element_matrices` is
the one loop over ell, building the cells a pack leaves `short` again at
ell + 1.

The context holds the data of all m edges as (..., m, ...) arrays.  It is
the one boundary pass of an element: it gathers each side vector once,
evaluates the monomials at all edge points once, and from that table forms
the Gram matrix and the boundary pairing that both projectors read, added
into the columns of `DofLayout.edge_node_dofs`, the one statement of the
local order, which `assembly.build_dof_map` reads too.

The stabilization-free variant enlarges the enhancement range by the smallest
ell satisfying (k+ell)(k+ell+1) >= k*N_E + k(k+1) - 3, which makes the
higher-degree gradient projection rich enough that no stabilizing term is
needed.  Its coercivity is only guaranteed at order 1; a rank check of each
cell's gradient energy, made on every pack, guards the higher orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .basis import (affine_rule, dim_poly, edge_lagrange, edge_rules, eval_monomials,
                    fan_triangles, monomial_derivatives, monomial_gram, monomial_transfer,
                    reference_monomials, scaled_monomials)
from .errors import CellDegeneracyError, PolyvemError, StabilizationFreeRankError


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
    """The one statement of the local dof order, read by the element kernels
    and `assembly.build_dof_map`.  `edge_node_dofs[e, j]` is the dof of node
    j of edge e: vertex e, its k-1 interior nodes, vertex e+1 (the columns
    but the last hold every vertex and edge dof once; the last is each
    vertex's next).  The moment dofs start at `first_moment`.  Every layout
    of one (k, n_vertices) shares the one read-only table."""

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

    @property
    @lru_cache(maxsize=None)      # keyed by the layout's (k, n_vertices)
    def edge_node_dofs(self) -> np.ndarray:
        """(n_vertices, k+1) dofs of each edge's Lobatto nodes, in edge direction."""
        n, k = self.n_vertices, self.k
        inner = n + np.arange(n * (k - 1)).reshape(n, k - 1)
        out = np.column_stack([np.arange(n), inner, (np.arange(n) + 1) % n])
        out.setflags(write=False)
        return out


# ---------------------------------------------------------------------------
# per-element context shared by the build steps
# ---------------------------------------------------------------------------

def _t(a):
    """Transpose of the last two axes: of each matrix of a stack."""
    return np.swapaxes(a, -1, -2)


def _add_edge_columns(target, layout, values):
    """target[..., :, edge_node_dofs[e, j]] += values[..., e, j, :] into a
    target zero in those columns: vertex e+1's column takes edge e's end plus
    edge e+1's start value, bit for bit an unbuffered add's sum (a+b = b+a)."""
    nodes, nxt = layout.edge_node_dofs, layout.edge_node_dofs[:, -1]
    target[..., nodes[:, 1:-1]] += np.moveaxis(values[..., 1:-1, :], -1, -3)
    target[..., nxt] += _t(values[..., -1, :] + values[..., nxt, 0, :])


class ElementContext:
    """Gram matrix, its Cholesky factor and edge data at (k, ell) of a stack
    of n cells with one vertex count (E from `PolyMesh.cell_geom`), every
    array leading with the stack axis.

    One Gauss-Legendre edge rule, exact to degree max(2(k+ell), 2k+ell+3),
    and one table of the scaled monomials of degree <= 2(k+ell) at its
    points give the Gram matrix `gram` up to degree k+ell, with its lower
    Cholesky factor `gram_factor` (`monomial_gram`), and `boundary` (n, 2,
    dim P_{k+ell-1}, total) = int_dE phi_j n_c m_b, the pairing of each dof
    basis function, normal component and monomial that both projectors
    read; both are exact on any simple polygon.  The factor is the one
    factorization of the Gram matrix: both L2 projections solve with its
    leading blocks.
    `grad_degree` = k+ell-1 is the degree of the gradient projection (k-1
    for the standard scheme, whose ell is 0).  Edge e runs from vertex e to
    vertex e+1; over m edges, nq Gauss points and k+1 Lobatto nodes the edge
    data are `edge_lengths` (n, m), `edge_trace` (n, m, k+1, nq) = |e| w_q
    L_j(t_q) (so `edge_trace @ g` integrates each node's trace against g at
    the Gauss points) and `edge_node_points` (n, m, k+1, 2), whose dofs are
    `layout.edge_node_dofs`; the Gauss points and the outward unit normals
    are not kept.
    """

    def __init__(self, E, k: int, ell: int = 0):
        self.E = E
        self.k = k
        self.ell = ell
        self.grad_degree = k + ell - 1
        self.layout = DofLayout(k, E.n_vertices)

        d_max = max(2 * (k + ell), 2 * k + ell + 3)
        lob, gl_t, gl_w = edge_rules(k, d_max)
        start = E.verts
        tang = start[:, self.layout.edge_node_dofs[:, -1]] - start
        self.edge_lengths = np.hypot(tang[..., 0], tang[..., 1])
        normals = np.stack([tang[..., 1], -tang[..., 0]], axis=-1) / self.edge_lengths[..., None]
        points = start[..., None, :] + gl_t[:, None] * tang[..., None, :]
        self.edge_trace = (edge_lagrange(k, d_max)
                           * (self.edge_lengths[..., None] * gl_w)[..., None, :])
        self.edge_node_points = start[..., None, :] + lob[:, None] * tang[..., None, :]
        self.perimeter = self.edge_lengths.sum(axis=-1)

        n, m, nq = points.shape[:3]
        # not kept: about 23 MB for 256 hexagons at k = 3, ell = 6
        table = eval_monomials(E, points.reshape(n, -1, 2), 2 * (k + ell))
        self.gram, self.gram_factor = monomial_gram(E, tang, k + ell, table, gl_w)
        nb = dim_poly(self.grad_degree)
        traced = self.edge_trace @ table[..., :nb].reshape(n, m, nq, nb)   # (n, m, k+1, nb)
        self.boundary = np.zeros((n, 2, nb, self.layout.total))
        for c in (0, 1):
            _add_edge_columns(self.boundary[:, c], self.layout,
                              normals[..., :, c, None, None] * traced)


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------

def build_pi_nabla(ctx: ElementContext):
    """Energy projector onto P_k from the local dof vector: (D, B, G, pi_star).

    D holds the dofs of the monomials, row a of B realizes (grad v, grad m_a)_E
    by parts, G = B @ D, and pi_star = G^-1 B maps a dof vector to the monomial
    coefficients of its projection.  The interior term of B pairs the moment
    dofs with the monomial Laplacians (of degree <= k-2, from
    `monomial_derivatives`) and the boundary term is the context's
    `boundary` pairing of degree <= k-1, read through the gradients
    `monomial_derivatives(k)`.  Row 0 enforces the average condition:
    boundary mean for k = 1, first moment dof for k > 1.
    """
    E, k, lay = ctx.E, ctx.k, ctx.layout
    nk = dim_poly(k)
    n, m = ctx.edge_lengths.shape
    area, h = E.area[:, None, None], E.diameter[:, None, None]

    D = np.empty((n, lay.total, nk))
    D[:, lay.edge_node_dofs[:, :-1]] = eval_monomials(
        E, ctx.edge_node_points[..., :-1, :].reshape(n, -1, 2), k).reshape(n, m, k, nk)
    D[..., lay.first_moment:, :] = ctx.gram[..., :lay.n_moments, :nk] / area

    lower, upper = monomial_derivatives(k - 1), monomial_derivatives(k)
    B = (_t(upper) @ ctx.boundary[:, :, :dim_poly(k - 1)]).sum(axis=1) / h
    lap = lower[0] @ upper[0] + lower[1] @ upper[1]      # (dim P_{k-2}, nk), integers
    B[..., lay.first_moment:] = -lap.T / h ** 2 * area
    B[..., 0, :] = 0.0
    if k == 1:
        mean = ctx.edge_trace.sum(axis=-1) / ctx.perimeter[..., None, None]
        _add_edge_columns(B[..., :1, :], lay, mean[..., None])
    else:
        B[..., 0, lay.first_moment] = 1.0

    G = B @ D
    try:
        pi_star = np.linalg.solve(G, B)
    except np.linalg.LinAlgError:
        raise CellDegeneracyError(f"singular projector system (k={k})") from None
    return D, B, G, pi_star


def recover_moments(ctx: ElementContext, pi_star: np.ndarray) -> np.ndarray:
    """Linear maps dof vector -> int_E v m_a for all |a| <= max(k-1, k+ell-2),
    the highest degree that `build_pi0_val` and `build_pi0_grad` read.

    Moments up to degree k-2 are |E| times the stored moment dofs; the
    remaining ones equal the moments of the energy projection, which the
    enhancement constraint of the virtual space makes exact.
    """
    lay = ctx.layout
    n_top = dim_poly(max(ctx.k - 1, ctx.grad_degree - 1))
    nk = dim_poly(ctx.k)
    M = np.zeros((ctx.E.cells.size, n_top, lay.total))
    M[..., :lay.n_moments, lay.first_moment:] = (ctx.E.area[:, None, None]
                                                 * np.eye(lay.n_moments))
    M[..., lay.n_moments:, :] = ctx.gram[..., lay.n_moments:n_top, :nk] @ pi_star
    return M


def _lower_solve(L, R):
    """L^-1 R for a stack of lower triangular L.  Its rows and columns
    reversed, L is upper triangular: `gesv`'s partial pivoting then swaps no
    row, as the subdiagonal is exactly zero, and its solve is a back
    substitution."""
    return np.linalg.solve(L[..., ::-1, ::-1], R[..., ::-1, :])[..., ::-1, :]


def build_pi0_val(ctx: ElementContext, moments: np.ndarray) -> np.ndarray:
    """Monomial coefficients of the L2 projection of values onto P_{k-1}:
    L^-T (L^-1 moments), with L the degree-(k-1) block of the context's
    Gram factor.  L^-1 comes from one triangular solve of the identity,
    dim P_{k-1} columns (6 at k = 3), where two solves with the moments
    would take `total` columns each; the value block, of the lowest degree,
    is the best conditioned of the Gram's leading blocks."""
    n = dim_poly(ctx.k - 1)
    inverse = _lower_solve(ctx.gram_factor[..., :n, :n], np.eye(n))
    return _t(inverse) @ (inverse @ moments[..., :n, :])


def build_pi0_grad(ctx: ElementContext, moments: np.ndarray) -> np.ndarray:
    """The L2 projection of the gradient onto [P_d]^2, d = `ctx.grad_degree`,
    as W = L^-1 R: its coefficients in the L2-orthonormal basis L^-1 m, with
    L the degree-d block of the context's Gram factor and R the pairings
    (grad v, m_a e_c)_E.  Its monomial coefficients would be L^-T W, which
    no kernel needs.

    For each vector monomial the pairing is integrated by parts: the
    divergence term reads recovered moments (degree <= d-1) through
    `monomial_derivatives` and the boundary term is the context's
    `boundary`.  One triangular solve takes the x and y right-hand sides
    side by side.  Rows are the x-component block stacked over the
    y-component block.
    """
    d = ctx.grad_degree
    nd, n_lower = dim_poly(d), dim_poly(d - 1)
    h = ctx.E.diameter[:, None, None, None]

    # the x block, then the y block: (n, 2, nd, total)
    R = ctx.boundary - (_t(monomial_derivatives(d)) / h) @ moments[:, None, :n_lower, :]
    rhs = np.concatenate([R[:, 0], R[:, 1]], axis=-1)        # (n, nd, 2 total)
    coef = _lower_solve(ctx.gram_factor[..., :nd, :nd], rhs)
    return np.concatenate(np.split(coef, 2, axis=-1), axis=-2)


@dataclass
class ProjectionPack:
    """All element matrices one scheme needs on a stack of n cells, each
    array leading with the stack axis, built with one enlargement ell.

    `pi0_val` holds the monomial coefficients of the value projection, which
    the load reads.  `pi0_grad` holds the gradient projection as W = L^-1 R
    (`build_pi0_grad`), its coefficients in the L2-orthonormal basis of the
    Gram factor, which the gradient energy reads.  No kernel forms its
    monomial coefficients, as the error pass reads `pi_star`.  `short` (n,)
    marks the cells whose stabilization-free gradient projection is rank
    deficient at this ell, None when no cell is; `element_matrices` builds
    them again at ell + 1.
    """

    k: int
    ell: int
    layout: DofLayout
    pi_star: np.ndarray  # n x dim P_k x total, monomial coefficients of the projection
    D: np.ndarray         # n x total x dim P_k, dofs of the monomials (D @ pi_star = Pi)
    pi0_val: np.ndarray   # n x dim P_{k-1} x total
    pi0_grad: np.ndarray  # n x 2 dim P_{grad_degree} x total, W
    short: np.ndarray | None = None


RANK_TOL = 1e-9
MAX_ELL_BUMPS = 4


def _gradient_energy(W, Km) -> np.ndarray:
    """(K grad Pi v, grad Pi w)_E for the gradient projection W =
    `build_pi0_grad` (its x block W_0 over its y block W_1) with the
    constant tensor Km, per cell: the symmetrized sum_cd K_cd W_c^T W_d.

    In the monomials, with coefficients Z = L^-T W and Gram block H = L L^T,
    this is Z^T (K kron H) Z; formed from W, its rounding error is relative
    to the energy, where the monomial form's grows with H's condition number.
    """
    A = _t(W) @ (Km @ W.reshape(W.shape[0], 2, -1)).reshape(W.shape)
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
    ctx = ElementContext(E, k, ell)
    D, _, _, pi_star = build_pi_nabla(ctx)
    moments = recover_moments(ctx, pi_star)
    pi0_grad = build_pi0_grad(ctx, moments)
    pack = ProjectionPack(k=k, ell=ell, layout=ctx.layout, pi_star=pi_star, D=D,
                          pi0_val=build_pi0_val(ctx, moments),
                          pi0_grad=pi0_grad)
    if method is Method.STANDARD:
        return pack
    # the unweighted form (K = I) has the rank of any SPD tensor's and keeps
    # the threshold free of the tensor's anisotropy; full rank is N-1, as
    # the constants are its kernel
    evals = np.linalg.eigvalsh(_gradient_energy(pi0_grad, np.eye(2)))
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
    """The parts of the local stiffness matrix of the scheme with diffusion
    tensor K, each (n, total, total) over the pack's stack, at the pack's ell
    (its `short` cells included: `element_matrices` replaces theirs).

    Standard scheme: (a_pi, a_s), the consistency part (`_gradient_energy`)
    from the degree k-1 gradient projection and the dofi-dofi stabilization
    sup|K| * (I - Pi)^T (I - Pi), Pi = D @ pi_star.  Stabilization-free
    scheme: (a_pi,), the consistency part alone, from the degree k+ell-1
    gradient projection, whose rank `build_projection_pack` has checked.
    """
    a_pi = _gradient_energy(pack.pi0_grad, K.matrix)
    if method is Method.E2VEM:
        return (a_pi,)
    Mc = np.eye(pack.layout.total) - pack.D @ pack.pi_star
    return a_pi, K.sup_norm() * (_t(Mc) @ Mc)


def element_matrices(E, k: int, method: Method, K: DiffusionTensor):
    """(pi_star, pi0_val, *parts) of every cell of the stack E, `parts` the
    scheme's `local_stiffness` parts, each stacked, each cell at the first
    enlargement that passes its rank check.

    This is the one loop over ell: the cells a pack leaves `short` are built
    again at the next ell as a smaller stack, whose matrices are written
    over theirs in place.  A `PolyvemError` names the lowest failing cell of
    E (whose cells ascend), or none if no cell fails alone: the rank error,
    raised at the last ell once every cell has passed every solve, names the
    first short cell, and a batched solve that fails as a whole has the
    cells built alone, in order.  A `LinAlgError` of a batched LAPACK call
    (the rank check's eigenvalues, a triangular solve) names no cell; it
    becomes a `CellDegeneracyError` and is named the same way.
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
    except (PolyvemError, np.linalg.LinAlgError) as exc:
        if not isinstance(exc, PolyvemError):
            exc = CellDegeneracyError(f"element kernel failed ({exc}, k={k})")
        if exc.cell is None and E.cells.size == 1:
            exc.cell = E.cells.item()
        elif exc.cell is None:
            for i in range(E.cells.size):
                element_matrices(E.take([i]), k, method, K)
        raise exc from None
    return out


# Points per data block.  Blocks of about this size ran the data passes
# fastest, and they keep a block's tables to a few MB whatever the mesh.
DATA_BLOCK_POINTS = 25_000


def _data_reference(k: int, rectangles: bool):
    """(shape, points per direction) of the reference rule of the order-k
    data rules, exact to degree 2k+6: on a mesh of axis-aligned rectangles
    (`PolyMesh.rectangles` set) the tensor rule with k+5 Gauss-Legendre
    points per direction, exact to degree 2k+9 in each variable; on fan
    triangles the collapsed rule with k+4, exact to total degree 2k+7."""
    return ("square", k + 5) if rectangles else ("triangle", k + 4)


class DataRule:
    """The quadrature for source and error data on a block of consecutive
    cells, with the scaled monomials of its rows; `data_rules` cuts a mesh
    into blocks.

    It is exact to degree 2k+6 on every cell of the block.  Its rows are
    the affine images of one reference rule (`basis.affine_rule`): on a
    mesh of rectangles (`PolyMesh.rectangles`) each cell is the image of
    the unit square, otherwise each triangle of the cell's centroid fan
    is the image of the reference triangle (`_data_reference`).  For data
    oscillating in y (a case with a `y_wavelength`) a rectangle is cut into
    equal horizontal strips, each strip a row, and any other cell taller
    than half the wavelength into equal horizontal bands, whose pieces are
    fanned into triangles (`basis.fan_triangles`), each triangle a row.
    `cells` is the block's range of cell indices.
    The rule has R rows of q points each, held as coordinate planes: `x`,
    `y` and `weights` are (R, q), `row_cells` (R,) is the cell of each row,
    and the rows of cell `cells[i]` start at `starts[i]`, so a per-cell
    integral is a segment sum.  On a mesh of congruent cells a row is one
    whole cell.

    The scaled monomials of degree <= k-1 of row r's cell at row r's points
    are `table @ transfer[r].T`: `table` (q, n) is shared by every row and
    `transfer` (R, n, n) maps it to each row's cell.  The table holds the
    monomials of the reference coordinates (`basis.reference_monomials`)
    and `transfer` comes from each row's corners (`basis.monomial_transfer`);
    on congruent cells the table is cell 0's own scaled monomials, which
    every cell shares, `transfer` is the (1, n, n) identity and `weights`
    is cell 0's row, broadcast read-only.
    """

    def __init__(self, row_cells, x, y, weights, table, transfer):
        self.cells = range(int(row_cells[0]), int(row_cells[-1]) + 1)
        self.x, self.y, self.weights = x, y, weights
        self.row_cells = row_cells
        self.starts = np.searchsorted(row_cells, self.cells)
        self.table, self.transfer = table, transfer


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


def _strips(lo, sides, max_y_extent):
    """The rows of rectangles with lower-left corners `lo` and `sides`, each
    (n, 2): their corners (p0, p1, p2), each (T, 2), p0 the lower-left one
    and p1, p2 its neighbours along x and y, and the rectangle of each row,
    non-decreasing.  With `max_y_extent` set, a rectangle of height s is cut
    into ceil(s / max_y_extent) equal horizontal strips, bottom first;
    otherwise it is one row."""
    n = (np.ones(lo.shape[0], dtype=int) if max_y_extent is None
         else np.ceil(sides[:, 1] / max_y_extent).astype(int))
    owner = np.repeat(np.arange(n.size), n)
    level = np.arange(owner.size) - np.repeat(np.cumsum(n) - n, n)
    height = sides[owner, 1] / n[owner]
    p0 = np.column_stack([lo[owner, 0], lo[owner, 1] + level * height])
    p1 = np.column_stack([p0[:, 0] + sides[owner, 0], p0[:, 1]])
    p2 = np.column_stack([p0[:, 0], p0[:, 1] + height])
    return (p0, p1, p2), owner


def data_rules(mesh, k: int, y_wavelength=None):
    """The order-k `DataRule`s of the mesh: consecutive blocks of whole cells
    in cell order, each of at most DATA_BLOCK_POINTS points unless it is one
    cell that alone has more.

    The cell shapes, as the mesh decided them, decide the rows, formed once
    for the mesh: when `mesh.rectangles` is set, each cell, or with a
    `y_wavelength` each of its ceil(height / (wavelength / 2)) equal
    horizontal strips (`_strips`), is a row of the square's tensor rule.
    Otherwise the rows are triangles: each cell's centroid fan is formed
    and checked (the one star-shape check of a solve: a cell that is not
    star-shaped raises `QuadratureError` naming that cell before any block
    is built), and with a `y_wavelength` a cell taller than half of it is
    cut into equal horizontal bands of at most that height, as a whole when
    it is convex, else by way of its fan triangles, and each band piece is
    fanned from one of its vertices (`fan_triangles`); a cell within half
    the wavelength keeps its fan.  On a mesh of `congruent_cells` the rows
    are formed for cell 0 alone, about its centroid, and cell 0 stands for
    every cell, as it does for the elements of `assembly.assemble`: the
    star-shape check runs on cell 0, every cell takes cell 0's rows (and
    band count), weights and monomial table, and a block's planes are its
    centroids plus cell 0's offsets, in one broadcast.  Otherwise a cell's
    rows stay together and in cell order, and each block applies one
    `affine_rule` and one `monomial_transfer` to its rows, whose planes are
    the rule's: the scaled monomials are formed at n points of each row,
    not at each of its q rule points.
    """
    max_y = y_wavelength / 2.0 if y_wavelength else None
    reference = _data_reference(k, mesh.rectangles is not None)
    ids, starts = mesh.flat_cells
    # cell 0 alone, about its centroid, on congruent cells; else every cell
    n, origin = ((1, mesh.cell_centroids[0]) if mesh.congruent_cells
                 else (mesh.n_cells, np.zeros(2)))
    if mesh.rectangles is not None:
        lo, sides = mesh.rectangles
        corners, owner = _strips(lo[:n] - origin, sides[:n], max_y)
    else:
        corners, owner = fan_triangles(mesh.vertices[ids[:starts[n]]] - origin, starts[:n + 1],
                                       mesh.cell_centroids[:n] - origin, mesh.cell_areas[:n],
                                       max_y_extent=max_y)
    if mesh.congruent_cells:
        # cell 0's rule as one row: x and y offsets from its centroid, weights
        offsets = np.stack(affine_rule(*corners, *reference)).reshape(3, 1, -1)
        table = scaled_monomials(*(offsets[:2, 0] / mesh.cell_diameters[0]), k - 1)
        identity = np.eye(table.shape[1])[None]
        for first, stop in _blocks(offsets.shape[-1] * np.arange(mesh.n_cells + 1)):
            x, y = mesh.cell_centroids[first:stop].T[..., None] + offsets[:2]
            weights = np.broadcast_to(offsets[2], x.shape)
            yield DataRule(np.arange(first, stop), x, y, weights, table, identity)
        return
    table = reference_monomials(*reference, k - 1)
    first_row = np.searchsorted(owner, np.arange(mesh.n_cells + 1))
    for first, stop in _blocks(first_row * table.shape[0]):
        block = slice(first_row[first], first_row[stop])
        rows = owner[block]
        row_corners = [c[block] for c in corners]
        transfer = monomial_transfer(*row_corners, mesh.cell_centroids[rows],
                                     mesh.cell_diameters[rows], k - 1)
        yield DataRule(rows, *affine_rule(*row_corners, *reference), table, transfer)


def local_load(f, rule: DataRule) -> np.ndarray:
    """Moments int_E f m_a, |a| <= k-1, of a source on every cell E of a data
    block, shape (len(rule.cells), dim P_{k-1}).

    A scheme's load on cell E is `pi0_val.T @` E's row.  `f` is evaluated
    on the rule's (R, q) planes, the weighted values of each row meet the
    shared table in one product, and each row's moments are then mapped to
    its cell's monomials by its transfer."""
    fw = rule.weights * np.asarray(f(rule.x, rule.y), dtype=float)
    per_row = (rule.transfer @ (fw @ rule.table)[..., None])[..., 0]
    return np.add.reduceat(per_row, rule.starts, axis=0)
