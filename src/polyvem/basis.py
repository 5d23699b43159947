"""Scaled monomial bases on polygons, polygon and edge quadrature, Gram matrices.

The basis on a cell E is m_a(p) = ((p - x_E) / h_E)^a, enumerated in graded
lexicographic order with the x-exponent descending inside each degree block.
Centering at the centroid and scaling by the diameter keeps the basis well
conditioned on small or stretched cells.  All functions here are pure.

The Gauss rules on the reference triangle, square and edge (Gauss-Jacobi,
its Legendre case and the interior Lobatto nodes) come from `gauss_jacobi`,
which builds them with numpy alone the Golub-Welsch way, so importing this
module loads no `scipy.special`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CellDegeneracyError, MeshError
from .mesh import _next_vertex


def dim_poly(k: int) -> int:
    """Dimension of bivariate polynomials of total degree <= k; 0 for k = -1."""
    if k < -1:
        raise ValueError(f"degree must be >= -1, got {k}")
    return 0 if k == -1 else (k + 1) * (k + 2) // 2


@lru_cache(maxsize=None)
def monomial_exponents(degree: int) -> np.ndarray:
    """Exponent pairs (ax, ay) for all |a| <= degree, graded-lex ordered."""
    exps = [(d - j, j) for d in range(degree + 1) for j in range(d + 1)]
    out = np.array(exps, dtype=int).reshape(-1, 2)
    out.setflags(write=False)
    return out


def monomial_index(ax, ay):
    """Position of (ax, ay) in the graded-lex enumeration, elementwise on arrays."""
    ax, ay = np.asarray(ax), np.asarray(ay)
    if (ax < 0).any() or (ay < 0).any():
        raise ValueError("exponents must be non-negative")
    d = ax + ay
    return d * (d + 1) // 2 + ay


def _power_table(values, degree):
    out = np.empty(values.shape + (degree + 1,))
    out[..., :1] = 1.0          # a slice: at degree -1 there is no column
    for d in range(1, degree + 1):
        out[..., d] = out[..., d - 1] * values
    return out


def scaled_monomials(rx, ry, degree: int) -> np.ndarray:
    """Values rx^ax ry^ay of all |a| <= degree at scaled coordinates
    rx = (x - x_E) / h_E, ry = (y - y_E) / h_E of any shape, shape (..., n);
    n = 0 at degree -1."""
    exps = monomial_exponents(degree)
    return _power_table(rx, degree)[..., exps[:, 0]] * _power_table(ry, degree)[..., exps[:, 1]]


def _scaled_coordinates(E, pts):
    """rx, ry = (pts - x_E) / h_E, shape (n, npts): each of the n cells of
    the stack E takes its own points, pts (n, npts, 2)."""
    c = E.centroid[:, None, :]
    h = E.diameter[:, None]
    return (pts[..., 0] - c[..., 0]) / h, (pts[..., 1] - c[..., 1]) / h


def eval_monomials(E, pts, degree: int) -> np.ndarray:
    """Values of all scaled monomials with |a| <= degree at pts on each cell
    of the stack E, which takes its own points (n, npts, 2): (n, npts, dim)."""
    return scaled_monomials(*_scaled_coordinates(E, pts), degree)


@lru_cache(maxsize=None)
def monomial_derivatives(degree: int) -> np.ndarray:
    """(2, dim P_{degree-1}, dim P_degree) table D with d m_a / dx_i =
    (1/h_E) sum_b D[i, b, a] m_b: the gradient in the lower-degree basis.
    Every derivative of a scaled monomial is read from it.  Cached and
    read-only."""
    exps = monomial_exponents(degree)
    out = np.zeros((2, dim_poly(degree - 1), exps.shape[0]))
    for i in (0, 1):
        a = np.flatnonzero(exps[:, i])
        lower = exps[a] - np.eye(2, dtype=int)[i]
        out[i, monomial_index(lower[:, 0], lower[:, 1]), a] = exps[a, i]
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadRule:
    points: np.ndarray
    weights: np.ndarray


def gauss_jacobi(m: int, a: float, b: float):
    """Nodes (ascending) and weights of the m-point Gauss rule on [-1, 1]
    for the weight (1 - x)^a (1 + x)^b, a, b >= 0; Gauss-Legendre is
    a = b = 0.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the monic three-term recurrence p_{n+1} = (x - alpha_n) p_n -
    beta_n p_{n-1}, polished by one Newton step on p_m.  The weights are
    1 / ((1 - x^2) p_m'(x)^2), which holds up to a factor that depends only
    on m, a and b, scaled to their exact sum, the weight's integral
    2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2).
    """
    # n = 0 has forms of its own (the general ones can read 0/0 there);
    # beta_0 multiplies p_{-1} = 0
    n = np.arange(1, m, dtype=float)
    s = 2.0 * n + a + b
    alpha = np.concatenate([[(b - a) / (a + b + 2.0)], (b * b - a * a) / (s * (s + 2.0))])
    beta = np.concatenate(
        [[0.0], 4.0 * n * (n + a) * (n + b) * (n + a + b) / (s * s * (s + 1.0) * (s - 1.0))])

    def p_m(x):
        """p_m and p_m' at x, by the recurrence and its derivative."""
        p0, p1, d0, d1 = 0.0, 1.0, 0.0, 0.0
        for j in range(m):
            p0, p1 = p1, (x - alpha[j]) * p1 - beta[j] * p0
            d0, d1 = d1, p0 + (x - alpha[j]) * d1 - beta[j] * d0
        return p1, d1

    x = np.linalg.eigvalsh(np.diag(alpha) + np.diag(np.sqrt(beta[1:]), -1))
    p, d = p_m(x)
    x = x - p / d
    d = p_m(x)[1]
    w = 1.0 / ((1.0 - x * x) * d * d)
    mass = 2.0 ** (a + b + 1) * math.gamma(a + 1) * math.gamma(b + 1) / math.gamma(a + b + 2)
    return x, w * (mass / w.sum())


@lru_cache(maxsize=None)
def reference_rule(shape: str, m: int):
    """Points (U, V) and weights W of the m x m-point Gauss rule on the
    reference `shape`, each (m*m,), cached and read-only.

    "triangle": the unit triangle U, V >= 0, U + V <= 1, with a collapsed
    rule, Gauss-Jacobi (weight 1-s, absorbing the collapse Jacobian) in U
    tensorized with Gauss-Legendre; exact to total degree 2m-1.
    "square": the unit square, with the tensor Gauss-Legendre rule; exact to
    degree 2m-1 in each variable.  The weights sum to the shape's area.
    """
    xl, wl = gauss_jacobi(m, 0.0, 0.0)
    t = 0.5 * (xl + 1.0)
    wt = 0.5 * wl
    if shape == "triangle":
        xj, wj = gauss_jacobi(m, 1.0, 0.0)
        U = np.repeat(0.5 * (xj + 1.0), m)
        V = np.tile(t, m) * (1.0 - U)
        W = np.repeat(0.25 * wj, m) * np.tile(wt, m)
    elif shape == "square":
        U, V, W = np.repeat(t, m), np.tile(t, m), np.repeat(wt, m) * np.tile(wt, m)
    else:
        raise ValueError(f"reference shape must be 'triangle' or 'square', got {shape!r}")
    U.setflags(write=False), V.setflags(write=False), W.setflags(write=False)
    return U, V, W


def affine_rule(p0, p1, p2, shape: str, m: int):
    """Coordinate planes x, y and weights w, each (T, q), of the m x m-point
    `reference_rule` of `shape` mapped onto T affine images of it, given by
    stacked (T, 2) corners: row t takes the points p0 + U (p1 - p0) + V (p2 -
    p0) and the weights W det, det the map's Jacobian.  A triangle
    (p0, p1, p2) is the image of the reference triangle; a parallelogram
    with p0 between its sides to p1 and p2 is the image of the unit square.
    The weights of a row sum to its image's signed area.
    """
    U, V, W = reference_rule(shape, m)
    p0 = np.asarray(p0, dtype=float)
    e1 = np.asarray(p1, dtype=float) - p0
    e2 = np.asarray(p2, dtype=float) - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    x, y = p0.T[..., None] + U * e1.T[..., None] + V * e2.T[..., None]
    return x, y, W * det[:, None]


def triangle_rule(p0, p1, p2, degree: int):
    """The planes x, y, w, each (T, q), integrating polynomials of total
    degree <= `degree` over each triangle (p0, p1, p2) of stacked (T, 2)
    corners: the `affine_rule` of the reference triangle's rule with
    ceil((degree+1)/2) points per direction."""
    return affine_rule(p0, p1, p2, "triangle", max(1, (degree + 2) // 2))


@lru_cache(maxsize=None)
def reference_monomials(shape: str, m: int, d: int) -> np.ndarray:
    """(q, dim P_d) values U^i V^j, i + j <= d, graded-lex as in
    `scaled_monomials`, at the q points (U, V) of `reference_rule(shape, m)`,
    which `affine_rule` maps.  Cached and read-only."""
    U, V, _ = reference_rule(shape, m)
    out = scaled_monomials(U, V, d)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _lattice(d: int):
    """The principal lattice of degree d on the reference triangle, the
    points (i, j) / d with i + j <= d in the order of `monomial_exponents`
    (the origin at d = 0), which is unisolvent for P_d, and the inverse of
    the matrix of the monomials U^i V^j at its points.  Cached and read-only."""
    nodes = monomial_exponents(d) / max(d, 1)
    inverse = np.linalg.inv(scaled_monomials(nodes[:, 0], nodes[:, 1], d))
    nodes.setflags(write=False), inverse.setflags(write=False)
    return nodes, inverse


def monomial_transfer(p0, p1, p2, centroids, diameters, d: int) -> np.ndarray:
    """(T, n, n), n = dim P_d: on each triangle (p0, p1, p2) of stacked (T, 2)
    corners, the coefficients of the scaled monomials of degree <= d, about
    the centroid (T, 2) and diameter (T,) of the triangle's cell, in the
    monomials U^i V^j of the reference coordinates of `affine_rule`.  So
    on triangle t, or on the parallelogram that the same corners give, the
    scaled monomials at the points of a reference rule are
    `reference_monomials(shape, m, d) @ transfer[t].T`.

    A point of the image is affine in (U, V), so a scaled monomial of
    degree <= d is a polynomial of degree <= d in (U, V); its coefficients
    come from its values at the points of `_lattice(d)`, which map into the
    triangle (p0, p1, p2) whichever the reference shape."""
    nodes, inverse = _lattice(d)
    e1, e2 = p1 - p0, p2 - p0
    rx, ry = ((p0[:, i, None] + nodes[:, 0] * e1[:, i, None] + nodes[:, 1] * e2[:, i, None]
               - centroids[:, i, None]) / diameters[:, None] for i in (0, 1))
    return np.swapaxes(scaled_monomials(rx, ry, d), -1, -2) @ inverse.T


def _band_pieces(verts, starts, max_y_extent):
    """Cut each convex CCW polygon verts[starts[i]:starts[i+1]] into
    n = ceil(extent / max_y_extent) equal horizontal bands of its own y-range
    and fan each band piece from one of its vertices: ((p0, p1, p2),
    polygon), stacked (T, 2) CCW corners of positive area and the polygon
    (T,) of each triangle, non-decreasing; a polygon's pieces run from its
    bottom band up.

    Walking the polygon's sides in order, a piece takes each vertex within
    its band, bounds included, and each point where the side crosses a bound
    strictly between its ends, at exactly the bound's height: the piece's
    vertices in CCW order, none repeated.  Its fan's apex is the first of
    them, so one band of a triangle is that triangle, corners in order.
    Triangles of zero area, at collinear corners, are dropped.
    """
    lens = np.diff(starts)
    y = verts[:, 1]
    lo, hi = np.minimum.reduceat(y, starts[:-1]), np.maximum.reduceat(y, starts[:-1])
    n = np.ceil((hi - lo) / max_y_extent).astype(int)
    # one piece per band, with the band's bounds: the top band's upper bound
    # is the polygon's top itself, not lo + n * (hi - lo) / n
    poly = np.repeat(np.arange(n.size), n)
    band = np.arange(poly.size) - np.repeat(np.cumsum(n) - n, n)
    n, lo, extent = n[poly], lo[poly], (hi - lo)[poly]
    bottom = lo + band / n * extent
    top = np.where(band + 1 == n, hi[poly], lo + (band + 1) / n * extent)
    # one row per side of each piece's polygon, sides in polygon order
    m = lens[poly]
    piece = np.repeat(np.arange(poly.size), m)
    side = starts[poly][piece] + np.arange(piece.size) - np.repeat(np.cumsum(m) - m, m)
    a, b = verts[side], verts[_next_vertex(starts)[side]]
    ya, yb, bottom, top = a[:, 1], b[:, 1], bottom[piece], top[piece]
    rise = np.where(ya == yb, 1.0, yb - ya)     # a flat side crosses no bound

    def crossing(level):
        """Each side's point at height `level`, and whether the side crosses
        it strictly between its ends (the points of the others, discarded,
        may overflow)."""
        with np.errstate(over="ignore", invalid="ignore"):
            x = a[:, 0] + (level - ya) / rise * (b[:, 0] - a[:, 0])
        return (np.column_stack([x, level]),
                ((ya < level) & (level < yb)) | ((yb < level) & (level < ya)))

    # a rising side meets the lower bound first, a falling one the upper
    up = yb > ya
    (first, crosses_first), (second, crosses_second) = (crossing(np.where(up, bottom, top)),
                                                        crossing(np.where(up, top, bottom)))
    found = np.column_stack([(bottom <= ya) & (ya <= top), crosses_first, crosses_second])
    points = np.stack([a, first, second], axis=1)[found]
    owner = np.repeat(piece, found.sum(axis=1))
    # each piece's fan (apex, w_j, w_j+1), 0 < j < last, apex its first point
    count = np.bincount(owner, minlength=poly.size)
    apex = np.cumsum(count) - count
    j = np.arange(owner.size) - apex[owner]
    j = np.flatnonzero((j > 0) & (j < count[owner] - 1))
    p0, p1, p2 = points[apex[owner[j]]], points[j], points[j + 1]
    keep = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
            - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0])) > 0.0
    return (p0[keep], p1[keep], p2[keep]), poly[owner[j[keep]]]


def fan_triangles(verts, starts, centroids, areas, *, max_y_extent=None):
    """The fan triangles of several star-shaped polygons: ((c, a, b), owner).

    Polygon i has the CCW vertices verts[starts[i]:starts[i+1]], its
    centroid centroids[i] and area areas[i], and is fanned into the
    triangles (centroid, v_j, v_j+1), which are stacked (T, 2) corners in
    polygon order; owner (T,) is the polygon of each triangle, non-decreasing.
    A polygon that is not star-shaped with respect to its centroid raises
    `MeshError` with `cell` set to i.

    With `max_y_extent` set (positive and finite, else `ValueError`), the
    triangles resolve data that oscillate in y.  A polygon of y-extent e >
    max_y_extent whose corners all turn left (every corner's cross product
    >= 0: convex, as the mesh's polygons are simple) is cut as a whole into
    ceil(e / max_y_extent) equal horizontal bands, each band piece fanned
    from one of its vertices (`_band_pieces`); another polygon that tall is
    cut the same way by way of its fan triangles, which are convex, each in
    bands of its own y-range.  A polygon within max_y_extent keeps its
    centroid fan as it is.  The triangles stay in polygon order, and a
    cut polygon's run from its bottom band up.
    """
    if max_y_extent is not None and not (math.isfinite(max_y_extent) and max_y_extent > 0):
        raise ValueError(f"max_y_extent must be positive and finite, got {max_y_extent}")
    starts = np.asarray(starts)
    owner = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    a = np.asarray(verts, dtype=float)
    nxt = _next_vertex(starts)
    b = a[nxt]
    c = np.asarray(centroids, dtype=float)[owner]
    signed = 0.5 * ((a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
                    - (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0]))
    bad = np.flatnonzero(signed <= 1e-14 * np.asarray(areas)[owner])
    if bad.size:
        t = bad[0]
        raise MeshError(
            "cell is not star-shaped with respect to its centroid "
            f"(fan triangle {t - starts[owner[t]]} has signed area {signed[t]:g}); "
            "run mesh validation", cell=int(owner[t]))
    if max_y_extent is None:
        return (c, a, b), owner
    # the polygons to cut: a whole one by its vertices, any other by the
    # corners (c, a, b) of each of its fan triangles
    e1, e2 = b - a, b[nxt] - b
    turns_left = np.logical_and.reduceat(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] >= 0.0,
                                         starts[:-1])
    y = a[:, 1]
    tall = np.maximum.reduceat(y, starts[:-1]) - np.minimum.reduceat(y, starts[:-1]) > max_y_extent
    whole = (turns_left & tall)[owner]
    # a polygon begins at a cell cut whole's first vertex and at each fan
    # triangle of any other cell
    begins = ~whole | (np.arange(owner.size) == starts[:-1][owner])
    sizes = np.where(whole, np.diff(starts)[owner], 3)[begins]
    corners = np.stack([c, a, b], axis=1)[np.column_stack([~whole, np.ones_like(whole), ~whole])]
    triangles, polygon = _band_pieces(corners, np.concatenate([[0], np.cumsum(sizes)]),
                                      max_y_extent)
    return triangles, owner[begins][polygon]


def polygon_quadrature(E, degree: int) -> QuadRule:
    """Quadrature on the star-shaped polygon of the one-cell stack E, exact
    for degree <= `degree`: a collapsed Gauss rule on each triangle of the
    centroid fan, in fan order.  A stack of more cells raises `ValueError`;
    a cell that is not star-shaped raises `MeshError` naming its mesh
    index."""
    if E.cells.size != 1:
        raise ValueError(f"polygon_quadrature takes one cell, got a stack of {E.cells.size}")
    try:
        corners, _ = fan_triangles(E.verts[0], [0, E.n_vertices], E.centroid, E.area)
    except MeshError as exc:
        exc.cell = E.cells.item()
        raise
    x, y, w = triangle_rule(*corners, degree)
    return QuadRule(np.column_stack([x.ravel(), y.ravel()]), w.ravel())


def monomial_gram(E, sides, degree: int, table: np.ndarray, weights: np.ndarray):
    """Mass matrix M of the scaled monomials up to `degree` on each cell of
    the stack E, (n, dim, dim), and its lower Cholesky factor L, M = L L^T.
    M[a, b] is the moment of m_g, g = a + b, homogeneous of degree |g| about
    x_E: mu_g = sum_e ((x - x_E) . n_e) int_e m_g ds / (|g| + 2) (Chin,
    Lasserre & Sukumar, Comput. Mech. 56, 2015).  Edge e runs from vertex e
    along its side vector `sides[:, e]` (n, m, 2) to vertex e+1.  The edge
    integrals read `table` (n, m*nq, dim P_{2 degree}), the scaled monomials
    of degree <= 2*degree at the points of a reference edge rule with
    `weights` (nq,) summing to 1, mapped onto each of the m edges in edge
    order; the moments are exact when the rule is exact to degree 2*degree.

    SPD in exact arithmetic; the factorization checks it in floating point
    and raises `CellDegeneracyError` if it fails.  It is the one
    factorization of the Gram matrix: the leading block of L of any degree
    is the Cholesky factor of M's leading block of that degree, so the L2
    projections of `local` solve with blocks of L, and factor and check
    nothing themselves."""
    arm = E.verts - E.centroid[:, None, :]
    # |e| (x - x_E) . n_e, constant on edge e, times the rule's weights
    flux = (arm[..., 0] * sides[..., 1] - arm[..., 1] * sides[..., 0])[..., None] * weights
    mu = np.einsum("...q,...qg->...g", flux.reshape(table.shape[:-1]), table)
    mu /= monomial_exponents(2 * degree).sum(axis=1) + 2
    exps = monomial_exponents(degree)
    M = mu[..., monomial_index(*np.moveaxis(exps[:, None] + exps, -1, 0))]
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise CellDegeneracyError(
            f"monomial Gram matrix is not positive definite (degree {degree})") from None
    return M, L


# ---------------------------------------------------------------------------
# edge rules
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def edge_rules(k: int, d_max: int):
    """Edge node and integration rules on the reference edge [0, 1].

    Returns (lobatto, gl_points, gl_weights): the k+1 Gauss-Lobatto node
    parameters (endpoints included) that carry the edge degrees of freedom,
    and a Gauss-Legendre rule exact for 1D polynomials of degree <= d_max
    whose weights sum to 1.  The arrays are cached and read-only.
    """
    if k < 1:
        raise ValueError("order k must be >= 1")
    if k == 1:
        lob = np.array([0.0, 1.0])
    else:
        # interior Lobatto nodes are the roots of the (1,1)-Jacobi polynomial
        xi, _ = gauss_jacobi(k - 1, 1.0, 1.0)
        lob = np.concatenate([[0.0], 0.5 * (xi + 1.0), [1.0]])
    m = max(1, (d_max + 2) // 2)
    xl, wl = gauss_jacobi(m, 0.0, 0.0)
    out = (lob, 0.5 * (xl + 1.0), 0.5 * wl)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def edge_lagrange(k: int, d_max: int) -> np.ndarray:
    """`lagrange_matrix` of the Lobatto nodes of `edge_rules(k, d_max)` at its
    Gauss points, shape (k+1, nq): the edge dof basis traced at the rule.
    Cached and read-only."""
    lob, gl_t, _ = edge_rules(k, d_max)
    out = lagrange_matrix(lob, gl_t)
    out.setflags(write=False)
    return out


def lagrange_matrix(nodes, ts) -> np.ndarray:
    """L[j, q] = j-th Lagrange basis polynomial of `nodes` evaluated at ts[q]."""
    nodes = np.asarray(nodes, dtype=float)
    ts = np.asarray(ts, dtype=float)
    n = nodes.size
    L = np.ones((n, ts.size))
    for j in range(n):
        for i in range(n):
            if i != j:
                L[j] *= (ts - nodes[i]) / (nodes[j] - nodes[i])
    return L
