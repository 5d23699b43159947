"""Scaled monomial bases on polygons, polygon and edge quadrature, Gram matrices.

The basis on a cell E is m_a(p) = ((p - x_E) / h_E)^a, enumerated in graded
lexicographic order with the x-exponent descending inside each degree block.
Centering at the centroid and scaling by the diameter keeps the basis well
conditioned on small or stretched cells.  All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import NumericalDegeneracyError, QuadratureError


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


def eval_monomial_grads(E, pts, degree: int) -> np.ndarray:
    """Gradients of all scaled monomials at pts, shape (n, npts, dim, 2): the
    monomials of degree - 1 times `monomial_derivatives(degree)`, over h_E."""
    lower = eval_monomials(E, pts, degree - 1)
    h = E.diameter[:, None, None]
    return np.stack([lower @ D / h for D in monomial_derivatives(degree)], axis=-1)


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


@lru_cache(maxsize=None)
def _reference_triangle_rule(degree: int):
    """Collapsed Gauss rule on the unit reference triangle, exact to `degree`.

    Tensorizes Gauss-Jacobi (weight 1-s, absorbing the collapse Jacobian) with
    Gauss-Legendre; m = ceil((degree+1)/2) points per direction.
    """
    m = max(1, (degree + 2) // 2)
    xj, wj = roots_jacobi(m, 1.0, 0.0)
    xl, wl = roots_legendre(m)
    s = 0.5 * (xj + 1.0)
    ws = 0.25 * wj
    t = 0.5 * (xl + 1.0)
    wt = 0.5 * wl
    U = np.repeat(s, m)
    V = np.tile(t, m) * (1.0 - U)
    W = np.repeat(ws, m) * np.tile(wt, m)
    U.setflags(write=False), V.setflags(write=False), W.setflags(write=False)
    return U, V, W


def triangle_rule(p0, p1, p2, degree: int):
    """Points and weights integrating polynomials of total degree <= degree
    over the triangle (p0, p1, p2).  Weights sum to the signed area.

    The corners may be stacked (T, 2) arrays; the rules of the T triangles
    are then concatenated in order.
    """
    U, V, W = _reference_triangle_rule(degree)
    p0 = np.atleast_2d(np.asarray(p0, dtype=float))
    e1 = np.asarray(p1, dtype=float) - p0
    e2 = np.asarray(p2, dtype=float) - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    pts = np.empty((p0.shape[0], U.size, 2))
    for i in (0, 1):        # one coordinate at a time: the long axis is innermost
        pts[..., i] = p0[:, i, None] + U * e1[:, i, None] + V * e2[:, i, None]
    return pts.reshape(-1, 2), (W * det[:, None]).ravel()


def _subdivide_by_extent(a, b, c, owner, max_y_extent):
    """Cut the triangles (a, b, c), stacked (T, 2) CCW corners, into
    horizontal strips of vertical extent at most max_y_extent.

    A triangle of y-extent e is cut at n = ceil(e / max_y_extent) equal-height
    levels.  With its corners lo, mid, hi sorted by y, a strip runs up the
    long edge lo-hi from L0 to L1 and back down the short side lo-mid-hi
    from S1 to S0, through mid if mid lies strictly inside it.  It is fanned
    from L0 into the CCW triangles (L0, L1, S1), (L0, S1, mid), (L0, mid, S0)
    that have positive area: 1 at a sharp bottom or top corner, 2 for a
    trapezoid, 3 for the pentagon around mid.  Children replace their parent
    in place, strip by strip from the bottom, and `owner` (T,) is carried
    along, so it stays sorted.  A triangle with n = 1 is kept as it is."""
    corners = np.stack([a, b, c], axis=1)                       # (T, 3, 2)
    ys = corners[..., 1]
    n = np.ceil((ys.max(axis=1) - ys.min(axis=1)) / max_y_extent)
    is_split = n > 1
    if not is_split.any():
        return a, b, c, owner
    order = np.argsort(ys[is_split], axis=1, kind="stable")
    # (lo, hi, mid) is CCW when it is a rotation of the parent's corner order
    ccw = (order[:, 2] - order[:, 0]) % 3 == 1
    lo, mid, hi = np.take_along_axis(corners[is_split], order[..., None], axis=1).transpose(1, 0, 2)
    n = n[is_split].astype(int)
    # one row per strip: its parent (among the split triangles) and its lower level
    parent = np.repeat(np.arange(n.size), n)
    level = np.arange(parent.size) - np.repeat(np.cumsum(n) - n, n)
    lo, mid, hi, n, ccw = lo[parent], mid[parent], hi[parent], n[parent], ccw[parent]
    e = hi[:, 1] - lo[:, 1]
    dm = mid[:, 1] - lo[:, 1]

    def cut(j):
        """Height above lo, long-edge point and short-side point of level j;
        both points are hi at the top unless the top is flat."""
        t = j / n
        h = t * e
        # the values of the sides a level does not cut are discarded below
        with np.errstate(all="ignore"):
            lower = lo + (h / dm)[:, None] * (mid - lo)
            upper = mid + ((h - dm) / (e - dm))[:, None] * (hi - mid)
        short = np.where((h < dm)[:, None], lower, np.where((h > dm)[:, None], upper, mid))
        top = (j == n)[:, None]
        return (h, np.where(top, hi, lo + t[:, None] * (hi - lo)),
                np.where(top & (dm < e)[:, None], hi, short))

    h0, L0, S0 = cut(level)
    h1, L1, S1 = cut(level + 1)
    inside = (h0 < dm) & (dm < h1)
    M = np.where(inside[:, None], mid, S1)
    fans = np.stack([np.stack([L0, L1, S1], axis=1), np.stack([L0, S1, M], axis=1),
                     np.stack([L0, M, S0], axis=1)], axis=1)    # (strips, 3, 3, 2)
    fans[~ccw] = fans[~ccw][:, :, [0, 2, 1]]
    # S1 is L1 at a sharp top and S0 is L0 at a sharp bottom: those collapse
    keep = np.column_stack([(level + 1 < n) | (dm == e), inside, (level > 0) | (dm == 0)])
    per_parent = np.ones(owner.size, dtype=int)
    per_parent[is_split] = np.bincount(parent, weights=keep.sum(axis=1))
    out = np.repeat(corners, per_parent, axis=0)
    out[np.repeat(is_split, per_parent)] = fans[keep]
    return out[:, 0], out[:, 1], out[:, 2], np.repeat(owner, per_parent)


def fan_triangles(verts, starts, centroids, areas, *, max_y_extent=None):
    """The fan triangles of several star-shaped polygons: ((c, a, b), owner).

    Polygon i has the CCW vertices verts[starts[i]:starts[i+1]], its
    centroid centroids[i] and area areas[i], and is fanned into the
    triangles (centroid, v_j, v_j+1), which are stacked (T, 2) corners in
    polygon order; owner (T,) is the polygon of each triangle, non-decreasing.
    With `max_y_extent` set (positive and finite, else `ValueError`), a
    triangle taller than it is cut into ceil(extent / max_y_extent)
    horizontal strips of CCW triangles that take its place
    (`_subdivide_by_extent`), resolving data that oscillate in y; a triangle
    within it is kept as it is.  A polygon that is not star-shaped with
    respect to its centroid raises `QuadratureError` with `cell` set to i.
    """
    if max_y_extent is not None and not (math.isfinite(max_y_extent) and max_y_extent > 0):
        raise ValueError(f"max_y_extent must be positive and finite, got {max_y_extent}")
    starts = np.asarray(starts)
    owner = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    a = np.asarray(verts, dtype=float)
    nxt = np.arange(1, owner.size + 1)
    nxt[starts[1:] - 1] = starts[:-1]
    b = a[nxt]
    c = np.asarray(centroids, dtype=float)[owner]
    signed = 0.5 * ((a[:, 0] - c[:, 0]) * (b[:, 1] - c[:, 1])
                    - (a[:, 1] - c[:, 1]) * (b[:, 0] - c[:, 0]))
    bad = np.flatnonzero(signed <= 1e-14 * np.asarray(areas)[owner])
    if bad.size:
        t = bad[0]
        raise QuadratureError(
            "cell is not star-shaped with respect to its centroid "
            f"(fan triangle {t - starts[owner[t]]} has signed area {signed[t]:g}); "
            "run mesh validation", cell=int(owner[t]))
    if max_y_extent is not None:
        c, a, b, owner = _subdivide_by_extent(c, a, b, owner, max_y_extent)
    return (c, a, b), owner


def polygon_quadrature(E, degree: int) -> QuadRule:
    """Quadrature on the star-shaped polygon of the one-cell stack E, exact
    for degree <= `degree`: a collapsed Gauss rule on each triangle of the
    centroid fan, in fan order.  A stack of more cells raises `ValueError`;
    a cell that is not star-shaped raises `QuadratureError` naming its mesh
    index."""
    if E.cells.size != 1:
        raise ValueError(f"polygon_quadrature takes one cell, got a stack of {E.cells.size}")
    try:
        corners, _ = fan_triangles(E.verts[0], [0, E.n_vertices], E.centroid, E.area)
    except QuadratureError as exc:
        exc.cell = E.cells.item()
        raise
    return QuadRule(*triangle_rule(*corners, degree))


def monomial_gram(E, degree: int) -> np.ndarray:
    """Mass matrix of the scaled monomials up to `degree` on each cell of the
    stack E, SPD by construction, (n, dim, dim).  G[a, b] is the moment of
    m_g, g = a + b, homogeneous of degree |g| about x_E: mu_g = sum_e ((x -
    x_E) . n_e) int_e m_g ds / (|g| + 2) (Chin, Lasserre & Sukumar, Comput.
    Mech. 56, 2015), by the `edge_rules` Gauss-Legendre rule, exact to 2*degree."""
    _, t, w = edge_rules(1, 2 * degree)
    tang = np.roll(E.verts, -1, axis=-2) - E.verts
    arm = E.verts - E.centroid[:, None, :]
    # |e| (x - x_E) . n_e, constant on edge e, times the rule's weights
    flux = (arm[..., 0] * tang[..., 1] - arm[..., 1] * tang[..., 0])[..., None] * w
    points = E.verts[..., None, :] + t[:, None] * tang[..., None, :]     # (n, m, nq, 2)
    V = eval_monomials(E, points.reshape(E.cells.size, -1, 2), 2 * degree)
    mu = np.einsum("...q,...qg->...g", flux.reshape(V.shape[:-1]), V)
    mu /= monomial_exponents(2 * degree).sum(axis=1) + 2
    exps = monomial_exponents(degree)
    M = mu[..., monomial_index(*np.moveaxis(exps[:, None] + exps, -1, 0))]
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise NumericalDegeneracyError(
            f"monomial Gram matrix is not positive definite (degree {degree})") from None
    return M


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
        xi, _ = roots_jacobi(k - 1, 1.0, 1.0)
        lob = np.concatenate([[0.0], 0.5 * (np.sort(xi) + 1.0), [1.0]])
    m = max(1, (d_max + 2) // 2)
    xl, wl = roots_legendre(m)
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
