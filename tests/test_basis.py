import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (PENTAGON, STAR_SHAPE, TRIANGLE, UNIT_SQUARE, edge_gram, fan_rule,
                      flat_rule, lone_cell, monomial_grads, star_polygon)
from polyvem.basis import (_band_pieces, affine_rule, dim_poly, edge_lagrange, edge_rules,
                           eval_monomials, fan_triangles, gauss_jacobi, lagrange_matrix,
                           monomial_derivatives, monomial_exponents, monomial_index,
                           polygon_quadrature, reference_rule, scaled_monomials,
                           triangle_rule)
from polyvem.errors import CellDegeneracyError, MeshError
from polyvem.mesh import CellGeometry, generate_voronoi


# point evaluation of a single scaled monomial m_alpha at p

def scaled_monomial_eval(alpha, E, p) -> float:
    ax, ay = alpha
    v = eval_monomials(E, np.asarray(p, dtype=float).reshape(1, 1, 2), ax + ay)
    return float(v[0, 0, monomial_index(ax, ay)])


def scaled_monomial_grad(alpha, E, p) -> np.ndarray:
    ax, ay = alpha
    g = monomial_grads(E, np.asarray(p, dtype=float).reshape(1, 1, 2), ax + ay)
    return g[0, 0, monomial_index(ax, ay)].copy()


def test_dim_poly():
    assert dim_poly(1) == 3
    assert dim_poly(3) == 10
    assert dim_poly(-1) == 0
    assert dim_poly(0) == 1
    with pytest.raises(ValueError):
        dim_poly(-2)


def test_monomial_enumeration_bijection():
    exps = monomial_exponents(5)
    assert exps.shape == (dim_poly(5), 2)
    for i, (ax, ay) in enumerate(exps):
        assert monomial_index(ax, ay) == i
    # graded-lex: degree blocks in order, x-power descending inside a block
    assert exps[:6].tolist() == [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]


def test_scaled_monomial_values():
    E = UNIT_SQUARE
    p = np.array([0.3, 0.9])
    assert scaled_monomial_eval((0, 0), E, p) == 1.0
    assert scaled_monomial_eval((1, 0), E, E.centroid[0]) == 0.0
    shifted = E.centroid[0] + np.array([E.diameter[0], 0.0])
    assert scaled_monomial_eval((1, 0), E, shifted) == pytest.approx(1.0, abs=1e-15)


def test_scaled_monomial_derivatives():
    E = PENTAGON
    p = np.array([0.2, 0.4])
    assert np.array_equal(scaled_monomial_grad((0, 0), E, p), [0.0, 0.0])
    assert np.allclose(scaled_monomial_grad((1, 0), E, p),
                       [1.0 / E.diameter[0], 0.0], atol=1e-15)
    # h_E^2 times the Laplacian of each monomial of degree <= 2, a constant
    lower, upper = monomial_derivatives(1), monomial_derivatives(2)
    lap = lower[0] @ upper[0] + lower[1] @ upper[1]
    assert lap.tolist() == [[0, 0, 0, 2, 0, 2]]


def test_monomials_of_degree_minus_one_are_empty():
    pts = np.array([[[0.2, 0.4], [0.5, 0.1], [0.3, 0.3]]])
    assert eval_monomials(PENTAGON, pts, -1).shape == (1, 3, 0)
    assert monomial_derivatives(0).shape == (2, 0, 1)


@pytest.mark.parametrize("top", [4, 12])
def test_lower_degrees_are_the_leading_columns_bit_for_bit(top, rng):
    # graded-lex puts the lower degrees first, so one table of the highest
    # degree serves every lower one
    E = star_polygon(rng, 6)
    pts = rng.uniform(-0.5, 0.5, (1, 9, 2)) + E.centroid
    table = eval_monomials(E, pts, top)
    for d in range(-1, top):
        assert np.array_equal(eval_monomials(E, pts, d), table[..., :dim_poly(d)])


@pytest.mark.parametrize("degree", range(1, 6))
def test_derivative_table_matches_finite_differences(degree, rng):
    # the gradient and the Laplacian of every monomial of degree <= `degree`,
    # read from the table, against central differences of the values
    E = star_polygon(rng, 6)
    pts = (rng.uniform(-0.3, 0.3, (5, 2)) + E.centroid)[None]
    h = E.diameter[0]
    lower, upper = monomial_derivatives(degree - 1), monomial_derivatives(degree)
    grad = eval_monomials(E, pts, degree - 1)[0] @ upper / h             # (2, 5, n)
    lap = (eval_monomials(E, pts, degree - 2)[0]
           @ (lower[0] @ upper[0] + lower[1] @ upper[1]) / h ** 2)      # (5, n)

    def values(shift):
        return eval_monomials(E, pts + shift, degree)[0]

    fd_lap = -4.0 * values(0.0)
    for i, unit in enumerate(np.eye(2)):
        fd = (values(1e-6 * unit) - values(-1e-6 * unit)) / 2e-6
        assert np.abs(fd - grad[i]).max() < 1e-8
        fd_lap += values(1e-3 * unit) + values(-1e-3 * unit)
    assert np.abs(fd_lap / 1e-6 - lap).max() < 1e-5


def test_gradients_match_finite_differences(rng):
    E = star_polygon(rng, 6)
    pts = (rng.uniform(-0.3, 0.3, (5, 2)) + E.centroid)[None]
    step = 1e-6
    g = monomial_grads(E, pts, 3)[0]
    for d, off in ((0, [step, 0.0]), (1, [0.0, step])):
        vp = eval_monomials(E, pts + off, 3)[0]
        vm = eval_monomials(E, pts - off, 3)[0]
        fd = (vp - vm) / (2.0 * step)
        assert np.abs(fd - g[:, :, d]).max() < 1e-8


def test_quadrature_weight_sum_equals_area(rng):
    for E in (UNIT_SQUARE, TRIANGLE, PENTAGON, star_polygon(rng, 8)):
        for deg in (1, 4, 9):
            q = polygon_quadrature(E, deg)
            assert q.weights.sum() == pytest.approx(E.area[0], abs=1e-13)


def test_quadrature_unit_square_xy():
    q = polygon_quadrature(UNIT_SQUARE, 2)
    val = q.weights @ (q.points[:, 0] * q.points[:, 1])
    assert val == pytest.approx(0.25, abs=1e-13)


def _ear_fan_reference(E, degree):
    """Independent reference rule on the one-cell stack E: fan triangulation
    from vertex 0 (not the centroid) with a rule of four extra exactness
    degrees."""
    v = E.verts[0]
    pts, wts = [], []
    for i in range(1, len(v) - 1):
        q = flat_rule(*triangle_rule(v[None, 0], v[None, i], v[None, i + 1], degree + 4))
        pts.append(q.points)
        wts.append(q.weights)
    return np.vstack(pts), np.concatenate(wts)


def test_quadrature_monomial_products_vs_reference(rng):
    # oracle: degree d+4 rule on a different sub-triangulation
    E = star_polygon(rng, 5)
    d = 6
    q = polygon_quadrature(E, d)
    rp, rw = _ear_fan_reference(E, d)
    exps = monomial_exponents(3)
    V = eval_monomials(E, q.points[None], 3)[0]
    R = eval_monomials(E, rp[None], 3)[0]
    for a in range(len(exps)):
        for b in range(len(exps)):
            if exps[a].sum() + exps[b].sum() <= d:
                mine = q.weights @ (V[:, a] * V[:, b])
                ref = rw @ (R[:, a] * R[:, b])
                assert mine == pytest.approx(ref, abs=1e-12 * max(1.0, abs(ref)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), degree=st.integers(1, 8))
def test_quadrature_exactness_random_polynomials(seed, degree):
    rng = np.random.default_rng(seed)
    E = star_polygon(rng, int(rng.integers(3, 9)))
    q = polygon_quadrature(E, degree)
    rp, rw = _ear_fan_reference(E, degree)
    coeffs = rng.uniform(-1, 1, dim_poly(degree))
    mine = q.weights @ (eval_monomials(E, q.points[None], degree)[0] @ coeffs)
    ref = rw @ (eval_monomials(E, rp[None], degree)[0] @ coeffs)
    assert mine == pytest.approx(ref, rel=1e-12, abs=1e-13)


def test_quadrature_rejects_nonstar_cell():
    # re-entrant quadrilateral whose centroid sees a negative fan triangle
    bad = CellGeometry(
        verts=np.array([[[0.0, 0.0], [1.0, 0.0], [0.1, 0.1], [0.0, 1.0]]]),
        area=np.array([0.1]), centroid=np.array([[0.5, 0.5]]), diameter=np.array([1.5]),
        cells=np.array([7]))
    with pytest.raises(MeshError, match=r"^cell 7: " + STAR_SHAPE.format(1, r"-0\.2")) as info:
        polygon_quadrature(bad, 2)
    assert info.value.cell == 7


def test_quadrature_takes_one_cell():
    mesh = generate_voronoi(64, rng_seed=0, lloyd_iters=10)
    n_verts = np.diff(mesh.flat_cells[1])
    stack = mesh.cell_geom(np.flatnonzero(n_verts == n_verts[0])[:2])
    with pytest.raises(ValueError, match="polygon_quadrature takes one cell, got a stack of 2"):
        polygon_quadrature(stack, 2)


def test_stacked_triangle_rule_concatenates_single_rules(rng):
    corners = rng.uniform(-1, 1, (3, 5, 2))
    planes = triangle_rule(*corners, 6)
    single = [triangle_rule(a[None], b[None], c[None], 6) for a, b, c in zip(*corners)]
    # row t of each plane (x, y, w) is triangle t's rule
    for plane, rows in zip(planes, zip(*single)):
        assert plane.shape == (5, rows[0].shape[1])
        assert np.array_equal(plane, np.vstack(rows))


@pytest.mark.parametrize("m", [1, 4, 8])
def test_square_rule_on_parallelograms_matches_their_two_triangles(m, rng):
    # the unit square's m x m rule mapped onto a parallelogram, p0 a corner
    # and e1, e2 its sides from there, is exact to total degree 2m-1, as the
    # triangle rule on its two halves is; both sum signed areas
    p0, e1, e2 = rng.uniform(-0.5, 0.5, (3, 4, 2))
    square = affine_rule(p0, p0 + e1, p0 + e2, "square", m)
    halves = (triangle_rule(p0, p0 + e1, p0 + e1 + e2, 2 * m - 1),
              triangle_rule(p0, p0 + e1 + e2, p0 + e2, 2 * m - 1))
    assert square[0].shape == (4, m * m)
    assert square[2].sum(axis=1) == pytest.approx(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0],
                                                  rel=1e-14)

    def integrals(x, y, w):
        return np.einsum("tq,tqa->ta", w, scaled_monomials(x, y, 2 * m - 1))

    assert integrals(*square) == pytest.approx(sum(integrals(*h) for h in halves),
                                               rel=1e-12, abs=1e-13)
    with pytest.raises(ValueError, match="must be 'triangle' or 'square', got 'disc'"):
        reference_rule("disc", m)


def _bands_one_by_one(poly, max_y_extent):
    """Reference band cut of one convex CCW polygon, a point at a time: n
    equal bands of its y-range from the bottom, each piece walked side by
    side (the vertices within the band, then the crossings of the band's
    bounds strictly inside the side, in the side's direction) and fanned
    from its first point, zero-area triangles dropped."""
    lo, hi = min(p[1] for p in poly), max(p[1] for p in poly)
    n = math.ceil((hi - lo) / max_y_extent)
    tris = []
    for band in range(n):
        y0 = lo + band / n * (hi - lo)
        y1 = hi if band + 1 == n else lo + (band + 1) / n * (hi - lo)
        piece = []
        for i, a in enumerate(poly):
            b = poly[(i + 1) % len(poly)]
            if y0 <= a[1] <= y1:
                piece.append(a)
            for level in ((y0, y1) if b[1] > a[1] else (y1, y0)):
                if min(a[1], b[1]) < level < max(a[1], b[1]):
                    x = a[0] + (level - a[1]) / (b[1] - a[1]) * (b[0] - a[0])
                    piece.append(np.array([x, level]))
        for j in range(1, len(piece) - 1):
            tri = (piece[0], piece[j], piece[j + 1])
            if _signed_areas(*np.array(tri)[:, None])[0] > 0.0:
                tris.append(tri)
    return tris


def _cut_one_by_one(E, max_y_extent):
    """Reference cut of the one-cell stack E: its centroid fan within
    max_y_extent, else its bands when its corners all turn left, else the
    bands of each fan triangle."""
    v = E.verts[0]
    fan = [(E.centroid[0], v[i], v[(i + 1) % len(v)]) for i in range(len(v))]
    if np.ptp(v[:, 1]) <= max_y_extent:
        return fan
    e1 = np.roll(v, -1, axis=0) - v
    e2 = np.roll(e1, -1, axis=0)
    if (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] >= 0.0).all():
        return _bands_one_by_one(list(v), max_y_extent)
    return [t for tri in fan for t in _bands_one_by_one(list(tri), max_y_extent)]


# a non-convex cell, star-shaped with respect to its centroid: a dart
DART = lone_cell([[0.0, 0.0], [0.5, 0.35], [1.0, 0.0], [0.5, 1.0]])


@pytest.mark.parametrize("max_y_extent", [0.3, 0.07])
def test_subdivided_quadrature_is_concatenation_of_triangle_rules(max_y_extent, rng):
    # the band cut, as fan_triangles forms it for all cells at once, against
    # the reference cut of each cell alone: a convex cell, cut whole, and a
    # non-convex one, cut by way of its fan triangles
    for E in (star_polygon(rng, 6, irregular=False), DART):
        tris = _cut_one_by_one(E, max_y_extent)
        rules = [flat_rule(*triangle_rule(a[None], b[None], c[None], 5)) for a, b, c in tris]
        q = fan_rule(E, 5, max_y_extent)
        assert len(tris) > E.n_vertices
        assert np.array_equal(q.points, np.vstack([r.points for r in rules]))
        assert np.array_equal(q.weights, np.concatenate([r.weights for r in rules]))


def _signed_areas(a, b, c):
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _shoelace(p):
    return 0.5 * np.sum(p[:, 0] * np.roll(p[:, 1], -1) - np.roll(p[:, 0], -1) * p[:, 1])


def _check_bands(polys, max_y_extent):
    """The band cut of the convex CCW polygons `polys`, each (m, 2), owner i
    for polygon i: CCW triangles of positive area that tile their polygon,
    each within one of the ceil(extent / max_y_extent) equal bands of its
    polygon's y-range, a polygon's triangles from its bottom band up."""
    polys = [np.asarray(p, dtype=float) for p in polys]
    starts = np.cumsum([0] + [len(p) for p in polys])
    (a, b, c), owner = _band_pieces(np.vstack(polys), starts, max_y_extent)
    areas = _signed_areas(a, b, c)
    assert (areas > 0.0).all()
    assert (np.diff(owner) >= 0).all()
    ys = np.stack([a[:, 1], b[:, 1], c[:, 1]])
    lo = np.array([p[:, 1].min() for p in polys])[owner]
    extent = np.array([np.ptp(p[:, 1]) for p in polys])[owner]
    n = np.ceil(extent / max_y_extent)
    assert (extent / n <= max_y_extent * (1.0 + 1e-12)).all()
    band = np.minimum(np.floor((ys.mean(axis=0) - lo) / extent * n), n - 1)
    tol = 1e-14 * extent
    assert (ys.min(axis=0) >= lo + band / n * extent - tol).all()
    assert (ys.max(axis=0) <= lo + (band + 1) / n * extent + tol).all()
    for i in range(len(polys)):
        mine = band[owner == i]
        assert (np.diff(mine) >= 0).all()
        assert np.array_equal(np.unique(mine), np.arange(n[owner == i][0]))
    parent = np.array([_shoelace(p) for p in polys])
    per_owner = np.bincount(owner, weights=areas, minlength=len(polys))
    # rounding scales with the polygon's bounding box, not with its area
    box = np.array([np.ptp(p[:, 0]) * np.ptp(p[:, 1]) for p in polys])
    assert (np.abs(per_owner - parent) <= 1e-13 * box).all()
    return a, b, c, owner


_corner = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@st.composite
def _convex_polygons(draw):
    """A CCW triangle of random corners, or the CCW polygon of 4 to 9 points
    at increasing angles on a random turned ellipse."""
    if draw(st.booleans()):
        tri = np.array(draw(st.tuples(_corner, _corner, _corner)))
        area = _shoelace(tri)
        assume(abs(area) > 0.05)
        return tri if area > 0 else tri[::-1]
    m = draw(st.integers(4, 9))
    gaps = np.array(draw(st.lists(st.floats(1.0, 10.0), min_size=m, max_size=m)))
    angles = 2.0 * math.pi * np.cumsum(gaps) / gaps.sum()
    rx, ry, turn = draw(st.floats(0.1, 1.0)), draw(st.floats(0.1, 1.0)), draw(st.floats(0, 3.2))
    x, y = rx * np.cos(angles), ry * np.sin(angles)
    return np.column_stack([x * math.cos(turn) - y * math.sin(turn),
                            x * math.sin(turn) + y * math.cos(turn)])


@settings(max_examples=60, deadline=None)
@given(polys=st.lists(_convex_polygons(), min_size=1, max_size=4),
       max_y_extent=st.floats(0.02, 2.5))
def test_strips_tile_their_triangles(polys, max_y_extent):
    _check_bands(polys, max_y_extent)


@pytest.mark.parametrize("tri, max_y_extent, n_children", [
    (((0.0, 0.0), (1.0, 0.0), (0.3, 1.0)), 0.3, 7),         # flat bottom: 3 trapezoids
    (((0.2, 0.0), (1.0, 1.0), (0.0, 1.0)), 0.3, 7),         # flat top
    (((0.0, 0.0), (1.0, 0.5), (0.2, 1.0)), 0.25, 6),        # a vertex on the cut at 0.5
    (((0.0, 0.0), (1.0, 0.6), (0.2, 1.0)), 0.25, 7),        # pentagon around a vertex
    (((0.0, 0.0), (1.0, 0.2), (0.5, 0.5)), 0.5, 1),         # extent exactly the maximum
    # a square with a vertex on its right side, on the cut at 0.5: 4 rectangles
    (((0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0), (0.0, 1.0)), 0.3, 8),
    # flat bottom and top: 4 trapezoids
    (((0.0, 0.0), (1.0, 0.0), (0.8, 1.0), (0.2, 1.0)), 0.3, 8),
    # a diamond, sharp at bottom and top, its side corners on the cut at 0.5
    (((0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)), 0.3, 6),
    # a hexagon whose side corners lie inside a band
    (((0.3, 0.0), (0.7, 0.0), (1.0, 0.4), (0.7, 1.0), (0.3, 1.0), (0.0, 0.4)), 0.3, 10),
])
def test_strip_edge_cases(tri, max_y_extent, n_children):
    for rot in range(len(tri)):                             # each corner first in turn
        t = np.roll(np.array(tri), rot, axis=0)
        a, b, c, _ = _check_bands([t], max_y_extent)
        assert a.shape[0] == n_children
        if n_children == 1:
            assert np.array_equal(np.stack([a[0], b[0], c[0]]), t)


def test_strips_of_a_subnormal_middle_height_warn_nothing():
    # (level - y) / rise overflows at every level on the side from (0, 0)
    # to (1, 1e-310), which crosses none
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b, c, owner = _check_bands([[[0.0, 0.0], [1.0, 1e-310], [0.3, 1.0]]], 0.3)
    assert a.shape[0] > 1 and (owner == 0).all()


def test_a_cell_within_one_band_keeps_its_centroid_fan_bit_for_bit(rng):
    E = star_polygon(rng, 7)
    fan = fan_rule(E, 4)
    for max_y_extent in (np.ptp(E.verts[0, :, 1]), 5.0):
        q = fan_rule(E, 4, max_y_extent)
        assert np.array_equal(q.points, fan.points) and np.array_equal(q.weights, fan.weights)


def test_a_cell_with_a_straight_corner_is_cut_whole():
    # corner 2 of this square lies on its right side, a cross product of 0:
    # the square is cut whole, into 4 bands of 2 triangles, not by its fan
    square = lone_cell([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [1.0, 1.0], [0.0, 1.0]])
    corners, owner = fan_triangles(square.verts[0], [0, 5], square.centroid, square.area,
                                   max_y_extent=0.3)
    whole, _ = _band_pieces(square.verts[0], np.array([0, 5]), 0.3)
    assert owner.size == 8
    assert np.array_equal(np.stack(corners), np.stack(whole))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), degree=st.integers(1, 7),
       max_y_extent=st.floats(0.05, 0.8))
def test_strip_quadrature_exact_for_monomials(seed, degree, max_y_extent):
    # convex cells, cut whole, and non-convex star-shaped ones, by their fans
    rng = np.random.default_rng(seed)
    for E in (PENTAGON, star_polygon(rng, 6, irregular=False), star_polygon(rng, 7), DART):
        q = fan_rule(E, degree, max_y_extent)
        rp, rw = _ear_fan_reference(E, degree)
        for ax, ay in monomial_exponents(degree):
            mine = q.weights @ (q.points[:, 0] ** ax * q.points[:, 1] ** ay)
            ref = rw @ (rp[:, 0] ** ax * rp[:, 1] ** ay)
            assert mine == pytest.approx(ref, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("bad", [0.0, -0.1, math.inf, math.nan])
def test_subdivision_rejects_bad_extent(bad):
    with pytest.raises(ValueError, match="max_y_extent must be positive and finite"):
        fan_rule(UNIT_SQUARE, 2, bad)


def test_subdivided_quadrature_stays_exact():
    q = fan_rule(UNIT_SQUARE, 3, 0.2)
    plain = polygon_quadrature(UNIT_SQUARE, 3)
    assert q.points.shape[0] > plain.points.shape[0]
    assert q.weights.sum() == pytest.approx(1.0, abs=1e-12)
    val = q.weights @ (q.points[:, 0] * q.points[:, 1] ** 2)
    assert val == pytest.approx(0.5 * (1.0 / 3.0), abs=1e-12)


def test_gram_first_entry_is_area(rng):
    for E in (UNIT_SQUARE, PENTAGON, star_polygon(rng, 7)):
        M = edge_gram(E, 2)[0][0]
        assert M[0, 0] == pytest.approx(E.area[0], abs=1e-13)


def test_gram_symmetry_exact():
    M = edge_gram(PENTAGON, 3)[0][0]
    assert np.abs(M - M.T).max() == 0.0


def test_gram_rejects_a_clockwise_cell():
    # the pentagon traversed clockwise: every edge moment changes sign
    cw = CellGeometry(verts=PENTAGON.verts[:, ::-1], area=PENTAGON.area,
                      centroid=PENTAGON.centroid, diameter=PENTAGON.diameter,
                      cells=PENTAGON.cells)
    with pytest.raises(CellDegeneracyError,
                       match=r"^monomial Gram matrix is not positive definite \(degree 2\)$"):
        edge_gram(cw, 2)


def test_gram_unit_square_closed_form():
    # int ((x-1/2)/sqrt(2))^2 over the unit square = (1/2)*(1/12) = 1/24
    M = edge_gram(UNIT_SQUARE, 1)[0][0]
    assert M[1, 1] == pytest.approx(1.0 / 24.0, abs=1e-14)
    assert M[2, 2] == pytest.approx(1.0 / 24.0, abs=1e-14)
    assert M[1, 2] == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(1, 5))
def test_gram_positive_definite(seed, d):
    rng = np.random.default_rng(seed)
    E = star_polygon(rng, int(rng.integers(4, 9)))
    M, L = edge_gram(E, d)
    assert np.linalg.eigvalsh(M).min() > 0.0
    # the one factor: lower triangular, positive diagonal, and each leading
    # block of it a factor of the Gram matrix's leading block of that degree
    assert np.array_equal(L, np.tril(L)) and (np.diagonal(L, axis1=-2, axis2=-1) > 0).all()
    for degree in range(d + 1):
        n = dim_poly(degree)
        block = L[..., :n, :n]
        assert np.abs(block @ np.swapaxes(block, -1, -2) - M[..., :n, :n]).max() \
            <= 1e-14 * np.abs(M).max()


def _rule_gram(E, points, weights, degree):
    """The Gram matrix of the one-cell stack E from a 2D rule on its cell."""
    V = eval_monomials(E, points[None], degree)[0]
    return (V.T * weights) @ V


@pytest.fixture(scope="module")
def voronoi_stacks():
    """The cells of a Voronoi-64 mesh as stacks, one per vertex count."""
    mesh = generate_voronoi(64, rng_seed=0, lloyd_iters=100)
    n_verts = np.diff(mesh.flat_cells[1])
    return [mesh.cell_geom(np.flatnonzero(n_verts == m)) for m in np.unique(n_verts)]


@pytest.mark.parametrize("degree", range(1, 7))
def test_gram_matches_the_fan_quadrature_gram(voronoi_stacks, degree):
    for E in voronoi_stacks:
        G, _ = edge_gram(E, degree)
        for i in range(E.cells.size):
            cell = E.take([i])
            q = polygon_quadrature(cell, 2 * degree)
            ref = _rule_gram(cell, q.points, q.weights, degree)
            assert np.abs(G[i] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_gram_is_exact_on_a_cell_that_is_not_star_shaped():
    # a re-entrant quadrilateral whose centroid lies outside it, cut at its
    # reflex vertex into two triangles for the oracle
    dart = lone_cell([[0.0, 0.0], [1.0, 0.0], [0.1, 0.1], [0.0, 1.0]])
    with pytest.raises(MeshError, match=r"^cell 0: " + STAR_SHAPE.format(1, r"-0\.05")):
        polygon_quadrature(dart, 2)
    d = 3
    q = flat_rule(*triangle_rule([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.1, 0.1]],
                                 [[0.1, 0.1], [0.0, 1.0]], 2 * d))
    ref = _rule_gram(dart, q.points, q.weights, d)
    assert np.abs(edge_gram(dart, d)[0][0] - ref).max() <= 1e-14 * np.abs(ref).max()


def test_edge_rules_lobatto_nodes():
    lob1, _, _ = edge_rules(1, 3)
    assert lob1.tolist() == [0.0, 1.0]
    lob2, _, _ = edge_rules(2, 3)
    assert np.allclose(lob2, [0.0, 0.5, 1.0])
    lob3, _, _ = edge_rules(3, 3)
    inner = (1.0 + np.array([-1, 1]) / math.sqrt(5.0)) / 2.0
    assert np.allclose(np.sort(lob3[1:-1]), np.sort(inner), atol=1e-14)


def test_edge_rule_exactness():
    _, t, w = edge_rules(2, 7)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    for p in range(8):
        assert w @ t ** p == pytest.approx(1.0 / (p + 1), rel=1e-13)


def test_edge_rules_cached_read_only():
    for k in range(1, 6):
        first, second = edge_rules(k, 2 * k + 3), edge_rules(k, 2 * k + 3)
        lag = edge_lagrange(k, 2 * k + 3)
        for a, b in zip(first + (lag,), second + (edge_lagrange(k, 2 * k + 3),)):
            assert a is b
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5
        assert np.array_equal(lag, lagrange_matrix(first[0], first[1]))


def _gauss_jacobi_mp(mp, x0, a, b):
    """The m-point Gauss-Jacobi rule at mpmath's working precision: each node
    of x0 polished by Newton steps on the monic three-term recurrence, each
    weight 1 / ((1 - x^2) p_m'(x)^2) scaled to the weight's exact integral.
    (`mp.jacobi` does not converge at its own roots.)"""
    m, a, b = len(x0), mp.mpf(a), mp.mpf(b)
    alpha, beta = [(b - a) / (a + b + 2)], [mp.mpf(0)]
    for n in range(1, m):
        s = 2 * n + a + b
        alpha.append((b * b - a * a) / (s * (s + 2)))
        beta.append(4 * n * (n + a) * (n + b) * (n + a + b) / (s * s * (s + 1) * (s - 1)))

    def p_m(x):
        p0, p1, d0, d1 = 0, 1, 0, 0
        for j in range(m):
            p0, p1 = p1, (x - alpha[j]) * p1 - beta[j] * p0
            d0, d1 = d1, p0 + (x - alpha[j]) * d1 - beta[j] * d0
        return p1, d1

    xs = []
    for x in map(mp.mpf, x0):
        for _ in range(8):
            p, d = p_m(x)
            x -= p / d
        xs.append(x)
    ws = [1 / ((1 - x * x) * p_m(x)[1] ** 2) for x in xs]
    mass = 2 ** (a + b + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(a + b + 2)
    total = mp.fsum(ws)
    return xs, [w * mass / total for w in ws]


@pytest.mark.parametrize("a, b", [(1, 0), (1, 1), (0, 0)])
def test_gauss_jacobi_matches_a_40_digit_reference(a, b):
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    # (1 - x)^a (1 + x)^b as coefficients of x^0, x^1, ...
    weight = np.polynomial.polynomial.polymul([1, -1] if a else [1], [1, 1] if b else [1])
    for m in range(1, 21):
        x, w = gauss_jacobi(m, a, b)
        assert x.shape == w.shape == (m,) and (np.diff(x) > 0).all()
        xs, ws = _gauss_jacobi_mp(mp, x, a, b)
        # Newton converged to m distinct roots of p_m: all of them
        assert all(xs[i + 1] - xs[i] > 1e-3 for i in range(m - 1))
        assert np.abs(x - np.array(xs, dtype=float)).max() <= 2 * np.finfo(float).eps
        ref = np.array(ws, dtype=float)
        assert (np.abs(w - ref) / ref).max() <= 2e-14
        # exact on x^j, j <= 2m - 1, against the weight (1 - x)^a (1 + x)^b
        for j in range(2 * m):
            exact = sum(c * (2.0 / (j + i + 1) if (j + i) % 2 == 0 else 0.0)
                        for i, c in enumerate(weight))
            assert w @ x ** j == pytest.approx(exact, abs=2e-15)


def test_lagrange_matrix_cardinal():
    nodes = np.array([0.0, 0.3, 1.0])
    L = lagrange_matrix(nodes, nodes)
    assert np.allclose(L, np.eye(3), atol=1e-14)
    # partition of unity off the nodes
    ts = np.linspace(0, 1, 11)
    assert np.allclose(lagrange_matrix(nodes, ts).sum(axis=0), 1.0, atol=1e-13)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 10.0))
def test_scaling_covariance(seed, scale):
    # the scaled basis is invariant under uniform dilation of cell and points
    rng = np.random.default_rng(seed)
    E = star_polygon(rng, 5)
    pts = (rng.uniform(-0.5, 0.5, (4, 2)) + E.centroid)[None]
    Es = lone_cell(E.verts[0] * scale)
    vals = eval_monomials(E, pts, 3)
    vals_s = eval_monomials(Es, pts * scale, 3)
    assert np.abs(vals - vals_s).max() < 1e-11
