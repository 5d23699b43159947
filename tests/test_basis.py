import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (PENTAGON, TRIANGLE, UNIT_SQUARE, edge_gram, fan_rule, flat_rule,
                      lone_cell, monomial_grads, star_polygon)
from polyvem.basis import (QuadratureError, _subdivide_by_extent, affine_rule, dim_poly,
                           edge_lagrange, edge_rules, eval_monomials, gauss_jacobi,
                           lagrange_matrix, monomial_derivatives, monomial_exponents,
                           monomial_index, polygon_quadrature, reference_rule,
                           scaled_monomials, triangle_rule)
from polyvem.errors import NumericalDegeneracyError
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
    with pytest.raises(QuadratureError,
                       match=r"fan triangle 1 has signed area -0\.2\)") as info:
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


def _strips_one_by_one(tri, max_y_extent):
    """Reference strip cut: one triangle at a time, corners sorted by y, n
    equal-height strips from the bottom, each fanned from its lower
    long-edge point (L0, L1, S1, mid, S0 minus the repeated corners)."""
    n = math.ceil((max(p[1] for p in tri) - min(p[1] for p in tri)) / max_y_extent)
    if n <= 1:
        return [tri]
    order = sorted(range(3), key=lambda i: tri[i][1])
    lo, mid, hi = (tri[i] for i in order)
    ccw = (order[2] - order[0]) % 3 == 1
    e, dm = hi[1] - lo[1], mid[1] - lo[1]

    def cut(j):
        t = j / n
        h = t * e
        long_edge = hi if j == n else lo + t * (hi - lo)
        if h < dm:
            return h, long_edge, lo + (h / dm) * (mid - lo)
        if h > dm:
            return h, long_edge, mid + ((h - dm) / (e - dm)) * (hi - mid)
        return h, long_edge, mid

    children = []
    for i in range(n):
        (h0, L0, S0), (h1, L1, S1) = cut(i), cut(i + 1)
        poly = [L0, L1]
        if i + 1 < n or dm == e:
            poly.append(S1)
        if h0 < dm < h1:
            poly.append(mid)
        if i > 0 or dm == 0:
            poly.append(S0)
        for j in range(1, len(poly) - 1):
            pair = (poly[j], poly[j + 1]) if ccw else (poly[j + 1], poly[j])
            children.append((poly[0], *pair))
    return children


@pytest.mark.parametrize("max_y_extent", [0.3, 0.07])
def test_subdivided_quadrature_is_concatenation_of_triangle_rules(max_y_extent, rng):
    E = star_polygon(rng, 6)
    v = E.verts[0]
    fan = [(E.centroid[0], v[i], v[(i + 1) % len(v)]) for i in range(len(v))]
    tris = [t for tri in fan for t in _strips_one_by_one(tri, max_y_extent)]
    rules = [flat_rule(*triangle_rule(a[None], b[None], c[None], 5)) for a, b, c in tris]
    q = fan_rule(E, 5, max_y_extent)
    assert len(tris) > len(fan)
    assert np.array_equal(q.points, np.vstack([r.points for r in rules]))
    assert np.array_equal(q.weights, np.concatenate([r.weights for r in rules]))


def _signed_areas(a, b, c):
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _check_strips(tris, max_y_extent):
    """The strip cut of the CCW triangles `tris` (T, 3, 2), owner i for
    triangle i: CCW children within the extent that tile their parent."""
    tris = np.asarray(tris, dtype=float)
    a, b, c, owner = _subdivide_by_extent(*tris.transpose(1, 0, 2),
                                          np.arange(len(tris)), max_y_extent)
    areas = _signed_areas(a, b, c)
    assert (areas > 0.0).all()
    ys = np.stack([a[:, 1], b[:, 1], c[:, 1]])
    assert (ys.max(axis=0) - ys.min(axis=0) <= max_y_extent * (1.0 + 1e-12)).all()
    assert (np.diff(owner) >= 0).all()
    parent = _signed_areas(*tris.transpose(1, 0, 2))
    per_owner = np.bincount(owner, weights=areas, minlength=len(tris))
    assert np.abs(per_owner - parent).max() <= 1e-13 * parent.min()
    return a, b, c, owner


_corner = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(tris=st.lists(st.tuples(_corner, _corner, _corner), min_size=1, max_size=4),
       max_y_extent=st.floats(0.02, 2.5))
def test_strips_tile_their_triangles(tris, max_y_extent):
    tris = np.array(tris)
    parent = _signed_areas(*tris.transpose(1, 0, 2))
    assume((np.abs(parent) > 0.05).all())
    tris[parent < 0] = tris[parent < 0][:, [0, 2, 1]]       # make every one CCW
    _check_strips(tris, max_y_extent)


@pytest.mark.parametrize("tri, max_y_extent, n_children", [
    (((0.0, 0.0), (1.0, 0.0), (0.3, 1.0)), 0.3, 7),         # flat bottom: 3 trapezoids
    (((0.2, 0.0), (1.0, 1.0), (0.0, 1.0)), 0.3, 7),         # flat top
    (((0.0, 0.0), (1.0, 0.5), (0.2, 1.0)), 0.25, 6),        # mid on the cut at 0.5
    (((0.0, 0.0), (1.0, 0.6), (0.2, 1.0)), 0.25, 7),        # pentagon around mid
    (((0.0, 0.0), (1.0, 0.2), (0.5, 0.5)), 0.5, 1),         # extent exactly the maximum
])
def test_strip_edge_cases(tri, max_y_extent, n_children):
    for rot in range(3):                                    # each corner first in turn
        t = np.roll(np.array(tri), rot, axis=0)
        a, b, c, _ = _check_strips(t[None], max_y_extent)
        assert a.shape[0] == n_children
        if n_children == 1:
            assert np.array_equal(np.stack([a[0], b[0], c[0]]), t)


def test_strips_of_a_subnormal_middle_height_warn_nothing():
    # h / dm overflows at every level when mid sits 1e-310 above lo
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b, c, owner = _check_strips([[[0.0, 0.0], [1.0, 1e-310], [0.3, 1.0]]], 0.3)
    assert a.shape[0] > 1 and (owner == 0).all()
    assert (_signed_areas(a, b, c) > 0.0).all()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), degree=st.integers(1, 7),
       max_y_extent=st.floats(0.05, 0.8))
def test_strip_quadrature_exact_for_monomials(seed, degree, max_y_extent):
    for E in (PENTAGON, star_polygon(np.random.default_rng(seed), 7)):
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
    with pytest.raises(NumericalDegeneracyError,
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
    with pytest.raises(QuadratureError, match="not star-shaped"):
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
