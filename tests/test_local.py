import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular

from conftest import (PENTAGON, STAR_SHAPE, TRIANGLE, UNIT_SQUARE, cell_data_rule, fan_rule,
                      lone_cell, monomial_grads, shared_mesh, star_polygon)
from polyvem import local
from polyvem.basis import (dim_poly, edge_rules, eval_monomials, monomial_exponents,
                           monomial_index, polygon_quadrature)
from polyvem.errors import CellDegeneracyError, MeshError
from polyvem.local import (DiffusionTensor, DofLayout, ElementContext, Method,
                           StabilizationFreeRankError, build_pi0_grad, build_pi0_val,
                           build_pi_nabla, build_projection_pack, dof_count,
                           element_matrices, local_load, local_stiffness,
                           min_ell, recover_moments)
from polyvem.mesh import PolyMesh, generate_voronoi

K_ANISO = DiffusionTensor.diagonal(8.0e-3, 1.0)


# -- counting ----------------------------------------------------------------

def test_dof_count_examples():
    assert dof_count(1, 4) == 4
    assert dof_count(2, 4) == 9       # 4 vertices + 4 edge midpoints + 1 moment
    assert dof_count(3, 5) == 18      # 5 + 10 + 3
    with pytest.raises(ValueError):
        dof_count(0, 4)


def _min_ell_bruteforce(k, n):
    rhs = k * n + k * (k + 1) - 3
    for ell in range(0, 100):
        if (k + ell) * (k + ell + 1) >= rhs:
            return ell
    raise AssertionError


def test_min_ell_examples():
    assert min_ell(1, 3) == 0
    assert min_ell(1, 4) == 1
    assert min_ell(2, 6) == 2
    assert min_ell(3, 4) == 2


@given(k=st.integers(1, 6), n=st.integers(3, 24))
def test_min_ell_matches_exhaustive_search(k, n):
    assert min_ell(k, n) == _min_ell_bruteforce(k, n)


def test_dof_layout_ordering():
    lay = DofLayout(3, 5)
    assert lay.total == 18
    assert lay.edge_node_dofs.shape == (5, 4)
    assert lay.edge_node_dofs[4].tolist() == [4, 13, 14, 0]
    assert lay.edge_node_dofs[0, 1] == 5
    assert lay.first_moment == 15


def test_layout_tables_are_read_only_and_shared(rng):
    """The (k, m) table is built once: the layouts of two contexts of one
    (k, m) share it, and neither it nor a slice of it can be written."""
    a, b = ElementContext(PENTAGON, 2), ElementContext(star_polygon(rng, 5), 2)
    table = a.layout.edge_node_dofs
    assert table is b.layout.edge_node_dofs is DofLayout(2, 5).edge_node_dofs
    assert table is not DofLayout(2, 6).edge_node_dofs
    for view in (table, table[:, -1], table[:, 1:-1]):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", range(3, 9))
def test_edge_columns_equal_np_add_at(m, k, rng):
    """Into zeroed targets, `_add_edge_columns` gives `np.add.at`'s sums in
    edge order bit for bit, signed zeros included."""
    lay = DofLayout(k, m)
    values = rng.standard_normal((2, m, k + 1, 3))
    values[0, rng.integers(m, size=4), rng.integers(k + 1, size=4)] = -0.0
    values[1, :, 0] = -values[1, np.arange(m) - 1, -1]        # vertex columns cancel
    want = np.zeros((2, 3, lay.total))
    np.add.at(np.moveaxis(want, -1, 0), lay.edge_node_dofs,
              np.moveaxis(values, (-3, -2), (0, 1)))
    got = np.zeros_like(want)
    local._add_edge_columns(got, lay, values)
    assert got.tobytes() == want.tobytes()


# -- interpolation helper ----------------------------------------------------

def interpolate_cell(E, k, func):
    """Local dof vector of the interpolant of a smooth function on the
    one-cell stack E; independent of the projector machinery (direct node
    evaluation + quadrature moments)."""
    lay = DofLayout(k, E.n_vertices)
    ctx = ElementContext(E, k)
    chi = np.zeros(lay.total)
    chi[:E.n_vertices] = func(E.verts[0, :, 0], E.verts[0, :, 1])
    inner = ctx.edge_node_points[0, :, 1:-1]
    chi[lay.edge_node_dofs[:, 1:-1]] = func(inner[..., 0], inner[..., 1])
    if lay.n_moments:
        quad = polygon_quadrature(E, 2 * k + 4)
        V = eval_monomials(E, quad.points[None], k - 2)[0]
        fv = np.array([func(p[0], p[1]) for p in quad.points])
        chi[lay.first_moment:] = V.T @ (quad.weights * fv) / E.area[0]
    return chi


def _monomial_func(E, idx, degree):
    exps = monomial_exponents(degree)
    ax, ay = exps[idx]
    h, c = E.diameter[0], E.centroid[0]
    return lambda x, y: ((x - c[0]) / h) ** ax * ((y - c[1]) / h) ** ay


# -- energy projector --------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3])
def test_pi_nabla_fixes_polynomials(k, rng):
    for E in (UNIT_SQUARE, PENTAGON, star_polygon(rng, 6)):
        D, _, _, pi_star = (a[0] for a in build_pi_nabla(ElementContext(E, k)))
        nk = dim_poly(k)
        # interpolate each monomial independently and project it back
        for a in range(nk):
            chi = interpolate_cell(E, k, _monomial_func(E, a, k))
            coeff = pi_star @ chi
            expected = np.zeros(nk)
            expected[a] = 1.0
            assert np.abs(coeff - expected).max() < 1e-12
        assert np.abs(pi_star @ D - np.eye(nk)).max() < 1e-12


def test_pi_dof_idempotent(rng):
    E = star_polygon(rng, 5)
    pack = build_projection_pack(E, 2, Method.STANDARD)
    pi_dof = pack.D[0] @ pack.pi_star[0]
    assert np.abs(pi_dof @ pi_dof - pi_dof).max() < 1e-10


def _quadrature_pi_nabla_gram(E, k):
    """Independent oracle for G on the one-cell stack E: gradient products by
    quadrature plus the average-condition row computed from scratch."""
    quad = polygon_quadrature(E, 2 * k)
    nk = dim_poly(k)
    grads = monomial_grads(E, quad.points[None], k)[0]
    G = np.einsum("q,qad,qbd->ab", quad.weights, grads, grads)
    if k == 1:
        _, t, w = edge_rules(1, k + 1)
        row = np.zeros(nk)
        per = 0.0
        m, v = E.n_vertices, E.verts[0]
        for e in range(m):
            a, b = v[e], v[(e + 1) % m]
            pts = a + np.outer(t, b - a)
            length = float(np.hypot(*(b - a)))
            row += length * (w @ eval_monomials(E, pts[None], k)[0])
            per += length
        G[0] = row / per
    else:
        quad2 = polygon_quadrature(E, 2 * k)
        V = eval_monomials(E, quad2.points[None], k)[0]
        G[0] = (quad2.weights @ V) / E.area[0]
    return G


@pytest.mark.parametrize("k", [1, 2, 3])
def test_g_matches_quadrature_oracle(k, rng):
    for E in (UNIT_SQUARE, TRIANGLE, star_polygon(rng, 7)):
        G = build_pi_nabla(ElementContext(E, k))[2][0]
        G_ref = _quadrature_pi_nabla_gram(E, k)
        scale = np.abs(G_ref).max()
        assert np.abs(G - G_ref).max() <= 1e-11 * scale


# -- moment recovery ---------------------------------------------------------

@pytest.mark.parametrize("k,ell", [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2),
                                   (3, 0), (3, 1)])
def test_recovered_moments_exact_on_polynomials(k, ell, rng):
    """Every pair recovers a non-empty block of rows past the moment dofs, of
    degree k-1 up to max(k-1, k+ell-2), the highest the L2 projections read."""
    # oracle: quadrature moments of the polynomial itself
    E = star_polygon(rng, 6)
    ctx = ElementContext(E, k, ell)
    M = recover_moments(ctx, build_pi_nabla(ctx)[3])[0]
    top = max(k - 1, k + ell - 2)
    assert M.shape == (dim_poly(top), ctx.layout.total)
    assert dim_poly(top) > ctx.layout.n_moments
    quad = polygon_quadrature(E, 2 * (k + ell) + 2)
    V_top = eval_monomials(E, quad.points[None], top)[0]
    for a in range(dim_poly(k)):
        f = _monomial_func(E, a, k)
        chi = interpolate_cell(E, k, f)
        got = M @ chi
        fv = np.array([f(p[0], p[1]) for p in quad.points])
        ref = V_top.T @ (quad.weights * fv)
        assert np.abs(got - ref).max() < 1e-11 * max(1.0, E.area[0])


def test_moment_row_zero_is_scaled_moment_dof():
    pack = build_projection_pack(PENTAGON, 2, Method.STANDARD)
    row = recover_moments(ElementContext(PENTAGON, 2, pack.ell), pack.pi_star)[0, 0]
    expected = np.zeros(pack.layout.total)
    expected[pack.layout.first_moment] = PENTAGON.area[0]
    assert np.abs(row - expected).max() < 1e-14


def test_triangle_k1_moments_match_linear_interpolant(rng):
    # linear finite element oracle on triangles; at ell = 2 the gradient
    # projection has degree 2, so the recovered moments reach degree 1
    E = TRIANGLE
    vals = rng.uniform(-1, 1, 3)
    ctx = ElementContext(E, 1, 2)
    M = recover_moments(ctx, build_pi_nabla(ctx)[3])[0]
    assert M.shape == (dim_poly(1), 3)
    got = M @ vals

    # exact moments of the linear interpolant via quadrature
    v = E.verts[0]
    T = np.column_stack([v[1] - v[0], v[2] - v[0]])
    quad = polygon_quadrature(E, 4)

    def lin(x, y):
        lam = np.linalg.solve(T, np.array([x, y]) - v[0])
        return vals[0] * (1 - lam.sum()) + vals[1] * lam[0] + vals[2] * lam[1]

    fv = np.array([lin(p[0], p[1]) for p in quad.points])
    ref = eval_monomials(E, quad.points[None], 1)[0].T @ (quad.weights * fv)
    assert np.abs(got - ref).max() < 1e-13


# -- gradient projection -----------------------------------------------------

def _monomial_coefficients(ctx, W):
    """Z = L^-T W block by block: the monomial coefficients of the gradient
    projection W = `build_pi0_grad` of the context, L the Gram factor's
    block of its degree."""
    nd = dim_poly(ctx.grad_degree)
    Lt = np.swapaxes(ctx.gram_factor[..., :nd, :nd], -1, -2)
    return np.concatenate([np.linalg.solve(Lt, Wc) for Wc in np.split(W, 2, axis=-2)],
                          axis=-2)


def test_pi0_grad_constant_gradient(rng):
    E = star_polygon(rng, 5)
    pack = build_projection_pack(E, 1, Method.STANDARD)
    chi = interpolate_cell(E, 1, _monomial_func(E, 1, 1))   # m_(1,0)
    coeff = _monomial_coefficients(ElementContext(E, 1, pack.ell), pack.pi0_grad)[0] @ chi
    assert coeff[0] == pytest.approx(1.0 / E.diameter[0], abs=1e-12)
    assert abs(coeff[1]) < 1e-12    # constant projection: single coeff per part


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pi0_grad_exact_on_polynomials(k, rng):
    E = star_polygon(rng, 6)
    for method in (Method.STANDARD, Method.E2VEM):
        pack = build_projection_pack(E, k, method)
        ctx = ElementContext(E, k, pack.ell)
        d = ctx.grad_degree
        nd = dim_poly(d)
        for a in range(dim_poly(k)):
            f = _monomial_func(E, a, k)
            chi = interpolate_cell(E, k, f)
            coeff = _monomial_coefficients(ctx, pack.pi0_grad)[0] @ chi
            # oracle: L2 projection of the exact gradient by quadrature
            quad = polygon_quadrature(E, 2 * d + 2)
            grads = monomial_grads(E, quad.points[None], k)[0, :, a, :]
            V = eval_monomials(E, quad.points[None], d)[0]
            H = (V * quad.weights[:, None]).T @ V
            ref = np.concatenate([
                np.linalg.solve(H, V.T @ (quad.weights * grads[:, 0])),
                np.linalg.solve(H, V.T @ (quad.weights * grads[:, 1]))])
            assert np.abs(coeff - ref).max() < 1e-11
        assert pack.pi0_grad[0].shape == (2 * nd, pack.layout.total)


def _edge_points_normals(ctx, c=0):
    """(points (m, nq, 2), normals (m, 2)) of cell c of the stack: the points
    of the nq-point Gauss-Legendre rule of `ctx.edge_trace` on each edge, and
    the outward unit normals, formed from `E.verts`."""
    verts = ctx.E.verts[c]
    tang = np.roll(verts, -1, axis=0) - verts
    _, t, _ = edge_rules(ctx.k, 2 * ctx.edge_trace.shape[-1] - 1)
    normals = np.stack([tang[:, 1], -tang[:, 0]], axis=-1) / np.hypot(*tang.T)[:, None]
    return verts[:, None, :] + t[:, None] * tang[:, None, :], normals


def _boundary_by_edges(ctx, c=0):
    """(2, dim P_d, total), d = `ctx.grad_degree`: the boundary pairings
    int_dE phi_j n_i m_a of cell c of the stack, one edge at a time, edge 0
    first."""
    lay, E = ctx.layout, ctx.E.take([c])
    points, normals = _edge_points_normals(ctx, c)
    out = np.zeros((2, dim_poly(ctx.grad_degree), lay.total))
    for e in range(lay.n_vertices):
        dofs = lay.edge_node_dofs[e]
        contrib = (eval_monomials(E, points[None, e], ctx.grad_degree)[0].T
                   @ ctx.edge_trace[c, e].T)
        for i in range(2):
            out[i][:, dofs] += normals[e, i] * contrib
    return out


def _gradient_rhs_by_edges(ctx, moments, c=0):
    """(2, dim P_d, total), d = `ctx.grad_degree`: the pairings
    (grad v, m_a e_i)_E of cell c of the stack by parts, the boundary term
    one edge at a time (`_boundary_by_edges`), then the divergence term."""
    h, d = ctx.E.diameter[c], ctx.grad_degree
    R = _boundary_by_edges(ctx, c)
    for a, (ax, ay) in enumerate(monomial_exponents(d)):
        if ax:
            R[0, a] -= (ax / h) * moments[c, monomial_index(ax - 1, ay)]
        if ay:
            R[1, a] -= (ay / h) * moments[c, monomial_index(ax, ay - 1)]
    return R


@pytest.mark.parametrize("k", [1, 2, 3])
def test_edge_terms_match_per_edge_loop(k, rng):
    """The batched boundary pairing and the gradient projection's right-hand
    side equal a loop over edges, edge 0 first, bit for bit; B's edge
    columns, read from the pairing through the derivative table, match the
    gradients integrated edge by edge."""
    E = star_polygon(rng, 9)
    ctx = ElementContext(E, k, 1)
    lay = ctx.layout
    _, B, _, pi_star = build_pi_nabla(ctx)
    assert np.array_equal(ctx.boundary[0], _boundary_by_edges(ctx))
    ref_B = np.zeros_like(B[0])
    points, normals = _edge_points_normals(ctx)
    for e in range(lay.n_vertices):
        gn = monomial_grads(E, points[None, e], k)[0] @ normals[e]
        ref_B[:, lay.edge_node_dofs[e]] += gn.T @ ctx.edge_trace[0, e].T
    edge_cols = slice(0, lay.first_moment)
    assert (np.abs(B[0, 1:, edge_cols] - ref_B[1:, edge_cols]).max()
            <= 1e-13 * np.abs(ref_B[1:, edge_cols]).max())
    moments = recover_moments(ctx, pi_star)
    R = _gradient_rhs_by_edges(ctx, moments)
    nd = dim_poly(ctx.grad_degree)
    coef = local._lower_solve(ctx.gram_factor[0, :nd, :nd], np.hstack([R[0], R[1]]))
    assert np.array_equal(build_pi0_grad(ctx, moments)[0], np.vstack(np.hsplit(coef, 2)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_context_gram_matches_the_fan_quadrature_gram(k, rng):
    """The Gram matrix from the context's one edge table, whose rule reaches
    degree 2(k+ell) at every ell (the Gram sets it from ell = 4 on), equals
    the Gram of the centroid-fan rule."""
    for E in (star_polygon(rng, 5), star_polygon(rng, 8)):
        for ell in range(7):
            degree = k + ell
            q = fan_rule(E, 2 * degree)
            V = eval_monomials(E, q.points[None], degree)[0]
            ref = (V.T * q.weights) @ V
            gram = ElementContext(E, k, ell).gram[0]
            assert np.abs(gram - ref).max() <= 1e-14 * np.abs(ref).max()


def test_energy_projector_rejects_a_singular_system():
    """Zero edge traces and boundary pairings leave B, so G = B @ D, zero at
    k = 1: the projector system is singular, a solver failure of the cell."""
    ctx = ElementContext(PENTAGON, 1)
    ctx.edge_trace = np.zeros_like(ctx.edge_trace)
    ctx.boundary = np.zeros_like(ctx.boundary)
    with pytest.raises(CellDegeneracyError,
                       match=r"^singular projector system \(k=1\)$") as info:
        build_pi_nabla(ctx)
    assert info.value.exit_code == 3


def test_pi0_grad_triangle_matches_fem_gradient(rng):
    # degree-0 projection on a triangle equals the linear interpolant gradient
    E = TRIANGLE
    vals = rng.uniform(-1, 1, 3)
    ctx = ElementContext(E, 1, 0)
    M = recover_moments(ctx, build_pi_nabla(ctx)[3])
    C = _monomial_coefficients(ctx, build_pi0_grad(ctx, M))[0]
    got = C @ vals
    v = E.verts[0]
    T = np.column_stack([v[1] - v[0], v[2] - v[0]])
    lam_grad = np.linalg.inv(T).T        # gradients of lam1, lam2
    g = (vals[1] - vals[0]) * lam_grad[:, 0] + (vals[2] - vals[0]) * lam_grad[:, 1]
    assert np.allclose(got, g, atol=1e-13)


# -- local stiffness ---------------------------------------------------------

def fem_triangle_stiffness(E, K):
    """The linear finite element stiffness matrix of the one-cell stack E."""
    v, area = E.verts[0], E.area[0]
    g = np.zeros((3, 2))
    for i in range(3):
        e = v[(i + 2) % 3] - v[(i + 1) % 3]
        g[i] = np.array([-e[1], e[0]]) / (2.0 * area)
    return area * g @ K.matrix @ g.T


def test_unit_square_k1_api_closed_form():
    # derived by evaluating the projected gradient of each vertex function
    pack = build_projection_pack(UNIT_SQUARE, 1, Method.STANDARD)
    a_pi, _ = local_stiffness(pack, Method.STANDARD, DiffusionTensor.diagonal(1.0, 1.0))
    expect = 0.5 * np.array([[1, 0, -1, 0], [0, 1, 0, -1],
                             [-1, 0, 1, 0], [0, -1, 0, 1]], dtype=float)
    assert np.abs(a_pi[0] - expect).max() <= 1e-12


def test_e2vem_triangle_equals_fem(rng):
    for _ in range(5):
        verts = rng.uniform(0, 1, (3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        area = 0.5 * (e1[0] * e2[1] - e1[1] * e2[0])
        if abs(area) < 0.05:
            continue
        if area < 0:
            verts = verts[::-1]
        E = lone_cell(verts)
        # the consistency part alone: the scheme builds no stabilization
        (a_pi,) = local_stiffness(build_projection_pack(E, 1, Method.E2VEM),
                                  Method.E2VEM, K_ANISO)
        assert np.abs(a_pi[0] - fem_triangle_stiffness(E, K_ANISO)).max() <= 1e-12


def chi_of_constant(E, pack):
    chi = np.ones(pack.layout.total)
    n_mom = pack.layout.n_moments
    if n_mom:
        chi[pack.layout.n_vertices * pack.k:] = \
            ElementContext(E, pack.k, pack.ell).gram[0, :n_mom, 0] / E.area[0]
    return chi


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("method", [Method.STANDARD, Method.E2VEM])
def test_constants_in_kernel(k, method, rng):
    for E in (UNIT_SQUARE, star_polygon(rng, 6)):
        pack = build_projection_pack(E, k, method)
        A = sum(local_stiffness(pack, method, K_ANISO))[0]
        chi = chi_of_constant(E, pack)
        assert np.abs(A @ chi).max() <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("method", [Method.STANDARD, Method.E2VEM])
def test_polynomial_consistency_and_psd(k, method, rng):
    E = star_polygon(rng, 5)
    pack = build_projection_pack(E, k, method)
    A = sum(local_stiffness(pack, method, K_ANISO))[0]
    assert np.abs(A - A.T).max() <= 1e-12
    evals = np.linalg.eigvalsh(A)
    assert evals.min() >= -1e-10 * np.abs(evals).max()
    if method is Method.STANDARD or k == 1:
        kernel = (np.abs(evals) <= 1e-9 * np.abs(evals).max()).sum()
        assert kernel == 1

    # chi(p)^T A chi(q) = (K grad p, grad q) for p, q in P_k
    quad = polygon_quadrature(E, 2 * k)
    grads = monomial_grads(E, quad.points[None], k)[0]
    Km = K_ANISO.matrix
    nk = dim_poly(k)
    for a in range(1, nk):
        chi_a = interpolate_cell(E, k, _monomial_func(E, a, k))
        for b in range(1, nk):
            chi_b = interpolate_cell(E, k, _monomial_func(E, b, k))
            exact = quad.weights @ np.einsum(
                "qd,de,qe->q", grads[:, a, :], Km, grads[:, b, :])
            assert chi_a @ A @ chi_b == pytest.approx(exact, abs=1e-10)


def test_stabilization_scaling_equivariance(rng):
    E = star_polygon(rng, 6)
    t = 3.7
    for method in (Method.STANDARD, Method.E2VEM):
        pack = build_projection_pack(E, 2, method)
        Kt = DiffusionTensor(matrix=t * K_ANISO.matrix)
        parts = local_stiffness(pack, method, K_ANISO)
        scaled = local_stiffness(pack, method, Kt)
        assert len(parts) == len(scaled) == (2 if method is Method.STANDARD else 1)
        for a, ta in zip(parts, scaled):
            assert np.abs(ta - t * a).max() <= 1e-13 * np.abs(a).max() * t


def _kept_pack(E, k, method):
    """The pack of the first ell that leaves the one-cell stack E not short:
    the enlargement `element_matrices` keeps it at."""
    pack = build_projection_pack(E, k, method)
    while pack.short is not None:
        pack = build_projection_pack(E, k, method, pack.ell + 1)
    return pack


def test_e2vem_enlargement_bumps_on_symmetric_cells():
    # exact squares at order 2 and regular hexagons at order 1 need one more
    # enhancement degree than the counting inequality suggests
    assert _kept_pack(UNIT_SQUARE, 2, Method.E2VEM).ell == 2
    assert min_ell(2, 4) == 1
    hexa = lone_cell(
        [[math.cos(a), math.sin(a)] for a in np.arange(6) * math.pi / 3])
    assert _kept_pack(hexa, 1, Method.E2VEM).ell == 2
    assert min_ell(1, 6) == 1
    # generic cells keep the minimal value
    assert _kept_pack(PENTAGON, 1, Method.E2VEM).ell == min_ell(1, 5)


def test_rank_check_raises_on_deficient_pack(monkeypatch):
    # without enlargement bumps the exact square at order 2 keeps the
    # symmetry mode of the bare counting-inequality enlargement
    monkeypatch.setattr(local, "MAX_ELL_BUMPS", 0)
    with pytest.raises(StabilizationFreeRankError, match="rank deficient"):
        build_projection_pack(UNIT_SQUARE, 2, Method.E2VEM)


def test_lone_polygon_errors_name_cell_0(monkeypatch):
    """A lone polygon is the one cell of its mesh: its quadrature and rank
    errors lead with `cell 0:`, as its constructor's errors do."""
    with pytest.raises(MeshError, match=r"^cell 0: polygon is not CCW \(signed area -0\.5\)$"):
        lone_cell([[0, 0], [0, 1], [1, 0]])
    # re-entrant quadrilateral whose centroid lies outside it
    dart = lone_cell([[0.0, 0.0], [1.0, 0.0], [0.1, 0.1], [0.0, 1.0]])
    with pytest.raises(MeshError, match=r"^cell 0: " + STAR_SHAPE.format(1, r"-0\.05")):
        polygon_quadrature(dart, 2)
    monkeypatch.setattr(local, "MAX_ELL_BUMPS", 0)
    with pytest.raises(StabilizationFreeRankError,
                       match=r"^cell 0: gradient projection stays rank deficient"):
        build_projection_pack(UNIT_SQUARE, 2, Method.E2VEM)


# -- stacks of cells ---------------------------------------------------------

def _hexagon_mesh(rng):
    """Irregular and regular hexagons, apart, in one vertex-count group: at
    order 1 the stabilization-free build keeps the irregular ones at the
    counting-inequality ell and bumps the regular ones."""
    angles = np.arange(6) * math.pi / 3
    regular = np.column_stack([np.cos(angles), np.sin(angles)])
    shapes = [star_polygon(rng, 6).verts[0], regular, star_polygon(rng, 6).verts[0],
              0.5 * regular, star_polygon(rng, 6).verts[0]]
    verts = np.vstack([v + [3.0 * i, 0.0] for i, v in enumerate(shapes)])
    return PolyMesh(verts, np.arange(verts.shape[0]).reshape(-1, 6))


def _check_against_one_cell_stacks(mesh, cells, k, method):
    """Check the stacked `element_matrices` of `cells` against each cell's
    one-cell stack at the ell it is kept at, to 1e-12; return those ells."""
    stacked = element_matrices(mesh.cell_geom(cells), k, method, K_ANISO)
    ells = []
    for i in range(cells.size):
        pack = _kept_pack(mesh.cell_geom(cells[i:i + 1]), k, method)
        ells.append(pack.ell)
        wanted = (pack.pi_star, pack.pi0_val, *local_stiffness(pack, method, K_ANISO))
        for got, want in zip(stacked, wanted):
            assert np.abs(got[i] - want[0]).max() <= 1e-12 * np.abs(want[0]).max()
    return ells


@pytest.fixture(scope="module")
def stack_meshes():
    return {"voronoi64": shared_mesh("voronoi", 64),
            "hexagons": _hexagon_mesh(np.random.default_rng(5))}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("method", [Method.STANDARD, Method.E2VEM])
@pytest.mark.parametrize("name", ["voronoi64", "hexagons"])
def test_stacked_build_matches_one_cell_stacks(name, method, k, stack_meshes):
    """Each cell of a vertex-count group keeps the ell of its own one-cell
    stack, and its pi_star, pi0_val, a_pi and a_s agree to 1e-12."""
    mesh = stack_meshes[name]
    n_verts = np.diff(mesh.flat_cells[1])
    for m in np.unique(n_verts):
        cells = np.flatnonzero(n_verts == m)
        ells = _check_against_one_cell_stacks(mesh, cells, k, method)
    if name == "hexagons" and method is Method.E2VEM and k == 1:
        assert ells == [1, 2, 1, 2, 1]
        short = build_projection_pack(mesh.cell_geom(cells), k, method).short
        assert short.tolist() == [False, True, False, True, False]


def test_stack_cells_kept_at_three_enlargements(monkeypatch, stack_meshes):
    """With a looser rank threshold the order-2 stabilization-free build of
    Voronoi-64 keeps cells at min_ell, min_ell + 1 and min_ell + 2, and the
    7-vertex stack takes one cell through both extra levels; every cell
    matches its one-cell stack at its own ell."""
    monkeypatch.setattr(local, "RANK_TOL", 1e-4)
    mesh = stack_meshes["voronoi64"]
    n_verts = np.diff(mesh.flat_cells[1])
    bumps = {}
    for m in np.unique(n_verts):
        cells = np.flatnonzero(n_verts == m)
        ells = _check_against_one_cell_stacks(mesh, cells, 2, Method.E2VEM)
        bumps[int(m)] = sorted({ell - min_ell(2, m) for ell in ells})
    assert set().union(*bumps.values()) == {0, 1, 2}
    assert bumps[7] == [0, 2]


@pytest.mark.parametrize("Km", [np.array([[8.0e-3, 0.05], [0.05, 1.0]]), np.eye(2)],
                         ids=["anisotropic", "identity"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradient_energy_matches_per_cell_sum(k, Km, stack_meshes):
    """The stacked form equals sum_ij K_ij W_i^T W_j cell by cell, W_0 and
    W_1 the x and y blocks of the gradient projection, at both degrees; and
    both L2 projections match a per-cell Cholesky solve with the Gram block:
    the gradient projection's monomial coefficients L^-T W match it, and W
    matches a triangular solve with the block's own factor."""
    Km = DiffusionTensor(matrix=Km).matrix
    mesh = stack_meshes["voronoi64"]
    n_verts = np.diff(mesh.flat_cells[1])

    def assert_close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    for m in np.unique(n_verts):
        E = mesh.cell_geom(np.flatnonzero(n_verts == m))
        # both gradient degrees: k-1 at ell = 0, k+ell-1 at the minimal ell
        for ell in (0, min_ell(k, m)):
            ctx = ElementContext(E, k, ell)
            moments = recover_moments(ctx, build_pi_nabla(ctx)[3])
            nv = dim_poly(k - 1)
            pi0_val = build_pi0_val(ctx, moments)
            for c in range(pi0_val.shape[0]):
                cho = cho_factor(ctx.gram[c, :nv, :nv])
                assert_close(pi0_val[c], cho_solve(cho, moments[c, :nv]))
            pi0_grad = build_pi0_grad(ctx, moments)
            got = local._gradient_energy(pi0_grad, Km)
            coef = _monomial_coefficients(ctx, pi0_grad)
            nd = dim_poly(ctx.grad_degree)
            for c in range(got.shape[0]):
                W = (pi0_grad[c, :nd], pi0_grad[c, nd:])
                want = sum(Km[i, j] * W[i].T @ W[j] for i in (0, 1) for j in (0, 1))
                assert np.abs(got[c] - want).max() <= 1e-13 * np.abs(want).max()
                H = ctx.gram[c, :nd, :nd]
                cho = cho_factor(H)
                R = _gradient_rhs_by_edges(ctx, moments, c)
                assert_close(coef[c], np.vstack([cho_solve(cho, R[0]), cho_solve(cho, R[1])]))
                L = cholesky(H, lower=True)
                assert_close(pi0_grad[c], np.vstack([solve_triangular(L, R[0], lower=True),
                                                     solve_triangular(L, R[1], lower=True)]))


# -- local load --------------------------------------------------------------

def test_load_zero_source(rng):
    E = star_polygon(rng, 5)
    pack = build_projection_pack(E, 2, Method.STANDARD)
    load = pack.pi0_val[0].T @ local_load(lambda x, y: 0.0 * x, cell_data_rule(E, 2))[0]
    assert np.abs(load).max() == 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_load_constant_source_integrates_area(k, rng):
    E = star_polygon(rng, 6)
    pack = build_projection_pack(E, k, Method.STANDARD)
    load = (pack.pi0_val[0].T
            @ local_load(lambda x, y: np.ones_like(x), cell_data_rule(E, k))[0])
    chi = chi_of_constant(E, pack)
    assert load @ chi == pytest.approx(E.area[0], abs=1e-10)


def test_load_centered_monomial_unit_square():
    pack = build_projection_pack(UNIT_SQUARE, 1, Method.STANDARD)
    h, c = UNIT_SQUARE.diameter[0], UNIT_SQUARE.centroid[0]
    load = pack.pi0_val[0].T @ local_load(lambda x, y: (x - c[0]) / h,
                                       cell_data_rule(UNIT_SQUARE, 1))[0]
    chi = np.ones(4)
    assert load @ chi == pytest.approx(0.0, abs=1e-12)
