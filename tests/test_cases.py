import math

import numpy as np
import pytest

from polyvem.cases import testcase as get_case
from polyvem.local import DiffusionTensor


def test_tc1_point_value():
    # direct evaluation of the closed form at the cell center
    tc = get_case("tc1")
    expected = 1e-2 * 0.0625 * (math.exp(10.0) - 1.0)
    assert tc.u(0.5, 0.5) == pytest.approx(expected, rel=1e-14)
    assert tc.u(0.5, 0.5) == pytest.approx(13.76592, rel=1e-5)


def test_tc1_vanishes_on_boundary():
    tc = get_case("tc1")
    ys = np.linspace(0, 1, 17)
    assert np.abs(tc.u(np.ones_like(ys), ys)).max() <= 1e-12
    assert np.abs(tc.u(np.zeros_like(ys), ys)).max() <= 1e-12
    assert np.abs(tc.u(ys, np.zeros_like(ys))).max() <= 1e-12
    assert np.abs(tc.u(ys, np.ones_like(ys))).max() <= 1e-12


def _tc1_by_profile(x, y):
    """u, grad u and f of tc1 from the profile g and both its derivatives,
    formed together: the form the case had before each callable formed only
    the derivatives it reads."""
    ex = np.exp(20.0 * x)
    em1 = ex - 1.0
    p, q = x * (1.0 - x), 1.0 - 2.0 * x
    g, gp, gpp = p * em1, q * em1 + 20.0 * p * ex, (40.0 * q + 400.0 * p) * ex - 2.0 * em1
    return (1.0e-2 * g * y * (1.0 - y),
            (1.0e-2 * gp * (y * (1.0 - y)), 1.0e-2 * g * (1.0 - 2.0 * y)),
            -1.0e-2 * (8.0e-3 * gpp * y * (1.0 - y) - 2.0 * g))


def test_tc1_callables_equal_the_profile_form_bitwise():
    x, y = np.random.default_rng(26).uniform(0.0, 1.0, (2, 100_000))
    u, (ux, uy), f = _tc1_by_profile(x, y)
    tc = get_case("tc1")
    gx, gy = tc.grad_u(x, y)
    assert np.array_equal(tc.u(x, y), u)
    assert np.array_equal(gx, ux) and np.array_equal(gy, uy)
    assert np.array_equal(tc.f(x, y), f)


def test_tc2_point_values():
    tc = get_case("tc2")
    assert tc.u(0.25, 1.0 / 160.0) == pytest.approx(1.0, abs=1e-14)
    xs = np.linspace(0, 1, 13)
    assert np.abs(tc.u(xs, np.zeros_like(xs))).max() <= 1e-12
    assert tc.y_wavelength == pytest.approx(0.025)


def manufactured_residual(case, n_points: int = 100, seed: int = 7,
                          step: float = 1e-5) -> float:
    """Relative mismatch between f and -div(K grad u) by central differences.

    The residual is normalized by the largest source magnitude over the
    sample (floored at 1 so cases with identically zero source stay well
    posed); pointwise normalization would blow up at the zeros of f where
    the finite-difference truncation error dominates.  Guards the
    hand-derived source terms.
    """
    rng = np.random.default_rng(seed)
    pts = 0.05 + 0.9 * rng.random((n_points, 2))
    x, y = pts[:, 0], pts[:, 1]
    Km = case.K.matrix
    u = case.u
    uxx = (u(x + step, y) - 2.0 * u(x, y) + u(x - step, y)) / step ** 2
    uyy = (u(x, y + step) - 2.0 * u(x, y) + u(x, y - step)) / step ** 2
    uxy = (u(x + step, y + step) - u(x + step, y - step)
           - u(x - step, y + step) + u(x - step, y - step)) / (4.0 * step ** 2)
    div_flux = Km[0, 0] * uxx + 2.0 * Km[0, 1] * uxy + Km[1, 1] * uyy
    fv = np.asarray(case.f(x, y), dtype=float)
    scale = max(1.0, float(np.abs(fv).max()), float(np.abs(div_flux).max()))
    return float(np.abs(fv + div_flux).max() / scale)


@pytest.mark.parametrize("case_id", ["tc1", "tc2", "patch:1", "patch:2", "patch:3"])
def test_source_matches_divergence(case_id):
    # central finite differences at 100 interior points, step 1e-5
    assert manufactured_residual(get_case(case_id), n_points=100, step=1e-5) <= 1e-5


@pytest.mark.parametrize("case_id", ["tc1", "tc2", "patch:1", "patch:2", "patch:3"])
def test_gradient_matches_finite_differences(case_id):
    case = get_case(case_id)
    rng = np.random.default_rng(11)
    x, y = 0.05 + 0.9 * rng.random((2, 50))
    step = 1e-6
    gx, gy = case.grad_u(x, y)
    fdx = (case.u(x + step, y) - case.u(x - step, y)) / (2 * step)
    fdy = (case.u(x, y + step) - case.u(x, y - step)) / (2 * step)
    scale = max(1.0, np.abs(gx).max(), np.abs(gy).max())
    assert np.abs(gx - fdx).max() / scale < 1e-7
    assert np.abs(gy - fdy).max() / scale < 1e-7


def test_patch_cases_have_full_degree():
    for k in (1, 2, 3):
        case = get_case(f"patch:{k}")
        assert not case.zero_boundary
        # leading coefficient present: degree-k term varies along x
        x = np.linspace(0, 1, 5)
        vals = case.u(x, np.zeros_like(x))
        assert np.polyfit(x, vals, k)[0] != pytest.approx(0.0, abs=1e-12)


def test_case_tensors():
    assert np.allclose(get_case("tc1").K.matrix, np.diag([8e-3, 1.0]))
    assert np.allclose(get_case("tc2").K.matrix, np.diag([1.0, 6.25e-4]))
    assert get_case("tc1").K.sup_norm() == pytest.approx(1.0)
    assert get_case("tc2").K.sup_norm() == pytest.approx(1.0)


def test_unknown_case_rejected():
    with pytest.raises(ValueError):
        get_case("tc9")
    with pytest.raises(ValueError):
        get_case("patch:x")
    with pytest.raises(ValueError):
        get_case("patch:0")


def test_diffusion_tensor_validation():
    with pytest.raises(ValueError):
        DiffusionTensor(matrix=np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        DiffusionTensor(matrix=np.diag([1.0, -0.1]))
    K = DiffusionTensor.diagonal(4.0, 9.0)
    assert K.sup_norm() == pytest.approx(9.0)
