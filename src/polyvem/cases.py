"""Manufactured solutions for convergence studies.

Each case bundles the exact solution, its gradient, the matching source term
f = -div(K grad u) derived by hand (a finite-difference cross-check lives in
the test suite), and the constant diffusion tensor.  All callables accept and
return numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .local import DiffusionTensor


@dataclass(frozen=True)
class TestCase:
    name: str
    u: Callable
    grad_u: Callable            # (x, y) -> (du/dx, du/dy)
    f: Callable
    K: DiffusionTensor
    zero_boundary: bool = True
    y_wavelength: Optional[float] = None


def _tc1() -> TestCase:
    """Boundary-layer solution with a strongly anisotropic diffusion tensor.

    u = 1e-2 * x*y*(1-x)*(1-y)*(exp(20x) - 1), K = diag(8e-3, 1).  The x
    profile develops a sharp layer near x = 1; the small K_xx makes the
    energy norm dominated by the y derivative.
    """
    kx = 8.0e-3

    def factors(x):
        """x (1-x), its derivative 1 - 2x, exp(20x) and exp(20x) - 1, from one
        exponential: g(x) = x (1-x) (exp(20x) - 1) and its derivatives are
        formed from them by each caller, which forms only those it reads."""
        ex = np.exp(20.0 * x)
        return x * (1.0 - x), 1.0 - 2.0 * x, ex, ex - 1.0

    def u(x, y):
        p, _, _, em1 = factors(x)
        return 1.0e-2 * (p * em1) * y * (1.0 - y)

    def grad_u(x, y):
        p, q, ex, em1 = factors(x)
        gp = q * em1 + 20.0 * p * ex
        return 1.0e-2 * gp * (y * (1.0 - y)), 1.0e-2 * (p * em1) * (1.0 - 2.0 * y)

    def f(x, y):
        # -(kx*u_xx + u_yy) with u_yy = -2e-2*g(x)
        p, q, ex, em1 = factors(x)
        gpp = (40.0 * q + 400.0 * p) * ex - 2.0 * em1
        return -1.0e-2 * (kx * gpp * y * (1.0 - y) - 2.0 * (p * em1))

    return TestCase(name="tc1", u=u, grad_u=grad_u, f=f,
                    K=DiffusionTensor.diagonal(kx, 1.0))


def _tc2() -> TestCase:
    """Solution oscillating fast in y against a tensor that damps y diffusion.

    u = sin(2 pi x) sin(80 pi y), K = diag(1, 6.25e-4).  The exact energy norm
    is pi*sqrt(2): the x and y terms contribute pi^2 each once the tensor
    weights are applied.
    """
    ky = 6.25e-4
    twopi = 2.0 * math.pi
    eightypi = 80.0 * math.pi

    def u(x, y):
        return np.sin(twopi * x) * np.sin(eightypi * y)

    def grad_u(x, y):
        return (twopi * np.cos(twopi * x) * np.sin(eightypi * y),
                eightypi * np.sin(twopi * x) * np.cos(eightypi * y))

    def f(x, y):
        # -(u_xx + ky*u_yy) = (4 pi^2 + ky * 6400 pi^2) u = 8 pi^2 u
        return 8.0 * math.pi ** 2 * u(x, y)

    return TestCase(name="tc2", u=u, grad_u=grad_u, f=f,
                    K=DiffusionTensor.diagonal(1.0, ky),
                    y_wavelength=0.025)


# fixed generic coefficients for the polynomial patch cases, truncated by degree
_PATCH_COEFFS = {
    (0, 0): 0.7, (1, 0): 1.3, (0, 1): -0.9,
    (2, 0): 0.6, (1, 1): -1.1, (0, 2): 0.8,
    (3, 0): -0.4, (2, 1): 0.9, (1, 2): -0.7, (0, 3): 0.5,
    (4, 0): 0.3, (3, 1): -0.2, (2, 2): 0.4, (1, 3): 0.6, (0, 4): -0.5,
}


def _patch(degree: int) -> TestCase:
    """Generic full polynomial of the given total degree; boundary values are
    nonzero, so the harness interpolates them instead of forcing zero."""
    if degree < 1:
        raise ValueError("patch degree must be >= 1")
    if degree > max(a + b for a, b in _PATCH_COEFFS):
        raise ValueError(f"no stored patch coefficients beyond degree 4, got {degree}")
    # C[a, b] is the coefficient of x^a y^b, as `polyval2d` reads it
    C = np.zeros((degree + 1, degree + 1))
    for (a, b), c in _PATCH_COEFFS.items():
        if a + b <= degree:
            C[a, b] = c
    K = DiffusionTensor.diagonal(8.0e-3, 1.0)
    kx, ky = K.matrix[0, 0], K.matrix[1, 1]
    Cx, Cy = P.polyder(C, axis=0), P.polyder(C, axis=1)
    Cxx, Cyy = P.polyder(Cx, axis=0), P.polyder(Cy, axis=1)

    def u(x, y):
        return P.polyval2d(*np.broadcast_arrays(x, y), C)

    def grad_u(x, y):
        x, y = np.broadcast_arrays(x, y)
        return P.polyval2d(x, y, Cx), P.polyval2d(x, y, Cy)

    def f(x, y):
        x, y = np.broadcast_arrays(x, y)
        return -(kx * P.polyval2d(x, y, Cxx) + ky * P.polyval2d(x, y, Cyy))

    return TestCase(name=f"patch:{degree}", u=u, grad_u=grad_u, f=f, K=K,
                    zero_boundary=False)


def testcase(case_id: str) -> TestCase:
    """Look up a case by id: 'tc1', 'tc2' or 'patch:<degree>'."""
    if case_id == "tc1":
        return _tc1()
    if case_id == "tc2":
        return _tc2()
    if case_id.startswith("patch:"):
        try:
            degree = int(case_id.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad patch degree in {case_id!r}") from None
        return _patch(degree)
    raise ValueError(f"unknown test case {case_id!r}; expected tc1, tc2 or patch:<k>")
