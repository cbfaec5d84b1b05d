import os
import subprocess
import sys

import numpy as np
import pytest

import tidaldisk
from tidaldisk.chebyshev import HalfDiameterGrid, diff_matrix, lobatto_points

from radial_reference import laplacian_mode


def test_lobatto_points_endpoints():
    x = lobatto_points(8)
    assert x[0] == 1.0 and x[-1] == -1.0
    assert np.all(np.diff(x) < 0)


def test_diff_matrix_exact_on_polynomials():
    x = lobatto_points(12)
    D = diff_matrix(x)
    for k in range(1, 10):
        assert np.max(np.abs(D @ x**k - k * x ** (k - 1))) < 1e-10
    # rows of a differentiation matrix annihilate constants
    assert np.max(np.abs(D @ np.ones_like(x))) < 1e-12


def test_even_interpolant_exact_on_even_polynomials():
    # an even polynomial of degree below the diameter's node count is
    # reproduced everywhere on [0, 1], r = 0 included
    grid = HalfDiameterGrid(12)
    f = lambda r: 1.0 - 3.0 * r**2 + 0.5 * r**8
    interp = grid.even_interpolant(f(grid.r))
    r = np.linspace(0.0, 1.0, 41)
    assert np.max(np.abs(interp(r) - f(r))) < 1e-13
    assert np.array_equal(interp(grid.r), f(grid.r))


def test_half_diameter_laplacian_harmonics():
    # r^n cos(n phi) is harmonic: the mode-n radial operator annihilates r^n
    grid = HalfDiameterGrid(24)
    for n in (0, 1, 2, 5, 10):
        L = laplacian_mode(grid, n)
        res = L @ grid.r**n
        assert np.max(np.abs(res[1:])) < 1e-6 * max(1.0, np.max(np.abs(L)))


def test_half_diameter_poisson_mode0():
    # solve u'' + u'/r = -4 with u(1) = 0: u = 1 - r^2
    grid = HalfDiameterGrid(24)
    A = laplacian_mode(grid, 0).copy()
    rhs = -4.0 * np.ones(len(grid.r))
    A[0, :] = 0.0
    A[0, 0] = 1.0
    rhs[0] = 0.0
    u = np.linalg.solve(A, rhs)
    assert np.max(np.abs(u - (1.0 - grid.r**2))) < 1e-10
    d1 = grid.d1[0]
    assert abs((d1 @ u)[0] + 2.0) < 1e-9


def test_import_leaves_scipy_interpolate_unloaded():
    # only the reference route (even_interpolant) and table profiles
    # interpolate, so they import scipy.interpolate themselves
    src = os.path.dirname(os.path.dirname(tidaldisk.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, tidaldisk; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
