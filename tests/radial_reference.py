"""Dense per-mode operators of the half-diameter grid: the reference that
the tests hold the package's mode solvers against."""

import numpy as np


def laplacian_mode(grid, n: int) -> np.ndarray:
    """Radial part of the Laplacian for angular wavenumber n on ``grid``:
    d_rr + (1/r) d_r - n^2/r^2, folded for the parity of n."""
    return grid.basis[n % 2] - np.diag(n * n / grid.r**2)
