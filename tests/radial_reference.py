"""Dense per-mode operators of the half-diameter grid and the field
equation's collocation residual: the references that the tests hold the
package's mode solvers and stream functions against."""

import numpy as np

from tidaldisk.residual import _parity_fold
from tidaldisk.spectral import conformal_factor_grid


def laplacian_mode(grid, n: int) -> np.ndarray:
    """Radial part of the Laplacian for angular wavenumber n on ``grid``:
    d_rr + (1/r) d_r - n^2/r^2, folded for the parity of n."""
    return grid.basis[n % 2] - np.diag(n * n / grid.r**2)


def field_equation_residual(fieldv, h, profile) -> float:
    """Sup norm of Delta u - |f'|^2 G(u) at the interior collocation nodes
    of a residual.DiskField."""
    r = fieldv.grid.r
    M = fieldv.values.shape[1]
    w = conformal_factor_grid(h, len(r), M)
    vh = np.fft.rfft(fieldv.values, axis=1)
    n = np.arange(vh.shape[1])
    lap_hat = _parity_fold(fieldv.grid.basis, vh)
    lap_hat -= (n * n)[None, :] / (r * r)[:, None] * vh
    lap = np.fft.irfft(lap_hat, n=M, axis=1)
    res = lap - w * np.asarray(profile.eval(fieldv.values), dtype=float)
    return float(np.max(np.abs(res[1:, :])))
