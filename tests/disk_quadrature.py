"""Tensor quadrature on the unit disk: the reference that the tests hold
the package's closed forms and boundary-integral forms against."""

import numpy as np
from numpy.polynomial.legendre import leggauss

from tidaldisk.spectral import boundary_grid, eval_h_at


def disk_rule(n_r: int, n_phi: int):
    """Gauss-Legendre (radial) x uniform (angular) rule on the unit disk.

    Returns the nodes r_i exp(i phi_j), shape (n_r, n_phi), and the weights,
    shape (n_r, 1), which include the area element r dr dphi.
    """
    xg, wg = leggauss(n_r)
    r = 0.5 * (xg + 1.0)
    z = r[:, None] * np.exp(1j * boundary_grid(n_phi))[None, :]
    wt = (r * 0.5 * wg)[:, None] * (2.0 * np.pi / n_phi)
    return z, wt


def area_quadrature(h, n_r: int = 128, n_phi: int = 256) -> float:
    """Area of f(D) as the disk rule's sum of |f'|^2."""
    z, wt = disk_rule(n_r, n_phi)
    _, dh = eval_h_at(h, z)
    return float(np.sum(np.abs(1.0 + dh) ** 2 * wt))
