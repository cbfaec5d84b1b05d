"""Chebyshev collocation utilities.

Differentiation matrices on Chebyshev-Lobatto points, and the package's
one radial grid: the folded ("half diameter") grid on (0, 1], where parity
in r couples the two halves of the diameter (Trefethen, Spectral Methods in
MATLAB, ch. 11).  The stream-function and mode solvers share _radial_basis.
"""

from __future__ import annotations

import functools

import numpy as np

DEFAULT_RADIAL = 64  # half-diameter nodes; 2x this on the full diameter


def lobatto_points(n: int) -> np.ndarray:
    """Chebyshev-Lobatto points on [-1, 1], ordered from +1 down to -1."""
    if n < 2:
        raise ValueError("need at least 2 points")
    return np.cos(np.pi * np.arange(n) / (n - 1))


def diff_matrix(x: np.ndarray) -> np.ndarray:
    """Spectral differentiation matrix for the Lobatto grid ``x``.

    Standard barycentric construction with the negative-sum trick for the
    diagonal, which keeps the row sums exactly zero.
    """
    n = len(x)
    c = np.ones(n)
    c[0] = 2.0
    c[-1] = 2.0
    c *= (-1.0) ** np.arange(n)
    X = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (X + np.eye(n))
    D -= np.diag(D.sum(axis=1))
    return D


class HalfDiameterGrid:
    """Radial discretization of the disk avoiding the coordinate singularity.

    Lobatto points are placed on the full diameter [-1, 1] with an even
    number of nodes (so r = 0 is not a node) and only the positive half is
    kept.  Radial derivatives of a Fourier mode of parity (-1)^n are
    evaluated by folding the mirrored columns back onto the kept half.
    """

    def __init__(self, n_half: int):
        if n_half < 4:
            raise ValueError("need at least 4 radial nodes")
        n_total = 2 * n_half  # even -> no node at r = 0
        x = lobatto_points(n_total)
        D = diff_matrix(x)
        D2 = D @ D
        self.n_half = n_half
        self.r = x[:n_half]  # descending, r[0] = 1
        mirror = n_total - 1 - np.arange(n_half)
        self._D_pos = D[:n_half, :n_half]
        self._D_neg = D[:n_half, mirror]
        self._D2_pos = D2[:n_half, :n_half]
        self._D2_neg = D2[:n_half, mirror]

    def d1(self, parity: int) -> np.ndarray:
        """First-derivative matrix acting on samples at the positive nodes,
        for angular modes with u(-r) = parity-sign * u(r)."""
        sgn = 1.0 if parity % 2 == 0 else -1.0
        return self._D_pos + sgn * self._D_neg

    def d2(self, parity: int) -> np.ndarray:
        sgn = 1.0 if parity % 2 == 0 else -1.0
        return self._D2_pos + sgn * self._D2_neg

    def laplacian_mode(self, n: int) -> np.ndarray:
        """Radial part of the Laplacian for angular wavenumber n:
        d_rr + (1/r) d_r - n^2/r^2, folded for the parity of n."""
        L = self.d2(n) + np.diag(1.0 / self.r) @ self.d1(n)
        L -= np.diag(n * n / self.r**2)
        return L

    def even_interpolant(self, values: np.ndarray):
        """Chebyshev interpolant of the even extension over the diameter of
        ``values`` at the nodes r, a scipy BarycentricInterpolator.  With wi
        given, scipy does not permute the nodes at random, which moves
        results by an ulp between runs.  Only the reference route uses it,
        so scipy.interpolate is imported here."""
        from scipy.interpolate import BarycentricInterpolator
        wi = (-1.0) ** np.arange(2 * self.n_half)
        wi[[0, -1]] *= 0.5
        return BarycentricInterpolator(lobatto_points(2 * self.n_half),
                                       np.concatenate([values, values[::-1]]),
                                       wi=wi)


@functools.lru_cache(maxsize=4)
def _radial_basis(n_radial: int):
    """The half-diameter grid and, for parity p = 0, 1, the matrix
    d_rr + (1/r) d_r of the modes n = p (mod 2), before the -n^2/r^2 term.

    Shared between calls, so the arrays are read-only.
    """
    grid = HalfDiameterGrid(n_radial)
    inv_r = np.diag(1.0 / grid.r)
    basis = tuple(grid.d2(p) + inv_r @ grid.d1(p) for p in (0, 1))
    for arr in (grid.r, *basis):
        arr.setflags(write=False)
    return grid, basis
