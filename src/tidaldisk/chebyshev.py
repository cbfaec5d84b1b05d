"""Chebyshev collocation utilities.

Differentiation matrices on Chebyshev-Lobatto points, and the package's
one radial grid: the folded ("half diameter") grid on (0, 1], where parity
in r couples the two halves of the diameter (Trefethen, Spectral Methods in
MATLAB, ch. 11).  The stream-function and mode solvers share its operators,
built once per grid by HalfDiameterGrid and cached by _radial_basis.
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

    Everything that depends on the grid alone is built here, once, and is
    read-only; each tuple is indexed by the parity p = n % 2:

    * ``r``: the radii, descending, r[0] = 1;
    * ``d1``: the folded d_r;
    * ``basis``: d_rr + (1/r) d_r, the mode-n operator before -n^2/r^2;
    * ``rows``: the r = 1 rows of ``d1``, as (1, n_half) arrays;
    * ``C`` and ``C_inv``: C = (1/r) d_r of the even block on the interior
      nodes (r < 1), the mode table's first-order term, and its inverse.
    """

    def __init__(self, n_half: int):
        if n_half < 4:
            raise ValueError("need at least 4 radial nodes")
        n_total = 2 * n_half  # even -> no node at r = 0
        x = lobatto_points(n_total)
        D = diff_matrix(x)
        D2 = D @ D
        self.n_half = n_half
        self.r = r = x[:n_half]  # descending, r[0] = 1
        half, mirror = slice(n_half), n_total - 1 - np.arange(n_half)
        signs = (1.0, -1.0)  # u(-r) = u(r) for parity 0, -u(r) for 1
        self.d1 = tuple(D[half, half] + s * D[half, mirror] for s in signs)
        inv_r = (1.0 / r)[:, None]
        self.basis = tuple(D2[half, half] + s * D2[half, mirror] + inv_r * d1
                           for s, d1 in zip(signs, self.d1))
        self.rows = tuple(d1[:1] for d1 in self.d1)
        self.C = self.d1[0][1:, 1:] / r[1:, None]
        self.C_inv = np.linalg.inv(self.C)
        for arr in (r, *self.d1, *self.basis, *self.rows, self.C,
                    self.C_inv):
            arr.setflags(write=False)

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
def _radial_basis(n_radial: int) -> HalfDiameterGrid:
    """The half-diameter grid of n_radial nodes with all its operators:
    the package's one cache of them, one entry per grid, shared between
    calls (so every array is read-only)."""
    return HalfDiameterGrid(n_radial)
