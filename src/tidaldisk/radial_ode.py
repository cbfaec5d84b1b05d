"""Radial boundary-value problems on [0, 1].

Two solvers live here:

* the nonlinear profile phi0 of the unperturbed stream function,
  (1/r)(r phi')' = G(phi), phi(1) = 0, regular at the origin, solved by
  shooting on the center value with a monotone bracketing search;

* the linear mode profiles A_n driven by the boundary perturbation,
  (1/r)(r A_n')' - n^2/r^2 A_n - G'(phi0) A_n = r^n G(phi0), A_n(1) = 0,
  solved in the substituted form A_n = r^n alpha_n, which removes the
  indicial behavior at the origin for every n.  alpha_n is even, so it is
  collocated on the even block of the half-diameter grid (no node at r = 0).
  The mode table takes every n from one real Schur form; solve_An solves
  one mode directly and is the reference the table is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import lu_factor, lu_solve, schur
from scipy.optimize import brentq

from .chebyshev import DEFAULT_RADIAL, _radial_basis
from .errors import TidaldiskError
from .kernel import VorticityProfile


@dataclass
class RadialProfile:
    """Sampled radial function on [0, 1] with the evaluator of its solver.

    ``deriv_at_1`` is the derivative at the boundary, extracted from the
    solver.  ``residual`` records the boundary-condition mismatch of the
    solve that produced the profile.
    """

    nodes: np.ndarray
    values: np.ndarray
    deriv_at_1: float
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    residual: float = 0.0
    _samples: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.isclose(self.nodes[-1], 1.0):
            raise ValueError("grid must include the boundary point r = 1")

    def __call__(self, r):
        return self.evaluate(r)

    def grid_values(self, n_radial: int) -> np.ndarray:
        """phi(r) at the radii of the half-diameter grid of n_radial nodes,
        in the grid's order (r[0] = 1).  Cached per n_radial, so
        read-only."""
        out = self._samples.get(n_radial)
        if out is None:
            out = self(_radial_basis(n_radial)[0].r)
            out.setflags(write=False)
            self._samples[n_radial] = out
        return out

    def dirichlet_field(self, n_radial: int) -> np.ndarray:
        """phi(r) - phi(1) at the radii of the half-diameter grid of
        n_radial nodes, zero at r = 1 exactly: the grid's r[0] is 1."""
        phi = self.grid_values(n_radial)
        return phi - phi[0]

    @property
    def value_at_1(self) -> float:
        return float(self.values[-1])

    def to_csv_rows(self):
        return zip(self.nodes, self.values)


# --------------------------------------------------------------------------
# unperturbed profile by shooting
# --------------------------------------------------------------------------

_R_CORE = 1e-6  # series start radius; below this the ODE is singular


def _integrate_from_center(c: float, profile: VorticityProfile,
                           rtol=1e-12, atol=1e-14, dense=False):
    """Integrate the radial ODE outward from phi(0) = c.

    Near r = 0 the regular solution behaves like c + G(c) r^2 / 4, which is
    used to step off the coordinate singularity.
    """
    g_c = float(profile.eval(c))
    r0 = _R_CORE
    y0 = [c + 0.25 * g_c * r0 * r0, 0.5 * g_c * r0]

    def rhs(r, y):
        return [y[1], float(profile.eval(y[0])) - y[1] / r]

    sol = solve_ivp(rhs, (r0, 1.0), y0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=dense)
    if not sol.success:
        raise TidaldiskError(f"radial integration failed: {sol.message}")
    return sol


def solve_phi0(profile: VorticityProfile, n_radial: int = DEFAULT_RADIAL,
               bracket_scale: float = 10.0) -> RadialProfile:
    """Shoot on the center value so that the profile vanishes at r = 1.

    For non-decreasing G the shooting map c -> phi(1; c) is monotone, so a
    sign change bracket plus Brent iteration is reliable.  The maximum
    principle places phi0(0) between 0 and -G(0)/4: G(phi0) - G(0) has the
    sign of phi0, so phi0 is compared with 0 and with G(0)(r^2 - 1)/4.  The
    scan therefore covers +-bracket_scale (1 + |G(0)|).  The profile is
    sampled at r = 0 and at the radii of the half-diameter grid of
    n_radial nodes, ascending; those samples are also its ``grid_values``,
    so neither the mode table nor the stream-function solver evaluates the
    dense output again on that grid.
    """
    if not profile.monotone_certified and not profile.check_monotone(-10.0, 10.0):
        raise ValueError("vorticity profile must be non-decreasing")

    scale = bracket_scale * (1.0 + abs(float(profile.eval(0.0))))

    def shoot(c):
        return float(_integrate_from_center(c, profile).y[0][-1])

    # scan for a sign change; the map is increasing in c
    cs = np.linspace(-scale, scale, 33)
    vals = [shoot(c) for c in cs]
    idx = None
    for i in range(len(cs) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0:
            idx = i
            break
    if vals[-1] == 0.0:
        idx = len(cs) - 2
    if idx is None:
        raise TidaldiskError(
            f"no shooting bracket for phi0(0) in [{-scale:g}, {scale:g}]; "
            "the profile may be incompatible with a bounded solution"
        )
    c_star = brentq(shoot, cs[idx], cs[idx + 1], xtol=1e-14, rtol=8.9e-16)

    sol = _integrate_from_center(c_star, profile, dense=True)
    radii = _radial_basis(n_radial)[0].r  # descending, radii[0] = 1
    nodes = np.concatenate([[0.0], radii[::-1]])
    dense_sol = sol.sol

    def dense(r):
        r = np.asarray(r, dtype=float)
        rr = np.clip(r, _R_CORE, 1.0)
        out = dense_sol(rr.ravel())[0].reshape(rr.shape)
        # below the series-start radius use the quadratic core expansion
        core = c_star + 0.25 * float(profile.eval(c_star)) * r * r
        return np.where(r < _R_CORE, core, out)

    values = dense(nodes)
    on_grid = values[:0:-1].copy()  # phi0(r), before phi0(1) is imposed
    on_grid.setflags(write=False)
    values[-1] = 0.0  # Dirichlet value, exact by construction
    deriv_at_1 = float(sol.y[1][-1])
    residual = abs(float(sol.y[0][-1]))
    prof = RadialProfile(nodes=nodes, values=values, deriv_at_1=deriv_at_1,
                         evaluate=dense, residual=residual)
    prof._samples[n_radial] = on_grid
    return prof


# --------------------------------------------------------------------------
# linear modes by collocation
# --------------------------------------------------------------------------

def _mode_grid(base, n_nodes: int):
    """(grid, L, C, row, g0), shared by every mode of one table: on the
    interior nodes (dropping r = 1 imposes alpha(1) = 0) of the even block,
    L = d_rr + (1/r) d_r - G'(phi0), C = (1/r) d_r and g0 = G(phi0); row is
    the r = 1 row of d_r."""
    grid, basis = _radial_basis(n_nodes)
    r = grid.r
    phi = base.phi0.grid_values(n_nodes)
    g0 = np.asarray(base.profile.eval(phi), dtype=float)
    g1 = np.asarray(base.profile.d1(phi), dtype=float)
    d1 = grid.d1(0)
    L = basis[0][1:, 1:] - np.diag(g1[1:])
    C = d1[1:, 1:] / r[1:, None]
    return grid, L, C, d1[0, 1:], g0[1:]


def _solve_mode(n: int, grid):
    """alpha = A_n / r^n at the interior nodes and A_n'(1) = alpha'(1), from
    alpha'' + ((2n+1)/r) alpha' - G1 alpha = G0, alpha(1) = 0, i.e.
    (L + 2n C) alpha = g0, by one LU solve."""
    _, L, C, row, g0 = grid
    alpha = np.linalg.solve(L + 2 * n * C, g0)
    return alpha, float(row @ alpha)


def _shifted_back_substitution(T: np.ndarray, s: np.ndarray,
                               B: np.ndarray) -> np.ndarray:
    """Solve (T + s_j I) y_j = B[:, j] for every column j, in place.

    T is quasi-upper triangular (real Schur form): its 1x1 diagonal blocks
    are real eigenvalues and its 2x2 blocks complex pairs.  One sweep up
    the rows of T serves every shift at once.  A standardized 2x2 block
    [[a, b], [c, a]] has bc < 0, so its determinant (a + s)^2 - bc is a sum
    of positive terms and Cramer's rule loses nothing to cancellation.
    """
    k = T.shape[0]
    i = k - 1
    while i >= 0:
        j = i - 1 if i > 0 and T[i, i - 1] != 0.0 else i  # block rows j..i
        rows = B[j:i + 1]
        rows -= T[j:i + 1, i + 1:] @ B[i + 1:]
        if j == i:
            rows /= T[i, i] + s
        else:
            a, d = T[j, j] + s, T[i, i] + s
            b, c = T[j, i], T[i, j]
            det = a * d - b * c
            top = rows[0].copy()
            rows[0] = (d * top - b * rows[1]) / det
            rows[1] = (a * rows[1] - c * top) / det
        i = j - 1
    return B


def mode_derivatives(base, N: int, n_nodes: int = DEFAULT_RADIAL) -> np.ndarray:
    """A_n'(1) for n = 0..N, all on one grid with one set of G tables.

    The systems (L + 2n C) alpha_n = g0 differ only by the shift 2n, so
    they share one real Schur form C^-1 L = Q T Q^T: alpha_n =
    Q (T + 2n I)^-1 Q^T C^-1 g0, one back-substitution sweep over all n
    (Laub, IEEE TAC 26 (1981) 407).  Forming C^-1 L costs accuracy in
    cond(C) (about 3e3 at 64 radii), so one step of iterative refinement
    against L and C follows, through the same factors.  Per-mode solves
    refined with long-double residuals match the result to 2e-14 relative
    up to 128 radii (n <= 256); ``solve_An``'s single LU solve reads up to
    1.3e-13 there.  No profile is built.
    """
    _, L, C, row, g0 = _mode_grid(base, n_nodes)
    lu = lu_factor(C)
    T, Q = schur(lu_solve(lu, L))
    s = 2.0 * np.arange(N + 1)

    def sweep(V):  # Q (T + s_j I)^-1 V[:, j] for every j; overwrites V
        return Q @ _shifted_back_substitution(T, s, V)

    v = Q.T @ lu_solve(lu, g0)  # Q^T C^-1 g0, the same for every n
    alpha = sweep(np.repeat(v[:, None], N + 1, axis=1))
    R = C @ alpha  # the residual g0 - L alpha - 2n C alpha, built in place
    R *= -s
    R -= L @ alpha
    R += g0[:, None]
    alpha += sweep(Q.T @ lu_solve(lu, R, overwrite_b=True))
    return row @ alpha


def solve_An(n: int, base, n_nodes: int = DEFAULT_RADIAL):
    """Mode profile A_n and its boundary derivative A_n'(1).

    Returns (RadialProfile, deriv_at_1).  The profile evaluates r^n times
    the Chebyshev interpolant of the even extension of alpha over the
    diameter.  Only n >= 0 is computed; negative modes coincide with their
    mirror by symmetry of the equation in n.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    grid = _mode_grid(base, n_nodes)
    alpha, d1 = _solve_mode(n, grid)
    alpha = np.concatenate([[0.0], alpha])  # alpha(1) = 0
    r, even = grid[0].r, grid[0].even_interpolant(alpha)
    prof = RadialProfile(nodes=r[::-1], values=(r**n * alpha)[::-1],
                         deriv_at_1=d1,
                         evaluate=lambda x: np.power(x, n) * even(x))
    return prof, d1
