"""Radial boundary-value problems on [0, 1].

Two solvers live here:

* the nonlinear profile phi0 of the unperturbed stream function,
  (1/r)(r phi')' = G(phi), phi(1) = 0, regular at the origin, solved by
  shooting on the center value with a monotone bracketing search;

* the linear mode profiles A_n driven by the boundary perturbation,
  (1/r)(r A_n')' - n^2/r^2 A_n - G'(phi0) A_n = r^n G(phi0), A_n(1) = 0,
  solved by Chebyshev collocation in the substituted form A_n = r^n alpha_n,
  which removes the indicial behavior at the origin for every n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .chebyshev import unit_interval_grid
from .errors import TidaldiskError
from .kernel import VorticityProfile

# Chebyshev resolution of the mode solves.  Smooth profiles are resolved
# well below this; pushing it higher only grows roundoff in the dense
# differentiation matrices.
DEFAULT_NODES = 64


@dataclass
class RadialProfile:
    """Sampled radial function on [0, 1] with a cubic interpolant.

    ``deriv_at_1`` is the one-sided derivative at the boundary, extracted
    from the solver rather than the interpolant.  ``residual`` records the
    boundary-condition mismatch of the solve that produced the profile.
    """

    nodes: np.ndarray
    values: np.ndarray
    deriv_at_1: float
    residual: float = 0.0
    _dense: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, repr=False)

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.isclose(self.nodes[-1], 1.0):
            raise ValueError("grid must include the boundary point r = 1")
        self._spline = CubicSpline(self.nodes, self.values)

    def __call__(self, r):
        if self._dense is not None:
            return self._dense(r)
        return self._spline(r)

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


def solve_phi0(profile: VorticityProfile, n_nodes: int = DEFAULT_NODES + 1,
               bracket_scale: float = 10.0) -> RadialProfile:
    """Shoot on the center value so that the profile vanishes at r = 1.

    For non-decreasing G the shooting map c -> phi(1; c) is monotone, so a
    sign change bracket plus Brent iteration is reliable.
    """
    if not profile.monotone_certified and not profile.check_monotone(-10.0, 10.0):
        raise ValueError("vorticity profile must be non-decreasing")

    scale = bracket_scale * (1.0 + min(profile.sup_bound, 1e3))

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
    nodes = 0.5 * (1.0 - np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1)))
    dense_sol = sol.sol

    def dense(r):
        r = np.asarray(r, dtype=float)
        rr = np.clip(r, _R_CORE, 1.0)
        out = dense_sol(rr.ravel())[0].reshape(rr.shape)
        # below the series-start radius use the quadratic core expansion
        core = c_star + 0.25 * float(profile.eval(c_star)) * r * r
        return np.where(r < _R_CORE, core, out)

    values = dense(nodes)
    values[-1] = 0.0  # Dirichlet value, exact by construction
    deriv_at_1 = float(sol.y[1][-1])
    residual = abs(float(sol.y[0][-1]))
    return RadialProfile(nodes=nodes, values=values, deriv_at_1=deriv_at_1,
                         residual=residual, _dense=dense)


# --------------------------------------------------------------------------
# linear modes by collocation
# --------------------------------------------------------------------------

def _mode_grid(base, n_nodes: int):
    """Chebyshev grid (r, D, D2) and the tables G(phi0), G'(phi0) on it,
    shared by every mode of one table."""
    r, D, D2 = unit_interval_grid(n_nodes + 1)
    phi = base.phi0(r)
    g0 = np.asarray(base.profile.eval(phi), dtype=float)
    g1 = np.asarray(base.profile.d1(phi), dtype=float)
    return r, D, D2, g0, g1


def _solve_mode(n: int, grid):
    """alpha = A_n / r^n on the grid and A_n'(1) = alpha'(1), from
    alpha'' + ((2n+1)/r) alpha' - G1 alpha = G0, alpha(1) = 0,
    alpha'(0) = 0."""
    r, D, D2, g0, g1 = grid
    coef = np.where(r > 0, (2 * n + 1) / np.where(r > 0, r, 1.0), 0.0)
    A = D2 + coef[:, None] * D - np.diag(g1)
    rhs = g0.copy()
    i1 = int(np.argmax(r))          # r = 1
    i0 = int(np.argmin(r))          # r = 0
    A[i1, :] = 0.0
    A[i1, i1] = 1.0
    rhs[i1] = 0.0
    A[i0, :] = D[i0, :]             # regularity: alpha'(0) = 0
    rhs[i0] = 0.0
    alpha = np.linalg.solve(A, rhs)
    return alpha, float(D[i1] @ alpha)


def mode_derivatives(base, N: int, n_nodes: int = DEFAULT_NODES) -> np.ndarray:
    """A_n'(1) for n = 0..N, all on one grid with one set of G tables.

    Equal bit for bit to ``solve_An(n, base, n_nodes)[1]``; no profile is
    built.
    """
    grid = _mode_grid(base, n_nodes)
    return np.array([_solve_mode(n, grid)[1] for n in range(N + 1)])


def solve_An(n: int, base, n_nodes: int = DEFAULT_NODES):
    """Mode profile A_n and its boundary derivative A_n'(1).

    Returns (RadialProfile, deriv_at_1).  Only n >= 0 is computed; negative
    modes coincide with their mirror by symmetry of the equation in n.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    grid = _mode_grid(base, n_nodes)
    alpha, d1 = _solve_mode(n, grid)
    r = grid[0]
    order = np.argsort(r)
    prof = RadialProfile(nodes=r[order], values=(r ** n * alpha)[order],
                         deriv_at_1=d1)
    return prof, d1
