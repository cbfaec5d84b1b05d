"""Radial boundary-value problems on [0, 1].

Two solvers live here:

* the nonlinear profile phi0 of the unperturbed stream function,
  (1/r)(r phi')' = G(phi), phi(1) = 0, regular at the origin, solved by
  shooting on the center value with a monotone bracketing search, or in
  closed form, (G0/4)(r^2 - 1), where G is the constant G0 on its range;

* the linear mode profiles A_n driven by the boundary perturbation,
  (1/r)(r A_n')' - n^2/r^2 A_n - G'(phi0) A_n = r^n G(phi0), A_n(1) = 0,
  solved in the substituted form A_n = r^n alpha_n, which removes the
  indicial behavior at the origin for every n.  alpha_n is even, so it is
  collocated on the even block of the half-diameter grid (no node at r = 0).
  The mode table takes every n from one real Schur form; solve_An solves
  one mode directly and is the reference the table is tested against.
  Where G is the constant G0 on phi0's range, A_n'(1) = G0 / (2(n+1)) in
  closed form.

Whether G is constant is decided once per base: solve_phi0 decides it when
it takes phi0 in closed form, and BaseState.constant_g reads that back for
the mode table (mode_derivatives) and the first-order field.  mode_profiles
and solve_An always collocate.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import schur
from scipy.optimize import brentq

from .chebyshev import DEFAULT_RADIAL, _radial_basis
from .errors import TidaldiskError
from .kernel import VorticityProfile, constant_value


@dataclass
class RadialProfile:
    """Sampled radial function on [0, 1] with the evaluator of its solver.

    ``deriv_at_1`` is the derivative at the boundary, extracted from the
    solver.  ``residual`` records the boundary-condition mismatch of the
    solve that produced the profile, and ``solver`` names it: "shooting"
    or "closed_form" for phi0, "collocation" for a mode.
    """

    nodes: np.ndarray
    values: np.ndarray
    deriv_at_1: float
    evaluate: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    residual: float = 0.0
    solver: str = "collocation"
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
        in the grid's order, with the Dirichlet value phi(1) = 0 exact at
        r[0] = 1.  Cached per n_radial, so read-only."""
        out = self._samples.get(n_radial)
        if out is None:
            out = self(_radial_basis(n_radial).r)
            out[0] = 0.0
            out.setflags(write=False)
            self._samples[n_radial] = out
        return out

    def to_csv_rows(self):
        return zip(self.nodes, self.values)


# --------------------------------------------------------------------------
# unperturbed profile by shooting, or in closed form for constant G
# --------------------------------------------------------------------------

_R_CORE = 1e-6  # series start radius; below this the ODE is singular
# solve_phi0's shooting range in units of 1 + |G(0)|, and the largest
# boundary mismatch of the shot relative to max|phi0|
_BRACKET_SCALE = 10.0
_MISMATCH_BOUND = 1e-8


def _integrate_from_center(c: float, profile: VorticityProfile,
                           dense=False):
    """Integrate the radial ODE outward from phi(0) = c.

    Near r = 0 the regular solution behaves like c + G(c) r^2 / 4, which is
    used to step off the coordinate singularity.
    """
    def rhs(r, y):
        return [y[1], float(profile.eval(y[0])) - y[1] / r]

    # a steep or huge G overflows: a non-finite start is refused here, and
    # a later overflow fails the integration or leaves a non-finite base
    # state, which make_base_state refuses
    with np.errstate(over="ignore", invalid="ignore"):
        g_c = float(profile.eval(c))
        r0 = _R_CORE
        y0 = [c + 0.25 * g_c * r0 * r0, 0.5 * g_c * r0]
        if not np.all(np.isfinite(y0)):
            raise TidaldiskError(f"radial integration overflows at its "
                                 f"start phi(0) = {c:g}")
        sol = solve_ivp(rhs, (r0, 1.0), y0, method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=dense)
    if not sol.success:
        raise TidaldiskError(f"radial integration failed: {sol.message}")
    return sol


def _phi0_on_grid(evaluate, deriv_at_1: float, residual: float,
                  solver: str) -> RadialProfile:
    """phi0 sampled at r = 0 and at the radii of the DEFAULT_RADIAL grid,
    ascending, with phi0(1) = 0 exact; the samples are also its
    grid_values on that grid.  A boundary mismatch (residual) above
    _MISMATCH_BOUND of max|phi0| is a TidaldiskError."""
    radii = _radial_basis(DEFAULT_RADIAL).r  # descending, radii[0] = 1
    nodes = np.concatenate([[0.0], radii[::-1]])
    values = evaluate(nodes)
    peak = float(np.max(np.abs(values)))
    if not residual <= _MISMATCH_BOUND * peak:
        raise TidaldiskError(f"the shot phi0 misses phi0(1) = 0 by "
                             f"{residual:.3e}, more than {_MISMATCH_BOUND:g} "
                             f"of max|phi0| = {peak:.3e}")
    values[-1] = 0.0  # Dirichlet value, exact by construction
    values.setflags(write=False)  # shared with grid_values
    prof = RadialProfile(nodes=nodes, values=values, deriv_at_1=deriv_at_1,
                         evaluate=evaluate, residual=residual, solver=solver)
    prof._samples[DEFAULT_RADIAL] = values[:0:-1]
    return prof


def solve_phi0(profile: VorticityProfile) -> RadialProfile:
    """phi0, vanishing at r = 1: by shooting on the center value, or in
    closed form where G is constant on phi0's range.

    The maximum principle places phi0 between 0 and -G(0)/4: G(phi0) - G(0)
    has the sign of phi0, so phi0 is compared with 0 and with
    G(0)(r^2 - 1)/4.  Every profile is spot-checked on 1000 points of that
    interval: G and G' must be finite there (else TidaldiskError), and
    neither the steps of G nor G' may fall below -1e-12 of max|G| or
    max|G'| (else ValueError).  Where G is G(0) on all of it
    (kernel.constant_value with radius 1, the rule residual_F's flux
    follows: the rigid preset and tables flat there), phi0 is exactly
    (G(0)/4)(r^2 - 1), with phi0'(1) = G(0)/2 and residual 0; its solver
    "closed_form" is the base's constant-G decision, which
    BaseState.constant_g reads back.

    Otherwise the shooting map c -> phi(1; c) is monotone for
    non-decreasing G, so a sign change bracket plus Brent iteration is
    reliable.  The scan covers +-_BRACKET_SCALE (1 + |G(0)|); a bracket that Brent's
    method does not close within its iteration cap is a TidaldiskError.
    The shot must meet phi(1) = 0 to within _MISMATCH_BOUND = 1e-8 of
    max|phi0|, or TidaldiskError: on G = s u - 2 that ratio is phi0'(1)'s
    relative error, 3e-16 at s = 1, 7e-9 at s = 300 and 6e-3 at s = 1000.
    The profile is sampled at r = 0 and at the radii of the half-diameter
    grid of DEFAULT_RADIAL nodes, ascending, with phi0(1) = 0 exact; those
    samples are also its ``grid_values`` on that grid.
    """
    g_0 = float(profile.eval(0.0))
    scale = _BRACKET_SCALE * (1.0 + abs(g_0))
    if not np.isfinite(scale):
        raise TidaldiskError(f"shooting range +-{scale:g} for phi0(0) "
                             "overflows")
    u = np.linspace(min(0.0, -0.25 * g_0), max(0.0, -0.25 * g_0), 1000)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        g, g1 = np.asarray(profile.eval(u), dtype=float), profile.d1(u)
        if not np.all(np.isfinite(g) & np.isfinite(g1)):
            raise TidaldiskError(f"G overflows on [{u[0]:g}, {u[-1]:g}]")
        if not (np.all(np.diff(g) >= -1e-12 * np.max(np.abs(g), initial=1.0))
                and np.all(g1 >= -1e-12 * np.max(np.abs(g1), initial=1.0))):
            raise ValueError("vorticity profile must be non-decreasing")

    if constant_value(profile) is not None:
        def exact(r):
            r = np.asarray(r, dtype=float)
            return 0.25 * g_0 * (r * r - 1.0)
        return _phi0_on_grid(exact, 0.5 * g_0, 0.0, "closed_form")

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
    try:
        c_star = brentq(shoot, cs[idx], cs[idx + 1], xtol=1e-14,
                        rtol=8.9e-16)
    except RuntimeError as exc:  # Brent's iteration cap
        raise TidaldiskError(f"no phi0(0) found in [{cs[idx]:g}, "
                             f"{cs[idx + 1]:g}]: {exc}") from exc

    sol = _integrate_from_center(c_star, profile, dense=True)
    dense_sol = sol.sol

    def dense(r):
        r = np.asarray(r, dtype=float)
        rr = np.clip(r, _R_CORE, 1.0)
        out = dense_sol(rr.ravel())[0].reshape(rr.shape)
        # below the series-start radius use the quadratic core expansion
        core = c_star + 0.25 * float(profile.eval(c_star)) * r * r
        return np.where(r < _R_CORE, core, out)

    return _phi0_on_grid(dense, float(sol.y[1][-1]),
                         abs(float(sol.y[0][-1])), "shooting")


# --------------------------------------------------------------------------
# linear modes by collocation
# --------------------------------------------------------------------------

def _mode_grid(base, n_nodes: int):
    """(grid, L, g0), shared by every mode of one table: on the interior
    nodes (dropping r = 1 imposes alpha(1) = 0) of the even block,
    L = d_rr + (1/r) d_r - G'(phi0) and g0 = G(phi0); C, C^-1 and the
    r = 1 row come from the grid."""
    grid = _radial_basis(n_nodes)
    phi = base.phi0.grid_values(n_nodes)
    g0 = np.asarray(base.profile.eval(phi), dtype=float)
    g1 = np.asarray(base.profile.d1(phi), dtype=float)
    L = grid.basis[0][1:, 1:] - np.diag(g1[1:])
    return grid, L, g0[1:]


def _solve_mode(n: int, mode_grid):
    """alpha = A_n / r^n at the interior nodes and A_n'(1) = alpha'(1), from
    alpha'' + ((2n+1)/r) alpha' - G1 alpha = G0, alpha(1) = 0, i.e.
    (L + 2n C) alpha = g0, by one LU solve."""
    grid, L, g0 = mode_grid
    alpha = np.linalg.solve(L + 2 * n * grid.C, g0)
    return alpha, float(grid.rows[0][0, 1:] @ alpha)  # r = 1 row of d_r


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


@functools.lru_cache(maxsize=1)
def mode_profiles(base, N: int, n_nodes: int = DEFAULT_RADIAL) -> np.ndarray:
    """alpha_n = A_n / r^n, n = 0..N, at the interior nodes of the even
    block (alpha_n(1) = 0 is dropped): one read-only (n_nodes - 1) x (N + 1)
    array, all on one grid with one set of G tables.

    The systems (L + 2n C) alpha_n = g0 differ only by the shift 2n, so
    they share one real Schur form C^-1 L = Q T Q^T: alpha_n =
    Q (T + 2n I)^-1 Q^T C^-1 g0, one back-substitution sweep over all n
    (Laub, IEEE TAC 26 (1981) 407).  C^-1 is kept on the grid
    (HalfDiameterGrid.C_inv), so every C^-1 product is one matrix product:
    C^-1 L for the Schur form, and Q^T C^-1, formed once per table, on g0
    and on the residual.  Forming C^-1 L costs accuracy in cond(C) (about
    3e3 at 64 radii), so one step of iterative refinement against L and C
    follows.  The last result is cached per base object (BaseState hashes
    by identity), so a table and residual.first_order_field on its grid
    share one Schur form; callers pass the arguments positionally, one key.
    """
    grid, L, g0 = _mode_grid(base, n_nodes)
    T, Q = schur(grid.C_inv @ L, overwrite_a=True)
    s = 2.0 * np.arange(N + 1)
    P = Q.T @ grid.C_inv  # Q^T C^-1, on g0 and on the residual

    def sweep(V):  # Q (T + s_j I)^-1 V[:, j] for every j; overwrites V
        return Q @ _shifted_back_substitution(T, s, V)

    alpha = sweep(np.repeat((P @ g0)[:, None], N + 1, axis=1))
    R = grid.C @ alpha  # the residual g0 - L alpha - 2n C alpha, in place
    R *= -s
    R -= L @ alpha
    R += g0[:, None]
    alpha += sweep(P @ R)
    alpha.setflags(write=False)
    return alpha


def mode_derivatives(base, N: int, n_nodes: int = DEFAULT_RADIAL) -> np.ndarray:
    """A_n'(1) = alpha_n'(1), n = 0..N.

    Where G is the constant G0 on phi0's range (base.constant_g), G' = 0
    and A_n = G0 (r^{n+2} - r^n) / (4(n+1)) exactly, so A_n'(1) =
    G0 / (2(n+1)), on no grid.  Otherwise it is the r = 1 row of d_r times
    mode_profiles.  Per-mode solves refined with long-double residuals match
    it to 2e-14 relative up to 128 radii (n <= 256); ``solve_An``'s single
    LU solve reads up to 1.3e-13 there.  No profile is built."""
    g0 = base.constant_g
    if g0 is not None:
        return g0 / (2.0 * np.arange(1, N + 2))
    row = _radial_basis(n_nodes).rows[0][0, 1:]  # alpha(1) = 0: no column 0
    return row @ mode_profiles(base, N, n_nodes)


def solve_An(n: int, base, n_nodes: int = DEFAULT_RADIAL):
    """Mode profile A_n and its boundary derivative A_n'(1).

    Returns (RadialProfile, deriv_at_1).  The profile evaluates r^n times
    the Chebyshev interpolant of the even extension of alpha over the
    diameter.  Only n >= 0 is computed; negative modes coincide with their
    mirror by symmetry of the equation in n.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    mode_grid = _mode_grid(base, n_nodes)
    alpha, d1 = _solve_mode(n, mode_grid)
    alpha = np.concatenate([[0.0], alpha])  # alpha(1) = 0
    r, even = mode_grid[0].r, mode_grid[0].even_interpolant(alpha)
    prof = RadialProfile(nodes=r[::-1], values=(r**n * alpha)[::-1],
                         deriv_at_1=d1,
                         evaluate=lambda x: np.power(x, n) * even(x))
    return prof, d1
