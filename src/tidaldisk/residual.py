"""Full nonlinear residual of the reduced free-boundary system and the
frozen-derivative quasi-Newton continuation in the mass parameter.

State is the triple (h, a, lambda): boundary shape coefficients, particle
distance, Bernoulli constant.  The residual has three components:

1. boundary (Bernoulli) equation on the unit circle,
   (1/2)|grad phi_h|^2 / |f'|^2 - (Omega0^2/2)|f|^2 + U_h o f + m U_X o f - lambda,
2. particle force balance, Omega0^2 a - d/dx1 U_h(a, 0),
3. volume constraint, |f(D)| - pi.

The stream function phi_h on the disk solves Delta phi_h = |f'|^2 G(phi_h)
with zero boundary values; it is computed by a damped Picard iteration on a
half-diameter Chebyshev grid (even number of nodes on the full diameter, so
the coordinate singularity at r = 0 is never touched) times a uniform angle
grid.  The angle is handled by rfft: the M/2 + 1 Fourier modes each have a
radial operator of the parity of n.  Multiplied by r^2, the operator of mode
n is a parity block minus n^2, so the modes of one parity share one
eigenbasis (fast diagonalization).  The two eigen-decompositions are formed
once per damping value and cached, so a Picard step is two matmuls per
parity over all modes.  The damping is the midpoint of the range of
|f'|^2 G' on a fixed grid of values, so that nearby shapes share one cached
eigenbasis, and the iteration stops on an a-posteriori bound of its error
(solve_phi_h).  residual_F starts the iteration from a given field: the
quasi-Newton solve passes the previous iterate's, and the default is the
base-state field phi0(r).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
# lu_factor and lu_solve are not called here; perfbench/tracing.py counts
# calls under these names
from scipy.linalg import lu_factor, lu_solve

# HalfDiameterGrid types DiskField.grid; perfbench/tracing.py wraps the name
from .chebyshev import DEFAULT_RADIAL, HalfDiameterGrid, _radial_basis
from .errors import ConfigError, DivergenceError, TidaldiskError
from .kernel import VorticityProfile
from .linop import LinearizedOperator, first_order_response, solve_linearized
from .potential import (_A0_MIN, BaseState, particle_potential_at,
                        sine_power_coeffs)
# eval_h_at is not called here; perfbench/tracing.py wraps it under this name
from .spectral import (BoundarySpectrum, ShapeCoeffs, analyze, area,
                       boundary_curve, boundary_grid, boundary_points,
                       boundary_rows, conformal_factor_grid, eval_h_at,
                       injectivity_margin)

DEFAULT_ANGULAR = 256

# grid of the Picard damping, so that nearby shapes share one _mode_eigs entry
_LAM_STEP = 1.0 / 16.0


# --------------------------------------------------------------------------
# stream function on the disk
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _mode_eigs(n_radial: int, lam: float):
    """For parity p = 0, 1, the eigen-decomposition (Lambda_p, V_p,
    V_p^-1 diag(r^2)) of the interior block r^2 (basis[p] - lam I)[1:, 1:].

    Dropping row and column 0 imposes u(1) = 0.  Times r^2, the operator of
    mode n is this block minus n^2 I, so all modes of one parity share V_p
    (fast diagonalization); the third factor takes a right-hand side
    straight to the eigenbasis of the operator times r^2.  Shared between
    calls, so the arrays are read-only.  solve_phi_h takes lam from a grid
    of multiples of _LAM_STEP, so the shapes of a solve share an entry; a
    profile with G' = 0 always has lam = 0.
    """
    grid, basis = _radial_basis(n_radial)
    r2 = grid.r[1:] ** 2
    eye = np.eye(n_radial - 1)
    out = []
    for B in basis:
        ev, V = np.linalg.eig(r2[:, None] * (B[1:, 1:] - lam * eye))
        Vinv_r2 = np.linalg.inv(V) * r2
        for arr in (ev, V, Vinv_r2):
            arr.setflags(write=False)
        out.append((ev, V, Vinv_r2))
    return tuple(out)


def _left_product(A: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """A @ Z for a C-contiguous complex Z.  A real A (as eig returns for
    every grid in use) multiplies the float view of Z, the (re, im) pairs
    of its columns, in one real product; A @ Z would upcast A to complex."""
    if np.iscomplexobj(A):
        return A @ Z
    return (A @ Z.view(float)).view(complex)


def _solve_modes(n_radial: int, lam: float, rhs_hat: np.ndarray) -> np.ndarray:
    """Solve (d_rr + (1/r) d_r - n^2/r^2 - lam) u = rhs with u(1) = 0 for
    every rfft column n of rhs_hat; row 0 of rhs_hat is not used."""
    n2 = np.arange(rhs_hat.shape[1]) ** 2
    u_hat = np.zeros(rhs_hat.shape, dtype=complex)
    for p, (ev, V, Vinv_r2) in enumerate(_mode_eigs(n_radial, lam)):
        coef = _left_product(Vinv_r2,
                             np.ascontiguousarray(rhs_hat[1:, p::2]))
        coef /= ev[:, None] - n2[None, p::2]
        u_hat[1:, p::2] = _left_product(V, coef)
    return u_hat


def _parity_fold(mats, vh: np.ndarray) -> np.ndarray:
    """Apply mats[n % 2] to column n of the rfft coefficients vh."""
    out = np.empty((mats[0].shape[0], vh.shape[1]), dtype=complex)
    for p in (0, 1):
        out[:, p::2] = mats[p] @ vh[:, p::2]
    return out


@dataclass
class DiskField:
    """Real scalar field on the polar grid (radial half-nodes x angles)."""

    r: np.ndarray              # descending, r[0] = 1
    phi: np.ndarray            # uniform angular grid
    values: np.ndarray         # shape (len(r), len(phi))
    spectrum: np.ndarray = field(repr=False)  # rfft of values along phi
    grid: HalfDiameterGrid = field(repr=False, default=None)
    picard_steps: int = 0      # steps of the solve that made the field
    damping: float = 0.0       # its final Picard damping lam

    def boundary_trace(self) -> np.ndarray:
        return self.values[0, :].copy()

    def boundary_normal_deriv(self) -> np.ndarray:
        """Radial derivative at r = 1, mode by mode with the correct parity
        fold of the half-diameter discretization."""
        rows = [self.grid.d1(p)[:1] for p in (0, 1)]
        return np.fft.irfft(_parity_fold(rows, self.spectrum)[0],
                            n=len(self.phi))


def solve_phi_h(h: ShapeCoeffs, profile: VorticityProfile,
                n_radial: int = DEFAULT_RADIAL,
                n_angular: int = DEFAULT_ANGULAR,
                tol: float = 1e-12, max_iter: int = 200,
                u_init=None) -> DiskField:
    """Damped Picard solution of Delta u = |f'|^2 G(u), u = 0 on the circle.

    Each step solves (Delta - lam) u_next = w G(u) - lam u with w = |f'|^2.
    Its error operator is (Delta - lam)^-1 (w G' - lam); the Dirichlet
    Laplacian of the disk lies at or below -j01^2 = -5.78, so with lam the
    midpoint of [min wG', max wG'] the step contracts for any wG' >= 0.
    Each step takes lam at the midpoint of the current iterate's range,
    rounded to multiples of _LAM_STEP (at least 0), so that nearby shapes
    share one cached eigenbasis.  A profile with G' = 0 keeps lam = 0, and
    one with G' = 1 keeps lam = 1 while |f'|^2 stays within 1/32 of 1.

    Stop rule: by the maximum principle, ||(Delta - lam)^-1|| <= 1/max(4, lam)
    in the sup norm, so q = max|wG' - lam| / max(4, lam), taken over the
    iterates before and after the step, bounds the contraction.  (At the
    first iterate alone wG' can be uniform and equal to lam, so q = 0 there
    whatever G' does further on.)  When q < 1/2 the iteration stops once
    the a-posteriori error bound delta q / (1 - q) of the last step delta is
    below tol, and otherwise once delta < tol.  With G' = 0, q = 0 and one
    step is exact.

    The step runs on the rfft modes n = 0..M/2 of the angle, by fast
    diagonalization (_solve_modes), and evaluates G' once, at the new
    iterate; a solve of k steps evaluates it k + 1 times.  The iteration
    starts from u_init (broadcast to the grid), or from zero.  The field
    keeps the last step's modes as its spectrum.  The grid must hold
    2N + 2 angles (ConfigError).
    """
    if injectivity_margin(h) <= 0:
        raise TidaldiskError("shape is not certified injective; refusing "
                             "to solve on a possibly folded domain")
    grid, _ = _radial_basis(n_radial)
    w = conformal_factor_grid(h, n_radial, n_angular)
    shape = (n_radial, n_angular)
    if u_init is None:
        u = np.zeros(shape)
    else:
        u = np.array(np.broadcast_to(u_init, shape), dtype=float)

    wg1 = w * profile.d1(u)
    for steps in range(1, max_iter + 1):
        lo, hi = float(np.min(wg1)), float(np.max(wg1))
        lam = max(round(0.5 * (lo + hi) / _LAM_STEP) * _LAM_STEP, 0.0)
        rhs = w * np.asarray(profile.eval(u), dtype=float) - lam * u
        u_hat = _solve_modes(n_radial, lam, np.fft.rfft(rhs, axis=1))
        u_new = np.fft.irfft(u_hat, n=n_angular, axis=1)
        delta = float(np.max(np.abs(u_new - u)))
        u = u_new
        wg1 = w * profile.d1(u)
        lo, hi = min(lo, float(np.min(wg1))), max(hi, float(np.max(wg1)))
        q = max(hi - lam, lam - lo) / max(4.0, lam)
        if (delta * q / (1.0 - q) if q < 0.5 else delta) < tol:
            break
    else:
        raise DivergenceError(
            f"stream-function iteration did not converge (last step {delta:.2e})")

    return DiskField(r=grid.r, phi=boundary_grid(n_angular), values=u,
                     spectrum=u_hat, grid=grid, picard_steps=steps,
                     damping=lam)


def field_equation_residual(fieldv: DiskField, h: ShapeCoeffs,
                            profile: VorticityProfile) -> float:
    """Sup norm of Delta u - |f'|^2 G(u) at the interior collocation nodes."""
    r = fieldv.r
    M = len(fieldv.phi)
    w = conformal_factor_grid(h, len(r), M)
    _, basis = _radial_basis(len(r))
    vh = np.fft.rfft(fieldv.values, axis=1)
    n = np.arange(vh.shape[1])
    lap_hat = _parity_fold(basis, vh) - (n * n)[None, :] / (r * r)[:, None] * vh
    lap = np.fft.irfft(lap_hat, n=M, axis=1)
    res = lap - w * np.asarray(profile.eval(fieldv.values), dtype=float)
    return float(np.max(np.abs(res[1:, :])))


# --------------------------------------------------------------------------
# boundary value of the self-attraction
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _product_weights(M: int, nu: Optional[float] = None) -> np.ndarray:
    """Circulant weights W with int F(t) K(t - t_i) dt ~ sum_k W_k F(t_k + t_i)
    on the uniform M-grid, exact for trigonometric F of degree below M/2.
    K is ln(4 sin^2(t/2)) for nu None, else |2 sin(t/2)|^s with s = 2 - nu,
    and W is 2 pi irfft of its Fourier coefficients c_0..c_{M//2}: 0, -1/k
    (log) or those of sine_power_coeffs (power).  Cached, so read-only."""
    k = np.arange(M // 2 + 1, dtype=float)
    if nu is None:
        c = np.concatenate([[0.0], -1.0 / k[1:]])
    else:
        a0, d = sine_power_coeffs(2.0 - nu, M // 2)
        c = a0 + d
    w = 2.0 * np.pi * np.fft.irfft(c, n=M)
    w.setflags(write=False)
    return w


# Elements per block of target rows: 2^14 // M targets at a time against
# all M sources, so a call's temporaries take two 128 KiB blocks whatever
# M is, where an unblocked M x M kernel matrix takes 2 MB at M = 512.
_OFFSET_BLOCK_ELEMS = 2**14


def boundary_potential(f: np.ndarray, yp: np.ndarray, case) -> np.ndarray:
    """Samples of (U_h o f)(e^{i phi_j}) on the uniform M-grid, from the
    curve f and its tangent yp there (spectral.boundary_curve).  residual_F
    passes its n_angular sample, of a shape that solve_phi_h has certified.

    With w chosen so that div[(y - x) w(|y - x|)] is the interaction kernel,
    w = (1/2) ln rho - 1/4 (log) or -rho^(-nu) / (2 - nu) (power), the area
    integral becomes U_h(x) = int_bdry w(|y - x|) (y - x) . n dS(y).  On the
    curve y(t) = f(e^{it}), (y - x) . n dS = P dt with
    P = Re[(y(t) - x) i conj(y'(t))], which vanishes quadratically at the
    target, so the integrand is integrable.

    With s2 = 4 sin^2(pi k / M) at the offset k = j - i (mod M) from target
    i to source j, the integrand is a smooth factor of P and rho^2 / s2
    times a singular factor of s2, which takes the circulant weights W_k of
    _product_weights (Kress's product rule; the log's smooth term takes the
    trapezoid rule).  Folded into one circulant row c_k, the two factors
    make U_i = sum_j P_ij L_ij:

    - log: P [(1/4) ln(rho^2 / s2) - 1/4] + P (1/4) ln s2, so
      L = trap ln(rho^2 c_k) with trap = pi / (2M) and
      c_k = exp(W_k / (4 trap) - 1) / s2;
    - power: [P / s2] [rho^2 / s2]^(-nu/2) s2^(1 - nu/2), so
      L = rho^-nu c_k with c_k = W_k s2^(nu/2 - 1).

    P_ij = Im[conj(f_j - f_i) y'_j] splits about any origin z0, so
    U_i = Im[(L (conj(f - z0) y'))_i - conj(f_i - z0) (L y')_i].  Each block
    of _OFFSET_BLOCK_ELEMS // M rows of L is formed in place and multiplied
    by three real columns, about z0 at the block's middle target: the two
    parts cancel in U, and about z0 they stay as small as the offsets.  On
    the diagonal, where P vanishes, rho^2 = 1 and c_0 = 1 (log) or 0
    (power) make L_ii = 0.  The power kernel's smooth factor has the limit
    (1/2) Im(y'' conj y') |y'|^(-nu) at k = 0, weighted by W_0.
    """
    M = len(f)
    s2 = 4.0 * np.sin(np.pi * np.arange(1, M) / M) ** 2
    c = np.empty(M)
    if case.is_log:
        trap = np.pi / (2.0 * M)
        c[0] = 1.0
        c[1:] = np.exp(0.25 * _product_weights(M)[1:] / trap - 1.0) / s2
    else:
        wts = _product_weights(M, case.nu)
        c[0] = 0.0
        c[1:] = wts[1:] * s2 ** (0.5 * case.nu - 1.0)
    # row i of circ holds c at j - i (mod M), a reversed window over [c, c]
    circ = sliding_window_view(np.concatenate([c, c]), M)[M:0:-1]
    x, y = f.real, f.imag
    # x_j - x_i = [-x_i, 1] . [1, x_j]: products by 1 and one rounded sum,
    # the bits of a subtraction, which BLAS writes faster than a broadcast
    ones = np.ones(M)
    left = np.stack([-x, ones, -y, ones], axis=1)
    right = np.stack([ones, x, ones, y])
    # the columns of the product: Im(conj(f - z0) y'), Re y' and Im y'
    cols = np.stack([np.empty(M), yp.real, yp.imag])
    block = max(1, _OFFSET_BLOCK_ELEMS // M)
    d2_block, dy_block = np.empty((block, M)), np.empty((block, M))
    out = np.empty(M)
    for lo in range(0, M, block):
        rows = slice(lo, min(lo + block, M))
        n = rows.stop - lo
        # d2 = rho^2 of the block's rows, turned into the rows of L in place
        d2, dy = d2_block[:n], dy_block[:n]
        np.matmul(left[rows, :2], right[:2], out=d2)
        np.multiply(d2, d2, out=d2)
        np.matmul(left[rows, 2:], right[2:], out=dy)
        np.multiply(dy, dy, out=dy)
        d2 += dy
        d2[np.arange(n), np.arange(lo, rows.stop)] = 1.0
        if case.is_log:
            d2 *= circ[rows]
            np.log(d2, out=d2)
        else:  # rho^-nu as exp(-(nu/2) ln rho^2), faster than np.power
            np.log(d2, out=d2)
            d2 *= -0.5 * case.nu
            np.exp(d2, out=d2)
            d2 *= circ[rows]
        x0, y0 = x[lo + n // 2], y[lo + n // 2]  # z0
        np.subtract(x, x0, out=cols[0])
        cols[0] *= cols[2]
        cols[0] -= (y - y0) * cols[1]
        a, bx, by = (d2 @ cols.T).T
        out[rows] = a - (x[rows] - x0) * by + (y[rows] - y0) * bx
    if case.is_log:
        return trap * out
    # y' holds the powers 1..N+1 < M of e^{it} only, so one FFT gives y''
    ypp = np.fft.ifft(1j * np.arange(M) * np.fft.fft(yp))
    diag = 0.5 * (ypp * yp.conj()).imag * np.abs(yp) ** (-case.nu)
    return -(out + wts[0] * diag) / (2.0 - case.nu)


# --------------------------------------------------------------------------
# particle-side quantities
# --------------------------------------------------------------------------

# Least distance from the body to the particle for particle_force: closer,
# the trapezoid rule on the default grid loses its geometric convergence.
_PF_CLEARANCE = 0.3


def particle_force(h: ShapeCoeffs, case, a: float, curve=None) -> complex:
    """Gradient of the body's attraction potential at the particle site
    (a, 0), as the complex number d/dx1 + i d/dx2.

    By the divergence theorem grad U_h(X) = -int_bdry K(|X - y|) n dS(y),
    and on y(t) = f(e^{it}) the outward n dS is -i y'(t) dt, so in complex
    form the force is int K(|X - f|) i y' dt.  The integrand is smooth and
    periodic, and the trapezoid rule on boundary_points(N) points converges
    geometrically, whatever grid the residual uses.  The rule is measured:
    at the disk the error falls like a^-M, 1.5^-M near the closest
    particle; at N = 128 with |g_n| ~ 1e-3/n, 2N + 2 points leave errors up
    to 6e-9 and 4N points 4e-16.

    curve, a sample (f, y') of h on a uniform grid (spectral.boundary_curve),
    is used at every k-th point when boundary_points(N) divides its size;
    otherwise the curve is sampled afresh.
    """
    a = float(a)
    if a < _A0_MIN:
        raise ConfigError(f"particle distance must be at least {_A0_MIN}")
    M = boundary_points(h.N)
    if curve is not None and len(curve[0]) % M == 0:
        step = len(curve[0]) // M
        f, yp = curve[0][::step], curve[1][::step]
    else:
        f, yp = boundary_curve(h, M)
    if float(np.max(np.abs(f))) > a - _PF_CLEARANCE:
        raise TidaldiskError(
            "shape reaches too close to the particle for smooth quadrature")
    return np.mean(particle_potential_at(case, a, f) * 1j * yp) * 2.0 * np.pi


def center_of_mass(h: ShapeCoeffs, m: float, a: float):
    """(integral of x over the body + m X) / (pi + m), as a 2-vector.

    The body integral of z is (1/2i) int_bdry |z|^2 dz; |f|^2 y' is a
    trigonometric polynomial of degrees -N + 1..2N + 1, so the trapezoid
    rule on boundary_points(N) >= 4N points is exact."""
    f, yp = boundary_curve(h, boundary_points(h.N))
    mom = np.mean(np.abs(f) ** 2 * yp) * np.pi / 1j
    total = mom + m * a
    return np.array([total.real, total.imag]) / (np.pi + m)


# --------------------------------------------------------------------------
# full residual
# --------------------------------------------------------------------------

def residual_F(h: ShapeCoeffs, a: float, lam: float, m: float,
               base: BaseState,
               n_radial: int = DEFAULT_RADIAL,
               n_angular: int = DEFAULT_ANGULAR,
               return_field: bool = False, u_init=None):
    """The three components of the reduced system at state (h, a, lam).

    Returns (S_res, r2, r3) where S_res is the boundary spectrum of the
    Bernoulli mismatch, r2 the particle-balance residual and r3 the volume
    residual; with return_field=True the stream-function field is appended.
    The stream-function solve starts from u_init, by default from the
    base-state field phi0(r), and its field carries its own rfft for the
    normal derivative.  The curve is sampled once, on the n_angular grid,
    which must hold at least 2N + 2 points (solve_phi_h raises ConfigError
    otherwise); particle_force takes every k-th point of that sample when
    boundary_points(N) divides n_angular.
    """
    if u_init is None:
        u_init = base.phi0.dirichlet_field(n_radial)[:, None]
    fieldv = solve_phi_h(h, base.profile, n_radial=n_radial,
                         n_angular=n_angular, u_init=u_init)
    dn = fieldv.boundary_normal_deriv()

    f, yp = boundary_curve(h, n_angular)
    grad2 = dn ** 2 / np.abs(yp) ** 2  # tangential part vanishes (Dirichlet)

    u_self = boundary_potential(f, yp, base.case)
    u_part = particle_potential_at(base.case, a, f)

    samples = (0.5 * grad2 - 0.5 * base.omega0**2 * np.abs(f) ** 2
               + u_self + m * u_part - lam)
    S_res = analyze(samples, N=h.N)

    r2 = base.omega0**2 * a - particle_force(h, base.case, a, (f, yp)).real
    r3 = area(h) - np.pi
    if return_field:
        return S_res, float(r2), float(r3), fieldv
    return S_res, float(r2), float(r3)


def residual_norm(S: BoundarySpectrum, r2: float, r3: float) -> float:
    return float(np.sqrt(S.norm() ** 2 + r2 * r2 + r3 * r3))


# --------------------------------------------------------------------------
# quasi-Newton continuation
# --------------------------------------------------------------------------

@dataclass
class EquilibriumSolution:
    h: ShapeCoeffs
    a: float
    lam: float
    m: float
    residual_norm: float
    iterations: int
    history: list
    diagnostics: dict

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "m": self.m,
            "a": self.a,
            "lambda": self.lam,
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "history": self.history,
            "shape": self.h.to_json_dict(),
            "diagnostics": self.diagnostics,
        }

    def boundary_csv_rows(self):
        return boundary_rows(self.h)


def _diagnostics(h: ShapeCoeffs, a: float, lam: float, m: float,
                 base: BaseState, S: BoundarySpectrum,
                 picard_steps: list, margin: float) -> dict:
    """Diagnostics of a converged state; margin is injectivity_margin(h),
    which the quasi-Newton loop has computed for the iterate."""
    com = center_of_mass(h, m, a)
    # Pressure continuity on the free boundary: the interior pressure at the
    # boundary is -(1/2)|grad psi|^2 + (Omega0^2/2)|x|^2 + lambda (the
    # primitive F vanishes there since psi = 0 and F(0) = 0), and matching
    # against the exterior potentials makes the mismatch exactly the
    # Bernoulli residual; its sup is bounded by the spectrum l1 norm.
    jump_sup = float(np.abs(S.coeffs[0]) + 2.0 * np.sum(np.abs(S.coeffs[1:])))
    return {
        "area_error": abs(area(h) - np.pi),
        "center_of_mass": [float(com[0]), float(com[1])],
        "symmetry_defect": h.symmetry_defect(),
        "injectivity_margin": margin,
        "pressure_jump_sup": jump_sup,
        # stream-function Picard steps of each residual_F call
        "picard_steps": picard_steps,
    }


def quasi_newton_solve(op: LinearizedOperator, m: float,
                       tol: float = 1e-10, max_iter: int = 50,
                       n_radial: int = DEFAULT_RADIAL,
                       n_angular: int = DEFAULT_ANGULAR,
                       m_cap: Optional[float] = None) -> EquilibriumSolution:
    """Frozen-derivative fixed point x_{k+1} = x_k - DF(base)^{-1} F(x_k).

    Starts from the first-order response; reports divergence after three
    consecutive residual increases, or when an iterate leaves the
    admissible set (particle distance below the a0 minimum, or a shape not
    certified injective).  At m = 0 the disk itself is the answer, and its
    residual must be below tol like any other.  The default mass cap is a
    heuristic tied to the distance to resonance.
    """
    base = op.base
    if m_cap is None:
        m_cap = 1e-3 * float(np.min(np.abs(op.table.omega[1:])))
    if abs(m) > m_cap:
        raise TidaldiskError(
            f"m={m:g} exceeds the contraction heuristic cap {m_cap:g}; "
            "pass m_cap explicitly to override")

    if m == 0.0:
        h = ShapeCoeffs.zero(op.N)
        S, r2, r3, fieldv = residual_F(h, base.a0, base.lambda0, 0.0, base,
                                       n_radial, n_angular, return_field=True)
        rn = residual_norm(S, r2, r3)
        if not rn < tol:
            raise DivergenceError(
                f"the unperturbed disk misses the discrete system by "
                f"{rn:.2e}, not below tol {tol:g}", history=[rn])
        diag = _diagnostics(h, base.a0, base.lambda0, 0.0, base, S,
                            [fieldv.picard_steps], injectivity_margin(h))
        return EquilibriumSolution(h, base.a0, base.lambda0, 0.0, rn, 0,
                                   [rn], diag)

    h1, a1, l1 = first_order_response(op, m)
    h = h1
    a = base.a0 + a1
    lam = base.lambda0 + l1

    history = []
    picard_steps = []
    u_prev = None  # each stream-function solve starts from the last field
    bad_streak = 0
    for it in range(1, max_iter + 1):
        if a < _A0_MIN:
            raise DivergenceError(
                f"iterate moved the particle to a={a:.6g}, inside the "
                f"admissible distance {_A0_MIN}", history=history)
        # solve_phi_h checks the margin again, for callers outside this
        # loop, and raises TidaldiskError (exit 1); an iterate that leaves
        # the certified set is a divergence (exit 4)
        margin = injectivity_margin(h)
        if margin <= 0:
            raise DivergenceError("iterate lost certified injectivity",
                                  history=history)
        S, r2, r3, fieldv = residual_F(h, a, lam, m, base, n_radial,
                                       n_angular, return_field=True,
                                       u_init=u_prev)
        u_prev = fieldv.values
        picard_steps.append(fieldv.picard_steps)
        rn = residual_norm(S, r2, r3)
        history.append(rn)
        if rn < tol:
            return EquilibriumSolution(h, a, lam, m, rn, it, history,
                                       _diagnostics(h, a, lam, m, base, S,
                                                    picard_steps, margin))
        if len(history) > 1 and rn > history[-2]:
            bad_streak += 1
            if bad_streak >= 3:
                raise DivergenceError(
                    f"residual increased {bad_streak} consecutive steps",
                    history=history)
        else:
            bad_streak = 0
        g, b, mu = solve_linearized(op, S, r2, r3)  # g.N == op.N == h.N
        h = ShapeCoeffs(h.g0 - g.g0, h.gn - g.gn)
        a -= b
        lam -= mu

    raise DivergenceError(
        f"no convergence after {max_iter} iterations "
        f"(last residual {history[-1]:.2e})", history=history)
