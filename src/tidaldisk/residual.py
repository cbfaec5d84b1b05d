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
quasi-Newton solve passes the first-order field phi0 + m psi
(first_order_field) to its first call at m != 0 and the previous iterate's
to the later ones, and the default is the base-state field phi0(r).  psi
is one inverse FFT of the mode table's own profiles, not a grid solve.

Where G is constant on the range of phi_h (constant_vorticity), as for
rigid rotation, residual_F solves nothing on the grid: phi_h is
(G0/4)(|f|^2 - P[|f|^2]), P the Poisson extension, and its normal
derivative comes from the boundary sample in closed form
(closed_form_flux).

A shape is read from one spectral.sample_shape: solve_phi_h takes its grid
and injectivity margin, boundary_potential its curve, and particle_force
and center_of_mass the curve of its boundary_points(N) grid.  The
quasi-Newton loop takes one per iterate and keeps none on the solution.

Where a field is solved, the boundary potential does not depend on it, and
both spend their time in numpy and BLAS calls that release the GIL.  With
BLAS pinned to one thread, at least 2 CPUs and 512 or more angles
(_overlaps), residual_F computes the potential on a one-worker thread while
solve_phi_h runs; each stays single-threaded on its own read-only data, so
every state is bit-identical to the inline order.  On the solve-B-linear
workload's 64 x 512 grid a mass then takes 0.78-0.84 of the inline time
(2-vCPU KVM guest, OpenBLAS 0.3.31).  Grids of fewer angles gained 7%
at most or lost, unpinned BLAS and the closed-form flux measured slower
overlapped, and one CPU has no second to run on, so these stay inline;
the README's BLAS-threads paragraph lists the measurements.
"""

from __future__ import annotations

import contextvars
import functools
import os
from concurrent import futures
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
from .kernel import VorticityProfile, constant_value
from .linop import LinearizedOperator, first_order_response, solve_linearized
from .potential import (_A0_MIN, BaseState, particle_potential_at,
                        sine_power_coeffs)
from .radial_ode import mode_profiles
# eval_h_at is not called here; perfbench/tracing.py wraps it under this name
from .spectral import (BoundarySpectrum, ShapeCoeffs, ShapeSample,
                       _h_coeffs, _radial_powers, analyze, area,
                       boundary_points, check_grid, conformal_factor_grid,
                       eval_h_at, sample_shape)

# grid of the Picard damping, so that nearby shapes share one _mode_eigs entry
_LAM_STEP = 1.0 / 16.0
# Picard steps of solve_phi_h before it reports divergence
_MAX_PICARD_STEPS = 200


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
    grid = _radial_basis(n_radial)
    r2 = grid.r[1:] ** 2
    eye = np.eye(n_radial - 1)
    out = []
    for B in grid.basis:
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
    """Real scalar field on the polar grid (radial half-nodes x uniform
    angles)."""

    values: np.ndarray         # shape (len(grid.r), number of angles)
    spectrum: np.ndarray = field(repr=False)  # rfft of values along the angle
    grid: HalfDiameterGrid = field(repr=False)  # radii grid.r, descending
    picard_steps: int = 0      # steps of the solve that made the field

    def boundary_normal_deriv(self) -> np.ndarray:
        """Radial derivative at r = 1, mode by mode with the correct parity
        fold of the half-diameter discretization (the grid's rows)."""
        return np.fft.irfft(_parity_fold(self.grid.rows, self.spectrum)[0],
                            n=self.values.shape[1])


def _require_certified(margin: float):
    """Refuse a shape whose injectivity margin is not positive."""
    if not margin > 0:
        raise TidaldiskError("shape is not certified injective; refusing "
                             "to solve on a possibly folded domain")


def solve_phi_h(shape: ShapeSample, profile: VorticityProfile,
                n_radial: int = DEFAULT_RADIAL,
                tol: float = 1e-12, u_init=None) -> DiskField:
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
    step is exact.  A solve that has not stopped after _MAX_PICARD_STEPS
    steps is a DivergenceError.

    The step runs on the rfft modes n = 0..M/2 of the angle, by fast
    diagonalization (_solve_modes), and evaluates G' once, at the new
    iterate; a solve of k steps evaluates it k + 1 times.  The iteration
    starts from u_init, or from zero, as a read-only view broadcast to the
    grid (the steps only read it).  The field keeps the last step's modes
    as its spectrum.

    shape is spectral.sample_shape(h, M): the field is solved on its M
    angles, and its margin must certify h injective (TidaldiskError
    otherwise).
    """
    _require_certified(shape.margin)
    n_angular = len(shape.curve[0])
    grid = _radial_basis(n_radial)
    w = conformal_factor_grid(shape.h, n_radial, n_angular)
    u = np.broadcast_to(np.asarray(0.0 if u_init is None else u_init,
                                   dtype=float), (n_radial, n_angular))
    s = w * profile.d1(u)
    for steps in range(1, _MAX_PICARD_STEPS + 1):
        lo, hi = float(np.min(s)), float(np.max(s))
        lam = max(round(0.5 * (lo + hi) / _LAM_STEP) * _LAM_STEP, 0.0)
        rhs = w * np.asarray(profile.eval(u), dtype=float) - lam * u
        u_hat = _solve_modes(n_radial, lam, np.fft.rfft(rhs, axis=1))
        u_new = np.fft.irfft(u_hat, n=n_angular, axis=1)
        delta = float(np.max(np.abs(u_new - u)))
        u = u_new
        s = w * profile.d1(u)
        lo, hi = min(lo, float(np.min(s))), max(hi, float(np.max(s)))
        q = max(hi - lam, lam - lo) / max(4.0, lam)
        if (delta * q / (1.0 - q) if q < 0.5 else delta) < tol:
            return DiskField(values=u, spectrum=u_hat, grid=grid,
                             picard_steps=steps)
    raise DivergenceError(
        f"stream-function iteration did not converge (last step {delta:.2e})")


def first_order_field(op: LinearizedOperator, n_radial: int = DEFAULT_RADIAL,
                      n_angular: Optional[int] = None):
    """d phi_h / dm at m = 0 along the first-order shape, on the solver grid
    of (n_radial, n_angular), or None where G is constant on phi0's range.

    With h = m h1, h1 the first-order shape per unit mass, |f'|^2 is
    1 + m w1 + O(m^2) with w1 = 2 Re h1', so phi_h = phi0 + m psi + O(m^2)
    where (Delta - G'(phi0)) psi = w1 G(phi0) and psi = 0 at r = 1.  With
    h1' = sum_k d_k z^k, mode k of the source is d_k r^k G(phi0), the
    table's right-hand side for A_k = r^k alpha_k, so psi =
    2 Re sum_k d_k r^k alpha_k e^{ik theta}: one irfft of mode_profiles,
    which is cached when the table was built on this radial grid.  The grid
    must hold 2N + 2 angles (ConfigError).  Where G is G(0) on phi0's range
    (BaseState.constant_g, the base's decision when solve_phi0 took phi0 in
    closed form), G'(phi0) = 0, one Picard step is exact from any start,
    and no psi is made.  Made once per operator and grid, by the first
    solve at m != 0, and kept on op; read-only.
    """
    if n_angular is None:
        n_angular = boundary_points(op.N)
    key = (n_radial, n_angular)
    if key not in op.stream_fields:
        base = op.base
        psi = None
        if base.constant_g is None:
            check_grid(n_angular, op.N)
            h1, _, _ = first_order_response(op, 1.0)
            modes = np.zeros((n_radial, op.N + 1), dtype=complex)
            # alpha(1) = 0 at r[0] = 1
            modes[1:] = (_h_coeffs(h1)[1, :-1]
                         * _radial_powers(n_radial, op.N)[1:]
                         * mode_profiles(base, op.N, n_radial))
            modes[:, 0] = 2.0 * modes[:, 0].real
            psi = np.fft.irfft(modes, n=n_angular, axis=1, norm="forward")
            psi.setflags(write=False)
        op.stream_fields[key] = psi
    return op.stream_fields[key]


def constant_vorticity(h: ShapeCoeffs,
                       profile: VorticityProfile) -> Optional[float]:
    """G0 = G(0) where G takes that one value wherever h's stream function
    lies, and otherwise None: kernel.constant_value on the disk of radius
    R = 1 + |g0| + sum |g_n|, which holds the closed disk's image |f| <= R.
    """
    return constant_value(profile,
                          1.0 + abs(h.g0) + float(np.sum(np.abs(h.gn))))


def closed_form_flux(f: np.ndarray, yp: np.ndarray, g0: float) -> np.ndarray:
    """Normal derivative on the circle of the u with Delta u = |f'|^2 G0 in
    the disk and u = 0 on the circle, from the curve y = f(e^{it}) and its
    tangent y' on a uniform grid (spectral.sample_curve).

    f is analytic, so Delta |f|^2 = 4 |f'|^2 and u = (G0/4)(|f|^2 - P[|f|^2])
    with P[|f|^2] the harmonic function of boundary values |y|^2.  On the
    circle d_r |f|^2 = 2 Im(conj(y) y'), and d_r P[|f|^2] = sum_p |p| c_p
    e^{ipt} with c_p the Fourier coefficients of |y|^2: one rfft/irfft
    pair.  |y|^2 and Im(conj(y) y') have degree N, so the samples are exact
    on the package's grids of 2N + 2 or more points.
    """
    M = len(f)
    harmonic = np.fft.irfft(np.arange(M // 2 + 1)
                            * np.fft.rfft(np.abs(f) ** 2), n=M)
    return 0.25 * g0 * (2.0 * (f.conj() * yp).imag - harmonic)


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


@functools.lru_cache(maxsize=8)
def _circulant_rows(M: int, nu: Optional[float] = None) -> np.ndarray:
    """The circulant row c of boundary_potential, with row i holding c at
    the offsets j - i (mod M): a reversed window over [c, c].  nu is as in
    _product_weights; cached, so read-only."""
    w = _product_weights(M, nu)
    s2 = 4.0 * np.sin(np.pi * np.arange(1, M) / M) ** 2
    c = np.empty(M)
    if nu is None:
        c[0] = 1.0
        c[1:] = np.exp(0.25 * w[1:] / (np.pi / (2.0 * M)) - 1.0) / s2
    else:
        c[0] = 0.0
        c[1:] = w[1:] * s2 ** (0.5 * nu - 1.0)
    return sliding_window_view(np.concatenate([c, c]), M)[M:0:-1]


# Elements per block of target rows: 2^14 // M targets at a time against
# all M sources, so a call's temporaries take two 128 KiB blocks whatever
# M is, where an unblocked M x M kernel matrix takes 2 MB at M = 512.
_OFFSET_BLOCK_ELEMS = 2**14


def boundary_potential(f: np.ndarray, yp: np.ndarray, ypp: np.ndarray,
                       case) -> np.ndarray:
    """Samples of (U_h o f)(e^{i phi_j}) on the uniform M-grid, from the
    curve f, its tangent yp and y'' there (spectral.sample_curve), which
    only the power kernel reads.  residual_F passes the curve of its
    certified shape sample.

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
    trapezoid rule).  Folded into one circulant row c_k (_circulant_rows,
    cached per M and kernel), the two factors make U_i = sum_j P_ij L_ij:

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
    nu = None if case.is_log else case.nu
    circ = _circulant_rows(M, nu)
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
        return np.pi / (2.0 * M) * out
    diag = 0.5 * (ypp * yp.conj()).imag * np.abs(yp) ** (-nu)
    return -(out + _product_weights(M, nu)[0] * diag) / (2.0 - nu)


# --------------------------------------------------------------------------
# particle-side quantities
# --------------------------------------------------------------------------

# Least distance from the body to the particle for particle_force: closer,
# the trapezoid rule on the default grid loses its geometric convergence.
_PF_CLEARANCE = 0.3


def particle_force(shape: ShapeSample, case, a: float) -> complex:
    """Gradient of the body's attraction potential at the particle site
    (a, 0), as the complex number d/dx1 + i d/dx2.

    By the divergence theorem grad U_h(X) = -int_bdry K(|X - y|) n dS(y),
    and on y(t) = f(e^{it}) the outward n dS is -i y'(t) dt, so in complex
    form the force is int K(|X - f|) i y' dt.  The integrand is smooth and
    periodic, and the trapezoid rule on the boundary_points(N) points of
    shape (spectral.sample_shape) converges geometrically, whatever grid
    the residual uses.  The rule is measured: at the disk the error falls
    like a^-M, 1.5^-M near the closest particle; at N = 128 with
    |g_n| ~ 1e-3/n, 2N + 2 points leave errors up to 6e-9 and 4N points
    4e-16.
    """
    a = float(a)
    if a < _A0_MIN:
        raise ConfigError(f"particle distance must be at least {_A0_MIN}")
    f, yp, _ = shape.points_curve
    if float(np.max(np.abs(f))) > a - _PF_CLEARANCE:
        raise TidaldiskError(
            "shape reaches too close to the particle for smooth quadrature")
    return np.mean(particle_potential_at(case, a, f) * 1j * yp) * 2.0 * np.pi


def center_of_mass(shape: ShapeSample, m: float, a: float):
    """(integral of x over the body + m X) / (pi + m), as a 2-vector.

    The body integral of z is (1/2i) int_bdry |z|^2 dz; |f|^2 y' is a
    trigonometric polynomial of degrees -N + 1..2N + 1, so the trapezoid
    rule on the boundary_points(N) >= 4N points of shape is exact."""
    f, yp, _ = shape.points_curve
    mom = np.mean(np.abs(f) ** 2 * yp) * np.pi / 1j
    total = mom + m * a
    return np.array([total.real, total.imag]) / (np.pi + m)


# --------------------------------------------------------------------------
# full residual
# --------------------------------------------------------------------------

# The least angular grid on which residual_F overlaps the boundary potential
# with the stream-function solve (_overlaps): every grid measured from 512
# angles up gained at least 16%, smaller ones 7% at most or lost.
_OVERLAP_MIN_ANGULAR = 512

# OpenBLAS's thread-count variables, in the order it reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                     "OMP_NUM_THREADS")


def _blas_threads() -> Optional[int]:
    """The BLAS thread count that the environment sets, as OpenBLAS reads
    it: the first positive integer among _BLAS_THREAD_VARS, or None."""
    for var in _BLAS_THREAD_VARS:
        try:
            n = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if n > 0:
            return n
    return None


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _overlaps(n_angular: int) -> bool:
    """Whether residual_F computes the boundary potential on its own thread
    while solve_phi_h runs: on a grid of at least _OVERLAP_MIN_ANGULAR
    angles, with BLAS pinned to one thread and a second CPU to run on.
    Elsewhere it gained little or measured slower (README, BLAS
    threads)."""
    return (n_angular >= _OVERLAP_MIN_ANGULAR and _blas_threads() == 1
            and _usable_cpus() >= 2)


@functools.lru_cache(maxsize=1)
def _potential_pool(pid: int) -> futures.ThreadPoolExecutor:
    """The one worker thread of the overlapped boundary potential, made on
    first use in each process (residual_F passes os.getpid()): a forked
    child has no copy of its parent's thread, and a pool inherited across
    the fork would wait for it.  No lock guards the first use: callers that
    race there may each make a pool, and each pool serves its callers."""
    return futures.ThreadPoolExecutor(
        1, thread_name_prefix="tidaldisk-potential")


def residual_F(h: ShapeCoeffs, a: float, lam: float, m: float,
               base: BaseState,
               n_radial: int = DEFAULT_RADIAL,
               n_angular: Optional[int] = None,
               return_field: bool = False, u_init=None,
               shape: Optional[ShapeSample] = None):
    """The three components of the reduced system at state (h, a, lam).

    Returns (S_res, r2, r3) where S_res is the boundary spectrum of the
    Bernoulli mismatch, r2 the particle-balance residual and r3 the volume
    residual; with return_field=True the stream-function field is appended,
    None where the flux has the closed form.

    The flux, the stream function's normal derivative, has a closed form
    where G is constant on the stream function's range (constant_vorticity:
    the rigid preset and flat tables), read from the boundary
    sample (closed_form_flux), and no field is solved.  For any other G,
    solve_phi_h solves for the field from u_init, by default the base-state
    field phi0(r), and the field carries its own rfft for the normal
    derivative.  Where _overlaps holds, boundary_potential runs meanwhile
    on a one-worker thread, in a copy of the caller's context (so its
    np.errstate holds there), on the sample's read-only curve; each call
    stays single-threaded on its own data, so the result is bit-identical
    to the two calls in turn.  If the solve raises, the potential is
    waited for before the exception leaves.

    h is read from one sample, shape = spectral.sample_shape(h, n_angular),
    which the quasi-Newton loop takes once per iterate and which is taken
    here when not given.  The grid must hold at least 2N + 2 points
    (ConfigError) and by default has boundary_points(N).  The stream
    function's grid and the curve, its tangent and y'' come from its
    curve, the particle force from its points_curve; a non-positive margin
    is refused (TidaldiskError) on either flux path.
    """
    if shape is None:
        shape = sample_shape(h, n_angular)
    _require_certified(shape.margin)
    f, yp, ypp = shape.curve
    potential = functools.partial(boundary_potential, f, yp, ypp, base.case)
    pending = None
    g0 = constant_vorticity(h, base.profile)
    if g0 is None:
        if u_init is None:
            u_init = base.phi0.grid_values(n_radial)[:, None]
        if _overlaps(len(f)):
            pending = _potential_pool(os.getpid()).submit(
                contextvars.copy_context().run, potential)
        try:
            fieldv = solve_phi_h(shape, base.profile, n_radial=n_radial,
                                 u_init=u_init)
        except BaseException:
            # the solve's exception leaves, not the potential's
            if pending is not None:
                futures.wait([pending])
            raise
        dn = fieldv.boundary_normal_deriv()
    else:
        fieldv = None
        dn = closed_form_flux(f, yp, g0)

    grad2 = dn ** 2 / np.abs(yp) ** 2  # tangential part vanishes (Dirichlet)

    u_part = particle_potential_at(base.case, a, f)
    u_self = potential() if pending is None else pending.result()

    samples = (0.5 * grad2 - 0.5 * base.omega0**2 * np.abs(f) ** 2
               + u_self + m * u_part - lam)
    S_res = analyze(samples, N=h.N)

    r2 = base.omega0**2 * a - particle_force(shape, base.case, a).real
    r3 = area(h) - np.pi
    if return_field:
        return S_res, float(r2), float(r3), fieldv
    return S_res, float(r2), float(r3)


def residual_norm(S: BoundarySpectrum, r2: float, r3: float) -> float:
    """Euclidean norm of the three components, summed hypot-style."""
    return float(np.hypot.reduce([S.norm(), r2, r3]))


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


def _diagnostics(shape: ShapeSample, a: float, m: float, S: BoundarySpectrum,
                 picard_steps: list, history: list, correction: tuple) -> dict:
    """Diagnostics of a converged state.  The quasi-Newton loop passes its
    sample of the iterate (spectral.sample_shape), whose margin and
    points_curve are read, the residual norms of every iterate and the correction
    (g, b, mu) that the iterate's residual would take next.  Only numbers
    are kept, not the sample."""
    h = shape.h
    com = center_of_mass(shape, m, a)
    # Pressure continuity on the free boundary: the interior pressure at the
    # boundary is -(1/2)|grad psi|^2 + (Omega0^2/2)|x|^2 + lambda (the
    # primitive F vanishes there since psi = 0 and F(0) = 0), and matching
    # against the exterior potentials makes the mismatch exactly the
    # Bernoulli residual; its sup is bounded by the spectrum l1 norm.
    jump_sup = float(np.abs(S.coeffs[0]) + 2.0 * np.sum(np.abs(S.coeffs[1:])))
    # Every norm but the last is above the stop level, so none divides by
    # zero.  A map that contracts by q leaves x within |T(x) - x| / (1 - q)
    # of its fixed point, with T(x) - x the next correction; q is estimated
    # by the last residual ratio.
    ratios = [history[k + 1] / history[k] for k in range(len(history) - 1)]
    bound = None
    if ratios and ratios[-1] < 1.0:
        g, b, mu = correction
        bound = float(np.hypot.reduce([g.norm(), b, mu])) / (1.0 - ratios[-1])
    return {
        "area_error": abs(area(h) - np.pi),
        "center_of_mass": [float(com[0]), float(com[1])],
        "symmetry_defect": h.symmetry_defect(),
        "injectivity_margin": shape.margin,
        "pressure_jump_sup": jump_sup,
        # stream-function Picard steps of each residual_F call, 0 where
        # the flux has the closed form
        "picard_steps": picard_steps,
        "contraction_ratios": ratios,
        "error_bound": bound,
    }


def quasi_newton_solve(op: LinearizedOperator, m: float,
                       tol: float = 1e-10, max_iter: int = 50,
                       n_radial: int = DEFAULT_RADIAL,
                       n_angular: Optional[int] = None,
                       m_cap: Optional[float] = None) -> EquilibriumSolution:
    """Frozen-derivative fixed point x_{k+1} = x_k - DF(base)^{-1} F(x_k).

    Starts from the first-order response, and its first stream-function
    solve from the first-order field (first_order_field), at m = 0 the
    disk and phi0.  No mass is refused in advance unless |m| > m_cap
    (TidaldiskError): divergence is reported after three consecutive
    residual increases, or when an iterate, the first-order start
    included, leaves the admissible set (particle distance below the a0
    minimum, or a shape not certified injective).  The loop stops at
    rn < tol * max(1, phi0'(1)^2), the scale of the Bernoulli terms and
    so of their rounding.

    Each iterate is sampled once (spectral.sample_shape, on n_angular):
    its injectivity margin, every residual_F boundary value and, for the
    final iterate, the center of mass read that sample.  Where G is
    constant on the stream function's range (rigid rotation), residual_F
    solves no field, so none is carried from one iterate to the next and
    picard_steps records 0.  The diagnostics
    list the ratios of successive residual norms (contraction_ratios) and
    an error_bound: the next correction's norm over 1 - q, q the last
    ratio, or None with one iteration or q >= 1.
    """
    base = op.base
    if m_cap is not None and abs(m) > m_cap:
        raise TidaldiskError(f"m={m:g} exceeds m_cap={m_cap:g}")
    stop = tol * max(1.0, base.dphi0_at_1 ** 2)

    h, a1, l1 = first_order_response(op, m)
    a = base.a0 + a1
    lam = base.lambda0 + l1

    # the first stream-function solve starts from the first-order field
    # phi0 + m psi, formed once the start is admitted (m psi overflows at
    # masses near the float maximum), and each later one from the last field
    psi = None if m == 0 else first_order_field(op, n_radial, n_angular)
    u_prev = None
    history = []
    picard_steps = []
    bad_streak = 0
    for it in range(1, max_iter + 1):
        if a < _A0_MIN:
            raise DivergenceError(
                f"iterate moved the particle to a={a:.6g}, inside the "
                f"admissible distance {_A0_MIN}", history=history)
        # one sample per iterate, which residual_F reads; an iterate that
        # leaves the certified set is a divergence (exit 4), where
        # residual_F refuses such a shape with TidaldiskError (exit 1)
        shape = sample_shape(h, n_angular)
        if not shape.margin > 0:
            raise DivergenceError("iterate lost certified injectivity",
                                  history=history)
        if it == 1 and psi is not None:
            u_prev = base.phi0.grid_values(n_radial)[:, None] + m * psi
        S, r2, r3, fieldv = residual_F(h, a, lam, m, base, n_radial,
                                       n_angular, return_field=True,
                                       u_init=u_prev, shape=shape)
        u_prev = None if fieldv is None else fieldv.values
        picard_steps.append(0 if fieldv is None else fieldv.picard_steps)
        rn = residual_norm(S, r2, r3)
        history.append(rn)
        g, b, mu = solve_linearized(op, S, r2, r3)  # g.N == op.N == h.N
        if rn < stop:
            return EquilibriumSolution(
                h, a, lam, m, rn, it, history,
                _diagnostics(shape, a, m, S, picard_steps, history,
                             (g, b, mu)))
        if len(history) > 1 and rn > history[-2]:
            bad_streak += 1
            if bad_streak >= 3:
                raise DivergenceError(
                    f"residual increased {bad_streak} consecutive steps",
                    history=history)
        else:
            bad_streak = 0
        h = ShapeCoeffs(h.g0 - g.g0, h.gn - g.gn)
        a -= b
        lam -= mu

    raise DivergenceError(
        f"no convergence after {max_iter} iterations "
        f"(last residual {history[-1]:.2e})", history=history)
