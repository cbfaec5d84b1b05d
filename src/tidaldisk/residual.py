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
parity over all modes.  residual_F starts the iteration from the base-state
field phi0(r), which roughly halves the number of steps.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.polynomial.legendre import leggauss
# lu_factor and lu_solve are not called here; perfbench/tracing.py counts
# calls under these names
from scipy.linalg import lu_factor, lu_solve

from .chebyshev import HalfDiameterGrid
from .errors import DivergenceError, TidaldiskError
from .kernel import VorticityProfile
from .linop import LinearizedOperator, first_order_response, solve_linearized
from .potential import (_A0_MIN, BaseState, graded_panels, panel_rule,
                        particle_potential_at)
# eval_h_at is not called here; perfbench/tracing.py wraps it under this name
from .spectral import (BoundarySpectrum, ShapeCoeffs, _h_coeffs, analyze,
                       area, boundary_grid, disk_rule, eval_boundary,
                       eval_h_at, eval_h_polar, injectivity_margin)

DEFAULT_RADIAL = 64    # half-diameter nodes; 2x this on the full diameter
DEFAULT_ANGULAR = 256


# --------------------------------------------------------------------------
# stream function on the disk
# --------------------------------------------------------------------------

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


@functools.lru_cache(maxsize=4)
def _mode_eigs(n_radial: int, lam: float):
    """For parity p = 0, 1, the eigen-decomposition (Lambda_p, V_p, V_p^-1)
    of the interior block r^2 (basis[p] - lam I)[1:, 1:].

    Dropping row and column 0 imposes u(1) = 0.  Times r^2, the operator of
    mode n is this block minus n^2 I, so all modes of one parity share V_p
    (fast diagonalization).  Shared between calls, so the arrays are
    read-only; a profile with G' = 0 always has lam = 0 and hits the cache.
    """
    grid, basis = _radial_basis(n_radial)
    r2 = grid.r[1:, None] ** 2
    eye = np.eye(n_radial - 1)
    out = []
    for B in basis:
        ev, V = np.linalg.eig(r2 * (B[1:, 1:] - lam * eye))
        Vinv = np.linalg.inv(V)
        for arr in (ev, V, Vinv):
            arr.setflags(write=False)
        out.append((ev, V, Vinv))
    return tuple(out)


def _solve_modes(n_radial: int, lam: float, rhs_hat: np.ndarray) -> np.ndarray:
    """Solve (d_rr + (1/r) d_r - n^2/r^2 - lam) u = rhs with u(1) = 0 for
    every rfft column n of rhs_hat; row 0 of rhs_hat is not used."""
    r2 = _radial_basis(n_radial)[0].r[1:, None] ** 2
    n2 = np.arange(rhs_hat.shape[1]) ** 2
    u_hat = np.zeros(rhs_hat.shape, dtype=complex)
    for p, (ev, V, Vinv) in enumerate(_mode_eigs(n_radial, lam)):
        coef = Vinv @ (r2 * rhs_hat[1:, p::2])
        u_hat[1:, p::2] = V @ (coef / (ev[:, None] - n2[None, p::2]))
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
    grid: HalfDiameterGrid = field(repr=False, default=None)

    def boundary_trace(self) -> np.ndarray:
        return self.values[0, :].copy()

    def boundary_normal_deriv(self) -> np.ndarray:
        """Radial derivative at r = 1, mode by mode with the correct parity
        fold of the half-diameter discretization."""
        rows = [self.grid.d1(p)[:1] for p in (0, 1)]
        vh = np.fft.rfft(self.values, axis=1)
        return np.fft.irfft(_parity_fold(rows, vh)[0], n=len(self.phi))


def conformal_factor_grid(h: ShapeCoeffs, r: np.ndarray, M: int):
    """|f'|^2 on the polar grid r_i exp(2 pi i j / M)."""
    _, dh = eval_h_polar(h, r, M)
    return np.abs(1.0 + dh) ** 2


def solve_phi_h(h: ShapeCoeffs, profile: VorticityProfile,
                n_radial: int = DEFAULT_RADIAL,
                n_angular: int = DEFAULT_ANGULAR,
                tol: float = 1e-12, max_iter: int = 200,
                u_init=None) -> DiskField:
    """Damped Picard solution of Delta u = |f'|^2 G(u), u = 0 on the circle.

    Each step solves (Delta - L) u_next = |f'|^2 G(u) - L u with a constant
    damping L >= sup(|f'|^2 G'), which makes the iteration a contraction for
    non-decreasing G.  The step runs on the rfft modes n = 0..M/2 of the
    angle, by fast diagonalization: times r^2, mode n's operator is a
    parity block minus n^2, so one eigenbasis per parity and damping value
    (_mode_eigs, cached) serves every mode, and a step is two matmuls per
    parity.  The iteration starts from u_init (broadcast to the grid), or
    from zero.
    """
    if injectivity_margin(h) <= 0:
        raise TidaldiskError("shape is not certified injective; refusing "
                             "to solve on a possibly folded domain")
    grid, _ = _radial_basis(n_radial)
    r = grid.r
    w = conformal_factor_grid(h, r, n_angular)
    shape = (n_radial, n_angular)
    if u_init is None:
        u = np.zeros(shape)
    else:
        u = np.array(np.broadcast_to(u_init, shape), dtype=float)

    lam = 0.0
    for it in range(max_iter):
        g1max = float(np.max(profile.d1(u)))
        lam_needed = float(np.max(w)) * max(g1max, 0.0)
        if it == 0 or lam_needed > lam:
            lam = 1.5 * lam_needed if lam_needed > 0 else 0.0

        rhs = w * np.asarray(profile.eval(u), dtype=float) - lam * u
        u_hat = _solve_modes(n_radial, lam, np.fft.rfft(rhs, axis=1))
        u_new = np.fft.irfft(u_hat, n=n_angular, axis=1)
        delta = float(np.max(np.abs(u_new - u)))
        u = u_new
        if delta < tol:
            break
    else:
        raise DivergenceError(
            f"stream-function iteration did not converge (last step {delta:.2e})")

    return DiskField(r=r, phi=boundary_grid(n_angular), values=u, grid=grid)


def field_equation_residual(fieldv: DiskField, h: ShapeCoeffs,
                            profile: VorticityProfile) -> float:
    """Sup norm of Delta u - |f'|^2 G(u) at the interior collocation nodes."""
    r = fieldv.r
    M = len(fieldv.phi)
    w = conformal_factor_grid(h, r, M)
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

@functools.lru_cache(maxsize=4)
def _kress_log_weights(M: int) -> np.ndarray:
    """Circulant quadrature weights for int F(t) ln(4 sin^2((t - t_i)/2)) dt
    on the uniform M-grid; exact for trigonometric polynomials of degree
    below M/2.  Cached per M (an O(M^2) sum), so the array is read-only."""
    j = np.arange(M)
    t = 2.0 * np.pi * j / M
    m = np.arange(1, M // 2)
    w = np.cos(np.outer(t, m)) @ (1.0 / m) + np.cos(M * t / 2.0) / M
    w = -(4.0 * np.pi / M) * w
    w.setflags(write=False)
    return w


def _angular_offsets(levels: int = 40, n_gauss: int = 10):
    """Symmetric graded offsets on (-pi, pi) refined toward 0, for the
    power-law boundary kernel."""
    half = graded_panels(0.0, np.pi, levels, toward_a=True)
    nodes, wts = panel_rule(half, n_gauss)
    offs = np.concatenate([-nodes[::-1], nodes])
    w = np.concatenate([wts[::-1], wts])
    return offs, w


_POWER_OFFSETS = _angular_offsets()

# Elements per (target, offset) block of either kernel: 2^14 // M offsets of
# the power kernel, or 2^14 // M targets of the log kernel, at a time.  A
# call's temporaries then peak at about 1.2-1.5 MB whatever M is, where
# unblocked arrays grow as 820 M (power) or M^2 (log: 12 MB at M = 512).
_OFFSET_BLOCK_ELEMS = 2**14


@functools.lru_cache(maxsize=4)
def _twist_table(n_coeffs: int) -> np.ndarray:
    """e^{i k off} for all power-kernel offsets and powers k < n_coeffs.
    Cached per truncation (0.87 MB at N = 64), so the array is read-only."""
    twist = np.exp(1j * np.outer(_POWER_OFFSETS[0], np.arange(n_coeffs)))
    twist.setflags(write=False)
    return twist


def boundary_potential(h: ShapeCoeffs, case, M: int = 0) -> np.ndarray:
    """Samples of (U_h o f)(e^{i phi_j}) on the uniform M-grid.

    The area integral is reduced to a boundary integral: with w chosen so
    that div[(y - x) w(|y - x|)] equals the interaction kernel,

        U_h(x) = int_bdry w(|y - x|) (y - x) . n dS(y),

    where w = (1/2) ln rho - 1/4 for the log kernel and
    w = -rho^(-nu) / (2 - nu) for the power kernel.  The dot product
    (y - x) . n dS becomes P = Re[(y(t) - x) i conj(y'(t))] dt on the curve
    y(t) = f(e^{it}), which vanishes quadratically at t -> angle of x, so
    the integrand is integrable with the singular point on the curve.

    Log kernel: the arrays are indexed by target i and offset k, with source
    j = i + k (mod M), as sliding windows over [f, f].  The trapezoid rule
    on P [(1/2) ln(rho / |2 sin(pi k / M)|) - 1/4] and Kress's circulant
    product rule on P (1/4) ln(4 sin^2(pi k / M)) then have weights that
    depend on k only, and U_i is one weighted row sum over k = 1..M-1 (P
    vanishes at k = 0).  The targets go in blocks of
    _OFFSET_BLOCK_ELEMS // M rows, which bounds the memory of the M x (M-1)
    temporaries.

    Power kernel: the curve y and its derivative y' at phi_j + off are the
    inverse FFTs of their Fourier coefficients twisted by e^{i k off} (a
    cached table).  The graded offsets go in blocks of
    _OFFSET_BLOCK_ELEMS // M, one batched FFT per block, reduced by the
    offset weights as one matrix-vector product; the block size bounds the
    memory, which would otherwise grow as 820 M.
    """
    if M <= 0:
        M = max(256, 4 * h.N + 8)
    if M < 2 * h.N + 2:
        raise ValueError("boundary grid too coarse for the shape")
    if injectivity_margin(h) <= 0:
        raise TidaldiskError("shape is not certified injective")

    f, fp = eval_boundary(h, M)
    block = max(1, _OFFSET_BLOCK_ELEMS // M)

    if case.is_log:
        yp = 1j * np.exp(1j * boundary_grid(M)) * fp  # d/dt f(e^{it})
        s2 = 4.0 * np.sin(np.pi * np.arange(1, M) / M) ** 2
        kress = 0.25 * _kress_log_weights(M)[1:]
        # [i, k - 1] holds the source j = i + k (mod M), k = 1..M-1
        src = sliding_window_view(np.concatenate([f, f])[1:], M - 1)[:M]
        ysrc = sliding_window_view(np.concatenate([yp, yp])[1:], M - 1)[:M]
        out = np.empty(M)
        for lo in range(0, M, block):
            rows = slice(lo, lo + block)
            diff = src[rows] - f[rows, None]
            y = ysrc[rows]
            P = diff.real * y.imag - diff.imag * y.real
            # ln(rho^2 / s2) stays small on a near-circle, so it is formed
            # as one log of the ratio rather than as a difference of two logs
            log_ratio = np.log((diff.real**2 + diff.imag**2) / s2)
            wts = (np.pi / (2.0 * M)) * (log_ratio - 1.0)
            out[rows] = np.einsum("ik,ik->i", P, wts + kress)
        return out

    nu = case.nu
    wq = _POWER_OFFSETS[1]
    ch, _ = _h_coeffs(h)  # y(t) = f(e^{it}) = sum_k ch[k] e^{ikt}
    ch[1] += 1.0
    cyp = 1j * np.arange(len(ch)) * ch  # y'(t) = sum_k i k ch[k] e^{ikt}
    twists = _twist_table(len(ch))
    out = np.zeros(M)
    for lo in range(0, len(wq), block):
        twist = twists[lo:lo + block]
        # row b holds the curve and its derivative at t = phi_j + off_b
        y_off = M * np.fft.ifft(ch * twist, n=M, axis=-1)
        yp_off = M * np.fft.ifft(cyp * twist, n=M, axis=-1)
        diff = y_off - f
        P = diff.real * yp_off.imag - diff.imag * yp_off.real
        rho_nu = (diff.real**2 + diff.imag**2) ** (-0.5 * nu)
        out += wq[lo:lo + block] @ (P * rho_nu)
    return -out / (2.0 - nu)


# --------------------------------------------------------------------------
# particle-side quantities
# --------------------------------------------------------------------------

_PF_RADIAL = 64
_PF_ANGULAR = 128
# Least distance from the body to the particle for particle_force: closer,
# the integrand's near-singularity is no longer resolved by the 64 x 128 rule.
_PF_CLEARANCE = 0.3


def _body_rule(h: ShapeCoeffs):
    """The disk rule carried onto the body f(D): nodes f(y) and weights
    |f'(y)|^2 dA(y)."""
    r, y, wt = disk_rule(_PF_RADIAL, _PF_ANGULAR)
    fv, dfv = eval_h_polar(h, r, _PF_ANGULAR)
    return y + fv, np.abs(1.0 + dfv) ** 2 * wt


def particle_force(h: ShapeCoeffs, case, a: float,
                   component: int = 0) -> float:
    """Derivative of the body's attraction potential at the particle site
    (a, 0); component 0 is d/dx1, component 1 is d/dx2."""
    a = float(a)
    if a < _A0_MIN:
        raise ValueError(f"particle distance must be at least {_A0_MIN}")
    f, wf = _body_rule(h)
    if float(np.max(np.abs(f))) > a - _PF_CLEARANCE:
        raise TidaldiskError(
            "shape reaches too close to the particle for smooth quadrature")
    af = a - f  # the vector X - f(y) with X = (a, 0)
    num = af.real if component == 0 else af.imag
    if case.is_log:
        vals = num / np.abs(af) ** 2
    else:
        nu = case.nu
        vals = nu * num * np.abs(af) ** (-(nu + 2.0))
    return float(np.sum(vals * wf))


def center_of_mass(h: ShapeCoeffs, m: float, a: float):
    """(integral of x over the body + m X) / (pi + m), as a 2-vector."""
    f, wf = _body_rule(h)
    mom = np.sum(f * wf)
    total = mom + m * a
    return np.array([total.real, total.imag]) / (np.pi + m)


# --------------------------------------------------------------------------
# full residual
# --------------------------------------------------------------------------

def residual_F(h: ShapeCoeffs, a: float, lam: float, m: float,
               base: BaseState,
               n_radial: int = DEFAULT_RADIAL,
               n_angular: int = DEFAULT_ANGULAR,
               return_field: bool = False):
    """The three components of the reduced system at state (h, a, lam).

    Returns (S_res, r2, r3) where S_res is the boundary spectrum of the
    Bernoulli mismatch, r2 the particle-balance residual and r3 the volume
    residual; with return_field=True the stream-function field is appended.
    """
    r = _radial_basis(n_radial)[0].r
    phi0 = base.phi0(r) - base.phi0(1.0)  # base-state field, Dirichlet exact
    fieldv = solve_phi_h(h, base.profile, n_radial=n_radial,
                         n_angular=n_angular, u_init=phi0[:, None])
    dn = fieldv.boundary_normal_deriv()

    M = n_angular
    f, fp = eval_boundary(h, M)
    grad2 = dn ** 2 / np.abs(fp) ** 2  # tangential part vanishes (Dirichlet)

    u_self = boundary_potential(h, base.case, M)
    u_part = particle_potential_at(base.case, a, f)

    samples = (0.5 * grad2 - 0.5 * base.omega0**2 * np.abs(f) ** 2
               + u_self + m * u_part - lam)
    S_res = analyze(samples, N=min(h.N, M // 2 - 1))

    r2 = base.omega0**2 * a - particle_force(h, base.case, a)
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

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), **kw)

    def boundary_csv_rows(self, M: int = 512):
        f, _ = eval_boundary(self.h, M)
        return zip(boundary_grid(M), f.real, f.imag)


def _diagnostics(h: ShapeCoeffs, a: float, lam: float, m: float,
                 base: BaseState, S: BoundarySpectrum) -> dict:
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
        "injectivity_margin": injectivity_margin(h),
        "pressure_jump_sup": jump_sup,
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
    certified injective).  The default mass cap is a heuristic
    tied to the distance to resonance.
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
        S, r2, r3 = residual_F(h, base.a0, base.lambda0, 0.0, base,
                               n_radial, n_angular)
        rn = residual_norm(S, r2, r3)
        return EquilibriumSolution(h, base.a0, base.lambda0, 0.0, rn, 0,
                                   [rn], _diagnostics(h, base.a0,
                                                      base.lambda0, 0.0,
                                                      base, S))

    h1, a1, l1 = first_order_response(op, m)
    h = h1
    a = base.a0 + a1
    lam = base.lambda0 + l1

    history = []
    bad_streak = 0
    for it in range(1, max_iter + 1):
        if a < _A0_MIN:
            raise DivergenceError(
                f"iterate moved the particle to a={a:.6g}, inside the "
                f"admissible distance {_A0_MIN}", history=history)
        if injectivity_margin(h) <= 0:
            raise DivergenceError("iterate lost certified injectivity",
                                  history=history)
        S, r2, r3 = residual_F(h, a, lam, m, base, n_radial, n_angular)
        rn = residual_norm(S, r2, r3)
        history.append(rn)
        if rn < tol:
            return EquilibriumSolution(h, a, lam, m, rn, it, history,
                                       _diagnostics(h, a, lam, m, base, S))
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


# --------------------------------------------------------------------------
# pressure reconstruction
# --------------------------------------------------------------------------

def vorticity_primitive(profile: VorticityProfile, omega0: float,
                        n_gauss: int = 64):
    """Primitive F with F' = G + 2 omega0, F(0) = 0, as a callable."""
    xg, wg = leggauss(n_gauss)

    def F(u):
        u = np.asarray(u, dtype=float)
        s = 0.5 * (xg[None, :] + 1.0) * u[..., None]
        vals = np.asarray(profile.eval(s), dtype=float) + 2.0 * omega0
        return 0.5 * u * np.sum(vals * wg[None, :], axis=-1)

    return F


def pressure_on_boundary(fieldv: DiskField, h: ShapeCoeffs, lam: float,
                         base: BaseState) -> np.ndarray:
    """Interior pressure evaluated on the free boundary via the Bernoulli
    reconstruction P = F(psi) - (1/2)|grad psi|^2 + (Omega0^2/2)|x|^2 + lam;
    on the boundary psi = 0 and F(0) = 0."""
    dn = fieldv.boundary_normal_deriv()
    M = len(fieldv.phi)
    f, fp = eval_boundary(h, M)
    grad2 = dn ** 2 / np.abs(fp) ** 2
    Fprim = vorticity_primitive(base.profile, base.omega0)
    return (Fprim(np.zeros(M)) - 0.5 * grad2
            + 0.5 * base.omega0**2 * np.abs(f) ** 2 + lam)
