"""Linearization coefficients of the interaction potential.

The boundary perturbation of the self-attraction enters the linearized
free-boundary operator through one real coefficient c_n per Fourier mode.
The case object holds them in closed form (InteractionCase.coefficients):
pi/2 (1 - 1/n) for the logarithmic kernel, and for the power kernel a
combination of the Fourier coefficients of |2 sin(t/2)|^-nu.  This module
adds the checks they are held against:

* direct graded quadrature of the defining disk integral (moderate n),
  written once for both kernels through the case's K and force law, used
  by verify criterion 1 and the tests,
* the kernel moments m_k = (1/2) int_D y^k |1-y|^(-nu) dy, a ratio of
  Gamma functions by Gauss's sum of their binomial series, from which
  c_n = nu * sum_{k<=n} m_k - 2(n+1) m_n; the tests use it for large n,
* the digamma form of c_n at nu = 1, where c_n grows like ln n (verify
  criterion 4).

The module also assembles the per-mode multiplier table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gamma

from .chebyshev import DEFAULT_RADIAL
from .errors import QuadratureError
# c_n_closed_log is defined with the case object and kept importable here
from .potential import (InteractionCase, BaseState, c_n_closed_log,
                        graded_panels, panel_rule)
# solve_An is not called here; perfbench/tracing.py wraps it under this name
from .radial_ode import mode_derivatives, solve_An

DEFAULT_N_MODES = 256


# --------------------------------------------------------------------------
# direct disk quadrature
# --------------------------------------------------------------------------

def _disk_rule(n: int, radial_levels=36, angular_levels=36, n_gauss=12):
    """Polar product rule on the unit disk, graded toward the singular
    boundary point (r, phi) = (1, 0) and refined to resolve mode n."""
    r_edges = graded_panels(0.0, 1.0, radial_levels, toward_a=False)
    rn, rw = panel_rule(r_edges, n_gauss)

    half = graded_panels(0.0, np.pi, angular_levels, toward_a=True)
    # subdivide to track the oscillation of y^n
    max_len = np.pi / max(n, 4)
    edges = [0.0]
    for a, b in zip(half[:-1], half[1:]):
        pieces = max(1, int(np.ceil((b - a) / max_len)))
        edges.extend(np.linspace(a, b, pieces + 1)[1:])
    half = np.array(edges)
    full = np.concatenate([half, 2.0 * np.pi - half[::-1][1:]])
    pn, pw = panel_rule(full, n_gauss)
    return rn, rw, pn, pw


def c_n_disk_quadrature(case: InteractionCase, n,
                        imag_tol: float = 1e-9):
    """Graded quadrature of the defining disk integral for c_n.

    n is one integer or an array of them; all share the rule of the largest.
    With y = r e^{i phi}, K the case's kernel and (s, p) its force law, the
    integrand is (n + 1) y^n K(|1 - y|) + (s/2) sum_{k<=n} y^k |1 - y|^-p,
    so every c_n is a combination of the moments mom(F)_k = sum w F y^k,
    k <= max n, of F = K and F = |1 - y|^-p.  y^k splits into r^k times
    e^{ik phi}, and each set of moments is one matrix product over the rule;
    the sums over k <= n are cumulative sums.

    Returns the real part (a float for scalar n); a non-negligible imaginary
    residue at any n indicates a quadrature failure and is reported as such.
    """
    ns = np.asarray(n)
    k = np.arange(int(np.max(ns)) + 1)
    rn, rw, pn, pw = _disk_rule(int(k[-1]))
    dist = np.hypot(1.0 - rn[:, None] * np.cos(pn), rn[:, None] * np.sin(pn))
    radial = (rn * rw)[:, None] * rn[:, None] ** k        # r dr r^k
    angle = pw[:, None] * np.exp(1j * np.outer(pn, k))    # dphi e^{ik phi}

    def mom(F):
        return np.sum(radial * (F @ angle), axis=0)

    strength, p = case.force_law
    vals = ((k + 1) * mom(case.potential(dist))
            + 0.5 * strength * np.cumsum(mom(dist ** -p)))
    vals = vals[ns]
    residue = float(np.max(np.abs(vals.imag)))
    if residue > imag_tol:
        raise QuadratureError(
            f"c_n quadrature imaginary residue {residue:.2e} exceeds {imag_tol:g}",
            achieved=residue,
        )
    return vals.real if ns.ndim else float(vals.real)


# --------------------------------------------------------------------------
# moment decomposition (power-law case)
# --------------------------------------------------------------------------

def kernel_moments(nu: float, n_max: int) -> np.ndarray:
    """Moments m_k = (1/2) int_D y^k |1-y|^(-nu) dy for k = 0..n_max.

    Expanding |1-y|^(-nu) as a product of binomial series in y and conj(y)
    and integrating term by term over the disk leaves
    m_k = pi sum_p a_p a_{p+k} / (2p + 2k + 2), a_p = (nu/2)_p / p!, a
    Gauss hypergeometric series at 1 (DLMF 15.4.20).  With a = nu/2 it sums
    to m_k = (pi/2) Gamma(2-nu) / (Gamma(a) Gamma(2-a))
    * Gamma(k+a) / Gamma(k+2-a), so m_0 = (pi/2) Gamma(2-nu) / Gamma(2-a)^2
    = -u0(1)/2 and m_{k+1} / m_k = (k+a) / (k+2-a).  The product of the
    ratios is accurate to 3e-14 for k <= 512; scipy's poch for the Gamma
    ratio is off by up to 1e-12 there.
    """
    a = 0.5 * nu
    k = np.arange(n_max, dtype=float)
    factors = np.empty(n_max + 1)
    factors[0] = 0.5 * np.pi * gamma(2.0 - nu) / gamma(2.0 - a) ** 2
    factors[1:] = (k + a) / (k + 2.0 - a)
    return np.cumprod(factors)


def c_n_digamma_nu1(n):
    """c_n at nu = 1 by digamma functions; n may be an integer array.

    There the d_k of |2 sin(t/2)|^-1 are -(psi(k+1/2) - psi(1/2))/pi, and
    c_n = (psi(n+1/2) + psi(n+3/2))/2 + gamma + 2 ln 2 - 1 - (n+1)/(n+1/2),
    c_0 = -2 included.  So c_n - ln n tends to gamma + 2 ln 2 - 2, and
    c_n / ln n to 1.
    """
    n = np.asarray(n, dtype=float)
    c = (0.5 * (digamma(n + 0.5) + digamma(n + 1.5)) + np.euler_gamma
         + 2.0 * np.log(2.0) - 1.0 - (n + 1.0) / (n + 0.5))
    return c if c.ndim else float(c)


def c_n(case: InteractionCase, n: int) -> float:
    """Single linearization coefficient, from the case's closed form."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return float(case.coefficients(n)[n])


# --------------------------------------------------------------------------
# mode table
# --------------------------------------------------------------------------

@dataclass
class ModeTable:
    """Per-mode data of the linearized boundary operator up to truncation N.

    Every array runs over n = 0..N (length N+1); omega[n] depends on |n|
    only, and negative modes are implied.
    """

    N: int
    a_deriv: np.ndarray          # A_n'(1)
    c: np.ndarray                # c_n
    omega: np.ndarray            # omega_n

    def to_csv_rows(self):
        return zip(range(self.N + 1), self.a_deriv, self.c, self.omega)


def multiplier_terms(base: BaseState, n, a_deriv_n, c_abs_n):
    """The four terms whose sum is the multiplier omega_n:
    -(1/2) phi0'(1)^2 (|n|+1), phi0'(1) A_n'(1) (|n|+1), -(1/2) omega0^2
    and c_n.  Scalars or equal-length arrays over n.
    """
    n = abs(n)
    dp = base.dphi0_at_1
    return (-0.5 * dp * dp * (n + 1), dp * a_deriv_n * (n + 1),
            -0.5 * base.omega0**2, c_abs_n)


def multiplier(base: BaseState, n, a_deriv_n, c_abs_n):
    """Fourier multiplier omega_n of mode n of the linearized boundary
    condition: the sum of multiplier_terms, left to right."""
    t1, t2, t3, t4 = multiplier_terms(base, n, a_deriv_n, c_abs_n)
    return t1 + t2 + t3 + t4


def build_mode_table(base: BaseState, N: int = DEFAULT_N_MODES,
                     n_nodes: int = DEFAULT_RADIAL, workers: int = 1) -> ModeTable:
    """Assemble A_n'(1), c_n and omega_n for n = 0..N.

    The mode derivatives share one half-diameter grid of n_nodes radii and
    one set of G(phi0) tables.  The c_n are the case's closed form
    (InteractionCase.coefficients); the direct quadrature and the moment
    route check them in the tests.
    ``workers`` is accepted and has no effect: the table is built in one
    thread, which measured faster than a thread pool.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    derivs = mode_derivatives(base, N, n_nodes=n_nodes)
    c = base.case.coefficients(N)
    omega = multiplier(base, np.arange(N + 1), derivs, c)
    return ModeTable(N=N, a_deriv=derivs, c=c, omega=omega)
