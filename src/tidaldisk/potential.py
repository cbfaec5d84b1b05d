"""Interaction potential of the unit disk and the unperturbed force balance.

Two families of attractive interactions are supported:

* case A: power-law kernel -1/|x-y|^nu with nu in (0, 1],
* case B: logarithmic kernel ln|x-y| (the 2D Newtonian potential).

The frozen :class:`InteractionCase` is the one kernel object: it holds
K(d) and what the rest of the package needs of the kernel in closed form.
Outside the disk the potential of either kernel is pi K(r) times a Gauss
hypergeometric function of r^-2 (for case A, expand |x-y|^-nu in binomial
series of y/r and conj(y)/r and integrate term by term over the disk; for
case B, p = 0, it is 1); u0, u0_d1 and u0_d2 are written once through K and
the force law.  Inside it is -(pi/2)(1 - r^2) for case B and a 2F1 of r^2
for case A.  Adaptive quadrature of the defining double integral, with a
graded Gauss-Legendre rule in the angular variable to absorb the integrable
kernel singularity, is kept only as the independent check of case A's
forms (verify criterion 9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gamma, hyp2f1

from . import radial_ode
from .errors import DegenerateBaseError, QuadratureError, TidaldiskError
from .kernel import VorticityProfile


# --------------------------------------------------------------------------
# interaction cases
# --------------------------------------------------------------------------

def sine_power_coeffs(s: float, k_max: int):
    """Fourier coefficients a_k of |2 sin(t/2)|^s, k = 0..k_max, for
    s > -2, as a_0 and the differences d_k = a_k - a_0.

    a_0 = Gamma(s+1) / Gamma(s/2+1)^2 and a_{k+1} / a_k =
    (k - s/2) / (k + 1 + s/2), so d_0 = 0 and
    d_{k+1} = d_k a_{k+1} / a_k - G / (k + 1 + s/2) with
    G = (s+1) a_0 = Gamma(s+2) / Gamma(s/2+1)^2.  The d_k stay finite at
    s = -1, where a_0 is infinite, and no Gamma function of k is formed (it
    overflows past k ~ 170).
    """
    hs = 0.5 * s
    k = np.arange(k_max, dtype=float)
    ratio = (k - hs) / (k + 1.0 + hs)
    step = gamma(s + 2.0) / gamma(hs + 1.0) ** 2 / (k + 1.0 + hs)
    d = np.zeros(k_max + 1)
    for j in range(k_max):
        d[j + 1] = d[j] * ratio[j] - step[j]
    return float(gamma(s + 1.0) / gamma(hs + 1.0) ** 2), d


def c_n_closed_log(n):
    """c_0 = pi/2 and c_n = (pi/2)(1 - 1/n); n may be an integer array."""
    n = np.asarray(n, dtype=float)
    c = np.pi / 2.0 * (1.0 - 1.0 / np.where(n == 0, np.inf, n))
    return c if c.ndim else float(c)


@dataclass(frozen=True)
class InteractionCase:
    """Which attraction kernel K is in force, and what follows from it in
    closed form.

    kind 'A' uses K(d) = -d^(-nu) with nu in (0, 1]; kind 'B' uses
    K(d) = ln d.  The case holds:

    - ``potential(d)``: K(d) itself;
    - ``force_law``: (strength, p) with K'(d) = strength * d^-(p+1), that
      is (1, 0) for the log and (nu, nu) for the power kernel;
    - ``u0_at_1``: the disk potential on the unit circle,
      pi K(1) Gamma(2-p) / Gamma(2-p/2)^2, so 0 for the log kernel;
    - ``coefficients(n_max)``: the linearization coefficients c_0..c_n_max.

    The power kernel's c_n and the boundary product rule
    (``residual._product_weights``) both take the Fourier coefficients of
    |2 sin(t/2)|^s from :func:`sine_power_coeffs`.
    """

    kind: str
    nu: float = 1.0

    def __post_init__(self):
        if self.kind not in ("A", "B"):
            raise ValueError(f"kind must be 'A' or 'B', got {self.kind!r}")
        if self.kind == "A" and not (0.0 < self.nu <= 1.0):
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")

    @property
    def is_log(self) -> bool:
        return self.kind == "B"

    def label(self) -> str:
        return "B" if self.is_log else f"A(nu={self.nu:g})"

    @property
    def force_law(self) -> tuple:
        """(strength, p) with K'(d) = strength * d^-(p+1)."""
        return (1.0, 0.0) if self.is_log else (self.nu, self.nu)

    def potential(self, d):
        """K(d), elementwise: ln d, or -d^-nu."""
        return np.log(d) if self.is_log else -d ** -self.nu

    @property
    def u0_at_1(self) -> float:
        """Interaction potential of the unit disk on the unit circle."""
        p = self.force_law[1]
        return float(np.pi * self.potential(1.0) * gamma(2.0 - p)
                     / gamma(2.0 - 0.5 * p) ** 2)

    def coefficients(self, n_max: int) -> np.ndarray:
        """Linearization coefficients c_0..c_n_max in closed form.

        Log: c_n_closed_log.  Power: c_0 = (2-nu) u0(1) / 2 and, for n >= 1,
        with d_m the differences of the Fourier coefficients of
        |2 sin(t/2)|^-nu (sine_power_coeffs at s = -nu),
        c_n = -pi/(2-nu) [(d_n - d_1) + (n+1)(d_n - d_{n+1})
                          - (nu/2)(d_n - d_1 - d_{n+1})].
        """
        n = np.arange(n_max + 1)
        if self.is_log:
            return c_n_closed_log(n)
        nu = self.nu
        _, d = sine_power_coeffs(-nu, n_max + 1)
        dn, dn1 = d[1:-1], d[2:]
        c = np.empty(n_max + 1)
        c[0] = 0.5 * (2.0 - nu) * self.u0_at_1
        c[1:] = -np.pi / (2.0 - nu) * (
            (dn - d[1]) + (n[1:] + 1.0) * (dn - dn1)
            - 0.5 * nu * (dn - d[1] - dn1))
        return c


def case_a(nu: float = 1.0) -> InteractionCase:
    return InteractionCase("A", float(nu))


def case_b() -> InteractionCase:
    return InteractionCase("B")


# --------------------------------------------------------------------------
# graded angular rule
# --------------------------------------------------------------------------

def graded_panels(a: float, b: float, levels: int, toward_a: bool = True):
    """Dyadically graded panel edges on [a, b], refined toward one endpoint."""
    edges = [b if toward_a else a]
    length = b - a
    for k in range(1, levels + 1):
        frac = length * 0.5**k
        edges.append(a + frac if toward_a else b - frac)
    edges.append(a if toward_a else b)
    edges = np.array(sorted(edges))
    return edges


def panel_rule(edges: np.ndarray, n_gauss: int):
    """Gauss-Legendre nodes/weights on each panel, concatenated."""
    xg, wg = leggauss(n_gauss)
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


_ANGULAR_LEVELS = 42
_ANGULAR_GAUSS = 14
_phi_nodes, _phi_weights = panel_rule(
    graded_panels(0.0, np.pi, _ANGULAR_LEVELS, toward_a=True), _ANGULAR_GAUSS
)


def _ring_kernel(r: float, s: np.ndarray, nu: float) -> np.ndarray:
    """Angular integral over a ring of radius s of the power kernel,
    2 * int_0^pi ((r-s)^2 + 4 r s sin^2(phi/2))^(-nu/2) dphi."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    c = np.cos(_phi_nodes)
    q = r * r + s[:, None] ** 2 - 2.0 * r * s[:, None] * c[None, :]
    q = np.maximum(q, 1e-300)
    return 2.0 * q ** (-nu / 2.0) @ _phi_weights


def _u0_case_a(r: float, nu: float) -> float:
    """-int_D |x-y|^(-nu) dy for |x| = r, by radial adaptive quadrature of
    the ring contributions.  A reference for u0's closed forms only (verify
    criterion 9, tests); it stalls just inside r = 1 for nu near 1."""

    def integrand(s):
        return float(s * _ring_kernel(r, s, nu)[0])

    points = [r] if 0.0 < r < 1.0 else None
    val, err = quad(integrand, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10,
                    limit=300, points=points)
    if err > 5e-9 * max(1.0, abs(val)):
        raise QuadratureError(
            f"disk potential quadrature stalled at r={r} (err={err:.2e})",
            achieved=err,
        )
    return -val


def u0(case: InteractionCase, r: float) -> float:
    """Interaction potential of the unit disk at distance r from its center.

    Outside the body, r > 1: with (s, p) the case's force law, a = p/2 and
    x = r^-2, u0 = pi K(r) 2F1(a, a; 2; x) (DLMF 15.2.1), and by
    d/dx 2F1 (DLMF 15.5.1) u0' = pi s r^-(p+1) 2F1(a, a+1; 2; x) and
    u0'' = -pi s [(p+1) r^-(p+2) 2F1(a, a+1; 2; x)
                  + a(a+1) r^-(p+4) 2F1(a+1, a+2; 3; x)];
    at p = 0 these are pi ln r, pi / r and -pi / r^2.  Inside, r <= 1:
    -(pi/2)(1 - r^2) (log) or -(2 pi/(2-nu)) 2F1(a, a-1; 1; r^2) (power,
    the Riesz potential of the disk).  At r = 1 both power forms are
    Gauss's sum (DLMF 15.4.20), case.u0_at_1.
    """
    r = float(r)
    if r < 0:
        raise ValueError("r must be non-negative")
    if r > 1.0:
        a = 0.5 * case.force_law[1]
        return float(np.pi * case.potential(r) * hyp2f1(a, a, 2.0, r ** -2))
    if case.is_log:
        return -np.pi / 2.0 * (1.0 - r * r)
    nu, a = case.nu, 0.5 * case.nu
    return float(-2.0 * np.pi / (2.0 - nu) * hyp2f1(a, a - 1.0, 1.0, r * r))


def u0_d1(case: InteractionCase, r: float) -> float:
    """Radial derivative of the disk potential, exterior points only."""
    r = float(r)
    if r <= 1.0:
        raise ValueError(f"u0_d1 is defined for r > 1, got r={r}")
    s, p = case.force_law
    a = 0.5 * p
    return float(np.pi * s * r ** -(p + 1.0) * hyp2f1(a, a + 1.0, 2.0, r ** -2))


def u0_d2(case: InteractionCase, r: float) -> float:
    """Second radial derivative of the disk potential, exterior points only."""
    r = float(r)
    if r <= 1.0:
        raise ValueError(f"u0_d2 is defined for r > 1, got r={r}")
    s, p = case.force_law
    a = 0.5 * p
    x = r ** -2
    return float(-np.pi * s * r ** -(p + 2.0) * (
        (p + 1.0) * hyp2f1(a, a + 1.0, 2.0, x)
        + a * (a + 1.0) * x * hyp2f1(a + 1.0, a + 2.0, 3.0, x)))


# --------------------------------------------------------------------------
# force balance of the external particle
# --------------------------------------------------------------------------

def omega_from_a0(case: InteractionCase, a0: float) -> float:
    """Angular speed balancing centrifugal and attractive force at distance
    a0: omega^2 * a0 = U0'(a0)."""
    a0 = float(a0)
    if a0 <= 1.0:
        raise ValueError("a0 must exceed 1")
    return float(np.sqrt(u0_d1(case, a0) / a0))


_A0_MIN = 1.5
_A0_MAX = 1e6


def check_omega0(case: InteractionCase, omega0: float) -> None:
    """Raise ValueError, with the range reported, unless omega0 lies in the
    image (omega(1e6), omega(1.5)] of the admissible particle distances.
    The lower end a0 = 1.5 keeps the particle at a positive distance from
    the fluid body."""
    hi_omega = omega_from_a0(case, _A0_MIN)
    lo_omega = omega_from_a0(case, _A0_MAX)
    if not (lo_omega < omega0 <= hi_omega):
        raise ValueError(
            f"omega0={omega0:g} outside the admissible interval "
            f"({lo_omega:.3e}, {hi_omega:.6f}] for case {case.label()}"
        )


def a0_from_omega(case: InteractionCase, omega0: float) -> float:
    """Invert the omega(a0) relation by Brent's method on [1.5, 1e6].

    The map is strictly decreasing, so the inverse is well defined; requests
    outside the admissible range are rejected by check_omega0.
    """
    omega0 = float(omega0)
    check_omega0(case, omega0)

    def f(a):
        return omega_from_a0(case, a) - omega0

    a0 = brentq(f, _A0_MIN, _A0_MAX, xtol=1e-13, rtol=8.9e-16)
    if abs(omega_from_a0(case, a0) - omega0) >= 1e-12:
        raise QuadratureError("a0_from_omega failed to meet its tolerance")
    return float(a0)


def particle_potential_at(case: InteractionCase, a: float,
                          pts: np.ndarray) -> np.ndarray:
    """Potential of the unit point mass at (a, 0), evaluated at pts."""
    return case.potential(np.abs(pts - a))


# --------------------------------------------------------------------------
# base state
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BaseState:
    """The unperturbed (zero-mass) rotating configuration.

    The fluid body is the unit disk with radial stream profile phi0; the
    particle sits at (a0, 0) and the rotation speed makes it force free.
    It hashes by identity: radial_ode.mode_profiles caches per base object,
    so two bases of one profile never share a table.
    """

    case: InteractionCase
    omega0: float
    a0: float
    lambda0: float
    phi0: radial_ode.RadialProfile
    profile: VorticityProfile

    @property
    def dphi0_at_1(self) -> float:
        return self.phi0.deriv_at_1

    @property
    def g_at_boundary(self) -> float:
        """G(0), the vorticity on the boundary, where phi0 vanishes."""
        return float(self.profile.eval(0.0))

    @property
    def constant_g(self) -> Optional[float]:
        """G0 = G(0) where G is G0 on phi0's range, and otherwise None: the
        base's one constant-G decision, made by solve_phi0 when it took
        phi0 in closed form.  The mode table and the first-order field
        read it; residual_F's flux tests its own, shape-dependent range."""
        return self.g_at_boundary if self.phi0.solver == "closed_form" else None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "case": self.case.kind,
            "nu": self.case.nu,
            "omega0": self.omega0,
            "a0": self.a0,
            "lambda0": self.lambda0,
            "dphi0_at_1": self.dphi0_at_1,
            "phi0_solver": self.phi0.solver,
            "phi0_mismatch": self.phi0.residual,
            "g_at_boundary": self.g_at_boundary,
            "u0_at_1": self.case.u0_at_1,
            "profile": self.profile.name,
            "phi0_nodes": list(map(float, self.phi0.nodes)),
            "phi0_values": list(map(float, self.phi0.values)),
        }


DEGENERATE_TOL = 1e-9


def make_base_state(case: InteractionCase, a0: float, profile: VorticityProfile) -> BaseState:
    """Assemble the zero-mass solution for a particle at distance a0 >= 1.5."""
    a0 = float(a0)
    if a0 < _A0_MIN:
        raise ValueError(
            f"a0 must be at least {_A0_MIN} (particle clear of the body)")
    omega0 = omega_from_a0(case, a0)
    # looked up on the module at call time, so that a wrapper installed
    # as radial_ode.solve_phi0 (perfbench/tracing.py) takes effect
    phi0 = radial_ode.solve_phi0(profile)
    dphi1 = phi0.deriv_at_1
    if abs(dphi1) < DEGENERATE_TOL:
        raise DegenerateBaseError(
            f"phi0'(1) = {dphi1:.3e} vanishes; the stream profile is degenerate"
        )
    lambda0 = 0.5 * dphi1 * dphi1 - 0.5 * omega0 * omega0 + case.u0_at_1
    if not (np.isfinite(dphi1) and np.isfinite(lambda0)):
        raise TidaldiskError(
            f"the base state overflows: phi0'(1) = {dphi1:.3e}, "
            f"lambda0 = {lambda0:.3e}")
    return BaseState(
        case=case,
        omega0=omega0,
        a0=a0,
        lambda0=lambda0,
        phi0=phi0,
        profile=profile,
    )
