"""Interaction potential of the unit disk and the unperturbed force balance.

Two families of attractive interactions are supported:

* case A: power-law kernel -1/|x-y|^nu with nu in (0, 1],
* case B: logarithmic kernel ln|x-y| (the 2D Newtonian potential).

For case B everything is in closed form.  For case A the radial potential of
the unit disk and its derivatives are evaluated by adaptive quadrature of the
defining double integral, with a graded Gauss-Legendre rule in the angular
variable to absorb the integrable kernel singularity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import DegenerateBaseError, QuadratureError
from .kernel import VorticityProfile


# --------------------------------------------------------------------------
# interaction cases
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class InteractionCase:
    """Which attraction kernel is in force.

    kind 'A' uses -|x-y|^(-nu) with nu in (0, 1]; kind 'B' the log kernel.
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


def _ring_kernel(r: float, s: np.ndarray, nu: float, d_order: int = 0) -> np.ndarray:
    """Angular integral over a ring of radius s of the power kernel and its
    radial derivatives: 2 * int_0^pi ((r-s)^2 + 4 r s sin^2(phi/2))^(-nu/2) dphi
    (d_order = 0), and d/dr, d2/dr2 of the same for d_order = 1, 2."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    c = np.cos(_phi_nodes)
    q = r * r + s[:, None] ** 2 - 2.0 * r * s[:, None] * c[None, :]
    q = np.maximum(q, 1e-300)
    if d_order == 0:
        f = q ** (-nu / 2.0)
    elif d_order == 1:
        f = -nu * (r - s[:, None] * c[None, :]) * q ** (-(nu + 2.0) / 2.0)
    elif d_order == 2:
        rc = r - s[:, None] * c[None, :]
        f = -nu * q ** (-(nu + 2.0) / 2.0) \
            + nu * (nu + 2.0) * rc * rc * q ** (-(nu + 4.0) / 2.0)
    else:
        raise ValueError("d_order must be 0, 1 or 2")
    return 2.0 * f @ _phi_weights


def _u0_case_a(r: float, nu: float, d_order: int = 0, tol: float = 1e-10) -> float:
    """-(d/dr)^k of int_D |x-y|^(-nu) dy for |x| = r, by radial adaptive
    quadrature of the ring contributions."""

    def integrand(s):
        return float(s * _ring_kernel(r, s, nu, d_order)[0])

    points = [r] if 0.0 < r < 1.0 else None
    val, err = quad(integrand, 0.0, 1.0, epsabs=tol, epsrel=tol,
                    limit=300, points=points)
    if err > 50 * max(tol, 1e-12) * max(1.0, abs(val)):
        raise QuadratureError(
            f"disk potential quadrature stalled at r={r} (err={err:.2e})",
            achieved=err,
        )
    return -val


def u0(case: InteractionCase, r: float) -> float:
    """Interaction potential of the unit disk at distance r from its center."""
    r = float(r)
    if r < 0:
        raise ValueError("r must be non-negative")
    if case.is_log:
        if r <= 1.0:
            return -np.pi / 2.0 * (1.0 - r * r)
        return np.pi * np.log(r)
    return _u0_case_a(r, case.nu, d_order=0)


def u0_d1(case: InteractionCase, r: float) -> float:
    """Radial derivative of the disk potential, exterior points only."""
    r = float(r)
    if r <= 1.0:
        raise ValueError(f"u0_d1 is defined for r > 1, got r={r}")
    if case.is_log:
        return np.pi / r
    return _u0_case_a(r, case.nu, d_order=1)


def u0_d2(case: InteractionCase, r: float) -> float:
    """Second radial derivative of the disk potential, exterior points only."""
    r = float(r)
    if r <= 1.0:
        raise ValueError(f"u0_d2 is defined for r > 1, got r={r}")
    if case.is_log:
        return -np.pi / (r * r)
    return _u0_case_a(r, case.nu, d_order=2)


# --------------------------------------------------------------------------
# series representation (validation path, case A with nu = 1)
# --------------------------------------------------------------------------

def u0_series_raw(r: float, n_terms: int = 4000) -> float:
    """Wallis-coefficient series for the disk potential at nu = 1, as an
    uncalibrated shape: the overall constant is fixed against the quadrature
    path by :func:`u0_series_calibration`."""
    k = np.arange(n_terms, dtype=float)
    # W_{2k} = pi/2 * (2k-1)!!/(2k)!!, computed stably via a running product
    w = np.empty(n_terms)
    w[0] = np.pi / 2.0
    if n_terms > 1:
        ratio = (2.0 * k[1:] - 1.0) / (2.0 * k[1:])
        w[1:] = np.pi / 2.0 * np.cumprod(ratio)
    w2 = w * w
    r = float(r)
    if r >= 1.0:
        terms = w2 / (2.0 * k + 2.0) * r ** (-(2.0 * k + 1.0))
        return -4.0 / np.pi**2 * terms.sum()
    denom = 2.0 * k - 1.0
    terms = w2 * (r / (2.0 * k + 2.0) + r / denom - r ** (2.0 * k) / denom)
    return -4.0 / np.pi**2 * terms.sum()


def u0_series_calibration(r_ref: float = 2.0) -> float:
    """Constant relating the raw series to the quadrature value of the
    nu = 1 disk potential (resolved numerically rather than trusted)."""
    return u0(case_a(1.0), r_ref) / u0_series_raw(r_ref)


def u0_series(r: float, factor: Optional[float] = None) -> float:
    """Calibrated series evaluation of the nu = 1 disk potential."""
    if factor is None:
        factor = u0_series_calibration()
    return factor * u0_series_raw(r)


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


def a0_from_omega(case: InteractionCase, omega0: float, tol: float = 1e-12) -> float:
    """Invert the omega(a0) relation by Brent's method on [1.5, 1e6].

    The map is strictly decreasing, so the inverse is well defined; requests
    outside the admissible range are rejected by check_omega0.
    """
    omega0 = float(omega0)
    check_omega0(case, omega0)

    def f(a):
        return omega_from_a0(case, a) - omega0

    a0 = brentq(f, _A0_MIN, _A0_MAX, xtol=1e-13, rtol=8.9e-16)
    if abs(omega_from_a0(case, a0) - omega0) >= tol:
        raise QuadratureError("a0_from_omega failed to meet its tolerance")
    return float(a0)


def particle_potential_at(case: InteractionCase, a: float,
                          pts: np.ndarray) -> np.ndarray:
    """Potential of the unit point mass at (a, 0), evaluated at pts."""
    d = np.abs(pts - a)
    if case.is_log:
        return np.log(d)
    return -d ** (-case.nu)


# --------------------------------------------------------------------------
# base state
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseState:
    """The unperturbed (zero-mass) rotating configuration.

    The fluid body is the unit disk with radial stream profile phi0; the
    particle sits at (a0, 0) and the rotation speed makes it force free.
    """

    case: InteractionCase
    omega0: float
    a0: float
    lambda0: float
    phi0: "RadialProfile"  # noqa: F821 - see radial_ode
    dphi0_at_1: float
    g_at_boundary: float
    profile: VorticityProfile
    u0_at_1: float

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "case": self.case.kind,
            "nu": self.case.nu,
            "omega0": self.omega0,
            "a0": self.a0,
            "lambda0": self.lambda0,
            "dphi0_at_1": self.dphi0_at_1,
            "g_at_boundary": self.g_at_boundary,
            "u0_at_1": self.u0_at_1,
            "profile": self.profile.name,
            "phi0_nodes": list(map(float, self.phi0.nodes)),
            "phi0_values": list(map(float, self.phi0.values)),
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), **kw)


DEGENERATE_TOL = 1e-9


def make_base_state(case: InteractionCase, a0: float, profile: VorticityProfile) -> BaseState:
    """Assemble the zero-mass solution for a particle at distance a0 >= 1.5."""
    from .radial_ode import solve_phi0  # local import avoids a cycle

    a0 = float(a0)
    if a0 < _A0_MIN:
        raise ValueError(
            f"a0 must be at least {_A0_MIN} (particle clear of the body)")
    omega0 = omega_from_a0(case, a0)
    phi0 = solve_phi0(profile)
    dphi1 = phi0.deriv_at_1
    if abs(dphi1) < DEGENERATE_TOL:
        raise DegenerateBaseError(
            f"phi0'(1) = {dphi1:.3e} vanishes; the stream profile is degenerate"
        )
    u0_at_1 = u0(case, 1.0)
    lambda0 = 0.5 * dphi1 * dphi1 - 0.5 * omega0 * omega0 + u0_at_1
    return BaseState(
        case=case,
        omega0=omega0,
        a0=a0,
        lambda0=lambda0,
        phi0=phi0,
        dphi0_at_1=dphi1,
        g_at_boundary=float(profile.eval(0.0)),
        profile=profile,
        u0_at_1=u0_at_1,
    )
