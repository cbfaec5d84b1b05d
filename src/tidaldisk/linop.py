"""Linearized operator at the base point, resonance scan and inversion.

At the unperturbed state the linearization of the full system acts
diagonally on boundary Fourier modes through the multipliers omega_n,
with one scalar equation for the particle offset b and one for the
Bernoulli constant mu.  Inversion follows the explicit recipe:

    g0_hat = M / (2 pi),
    mu     = 2 omega_0 g0_hat - S_0,
    gn_hat = S_n / omega_n        (n >= 1),
    b      = (Z + W[g]) / particle_diag.

Here 2 pi is the derivative of the area pi (1 + g0)^2 + ... in the g0
direction at the disk, and W[g] is the shape derivative of the attraction
force on the particle.  By Hadamard's formula it is a boundary integral at
the disk, and so a fixed linear functional of the shape coefficients whose
weights one FFT gives when the operator is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coeffs import (DEFAULT_N_MODES, ModeTable, build_mode_table,
                     multiplier_terms)
from .errors import DegenerateBaseError, ResonanceError
from .potential import BaseState, particle_potential_at, u0_d2
# eval_h_at is not called here; perfbench/tracing.py wraps it under this name
from .spectral import (BoundarySpectrum, ShapeCoeffs, analyze, boundary_grid,
                       boundary_points, eval_h_at)

_RESONANCE_TOL = 1e-8


@dataclass
class LinearizedOperator:
    """Frozen derivative of the full map at the base state."""

    base: BaseState
    table: ModeTable
    particle_diag: float  # omega0^2 - U0''(a0), the radial Hessian entry
    w_weights: np.ndarray  # W[g] = w_0 g0 + sum_n w_n Re g_n, n = 1..N

    @property
    def N(self) -> int:
        return self.table.N


def make_operator(base: BaseState, table: Optional[ModeTable] = None,
                  N: int = DEFAULT_N_MODES,
                  workers: int = 1) -> LinearizedOperator:
    """Frozen linearization at ``base``, building the N-mode table unless one
    is given; ``workers`` is passed on to ``build_mode_table``, where it has
    no effect."""
    if table is None:
        table = build_mode_table(base, N=N, workers=workers)
    # The b-equation divides by the second radial derivative of the
    # effective particle potential, omega0^2 - U0''(a0).  U0'' < 0 outside
    # the body, so this is positive.
    diag = base.omega0**2 - u0_d2(base.case, base.a0)
    if diag <= 0:
        raise DegenerateBaseError(
            f"particle diagonal omega0^2 - U0''(a0) = {diag:.3e} is not positive")
    return LinearizedOperator(base=base, table=table, particle_diag=diag,
                              w_weights=_w_weights(base, table.N))


# --------------------------------------------------------------------------
# resonance scan
# --------------------------------------------------------------------------

def resonant_modes(table: ModeTable) -> list:
    """The modes 1 <= n <= N with |omega_n| < _RESONANCE_TOL, ascending."""
    small = np.abs(table.omega[1:]) < _RESONANCE_TOL
    return [int(n) for n in np.flatnonzero(small) + 1]


def check_resonances(table: ModeTable):
    """Raise ResonanceError at the lowest resonant mode, if there is one."""
    bad = resonant_modes(table)
    if bad:
        raise ResonanceError(bad[0], table.omega[bad[0]])


def nonresonance_scan(op: LinearizedOperator) -> dict:
    """Report min_n |omega_n| for 1 <= n <= N and a tail certificate.

    The certificate records the first index n_T from which the leading term
    -(1/2) phi0'(1)^2 (n+1) dominates the sum of the magnitudes of the
    other three terms of omega_n; past that point omega_n cannot vanish,
    and the dominance only improves with n.
    """
    t = op.table
    om = t.omega[1:]
    n_arr = np.arange(1, t.N + 1)
    min_idx = int(np.argmin(np.abs(om)))

    t1, t2, t3, t4 = multiplier_terms(op.base, n_arr, t.a_deriv[1:], t.c[1:])
    lead = -t1
    rest = -t3 + np.abs(t2) + np.abs(t4)
    dominated = lead > rest
    # the tail starts after the last mode that is not dominated
    run = int(np.cumprod(dominated[::-1]).sum())
    tail_from = t.N - run + 1 if run else None

    return {
        "schema_version": 1,
        "N": t.N,
        "min_abs_omega": float(np.min(np.abs(om))),
        "argmin_n": int(n_arr[min_idx]),
        "tail_certified_from": tail_from,
        "resonances": resonant_modes(t),
    }


# --------------------------------------------------------------------------
# shape derivative of the particle force
# --------------------------------------------------------------------------

def _w_weights(base: BaseState, N: int) -> np.ndarray:
    """Weights w_0..w_N of W[g] at the disk, by one FFT.

    Hadamard's formula moves the boundary with normal speed
    Re(g(e^{it}) e^{-it}) = g0 + Re sum_n g_n e^{int}, so
    W[g] = int k(t) Re(g(e^{it}) e^{-it}) dt with k the x1-derivative of the
    attraction at the particle, strength (a0 - cos t) |a0 - e^{it}|^-(p+2).
    k is even, so W[g] = w_0 g0 + sum_n w_n Re g_n with w_n = int k cos(nt)
    dt, here 2 pi Re rfft(k)_n / M on M = boundary_points(N) points.
    """
    M = boundary_points(N)
    z = np.exp(1j * boundary_grid(M))
    strength, p = base.case.force_law
    k = strength * (base.a0 - z.real) * np.abs(base.a0 - z) ** (-(p + 2.0))
    w = 2.0 * np.pi / M * np.fft.rfft(k)[:N + 1].real
    w.setflags(write=False)
    return w


def w_shape_derivative(op: LinearizedOperator, g: ShapeCoeffs) -> float:
    """W[g]: derivative of d/dx1 of the attraction potential at the particle
    with respect to the shape, at the disk; one dot product with the
    weights of _w_weights.  Shapes beyond the table truncation are
    rejected."""
    if g.N > op.N:
        raise ValueError("shape truncation exceeds the operator table")
    w = op.w_weights
    return float(w[0] * g.g0 + w[1:g.N + 1] @ g.gn.real)


# --------------------------------------------------------------------------
# inversion and forward application
# --------------------------------------------------------------------------

def solve_linearized(op: LinearizedOperator, S: BoundarySpectrum,
                     Z: float, M: float):
    """Invert the frozen linearization for right-hand side (S, Z, M).

    Returns (g, b, mu).  S beyond the table truncation is rejected.
    """
    if S.N > op.N:
        raise ValueError("spectrum truncation exceeds the operator table")
    t = op.table
    check_resonances(t)

    g0 = M / (2.0 * np.pi)
    gn = np.zeros(op.N, dtype=complex)
    upto = S.N
    gn[:upto] = S.coeffs[1:upto + 1] / t.omega[1:upto + 1]
    g = ShapeCoeffs(g0, gn)
    mu = 2.0 * t.omega[0] * g0 - float(S.coeffs[0].real)
    b = (Z + w_shape_derivative(op, g)) / op.particle_diag
    return g, float(b), float(mu)


def apply_forward(op: LinearizedOperator, g: ShapeCoeffs, b: float, mu: float):
    """Forward action (g, b, mu) -> (S, Z, M) of the frozen linearization."""
    if g.N > op.N:
        raise ValueError("shape truncation exceeds the operator table")
    t = op.table
    coeffs = np.zeros(g.N + 1, dtype=complex)
    coeffs[0] = 2.0 * t.omega[0] * g.g0 - mu
    coeffs[1:] = t.omega[1:g.N + 1] * g.gn
    S = BoundarySpectrum(coeffs)
    Z = op.particle_diag * b - w_shape_derivative(op, g)
    M = 2.0 * np.pi * g.g0
    return S, float(Z), float(M)


# --------------------------------------------------------------------------
# first-order response in the mass parameter
# --------------------------------------------------------------------------

def particle_source_spectrum(op: LinearizedOperator) -> BoundarySpectrum:
    z = np.exp(1j * boundary_grid(boundary_points(op.N)))
    return analyze(particle_potential_at(op.base.case, op.base.a0, z), N=op.N)


def first_order_response(op: LinearizedOperator, m: float):
    """Leading-order (h, a-offset, lambda-offset) at small mass m.

    The mass enters the boundary equation through + m * (particle potential
    on the deformed boundary); the first-order correction solves the frozen
    linearization against minus that source.
    """
    S_m = particle_source_spectrum(op)
    g, b, mu = solve_linearized(op, S_m, 0.0, 0.0)
    h1 = g.scaled(-m)
    return h1, -m * b, -m * mu
