"""Vorticity function G of the stream-function formulation.

The velocity field inside the fluid body is generated by a stream function
whose Laplacian is a user-supplied non-decreasing function G of the stream
function itself.  This module represents G together with its first
derivative, either as built-in presets or as a monotone interpolant of a
tabulated profile.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class VorticityProfile:
    """Vorticity function G and its derivative G', as plain vectorized
    callables.  Any pair makes a profile; solve_phi0 checks that G is
    non-decreasing where phi0 lives.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"


def constant_value(profile: VorticityProfile,
                   radius: float = 1.0) -> Optional[float]:
    """G0 = G(0) where G takes that one value wherever the stream function
    of a body f(D) inside |z| <= radius lies, and otherwise None.

    For G = G0 that stream function is (G0/4)(|f|^2 - P[|f|^2]), P the
    Poisson extension, and |f|^2 <= P[|f|^2] <= radius^2 puts it between
    0 and -G0 radius^2/4; on the unit disk it is (G0/4)(r^2 - 1).  Where
    G equals G0 at both ends of that interval in floating point, a
    non-decreasing G is G0 on all of it, and that field is the solution:
    so for the rigid preset and for tables flat there.  A G that
    rises on the interval, as a linear G with a slope and G(0) != 0 does,
    gives None.
    """
    g0 = float(profile.eval(0.0))
    if float(profile.eval(-0.25 * g0 * radius * radius)) == g0:
        return g0
    return None


def rigid_preset(omega0: float) -> VorticityProfile:
    """Profile of a rigidly rotating body: G identically equal to -2*omega0.

    In the co-rotating frame the fluid is then at rest, the full vorticity
    being supplied by the frame rotation.
    """
    if not (omega0 > 0 and np.isfinite(omega0)):
        raise ValueError(f"omega0 must be positive and finite, got {omega0}")
    value = -2.0 * float(omega0)

    def ev(u):
        return np.full_like(np.asarray(u, dtype=float), value)

    def d1(u):
        return np.zeros_like(np.asarray(u, dtype=float))

    return VorticityProfile(eval=ev, d1=d1, name=f"rigid(omega0={omega0:g})")


def linear_preset(slope: float, offset: float) -> VorticityProfile:
    """G(u) = slope*u + offset with slope >= 0."""
    if not (np.isfinite(slope) and np.isfinite(offset)):
        raise ValueError(f"slope and offset must be finite, got {slope}, {offset}")
    if slope < 0:
        raise ValueError("slope must be non-negative for a non-decreasing G")

    def ev(u):
        return slope * np.asarray(u, dtype=float) + offset

    def d1(u):
        return np.full_like(np.asarray(u, dtype=float), slope)

    return VorticityProfile(eval=ev, d1=d1,
                            name=f"linear({slope:g},{offset:g})")


def profile_from_table(u: np.ndarray, g: np.ndarray) -> VorticityProfile:
    """Monotone cubic interpolant through tabulated (u, G(u)) samples.

    The PCHIP construction preserves monotonicity of the data (Fritsch &
    Carlson, SIAM J. Numer. Anal. 17 (1980) 238), so a non-decreasing
    table yields a non-decreasing profile.
    Evaluation outside the table range extrapolates linearly with the
    boundary slope (G stays non-decreasing).
    """
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    if u.ndim != 1 or u.shape != g.shape or len(u) < 4:
        raise ValueError("need matching 1-d arrays with at least 4 samples")
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(g))):
        raise ValueError("profile table has a non-finite entry (NaN or inf)")
    order = np.argsort(u)
    u, g = u[order], g[order]
    if np.any(np.diff(u) <= 0):
        raise ValueError("duplicate abscissae in profile table")
    if np.any(np.diff(g) < -1e-12 * max(1.0, np.max(np.abs(g)))):
        raise ValueError("profile table is not non-decreasing")

    from scipy.interpolate import PchipInterpolator  # only tables need it
    base = PchipInterpolator(u, g, extrapolate=False)
    db = base.derivative(1)
    lo, hi = u[0], u[-1]
    slope_lo = float(db(lo))
    slope_hi = float(db(hi))

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = base(np.clip(x, lo, hi))
        out = np.where(x < lo, g[0] + slope_lo * (x - lo), out)
        out = np.where(x > hi, g[-1] + slope_hi * (x - hi), out)
        return out

    def d1(x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(db(np.clip(x, lo, hi)), dtype=float)
        out = np.where(x < lo, slope_lo, out)
        return np.where(x > hi, slope_hi, out)

    return VorticityProfile(eval=ev, d1=d1, name="table")


def profile_from_csv(path: str) -> VorticityProfile:
    """Read a two-column CSV of (u, G(u)) pairs and build a profile."""
    us, gs = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            try:
                us.append(float(row[0]))
                gs.append(float(row[1]))
            except (ValueError, IndexError) as exc:
                raise ValueError(f"bad row in profile CSV {path!r}: {row}") from exc
    return profile_from_table(np.array(us), np.array(gs))

