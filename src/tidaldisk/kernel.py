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
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator


@dataclass(frozen=True)
class VorticityProfile:
    """Non-decreasing vorticity function G and its derivative G'.

    Instances are immutable; the evaluators are plain vectorized callables
    and safe to share across workers.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    d1: Callable[[np.ndarray], np.ndarray]
    monotone_certified: bool = False
    name: str = "custom"

    def __call__(self, u):
        return self.eval(u)

    def check_monotone(self, lo: float, hi: float, n: int = 1000) -> bool:
        """Spot-check monotonicity of G and non-negativity of G' on a grid."""
        u = np.linspace(lo, hi, n)
        g = np.asarray(self.eval(u), dtype=float)
        return bool(np.all(np.diff(g) >= -1e-12) and np.all(self.d1(u) >= -1e-12))


def _constant_profile(value: float, name: str) -> VorticityProfile:
    def ev(u):
        return np.full_like(np.asarray(u, dtype=float), value)

    def zero(u):
        return np.zeros_like(np.asarray(u, dtype=float))

    return VorticityProfile(eval=ev, d1=zero, monotone_certified=True,
                            name=name)


def rigid_preset(omega0: float) -> VorticityProfile:
    """Profile of a rigidly rotating body: G identically equal to -2*omega0.

    In the co-rotating frame the fluid is then at rest, the full vorticity
    being supplied by the frame rotation.
    """
    if not (omega0 > 0 and np.isfinite(omega0)):
        raise ValueError(f"omega0 must be positive and finite, got {omega0}")
    return _constant_profile(-2.0 * float(omega0), name=f"rigid(omega0={omega0:g})")


def zero_preset() -> VorticityProfile:
    """G identically zero.  Gives the degenerate motionless profile; useful
    for exercising error paths."""
    return _constant_profile(0.0, name="zero")


def linear_preset(slope: float = 1.0, offset: float = 0.0) -> VorticityProfile:
    """G(u) = slope*u + offset with slope >= 0."""
    if not (np.isfinite(slope) and np.isfinite(offset)):
        raise ValueError(f"slope and offset must be finite, got {slope}, {offset}")
    if slope < 0:
        raise ValueError("slope must be non-negative for a non-decreasing G")

    def ev(u):
        return slope * np.asarray(u, dtype=float) + offset

    def d1(u):
        return np.full_like(np.asarray(u, dtype=float), slope)

    return VorticityProfile(eval=ev, d1=d1, monotone_certified=True,
                            name=f"linear({slope:g},{offset:g})")


def profile_from_table(u: np.ndarray, g: np.ndarray) -> VorticityProfile:
    """Monotone cubic interpolant through tabulated (u, G(u)) samples.

    The PCHIP construction preserves monotonicity of the data, so a
    non-decreasing table yields a certified non-decreasing profile.
    Evaluation outside the table range extrapolates linearly with the
    boundary slope (G stays non-decreasing).
    """
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    if u.ndim != 1 or u.shape != g.shape or len(u) < 4:
        raise ValueError("need matching 1-d arrays with at least 4 samples")
    order = np.argsort(u)
    u, g = u[order], g[order]
    if np.any(np.diff(u) <= 0):
        raise ValueError("duplicate abscissae in profile table")
    if np.any(np.diff(g) < -1e-12 * max(1.0, np.max(np.abs(g)))):
        raise ValueError("profile table is not non-decreasing")

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

    prof = VorticityProfile(eval=ev, d1=d1, monotone_certified=True,
                            name="table")
    if not prof.check_monotone(lo, hi):
        raise ValueError("interpolated profile failed the monotonicity check")
    return prof


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


def smooth_profile(fn, d1, name="callable",
                   certify_range=None) -> VorticityProfile:
    """Wrap explicit callables G and G' as a profile, optionally
    spot-checking monotonicity on ``certify_range = (lo, hi)``."""
    prof = VorticityProfile(eval=fn, d1=d1, monotone_certified=False,
                            name=name)
    if certify_range is not None:
        if not prof.check_monotone(*certify_range):
            raise ValueError("profile failed the monotonicity check")
        object.__setattr__(prof, "monotone_certified", True)
    return prof
