"""Machine-speed probe that scales the benchmark's timings.

On a small shared VM the speed of the virtual CPUs switches between states
about 1.5x apart for 10-60 s at a time, as other tenants load the host.
A 40 s run then often sits in one state, so the raw medians of two runs
of the same code can differ by that factor.  The benchmark brackets every
timed segment with this fixed probe and scales the segment's time by
reference / (mean probe time on its two sides): seconds at the speed the
machine had when the reference was measured.

The probe mixes the kinds of work the pipeline does (interpreted loops,
small LU solves, complex array arithmetic with FFTs, adaptive quadrature
of a Python callable).  It calls numpy and scipy only, never tidaldisk,
so a change to the package does not move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.integrate import quad
from scipy.linalg import lu_factor, lu_solve

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((64, 64)) + 64.0 * np.eye(64)
_LU = lu_factor(_A)
_B = _rng.standard_normal(64)
_Z = 0.5 * np.exp(1j * _rng.uniform(0.0, 2.0 * np.pi, (64, 256)))


def _work() -> float:
    s = 0.0
    for i in range(30000):
        s += i * 0.5
    for _ in range(600):
        lu_solve(_LU, _B)
    for _ in range(40):
        np.linalg.solve(_A, _B)
    w = _Z
    for _ in range(24):
        w = w * _Z + 0.1
        s += float(np.sum(np.abs(np.fft.fft(w, axis=1)) ** -0.25))
    for k in range(16):
        s += quad(lambda x: np.exp(-x) * (x + k) ** -1.5, 1.0, np.inf)[0]
    return s


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Speed:
    """Scale factors for consecutive timed segments.

    Call factor() right after each segment ends; it probes once and
    compares the mean of the probes on the segment's two sides with the
    reference.
    """

    def __init__(self, reference_s: float):
        self.reference_s = reference_s
        self.last = probe()

    def factor(self) -> float:
        before, self.last = self.last, probe()
        return self.reference_s / (0.5 * (before + self.last))
