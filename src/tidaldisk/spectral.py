"""Shape coefficients, boundary Fourier analysis and conformal-map tools.

The fluid domain is the image of the unit disk under f(z) = z + h(z) with

    h(z) = g0 * z + sum_{n>=1} gn[n] * z^(n+1),

g0 real, so that h(0) = 0 and h'(0) is real.  This module holds the
coefficient container, boundary evaluation of f and f', the injectivity
margin certificate, the closed-form area, and the discrete Fourier
transform pair used to move between boundary samples and mode coefficients.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss


# --------------------------------------------------------------------------
# shape coefficients
# --------------------------------------------------------------------------

@dataclass
class ShapeCoeffs:
    """Truncated power-series coefficients of the boundary perturbation h."""

    g0: float
    gn: np.ndarray  # complex, index i holds the coefficient of z^(i+2)

    def __post_init__(self):
        self.g0 = float(self.g0)
        self.gn = np.asarray(self.gn, dtype=complex)
        if self.gn.ndim != 1:
            raise ValueError("gn must be a 1-d array")

    @property
    def N(self) -> int:
        return len(self.gn)

    @classmethod
    def zero(cls, N: int) -> "ShapeCoeffs":
        return cls(0.0, np.zeros(N, dtype=complex))

    def copy(self) -> "ShapeCoeffs":
        return ShapeCoeffs(self.g0, self.gn.copy())

    def scaled(self, t: float) -> "ShapeCoeffs":
        return ShapeCoeffs(t * self.g0, t * self.gn)

    def plus(self, other: "ShapeCoeffs") -> "ShapeCoeffs":
        if other.N != self.N:
            raise ValueError("truncation mismatch")
        return ShapeCoeffs(self.g0 + other.g0, self.gn + other.gn)

    def norm(self) -> float:
        return float(np.sqrt(self.g0**2 + np.sum(np.abs(self.gn) ** 2)))

    def symmetry_defect(self) -> float:
        """Max |Im gn|; zero iff the shape is symmetric in the x1-axis."""
        if self.N == 0:
            return 0.0
        return float(np.max(np.abs(self.gn.imag)))

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "N": self.N,
            "g0": self.g0,
            "gn": [[float(c.real), float(c.imag)] for c in self.gn],
        }

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_json_dict(), **kw)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ShapeCoeffs":
        gn = np.array([complex(re, im) for re, im in d["gn"]], dtype=complex)
        if len(gn) != d["N"]:
            raise ValueError("inconsistent N in serialized shape")
        return cls(float(d["g0"]), gn)


def xi_coeffs(h: ShapeCoeffs) -> np.ndarray:
    """One-sided Fourier coefficients of Re[e^{-i phi} h(e^{i phi})]
    (negative modes implied by conjugation): xi_0 = 2 g0, xi_n = gn."""
    out = np.empty(h.N + 1, dtype=complex)
    out[0] = 2.0 * h.g0
    out[1:] = h.gn
    return out


# --------------------------------------------------------------------------
# boundary evaluation
# --------------------------------------------------------------------------

def boundary_grid(M: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(M) / M


def _h_coeffs(h: ShapeCoeffs):
    """Power-series coefficients of h and of h' (index k holds z^k)."""
    ch = np.zeros(h.N + 2, dtype=complex)
    ch[1] = h.g0
    ch[2:] = h.gn
    cdh = np.zeros(h.N + 1, dtype=complex)
    cdh[0] = h.g0
    cdh[1:] = (np.arange(1, h.N + 1) + 1) * h.gn
    return ch, cdh


def _polar_sum(coeffs: np.ndarray, r: np.ndarray, M: int) -> np.ndarray:
    """Values of sum_k coeffs[k] z^k at z = r_i exp(2 pi i j / M).

    Row i scales coefficient k by r_i^k and one inverse FFT along the angle
    axis sums the powers.  On the uniform M-grid exp(i k phi_j) equals
    exp(i (k mod M) phi_j), so powers k >= M are folded onto k mod M; the
    fold is exact at these points.
    """
    k = np.arange(len(coeffs))
    scaled = coeffs[None, :] * r[:, None] ** k[None, :]
    folded = np.zeros((len(r), M), dtype=complex)
    np.add.at(folded, (slice(None), k % M), scaled)
    return M * np.fft.ifft(folded, axis=1)


def eval_h_polar(h: ShapeCoeffs, r, M: int):
    """h and h' on the polar grid r_i exp(2 pi i j / M), j = 0..M-1, as
    arrays of shape (len(r), M)."""
    r = np.asarray(r, dtype=float)
    ch, cdh = _h_coeffs(h)
    return _polar_sum(ch, r, M), _polar_sum(cdh, r, M)


@functools.lru_cache(maxsize=4)
def disk_rule(n_r: int, n_phi: int):
    """Gauss-Legendre (radial) x uniform (angular) rule on the unit disk.

    Returns the radii r (n_r,), the nodes r_i exp(i phi_j) (n_r, n_phi) and
    the weights (n_r, 1), which include the area element r dr dphi.  Cached
    per (n_r, n_phi), so the arrays are read-only.
    """
    xg, wg = leggauss(n_r)
    r = 0.5 * (xg + 1.0)
    z = r[:, None] * np.exp(1j * boundary_grid(n_phi))[None, :]
    wt = (r * 0.5 * wg)[:, None] * (2.0 * np.pi / n_phi)
    for arr in (r, z, wt):
        arr.setflags(write=False)
    return r, z, wt


def eval_h_boundary(h: ShapeCoeffs, M: int):
    """Samples of h and h' on the uniform boundary grid."""
    if M < 2 * h.N + 2:
        raise ValueError(f"grid M={M} must be at least 2N+2={2*h.N+2}")
    hv, dhv = eval_h_polar(h, np.ones(1), M)
    return hv[0], dhv[0]


def eval_boundary(h: ShapeCoeffs, M: int):
    """Samples of f = id + h and f' on the uniform boundary grid."""
    hv, dhv = eval_h_boundary(h, M)
    z = np.exp(1j * boundary_grid(M))
    return z + hv, 1.0 + dhv


def eval_h_at(h: ShapeCoeffs, z: np.ndarray):
    """h and h' at arbitrary points of the closed disk (direct summation).

    On polar grids use eval_h_polar, which does the same with one FFT."""
    z = np.asarray(z, dtype=complex)
    hv = h.g0 * z
    dhv = np.full_like(z, h.g0)
    zp = z.copy()
    for n in range(1, h.N + 1):
        zp = zp * z  # z^(n+1)
        hv = hv + h.gn[n - 1] * zp
        dhv = dhv + (n + 1) * h.gn[n - 1] * zp / np.where(z == 0, 1.0, z)
    return hv, dhv


# --------------------------------------------------------------------------
# certificates and area
# --------------------------------------------------------------------------

def injectivity_margin(h: ShapeCoeffs, M: int = 0) -> float:
    """1/sqrt(2) minus the boundary maximum of |h| + |h'|.

    A positive value certifies that f = id + h is injective on the closed
    disk; the boundary maximum bounds the interior one since h and h' are
    analytic.  A negative value is not a proof of non-injectivity.
    """
    if M <= 0:
        M = max(256, 4 * h.N + 4)
    hv, dhv = eval_h_boundary(h, max(M, 2 * h.N + 2))
    return float(1.0 / np.sqrt(2.0) - np.max(np.abs(hv) + np.abs(dhv)))


def self_intersection_oracle(h: ShapeCoeffs, M: int = 512) -> bool:
    """Brute-force check that the boundary curve is simple.

    Returns True when no two non-adjacent sample points coincide within a
    spacing-scaled threshold.  Quadratic in M; a test oracle, not a fast
    path.
    """
    f, _ = eval_boundary(h, max(M, 2 * h.N + 2))
    M = len(f)
    pts = np.column_stack([f.real, f.imag])
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    idx = np.arange(M)
    sep = np.minimum(np.abs(idx[:, None] - idx[None, :]),
                     M - np.abs(idx[:, None] - idx[None, :]))
    gap = np.min(np.sqrt(d2[sep == 1]))  # adjacent spacing sets the scale
    mask = sep >= 2
    return bool(np.all(d2[mask] > (0.5 * gap) ** 2))


def area(h: ShapeCoeffs) -> float:
    """Area of the image domain f(D), in closed form from orthogonality of
    the monomials: pi * (|1+g0|^2 + sum (n+1)|gn|^2)."""
    n = np.arange(1, h.N + 1)
    return float(np.pi * ((1.0 + h.g0) ** 2 + np.sum((n + 1) * np.abs(h.gn) ** 2)))


def area_quadrature(h: ShapeCoeffs, n_r: int = 128, n_phi: int = 256) -> float:
    """Validation path: tensor quadrature of |f'|^2 over the disk."""
    r, _, wt = disk_rule(n_r, n_phi)
    _, dh = eval_h_polar(h, r, n_phi)
    return float(np.sum(np.abs(1.0 + dh) ** 2 * wt))


# --------------------------------------------------------------------------
# Fourier transform pair on the boundary
# --------------------------------------------------------------------------

@dataclass
class BoundarySpectrum:
    """One-sided Fourier coefficients S_n, n = 0..N, of a real function on
    the circle; negative modes are conj(S_n).  S_0 is real."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if abs(self.coeffs[0].imag) > 1e-10 * max(1.0, abs(self.coeffs[0])):
            raise ValueError("S_0 of a real function must be real")
        self.coeffs[0] = self.coeffs[0].real

    @property
    def N(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, N: int) -> "BoundarySpectrum":
        return cls(np.zeros(N + 1, dtype=complex))

    def __getitem__(self, n: int):
        if n >= 0:
            return self.coeffs[n]
        return np.conj(self.coeffs[-n])

    def norm(self) -> float:
        c = self.coeffs
        return float(np.sqrt(np.abs(c[0]) ** 2 + 2.0 * np.sum(np.abs(c[1:]) ** 2)))


def analyze(samples: np.ndarray, N: int = -1) -> BoundarySpectrum:
    """Fourier coefficients of real uniform-grid samples.

    Convention: S_n = (1/M) sum_j samples[j] exp(-i n phi_j), the
    coefficient of exp(+i n phi).
    """
    samples = np.asarray(samples, dtype=float)
    M = len(samples)
    c = np.fft.fft(samples) / M
    if N < 0:
        N = M // 2 - 1
    if N > M // 2 - 1:
        raise ValueError("requested N exceeds the grid Nyquist range")
    return BoundarySpectrum(c[: N + 1])


def synthesize(spec: BoundarySpectrum, M: int) -> np.ndarray:
    """Real samples on the uniform M-grid from one-sided coefficients:
    S_0 + 2 Re sum_{n>=1} S_n exp(i n phi_j)."""
    if M < 2 * spec.N + 2:
        raise ValueError(f"grid M={M} must be at least 2N+2={2*spec.N+2}")
    c = np.zeros(M, dtype=complex)
    c[: spec.N + 1] = spec.coeffs
    vals = M * np.fft.ifft(c)
    return 2.0 * vals.real - spec.coeffs[0].real
