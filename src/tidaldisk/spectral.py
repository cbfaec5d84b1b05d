"""Shape coefficients, boundary Fourier analysis and conformal-map tools.

The fluid domain is the image of the unit disk under f(z) = z + h(z) with

    h(z) = g0 * z + sum_{n>=1} gn[n] * z^(n+1),

g0 real, so that h(0) = 0 and h'(0) is real.  This module holds the
coefficient container, the sampling of the shape (h, h' and h'' on the
boundary, and |f'|^2 on a polar grid, by FFT) with its 2N + 2 grid floor,
the curve read from the boundary sample, the injectivity
margin certificate, the closed-form area, and the discrete Fourier
transform pair used to move between boundary samples and mode coefficients.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chebyshev import _radial_basis
from .errors import ConfigError


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

    @classmethod
    def from_json_dict(cls, d: dict) -> "ShapeCoeffs":
        gn = np.array([complex(re, im) for re, im in d["gn"]], dtype=complex)
        if len(gn) != d["N"]:
            raise ValueError("inconsistent N in serialized shape")
        return cls(float(d["g0"]), gn)


# --------------------------------------------------------------------------
# boundary evaluation
# --------------------------------------------------------------------------

def boundary_grid(M: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(M) / M


def check_grid(M: int, N: int):
    """Raise ConfigError unless a uniform grid of M points carries N modes:
    M >= 2N + 2, the floor of every angular grid of the package."""
    if M < 2 * N + 2:
        raise ConfigError(f"angular grid of {M} points is below "
                          f"2N+2={2 * N + 2} for N={N}")


def boundary_points(N: int) -> int:
    """max(256, 4N), the boundary grid of an N-mode shape wherever its size
    is free: twice the 2N + 2 floor, as particle_force measured."""
    return max(256, 4 * N)


def _h_coeffs(h: ShapeCoeffs) -> np.ndarray:
    """Power-series coefficients of h, h' and h'' as the rows of one
    (3, N + 2) array; column k holds z^k."""
    c = np.zeros((3, h.N + 2), dtype=complex)
    c[0, 1] = h.g0
    c[0, 2:] = h.gn
    k = np.arange(1, h.N + 2)
    c[1, :-1] = k * c[0, 1:]
    c[2, :-2] = k[:-1] * c[1, 1:-1]
    return c


def boundary_sample(h: ShapeCoeffs, M: int) -> np.ndarray:
    """h, h' and h'' on the uniform M-grid, the rows of one (3, M) array:
    one inverse FFT of the stacked power-series coefficients, whose powers
    lie below M."""
    check_grid(M, h.N)
    # a shape near the float maximum overflows; the margin refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.ifft(_h_coeffs(h), n=M, axis=1, norm="forward")


def on_boundary_points(rows, N: int):
    """Every k-th point of rows, samples on one uniform grid, where these
    points are the boundary_points(N) grid; None where boundary_points(N)
    does not divide the grid's size (or rows is None), and the caller
    samples that grid afresh."""
    M = boundary_points(N)
    if rows is None or len(rows[0]) % M:
        return None
    return [row[::len(row) // M] for row in rows]


@functools.lru_cache(maxsize=4)
def _radial_powers(n_radial: int, N: int) -> np.ndarray:
    """r_i^k, k = 0..N, on the radial grid of n_radial nodes.  Cached, so
    read-only."""
    powers = _radial_basis(n_radial).r[:, None] ** np.arange(N + 1)
    powers.setflags(write=False)
    return powers


def _polar_series(c: np.ndarray, n_radial: int, M: int) -> np.ndarray:
    """sum_k c_k z^k at z = r_i exp(2 pi i j / M), on the n_radial radial
    nodes of chebyshev._radial_basis, as the float view of its (re, im)
    pairs: one inverse FFT of the rows c_k r_i^k (r^k cached).  The M-grid
    must hold the powers, which check_grid's 2N + 2 floor ensures."""
    return np.fft.ifft(_radial_powers(n_radial, len(c) - 1) * c, n=M, axis=1,
                       norm="forward").view(float)


def conformal_factor_grid(h: ShapeCoeffs, n_radial: int, M: int):
    """|f'|^2 on the polar grid r_i exp(2 pi i j / M) of the n_radial
    radial nodes of chebyshev._radial_basis; h itself is not evaluated.

    f' = 1 + h' comes from _polar_series, and |f'|^2 is the sum of the
    squares of its (re, im) pair.  The grid must hold 2N + 2 points, as
    everywhere else on the boundary.
    """
    check_grid(M, h.N)
    cdf = _h_coeffs(h)[1, :-1]
    cdf[0] += 1.0
    pairs = _polar_series(cdf, n_radial, M)
    np.square(pairs, out=pairs)
    return pairs[:, 0::2] + pairs[:, 1::2]


@functools.lru_cache(maxsize=4)
def _unit_circle(M: int) -> np.ndarray:
    """e^{it} on the uniform M-grid.  Cached, so read-only."""
    z = np.exp(1j * boundary_grid(M))
    z.setflags(write=False)
    return z


def sample_curve(sample: np.ndarray):
    """The curve y(t) = f(e^{it}), its tangent y'(t) = i e^{it} f'(e^{it})
    and y''(t) = -e^{it} (f' + e^{it} h'') from a boundary_sample (h, h',
    h''); |y'| = |f'|."""
    z = _unit_circle(sample.shape[1])
    hv, dhv, d2hv = sample
    # a shape near the float maximum overflows; the written rows are checked
    with np.errstate(over="ignore", invalid="ignore"):
        dfv = 1.0 + dhv
        return z + hv, 1j * z * dfv, -z * (dfv + z * d2hv)


def boundary_curve(h: ShapeCoeffs, M: int):
    """The curve y(t) = f(e^{it}) and its tangent y'(t) on the uniform
    M-grid (sample_curve)."""
    return sample_curve(boundary_sample(h, M))[:2]


def boundary_rows(h: ShapeCoeffs):
    """(phi, x1, x2) rows of the boundary curve on
    max(512, boundary_points(N)) points, for the boundary CSV outputs."""
    M = max(512, boundary_points(h.N))
    f, _ = boundary_curve(h, M)
    return zip(boundary_grid(M), f.real, f.imag)


def eval_h_at(h: ShapeCoeffs, z: np.ndarray):
    """h and h' at arbitrary points of the closed disk (direct summation).

    On the boundary grid boundary_sample does the same with one FFT."""
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

def injectivity_margin(h: ShapeCoeffs, sample=None) -> float:
    """1/sqrt(2) minus the maximum of |h| + |h'| on boundary_points(N) points.

    The points are every k-th point of sample, a boundary_sample of h, when
    boundary_points(N) divides its size (on_boundary_points), and otherwise
    a fresh sample.  A positive value certifies that f = id + h is injective
    on the closed disk; the boundary maximum bounds the interior one since
    h and h' are analytic.  A negative value is not a proof of
    non-injectivity.
    """
    hv, dhv, _ = (on_boundary_points(sample, h.N)
                  or boundary_sample(h, boundary_points(h.N)))
    # a shape near the float maximum overflows to a margin of -inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        return float(1.0 / np.sqrt(2.0) - np.max(np.abs(hv) + np.abs(dhv)))


def self_intersection_oracle(h: ShapeCoeffs, M: int = 512) -> bool:
    """Brute-force check that the boundary curve is simple.

    Returns True when no two non-adjacent sample points coincide within a
    spacing-scaled threshold.  Quadratic in M; a test oracle, not a fast
    path.
    """
    f, _ = boundary_curve(h, max(M, boundary_points(h.N)))
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
        """sqrt(|S_0|^2 + 2 sum_n |S_n|^2), the L2 norm over 2 pi, summed
        hypot-style, so that it overflows only where the norm does."""
        a = np.abs(self.coeffs)
        return float(np.hypot(a[0], np.sqrt(2.0) * np.hypot.reduce(a[1:])))


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
    check_grid(M, N)
    return BoundarySpectrum(c[: N + 1])


def synthesize(spec: BoundarySpectrum, M: int) -> np.ndarray:
    """Real samples on the uniform M-grid from one-sided coefficients:
    S_0 + 2 Re sum_{n>=1} S_n exp(i n phi_j)."""
    check_grid(M, spec.N)
    c = np.zeros(M, dtype=complex)
    c[: spec.N + 1] = spec.coeffs
    vals = M * np.fft.ifft(c)
    return 2.0 * vals.real - spec.coeffs[0].real
