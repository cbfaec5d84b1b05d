import numpy as np
import pytest

from disk_quadrature import area_quadrature
from tidaldisk.errors import ConfigError
from tidaldisk.spectral import (BoundarySpectrum, ShapeCoeffs, analyze, area,
                                boundary_curve, boundary_grid,
                                boundary_points, conformal_factor_grid,
                                eval_h_at, eval_h_boundary,
                                injectivity_margin, self_intersection_oracle,
                                synthesize)


def _shape(g0, *gn):
    return ShapeCoeffs(g0, np.array(gn, dtype=complex))


def test_shape_basics():
    h = _shape(0.1, 0.2, 0.0, 0.05j)
    assert h.N == 3
    assert abs(h.norm() - np.sqrt(0.01 + 0.04 + 0.0025)) < 1e-15
    assert h.symmetry_defect() == 0.05
    z = ShapeCoeffs.zero(3)
    assert z.norm() == 0.0 and z.symmetry_defect() == 0.0
    s = h.scaled(2.0).plus(h.scaled(-2.0))
    assert s.norm() == 0.0
    with pytest.raises(ValueError):
        h.plus(ShapeCoeffs.zero(5))


def test_shape_json_round_trip():
    h = _shape(-0.1, 0.2 + 0.3j, 0.0, 1e-17j)
    back = ShapeCoeffs.from_json_dict(h.to_json_dict())
    assert back.g0 == h.g0
    assert np.array_equal(back.gn, h.gn)


def test_eval_consistency():
    h = _shape(0.05, 0.02 - 0.01j, 0.0, 0.004j)
    M = 32
    hv, dhv = eval_h_boundary(h, M)
    z = np.exp(1j * boundary_grid(M))
    hv2, dhv2 = eval_h_at(h, z)
    assert np.max(np.abs(hv - hv2)) < 1e-14
    assert np.max(np.abs(dhv - dhv2)) < 1e-14
    f, yp = boundary_curve(h, M)
    assert np.max(np.abs(f - (z + hv))) < 1e-15
    # y' = d/dt f(e^{it}); f holds the powers 1..N+1 < M only
    dfdt = np.fft.ifft(1j * np.arange(M) * np.fft.fft(f))
    assert np.max(np.abs(yp - dfdt)) < 1e-13
    assert np.max(np.abs(np.abs(yp) - np.abs(1.0 + dhv))) < 1e-15
    with pytest.raises(ConfigError):
        eval_h_boundary(h, 4)


@pytest.mark.parametrize("N, M", [
    (10, 32),
    (128, 258),  # at the 2N + 2 floor
])
def test_eval_h_boundary_matches_direct_summation(N, M):
    rng = np.random.default_rng(N + M)
    decay = 0.05 / np.arange(1, N + 1) ** 2
    h = ShapeCoeffs(0.03, decay * (rng.standard_normal(N)
                                  + 1j * rng.standard_normal(N)))
    hv, dhv = eval_h_boundary(h, M)
    hv2, dhv2 = eval_h_at(h, np.exp(1j * boundary_grid(M)))
    assert hv.shape == dhv.shape == (M,)
    assert np.max(np.abs(hv - hv2)) < 1e-14
    assert np.max(np.abs(dhv - dhv2)) < 1e-14


_N_FLOOR = 12
_SAMPLERS = {
    "eval_h_boundary": eval_h_boundary,
    "conformal_factor_grid": lambda h, M: conformal_factor_grid(h, 16, M),
    "synthesize": lambda h, M: synthesize(BoundarySpectrum.zero(h.N), M),
    "analyze": lambda h, M: analyze(np.zeros(M), N=h.N),
}


@pytest.mark.parametrize("name", sorted(_SAMPLERS))
def test_grid_floor(name):
    # one check, M >= 2N + 2, behind every sampler of a shape or spectrum
    h = ShapeCoeffs(0.01, np.full(_N_FLOOR, 1e-3 + 0j))
    _SAMPLERS[name](h, 2 * _N_FLOOR + 2)
    with pytest.raises(ConfigError, match="grid"):
        _SAMPLERS[name](h, 2 * _N_FLOOR + 1)


def test_interior_bounded_by_boundary():
    # |h| and |h'| are analytic, so interior samples cannot exceed the
    # boundary maximum
    rng = np.random.default_rng(7)
    h = ShapeCoeffs(0.03, 0.02 * (rng.standard_normal(6) + 1j * rng.standard_normal(6)))
    hv, dhv = eval_h_boundary(h, 256)
    bmax = np.max(np.abs(hv)), np.max(np.abs(dhv))
    z = 0.95 * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
    hi, dhi = eval_h_at(h, z)
    assert np.max(np.abs(hi)) <= bmax[0] + 1e-12
    assert np.max(np.abs(dhi)) <= bmax[1] + 1e-12


def test_boundary_points():
    assert [boundary_points(N) for N in (0, 8, 64, 65, 256)] == [
        256, 256, 256, 260, 1024]
    assert all(boundary_points(N) >= 2 * N + 2 for N in range(1, 600))


def test_injectivity_margin():
    assert abs(injectivity_margin(ShapeCoeffs.zero(4)) - 1.0 / np.sqrt(2.0)) < 1e-14
    # |h| + |h'| = 0.8 + 0.8 for a pure dilation g0 = 0.8
    assert injectivity_margin(_shape(0.8)) < 0.0
    assert injectivity_margin(_shape(0.1, 0.05)) > 0.0


def test_self_intersection_oracle():
    assert self_intersection_oracle(_shape(0.0, 0.05))
    # z + 0.75 z^2 is a limacon with a loop; needs enough samples to see
    # the crossing
    assert not self_intersection_oracle(_shape(0.0, 0.75), M=2048)
    # fully collapsed map
    assert not self_intersection_oracle(_shape(-1.0))


def test_area_closed_form_and_quadrature():
    eps = 0.1
    h = _shape(0.0, eps)
    assert abs(area(h) - np.pi * (1.0 + 2.0 * eps * eps)) < 1e-14
    h2 = _shape(0.07, 0.03 - 0.02j, 0.01j)
    assert abs(area(h2) - area_quadrature(h2)) < 1e-8
    assert area(ShapeCoeffs.zero(2)) == np.pi


def test_analyze_convention():
    M = 64
    phi = boundary_grid(M)
    spec = analyze(np.cos(phi))
    assert abs(spec[1] - 0.5) < 1e-14
    assert abs(spec[0]) < 1e-14
    assert abs(spec[-1] - 0.5) < 1e-14  # negative mode by conjugation
    spec2 = analyze(2.0 + np.sin(3 * phi))
    assert abs(spec2[0] - 2.0) < 1e-13
    assert abs(spec2[3] + 0.5j) < 1e-13


def test_round_trip():
    rng = np.random.default_rng(11)
    c = np.zeros(9, dtype=complex)
    c[0] = rng.standard_normal()
    c[1:] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    spec = BoundarySpectrum(c.copy())
    samples = synthesize(spec, 64)
    back = analyze(samples, N=8)
    assert np.max(np.abs(back.coeffs - spec.coeffs)) < 1e-12
    again = synthesize(back, 64)
    assert np.max(np.abs(again - samples)) < 1e-12


def test_spectrum_guards():
    with pytest.raises(ValueError):
        BoundarySpectrum(np.array([1.0 + 0.5j, 0.0]))
    spec = BoundarySpectrum.zero(4)
    assert spec.norm() == 0.0
    with pytest.raises(ConfigError):
        synthesize(BoundarySpectrum.zero(10), 8)
    with pytest.raises(ConfigError):
        analyze(np.zeros(16), N=8)
