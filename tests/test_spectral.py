import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from tidaldisk.spectral import (BoundarySpectrum, ShapeCoeffs, analyze, area,
                                area_quadrature, boundary_grid, disk_rule,
                                eval_boundary,
                                eval_h_at, eval_h_boundary, eval_h_polar,
                                injectivity_margin, self_intersection_oracle,
                                synthesize, xi_coeffs)


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


def test_xi_coeffs():
    # a pure g0 perturbation moves the radius by g0 cos-free: xi_0 = 2 g0
    h = _shape(1.0, 0.25)
    xi = xi_coeffs(h)
    assert xi[0] == 2.0
    assert xi[1] == 0.25
    # against direct samples of Re[e^{-i phi} h(e^{i phi})]: the two-sided
    # transform puts g0 in S_0, while xi_0 doubles it so that the one-sided
    # synthesis formula S_0 + 2 Re sum ... applies uniformly
    M = 64
    hv, _ = eval_h_boundary(h, M)
    radial = np.real(np.exp(-1j * boundary_grid(M)) * hv)
    spec = analyze(radial)
    assert abs(spec[0] - h.g0) < 1e-13
    assert abs(2.0 * spec[1] - h.gn[0]) < 1e-13


def test_eval_consistency():
    h = _shape(0.05, 0.02 - 0.01j, 0.0, 0.004j)
    M = 32
    hv, dhv = eval_h_boundary(h, M)
    z = np.exp(1j * boundary_grid(M))
    hv2, dhv2 = eval_h_at(h, z)
    assert np.max(np.abs(hv - hv2)) < 1e-14
    assert np.max(np.abs(dhv - dhv2)) < 1e-14
    f, df = eval_boundary(h, M)
    assert np.max(np.abs(f - (z + hv))) < 1e-15
    with pytest.raises(ValueError):
        eval_h_boundary(h, 4)


@pytest.mark.parametrize("N, M", [
    (10, 32),    # M >= N + 2: every power has its own angular mode
    (10, 8),     # M < N + 2: powers k >= M fold onto k mod M
    (128, 128),  # the particle-side quadrature grids, degree N + 1 = 129
])
def test_eval_h_polar_matches_direct_summation(N, M):
    rng = np.random.default_rng(N + M)
    decay = 0.05 / np.arange(1, N + 1) ** 2
    h = ShapeCoeffs(0.03, decay * (rng.standard_normal(N)
                                  + 1j * rng.standard_normal(N)))
    r = np.array([1.0, 0.97, 0.5, 0.01])
    hv, dhv = eval_h_polar(h, r, M)
    z = r[:, None] * np.exp(1j * boundary_grid(M))[None, :]
    hv2, dhv2 = eval_h_at(h, z)
    assert hv.shape == (len(r), M)
    assert np.max(np.abs(hv - hv2)) < 1e-14
    assert np.max(np.abs(dhv - dhv2)) < 1e-14


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


def test_disk_rule_cached_read_only():
    # the cached rule is shared by every caller: it must equal a fresh build
    # and refuse writes
    n_r, n_phi = 16, 24
    r, z, wt = disk_rule(n_r, n_phi)
    xg, wg = leggauss(n_r)
    r_ref = 0.5 * (xg + 1.0)
    assert np.array_equal(r, r_ref)
    assert np.array_equal(z, r_ref[:, None]
                          * np.exp(1j * boundary_grid(n_phi))[None, :])
    assert np.array_equal(wt, (r_ref * 0.5 * wg)[:, None]
                          * (2.0 * np.pi / n_phi))
    assert disk_rule(n_r, n_phi)[0] is r
    for arr in (r, z, wt):
        with pytest.raises(ValueError):
            arr[0] = 0.0


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
    with pytest.raises(ValueError):
        synthesize(BoundarySpectrum.zero(10), 8)
    with pytest.raises(ValueError):
        analyze(np.zeros(16), N=8)
