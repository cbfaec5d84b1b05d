import dataclasses

import numpy as np
import pytest

from disk_quadrature import disk_rule
from tidaldisk.coeffs import build_mode_table
from tidaldisk.errors import ResonanceError
from tidaldisk import linop
from tidaldisk.kernel import rigid_preset
from tidaldisk.linop import (apply_forward, first_order_response,
                             make_operator, nonresonance_scan,
                             particle_source_spectrum, solve_linearized,
                             w_shape_derivative)
from tidaldisk.potential import case_a, case_b, make_base_state
from tidaldisk.residual import particle_force
from tidaldisk.spectral import (BoundarySpectrum, ShapeCoeffs, eval_h_at,
                                sample_shape)


@pytest.fixture(scope="module")
def op():
    base = make_base_state(case_b(), 2.0, rigid_preset(1.0))
    return make_operator(base, N=64)


def test_particle_diag_closed_form(op):
    # omega0^2 - U0''(a0) = pi/4 - (-pi/4) = pi/2 at a0 = 2
    assert abs(op.particle_diag - np.pi / 2.0) < 1e-12


def test_scan_report(op):
    report = nonresonance_scan(op)
    assert report["N"] == 64
    assert report["resonances"] == []
    assert report["argmin_n"] == 2
    assert abs(report["min_abs_omega"] - 0.1073) < 1e-3
    assert report["tail_certified_from"] is not None
    assert report["tail_certified_from"] <= 10
    assert report["tail_certified_from"] == 5


def test_scan_flags_planted_resonance(op):
    t = op.table
    omega = t.omega.copy()
    omega[3] = 0.0
    t2 = type(t)(N=t.N, a_deriv=t.a_deriv, c=t.c, omega=omega)
    op2 = dataclasses.replace(op, table=t2)
    report = nonresonance_scan(op2)
    assert report["resonances"] == [3]
    with pytest.raises(ResonanceError) as exc:
        solve_linearized(op2, BoundarySpectrum.zero(4), 0.0, 0.0)
    assert exc.value.mode == 3
    assert exc.value.exit_code == 3


def test_resonances_checked_once_per_operator(op, monkeypatch):
    # the table is scanned on the first solve_linearized, the first-order
    # response's, and not again on the quasi-Newton iterates
    from tidaldisk.residual import quasi_newton_solve
    fresh = make_operator(op.base, table=op.table)
    calls = []
    scan = linop.resonant_modes
    monkeypatch.setattr(linop, "resonant_modes",
                        lambda t: calls.append(1) or scan(t))
    sol = quasi_newton_solve(fresh, 5e-5)
    assert sol.iterations == 2 and calls == [1]
    # a resonant table raises on every call, and from the solve
    omega = op.table.omega.copy()
    omega[2] = 0.0
    bad = dataclasses.replace(fresh, table=dataclasses.replace(op.table,
                                                               omega=omega))
    for _ in range(2):
        with pytest.raises(ResonanceError) as exc:
            solve_linearized(bad, BoundarySpectrum.zero(4), 0.0, 0.0)
        assert exc.value.mode == 2 and exc.value.exit_code == 3
    with pytest.raises(ResonanceError):
        quasi_newton_solve(bad, 5e-5)


@pytest.mark.parametrize("bad, tail", [
    ([2, 4], 5),      # the certified tail starts in the middle
    ([], 1),          # every mode dominated
    ([2, 8], None),   # mode N itself is not dominated
])
def test_scan_tail_certificate_hand_built(op, bad, tail):
    # c_n = 0 leaves the leading term dominant; a huge c_n breaks dominance
    N = 8
    c = np.zeros(N + 1)
    c[bad] = 1e6
    t = dataclasses.replace(op.table, N=N, a_deriv=np.zeros(N + 1), c=c,
                            omega=np.ones(N + 1))
    report = nonresonance_scan(dataclasses.replace(op, table=t))
    assert report["tail_certified_from"] == tail


def test_w_closed_oracles(op):
    # translation h(z) = z: the force derivative is 2 pi / a0 (log kernel)
    W = w_shape_derivative(op, ShapeCoeffs(1.0, np.zeros(0, dtype=complex)))
    assert abs(W - np.pi) < 1e-10
    # quadratic h(z) = z^2: pi / a0^2
    W2 = w_shape_derivative(op, ShapeCoeffs(0.0, np.array([1.0 + 0j])))
    assert abs(W2 - np.pi / 4.0) < 1e-10
    # linearity
    Wc = w_shape_derivative(op, ShapeCoeffs(2.0, np.array([-3.0 + 0j])))
    assert abs(Wc - (2.0 * W - 3.0 * W2)) < 1e-10


def test_w_power_case_finite_difference():
    base = make_base_state(case_a(1.0), 2.5, rigid_preset(1.0))
    opA = make_operator(base, N=8)
    g = ShapeCoeffs(0.3, np.array([0.2 + 0j, -0.1 + 0j]))

    # direct finite difference of the attraction force at the particle
    def force(eps):
        from numpy.polynomial.legendre import leggauss
        xg, wg = leggauss(200)
        r = 0.5 * (xg + 1.0)
        wr = 0.5 * wg
        phi = 2.0 * np.pi * np.arange(512) / 512
        z = r[:, None] * np.exp(1j * phi[None, :])
        hz = eps * (g.g0 * z + g.gn[0] * z**2 + g.gn[1] * z**3)
        dhz = eps * (g.g0 + 2 * g.gn[0] * z + 3 * g.gn[1] * z**2)
        f = z + hz
        jac = np.abs(1.0 + dhz) ** 2
        d = np.abs(base.a0 - f)
        # x1 derivative of -|a - y|^{-nu} at the particle is
        # + nu (a - y1) |a - y|^{-nu-2}; here nu = 1
        integrand = (base.a0 - f.real) * d ** (-3.0) * jac
        return np.sum(integrand * r[:, None] * wr[:, None]) * (2 * np.pi / 512)

    eps = 1e-5
    fd = (force(eps) - force(-eps)) / (2 * eps)
    assert abs(fd - w_shape_derivative(opA, g)) < 1e-6


@pytest.mark.parametrize("case", [case_b(), case_a(1.0)], ids=["log", "nu1"])
def test_w_matches_body_integral(case):
    # the shape derivative of the body integral of the force, on a disk rule
    # with more angles than the shape has coefficients
    rng = np.random.default_rng(5)
    N = 128
    n = np.arange(1, N + 1)
    g = ShapeCoeffs(1e-3 * rng.standard_normal(),
                    1e-3 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
                    / n)
    y, wt = disk_rule(128, 1024)
    gv, dgv = eval_h_at(g, y)
    strength, p = case.force_law
    for a0 in (1.6, 2.0, 4.0):
        op = make_operator(make_base_state(case, a0, rigid_preset(1.0)), N=N)
        ay = a0 - y
        q = np.abs(ay) ** 2
        # variation of the area element |f'|^2 and of the distance |a - f|
        dens = strength * ((-gv.real + 2.0 * dgv.real * ay.real)
                           * q ** (-(p + 2.0) / 2.0)
                           + (p + 2.0) * (ay * np.conj(gv)).real * ay.real
                           * q ** (-(p + 4.0) / 2.0))
        assert abs(w_shape_derivative(op, g) - np.sum(dens * wt)) < 1e-14


@pytest.mark.parametrize("case", [case_b(), case_a(1.0)], ids=["log", "nu1"])
@pytest.mark.parametrize("a0", [1.6, 2.0, 4.0])
def test_w_central_difference_of_force(case, a0):
    op = make_operator(make_base_state(case, a0, rigid_preset(1.0)), N=8)
    g = ShapeCoeffs(0.3, np.array([0.2 + 0.1j, -0.1, 0.05 - 0.02j, 0.02j]))
    eps = 1e-5
    fd = (particle_force(sample_shape(g.scaled(eps)), case, a0)
          - particle_force(sample_shape(g.scaled(-eps)), case, a0)
          ).real / (2.0 * eps)
    assert abs(fd - w_shape_derivative(op, g)) < 1e-10


def test_inversion_round_trip(op):
    rng = np.random.default_rng(5)
    c = np.zeros(9, dtype=complex)
    c[0] = 0.7
    c[1:] = 0.1 * (rng.standard_normal(8) + 1j * rng.standard_normal(8))
    S = BoundarySpectrum(c)
    g, b, mu = solve_linearized(op, S, Z=0.3, M=1.2)
    S2, Z2, M2 = apply_forward(op, g, b, mu)
    assert np.max(np.abs(S2.coeffs[:9] - S.coeffs)) < 1e-12
    assert np.max(np.abs(S2.coeffs[9:])) < 1e-14
    assert abs(Z2 - 0.3) < 1e-12
    assert abs(M2 - 1.2) < 1e-12
    # single-mode check: S_2 = 1 -> g_2 = 1/omega_2
    c = np.zeros(3, dtype=complex)
    c[2] = 1.0
    g, _, _ = solve_linearized(op, BoundarySpectrum(c), 0.0, 0.0)
    assert abs(g.gn[1] - 1.0 / op.table.omega[2]) < 1e-14


def test_inversion_homogeneity(op):
    c = np.zeros(5, dtype=complex)
    c[0], c[2], c[4] = 0.4, 0.1 - 0.2j, 0.05j
    S = BoundarySpectrum(c.copy())
    g1, b1, mu1 = solve_linearized(op, S, 0.2, 0.6)
    S3 = BoundarySpectrum(3.0 * c)
    g3, b3, mu3 = solve_linearized(op, S3, 0.6, 1.8)
    assert abs(g3.g0 - 3.0 * g1.g0) < 1e-14
    assert np.max(np.abs(g3.gn - 3.0 * g1.gn)) < 1e-14
    assert abs(b3 - 3.0 * b1) < 1e-12
    assert abs(mu3 - 3.0 * mu1) < 1e-12


def test_zero_source_maps_to_zero(op):
    g, b, mu = solve_linearized(op, BoundarySpectrum.zero(8), 0.0, 0.0)
    assert g.norm() == 0.0 and b == 0.0 and mu == 0.0


def test_real_source_gives_symmetric_shape(op):
    c = np.zeros(4, dtype=complex)
    c[1:] = [0.1, 0.2, -0.05]
    g, _, _ = solve_linearized(op, BoundarySpectrum(c), 0.0, 0.0)
    assert g.symmetry_defect() < 1e-14


def test_particle_source_spectrum_closed_form(op):
    # log|z - a0| on the circle: S_0 = log a0, S_n = -1/(2 n a0^n)
    S = particle_source_spectrum(op)
    assert abs(S.coeffs[0] - np.log(2.0)) < 1e-13
    n = np.arange(1, 11)
    expect = -1.0 / (2.0 * n * 2.0**n)
    assert np.max(np.abs(S.coeffs[1:11] - expect)) < 1e-13


def test_first_order_response_scaling(op):
    h1, a1, l1 = first_order_response(op, 1e-4)
    h2, a2, l2 = first_order_response(op, 2e-4)
    assert abs(h2.g0 - 2.0 * h1.g0) < 1e-18
    assert np.max(np.abs(h2.gn - 2.0 * h1.gn)) < 1e-16
    assert abs(a2 - 2.0 * a1) < 1e-16
    assert abs(l2 - 2.0 * l1) < 1e-16
    # the shape leans toward the particle: the n = 1 coefficient is real
    # and the response is symmetric in the x1-axis
    assert h1.symmetry_defect() < 1e-16


def test_first_order_response_solved_once(monkeypatch):
    # make_operator does not solve for the response; the first call solves
    # it at unit mass, and every mass scales that solve bit for bit
    base = make_base_state(case_b(), 2.0, rigid_preset(1.0))
    op = make_operator(base, N=16)
    assert op.unit_response is None
    g, b, mu = solve_linearized(op, particle_source_spectrum(op), 0.0, 0.0)
    calls = []
    solve = linop.solve_linearized
    monkeypatch.setattr(linop, "solve_linearized",
                        lambda *args: calls.append(1) or solve(*args))
    for m in (1e-4, -3e-5, 2e-4):
        h1, a1, l1 = first_order_response(op, m)
        assert h1.g0 == -m * g.g0 and np.array_equal(h1.gn, -m * g.gn)
        assert a1 == -m * b and l1 == -m * mu
    assert len(calls) == 1


def test_truncation_guards(op):
    with pytest.raises(ValueError):
        solve_linearized(op, BoundarySpectrum.zero(65), 0.0, 0.0)
    with pytest.raises(ValueError):
        apply_forward(op, ShapeCoeffs.zero(65), 0.0, 0.0)
