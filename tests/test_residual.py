import dataclasses

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from tidaldisk.chebyshev import HalfDiameterGrid
from tidaldisk.errors import DivergenceError, TidaldiskError
from tidaldisk.kernel import linear_preset, rigid_preset
from tidaldisk.linop import apply_forward, make_operator
from tidaldisk import residual
from tidaldisk.potential import case_a, case_b, make_base_state, u0, u0_d1
from tidaldisk.residual import (_POWER_OFFSETS, _kress_log_weights,
                                _mode_eigs, _solve_modes, boundary_potential, center_of_mass,
                                field_equation_residual, particle_force,
                                particle_potential_at, pressure_on_boundary,
                                quasi_newton_solve, residual_F, residual_norm,
                                solve_phi_h, vorticity_primitive)
from tidaldisk.spectral import (ShapeCoeffs, _h_coeffs, boundary_grid,
                               eval_boundary, eval_h_at)


@pytest.fixture(scope="module")
def base():
    return make_base_state(case_b(), 2.0, rigid_preset(1.0))


@pytest.fixture(scope="module")
def op(base):
    return make_operator(base, N=64)


def _small_shape(N=8):
    gn = np.zeros(N, dtype=complex)
    gn[0] = 0.01
    gn[2] = 0.005 - 0.003j
    return ShapeCoeffs(0.002, gn)


# --------------------------------------------------------------------------
# stream function
# --------------------------------------------------------------------------

def test_stream_function_disk_closed_form(base):
    # at h = 0 with G = -2 the solution is (1 - r^2)/2
    fld = solve_phi_h(ShapeCoeffs.zero(4), base.profile,
                      n_radial=32, n_angular=64)
    exact = 0.5 * (1.0 - fld.r**2)
    assert np.max(np.abs(fld.values - exact[:, None])) < 1e-12
    assert np.max(np.abs(fld.boundary_trace())) < 1e-13
    assert np.max(np.abs(fld.boundary_normal_deriv() + 1.0)) < 1e-10


def test_stream_function_field_residual(base):
    h = _small_shape()
    fld = solve_phi_h(h, base.profile, n_radial=32, n_angular=64)
    assert field_equation_residual(fld, h, base.profile) < 1e-10


def test_mode_operators_match_laplacian_mode():
    # the fast-diagonalization solve against each mode's operator with the
    # Dirichlet row: normwise backward error, every rfft mode of both
    # parities
    rng = np.random.default_rng(5)
    for n_radial, M in ((16, 32), (64, 256)):
        grid = HalfDiameterGrid(n_radial)
        n_modes = M // 2 + 1
        rhs = (rng.standard_normal((n_radial, n_modes))
               + 1j * rng.standard_normal((n_radial, n_modes)))
        rhs[0, :] = 0.0
        for lam in (0.0, 0.7, 30.0):
            u = _solve_modes(n_radial, lam, rhs)
            for n in range(n_modes):
                A = grid.laplacian_mode(n) - lam * np.eye(n_radial)
                A[0, :] = 0.0
                A[0, 0] = 1.0  # Dirichlet at r = 1
                x, b = u[:, n], rhs[:, n]
                err = np.linalg.norm(A @ x - b, np.inf) / (
                    np.linalg.norm(A, np.inf) * np.linalg.norm(x, np.inf)
                    + np.linalg.norm(b, np.inf))
                assert err <= 1e-14, (n_radial, lam, n, err)


def test_mode_solve_complex_eigenbasis(monkeypatch):
    # eig does not promise a real basis: rescaling each eigenvector by a
    # complex phase gives another valid decomposition, and the solve must
    # return the same modes with it
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal((16, 17)) + 1j * rng.standard_normal((16, 17))
    ref = _solve_modes(16, 0.7, rhs)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 15))
    rotated = tuple((ev, V * phases, Vinv / phases[:, None])
                    for ev, V, Vinv in _mode_eigs(16, 0.7))
    monkeypatch.setattr(residual, "_mode_eigs", lambda n, lam: rotated)
    got = _solve_modes(16, 0.7, rhs)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_mode_eigenvalues_real_negative():
    # then Lambda_p - n^2 never vanishes, so every mode's solve is defined
    for n_radial in range(8, 129):
        for ev, _, _ in _mode_eigs(n_radial, 0.0):
            assert np.all(np.isreal(ev)) and np.max(ev.real) < 0.0, n_radial


def _seed_solve_phi_h(h, profile, n_radial, n_angular, tol=1e-12):
    """The per-column Picard loop that solve_phi_h replaced: one lu_solve
    per angular column, modes k and M - k solved separately."""
    grid = HalfDiameterGrid(n_radial)
    phi = boundary_grid(n_angular)
    _, dh = eval_h_at(h, grid.r[:, None] * np.exp(1j * phi[None, :]))
    w = np.abs(1.0 + dh) ** 2
    u = np.zeros((n_radial, n_angular))
    lam, factors = 0.0, None
    for _ in range(200):
        lam_needed = float(np.max(w)) * max(float(np.max(profile.d1(u))), 0.0)
        if factors is None or lam_needed > lam:
            lam = 1.5 * lam_needed if lam_needed > 0 else 0.0
            factors = {}
            for n in range(n_angular // 2 + 1):
                A = grid.laplacian_mode(n) - lam * np.eye(n_radial)
                A[0, :] = 0.0
                A[0, 0] = 1.0
                factors[n] = lu_factor(A)
        rhs_hat = np.fft.fft(w * profile.eval(u) - lam * u, axis=1)
        rhs_hat[0, :] = 0.0
        u_hat = np.empty_like(rhs_hat)
        for k in range(n_angular):
            u_hat[:, k] = lu_solve(factors[min(k, n_angular - k)],
                                   rhs_hat[:, k])
        u_new = np.real(np.fft.ifft(u_hat, axis=1))
        delta = float(np.max(np.abs(u_new - u)))
        u = u_new
        if delta < tol:
            return u
    raise AssertionError("reference loop did not converge")


@pytest.fixture(scope="module")
def base_linear():
    return make_base_state(case_b(), 2.0, linear_preset(1.0, -2.0))


def _counting_d1(profile):
    """Copy of profile whose d1, called once per Picard step, is counted."""
    calls = []

    def d1(u):
        calls.append(1)
        return profile.d1(u)

    return dataclasses.replace(profile, d1=d1), calls


def test_stream_function_matches_per_column_loop(base_linear):
    h = _small_shape()
    fld = solve_phi_h(h, base_linear.profile, n_radial=16, n_angular=32)
    ref = _seed_solve_phi_h(h, base_linear.profile, 16, 32)
    assert np.max(np.abs(fld.values - ref)) < 1e-13


def test_stream_function_warm_start(base_linear):
    h = _small_shape()
    fld = solve_phi_h(h, base_linear.profile, n_radial=32, n_angular=64)
    cold, cold_calls = _counting_d1(base_linear.profile)
    warm, warm_calls = _counting_d1(base_linear.profile)
    cold_fld = solve_phi_h(h, cold, n_radial=32, n_angular=64)
    phi0 = base_linear.phi0(fld.r) - base_linear.phi0(1.0)
    warm_fld = solve_phi_h(h, warm, n_radial=32, n_angular=64,
                           u_init=phi0[:, None])
    assert np.max(np.abs(warm_fld.values - cold_fld.values)) < 1e-11
    assert np.array_equal(cold_fld.values, fld.values)
    assert len(warm_calls) < len(cold_calls)


def test_stream_function_rejects_folded_shape(base):
    with pytest.raises(TidaldiskError):
        solve_phi_h(ShapeCoeffs(0.8, np.zeros(0, dtype=complex)),
                    base.profile, n_radial=16, n_angular=32)


# --------------------------------------------------------------------------
# boundary potential
# --------------------------------------------------------------------------

def test_boundary_potential_disk_values():
    # unperturbed disk: the log-kernel potential vanishes on the circle and
    # the nu = 1 potential equals -4 there
    zero = ShapeCoeffs.zero(2)
    ub = boundary_potential(zero, case_b(), 128)
    assert np.max(np.abs(ub)) < 1e-13
    ua = boundary_potential(zero, case_a(1.0), 128)
    assert np.max(np.abs(ua + 4.0)) < 1e-12
    assert abs(u0(case_a(1.0), 1.0) + 4.0) < 1e-9


def test_boundary_potential_self_convergence(base):
    h = _small_shape()
    for case in (case_b(), case_a(0.7)):
        coarse = boundary_potential(h, case, 128)
        fine = boundary_potential(h, case, 256)
        assert np.max(np.abs(fine[::2] - coarse)) < 1e-10


def _loop_boundary_potential(h, case, M):
    """The per-target (log) and per-offset (power) loops that
    boundary_potential replaced, kept as a reference."""
    f, fp = eval_boundary(h, M)
    z = np.exp(1j * boundary_grid(M))
    yp = 1j * z * fp
    if case.is_log:
        diff = f[None, :] - f[:, None]
        P = (diff * (1j * np.conj(yp))[None, :]).real
        rho = np.abs(diff)
        idx = np.arange(M)
        dphi = boundary_grid(M)[None, :] - boundary_grid(M)[:, None]
        s2 = np.abs(2.0 * np.sin(dphi / 2.0))
        ratio = np.where(s2 > 0, rho / np.where(s2 > 0, s2, 1.0), 1.0)
        smooth = P * (0.5 * np.log(ratio) - 0.25)
        smooth[idx, idx] = 0.0
        vals = smooth.sum(axis=1) * (2.0 * np.pi / M)
        wlog = _kress_log_weights(M)
        logpart = np.empty(M)
        for i in range(M):
            logpart[i] = 0.25 * np.sum(np.roll(wlog, i) * P[i, :])
        return vals + logpart

    nu = case.nu
    offs, wq = _POWER_OFFSETS
    ch, cdh = _h_coeffs(h)
    ch[1] += 1.0
    cdh[0] += 1.0
    k1 = np.arange(h.N + 2)
    k2 = np.arange(h.N + 1)
    out = np.zeros(M)
    pad = np.zeros(M, dtype=complex)
    for off, wgt in zip(offs, wq):
        pad[:] = 0.0
        pad[: len(k1)] = ch * np.exp(1j * k1 * off)
        y_off = M * np.fft.ifft(pad)
        pad[:] = 0.0
        pad[: len(k2)] = cdh * np.exp(1j * k2 * off)
        fp_off = M * np.fft.ifft(pad)
        yp_off = 1j * np.exp(1j * (boundary_grid(M) + off)) * fp_off
        diffv = y_off - f
        P = (diffv * 1j * np.conj(yp_off)).real
        out += wgt * P * (-(np.abs(diffv) ** (-nu)) / (2.0 - nu))
    return out


@pytest.mark.parametrize("nu, M", [
    (None, 64), (None, 65), (None, 512), (None, 600), (None, 1000),
    (0.5, 64), (0.5, 256), (1.0, 64), (1.0, 256),
])
def test_boundary_potential_matches_reference_loop(nu, M):
    # nu = None is the log kernel; at M = 600 and 1000 its last block of
    # targets is partial, and at M = 256 the last block of power-kernel
    # offsets is.  The log-kernel U is a sum of O(1) terms that
    # cancels to 0 on the disk, so its rounding error does not shrink with
    # the shape: the perturbation is 0.1, where max|U| is about 0.06.
    case = case_b() if nu is None else case_a(nu)
    rng = np.random.default_rng(7)
    N = 12
    gn = 0.1 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    gn /= np.arange(1, N + 1) ** 2
    h = ShapeCoeffs(0.01 * rng.standard_normal(), gn)
    new = boundary_potential(h, case, M)
    ref = _loop_boundary_potential(h, case, M)
    assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))


# --------------------------------------------------------------------------
# particle-side quantities
# --------------------------------------------------------------------------

def test_particle_force_disk(base):
    zero = ShapeCoeffs.zero(2)
    assert abs(particle_force(zero, case_b(), 2.0) - np.pi / 2.0) < 1e-12
    assert abs(particle_force(zero, case_a(1.0), 2.5)
               - u0_d1(case_a(1.0), 2.5)) < 1e-10
    # symmetric shapes exert no transverse force
    h = ShapeCoeffs(0.01, np.array([0.02 + 0j, 0.005 + 0j]))
    assert abs(particle_force(h, case_b(), 2.0, component=1)) < 1e-14


def test_particle_force_guards():
    with pytest.raises(ValueError):
        particle_force(ShapeCoeffs.zero(1), case_b(), 1.2)
    with pytest.raises(TidaldiskError):
        particle_force(ShapeCoeffs(0.4, np.zeros(0, dtype=complex)),
                       case_b(), 1.6)


def test_center_of_mass_disk():
    com = center_of_mass(ShapeCoeffs.zero(2), 0.0, 2.0)
    assert np.max(np.abs(com)) < 1e-14
    com_m = center_of_mass(ShapeCoeffs.zero(2), 0.1, 2.0)
    assert abs(com_m[0] - 0.1 * 2.0 / (np.pi + 0.1)) < 1e-13


# --------------------------------------------------------------------------
# residual
# --------------------------------------------------------------------------

def test_residual_vanishes_at_base(base):
    S, r2, r3 = residual_F(ShapeCoeffs.zero(16), base.a0, base.lambda0,
                           0.0, base, n_radial=32, n_angular=64)
    assert residual_norm(S, r2, r3) < 1e-12


def test_residual_affine_in_lambda(base):
    h = _small_shape()
    d = 0.37
    S1, r2a, r3a = residual_F(h, base.a0, base.lambda0, 0.0, base,
                              n_radial=32, n_angular=64)
    S2, r2b, r3b = residual_F(h, base.a0, base.lambda0 + d, 0.0, base,
                              n_radial=32, n_angular=64)
    # lambda enters only the zero mode of the boundary equation, linearly
    assert abs((S2.coeffs[0] - S1.coeffs[0]) + d) < 1e-13
    assert np.max(np.abs(S2.coeffs[1:] - S1.coeffs[1:])) < 1e-13
    assert r2a == r2b and r3a == r3b


def test_residual_linearization_consistency(base, op):
    # F(base + eps x) = eps DF x + O(eps^2)
    rng = np.random.default_rng(9)
    gn = np.zeros(op.N, dtype=complex)
    gn[:6] = 0.5 * (rng.standard_normal(6) + 1j * rng.standard_normal(6))
    g = ShapeCoeffs(0.3, gn)
    b, mu = 0.2, -0.4
    S_lin, Z_lin, M_lin = apply_forward(op, g, b, mu)

    def err(eps):
        S, r2, r3 = residual_F(g.scaled(eps), base.a0 + eps * b,
                               base.lambda0 + eps * mu, 0.0, base)
        dS = S.coeffs - eps * S_lin.coeffs[:len(S.coeffs)]
        return max(np.max(np.abs(dS)), abs(r2 - eps * Z_lin),
                   abs(r3 - eps * M_lin))

    e1, e2 = err(1e-3), err(5e-4)
    assert e1 < 2e-4
    assert e2 < 0.35 * e1  # quadratic decay, allowing some slack


# --------------------------------------------------------------------------
# quasi-Newton continuation
# --------------------------------------------------------------------------

def test_solve_zero_mass(op, base):
    sol = quasi_newton_solve(op, 0.0)
    assert sol.iterations == 0
    assert sol.a == base.a0 and sol.lam == base.lambda0
    assert sol.residual_norm < 1e-12


def test_solve_small_mass(op, base):
    m = 5e-5
    sol = quasi_newton_solve(op, m, tol=1e-10)
    assert sol.residual_norm < 1e-10
    assert sol.iterations <= 5
    assert sol.history[-1] == sol.residual_norm
    d = sol.diagnostics
    assert d["area_error"] < 1e-10
    assert abs(d["center_of_mass"][0]) < 1e-8
    assert d["symmetry_defect"] < 1e-12
    assert d["injectivity_margin"] > 0.5
    assert d["pressure_jump_sup"] < 1e-8
    # the body leans toward the particle and drifts slightly closer
    assert sol.a != base.a0

    half = quasi_newton_solve(op, m / 2, tol=1e-10)
    ratio = (sol.a - base.a0) / (half.a - base.a0)
    assert abs(ratio - 2.0) < 0.05


def test_solve_mass_cap(op):
    with pytest.raises(TidaldiskError, match="cap"):
        quasi_newton_solve(op, 1.0)


def test_solve_large_mass_fails(op):
    with pytest.raises(TidaldiskError):
        quasi_newton_solve(op, 0.5, m_cap=1.0, max_iter=10)


def test_solution_serialization(op):
    sol = quasi_newton_solve(op, 5e-5)
    d = sol.to_json_dict()
    assert d["schema_version"] == 1
    assert d["m"] == 5e-5
    rows = list(sol.boundary_csv_rows())
    assert len(rows) == 512


# --------------------------------------------------------------------------
# pressure
# --------------------------------------------------------------------------

def test_vorticity_primitive_rigid(base):
    F = vorticity_primitive(base.profile, base.omega0)
    u = np.linspace(-1, 1, 11)
    expect = (-2.0 + 2.0 * base.omega0) * u
    assert np.max(np.abs(F(u) - expect)) < 1e-13
    assert F(np.array([0.0]))[0] == 0.0


def test_pressure_vanishes_on_base_boundary(base):
    h = ShapeCoeffs.zero(4)
    fld = solve_phi_h(h, base.profile, n_radial=32, n_angular=64)
    p = pressure_on_boundary(fld, h, base.lambda0, base)
    assert np.max(np.abs(p)) < 1e-10
