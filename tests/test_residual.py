import dataclasses
import tracemalloc

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import pytest
from scipy.integrate import quad
from scipy.linalg import lu_factor, lu_solve
from scipy.special import gamma, rgamma

from disk_quadrature import disk_rule
from tidaldisk.chebyshev import HalfDiameterGrid
from tidaldisk.errors import (ConfigError, DegenerateBaseError, DivergenceError,
                              TidaldiskError)
from tidaldisk.kernel import (linear_preset, profile_from_table, rigid_preset,
                              smooth_profile)
from tidaldisk.linop import apply_forward, make_operator
from tidaldisk import linop, residual
from tidaldisk.potential import case_a, case_b, make_base_state, u0, u0_d1
from tidaldisk.residual import (EquilibriumSolution, _mode_eigs,
                                _product_weights, _solve_modes,
                                boundary_potential, center_of_mass,
                                field_equation_residual, particle_force,
                                particle_potential_at, quasi_newton_solve,
                                residual_F, residual_norm, solve_phi_h)
from tidaldisk.spectral import (ShapeCoeffs, _h_coeffs, boundary_grid,
                               boundary_curve, conformal_factor_grid,
                               eval_h_at, injectivity_margin)


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


def test_left_product_real_matrix():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((15, 15))
    Z = rng.standard_normal((15, 9)) + 1j * rng.standard_normal((15, 9))
    assert np.max(np.abs(residual._left_product(A, Z) - A.astype(complex) @ Z)) < 1e-14
    assert np.array_equal(residual._left_product(A + 0j, Z), (A + 0j) @ Z)


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
    """Copy of profile whose d1, called once per Picard step and once at
    the start, is counted."""
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
    cold_fld = solve_phi_h(h, cold, n_radial=32, n_angular=64)
    phi0 = (base_linear.phi0(fld.r) - base_linear.phi0(1.0))[:, None]
    warm_fld = solve_phi_h(h, base_linear.profile, n_radial=32, n_angular=64,
                           u_init=phi0)
    assert np.max(np.abs(warm_fld.values - cold_fld.values)) < 1e-11
    assert np.array_equal(cold_fld.values, fld.values)
    # G' is evaluated at the start and once per step; the benchmark's
    # picard_iters counter counts these calls
    assert len(cold_calls) == cold_fld.picard_steps + 1
    # At _small_shape() itself both starts take 5 steps under the
    # a-posteriori stop; on the smaller shapes of actual solves the phi0
    # start saves a step
    for scale in (0.1, 0.01):
        hs = h.scaled(scale)
        cold_steps = solve_phi_h(hs, base_linear.profile, n_radial=32,
                                 n_angular=64).picard_steps
        warm_steps = solve_phi_h(hs, base_linear.profile, n_radial=32,
                                 n_angular=64, u_init=phi0).picard_steps
        assert warm_steps < cold_steps, (scale, warm_steps, cold_steps)


@pytest.mark.parametrize("n", [0, 8])
def test_stream_function_stop_rule_uniform_start(n):
    # From u = 0 on the unit disk, wG' = G'(0) = 1 is uniform and on the
    # damping grid, so the contraction bound at the start iterate alone is
    # 0 and would stop the solve after one step.
    profile = smooth_profile(lambda u: -2.0 + u + 4.0 * np.asarray(u) ** 3,
                             lambda u: 1.0 + 12.0 * np.asarray(u) ** 2)
    h = ShapeCoeffs.zero(n)
    fld = solve_phi_h(h, profile)
    assert fld.picard_steps > 1
    assert field_equation_residual(fld, h, profile) < 1e-10


def _table_profile():
    """PCHIP profile of G(u) = -2 + u + 4 u^3, whose slope 1 + 12 u^2 varies
    across the field."""
    u = np.linspace(-1.0, 1.0, 21)
    return profile_from_table(u, -2.0 + u + 4.0 * u**3)


@pytest.mark.parametrize("slope", [1.0, 5.0, 20.0, "table"])
def test_stream_function_stop_rule_accuracy(slope):
    # the a-posteriori stop at tol = 1e-12 leaves the field within 1e-12 of
    # the same iteration run to 1e-15
    profile = (_table_profile() if slope == "table"
               else linear_preset(slope, -2.0))
    steps = []
    for amp in (1e-4, 1e-2, 5e-2):
        h = _small_shape().scaled(amp / 0.01)
        fld = solve_phi_h(h, profile, n_radial=32, n_angular=64, tol=1e-12)
        ref = solve_phi_h(h, profile, n_radial=32, n_angular=64, tol=1e-15)
        err = np.max(np.abs(fld.values - ref.values))
        assert err <= 1e-12, (slope, amp, err)
        assert fld.damping % residual._LAM_STEP == 0.0
        steps.append(fld.picard_steps)
    if slope == "table":
        # the damping follows the midpoint of each iterate's wG' range as
        # it spreads from about [0.96, 1.14] at u = 0 to [0.93, 2.84]
        # (amp 1e-2); held at its first value, 1.0625, these cold solves
        # took 16, 16 and 17 steps
        assert steps == [10, 11, 12]


def test_disk_field_spectrum_is_rfft(base_linear):
    # the field keeps the modes of its last Picard step, which
    # boundary_normal_deriv reads in place of an rfft of the values
    fld = solve_phi_h(_small_shape(), base_linear.profile, n_radial=32,
                      n_angular=64)
    assert fld.picard_steps > 1
    ref = np.fft.rfft(fld.values, axis=1)
    assert np.max(np.abs(fld.spectrum - ref)) <= 1e-14
    rows = [fld.grid.d1(p)[:1] for p in (0, 1)]
    dn = np.fft.irfft(residual._parity_fold(rows, ref)[0], n=64)
    assert np.max(np.abs(fld.boundary_normal_deriv() - dn)) <= 1e-14


@pytest.mark.parametrize("N, M", [(8, 18), (8, 64), (64, 256), (128, 512)])
def test_conformal_factor_grid_matches_polar_sum(N, M):
    h = _decaying_shape(N, 2, 0.05, seed=N)
    r = HalfDiameterGrid(32).r
    z = r[:, None] * np.exp(1j * boundary_grid(M))[None, :]
    ref = np.abs(1.0 + eval_h_at(h, z)[1]) ** 2
    assert np.max(np.abs(conformal_factor_grid(h, 32, M) - ref)) <= 4e-15
    with pytest.raises(ConfigError):
        conformal_factor_grid(h, 32, 2 * N + 1)


def test_stream_function_rigid_one_step(base):
    # G' = 0: no damping, and the first step solves the equation exactly
    fld = solve_phi_h(_small_shape(), base.profile, n_radial=32, n_angular=64)
    assert fld.picard_steps == 1 and fld.damping == 0.0


@pytest.fixture(scope="module")
def op_linear(base_linear):
    return make_operator(base_linear, N=16)


def _linear_cap(op):
    return 1e-3 * float(np.min(np.abs(op.table.omega[1:])))


def test_solve_sweep_shares_eigenbasis(op_linear):
    # the damping grid gives nearby shapes one _mode_eigs entry, so a sweep
    # pays for at most one eigen-decomposition
    cap = _linear_cap(op_linear)
    residual._mode_eigs.cache_clear()
    for frac in (0.3, 0.6, 0.9):
        quasi_newton_solve(op_linear, frac * cap, n_radial=32, n_angular=64)
    assert residual._mode_eigs.cache_info().misses <= 1


def test_solve_warm_start_across_iterates(op_linear):
    sol = quasi_newton_solve(op_linear, 0.9 * _linear_cap(op_linear),
                             n_radial=32, n_angular=64)
    steps = sol.diagnostics["picard_steps"]
    assert sol.iterations == 2 and len(steps) == 2
    # the second residual_F starts from the first one's field
    assert steps[1] < steps[0]


def test_stream_function_rejects_folded_shape(base):
    with pytest.raises(TidaldiskError):
        solve_phi_h(ShapeCoeffs(0.8, np.zeros(0, dtype=complex)),
                    base.profile, n_radial=16, n_angular=32)


# --------------------------------------------------------------------------
# boundary potential
# --------------------------------------------------------------------------

def _potential(h, case, M):
    return boundary_potential(*boundary_curve(h, M), case)


def test_boundary_potential_disk_values():
    # unperturbed disk: the log-kernel potential vanishes on the circle and
    # the nu = 1 potential equals -4 there
    zero = ShapeCoeffs.zero(2)
    ub = _potential(zero, case_b(), 128)
    assert np.max(np.abs(ub)) < 1e-13
    ua = _potential(zero, case_a(1.0), 128)
    assert np.max(np.abs(ua + 4.0)) < 1e-12
    assert abs(u0(case_a(1.0), 1.0) + 4.0) < 1e-9


def test_boundary_potential_self_convergence(base):
    h = _small_shape()
    for case in (case_b(), case_a(0.7)):
        coarse = _potential(h, case, 128)
        fine = _potential(h, case, 256)
        assert np.max(np.abs(fine[::2] - coarse)) < 1e-10


def _loop_log_potential(h, M):
    """The per-target loop that the log kernel of boundary_potential
    replaced, kept as a reference."""
    f, yp = boundary_curve(h, M)
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
    wlog = _product_weights(M)
    logpart = np.empty(M)
    for i in range(M):
        logpart[i] = 0.25 * np.sum(np.roll(wlog, i) * P[i, :])
    return vals + logpart


@pytest.mark.parametrize("nu, M", [
    (None, 64), (None, 65), (None, 512), (None, 600), (None, 1000),
])
def test_boundary_potential_matches_reference_loop(nu, M):
    # nu = None is the log kernel (the power kernel is checked against quad
    # below); at M = 600 and 1000 the last block of targets is partial.  The log-kernel U is a sum of O(1) terms that
    # cancels to 0 on the disk, so its rounding error does not shrink with
    # the shape: the perturbation is 0.1, where max|U| is about 0.06.
    rng = np.random.default_rng(7)
    N = 12
    gn = 0.1 * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    gn /= np.arange(1, N + 1) ** 2
    h = ShapeCoeffs(0.01 * rng.standard_normal(), gn)
    new = _potential(h, case_b(), M)
    ref = _loop_log_potential(h, M)
    assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))


def _rough_shape(N, amp, seed):
    """g0 = 0.003 and |g_n| ~ amp / n with random phases."""
    rng = np.random.default_rng(seed)
    gn = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / np.arange(1, N + 1)
    return ShapeCoeffs(0.003, amp * gn / np.max(np.abs(gn)))


def _quad_power_potential(h, nu, t0):
    """-1/(2 - nu) int P |y - x|^(-nu) dt at x = y(t0), by adaptive quad on
    either side of the singular point, with y(t) = f(e^{it}) summed
    directly from its coefficients."""
    ch, _ = _h_coeffs(h)
    ch[1] += 1.0
    k = np.arange(len(ch))
    x = np.sum(ch * np.exp(1j * k * t0))

    def integrand(t):
        e = ch * np.exp(1j * k * t)
        d = np.sum(e) - x
        yp = np.sum(1j * k * e)
        P = d.real * yp.imag - d.imag * yp.real
        return -P * abs(d) ** (-nu) / (2.0 - nu)

    return sum(quad(integrand, lo, lo + np.pi, epsabs=1e-14, epsrel=1e-13,
                    limit=1000)[0] for lo in (t0 - np.pi, t0))


@pytest.mark.parametrize("nu, M", [(0.5, 256), (0.5, 512), (1.0, 256), (1.0, 512)])
def test_boundary_potential_power_matches_quad(nu, M):
    # N = 64 with |gn| ~ 0.01/n: the modes near n = 64 move U by about
    # 1e-3, which the graded 820-offset rule this replaced missed by 3e-2
    h = _rough_shape(64, 0.01, 3)
    U = _potential(h, case_a(nu), M)
    for i in (0, M // 5, M // 2 + 3):
        ref = _quad_power_potential(h, nu, 2.0 * np.pi * i / M)
        assert abs(U[i] - ref) < 1e-9


def _offset_form_potential(f, yp, case, dtype=np.float64):
    """The (target, offset) form that boundary_potential replaced, kept as
    a reference: P and the kernel factor are formed elementwise on sliding
    windows over [f, f] and summed row by row.  It runs in the float type
    dtype (np.longdouble for rounding-level checks) from the same float64
    samples, product weights and k = 0 term."""
    real = np.dtype(dtype).type
    pi = real("3.14159265358979323846264338327950288")
    M = len(f)
    s2 = 4 * np.sin(pi * np.arange(1, M).astype(dtype) / M) ** 2
    if case.is_log:
        trap = pi / (2 * M)
        wk = _product_weights(M)[1:].astype(dtype) / 4 - trap
    else:
        wts = _product_weights(M, case.nu)
        wk = wts[1:].astype(dtype) / s2
    fc, ypc = (z.astype(np.result_type(dtype, 1j)) for z in (f, yp))
    # [i, k - 1] holds the source j = i + k (mod M), k = 1..M-1
    src = sliding_window_view(np.concatenate([fc, fc])[1:], M - 1)[:M]
    ysrc = sliding_window_view(np.concatenate([ypc, ypc])[1:], M - 1)[:M]
    diff = src - fc[:, None]
    P = diff.real * ysrc.imag - diff.imag * ysrc.real
    ratio = (diff.real**2 + diff.imag**2) / s2
    factor = (trap * np.log(ratio) + wk if case.is_log
              else ratio ** (-real(case.nu) / 2) * wk)
    out = np.einsum("ik,ik->i", P, factor)
    if case.is_log:
        return out
    ypp = np.fft.ifft(1j * np.arange(M) * np.fft.fft(yp))
    diag = 0.5 * (ypp * yp.conj()).imag * np.abs(yp) ** (-case.nu)
    return -(out + real(wts[0]) * diag.astype(dtype)) / (2 - real(case.nu))


@pytest.mark.parametrize("M", [64, 65, 256, 600])
@pytest.mark.parametrize("nu", [None, 0.3, 0.5, 1.0])
def test_boundary_potential_matches_offset_form(nu, M):
    # odd M, and at M = 65 and 600 a partial last block of target rows
    case = case_b() if nu is None else case_a(nu)
    f, yp = boundary_curve(_rough_shape(min(24, M // 2 - 1), 0.05, 11), M)
    U = boundary_potential(f, yp, case)
    ref = _offset_form_potential(f, yp, case)
    assert np.max(np.abs(U - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("case", [case_b(), case_a(0.5), case_a(1.0)],
                         ids=["log", "nu0.5", "nu1"])
def test_boundary_potential_rounding(case):
    # the separated products sum about each block's middle target: 5.2e-16
    # (log), 2.0e-15 (nu = 0.5) and 3.6e-15 (nu = 1) on this shape, where
    # sums about the origin measured 1.1e-15, 2.4e-15 and 6.5e-15 and the
    # offset form 5.9e-16, 3.6e-15 and 4.5e-15
    f, yp = boundary_curve(_rough_shape(64, 0.1, 1), 256)
    ref = _offset_form_potential(f, yp, case, np.longdouble)
    err = float(np.max(np.abs(boundary_potential(f, yp, case) - ref)))
    assert err <= 8e-16 * max(1.0, float(np.max(np.abs(ref))))


def test_boundary_potential_memory_bounded():
    # blocks of 2^14 // M target rows: at M = 1024 one call peaks at
    # 0.45 MB (the offset form at 1.2 MB), where one M x M array takes 8 MB
    f, yp = boundary_curve(_rough_shape(64, 0.01, 2), 1024)
    for case in (case_b(), case_a(0.5)):
        boundary_potential(f, yp, case)  # fill the weight cache
        tracemalloc.start()
        try:
            boundary_potential(f, yp, case)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@pytest.mark.parametrize("M", [64, 65, 256, 257])
def test_product_weights_exact_on_cosines(M):
    # int cos(k t) K(t - t_i) dt = 2 pi c_k cos(k t_i) holds on the grid for
    # k <= M // 2 (k < M/2 for even M), with c_k = -1/k for the log kernel
    t = boundary_grid(M)
    circ = (np.arange(M)[None, :] - np.arange(M)[:, None]) % M
    k = np.arange((M + 1) // 2)
    cos = np.cos(np.outer(k, t))
    for nu in (None, 0.3, 0.5, 1.0):
        if nu is None:
            ck = np.concatenate([[0.0], -1.0 / k[1:]])
        else:
            s = 2.0 - nu
            ck = ((-1.0) ** k * gamma(s + 1.0) * rgamma(s / 2.0 + k + 1.0)
                  * rgamma(s / 2.0 - k + 1.0))
        W = _product_weights(M, nu)[circ]
        assert np.max(np.abs(cos @ W.T - 2.0 * np.pi * ck[:, None] * cos)) < 1e-12


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
    assert abs(particle_force(h, case_b(), 2.0).imag) < 1e-14


@pytest.mark.parametrize("case", [case_b(), case_a(0.5)], ids=["log", "nu0.5"])
def test_particle_force_from_residual_curve(case):
    # boundary_points(8) = 256: every 2nd or 3rd point of a 512- or 768-point
    # sample is the force grid; a 300-point sample is not used
    h = _decaying_shape(8, 2, 1e-2, seed=4)
    fresh = particle_force(h, case, 2.0)
    for M in (256, 512, 768, 300):
        got = particle_force(h, case, 2.0, boundary_curve(h, M))
        assert abs(got - fresh) <= 1e-15, M


@pytest.mark.parametrize("n_angular, samples", [(256, 1), (512, 1), (300, 2)])
def test_residual_samples_curve_once(base, monkeypatch, n_angular, samples):
    # particle_force takes residual_F's sample when boundary_points(N)
    # divides n_angular, and samples the curve afresh when it does not
    calls = []
    sample = residual.boundary_curve
    monkeypatch.setattr(residual, "boundary_curve",
                        lambda h, M: calls.append(M) or sample(h, M))
    residual_F(_small_shape(), base.a0, base.lambda0, 0.0, base,
               n_radial=16, n_angular=n_angular)
    assert calls == [n_angular, 256][:samples]


def test_particle_force_guards():
    with pytest.raises(ConfigError):
        particle_force(ShapeCoeffs.zero(1), case_b(), 1.2)
    with pytest.raises(TidaldiskError):
        particle_force(ShapeCoeffs(0.4, np.zeros(0, dtype=complex)),
                       case_b(), 1.6)


def test_particle_side_error_classes(op, monkeypatch):
    # grid and base-state failures leave as TidaldiskError subclasses with
    # their exit codes, not as ValueError
    with pytest.raises(ConfigError):
        residual_F(ShapeCoeffs.zero(16), op.base.a0, op.base.lambda0, 0.0,
                   op.base, n_angular=16)
    monkeypatch.setattr(linop, "u0_d2", lambda case, a: 10.0)
    with pytest.raises(DegenerateBaseError):
        make_operator(op.base, table=op.table)


def _decaying_shape(N, power, scale, seed):
    """Random shape with |g_n| ~ scale / n^power."""
    rng = np.random.default_rng(seed)
    n = np.arange(1, N + 1)
    gn = scale * (rng.standard_normal(N) + 1j * rng.standard_normal(N))
    return ShapeCoeffs(scale * rng.standard_normal(), gn / n**power)


def _body_rule(h, n_r, n_phi):
    """Nodes f(y) and weights |f'(y)|^2 dA(y) of a disk rule carried onto
    the body: the reference for the boundary-integral forms."""
    y, wt = disk_rule(n_r, n_phi)
    fv, dfv = eval_h_at(h, y)
    return y + fv, np.abs(1.0 + dfv) ** 2 * wt


@pytest.mark.parametrize("case", [case_b(), case_a(0.5), case_a(1.0)],
                         ids=["log", "nu0.5", "nu1"])
def test_particle_force_matches_body_integral(case):
    # the force grid is boundary_points(N) whatever the residual's grid; at
    # N = 128 a 128-angle disk rule aliases h's 130 coefficients, the
    # 512-angle one does not
    strength, p = case.force_law
    for N in (8, 64, 128):
        h = _decaying_shape(N, 2, 1e-3, seed=3)
        f, wf = _body_rule(h, 128, 512)
        for a in (1.6, 2.0, 4.0):
            af = a - f
            ref = np.sum(strength * af * np.abs(af) ** (-(p + 2.0)) * wf)
            force = particle_force(h, case, a)
            assert abs(force.real - ref.real) < 1e-13, (N, a)
            assert abs(force.imag - ref.imag) < 1e-13, (N, a)


def test_center_of_mass_matches_body_integral():
    h = _decaying_shape(80, 1, 0.02, seed=7)
    f, wf = _body_rule(h, 128, 512)
    ref = np.sum(f * wf) / np.pi
    com = center_of_mass(h, 0.0, 2.0)
    assert abs(ref.imag) > 1e-3  # asymmetric
    assert abs(com[0] - ref.real) < 1e-13 and abs(com[1] - ref.imag) < 1e-13


def test_center_of_mass_disk():
    com = center_of_mass(ShapeCoeffs.zero(2), 0.0, 2.0)
    assert np.max(np.abs(com)) < 1e-14
    com_m = center_of_mass(ShapeCoeffs.zero(2), 0.1, 2.0)
    assert abs(com_m[0] - 0.1 * 2.0 / (np.pi + 0.1)) < 1e-13


# --------------------------------------------------------------------------
# residual
# --------------------------------------------------------------------------

def test_injectivity_guards(base):
    # |h| + |h'| = 0.8 + 1.6 at z = 1: the certificate fails
    folded = ShapeCoeffs(0.0, np.array([0.8 + 0j]))
    with pytest.raises(TidaldiskError, match="injective"):
        solve_phi_h(folded, base.profile, n_radial=32, n_angular=64)
    with pytest.raises(TidaldiskError, match="injective"):
        residual_F(folded, base.a0, base.lambda0, 0.0, base, n_radial=32,
                   n_angular=64)


def test_folded_iterate_diverges(op, monkeypatch):
    # boundary_potential no longer certifies the shape; the quasi-Newton
    # loop still refuses an iterate that lost the certificate
    gn = np.zeros(op.N, dtype=complex)
    gn[0] = 0.8
    monkeypatch.setattr(residual, "first_order_response",
                        lambda op, m: (ShapeCoeffs(0.0, gn), 0.0, 0.0))
    with pytest.raises(DivergenceError, match="lost certified injectivity"):
        quasi_newton_solve(op, 1e-6)

def test_residual_vanishes_at_base(base):
    S, r2, r3 = residual_F(ShapeCoeffs.zero(16), base.a0, base.lambda0,
                           0.0, base, n_radial=32, n_angular=64)
    assert residual_norm(S, r2, r3) < 1e-12


def test_residual_base_field_once_per_grid():
    # residual_F starts from phi0(r) - phi0(1) on the radial grid; the base
    # state samples phi0 once per n_radial, and the field equals a fresh
    # evaluation bit for bit
    base = make_base_state(case_b(), 2.0, linear_preset(1.0, -2.0))
    calls = []
    evaluate = base.phi0.evaluate
    base.phi0.evaluate = lambda r: calls.append(1) or evaluate(r)
    r = HalfDiameterGrid(32).r
    fresh = base.phi0(r) - base.phi0(1.0)
    h = _small_shape()
    fields = []
    for _ in range(2):
        *_, fld = residual_F(h, base.a0, base.lambda0, 0.0, base, n_radial=32,
                             n_angular=64, return_field=True)
        fields.append(fld.values)
    assert len(calls) == 3  # fresh (two), then the first residual_F only
    cached = base.phi0.dirichlet_field(32)
    assert np.array_equal(cached, fresh)
    assert np.array_equal(fields[0], fields[1])
    assert base.phi0.dirichlet_field(16).shape == (16,)


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
    assert sol.diagnostics["picard_steps"] == [1]


def test_solve_zero_mass_checks_tol():
    # on a 41-knot PCHIP table the shot base state misses the discrete
    # system by about 5e-9 at 64 radii, so m = 0 cannot claim tol 1e-10
    u = np.linspace(-1.5, 0.5, 41)
    base = make_base_state(case_b(), 2.0,
                           profile_from_table(u, -2.0 + u + 4.0 * u**3))
    op = make_operator(base, N=16)
    with pytest.raises(DivergenceError, match="unperturbed disk") as info:
        quasi_newton_solve(op, 0.0, tol=1e-10)
    assert len(info.value.history) == 1
    assert 1e-10 < info.value.history[0] < 1e-7
    assert quasi_newton_solve(op, 0.0, tol=1e-7).residual_norm < 1e-7


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
    # the margin the quasi-Newton loop checked on the final iterate
    assert d["injectivity_margin"] == injectivity_margin(sol.h)
    assert d["pressure_jump_sup"] < 1e-8
    assert len(d["picard_steps"]) == sol.iterations
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


def test_solve_default_angular_grid_follows_N(base):
    # the library default n_angular is boundary_points(N), as on the config
    # path: 512 at N = 128, where 2N + 2 = 258 points are needed
    sol = quasi_newton_solve(make_operator(base, N=128), 1e-5)
    assert sol.residual_norm < 1e-10
    assert sol.iterations <= 3


@pytest.mark.parametrize("nu, frac", [(0.5, 0.9), (1.0, 0.1), (1.0, 0.9)])
def test_solve_near_body_power_kernel(nu, frac):
    # At a0 = 1.6 the particle excites shape modes up to n ~ 64 enough that
    # a boundary potential wrong there (the graded rule this replaced)
    # made these solves diverge.
    base = make_base_state(case_a(nu), 1.6, rigid_preset(1.0))
    op64 = make_operator(base, N=64)
    m_cap = 1e-3 * float(np.min(np.abs(op64.table.omega[1:])))
    sol = quasi_newton_solve(op64, frac * m_cap, tol=1e-10, n_angular=256)
    assert sol.residual_norm < 1e-10
    assert sol.iterations <= 3


def test_solution_serialization(op):
    sol = quasi_newton_solve(op, 5e-5)
    d = sol.to_json_dict()
    assert d["schema_version"] == 1
    assert d["m"] == 5e-5
    rows = list(sol.boundary_csv_rows())
    assert len(rows) == 512


def test_boundary_csv_rows_at_n256():
    # 512 rows cannot carry 2N + 2 = 514 points: the rows follow
    # boundary_points(N) = 1024 past N = 128
    gn = np.zeros(256, dtype=complex)
    gn[[0, 255]] = 1e-3
    sol = EquilibriumSolution(ShapeCoeffs(0.0, gn), 2.0, 0.0, 1e-6, 0.0, 1,
                              [0.0], {})
    rows = list(sol.boundary_csv_rows())
    assert len(rows) == 1024
    f = np.array([x1 + 1j * x2 for _, x1, x2 in rows])
    phi = np.array([p for p, _, _ in rows])
    z = np.exp(1j * phi)
    assert np.max(np.abs(f - z - 1e-3 * (z**2 + z**257))) < 1e-15
