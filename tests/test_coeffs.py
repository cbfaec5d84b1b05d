import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from tidaldisk.coeffs import (ModeTable, _disk_rule, build_mode_table, c_n,
                              c_n_closed_log, c_n_digamma_nu1,
                              c_n_disk_quadrature, kernel_moments,
                              multiplier_terms)
from tidaldisk.errors import QuadratureError
from tidaldisk.kernel import linear_preset, rigid_preset
from tidaldisk.potential import case_a, case_b, make_base_state, u0


def test_closed_log_values():
    assert c_n_closed_log(0) == np.pi / 2
    assert c_n_closed_log(1) == 0.0
    assert abs(c_n_closed_log(2) - np.pi / 4) < 1e-15
    assert abs(c_n_closed_log(4) - 3 * np.pi / 8) < 1e-15
    n = np.arange(40)
    assert np.array_equal(c_n_closed_log(n), [c_n_closed_log(int(k)) for k in n])


def test_log_quadrature_matches_closed_form():
    for n in (0, 1, 2, 7, 16):
        assert abs(c_n_disk_quadrature(case_b(), n) - c_n_closed_log(n)) < 1e-11


def _two_branch_disk_quadrature(case, n_max):
    """Reference: c_0..c_n_max by the disk quadrature with one branch per
    kernel, K = ln|1 - y| (log) or |1 - y|^-nu (power)."""
    k = np.arange(n_max + 1)
    rn, rw, pn, pw = _disk_rule(n_max)
    dist = np.hypot(1.0 - rn[:, None] * np.cos(pn), rn[:, None] * np.sin(pn))
    kern = np.log(dist) if case.is_log else dist ** -case.nu
    radial = (rn * rw)[:, None] * rn[:, None] ** k
    angle = pw[:, None] * np.exp(1j * np.outer(pn, k))
    mom = np.sum(radial * (kern @ angle), axis=0)
    if case.is_log:
        plain = np.sum(radial, axis=0) * np.sum(angle, axis=0)
        vals = (k + 1) * mom + 0.5 * np.cumsum(plain)
    else:
        vals = 0.5 * case.nu * np.cumsum(mom) - (k + 1) * mom
    return vals.real


@pytest.mark.parametrize("case", [case_b(), case_a(0.3), case_a(0.5),
                                  case_a(0.92), case_a(1.0)],
                         ids=lambda c: c.label())
def test_disk_quadrature_matches_two_branch_form(case):
    n = np.arange(65)
    got = c_n_disk_quadrature(case, n)
    ref = _two_branch_disk_quadrature(case, 64)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


def test_power_moments_closed_values():
    # at nu = 1: m_0 = 2 and m_1 = 2/3 (elementary disk integrals)
    m = kernel_moments(1.0, 1)
    assert abs(m[0] - 2.0) < 1e-10
    assert abs(m[1] - 2.0 / 3.0) < 1e-10


def _kernel_moments_per_k(nu, n_max, series_terms=20000):
    """Reference: the Euler-Maclaurin tail by one scalar quad per k."""
    P = series_terms
    p = np.arange(P + n_max + 3, dtype=float)
    a = np.exp(gammaln(p + nu / 2.0) - gammaln(nu / 2.0) - gammaln(p + 1.0))
    lg_nu = gammaln(nu / 2.0)
    p = p[:P]
    out = np.empty(n_max + 1)
    for k in range(n_max + 1):
        head = np.pi * np.sum(a[:P] * a[k:k + P] / (2.0 * p + 2.0 * k + 2.0))

        def t(x, k=k):
            la = gammaln(x + nu / 2.0) - lg_nu - gammaln(x + 1.0)
            lb = gammaln(x + k + nu / 2.0) - lg_nu - gammaln(x + k + 1.0)
            return np.pi * np.exp(la + lb) / (2.0 * x + 2.0 * k + 2.0)

        tail, _ = quad(t, P, np.inf, epsabs=1e-13, epsrel=1e-12, limit=200)
        h = 1e-3 * P
        tprime = (t(P + h) - t(P - h)) / (2.0 * h)
        out[k] = head + tail + 0.5 * t(P) - tprime / 12.0
    return out


@pytest.mark.parametrize("nu", [0.3, 0.5, 1.0])
def test_kernel_moments_match_per_k_quad(nu):
    ref = _kernel_moments_per_k(nu, 256)
    m = kernel_moments(nu, 256)
    assert np.max(np.abs(m - ref) / np.abs(ref)) <= 1e-11


@pytest.mark.parametrize("nu", [0.88, 0.92, 0.96])
def test_kernel_moments_near_nu_1(nu):
    # Near nu = 1 the binomial series converges slowest.  The
    # reference loop is only good to its absolute tolerance here: its
    # gammaln integrand is off by up to 3e-14, 1e-11 of m_256.
    ref = _kernel_moments_per_k(nu, 256)
    assert np.max(np.abs(kernel_moments(nu, 256) - ref)) <= 1e-13


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.92, 0.999999, 1.0])
def test_kernel_moments_gamma_ratio_precision(nu):
    # the closed form m_k = (pi/2) Gamma(2-nu) Gamma(k+a)
    # / (Gamma(a) Gamma(2-a) Gamma(k+2-a)), a = nu/2, in 30 digits
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.mpf(nu) / 2
        pre = mp.pi / 2 * mp.gamma(2 - 2 * a) / (mp.gamma(a) * mp.gamma(2 - a))
        ref = np.array([float(pre * mp.gamma(k + a) / mp.gamma(k + 2 - a))
                        for k in range(513)])
    assert np.max(np.abs(kernel_moments(nu, 512) / ref - 1.0)) <= 1e-13


def test_power_coefficient_closed_values():
    c = case_a(1.0).coefficients(2)
    assert abs(c[0] + 2.0) < 1e-10
    assert abs(c[1]) < 1e-10
    assert abs(c[2] - 2.0 / 3.0) < 1e-10


def test_power_routes_cross_validate():
    for nu in (0.5, 1.0):
        case = case_a(nu)
        c = case.coefficients(32)
        for n in (1, 8, 16, 32):
            assert abs(c_n_disk_quadrature(case, n) - c[n]) < 1e-9


def test_c_n_dispatch():
    assert c_n(case_b(), 3) == c_n_closed_log(3)
    assert abs(c_n(case_a(1.0), 1)) < 1e-9
    # every n takes the closed form of the case
    assert c_n(case_a(1.0), 100) == case_a(1.0).coefficients(100)[100]
    with pytest.raises(ValueError):
        c_n(case_b(), -1)


# --------------------------------------------------------------------------
# closed forms of the case object against the independent routes
# --------------------------------------------------------------------------

_NUS = [0.3, 0.5, 0.92, 0.999999, 1.0]


def _c_from_moments(nu, n_max):
    """c_n = nu * sum_{k<=n} m_k - 2(n+1) m_n from the kernel moments."""
    m = kernel_moments(nu, n_max)
    return nu * np.cumsum(m) - 2.0 * (np.arange(n_max + 1) + 1.0) * m


@pytest.mark.parametrize("nu", _NUS)
def test_closed_form_matches_moments(nu):
    c = case_a(nu).coefficients(512)
    assert c.shape == (513,)
    assert np.max(np.abs(c - _c_from_moments(nu, 512))) <= 1e-11


@pytest.mark.parametrize("nu", _NUS)
def test_closed_form_matches_disk_quadrature(nu):
    case = case_a(nu)
    c = case.coefficients(64)
    for n in (1, 8, 32, 64):
        assert abs(c_n_disk_quadrature(case, n) - c[n]) <= 1e-9


@pytest.mark.parametrize("nu", _NUS)
def test_closed_form_u0_at_1(nu):
    case = case_a(nu)
    assert abs(case.u0_at_1 - u0(case, 1.0)) <= 1e-10


def test_closed_form_exact_at_nu_1():
    case = case_a(1.0)
    c = case.coefficients(2)
    assert abs(c[0] + 2.0) <= 1e-15
    assert abs(c[1]) <= 1e-15
    assert abs(c[2] - 2.0 / 3.0) <= 1e-15
    assert abs(case.u0_at_1 + 4.0) <= 1e-14


def test_log_case_object():
    case = case_b()
    assert case.u0_at_1 == u0(case, 1.0) == 0.0
    assert np.array_equal(case.coefficients(16), c_n_closed_log(np.arange(17)))
    assert case.force_law == (1.0, 0.0)
    assert case_a(0.7).force_law == (0.7, 0.7)


def test_disk_quadrature_array_of_n():
    # one rule for every n: the array call matches the closed forms and,
    # entry by entry, the scalar calls on their own (coarser) rules
    n = np.array([0, 1, 2, 7, 16, 33, 64])
    for case in (case_b(), case_a(0.5), case_a(1.0)):
        got = c_n_disk_quadrature(case, n)
        assert got.shape == n.shape
        assert np.max(np.abs(got - case.coefficients(64)[n])) <= 1e-9
        single = [c_n_disk_quadrature(case, int(k)) for k in n[:3]]
        assert np.max(np.abs(got[:3] - single)) <= 1e-9
    assert isinstance(c_n_disk_quadrature(case_b(), 3), float)
    with pytest.raises(QuadratureError):
        c_n_disk_quadrature(case_b(), n, imag_tol=1e-30)


def test_quadrature_imag_residue_guard():
    with pytest.raises(QuadratureError):
        c_n_disk_quadrature(case_b(), 4, imag_tol=1e-30)


def test_digamma_form_at_nu_1():
    n = np.arange(4097)
    c = case_a(1.0).coefficients(4096)
    assert np.max(np.abs(c - c_n_digamma_nu1(n))) < 1e-10
    assert c_n_digamma_nu1(0) == -2.0
    # c_n - ln n -> gamma + 2 ln 2 - 2, approached from above like 1/n^2
    limit = np.euler_gamma + 2.0 * np.log(2.0) - 2.0
    gaps = c[[512, 4096]] - np.log([512.0, 4096.0]) - limit
    assert 0.0 < gaps[1] < gaps[0] < 2e-7
    assert gaps[1] < 1e-8


def test_log_growth_constant():
    # c_n / log n approaches 1 from below at nu = 1
    c = case_a(1.0).coefficients(512)
    r256 = c[256] / np.log(256.0)
    r512 = c[512] / np.log(512.0)
    assert r256 < r512 < 1.0
    assert r512 > 0.99


@pytest.fixture(scope="module")
def base():
    return make_base_state(case_b(), 2.0, rigid_preset(1.0))


def test_mode_table_invariants(base):
    table = build_mode_table(base, N=32)
    assert isinstance(table, ModeTable)
    assert table.N == 32
    assert len(table.a_deriv) == 33 and len(table.c) == 33
    # constant G = -2: A_n'(1) = -1/(n+1)
    n = np.arange(33)
    assert np.max(np.abs(table.a_deriv + 1.0 / (n + 1))) < 1e-9
    # omega is the left-to-right sum of its four terms, bit for bit, except
    # for the translation mode n = 1, where three of them cancel exactly
    t1, t2, t3, t4 = multiplier_terms(base, n, table.a_deriv, table.c)
    rest = n != 1
    assert np.array_equal(table.omega[rest], (t1 + t2 + t3 + t4)[rest])
    assert table.omega[1] == -0.5 * base.omega0**2
    rows = list(table.to_csv_rows())
    assert len(rows) == 33 and rows[0][0] == 0
    assert rows == [(k, table.a_deriv[k], table.c[k], table.omega[k])
                    for k in range(33)]


@pytest.mark.parametrize("case", [case_b(), case_a(0.5), case_a(1.0)],
                         ids=["B", "A0.5", "A1"])
@pytest.mark.parametrize("profile", [rigid_preset(1.0),
                                     linear_preset(1.0, -2.0),
                                     linear_preset(25.0, -2.0)],
                         ids=["rigid", "linear1", "linear25"])
def test_translation_mode_identity(case, profile):
    # translating the body leaves its stream function and self-potential
    # unchanged, so three of omega_1's four terms cancel to rounding and
    # the table sets omega_1 = -omega0^2/2 exactly
    base = make_base_state(case, 2.0, profile)
    table = build_mode_table(base, N=8, n_nodes=32)
    t1, t2, t3, t4 = multiplier_terms(base, 1, table.a_deriv[1], table.c[1])
    assert abs(t1 + t2 + t4) <= 1e-12 * abs(t1)
    assert table.omega[1] == t3 == -0.5 * base.omega0**2


def test_mode_table_workers_deterministic(base):
    t1 = build_mode_table(base, N=16, workers=1)
    t4 = build_mode_table(base, N=16, workers=4)
    assert np.array_equal(t1.omega, t4.omega)
    assert np.array_equal(t1.a_deriv, t4.a_deriv)


def test_mode_table_rejects_bad_N(base):
    with pytest.raises(ValueError):
        build_mode_table(base, N=0)
