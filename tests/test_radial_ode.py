import dataclasses

import mpmath
import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.special import i0

from tidaldisk.chebyshev import DEFAULT_RADIAL, _radial_basis
from tidaldisk.coeffs import build_mode_table
from tidaldisk.errors import TidaldiskError
from tidaldisk.kernel import (VorticityProfile, linear_preset,
                              profile_from_table, rigid_preset)
from tidaldisk.linop import make_operator
from tidaldisk import radial_ode
from tidaldisk.potential import case_a, case_b, make_base_state
from tidaldisk.radial_ode import (RadialProfile, _mode_grid, mode_derivatives,
                                  solve_An, solve_phi0)
from tidaldisk.residual import quasi_newton_solve
from tidaldisk.verify import _linear_closed_forms


def test_profile_validation():
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 0.5, 0.4, 1.0]), np.zeros(4), 0.0,
                      evaluate=np.zeros_like)
    with pytest.raises(ValueError):
        RadialProfile(np.array([0.0, 0.5, 0.9]), np.zeros(3), 0.0,
                      evaluate=np.zeros_like)


def test_phi0_rigid_closed_form():
    # constant G = -2 w gives phi0 = w (1 - r^2) / 2
    w = 1.3
    prof = solve_phi0(rigid_preset(w))
    r = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(prof(r) - 0.5 * w * (1.0 - r * r))) < 1e-10
    assert abs(prof.deriv_at_1 + w) < 1e-10
    assert prof.residual < 1e-12
    assert prof.values[-1] == 0.0


# G identically zero
_ZERO = VorticityProfile(np.zeros_like, np.zeros_like)


def test_phi0_zero_profile():
    prof = solve_phi0(_ZERO)
    assert np.max(np.abs(prof(np.linspace(0, 1, 11)))) < 1e-12


def test_phi0_samples_on_solver_grid():
    # r = 0, then the radii of the solver's half-diameter grid, ascending;
    # the Dirichlet value is imposed exactly
    prof = solve_phi0(linear_preset(1.0, -2.0))
    r = _radial_basis(DEFAULT_RADIAL).r
    assert len(prof.nodes) == len(prof.values) == DEFAULT_RADIAL + 1
    assert prof.nodes[0] == 0.0
    assert np.array_equal(prof.nodes[1:], r[::-1])
    assert prof.values[0] == prof(0.0)
    assert np.array_equal(prof.values[1:-1], prof(r[:0:-1]))
    assert prof.values[-1] == 0.0


@pytest.mark.parametrize("n_radial", [DEFAULT_RADIAL, 32])
def test_phi0_grid_values_one_sample(n_radial):
    # on the base's own grid the samples are those solve_phi0 took, the
    # ones base.json and phi0.csv write; on any grid phi0(1) = 0 exactly
    prof = solve_phi0(linear_preset(1.0, -2.0))
    samples = prof.grid_values(n_radial)
    r = _radial_basis(n_radial).r
    assert samples.shape == (n_radial,) and samples[0] == 0.0
    assert not samples.flags.writeable
    assert prof.grid_values(n_radial) is samples
    assert np.array_equal(samples[1:], prof(r[1:]))
    if n_radial == DEFAULT_RADIAL:
        assert np.array_equal(samples, prof.values[:0:-1])


def test_phi0_strong_rigid_rotation():
    # nearly rigid, G = 1e-6 u - 1e5: the slope makes G rise, so phi0 is
    # shot, and phi0(0) = 2.5e4 lies inside the shooting range
    # +-10 (1 + |G(0)|); phi0 is 5e4 times that of G = 1e-6 u - 2
    prof = solve_phi0(linear_preset(1e-6, -1e5))
    assert prof.solver == "shooting"
    r = np.linspace(0.0, 1.0, 101)
    phi0, dphi0, _ = _linear_closed_forms(1e-6, r, 0)
    exact = 5e4 * phi0
    assert np.max(np.abs(prof(r) - exact)) < 1e-12 * exact[0]
    assert abs(prof.deriv_at_1 - 5e4 * dphi0) < 1e-12 * 5e4


def test_phi0_table_far_from_zero():
    # G(u) = u - 1000 from a PCHIP table on [1000, 1003], extrapolated
    # linearly: phi0 = 1000 (1 - I0(r) / I0(1)), phi0(0) about 210
    u = np.linspace(1000.0, 1003.0, 7)
    prof = solve_phi0(profile_from_table(u, u - 1000.0))
    r = np.linspace(0.0, 1.0, 101)
    exact = 1000.0 * (1.0 - i0(r) / i0(1.0))
    assert np.max(np.abs(prof(r) - exact)) < 1e-11 * exact[0]


def test_phi0_bracket_failure(monkeypatch):
    # a shooting range far too narrow for linear G = u - 2, whose phi0(0)
    # is 2 (1 - 1/I0(1)) = 0.42: every shot in +-1e-3 (1 + |G(0)|) =
    # +-0.003 ends below 0
    monkeypatch.setattr(radial_ode, "_BRACKET_SCALE", 1e-3)
    with pytest.raises(TidaldiskError, match=r"bracket .* \[-0.003, 0.003\]"):
        solve_phi0(linear_preset(1.0, -2.0))


# G(u) = u - 1000 - 50 (u - 150) exp(-((u - 150)/5)^2) is increasing on
# [-10, 10], but G' reaches -49 near u = 150, inside [0, -G(0)/4] = [0, 250],
# where phi0 lives
def _dip_g(u):
    u = np.asarray(u, dtype=float)
    return u - 1000.0 - 50.0 * (u - 150.0) * np.exp(-((u - 150.0) / 5.0) ** 2)


def _dip_g1(u):
    x = (np.asarray(u, dtype=float) - 150.0) / 5.0
    return 1.0 - 50.0 * (1.0 - 2.0 * x * x) * np.exp(-x * x)


def test_phi0_monotone_check_covers_phi0_range():
    u = np.linspace(-10.0, 10.0, 1000)
    assert np.all(np.diff(_dip_g(u)) >= 0.0) and np.all(_dip_g1(u) >= 0.0)
    with pytest.raises(ValueError, match="non-decreasing"):
        solve_phi0(VorticityProfile(_dip_g, _dip_g1))


def test_phi0_monotone_check_at_the_scale_of_g():
    # G = 1e6 (sin^2 u + cos^2 u) - 2e6 is the constant -1e6 up to rounding,
    # which makes it step down by 3.5e-10 between samples: the check's
    # tolerance is 1e-12 of max|G|, so rounding at G's scale passes
    def g(u):
        u = np.asarray(u, dtype=float)
        return 1e6 * (np.sin(u) ** 2 + np.cos(u) ** 2) - 2e6

    prof = solve_phi0(VorticityProfile(g, np.zeros_like))
    r = np.linspace(0.0, 1.0, 101)
    assert np.max(np.abs(prof(r) - 2.5e5 * (1.0 - r * r))) < 1e-12 * 2.5e5


# flat on [-1, 2] and rising outside it: G(0) = -4 puts phi0 in [0, 1],
# where G is G(0)
_FLAT_TABLE = profile_from_table(np.arange(-3.0, 5.0),
                                 [-6.0, -5.0, -4.0, -4.0, -4.0, -4.0, -3.0, -2.0])


def _no_shot(*args, **kwargs):
    raise AssertionError("shot phi0 where G is constant")


@pytest.mark.parametrize("profile", [rigid_preset(1.3), rigid_preset(5e4),
                                     _ZERO, _FLAT_TABLE],
                         ids=["rigid", "strong rigid", "zero", "flat table"])
def test_phi0_closed_form_for_constant_g(profile, monkeypatch):
    # phi0 = (G0/4)(r^2 - 1) on r = 0 and the grid radii, with no shot
    monkeypatch.setattr(radial_ode, "_integrate_from_center", _no_shot)
    g0 = float(profile.eval(0.0))
    prof = solve_phi0(profile)
    assert prof.solver == "closed_form" and prof.residual == 0.0
    assert prof.deriv_at_1 == 0.5 * g0
    r = _radial_basis(DEFAULT_RADIAL).r
    assert np.array_equal(prof.nodes, np.concatenate([[0.0], r[::-1]]))
    exact = 0.25 * g0 * (prof.nodes ** 2 - 1.0)
    assert np.array_equal(prof.values[:-1], exact[:-1])
    assert prof.values[-1] == 0.0
    assert not prof.values.flags.writeable
    for n_radial in (DEFAULT_RADIAL, 32):
        radii = _radial_basis(n_radial).r
        samples = prof.grid_values(n_radial)
        assert samples[0] == 0.0
        assert np.array_equal(samples[1:], 0.25 * g0 * (radii[1:] ** 2 - 1.0))
    assert np.array_equal(prof.grid_values(DEFAULT_RADIAL),
                          prof.values[:0:-1])
    x = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(prof(x), 0.25 * g0 * (x * x - 1.0))


def _rounded_constant(u):
    # -1e6 up to rounding: G(0) = -1e6 but G(2.5e5) = -1e6 - 1.2e-10
    u = np.asarray(u, dtype=float)
    return 1e6 * (np.sin(u) ** 2 + np.cos(u) ** 2) - 2e6


@pytest.mark.parametrize("profile", [
    VorticityProfile(_rounded_constant, np.zeros_like),
    linear_preset(1.0, -2.0),
], ids=["constant up to rounding", "linear"])
def test_phi0_shoots_where_g_is_not_constant(profile, monkeypatch):
    shots = []
    integrate = radial_ode._integrate_from_center
    monkeypatch.setattr(radial_ode, "_integrate_from_center",
                        lambda *a, **kw: shots.append(1) or integrate(*a, **kw))
    prof = solve_phi0(profile)
    assert prof.solver == "shooting" and len(shots) > 33


@pytest.mark.parametrize("case, N, m", [(case_a(0.5), 64, 5e-5),
                                        (case_b(), 16, 1e-5)],
                         ids=["A", "B"])
def test_rigid_solve_on_closed_form_phi0_matches_shot(case, N, m,
                                                      monkeypatch):
    # the base and the solve from the exact phi0 agree with those from the
    # shot phi0 (constant_value forced to None in solve_phi0 alone, so the
    # shot base also collocates its mode table)
    exact = make_base_state(case, 2.0, rigid_preset(1.0))
    monkeypatch.setattr(radial_ode, "constant_value", lambda *a, **kw: None)
    shot = make_base_state(case, 2.0, rigid_preset(1.0))
    monkeypatch.undo()
    assert (exact.phi0.solver, shot.phi0.solver) == ("closed_form", "shooting")
    assert abs(exact.dphi0_at_1 - shot.dphi0_at_1) < 1e-14
    assert np.max(np.abs(exact.phi0.values - shot.phi0.values)) < 1e-14
    a, b = (quasi_newton_solve(make_operator(base, N=N), m)
            for base in (exact, shot))
    assert a.iterations == b.iterations
    assert abs(a.a - b.a) < 1e-14 and abs(a.lam - b.lam) < 1e-14
    assert abs(a.h.g0 - b.h.g0) < 1e-14
    assert np.max(np.abs(a.h.gn - b.h.gn)) < 1e-14


@pytest.mark.parametrize("source", [
    VorticityProfile(np.tanh, np.tanh, name="other"),
    linear_preset(1.0, -2.0),
    rigid_preset(1.0),
    profile_from_table(np.linspace(-1.0, 1.0, 5), np.linspace(-3.0, -1.0, 5)),
], ids=["constructor", "linear preset", "rigid preset", "table"])
def test_every_profile_is_checked_where_phi0_lives(source):
    # a profile is G and G' alone: the same callables are refused on
    # [0, 250] whatever the profile was first built as
    profile = dataclasses.replace(source, eval=_dip_g, d1=_dip_g1)
    with pytest.raises(ValueError, match="non-decreasing"):
        make_base_state(case_b(), 2.0, profile)


@pytest.mark.parametrize("slope", [1000.0, 2000.0])
def test_phi0_shooting_mismatch_is_refused(slope):
    # steep linear G: the shot misses phi0(1) = 0 by 6e-3 (slope 1000) and
    # by 1.0 (2000) of max|phi0|, and phi0'(1) by as much
    with pytest.raises(TidaldiskError, match="misses phi0"):
        solve_phi0(linear_preset(slope, -2.0))


@pytest.mark.parametrize("profile, match", [
    (rigid_preset(1e308), "shooting range"),          # G(0) = -inf
    (linear_preset(1e300, 1e300), "G overflows"),     # on [0, -G(0)/4]
    (linear_preset(1e6, -2.0), "integration failed"),  # steep G
])
def test_phi0_overflow_is_a_package_error(profile, match):
    # the shooting overflows without a RuntimeWarning (an error under the
    # test settings) and leaves as a TidaldiskError
    with pytest.raises(TidaldiskError, match=match):
        solve_phi0(profile)


@pytest.fixture(scope="module")
def rigid_base():
    return make_base_state(case_b(), 2.0, rigid_preset(1.0))


@pytest.fixture(scope="module")
def linear_base():
    return make_base_state(case_b(), 2.0, linear_preset(1.0, -2.0))


def test_mode_closed_form_small_n(rigid_base):
    # constant G = -2 w, G' = 0: A_n = -w/(2n+2) (r^(n+2) - r^n),
    # so A_n'(1) = -w / (n + 1)
    for n in (1, 2, 5):
        prof, d1 = solve_An(n, rigid_base)
        assert abs(d1 + 1.0 / (n + 1)) < 1e-9
        r = np.linspace(0, 1, 41)
        exact = -(r ** (n + 2) - r**n) / (2 * n + 2)
        assert np.max(np.abs(prof(r) - exact)) < 1e-12


def test_mode_closed_form_large_n(rigid_base):
    for n in (16, 64, 200):
        _, d1 = solve_An(n, rigid_base)
        assert abs(d1 + 1.0 / (n + 1)) < 1e-10


def test_mode_derivatives_rigid_closed_form(rigid_base):
    # G = -2 is constant on phi0's range: the table is -1/(n+1) exactly
    n = np.arange(257)
    d = mode_derivatives(rigid_base, 256)
    assert np.array_equal(d, -1.0 / (n + 1))


@pytest.mark.parametrize("profile, schurs", [
    (rigid_preset(1.3), 0), (rigid_preset(5e4), 0), (_FLAT_TABLE, 0),
    (linear_preset(1.0, -2.0), 1),
    (VorticityProfile(_rounded_constant, np.zeros_like), 1),
], ids=["rigid", "strong rigid", "flat table", "linear",
        "constant up to rounding"])
def test_constant_g_operator_makes_no_schur_form(profile, schurs,
                                                 monkeypatch):
    # where G is constant on phi0's range the operator's table is
    # G0/(2(n+1)) with no Schur form and no radial grid; any other G
    # collocates, with one Schur form per base
    made, grids = [], []
    real_schur, real_grid = radial_ode.schur, radial_ode._radial_basis
    monkeypatch.setattr(radial_ode, "schur",
                        lambda *a, **k: made.append(1) or real_schur(*a, **k))
    base = make_base_state(case_b(), 2.0, profile)
    monkeypatch.setattr(radial_ode, "_radial_basis",
                        lambda n: grids.append(n) or real_grid(n))
    g0 = float(profile.eval(0.0))
    assert base.constant_g == (g0 if schurs == 0 else None)
    op = make_operator(base, N=64)
    assert len(made) == schurs
    if schurs == 0:
        assert grids == []
        assert np.array_equal(op.table.a_deriv, g0 / (2 * np.arange(1, 66)))


def test_grid_operators_read_only(rigid_base):
    # one cache entry per grid, shared by every solver: no caller may write
    grid = _radial_basis(DEFAULT_RADIAL)
    arrays = [a for v in vars(grid).values()
              for a in (v if isinstance(v, tuple) else (v,))
              if isinstance(a, np.ndarray)]
    assert len(arrays) == 9  # r, d1 x 2, basis x 2, rows x 2, C, C_inv
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert _mode_grid(rigid_base, DEFAULT_RADIAL)[0] is grid


def test_grid_operators_one_entry_per_grid(linear_base):
    # repeated tables on one grid build its operators at most once; on a
    # linear G, which is collocated (a constant G reads no grid)
    grid = _radial_basis(24)
    misses = _radial_basis.cache_info().misses
    first = mode_derivatives(linear_base, 32, n_nodes=24)
    second = mode_derivatives(linear_base, 32, n_nodes=24)
    assert _radial_basis.cache_info().misses == misses
    assert _radial_basis(24) is grid
    assert np.array_equal(first, second)


@pytest.mark.parametrize("n_nodes", [8, 16, 32, 64, 128])
def test_grid_operators_inverse(n_nodes):
    # C^-1 C is the identity to rounding: below eps cond(C), which is 40 at
    # 8 radii and 1.1e4 at 128 (measured 0.11 and 0.012 of the bound)
    grid = _radial_basis(n_nodes)
    C, C_inv = grid.C, grid.C_inv
    assert C.shape == C_inv.shape == (n_nodes - 1, n_nodes - 1)
    assert all(row.shape == (1, n_nodes) for row in grid.rows)
    bound = np.finfo(float).eps * np.linalg.cond(C)
    assert np.max(np.abs(C_inv @ C - np.eye(n_nodes - 1))) < bound


def _pchip41_profile():
    """PCHIP table of G(u) = -2 + u + 4 u^3 with 41 knots on [-1.5, 0.5]."""
    u = np.linspace(-1.5, 0.5, 41)
    return profile_from_table(u, -2.0 + u + 4.0 * u**3)


def _table_profile():
    """PCHIP profile of G(u) = -2 + u + 4 u^3, as in test_residual.py."""
    u = np.linspace(-1.0, 1.0, 21)
    return profile_from_table(u, -2.0 + u + 4.0 * u**3)


# A PCHIP G is only C^1: G(phi0(r)) has jumps in its second derivative at
# the radii where phi0 crosses a knot, and the collocation converges
# algebraically there (64 and 128 nodes differ by 4e-6, 128 and 256 by 5e-7).
@pytest.mark.parametrize("profile, tol", [(linear_preset(1.0, -2.0), 1e-12),
                                          (_table_profile(), 1e-5)],
                         ids=["linear", "pchip"])
def test_mode_derivatives_resolved(profile, tol):
    # doubling the radial nodes moves no A_n'(1) beyond tol
    base = make_base_state(case_b(), 2.0, profile)
    coarse = mode_derivatives(base, 256, n_nodes=64)
    fine = mode_derivatives(base, 256, n_nodes=128)
    assert np.max(np.abs(coarse - fine) / np.abs(fine)) < tol


def test_mode_table_reads_phi0_samples():
    # on the base's own grid the table reuses the samples solve_phi0 took,
    # equal bit for bit to a fresh evaluation; any other grid evaluates
    # phi0 once and keeps it
    base = make_base_state(case_b(), 2.0, linear_preset(1.0, -2.0))
    calls = []
    evaluate = base.phi0.evaluate
    base.phi0.evaluate = lambda r: calls.append(1) or evaluate(r)
    build_mode_table(base, N=64)
    assert calls == []
    samples = base.phi0.grid_values(DEFAULT_RADIAL)
    fresh = evaluate(_radial_basis(DEFAULT_RADIAL).r)
    assert np.array_equal(samples[1:], fresh[1:]) and samples[0] == 0.0
    assert not samples.flags.writeable
    for _ in range(2):
        mode_derivatives(base, 16, n_nodes=32)
    assert len(calls) == 1


def _bessel_ratios(k, n_max):
    """I_{n+1}(k) / I_n(k) for n = 0..n_max, by the backward recurrence
    r_{n-1} = 1 / (2n/k + r_n) started from 0 well above n_max (scipy's
    ive underflows by n = 256), in 30 digits."""
    out = [None] * (n_max + 1)
    with mpmath.workdps(30):
        r = mpmath.mpf(0)
        for n in range(n_max + 60, 0, -1):
            r = 1 / (2 * n / k + r)
            if n <= n_max + 1:
                out[n - 1] = r
    return out


@pytest.mark.parametrize("s", [1e-6, 1.0, 4.0, 25.0])
def test_linear_profile_closed_forms(s):
    # G = s u + b with k = sqrt(s): phi0 = (b/s)(I0(kr)/I0(k) - 1),
    # phi0'(1) = (b/k) I1(k)/I0(k) and, from alpha_n = A_n / r^n,
    # A_n'(1) = (b / (2(n+1))) (1 - I1(k) I_{n+1}(k) / (I0(k) I_n(k))).
    # Measured: 9.7e-13, 2.5e-13 and 8.5e-13 (relative) at worst.
    b = -2.0
    base = make_base_state(case_b(), 2.0, linear_preset(s, b))
    prof = base.phi0
    with mpmath.workdps(30):
        k = mpmath.sqrt(s)
        i0k = mpmath.besseli(0, k)
        phi0 = [float(b / mpmath.mpf(s) * (mpmath.besseli(0, k * r) / i0k - 1))
                for r in prof.nodes]
        ratio = _bessel_ratios(k, 256)
        a_deriv = [float(b / (2 * (n + 1)) * (1 - ratio[0] * ratio[n]))
                   for n in range(257)]
        deriv_at_1 = float(b / k * ratio[0])
    assert np.max(np.abs(prof.values - phi0)) < 2e-12
    assert abs(prof.deriv_at_1 - deriv_at_1) < 1e-12
    d = mode_derivatives(base, 256)
    assert np.max(np.abs(d - a_deriv) / np.abs(a_deriv)) < 2e-12


def test_mode_n0_regular(rigid_base):
    prof, d1 = solve_An(0, rigid_base)
    # A_0 = -(r^2 - 1)/2 for G = -2: A_0'(1) = -1
    assert abs(d1 + 1.0) < 1e-9
    assert abs(prof(0.0) - 0.5) < 1e-9


def test_mode_rejects_negative_n(rigid_base):
    with pytest.raises(ValueError):
        solve_An(-1, rigid_base)


@pytest.mark.parametrize("case", [case_a(0.5), case_b()], ids=["A", "B"])
def test_mode_derivatives_match_solve_An(case):
    # a linear profile, so that both G(phi0) and G'(phi0) enter; the batched
    # Schur route and the per-mode LU solves agree to about 2e-14
    base = make_base_state(case, 2.0, linear_preset(1.0, -2.0))
    d = mode_derivatives(base, 64)
    assert d.shape == (65,)
    np.testing.assert_allclose(d, [solve_An(n, base)[1] for n in range(65)],
                               rtol=1e-13, atol=0.0)


def _refined_mode_derivatives(base, N, n_nodes):
    """Per-mode solves of (L + 2n C) alpha = g0, refined three times with
    residuals formed in long double (80-bit on x86-64): the discrete
    A_n'(1) to well below double rounding."""
    grid, L, g0 = _mode_grid(base, n_nodes)
    C, row = grid.C, grid.rows[0][0, 1:]
    ld = np.longdouble
    Ll, Cl, gl, rl = (v.astype(ld) for v in (L, C, g0, row))
    out = np.empty(N + 1)
    for n in range(N + 1):
        lu = lu_factor(L + 2 * n * C)
        x = lu_solve(lu, g0).astype(ld)
        for _ in range(3):
            x += lu_solve(lu, (gl - Ll @ x - 2 * n * (Cl @ x)).astype(float))
        out[n] = float(rl @ x)
    return out


@pytest.fixture(scope="module",
                params=[rigid_preset(1.0), linear_preset(1.0, -2.0),
                        _pchip41_profile()],
                ids=["rigid", "linear", "pchip41"])
def profile_base(request):
    return make_base_state(case_b(), 2.0, request.param)


@pytest.mark.parametrize("n_nodes", [16, 64, 128])
def test_mode_derivatives_accuracy(profile_base, n_nodes):
    # the Schur route with its one refinement step against a refined
    # per-mode reference; the unrefined route misses by up to 3e-11 at 128.
    # Rigid G = -2 takes the closed form, held to the exact -1/(n+1): the
    # refined collocation is itself 1.7e-13 from it at 128 radii
    if profile_base.phi0.solver == "closed_form":
        ref = -1.0 / np.arange(1, 258)
    else:
        ref = _refined_mode_derivatives(profile_base, 256, n_nodes)
    d = mode_derivatives(profile_base, 256, n_nodes=n_nodes)
    assert np.max(np.abs(d - ref) / np.abs(ref)) < 1e-13
