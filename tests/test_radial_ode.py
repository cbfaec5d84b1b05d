import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve
from scipy.special import i0

from tidaldisk.chebyshev import DEFAULT_RADIAL, _radial_basis
from tidaldisk.coeffs import build_mode_table
from tidaldisk.errors import TidaldiskError
from tidaldisk.kernel import (linear_preset, profile_from_table, rigid_preset,
                              zero_preset)
from tidaldisk.potential import case_a, case_b, make_base_state
from tidaldisk.radial_ode import (RadialProfile, _mode_grid, mode_derivatives,
                                  solve_An, solve_phi0)


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
    assert prof.value_at_1 == 0.0


def test_phi0_zero_profile():
    prof = solve_phi0(zero_preset(), bracket_scale=1.0)
    assert np.max(np.abs(prof(np.linspace(0, 1, 11)))) < 1e-12


def test_phi0_samples_on_solver_grid():
    # r = 0, then the radii of the solver's half-diameter grid, ascending;
    # the Dirichlet value is imposed exactly
    prof = solve_phi0(linear_preset(1.0, -2.0))
    r = _radial_basis(DEFAULT_RADIAL)[0].r
    assert len(prof.nodes) == len(prof.values) == DEFAULT_RADIAL + 1
    assert prof.nodes[0] == 0.0
    assert np.array_equal(prof.nodes[1:], r[::-1])
    assert prof.values[0] == prof(0.0)
    assert np.array_equal(prof.values[1:-1], prof(r[:0:-1]))
    assert prof.values[-1] == 0.0


def test_phi0_strong_rigid_rotation():
    # G(0) = -1e5: phi0(0) = -G(0)/4 lies inside the shooting range
    # +-10 (1 + |G(0)|)
    w = 5e4
    prof = solve_phi0(rigid_preset(w))
    r = np.linspace(0.0, 1.0, 101)
    exact = 0.5 * w * (1.0 - r * r)
    assert np.max(np.abs(prof(r) - exact)) < 1e-12 * exact[0]


def test_phi0_table_far_from_zero():
    # G(u) = u - 1000 from a PCHIP table on [1000, 1003], extrapolated
    # linearly: phi0 = 1000 (1 - I0(r) / I0(1)), phi0(0) about 210
    u = np.linspace(1000.0, 1003.0, 7)
    prof = solve_phi0(profile_from_table(u, u - 1000.0))
    r = np.linspace(0.0, 1.0, 101)
    exact = 1000.0 * (1.0 - i0(r) / i0(1.0))
    assert np.max(np.abs(prof(r) - exact)) < 1e-11 * exact[0]


def test_phi0_bracket_failure():
    with pytest.raises(TidaldiskError, match="bracket"):
        solve_phi0(rigid_preset(1.0), bracket_scale=1e-9)


@pytest.fixture(scope="module")
def rigid_base():
    return make_base_state(case_b(), 2.0, rigid_preset(1.0))


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
    n = np.arange(257)
    d = mode_derivatives(rigid_base, 256)
    assert np.max(np.abs(d * (n + 1) + 1.0)) < 1e-12


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
    assert np.array_equal(samples, evaluate(_radial_basis(DEFAULT_RADIAL)[0].r))
    assert not samples.flags.writeable
    for _ in range(2):
        mode_derivatives(base, 16, n_nodes=32)
    assert len(calls) == 1


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
    _, L, C, row, g0 = _mode_grid(base, n_nodes)
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
    # per-mode reference; the unrefined route misses by up to 3e-11 at 128
    ref = _refined_mode_derivatives(profile_base, 256, n_nodes)
    d = mode_derivatives(profile_base, 256, n_nodes=n_nodes)
    assert np.max(np.abs(d - ref) / np.abs(ref)) < 1e-13
