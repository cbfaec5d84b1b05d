import warnings

import numpy as np
import pytest
from scipy.special import gamma, hyp2f1

from tidaldisk.errors import DegenerateBaseError
from tidaldisk.kernel import VorticityProfile, rigid_preset
from tidaldisk.potential import (InteractionCase, _u0_case_a, a0_from_omega,
                                 case_a, case_b, make_base_state,
                                 omega_from_a0, particle_potential_at, u0,
                                 u0_d1, u0_d2)

SQRT_PI = np.sqrt(np.pi)


def test_case_validation():
    with pytest.raises(ValueError):
        InteractionCase("C")
    with pytest.raises(ValueError):
        case_a(0.0)
    with pytest.raises(ValueError):
        case_a(1.5)
    assert case_b().is_log
    assert not case_a(0.7).is_log


def test_log_case_closed_forms():
    case = case_b()
    assert u0(case, 0.0) == -np.pi / 2
    assert u0(case, 1.0) == 0.0
    assert abs(u0(case, 2.0) - np.pi * np.log(2.0)) < 1e-15
    assert abs(u0_d1(case, 2.0) - np.pi / 2) < 1e-15
    assert abs(u0_d2(case, 2.0) + np.pi / 4) < 1e-15


def _two_branch_exterior(case, r):
    """Reference: u0, u0', u0'' outside the disk and u0(1), written once per
    kernel, for the single forms through K(d) and the force law."""
    if case.is_log:
        return np.pi * np.log(r), np.pi / r, -np.pi / (r * r), 0.0
    nu, a = case.nu, 0.5 * case.nu
    x = r ** -2
    f1 = hyp2f1(a, a + 1.0, 2.0, x)
    return (-np.pi * r ** -nu * hyp2f1(a, a, 2.0, x),
            np.pi * nu * r ** -(nu + 1.0) * f1,
            -np.pi * nu * r ** -(nu + 2.0) * (
                (nu + 1.0) * f1
                + a * (a + 1.0) * x * hyp2f1(a + 1.0, a + 2.0, 3.0, x)),
            -np.pi * gamma(3.0 - nu)
            / ((2.0 - nu) * gamma(2.0 - 0.5 * nu) ** 2))


def _two_branch_particle_potential(case, a, pts):
    d = np.abs(pts - a)
    if case.is_log:
        return np.log(d)
    return -d ** (-case.nu)


KERNEL_CASES = [case_b()] + [case_a(nu) for nu in (0.3, 0.5, 0.92, 1.0)]


@pytest.mark.parametrize("case", KERNEL_CASES, ids=lambda c: c.label())
@pytest.mark.parametrize("r", [1.0 + 1e-6, 1.05, 1.5, 2.0, 2.3011, 10.0, 1e6])
def test_kernel_forms_match_two_branch_forms(case, r):
    ref = _two_branch_exterior(case, r)
    got = (u0(case, r), u0_d1(case, r), u0_d2(case, r), case.u0_at_1)
    for g, w in zip(got, ref):
        assert abs(g - w) <= 1e-15 * abs(w)
    a = 2.0
    pts = a + r * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 7))
    w = _two_branch_particle_potential(case, a, pts)
    assert np.all(np.abs(particle_potential_at(case, a, pts) - w)
                  <= 1e-15 * np.abs(w))


def test_interior_derivatives_rejected():
    with pytest.raises(ValueError):
        u0_d1(case_b(), 0.5)
    with pytest.raises(ValueError):
        u0_d2(case_a(1.0), 1.0)


def test_power_case_center_value():
    # at nu = 1 the disk integral of 1/|y| is 2 pi
    assert abs(u0(case_a(1.0), 0.0) + 2.0 * np.pi) < 1e-10


def test_power_case_monte_carlo_oracle():
    rng = np.random.default_rng(42)
    n = 400_000
    pts = rng.uniform(-1, 1, size=(2 * n, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) <= 1.0][:n]
    pts = pts[:, 0] + 1j * pts[:, 1]

    # interior point, mild singularity (nu = 0.5)
    x = 0.3
    est = -np.pi * np.mean(np.abs(x - pts) ** -0.5)
    assert abs(est - u0(case_a(0.5), 0.3)) < 0.02

    # exterior point, smooth integrand (nu = 1)
    x = 2.0
    est = -np.pi * np.mean(np.abs(x - pts) ** -1.0)
    assert abs(est - u0(case_a(1.0), 2.0)) < 0.005


def test_power_case_derivative_consistency():
    case = case_a(1.0)
    for r in (1.7, 3.0):
        h = 1e-4
        fd1 = (u0(case, r + h) - u0(case, r - h)) / (2 * h)
        assert abs(fd1 - u0_d1(case, r)) < 1e-6
        fd2 = (u0_d1(case, r + h) - u0_d1(case, r - h)) / (2 * h)
        assert abs(fd2 - u0_d2(case, r)) < 1e-6


@pytest.mark.parametrize("nu", [0.1, 0.5, 0.92, 0.999999, 1.0])
def test_closed_form_matches_quadrature(nu):
    case = case_a(nu)
    for r in (1.0, 1.05, 1.5, 2.0, 10.0):
        assert abs(u0(case, r) - _u0_case_a(r, nu)) < 1e-10, r
    # inside the body the quadrature is good to its own tolerance, ~2e-10
    for r in np.linspace(0.0, 0.9, 10):
        assert abs(u0(case, r) - _u0_case_a(r, nu)) < 1e-9, r
    # Gauss's sum at r = 1 is the case's closed-form u0(1), and the inner
    # and outer 2F1 meet there
    assert abs(u0(case, 1.0) - case.u0_at_1) < 1e-14
    assert abs(u0(case, np.nextafter(1.0, 2.0)) - case.u0_at_1) < 1e-13


@pytest.mark.parametrize("nu, r", [(0.92, 0.99), (1.0, 0.99), (1.0, 0.999)])
def test_u0_just_inside_the_body(nu, r):
    # the adaptive quadrature stalls here; the closed form does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = u0(case_a(nu), r)
    assert np.isfinite(val)
    assert u0(case_a(nu), 0.0) < val < case_a(nu).u0_at_1


def test_omega_a0_relation_and_inverse():
    case = case_b()
    assert abs(omega_from_a0(case, 2.0) - SQRT_PI / 2.0) < 1e-14
    a0 = a0_from_omega(case, SQRT_PI / 2.0)
    assert abs(a0 - 2.0) < 1e-10
    # power case round trips
    for nu in (0.1, 0.5, 0.92, 1.0):
        caseA = case_a(nu)
        for a0 in (1.6, 3.0, 40.0):
            om = omega_from_a0(caseA, a0)
            assert abs(a0_from_omega(caseA, om) - a0) < 1e-12


def test_omega_out_of_range_reports_interval():
    with pytest.raises(ValueError, match="admissible interval"):
        a0_from_omega(case_b(), 2.0)


def test_base_state_log_rigid():
    base = make_base_state(case_b(), 2.0, rigid_preset(1.0))
    assert abs(base.omega0 - SQRT_PI / 2.0) < 1e-14
    assert abs(base.dphi0_at_1 + 1.0) < 1e-12
    lam_expect = 0.5 * 1.0 - 0.5 * base.omega0**2 + 0.0
    assert abs(base.lambda0 - lam_expect) < 1e-12
    d = base.to_json_dict()
    assert d["case"] == "B" and d["schema_version"] == 1


def test_base_state_rejects_close_particle():
    with pytest.raises(ValueError):
        make_base_state(case_b(), 1.2, rigid_preset(1.0))


def test_base_state_degenerate_profile():
    # G = 0 gives phi0 = 0, whose boundary slope vanishes
    with pytest.raises(DegenerateBaseError):
        make_base_state(case_b(), 2.0,
                        VorticityProfile(np.zeros_like, np.zeros_like))
