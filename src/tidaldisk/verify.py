"""Verification suites: closed forms, identities and scaling checks.

Each criterion takes the run's seed, which only the randomized ones (5 and
10) use, and returns a dict with `name`, `passed` and `details`; the
command line `verify` subcommand and the acceptance test-suite both run
these, so there is a single source of truth for what "correct" means.
"""

from __future__ import annotations

import numpy as np

from .coeffs import (build_mode_table, c_n_closed_log, c_n_digamma_nu1,
                     c_n_disk_quadrature, multiplier_terms)
from .kernel import linear_preset, rigid_preset
from .linop import (apply_forward, first_order_response, make_operator,
                    solve_linearized)
from .potential import (_u0_case_a, case_a, case_b, make_base_state, u0,
                        u0_d1, u0_d2)
from .radial_ode import mode_derivatives
from .residual import (boundary_potential, quasi_newton_solve, residual_F,
                       residual_norm)
from .spectral import (BoundarySpectrum, ShapeCoeffs, analyze, boundary_curve,
                       eval_h_boundary, injectivity_margin,
                       self_intersection_oracle)

_SQRT_PI = float(np.sqrt(np.pi))


def _matched_rigid_base(a0=2.0):
    """Constant-vorticity base whose internal rotation equals the orbital
    speed of the particle (fluid at rest in the rotating frame)."""
    case = case_b()
    omega0 = np.sqrt(np.pi) / a0
    return make_base_state(case, a0, rigid_preset(omega0))


def _fixture_base(a0=2.0):
    """Constant-vorticity base G = -2 at particle distance a0.

    The vorticity level is deliberately not tied to the orbital speed: for
    the log kernel the matched choice at a0 = 2 sits exactly on the n = 2
    resonance (omega_2 = -Omega0^2 + c_2 = 0), so the continuation criteria
    use this non-resonant variant.
    """
    return make_base_state(case_b(), a0, rigid_preset(1.0))


# --------------------------------------------------------------------------

def criterion_1_closed_forms(seed=0):
    """Log-kernel coefficients: closed form and quadrature agree."""
    case = case_b()
    worst = 0.0
    exact_ok = (c_n_closed_log(0) == np.pi / 2.0
                and c_n_closed_log(1) == 0.0)
    quad = c_n_disk_quadrature(case, np.arange(65))
    for n in range(0, 65):
        target = np.pi / 2.0 if n == 0 else np.pi / 2.0 * (1.0 - 1.0 / n)
        exact_ok = exact_ok and (c_n_closed_log(n) == target)
        worst = max(worst, float(abs(quad[n] - target)))
    return {
        "name": "log-kernel coefficient closed forms vs quadrature",
        "passed": bool(exact_ok and worst < 1e-6),
        "details": {"max_quadrature_error": worst, "closed_form_exact": exact_ok},
    }


def criterion_2_rigid_mode_derivatives(seed=0):
    base = _matched_rigid_base()
    om = base.omega0
    target = -om / (np.arange(65) + 1)
    worst = float(np.max(np.abs(mode_derivatives(base, 64) - target)
                         / np.abs(target)))
    return {
        "name": "rigid-rotation mode derivatives A_n'(1)",
        "passed": bool(worst < 1e-8),
        "details": {"max_rel_error": worst},
    }


def criterion_3_mode_derivative_asymptotics(seed=0):
    """2n A_n'(1) / G(0) tends to 1; one Richardson step on the mode
    table's own route (mode_derivatives) at n = 128, 256."""
    base = make_base_state(case_b(), 2.0, linear_preset(1.0, -2.0))
    d = mode_derivatives(base, 256)
    f = {n: 2 * n * float(d[n]) / base.g_at_boundary for n in (64, 128, 256)}
    rich = 2.0 * f[256] - f[128]
    return {
        "name": "large-n asymptotics of A_n'(1)",
        "passed": bool(abs(rich - 1.0) < 0.02),
        "details": {"raw": f, "richardson": rich},
    }


def criterion_4_coefficient_asymptotics(seed=0):
    """At nu = 1, c_n matches its digamma form, and c_n - ln n reaches
    gamma + 2 ln 2 - 2: c_n grows like ln n with constant 1."""
    n = np.arange(4097)
    c = case_a(1.0).coefficients(4096)
    worst = float(np.max(np.abs(c - c_n_digamma_nu1(n))))
    limit = float(np.euler_gamma + 2.0 * np.log(2.0) - 2.0)
    gap = float(abs(c[-1] - np.log(4096.0) - limit))
    return {
        "name": "power-kernel coefficients at nu = 1: digamma form and ln n growth",
        "passed": bool(worst < 1e-10 and gap < 1e-8),
        "details": {"max_digamma_error": worst, "limit": limit,
                    "gap_at_4096": gap},
    }


def criterion_5_linear_round_trip(seed=0):
    op = make_operator(_fixture_base(), N=64)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        coeffs = rng.normal(size=17) + 1j * rng.normal(size=17)
        coeffs[0] = coeffs[0].real
        S = BoundarySpectrum(coeffs)
        Z = float(rng.normal())
        M = float(rng.normal())
        g, b, mu = solve_linearized(op, S, Z, M)
        S2, Z2, M2 = apply_forward(op, g, b, mu)
        err = max(float(np.max(np.abs(S2.coeffs[:17] - S.coeffs))),
                  float(np.max(np.abs(S2.coeffs[17:]))) if S2.N >= 17 else 0.0,
                  abs(Z2 - Z), abs(M2 - M))
        worst = max(worst, err)
    return {
        "name": "linearized operator forward/inverse round trip",
        "passed": bool(worst < 1e-10),
        "details": {"max_error": worst},
    }


def criterion_6_multiplier_consistency(seed=0):
    base = _matched_rigid_base()
    table = build_mode_table(base, N=256)
    om = base.omega0
    n = np.arange(257)
    target = -(n / 2.0) * om * om + c_n_closed_log(n)
    worst = float(np.max(np.abs(table.omega - target)))
    return {
        "name": "rigid-case multiplier identity",
        "passed": bool(worst < 1e-10),
        "details": {"max_error": worst},
    }


def criterion_7_first_order_scaling(seed=0):
    base = _fixture_base()
    op = make_operator(base, N=64)

    def res(m):
        h1, a1, l1 = first_order_response(op, m)
        S, r2, r3 = residual_F(h1, base.a0 + a1, base.lambda0 + l1, m, base)
        return residual_norm(S, r2, r3)

    r_m = res(1e-4)
    r_half = res(5e-5)
    ratio = r_m / r_half
    return {
        "name": "first-order residual O(m^2) scaling",
        "passed": bool(3.2 <= ratio <= 4.8),
        "details": {"residual_m": r_m, "residual_m_half": r_half,
                    "ratio": ratio},
    }


def criterion_8_continuation_quality(seed=0):
    op = make_operator(_fixture_base(), N=64)
    sol = quasi_newton_solve(op, 1e-4)
    d = sol.diagnostics
    com = float(np.hypot(*d["center_of_mass"]))
    ok = (sol.residual_norm < 1e-8 and d["area_error"] < 1e-8
          and d["symmetry_defect"] < 1e-10 and com < 1e-6)
    return {
        "name": "quasi-Newton solution quality at m = 1e-4",
        "passed": bool(ok),
        "details": {"residual": sol.residual_norm,
                    "area_error": d["area_error"],
                    "symmetry_defect": d["symmetry_defect"],
                    "center_of_mass": com,
                    "iterations": sol.iterations},
    }


def criterion_9_potential_properties(seed=0):
    cases = [case_b(), case_a(0.5), case_a(1.0)]
    r_grid = np.linspace(1.05, 10.0, 20)
    mono_ok = True
    for case in cases:
        d1 = np.array([u0_d1(case, r) for r in r_grid])
        d2 = np.array([u0_d2(case, r) for r in r_grid])
        ratio = d1 / r_grid
        mono_ok = mono_ok and bool(np.all(d1 > 0) and np.all(d2 < 0)
                                   and np.all(np.diff(ratio) < 0))
    center = u0(case_a(1.0), 0.0)
    center_ok = abs(center + 2.0 * np.pi) < 1e-8
    closed_worst = 0.0
    for nu in (0.5, 1.0):
        for r in (0.0, 0.3, 0.6, 0.9, *np.linspace(1.0, 5.0, 9)):
            closed_worst = max(closed_worst,
                               abs(u0(case_a(nu), r) - _u0_case_a(r, nu)))
    return {
        "name": "disk potential monotonicity, center value and closed form",
        "passed": bool(mono_ok and center_ok and closed_worst < 1e-9),
        "details": {"monotone": mono_ok, "u0_at_0": center,
                    "closed_form_max_dev": closed_worst},
    }


def criterion_10_conformal_certification(seed=0):
    rng = np.random.default_rng(seed)

    def random_shape():
        N = 8
        gn = (rng.normal(size=N) + 1j * rng.normal(size=N)) / (np.arange(1, N + 1) + 1) ** 2
        return ShapeCoeffs(float(rng.normal()) * 0.1, 0.05 * gn)

    def rescale_to_sup(h, target):
        hv, dhv = eval_h_boundary(h, 512)
        sup = float(np.max(np.abs(hv) + np.abs(dhv)))
        return h.scaled(target / sup)

    certified_ok = True
    for _ in range(100):
        h = rescale_to_sup(random_shape(), 0.5 / np.sqrt(2.0))
        if injectivity_margin(h) <= 0 or not self_intersection_oracle(h, 256):
            certified_ok = False
            break

    violating_ok = True
    for _ in range(20):
        h = rescale_to_sup(random_shape(), 1.5 / np.sqrt(2.0))
        if injectivity_margin(h) >= 0:
            violating_ok = False
            break

    return {
        "name": "injectivity margin certification",
        "passed": bool(certified_ok and violating_ok),
        "details": {"certified_clean": certified_ok,
                    "violations_flagged": violating_ok},
    }


def criterion_11_linear_response(seed=0):
    """The boundary potential answers h = e_n z^(n+1), n <= N/2, with
    2 c_n e_n cos(n phi), c_n from the mode table.  All modes go in one
    central difference: their responses land in distinct Fourier modes and
    the second-order terms cancel."""
    N, M, eps = 64, 256, 1e-6
    n = np.arange(N // 2 + 1)
    e = eps / (n + 1)  # the same slope |h'| from every mode
    h = ShapeCoeffs(e[0], np.pad(e[1:], (0, N - N // 2)))
    worst = {}
    for case in (case_b(), case_a(0.5), case_a(1.0)):
        base = make_base_state(case, 2.0, rigid_preset(1.0))
        c2 = 2.0 * build_mode_table(base, N=N).c[n]
        du = (boundary_potential(*boundary_curve(h, M), case)
              - boundary_potential(*boundary_curve(h.scaled(-1.0), M), case))
        S = analyze(0.5 * du, N=M // 2 - 1).coeffs
        err = max(np.max(np.abs(np.where(n == 0, 1.0, 2.0) * S[n] / e - c2)),
                  2.0 * np.max(np.abs(S[N // 2 + 1:])) / eps)
        worst[case.label()] = float(err / np.max(np.abs(c2)))
    return {
        "name": "boundary-potential linear response equals 2 c_n",
        "passed": bool(max(worst.values()) < 1e-6),
        "details": {"max_rel_error": worst},
    }


def criterion_12_discrete_jacobian(seed=0):
    """apply_forward is the Jacobian of residual_F at the disk (m = 0).

    One central difference along h = sum e_n z^(n+1), e_n = eps/(n+1), as
    in criterion 11, gives row n of the mode block for every n <= N, and the
    Z and M rows; two more give the a and lambda columns.  Row n is held
    against the summed magnitudes of the four terms of omega_n
    (multiplier_terms), not against omega_n itself, which nearly
    vanishes next to a resonance (n = 2 in case B and n = 4 at nu = 1 here).
    The differences' own error is about 3e-9 (their eps^2 terms)."""
    N, M, eps = 64, 256, 1e-6
    n = np.arange(N + 1)
    e = eps / (n + 1)
    h, zero = ShapeCoeffs(e[0], e[1:]), ShapeCoeffs.zero(N)
    worst = {}
    for case, profile in ((case_b(), linear_preset(1.0, -2.0)),
                          (case_a(0.5), rigid_preset(1.0)),
                          (case_a(1.0), linear_preset(1.0, -2.0))):
        base = make_base_state(case, 2.0, profile)
        op = make_operator(base, N=N)
        t = op.table

        def half_diff(dh, da, dl):  # (F(x + d) - F(x - d)) / 2 at the disk
            Fp, Fm = (residual_F(dh.scaled(s), base.a0 + s * da,
                                 base.lambda0 + s * dl, 0.0, base, n_angular=M)
                      for s in (1.0, -1.0))
            return (0.5 * (Fp[0].coeffs - Fm[0].coeffs),
                    0.5 * (Fp[1] - Fm[1]), 0.5 * (Fp[2] - Fm[2]))

        S, Z, Mr = half_diff(h, 0.0, 0.0)
        S_lin, Z_lin, M_lin = apply_forward(op, h, 0.0, 0.0)
        terms = np.where(n == 0, 2.0, 1.0) * sum(
            np.abs(term)
            for term in multiplier_terms(base, n, t.a_deriv, t.c))
        err = {"modes": np.max(np.abs(S - S_lin.coeffs) / (e * terms)),
               "Z": abs(Z - Z_lin) / np.sum(np.abs(op.w_weights * e)),
               "M": abs(Mr - M_lin) / abs(M_lin)}
        for name, b, mu in (("a", eps, 0.0), ("lambda", 0.0, eps)):
            S, Z, Mr = half_diff(zero, b, mu)
            S_lin, Z_lin, M_lin = apply_forward(op, zero, b, mu)
            err[name] = max(np.max(np.abs(S - S_lin.coeffs)), abs(Z - Z_lin),
                            abs(Mr - M_lin)) / max(abs(Z_lin), abs(mu))
        worst[f"{case.label()} {profile.name}"] = {
            k: float(v) for k, v in err.items()}
    return {
        "name": "frozen operator is the discrete Jacobian of residual_F",
        "passed": bool(max(max(v.values()) for v in worst.values()) < 1e-7),
        "details": {"max_rel_error": worst},
    }


ALL_CRITERIA = [
    criterion_1_closed_forms,
    criterion_2_rigid_mode_derivatives,
    criterion_3_mode_derivative_asymptotics,
    criterion_4_coefficient_asymptotics,
    criterion_5_linear_round_trip,
    criterion_6_multiplier_consistency,
    criterion_7_first_order_scaling,
    criterion_8_continuation_quality,
    criterion_9_potential_properties,
    criterion_10_conformal_certification,
    criterion_11_linear_response,
    criterion_12_discrete_jacobian,
]


def run_all(seed: int = 0) -> dict:
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        res = fn(seed=seed)
        res["criterion"] = i
        results.append(res)
    return {
        "schema_version": 1,
        "seed": seed,
        "passed": all(r["passed"] for r in results),
        "criteria": results,
    }
