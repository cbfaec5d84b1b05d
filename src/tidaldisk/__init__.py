"""Spectral solver for rotating equilibria of a self-attracting 2D fluid
body perturbed by a small external point mass."""

from .errors import (ConfigError, DegenerateBaseError, DivergenceError,
                     QuadratureError, ResonanceError, TidaldiskError)
from .kernel import (VorticityProfile, linear_preset, profile_from_csv,
                     profile_from_table, rigid_preset)
from .potential import (BaseState, InteractionCase, a0_from_omega, case_a,
                        case_b, make_base_state, omega_from_a0, u0, u0_d1,
                        u0_d2)
from .radial_ode import RadialProfile, solve_An, solve_phi0
from .coeffs import ModeTable, build_mode_table, c_n, c_n_closed_log
from .spectral import (BoundarySpectrum, ShapeCoeffs, ShapeSample, analyze,
                       area, boundary_curve, injectivity_margin, sample_shape,
                       synthesize)
from .linop import (LinearizedOperator, apply_forward, first_order_response,
                    make_operator, nonresonance_scan, solve_linearized)
from .residual import (DiskField, EquilibriumSolution, boundary_potential,
                       particle_force, quasi_newton_solve, residual_F,
                       solve_phi_h)

__version__ = "0.1.0"

__all__ = [
    "BaseState", "BoundarySpectrum", "ConfigError", "DegenerateBaseError",
    "DiskField", "DivergenceError", "EquilibriumSolution", "InteractionCase",
    "LinearizedOperator", "ModeTable", "QuadratureError", "RadialProfile",
    "ResonanceError", "ShapeCoeffs", "ShapeSample", "TidaldiskError",
    "VorticityProfile", "a0_from_omega", "analyze", "apply_forward", "area",
    "boundary_curve", "boundary_potential", "build_mode_table", "c_n",
    "c_n_closed_log", "case_a", "case_b", "first_order_response",
    "injectivity_margin", "linear_preset", "make_base_state", "make_operator",
    "nonresonance_scan", "omega_from_a0", "particle_force",
    "profile_from_csv", "profile_from_table", "quasi_newton_solve",
    "residual_F", "rigid_preset", "sample_shape", "solve_An",
    "solve_linearized", "solve_phi0", "solve_phi_h", "synthesize", "u0",
    "u0_d1", "u0_d2",
]
