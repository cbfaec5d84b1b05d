"""Per-layer timing of tidaldisk from outside the package.

Each library function is wrapped under the name its caller looks it up
by (``residual.solve_linearized``, ``coeffs.solve_An``, ...), so the
package runs unmodified and the wrappers exist only while a traced pass
runs.  A metric is named after the module that defines the function:
``<module>.<function>_s`` is inclusive time summed over the pass and
``..._calls`` the number of calls.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from tidaldisk import coeffs, linop, potential, radial_ode, residual, spectral

# metric -> the (module, attribute) bindings through which callers reach it
TIMED = {
    "residual.residual_F": [(residual, "residual_F")],
    "residual.solve_phi_h": [(residual, "solve_phi_h")],
    "residual.boundary_potential": [(residual, "boundary_potential")],
    "residual.particle_force": [(residual, "particle_force")],
    "spectral.eval_h_at": [(residual, "eval_h_at"), (linop, "eval_h_at"),
                           (spectral, "eval_h_at")],
    "linop.first_order_response": [(residual, "first_order_response")],
    "linop.solve_linearized": [(residual, "solve_linearized"),
                               (linop, "solve_linearized")],
    "linop.w_shape_derivative": [(linop, "w_shape_derivative")],
    "coeffs.build_mode_table": [(linop, "build_mode_table"),
                                (coeffs, "build_mode_table")],
    "coeffs.kernel_moments": [(coeffs, "kernel_moments")],
    "radial_ode.solve_An": [(coeffs, "solve_An")],
    "radial_ode.solve_phi0": [(radial_ode, "solve_phi0")],
    "potential.make_base_state": [(potential, "make_base_state")],
    "potential.u0": [(potential, "u0"), (potential, "u0_d1"),
                     (linop, "u0_d2")],
}

# metric -> bindings that are only counted (too many calls to time cheaply)
COUNTED = {
    "residual.lu_solve_calls": [(residual, "lu_solve")],
    "residual.lu_factor_calls": [(residual, "lu_factor")],
    "chebyshev.grid_builds": [(residual, "HalfDiameterGrid")],
}

# the parts of residual_F that are timed; the rest of its time is named
# in REMAINDER
RESIDUAL_PARTS = ("residual.solve_phi_h", "residual.boundary_potential",
                  "residual.particle_force")
REMAINDER = ("DiskField.boundary_normal_deriv, eval_boundary, analyze, "
             "particle_potential_at, area")


class Tracer:
    """Accumulates call counts and inclusive seconds for one pass."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)

    def count(self, name: str, n: int = 1):
        self.calls[name] += n

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - t0
                self.calls[name] += 1
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _picard_counting(self, fn):
        """solve_phi_h evaluates G' once per Picard iteration; hand it a
        copy of the profile whose d1 counts those calls."""
        @functools.wraps(fn)
        def wrapper(h, profile, *args, **kwargs):
            d1 = profile.d1

            def counted_d1(u):
                self.calls["residual.picard_iters"] += 1
                return d1(u)

            counted = dataclasses.replace(profile, d1=counted_d1)
            return fn(h, counted, *args, **kwargs)
        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding for the duration of the block."""
        saved = []
        try:
            for table, make in ((TIMED, self._timed),
                                (COUNTED, self._counted)):
                for name, bindings in table.items():
                    for module, attr in bindings:
                        fn = getattr(module, attr)
                        saved.append((module, attr, fn))
                        if (module, attr) == (residual, "solve_phi_h"):
                            fn = self._picard_counting(fn)
                        setattr(module, attr, make(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def metrics(self) -> dict:
        """Per-layer values of the pass, keyed by metric name."""
        s, c = self.seconds, self.calls
        out = {}
        for name in TIMED:
            out[name + "_s"] = s[name]
            out[name + "_calls"] = c[name]
        for name in COUNTED:
            out[name] = c[name]
        out["residual.picard_iters"] = c["residual.picard_iters"]
        out["residual.qn_iters"] = c["residual.qn_iters"]
        out["residual.residual_F_other_s"] = (
            s["residual.residual_F"] - sum(s[p] for p in RESIDUAL_PARTS))
        return out
