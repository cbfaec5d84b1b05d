"""Exception hierarchy shared across the package.

Exit codes used by the command line driver are attached to the classes so
that scripted callers can dispatch on them.
"""


class TidaldiskError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(TidaldiskError):
    """Invalid or inconsistent run configuration."""

    exit_code = 2


class ResonanceError(TidaldiskError):
    """A boundary mode multiplier is (numerically) zero; the linearized
    operator cannot be inverted."""

    exit_code = 3

    def __init__(self, mode, value, message=None):
        self.mode = int(mode)
        self.value = float(value)
        super().__init__(
            message or f"resonant boundary mode n={mode}: |omega_n| = {abs(value):.3e}"
        )


class DivergenceError(TidaldiskError):
    """The quasi-Newton iteration stopped making progress."""

    exit_code = 4

    def __init__(self, message, history=None):
        self.history = list(history) if history is not None else []
        super().__init__(message)


class QuadratureError(TidaldiskError):
    """A quadrature did not reach its target accuracy."""

    exit_code = 5

    def __init__(self, message, achieved=None):
        self.achieved = achieved
        super().__init__(message)


class DegenerateBaseError(TidaldiskError):
    """The unperturbed state makes the linearization degenerate: a
    vanishing boundary derivative of the stream profile, or a particle
    diagonal omega0^2 - U0''(a0) that is not positive."""

    exit_code = 1
