"""Flat key=value run configuration.

The format is deliberately minimal for reproducibility: one `key = value`
per line, `#` comments, no sections, unknown keys are errors.  Exactly one
of a0 / omega0 selects the particle placement.

Recognized keys (units in parentheses):

    case        A or B                          (kernel family)
    nu          power-law exponent in (0, 1]    (case A only)
    a0          particle distance (body radii), at least 1.5
    omega0      rotation speed (rad per time unit)
    profile     rigid:<w> | linear:<slope>,<offset> | csv:<path>
                (linear: |offset| >= 2e-9, below which phi0 is degenerate)
    N           mode truncation, integer >= 8
    n_radial    radial collocation nodes (half diameter)
    n_angular   angular grid size, at least 2N + 2 (default max(256, 4N))
    tol         quasi-Newton residual target, relative to max(1, phi0'(1)^2)
    m           mass parameter, or comma-separated sweep
    m_cap       optional limit on |m|, positive (default: none)
    workers     accepted for compatibility, has no effect (integer >= 1)
    seed        seed for randomized verification suites, integer >= 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from .chebyshev import DEFAULT_RADIAL
from .errors import ConfigError
from .kernel import (VorticityProfile, linear_preset, profile_from_csv,
                     rigid_preset, zero_preset)
from .potential import (_A0_MIN, DEGENERATE_TOL, InteractionCase, case_a,
                        case_b, check_omega0)
from .spectral import boundary_points, check_grid

_KNOWN_KEYS = {
    "case", "nu", "a0", "omega0", "profile", "N", "n_radial", "n_angular",
    "tol", "m", "m_cap", "workers", "seed",
}


@dataclass
class RunConfig:
    case: InteractionCase
    profile: VorticityProfile
    a0: Optional[float] = None
    omega0: Optional[float] = None
    N: int = 64
    n_radial: int = DEFAULT_RADIAL
    n_angular: Optional[int] = None  # boundary_points(N)
    tol: float = 1e-10
    m_list: List[float] = field(default_factory=lambda: [1e-4])
    m_cap: Optional[float] = None
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_angular is None:
            self.n_angular = boundary_points(self.N)
        if (self.a0 is None) == (self.omega0 is None):
            raise ConfigError("exactly one of a0 / omega0 must be given")
        reals = [("a0", self.a0), ("omega0", self.omega0), ("tol", self.tol),
                 ("m_cap", self.m_cap)] + [("m", m) for m in self.m_list]
        for key, value in reals:
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"key {key!r}: must be finite, got {value!r}")
        if len(set(self.m_list)) < len(self.m_list):
            raise ConfigError(f"key 'm': repeated mass in {self.m_list!r}")
        if self.m_cap is not None and self.m_cap <= 0:
            raise ConfigError(f"key 'm_cap': must be positive, got {self.m_cap!r}")
        if self.a0 is not None and self.a0 < _A0_MIN:
            raise ConfigError(f"a0 must be at least {_A0_MIN} (particle "
                              f"clear of the body), got {self.a0!r}")
        if self.omega0 is not None:
            try:
                check_omega0(self.case, self.omega0)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.N < 8:
            raise ConfigError(f"N must be at least 8, got {self.N}")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.n_radial < 8:
            raise ConfigError(f"n_radial must be at least 8, got "
                              f"{self.n_radial}")
        check_grid(self.n_angular, self.N)
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def _linear_profile(arg: str) -> VorticityProfile:
    slope, _, offset = arg.partition(",")
    slope, offset = float(slope), float(offset or 0.0)
    # phi0 = offset psi with Delta psi = slope psi + 1, psi(1) = 0, and
    # 0 < psi'(1) <= 1/2, so |phi0'(1)| <= |offset| / 2: below the degeneracy
    # tolerance the base is degenerate, and shots near 0 can underflow
    if abs(offset) < 2.0 * DEGENERATE_TOL:
        raise ConfigError("offset too small, the base state is degenerate")
    return linear_preset(slope, offset)


# the kinds of the `profile` key, each from the text after its colon
_PROFILE_KINDS = {
    "rigid": lambda arg: rigid_preset(float(arg)),
    "linear": _linear_profile,
    "zero": lambda arg: zero_preset(),
    "csv": lambda arg: profile_from_csv(arg.strip()),
}


def _parse_profile(text: str) -> VorticityProfile:
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    if kind not in _PROFILE_KINDS:
        raise ConfigError(f"unknown profile kind {kind!r}")
    try:
        return _PROFILE_KINDS[kind](arg)
    except (ConfigError, ValueError, OSError) as exc:
        raise ConfigError(f"invalid profile spec {text!r}: {exc}") from exc


def parse_config_text(text: str) -> RunConfig:
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    if "case" not in raw:
        raise ConfigError("missing required key 'case'")
    kind = raw["case"].upper()
    if kind == "B":
        if "nu" in raw:
            raise ConfigError("nu is only meaningful for case A")
        case = case_b()
    elif kind == "A":
        try:
            case = case_a(float(raw.get("nu", 1.0)))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        raise ConfigError(f"case must be A or B, got {raw['case']!r}")

    if "profile" not in raw:
        raise ConfigError("missing required key 'profile'")
    profile = _parse_profile(raw["profile"])

    kw = {}
    for key in ("a0", "omega0", "tol", "m_cap"):
        if key in raw:
            try:
                kw[key] = float(raw[key])
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: not a number") from exc
    for key in ("N", "n_radial", "n_angular", "workers", "seed"):
        if key in raw:
            try:
                kw[key] = int(raw[key])
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: not an integer") from exc
    if "m" in raw:
        try:
            kw["m_list"] = [float(tok) for tok in raw["m"].split(",")
                            if tok.strip()]
        except ValueError as exc:
            raise ConfigError("key 'm': expected comma-separated numbers") from exc
        if not kw["m_list"]:
            raise ConfigError("key 'm': empty sweep")
    return RunConfig(case=case, profile=profile, **kw)


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text)
