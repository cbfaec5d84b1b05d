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
    N           mode truncation, integer >= 8
    n_radial    radial collocation nodes (half diameter)
    n_angular   angular grid size
    tol         quasi-Newton residual target
    m           mass parameter, or comma-separated sweep
    m_cap       override of the heuristic mass cap
    workers     worker pool size for per-mode solves
    seed        seed for randomized verification suites
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from .errors import ConfigError
from .kernel import (VorticityProfile, linear_preset, profile_from_csv,
                     rigid_preset, zero_preset)
from .potential import (_A0_MIN, InteractionCase, case_a, case_b,
                        check_omega0)

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
    n_radial: int = 64
    n_angular: int = 256
    tol: float = 1e-10
    m_list: List[float] = field(default_factory=lambda: [1e-4])
    m_cap: Optional[float] = None
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        if (self.a0 is None) == (self.omega0 is None):
            raise ConfigError("exactly one of a0 / omega0 must be given")
        reals = [("a0", self.a0), ("omega0", self.omega0), ("tol", self.tol),
                 ("m_cap", self.m_cap)] + [("m", m) for m in self.m_list]
        for key, value in reals:
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"key {key!r}: must be finite, got {value!r}")
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
        if self.n_radial < 8 or self.n_angular < 2 * self.N + 2:
            raise ConfigError("grid too small for the requested truncation")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")


def _parse_profile(text: str) -> VorticityProfile:
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "rigid":
            return rigid_preset(float(arg))
        if kind == "linear":
            slope, _, offset = arg.partition(",")
            return linear_preset(float(slope), float(offset or 0.0))
        if kind == "zero":
            return zero_preset()
        if kind == "csv":
            return profile_from_csv(arg.strip())
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(f"invalid profile spec {text!r}: {exc}") from exc
    raise ConfigError(f"unknown profile kind {kind!r}")


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

    def fget(key, default=None):
        if key not in raw:
            return default
        try:
            return float(raw[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: not a number") from exc

    def iget(key, default):
        if key not in raw:
            return default
        try:
            return int(raw[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: not an integer") from exc

    m_list = [1e-4]
    if "m" in raw:
        try:
            m_list = [float(tok) for tok in raw["m"].split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError("key 'm': expected comma-separated numbers") from exc
        if not m_list:
            raise ConfigError("key 'm': empty sweep")

    N = iget("N", 64)
    return RunConfig(
        case=case,
        profile=profile,
        a0=fget("a0"),
        omega0=fget("omega0"),
        N=N,
        n_radial=iget("n_radial", 64),
        n_angular=iget("n_angular", max(256, 2 * N + 2)),
        tol=fget("tol", 1e-10),
        m_list=m_list,
        m_cap=fget("m_cap"),
        workers=iget("workers", 1),
        seed=iget("seed", 0),
    )


def parse_config_file(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text)
