"""Command line driver.

Subcommands:

    base     solve the zero-mass configuration; writes base.json, phi0.csv
    scan     build the multiplier table and resonance report;
             writes modes.csv, scan.json
    perturb  first-order shape response per mass value;
             writes perturb_<m>.json and boundary_perturb_<m>.csv
    solve    quasi-Newton continuation per mass value;
             writes solution_<m>.json, boundary_<m>.csv, history_<m>.csv
    verify   run the verification suites; writes verify.json

All subcommands take --config PATH and --out DIR.  Output files are written
atomically (temp file + rename).  Exit codes: 0 ok, 2 config error,
3 resonance, 4 divergence, 5 quadrature failure.  A run that fails with
a package error also writes error.json (error class, exit_code, message;
history for a divergence) to --out.

CSV columns: phi0.csv (r, phi0); modes.csv (n, a_deriv, c, omega);
boundary*.csv (phi, x1, x2); history_<m>.csv (iteration, residual_norm).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from .coeffs import build_mode_table
from .config import RunConfig, parse_config_file
from .errors import ConfigError, DivergenceError, TidaldiskError
from .linop import (check_resonances, first_order_response, make_operator,
                    nonresonance_scan)
from .potential import a0_from_omega, make_base_state
from .residual import quasi_newton_solve
from .spectral import boundary_rows
from .verify import run_all


# --------------------------------------------------------------------------
# atomic output helpers
# --------------------------------------------------------------------------

def _atomic_write(path: str, text: str):
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: str, header, rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(v)) if isinstance(v, float) else v
                    for v in row])
    _atomic_write(path, buf.getvalue())


def _mass_tag(m: float) -> str:
    """The shortest text that reads back as m, so that distinct masses
    never share an output file."""
    return repr(m)


# --------------------------------------------------------------------------
# shared setup
# --------------------------------------------------------------------------

def _resolve_base(cfg: RunConfig):
    a0 = cfg.a0
    if a0 is None:
        a0 = a0_from_omega(cfg.case, cfg.omega0)
    return make_base_state(cfg.case, a0, cfg.profile)


def _operator(cfg: RunConfig):
    """Frozen linearization with the mode table on the run's radial grid,
    the one residual_F solves on."""
    base = _resolve_base(cfg)
    table = build_mode_table(base, N=cfg.N, n_nodes=cfg.n_radial)
    return make_operator(base, table=table)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_base(cfg: RunConfig, out: str) -> int:
    base = _resolve_base(cfg)
    _write_json(os.path.join(out, "base.json"), base.to_json_dict())
    _write_csv(os.path.join(out, "phi0.csv"), ("r", "phi0"),
               base.phi0.to_csv_rows())
    return 0


def cmd_scan(cfg: RunConfig, out: str) -> int:
    op = _operator(cfg)
    _write_csv(os.path.join(out, "modes.csv"),
               ("n", "a_deriv", "c", "omega"), op.table.to_csv_rows())
    _write_json(os.path.join(out, "scan.json"), nonresonance_scan(op))
    check_resonances(op.table)  # after the outputs, which help diagnose it
    return 0


def cmd_perturb(cfg: RunConfig, out: str) -> int:
    op = _operator(cfg)
    for m in cfg.m_list:
        h1, a1, l1 = first_order_response(op, m)
        tag = _mass_tag(m)
        _write_json(os.path.join(out, f"perturb_{tag}.json"), {
            "schema_version": 1,
            "m": m,
            "a_offset": a1,
            "lambda_offset": l1,
            "shape": h1.to_json_dict(),
        })
        _write_csv(os.path.join(out, f"boundary_perturb_{tag}.csv"),
                   ("phi", "x1", "x2"), boundary_rows(h1))
    return 0


def cmd_solve(cfg: RunConfig, out: str) -> int:
    op = _operator(cfg)
    for m in cfg.m_list:
        sol = quasi_newton_solve(op, m, tol=cfg.tol,
                                 n_radial=cfg.n_radial,
                                 n_angular=cfg.n_angular,
                                 m_cap=cfg.m_cap)
        tag = _mass_tag(m)
        _write_json(os.path.join(out, f"solution_{tag}.json"),
                    sol.to_json_dict())
        _write_csv(os.path.join(out, f"boundary_{tag}.csv"),
                   ("phi", "x1", "x2"), sol.boundary_csv_rows())
        _write_csv(os.path.join(out, f"history_{tag}.csv"),
                   ("iteration", "residual_norm"),
                   enumerate(sol.history, start=1))
    return 0


def cmd_verify(cfg, out: str) -> int:
    seed = cfg.seed if cfg is not None else 0
    report = run_all(seed=seed)
    _write_json(os.path.join(out, "verify.json"), report)
    for r in report["criteria"]:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"[{status}] criterion {r['criterion']}: {r['name']}")
    if not report["passed"]:
        print("verification failed", file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tidaldisk",
        description="Rotating fluid-body equilibria with a small external "
                    "point mass: base state, mode scan, perturbation and "
                    "continuation.",
        epilog=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, needs_config in (("base", True), ("scan", True),
                               ("perturb", True), ("solve", True),
                               ("verify", False)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=needs_config,
                        help="path to the key=value run configuration")
        sp.add_argument("--out", default="out",
                        help="output directory (default: ./out)")
    return p


_COMMANDS = {
    "base": cmd_base,
    "scan": cmd_scan,
    "perturb": cmd_perturb,
    "solve": cmd_solve,
    "verify": cmd_verify,
}


def _error_report(exc: TidaldiskError) -> dict:
    report = {
        "schema_version": 1,
        "error": type(exc).__name__,
        "exit_code": exc.exit_code,
        "message": str(exc),
    }
    if isinstance(exc, DivergenceError):
        report["history"] = exc.history
    return report


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error_path = os.path.join(args.out, "error.json")
    with contextlib.suppress(OSError):  # a stale report from an earlier run
        os.remove(error_path)
    try:
        cfg = parse_config_file(args.config) if args.config else None
        if args.command != "verify" and cfg is None:
            raise ConfigError("this subcommand requires --config")
        return _COMMANDS[args.command](cfg, args.out)
    except TidaldiskError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # the report is a courtesy: failing to write it changes nothing
        with contextlib.suppress(OSError):
            _write_json(error_path, _error_report(exc))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
