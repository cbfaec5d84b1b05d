"""Benchmark of the tidaldisk solve and scan pipeline.

Started through run.py, which pins the BLAS thread count before numpy
loads.  One run repeats passes of one workload for --seconds.  A pass does
what `tidaldisk solve` or `tidaldisk scan` does, through the same public
functions: it parses the generated configs, builds the set-up (base state;
for solve also the mode table and operator) and then runs the operations
in a closed loop, each starting when the previous one returns.  Results are
checked after the pass, outside the timed region; a failed operation is
counted, never dropped.  Every timed segment (the set-up, each operation)
is bracketed by the speed probe of speed.py, which scales the end-to-end
times to the reference machine speed; the unscaled times are printed too.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

from speed import Speed
from tidaldisk import coeffs, config, linop, potential, residual
from tracing import REMAINDER, RESIDUAL_PARTS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------

def config_text(cfg: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


def make_inputs(name: str, wl: dict, seed: int, smoke: bool) -> list:
    """Config texts of one workload, drawn from the seed.  The program sees
    only these texts."""
    rng = random.Random(f"{name}/{seed}")
    count = wl["smoke"]["count"] if smoke else None
    overrides = wl["smoke"]["config"] if smoke else {}
    if wl["kind"] == "solve":
        lo, hi = wl["masses"]["low"], wl["masses"]["high"]
        n = count or wl["masses"]["count"]
        width = (hi - lo) / n
        masses = [lo + (i + rng.random()) * width for i in range(n)]
        return [config_text({**wl["config"], **overrides,
                             "m": ", ".join(map(repr, masses))})]
    # in a scan config, a [low, high] value is drawn uniformly
    return [config_text({key: rng.uniform(*value) if isinstance(value, list)
                         else value
                         for key, value in {**cfg, **overrides}.items()})
            for cfg in wl["configs"][:count]]


# --------------------------------------------------------------------------
# one pass
# --------------------------------------------------------------------------

@dataclass
class Op:
    label: str
    seconds: float
    context: tuple
    result: object = None
    problems: list = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    factor: float = 1.0  # speed scale of this segment


@dataclass
class Pass:
    setup_s: float
    setup_factor: float
    ops: list
    layers: dict = None

    def setup(self, scaled: bool) -> float:
        return self.setup_s * (self.setup_factor if scaled else 1.0)

    def wall(self, scaled: bool) -> float:
        """Set-up plus every operation; the probes between them are not
        part of the workload."""
        return self.setup(scaled) + sum(
            op.seconds * (op.factor if scaled else 1.0) for op in self.ops)


def timed_op(label: str, context: tuple, fn) -> Op:
    t0 = time.perf_counter()
    try:
        result, problems = fn(), []
    except Exception:  # the run goes on; the failure is counted and shown
        result, problems = None, [traceback.format_exc().strip()]
    return Op(label, time.perf_counter() - t0, context, result, problems)


def solve_pass(texts: list, speed: Speed, tracer) -> Pass:
    t0 = time.perf_counter()
    cfg = config.parse_config_text(texts[0])
    base = potential.make_base_state(cfg.case, cfg.a0, cfg.profile)
    op = linop.make_operator(base, N=cfg.N, workers=cfg.workers)
    p = Pass(time.perf_counter() - t0, speed.factor(), [])
    for m in cfg.m_list:
        p.ops.append(timed_op(f"m={m!r}", (cfg, base, m), lambda: (
            residual.quasi_newton_solve(op, m, tol=cfg.tol,
                                        n_radial=cfg.n_radial,
                                        n_angular=cfg.n_angular,
                                        m_cap=cfg.m_cap))))
        p.ops[-1].factor = speed.factor()
        if tracer is not None and p.ops[-1].result is not None:
            tracer.count("residual.qn_iters", p.ops[-1].result.iterations)
    return p


def scan_pass(texts: list, speed: Speed, tracer) -> Pass:
    t0 = time.perf_counter()
    cfgs = [config.parse_config_text(text) for text in texts]
    bases = [potential.make_base_state(cfg.case, cfg.a0, cfg.profile)
             for cfg in cfgs]
    p = Pass(time.perf_counter() - t0, speed.factor(), [])

    def scan(cfg, base):
        table = coeffs.build_mode_table(base, N=cfg.N, workers=cfg.workers)
        return table, linop.nonresonance_scan(
            linop.make_operator(base, table=table))

    for cfg, base in zip(cfgs, bases):
        p.ops.append(timed_op(f"case {cfg.case.label()} a0={cfg.a0!r}",
                              (cfg,), lambda: scan(cfg, base)))
        p.ops[-1].factor = speed.factor()
    return p


def run_pass(kind: str, texts: list, speed: Speed, traced: bool) -> Pass:
    run = solve_pass if kind == "solve" else scan_pass
    if not traced:
        return run(texts, speed, None)
    tracer = Tracer()
    with tracer.installed():
        p = run(texts, speed, tracer)
    p.layers = tracer.metrics()
    return p


# --------------------------------------------------------------------------
# correctness gate (outside the timed region)
# --------------------------------------------------------------------------

def check_solve(op: Op, fresh_norms: dict) -> list:
    cfg, base, m = op.context
    sol = op.result
    op.fingerprint = {"m": m, "a": sol.a, "lambda": sol.lam,
                      "h_norm": sol.h.norm(), "iterations": sol.iterations}
    # Every pass repeats the same inputs and usually returns bit-identical
    # states; the fresh residual of an identical state is computed once.
    key = (m, sol.a, sol.lam, sol.h.g0, sol.h.gn.tobytes())
    if key not in fresh_norms:
        S, r2, r3 = residual.residual_F(sol.h, sol.a, sol.lam, m, base,
                                        cfg.n_radial, cfg.n_angular)
        fresh_norms[key] = residual.residual_norm(S, r2, r3)
    fresh = fresh_norms[key]
    problems = []
    if not sol.residual_norm < cfg.tol:
        problems.append(f"reported residual {sol.residual_norm:.3e} "
                        f">= tol {cfg.tol:g}")
    if not fresh < cfg.tol:
        problems.append(f"fresh residual_F {fresh:.3e} >= tol {cfg.tol:g}")
    return problems


def check_scan(op: Op) -> list:
    (cfg,) = op.context
    table, report = op.result
    op.fingerprint = {"case": cfg.case.kind, "nu": cfg.case.nu, "a0": cfg.a0,
                      "omega": table.omega.tolist()}
    if report["resonances"]:
        return [f"resonant modes {report['resonances']}"]
    return []


def compare(fingerprint: dict, ref: dict, tol: dict) -> list:
    """Differences from a stored reference beyond the stated tolerance;
    keys without a tolerance must match exactly."""
    problems = []
    for key, want in ref.items():
        got = fingerprint.get(key)
        if key not in tol:
            ok = got == want
        elif isinstance(want, list):
            ok = got is not None and len(got) == len(want) and all(
                abs(g - w) <= tol[key] * max(1.0, abs(w))
                for g, w in zip(got, want))
        else:
            ok = got is not None and abs(got - want) <= tol[key]
        if not ok:
            shown = "table" if isinstance(want, list) else repr(want)
            problems.append(f"{key} differs from the reference {shown}")
    return problems


def check_pass(p: Pass, kind: str, refs, tol: dict, fresh_norms: dict):
    check = (functools.partial(check_solve, fresh_norms=fresh_norms)
             if kind == "solve" else check_scan)
    for i, op in enumerate(p.ops):
        if op.problems:
            continue
        try:
            op.problems = check(op)
        except Exception:  # a check that cannot run fails the operation
            op.problems = [traceback.format_exc().strip()]
            continue
        if refs is not None:
            op.problems += (compare(op.fingerprint, refs[i], tol)
                            if i < len(refs) else ["no reference value"])


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def tail_index(n: int) -> int:
    """Sorted index of the highest sample with at least 10 samples beyond
    it, never below the median."""
    return max(n - 11, n // 2)


def machine_summary() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} "
            f"blas={blas.replace(' ', '-')} "
            f"blas_threads={os.environ.get('OPENBLAS_NUM_THREADS')}")


def timings(passes: list, scaled: bool) -> dict:
    lat = [op.seconds * (op.factor if scaled else 1.0)
           for p in passes for op in p.ops]
    return {
        "setup_s": statistics.median(p.setup(scaled) for p in passes),
        "wall_s": statistics.median(p.wall(scaled) for p in passes),
        "op_s.p50": statistics.median(lat),
        "op_s.tail": sorted(lat)[tail_index(len(lat))],
    }


def end_to_end(passes: list) -> dict:
    n = sum(len(p.ops) for p in passes)
    k = tail_index(n)
    factors = [op.factor for p in passes for op in p.ops]
    print(f"# op_s.tail is p{100.0 * (k + 1) / n:.1f} of {n} operations, "
          f"{n - 1 - k} beyond it")
    print("# unscaled: " + " ".join(
        f"{name}={value:.6g}"
        for name, value in timings(passes, False).items()))
    print(f"# speed factor over operations: median "
          f"{statistics.median(factors):.4g}, range {min(factors):.4g}"
          f"-{max(factors):.4g}")
    return {**timings(passes, True),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def per_layer(passes: list) -> dict:
    traced = [p for p in passes if p.layers is not None]
    plain = [p for p in passes if p.layers is None]
    out = {name: statistics.median_low(p.layers[name] for p in traced)
           for name in traced[0].layers}
    out["trace.overhead_s"] = (
        statistics.median(p.wall(True) for p in traced)
        - statistics.median(p.wall(True) for p in plain))
    res_f = out["residual.residual_F_s"]
    if res_f > 0:
        parts = sum(out[name + "_s"] for name in RESIDUAL_PARTS)
        print(f"# residual_F: {', '.join(RESIDUAL_PARTS)} cover "
              f"{100 * parts / res_f:.1f}% of its time; the remainder "
              f"(residual.residual_F_other_s) is {REMAINDER}")
        picard = (out["residual.picard_iters"]
                  / out["residual.residual_F_calls"])
        print(f"# Picard iterations per residual_F: {picard:.2f}")
    tables = out["coeffs.build_mode_table_calls"]
    if tables:
        print(f"# solve_An calls per mode table: "
              f"{out['radial_ode.solve_An_calls'] / tables:.1f}")
    return out


def run_workload(args, spec: dict, bench: dict) -> int:
    wl = spec["workloads"][args.workload]
    texts = make_inputs(args.workload, wl, args.seed, args.smoke)
    ref_path = os.path.join(HERE, "reference.json")
    use_ref = (args.seed == spec["default_seed"] and not args.smoke
               and not args.write_reference)
    refs = load_json(ref_path)[args.workload] if use_ref else None
    tol = spec["reference_tolerance"]

    print(f"# machine: {machine_summary()}")
    print(f"# workload {args.workload} seed={args.seed} trace={args.trace} "
          f"smoke={int(args.smoke)} reference_check={int(use_ref)}")
    for text in texts:
        print("# config: " + text.strip().replace("\n", "; "))

    # Another pass starts only if one more of the last pass's length fits
    # in --seconds, so a run does not overrun its time by a whole pass.
    # A traced run alternates untraced and traced passes.
    passes, fresh_norms = [], {}
    min_passes = 2 if args.trace else 1
    start = time.perf_counter()
    speed = Speed(spec["probe_reference_s"])
    while True:
        t0 = time.perf_counter()
        traced = bool(args.trace) and len(passes) % 2 == 1
        p = run_pass(wl["kind"], texts, speed, traced)
        check_pass(p, wl["kind"], refs, tol, fresh_norms)
        passes.append(p)
        now = time.perf_counter()
        if args.write_reference or (len(passes) >= min_passes and
                                    now - start + now - t0 > args.seconds):
            break

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if op.problems]
    for op in failed:
        print(f"# FAILED {op.label}: " + " | ".join(op.problems))

    if args.write_reference:
        if failed:
            return 1
        refs = load_json(ref_path) if os.path.exists(ref_path) else {}
        refs[args.workload] = [op.fingerprint for op in passes[0].ops]
        with open(ref_path, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"# wrote {len(passes[0].ops)} reference values")
        return 0

    print(f"# passes={len(passes)} operations={len(ops)} "
          f"failed={len(failed)} failed_frac={len(failed) / len(ops):.6g}")
    values = per_layer(passes) if args.trace else end_to_end(passes)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in listed:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(args, names: list) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    argv = ["--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    argv += ["--smoke"] * args.smoke
    argv += ["--write-reference"] * args.write_reference
    code = 0
    for name in names:
        code = max(code, subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", name] + argv).returncode)
    return code


def main(argv: list) -> int:
    spec = load_json(os.path.join(HERE, "workloads.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = list(spec["workloads"])
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, default=spec["default_seed"])
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny N, one mass, one scan")
    p.add_argument("--write-reference", action="store_true",
                   help="store one pass's results as reference.json values "
                        "for this workload (default seed)")
    args = p.parse_args(argv)
    if args.write_reference and (args.smoke or args.trace
                                 or args.seed != spec["default_seed"]):
        p.error("--write-reference needs the default seed, no --smoke "
                "and --trace 0")
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args, spec, bench)
