"""The benchmark's tracer patches library names in place; a name it wraps
that the package no longer defines would otherwise fail only the traced
benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    bindings = [b for table in (tracing.TIMED, tracing.COUNTED)
                for name in table for b in table[name]]
    assert bindings
    missing = [f"{module.__name__}.{attr}" for module, attr in bindings
               if not callable(getattr(module, attr, None))]
    assert not missing
