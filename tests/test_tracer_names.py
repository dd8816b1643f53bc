"""The benchmark tracer wraps functions by name; each name must still exist.

`bench/tracing.py` looks its boundaries up with getattr at install time, so a
refactor that renames or drops one would only fail the traced benchmark run.
This reads the tracer's tables and checks every name here instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist_and_are_callable():
    tracing = _load_tracing()
    assert tracing.BOUNDARIES and tracing.REPORT_METHODS
    missing = [
        f"{owner.__name__}.{name}"
        for owner, name, _layer in tracing.BOUNDARIES
        if not callable(getattr(owner, name, None))
    ]
    missing += [
        f"{cls.__name__}.{attr}"
        for cls, attr in tracing.REPORT_METHODS
        if not callable(cls.__dict__.get(attr))
    ]
    assert missing == []
