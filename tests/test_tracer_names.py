"""The benchmark tracer wraps functions by name; each name must still exist.

`bench/tracing.py` looks its boundaries up with getattr at install time, so a
refactor that renames or drops one would only fail the traced benchmark run.
This reads the tracer's tables and checks every name here instead, and
checks the names `bench/workloads.py` takes from `sizesem` the same way.  A
few benchmark queries also run end to end here, through their own `run` and
`check`, so a fault that would stop the benchmark run shows up in the suite.
"""

import ast
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

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


WORKLOADS = TRACING.with_name("workloads.py")

MU_TAGS_IN_SCAN_ORDER = [
    "mu-CM", "mu-CUM", "mu-CUT", "mu-OR", "mu-PR", "mu-PR'", "mu-RatM", "mu-ResM",
    "mu-disjOR", "mu-empty", "mu-empty-fin", "mu-eq", "mu-eq'", "mu-in", "mu-parallel",
    "mu-sub-sup", "mu-union", "mu-union'", "mu-wOR",
]


def _load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(WORKLOADS.parent))  # for `import gen`
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_imports_exist(monkeypatch):
    # Loading the workloads resolves every `from sizesem... import name`; the
    # module attributes they reach at run time are checked from the source.
    workloads = _load_workloads(monkeypatch)
    modules = {
        name: value
        for name, value in vars(workloads).items()
        if isinstance(value, ModuleType) and value.__name__.startswith("sizesem")
    }
    assert modules
    missing = sorted(
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(ast.parse(WORKLOADS.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and not hasattr(modules[node.value.id], node.attr)
    )
    assert missing == []
    assert [r.tag for r in workloads.MU_RULES] == MU_TAGS_IN_SCAN_ORDER


def test_benchmark_queries_run_clean(monkeypatch):
    # One check batch, two repro fixtures and three searches, each through
    # the benchmark's own run and check: every query must answer without a
    # problem.  The raw count and the raw deep find run on class leaders and
    # must still give the raw stream's count (524 288) and label (u4#73333).
    from sizesem import fixtures

    workloads = _load_workloads(monkeypatch)
    table = fixtures.expected_table()
    queries = workloads.check_queries(1, 0, table)
    queries += [workloads.repro_query(fid, table) for fid in ("ex-3.8:3", "ex-3.8:4")]
    searches = (
        "implies-canon-u3:I-omega+eMI=>OR:omega",
        "count-opt-nonmono-u3",
        "find-u4:M+omega:2=>M+omega:1",
    )
    queries += [q for q in workloads.search_queries(1, 0, table) if q.name in searches]
    assert len(queries) == 20
    problems = []
    for q in queries:
        answer, _ = q.run(workloads.dumps)
        problems += q.check(answer)
    assert problems == []
