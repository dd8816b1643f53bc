"""The benchmark tracer wraps functions by name; each name must still exist.

`bench/tracing.py` looks its boundaries up with getattr at install time, so a
refactor that renames or drops one would only fail the traced benchmark run.
This reads the tracer's tables and checks every name here instead, and
checks the names `bench/workloads.py` takes from `sizesem` the same way, and
every keyword the benchmark passes to a `sizesem` function against that
function's signature.  A few benchmark queries also run end to end here,
through their own `run` and `check`, so a fault that would stop the
benchmark run shows up in the suite.
"""

import ast
import importlib
import importlib.util
import inspect
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


def test_a_search_steps_through_the_traced_stream():
    # The searches read their leader walks through `search.scan_stream`, so
    # the traced name counts them and cannot silently read 0.
    from sizesem.properties import EMI, n_star_s
    from sizesem.rules import or_n
    from sizesem.search import verify_implication_upto

    with _load_tracing().Tracer() as tracer:
        with tracer.query("implication"):
            rep = verify_implication_upto((n_star_s(3), EMI), or_n(3), 3)
    assert rep.holds
    assert tracer.calls["scan_stream"] > 0


def test_counts_step_through_the_traced_stream():
    # A count is a walk that never parts from itself (`search._parting`): a
    # correspondence row's counts and a canonical count step the traced name.
    from sizesem.preferential import verify_correspondence_forward
    from sizesem.search import SearchSpec, count_systems

    scans = {
        "forward-row-3": lambda: verify_correspondence_forward(3, 3),
        "canonical-count": lambda: count_systems(SearchSpec(3, mode="count", canonical_only=True)),
    }
    for name, scan in scans.items():
        with _load_tracing().Tracer() as tracer:
            with tracer.query(name):
                rep = scan()
        assert rep.holds, name
        assert tracer.calls["scan_stream"] > 0, name


def test_a_settled_count_is_one_step_of_the_traced_stream():
    # Opt reads I(Y) alone, so the raw walk is settled at its first prefix:
    # its rest is one cell whatever relabelings are live, counted n!/n! = 1
    # time per completion, where the leader reading yielded 10 732 cells.
    from sizesem.properties import OPT
    from sizesem.search import SearchSpec, count_systems

    spec = SearchSpec(3, (OPT,), mode="count", monotone_only=False)
    with _load_tracing().Tracer() as tracer:
        with tracer.query("count-opt-nonmono-u3"):
            rep = count_systems(spec)
    assert rep.instances_checked == 2**3 * 8**3 * 128
    assert tracer.calls["scan_stream"] == 1


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


def _sizesem_imports(tree: ast.AST) -> dict[str, object]:
    """Every name a module binds with `from sizesem... import`, at any depth."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sizesem"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if value is None:
                    value = importlib.import_module(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = value
    return bound


def _callees(func: ast.expr, bound: dict, assigned: dict) -> list:
    """The `sizesem` callables a call's function expression may name: a bound
    name, an attribute of one, or a local name assigned from such expressions."""
    if isinstance(func, ast.Attribute):
        owners = _callees(func.value, bound, assigned)
        return [getattr(owner, func.attr) for owner in owners if hasattr(owner, func.attr)]
    if not isinstance(func, ast.Name):
        return []
    if func.id in bound:
        return [bound[func.id]]
    return [
        callee
        for value in assigned.get(func.id, ())
        for node in ast.walk(value)
        if isinstance(node, (ast.Attribute, ast.Name))
        for callee in _callees(node, bound, {})
    ]


def test_benchmark_keywords_are_accepted():
    # A keyword that a `sizesem` function no longer takes would stop the
    # benchmark run with a TypeError; check each against the signature here.
    checked, problems = [], []
    for path in sorted(TRACING.parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = _sizesem_imports(tree)
        assigned: dict[str, list[ast.expr]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(node.value)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            keywords = [k.arg for k in node.keywords if k.arg]
            if not keywords:
                continue
            for callee in _callees(node.func, bound, assigned):
                if not callable(callee) or not str(callee.__module__).startswith("sizesem"):
                    continue
                where = f"{path.name}:{node.lineno} {callee.__qualname__}({', '.join(keywords)})"
                checked.append(where)
                try:
                    inspect.signature(callee).bind_partial(**dict.fromkeys(keywords))
                except TypeError as exc:
                    problems.append(f"{where}: {exc}")
    assert checked
    assert problems == []
