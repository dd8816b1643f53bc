"""Tracing from outside the program: wrap each layer's public functions.

The benchmark never edits `sizesem`.  Instead `Tracer.install()` replaces
each traced function with a timing wrapper in *every* loaded `sizesem`
module that holds it, because `search`, `preferential` and `fixtures` bind
`check_property`, `check_rule` and `submasks` with `from ... import` and
would otherwise keep calling the original.  `uninstall()` puts the
originals back.

Only one thread may run while a tracer is installed: the wrappers share one
call stack.  Calls made outside a query span are passed through untimed, so
the benchmark's own verdict checks do not count towards any layer.

Accounting:
* every wrapped call is a frame on a stack; its self time is its duration
  minus the durations of the wrapped calls it made, and is added to its
  layer;
* a query (fixture, document, search) is the root frame and is kept as a
  full span; its self time is time no layer claims ("unattributed");
* high-frequency boundaries (check calls, `submasks`, generator steps) are
  aggregated into counts and self time, never stored per call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from sizesem import (
    fixtures,
    logic,
    preferential,
    properties,
    report,
    rules,
    search,
    setcore,
    sizesys,
)

# (module, function name, layer).  Generators are timed per step.
BOUNDARIES = [
    (setcore, "submasks", "setcore"),
    (sizesys, "system_from_dict", "sizesys.parse"),
    (sizesys, "mu_from_dict", "sizesys.parse"),
    (sizesys, "from_mu", "sizesys.convert"),
    (sizesys, "principal_mu", "sizesys.convert"),
    (logic, "parse_formula", "logic"),
    (logic, "models", "logic"),
    (logic, "interpretation_from_dict", "logic"),
    (rules, "nm_entails_formulas", "logic"),
    (properties, "check_property", "properties"),
    (properties, "property_matrix", "properties"),
    (properties, "check_level", "properties"),
    (rules, "check_rule", "rules"),
    (preferential, "check_mu_rule", "preferential"),
    (preferential, "verify_correspondence_forward", "preferential"),
    (preferential, "verify_correspondence_backward", "preferential"),
    (preferential, "enumerate_mu_functions", "preferential"),
    (search, "enumerate_systems", "search"),
    (search, "scan_stream", "search"),
    (search, "evaluate_check", "search"),
    (search, "find_counterexample", "search"),
    (search, "verify_implication", "search"),
    (search, "count_systems", "search"),
    (search, "verify_implication_upto", "search"),
    (search, "verify_agreement_upto", "search"),
    (search, "verify_agreement", "search"),
    (search, "verify_two_s_breakdown", "search"),
    (fixtures, "run_fixture", "fixtures"),
    (fixtures, "compare_records", "fixtures"),
]
GENERATORS = {"enumerate_systems", "scan_stream", "enumerate_mu_functions"}
REPORT_METHODS = [(report.CheckReport, "to_dict"), (report.CorrespondenceReport, "to_dict")]


class Tracer:
    """Per-layer counters and self time, plus full spans for queries."""

    def __init__(self):
        self.layer_self: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()  # by function name; generator steps
        self.counts: Counter = Counter()  # instances, rejections, skips, bytes
        self.spans: list[dict] = []
        # Search bookkeeping: one entry per enumerate_systems call.
        self.enumerations: list[dict] = []
        self._search_spec = None  # spec of the search call on the stack
        self._stack: list[list] = []  # [layer, start, child_time]
        self._originals: list[tuple[object, str, object]] = []

    # --- frames ---------------------------------------------------------------

    def _enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        layer, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.layer_self[layer] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def query(self, name: str):
        """Context manager for one query: a root frame kept as a full span."""
        return _QuerySpan(self, name)

    # --- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        if name in GENERATORS:

            def gen_wrapper(*args, **kwargs):
                if not tracer._stack:
                    yield from fn(*args, **kwargs)
                    return
                record = None
                if name == "enumerate_systems":
                    record = {"spec": args[0] if args else kwargs["spec"], "yielded": 0, "last": None}
                    tracer.enumerations.append(record)
                it = fn(*args, **kwargs)
                while True:
                    tracer._enter(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.calls[name] += 1
                    if record is not None:
                        record["yielded"] += 1
                        record["last"] = item
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            saved_spec = tracer._search_spec
            if name in ("find_counterexample", "verify_implication", "count_systems"):
                tracer._search_spec = args[0] if args else kwargs["spec"]
            tracer._enter(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
                tracer._search_spec = saved_spec
            tracer._observe(name, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, name: str, args: tuple, out) -> None:
        if name in ("check_property", "check_rule"):
            self.counts[f"{name}.instances"] += out.instances_checked
        elif name == "evaluate_check":
            spec = self._search_spec
            if spec is not None and args[1] in spec.required and not out.holds:
                self.counts["required_rejected"] += 1
        elif name == "verify_correspondence_forward":
            self.counts["principal_skipped"] += out.skipped_non_principal

    def install(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n == "sizesem" or n.startswith("sizesem.")]
        for owner, name, layer in BOUNDARIES:
            original = getattr(owner, name)
            wrapped = self._wrap(original, name, layer)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, attr, original))
                        setattr(mod, attr, wrapped)
        for cls, attr in REPORT_METHODS:
            original = cls.__dict__[attr]
            self._originals.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, f"{cls.__name__}.{attr}", "report"))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def serialize(self, dumps, payload) -> bytes:
        """The benchmark's own JSON serialization of a report payload, as the
        `report` layer (to_dict calls inside `payload` building are wrapped)."""
        if not self._stack:
            return dumps(payload)
        self._enter("report")
        try:
            blob = dumps(payload)
        finally:
            self._exit()
        self.counts["report.bytes"] += len(blob)
        return blob


class _QuerySpan:
    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter()
        self.tracer._stack.append(["unattributed", self.start, 0.0])
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        end = time.perf_counter()
        _, start, child = t._stack.pop()
        unattributed = end - start - child
        t.layer_self["unattributed"] += unattributed
        t.spans.append(
            {
                "id": len(t.spans),
                "name": self.name,
                "parent": None,
                "start": start,
                "end": end,
                "unattributed_s": unattributed,
            }
        )
