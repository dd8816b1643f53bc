"""Benchmark for sizesem: three workloads, verdict checks, optional tracing.

    python3 bench/run.py --workload repro|check|search --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from ../src relative to this
file, so nothing needs installing.  All load runs in this one process and
one thread, every call at parallelism=1 as the CLI does.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run (see METRICS.md).  End-to-end timings are in
reference seconds: each query's time is scaled by a fixed pure-Python
reference timed around it, so that the host's speed swings cancel (see
speed.py); the raw times are printed beside them.  Human-readable lines
come first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A run also writes its full result (and, when
traced, the spans) to .bench_out/ at the root of the checkout.  The exit
code is 1 when any verdict check fails, 2 on a usage or setup error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 11
# Set-up as a user pays it: import the package and the CLI, load the
# expected-verdict table and every stored fixture system.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import sizesem, sizesem.cli
from importlib import resources
from sizesem import fixtures
fixtures.expected_table()
for entry in sorted(resources.files("sizesem.fixtures").joinpath("data").iterdir(), key=str):
    name = entry.name[: -len(".json")]
    if name == "expected":
        continue
    (fixtures.fixture_mu if name.endswith("-mu") else fixtures.fixture_system)(name)
print(repr(time.perf_counter() - t0))
"""

# Fixture metrics reported by the traced repro run: name -> fixture ids summed.
FIXTURE_METRICS = {
    "fact-3.10": ["fact-3.10"],
    "fact-3.12": ["fact-3.12"],
    "fact-3.9": ["fact-3.9"],
    "fact-3.13": ["fact-3.13"],
    "fact-3.7-3": ["fact-3.7:3"],
    "fact-3.3": ["fact-3.3"],
    "prop-4.1-fwd": [f"prop-4.1:{r}:fwd" for r in range(1, 11)],
    "prop-4.1-bwd": [f"prop-4.1:{r}:bwd" for r in range(1, 11)],
}


def setup_sample() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip())


class SetupSampler:
    """Set-up time in fresh interpreters, sampled at even intervals across the
    run so that the median spans the host's speed swings instead of one
    moment.  Reference samples taken around each one normalise it (see
    speed.py).  A first, bytecode-compiling interpreter is
    discarded: users pay compilation once per install."""

    def __init__(self, expected_s: float, speed: Speed):
        setup_sample()
        self.speed = speed
        self.raw: list[float] = []
        self.samples: list[float] = []
        self.interval = expected_s / SETUP_SAMPLES
        self.next_at = time.perf_counter()

    def take(self) -> None:
        self.speed.sample()
        t0 = time.perf_counter()
        raw = setup_sample()
        t1 = time.perf_counter()
        self.speed.after(t1 - t0)
        self.raw.append(raw)
        self.samples.append(raw * self.speed.factor(t0, t1))

    def __call__(self) -> None:
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() >= self.next_at:
            self.take()
            self.next_at += self.interval

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return self.samples


@dataclasses.dataclass
class Outcome:
    """What a sequence of passes measured and found."""

    names: list[str] = dataclasses.field(default_factory=list)
    latencies: list[float] = dataclasses.field(default_factory=list)
    starts: list[float] = dataclasses.field(default_factory=list)  # perf_counter at query start
    cpus: list[float] = dataclasses.field(default_factory=list)
    pass_of: list[int] = dataclasses.field(default_factory=list)
    pass_wall: list[float] = dataclasses.field(default_factory=list)
    pass_cpu: list[float] = dataclasses.field(default_factory=list)
    first_hash: dict[str, bytes] = dataclasses.field(default_factory=dict)  # query -> payload hash
    pass_digests: list[str] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    def digest(self) -> str:
        """SHA-256 over the distinct pass digests, in order: for a fixed query
        list every pass is identical, so this does not depend on pass count."""
        distinct = list(dict.fromkeys(self.pass_digests))
        return hashlib.sha256("".join(distinct).encode()).hexdigest()


def run_passes(make_queries, seed, indices, table, out: Outcome, tracer=None, between=None, speed=None):
    """Run the passes `indices`; a pass's wall and CPU time are those of its
    queries, so work done between queries (`between`, reference samples,
    checks) is excluded.  With `speed`, reference samples are taken at the
    start of each pass and after each query."""
    from workloads import dumps

    serialize = dumps if tracer is None else (lambda payload: tracer.serialize(dumps, payload))
    for index in indices:
        queries = make_queries(seed, index, table)
        gc.collect()
        answers, wall, cpu = [], 0.0, 0.0
        if speed is not None:
            speed.after(0.3)  # a few samples for the first query's window
        for q in queries:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                if tracer is None:
                    answers.append(q.run(serialize))
                else:
                    with tracer.query(q.name):
                        answers.append(q.run(serialize))
            except Exception:  # a crashing query is a failed query; keep going
                answers.append(traceback.format_exc(limit=3))
            latency = time.perf_counter() - t0
            q_cpu = time.process_time() - c0
            cpu += q_cpu
            wall += latency
            if speed is not None:
                speed.after(latency)
            out.names.append(q.name)
            out.latencies.append(latency)
            out.starts.append(t0)
            out.cpus.append(q_cpu)
            out.pass_of.append(len(out.pass_wall))
            if between is not None:
                between()
        out.pass_wall.append(wall)
        out.pass_cpu.append(cpu)
        check_pass(queries, answers, out)


def check_pass(queries, answers, out: Outcome) -> None:
    h = hashlib.sha256()
    for q, ans in zip(queries, answers):
        out.attempted += 1
        if isinstance(ans, str):
            problems = [f"{q.name}: exception\n{ans}"]
        else:
            answer, blob = ans
            h.update(blob)
            try:
                problems = q.check(answer)
            except Exception:  # an answer the check cannot read is a wrong answer
                problems = [f"{q.name}: unreadable answer\n{traceback.format_exc(limit=3)}"]
            blob_hash = hashlib.sha256(blob).digest()
            if out.first_hash.setdefault(q.name, blob_hash) != blob_hash:
                problems.append(f"{q.name}: payload differs from an earlier run of the same query")
        if problems:
            out.failed += 1
            out.problems += problems
    out.pass_digests.append(h.hexdigest())


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) at the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def timings(latencies, cpus, pass_of, names, setup) -> dict[str, tuple[float, str]]:
    """The timing metrics from per-query times (raw or normalised alike)."""
    walls, cpu_sums = [0.0] * (pass_of[-1] + 1), [0.0] * (pass_of[-1] + 1)
    per_query: dict[str, list[float]] = {}
    for lat, cpu, p, name in zip(latencies, cpus, pass_of, names):
        walls[p] += lat
        cpu_sums[p] += cpu
        per_query.setdefault(name, []).append(lat)
    # p50 over distinct queries, each at its median over the passes: with
    # the same fixed list in every pass, the plain median over all samples
    # would sit on the edge between two clusters of fixtures.
    p50 = statistics.median(statistics.median(v) for v in per_query.values())
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpu_sums), "s"),
        "queries_per_s": (len(latencies) / sum(walls), "1/s"),
        "query_p50_ms": (1000 * p50, "ms"),
        "query_tail_ms": (1000 * tail(latencies)[0], "ms"),
    }


def end_to_end(out: Outcome, setup: SetupSampler, speed: Speed) -> tuple[dict, list[str], dict]:
    """Normalised metrics (see speed.py), the printed lines with raw values
    beside them, and the raw metrics."""
    factors = [speed.factor(t0, t0 + lat) for t0, lat in zip(out.starts, out.latencies)]
    norm_lat = [lat * f for lat, f in zip(out.latencies, factors)]
    norm_cpu = [cpu * f for cpu, f in zip(out.cpus, factors)]
    metrics = timings(norm_lat, norm_cpu, out.pass_of, out.names, setup.samples)
    raw = timings(out.latencies, out.cpus, out.pass_of, out.names, setup.raw)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    _, pct, n = tail(out.latencies)
    notes = {
        "setup_s": f"median of {len(setup.samples)} fresh interpreters",
        "wall_s": f"median of {len(out.pass_wall)} passes",
        "cpu_s": f"median of {len(out.pass_cpu)} passes",
        "query_p50_ms": f"{len(set(out.names))} distinct queries",
        "query_tail_ms": f"p{pct:.2f}, n={n}",
    }
    lines = [f"  {'metric':<15} {'reference':>14}      {'raw':>14}"]
    lines += [
        f"  {name:<15} {v:>14.6f} {unit:<4} {raw[name][0] if name in raw else v:>14.6f}  {notes.get(name, '')}"
        for name, (v, unit) in metrics.items()
    ]
    lines.append(
        f"  {'fail_ratio':<15} {out.failed / max(out.attempted, 1):>14.6f}      "
        f"{out.failed}/{out.attempted} queries"
    )
    return as_json(metrics), lines, as_json(raw)


def as_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def drain_enumerations(tracer) -> tuple[float, int, float]:
    """Re-run every enumerate_systems call of the traced passes with no checks,
    each stopped where the traced call stopped.  Returns (seconds, systems,
    canonical keep ratio)."""
    from sizesem import search

    seconds, systems, kept, examined = 0.0, 0, 0, 0
    for rec in tracer.enumerations:
        t0 = time.perf_counter()
        for _ in itertools.islice(search.enumerate_systems(rec["spec"]), rec["yielded"]):
            pass
        seconds += time.perf_counter() - t0
        systems += rec["yielded"]
        if rec["spec"].canonical_only and rec["last"] is not None:
            # Candidates the filter looked at: the raw stream up to the last kept system.
            raw = dataclasses.replace(rec["spec"], canonical_only=False)
            for pos, s in enumerate(search.enumerate_systems(raw)):
                if s.ideals == rec["last"].ideals:
                    break
            kept += rec["yielded"]
            examined += pos + 1
    return seconds, systems, (kept / examined if examined else 0.0)


def scan_p2_speedup() -> float:
    """Degree-1 / degree-2 wall time of one |U|=3 implication scan, median of
    three alternating pairs (scan_stream threads share the interpreter lock)."""
    from sizesem import search
    from sizesem.properties import EMI, IOMEGA
    from sizesem.rules import OR_OMEGA

    spec = search.SearchSpec(3, (IOMEGA, EMI), OR_OMEGA, "verify-implication")
    times = {1: [], 2: []}
    for degree in (1, 2) * 3:
        t0 = time.perf_counter()
        search.verify_implication(spec, parallelism=degree)
        times[degree].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / statistics.median(times[2])


def per_layer(tracer, untraced: Outcome, traced: Outcome) -> dict:
    c, calls, self_s = tracer.counts, tracer.calls, tracer.layer_self
    metrics: dict[str, tuple[float, str]] = {}
    first_pass = dict(reversed(list(zip(untraced.names, untraced.latencies))))
    for name, ids in FIXTURE_METRICS.items():
        metrics[f"fixtures.{name}_s"] = (sum(first_pass.get(fid, 0.0) for fid in ids), "s")

    enum_s, enumerated, keep = drain_enumerations(tracer)
    with_required = [r for r in tracer.enumerations if r["spec"].required]
    required_seen = sum(r["yielded"] for r in with_required)
    metrics["search.systems_enumerated"] = (enumerated, "count")
    metrics["search.enum_s"] = (enum_s, "s")
    metrics["search.enum_systems_per_s"] = (enumerated / enum_s if enum_s else 0.0, "1/s")
    metrics["search.canonical_keep_ratio"] = (keep, "ratio")
    metrics["search.required_pass_ratio"] = (
        (required_seen - c["required_rejected"]) / required_seen if required_seen else 0.0,
        "ratio",
    )
    metrics["search.scan_p2_speedup"] = (scan_p2_speedup(), "ratio")

    for layer, fn in (("properties", "check_property"), ("rules", "check_rule")):
        n = calls[fn]
        metrics[f"{layer}.calls"] = (n, "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        metrics[f"{layer}.us_per_call"] = (1e6 * self_s[layer] / n if n else 0.0, "us")
        metrics[f"{layer}.instances_per_call"] = (c[f"{fn}.instances"] / n if n else 0.0, "count")
    metrics["preferential.calls"] = (calls["check_mu_rule"], "count")
    metrics["preferential.self_s"] = (self_s["preferential"], "s")
    metrics["preferential.mu_functions_enumerated"] = (calls["enumerate_mu_functions"], "count")
    metrics["preferential.principal_skipped"] = (c["principal_skipped"], "count")
    metrics["sizesys.parse_s"] = (self_s["sizesys.parse"], "s")
    metrics["sizesys.convert_s"] = (self_s["sizesys.convert"], "s")
    metrics["sizesys.convert_calls"] = (calls["from_mu"] + calls["principal_mu"], "count")
    metrics["setcore.submasks_calls"] = (calls["submasks"], "count")
    metrics["report.serialize_s"] = (self_s["report"], "s")
    metrics["report.bytes"] = (c["report.bytes"], "bytes")
    metrics["logic.queries"] = (calls["nm_entails_formulas"], "count")
    metrics["logic.self_s"] = (self_s["logic"], "s")
    metrics["trace.overhead_ratio"] = (sum(traced.pass_wall) / sum(untraced.pass_wall), "ratio")
    metrics["trace.unattributed_s"] = (self_s["unattributed"], "s")
    return metrics


def replay_at_degree_2(table, untraced: Outcome, out: Outcome) -> None:
    """Criterion 13 seen from outside: the search-backed fixtures give the
    same payload bytes at parallelism 2 as at 1."""
    from workloads import SEARCH_BACKED, dumps, repro_query

    queries = [repro_query(fid, table, parallelism=2) for fid in SEARCH_BACKED]
    answers = []
    for q in queries:
        try:
            answers.append(q.run(dumps))
        except Exception:
            answers.append(traceback.format_exc(limit=3))
    replay = Outcome(first_hash={fid: untraced.first_hash[fid] for fid in SEARCH_BACKED})
    check_pass(queries, answers, replay)
    out.attempted += replay.attempted
    out.failed += replay.failed
    out.problems += [f"degree 2: {p}" for p in replay.problems]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("repro", "check", "search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sizesem" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from sizesem import fixtures
    from workloads import WORKLOADS

    make_queries, budget = WORKLOADS[args.workload]
    table = fixtures.expected_table()
    result: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")

    if not args.trace:
        passes = max(1, round(args.seconds / budget))
        speed = Speed()
        sampler = SetupSampler(passes * budget, speed)
        out = Outcome()
        run_passes(make_queries, args.seed, range(passes), table, out, between=sampler, speed=speed)
        sampler.finish()
        metrics, lines, raw = end_to_end(out, sampler, speed)
        print(f"  {passes} passes, {len(out.latencies)} queries, payload sha256 {out.digest()}")
        print("\n".join(lines))
        result.update(
            raw_metrics=raw, setup_samples=sampler.samples, setup_raw=sampler.raw,
            pass_wall=out.pass_wall, pass_cpu=out.pass_cpu,
            latencies=[  # query, start, raw seconds, factor to reference seconds
                (n, t0, lat, speed.factor(t0, t0 + lat)) for n, t0, lat in zip(out.names, out.starts, out.latencies)
            ],
            reference=list(zip(speed.times, speed.durations)),
        )
        _, pct, n = tail(out.latencies)
        result["tail"] = {"percentile": pct, "n": n}
    else:
        from tracing import Tracer

        passes = max(1, int(args.seconds / 3 / budget))
        out, traced, tracer = Outcome(), Outcome(), Tracer()
        for index in range(passes):  # alternate, so host drift hits both alike
            run_passes(make_queries, args.seed, [index], table, out)
            with tracer:
                run_passes(make_queries, args.seed, [index], table, traced, tracer)
        if args.workload == "repro":
            replay_at_degree_2(table, out, out)
        metrics = as_json(per_layer(tracer, out, traced))
        out.attempted += traced.attempted
        out.failed += traced.failed
        out.problems += traced.problems
        if traced.digest() != out.digest():
            out.failed += 1
            out.problems.append("traced passes produced different payloads than untraced ones")
        print(f"  {passes} traced passes, payload sha256 {out.digest()}")
        for k, m in metrics.items():
            print(f"  {k:<40} {m['value']:>16.6f} {m['unit']}")
        result["spans"] = tracer.spans
        result["layer_self_s"] = dict(tracer.layer_self)
        result["calls"] = dict(tracer.calls)
        result["counts"] = dict(tracer.counts)

    correct = out.failed == 0
    for p in out.problems[:20]:
        print(f"  FAIL {p}")
    result.update(
        digest=out.digest(), correct=correct, attempted=out.attempted, failed=out.failed,
        problems=out.problems, metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
