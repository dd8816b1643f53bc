"""The three workloads: their query lists, how a query runs, how it is checked.

A query's `run` is the timed part: the calls a user's command would make,
through module attributes so an installed tracer sees them, ending with the
canonical JSON serialization of the query's payload.  Its `check` runs
untimed afterwards and compares the answer against values the code under
test did not produce (the shipped verdict table, the paper's identities,
counting formulas, independent re-evaluation of witnesses).

    repro   every fixture id, run_fixture + compare_records vs expected.json
    check   seeded README-format documents (see gen.py), every check on each
    search  a fixed list of SearchSpec searches that finish today
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import factorial
from typing import Callable

import gen
from sizesem import fixtures, logic, preferential, properties, rules, search, sizesys
from sizesem.cli import ALL_PROPS, ALL_RULES
from sizesem.errors import WorkbenchError
from sizesem.properties import EMF, EMI, IM, IOMEGA, OPT, m_plus_omega
from sizesem.report import CheckReport
from sizesem.rules import OR_OMEGA
from sizesem.search import SearchSpec


def dumps(payload) -> bytes:
    """Canonical JSON: the bytes that are digested and counted."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Query:
    name: str
    run: Callable[[Callable], tuple[object, bytes]]  # serialize -> (answer, blob)
    check: Callable[[object], list[str]]  # answer -> problems


# --- repro ---------------------------------------------------------------------

# Fixtures whose run_fixture passes `parallelism` on to a scan.
SEARCH_BACKED = [
    fid
    for fid in fixtures.FIXTURE_IDS
    if fid in ("fact-3.3", "fact-3.7:3", "fact-3.9", "fact-3.10", "fact-3.12", "fact-3.13")
    or fid.startswith("prop-4.1:")
]


def repro_query(fid: str, table: dict, parallelism: int = 1) -> Query:
    def run(serialize):
        produced = fixtures.run_fixture(fid, parallelism=parallelism)
        mismatches = fixtures.compare_records(produced, table[fid])
        return mismatches, serialize(produced)

    return Query(fid, run, lambda mismatches: [f"{fid}: {m}" for m in mismatches])


def repro_queries(seed: int, index: int, table: dict) -> list[Query]:
    return [repro_query(fid, table) for fid in fixtures.FIXTURE_IDS]


# --- check ---------------------------------------------------------------------

PROPS = [properties.parse_property(n) for n in ALL_PROPS]
RULES = [rules.parse_rule(n) for n in ALL_RULES]
MU_RULES = [preferential.parse_mu_rule(n) for n in sorted(preferential._MU_RULES)]


def _guarded(check, subject, cid):
    try:
        return check(subject, cid)
    except WorkbenchError as exc:
        return CheckReport(
            subject=subject.label, condition=cid.name, holds=False,
            error=f"{type(exc).__name__}: {exc}",
        )


def check_doc(doc: gen.Doc, serialize) -> tuple[dict, bytes]:
    """Everything `sizesem check/rules/mu --all` plus formula queries do."""
    data = json.loads(doc.text)
    mu = None
    if "choice" in data:
        mu = sizesys.mu_from_dict(data, label=doc.name)
        system = sizesys.from_mu(mu)
    else:
        system = sizesys.system_from_dict(data, label=doc.name)
    prop_reps = properties.property_matrix(system, PROPS)
    rule_reps = [_guarded(rules.check_rule, system, r) for r in RULES]
    mu_reps = [] if mu is None else [_guarded(preferential.check_mu_rule, mu, r) for r in MU_RULES]
    interp = logic.interpretation_from_dict(system.universe, data["atoms"])
    entails = [
        rules.nm_entails_formulas(system, interp, logic.parse_formula(f), logic.parse_formula(g))
        for f, g in doc.queries
    ]
    payload = {
        "subject": doc.name,
        "properties": [r.to_dict() for r in prop_reps],
        "rules": [r.to_dict() for r in rule_reps],
        "mu_rules": [r.to_dict() for r in mu_reps],
        "entails": entails,
    }
    answer = {
        "system": system,
        "mu": mu,
        "props": prop_reps,
        "verdicts": {r.condition: r.holds for r in prop_reps + rule_reps + mu_reps},
        "entails": entails,
        "errors": [r.condition for r in prop_reps + rule_reps + mu_reps if r.error],
    }
    return answer, serialize(payload)


# Per-system identities of the paper, on monotone systems (from_mu included).
SYSTEM_IDENTITIES = [
    ("fact 3.12", ("M++:1", "M++:2", "M++:3")),
    ("fact 3.13", ("RatM", "M++:1")),
    ("fact 3.9", ("CM:omega", "M+omega:4")),
]


def verify_doc(doc: gen.Doc, ans: dict) -> list[str]:
    problems = [f"{doc.name}: error report for {c}" for c in ans["errors"]]
    v = ans["verdicts"]
    if ans["mu"] is not None and ans["mu"].choice != doc.choice:
        problems.append(f"{doc.name}: parsed choice differs from the document")
    if ans["system"].ideals != doc.ideals:
        problems.append(f"{doc.name}: system ideals differ from the document")
    if doc.kind in ("choice", "monotone"):
        for fact, names in SYSTEM_IDENTITIES:
            if len({v[n] for n in names}) != 1:
                problems.append(f"{doc.name}: {fact} broken: " + ", ".join(f"{n}={v[n]}" for n in names))
    if doc.kind == "choice":
        # Proposition 4.1, rows 1, 2, 3, 5 and 6 (both directions).
        rows = [
            ("row 1", v["eMI"], v["mu-wOR"]),
            ("row 2", v["eMI"] and v["I-omega"], v["mu-OR"]),
            ("row 3", v["eMI"] and v["I-omega"], v["mu-PR"]),
            ("row 5", v["M+omega:4"], v["mu-CM"]),
            ("row 6", v["M++:1"], v["mu-RatM"]),
        ]
        problems += [f"{doc.name}: prop 4.1 {row} broken ({a} vs {b})" for row, a, b in rows if a != b]
    for p, rep in zip(PROPS, ans["props"]):
        if rep.witness is not None and not properties.witness_violates(ans["system"], p, rep.witness):
            problems.append(f"{doc.name}: {p.name} witness is not a violation")
    if ans["entails"] != doc.query_answers:
        problems.append(f"{doc.name}: formula queries {ans['entails']} != {doc.query_answers}")
    return problems


def check_queries(seed: int, index: int, table: dict) -> list[Query]:
    return [
        Query(doc.name, lambda ser, d=doc: check_doc(d, ser), lambda ans, d=doc: verify_doc(d, ans))
        for doc in gen.batch(seed, index)
    ]


# --- search --------------------------------------------------------------------


def _permute(mask: int, perm: tuple[int, ...]) -> int:
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def _down_sets(x: int) -> list[frozenset[int]]:
    subs = [m for m in range(x + 1) if not m & ~x]
    out = []
    for bits in range(1 << len(subs)):
        fam = frozenset(m for i, m in enumerate(subs) if bits >> i & 1)
        if 0 in fam and all(a & ~b or a in fam for b in fam for a in subs):
            out.append(fam)
    return out


def monotone_orbits(n: int) -> int:
    """Relabeling classes of monotone full-powerset systems, by Burnside's
    lemma: the mean, over permutations g of U, of the systems g fixes.  A
    fixed system is free on one base set X per g-orbit of base sets, with
    I(X) invariant under g^k (k the orbit length)."""
    total = 0
    for perm in itertools.permutations(range(n)):
        fixed, seen = 1, set()
        for x in range(1, 1 << n):
            if x in seen:
                continue
            orbit, y = [x], _permute(x, perm)
            while y != x:
                orbit.append(y)
                y = _permute(y, perm)
            seen.update(orbit)
            k = len(orbit)
            fixed *= sum(
                1
                for fam in _down_sets(x)
                if frozenset(_reapply(a, perm, k) for a in fam) == fam
            )
        total += fixed
    return total // factorial(n)


def _reapply(mask: int, perm: tuple[int, ...], k: int) -> int:
    for _ in range(k):
        mask = _permute(mask, perm)
    return mask


# Families containing the empty set per base-set size: 2^(2^k - 1).
NONMONOTONE_U3 = 2**3 * 8**3 * 128  # 3 singletons, 3 pairs, 1 triple
MONOTONE_U3_CANONICAL = monotone_orbits(3)

SEARCHES = [
    # (name, spec, expected) -- expected: ("count", n) | ("holds",) | ("found", label or None)
    (
        "count-mono-canon-u3",
        SearchSpec(3, mode="count", canonical_only=True),
        ("count", MONOTONE_U3_CANONICAL),
    ),
    (
        "count-opt-nonmono-u3",
        SearchSpec(3, required=(OPT,), mode="count", monotone_only=False),
        ("count", NONMONOTONE_U3),
    ),
    (
        "implies-canon-u3:I-omega+eMI=>OR:omega",  # fact 3.10, first row
        SearchSpec(3, (IOMEGA, EMI), OR_OMEGA, "verify-implication", canonical_only=True),
        ("holds",),
    ),
    (
        "find-u4:Opt+iM+eMI+I-omega=>eMF",  # fact 3.4: eMF is independent
        SearchSpec(4, (OPT, IM, EMI, IOMEGA), EMF),
        ("found", None),
    ),
    (
        "find-canon-u4:Opt+iM+eMI+I-omega=>eMF",
        SearchSpec(4, (OPT, IM, EMI, IOMEGA), EMF, canonical_only=True),
        ("found", None),
    ),
    (
        "find-u4:Opt+iM+eMF+I-omega=>eMI",  # fact 3.4: eMI is independent
        SearchSpec(4, (OPT, IM, EMF, IOMEGA), EMI),
        ("found", None),
    ),
    (
        "find-canon-u4:Opt+iM+eMF+I-omega=>eMI",
        SearchSpec(4, (OPT, IM, EMF, IOMEGA), EMI, canonical_only=True),
        ("found", None),
    ),
    (
        "find-u4:M+omega:2=>M+omega:1",  # ex 3.11: the variants are independent
        SearchSpec(4, (m_plus_omega(2),), m_plus_omega(1)),
        ("found", "u4#73333"),
    ),
    ("two-s-breakdown-u4", None, ("holds",)),  # fact 3.3
]


def _run_search(spec: SearchSpec | None, serialize):
    if spec is None:
        rep = search.verify_two_s_breakdown(fixtures.BREAKDOWN_MAX, parallelism=1)
        return (None, rep), serialize({"records": [rep.to_dict()]})
    if spec.mode == "find-counterexample":
        system, rep = search.find_counterexample(spec, parallelism=1)
        payload = {"spec": spec.to_dict(), "found": None if system is None else system.to_dict()}
        if rep is not None:
            payload["target_report"] = rep.to_dict()
        return (system, rep), serialize(payload)
    fn = search.verify_implication if spec.mode == "verify-implication" else search.count_systems
    rep = fn(spec, parallelism=1)
    return (None, rep), serialize({"spec": spec.to_dict(), "records": [rep.to_dict()]})


def _verify_search(name: str, spec, expected, answer) -> list[str]:
    system, rep = answer
    if expected[0] == "count":
        if rep.instances_checked != expected[1]:
            return [f"{name}: counted {rep.instances_checked}, derivation gives {expected[1]}"]
        return []
    if expected[0] == "holds":
        return [] if rep.holds else [f"{name}: the paper's implication reported as failing"]
    if system is None:
        return [f"{name}: no counterexample found"]
    problems = []
    if expected[1] is not None and system.label != expected[1]:
        problems.append(f"{name}: first hit {system.label}, expected {expected[1]}")
    if not properties.witness_violates(system, spec.target, rep.witness):
        problems.append(f"{name}: target witness is not a violation")
    return problems


def search_queries(seed: int, index: int, table: dict) -> list[Query]:
    return [
        Query(
            name,
            lambda ser, s=spec: _run_search(s, ser),
            lambda ans, n=name, s=spec, e=expected: _verify_search(n, s, e, ans),
        )
        for name, spec, expected in SEARCHES
    ]


# Name -> (query list for (seed, pass index, expected table), seconds of
# --seconds per pass).  A run of S seconds does round(S / budget) passes,
# never fewer than one, so two commits measured with the same S and seed run
# exactly the same queries.  At S = 24 that is 3 repro passes (about 11 s
# each on a 2-core host), 7 search passes (about 6 s each) and 40 check
# batches (about 0.3 s each, plus reference samples): a run takes 20-45 s.
# The pass counts also keep the tail rank inside a cluster of equally slow
# queries (see METRICS.md).
WORKLOADS = {
    "repro": (repro_queries, 8.0),
    "check": (check_queries, 0.6),
    "search": (search_queries, 3.4),
}
