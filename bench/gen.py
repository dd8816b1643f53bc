"""Seeded document generator for the `check` workload.

Every document is a system or choice-function file in the README format
(full domain, optional "atoms" block) plus a few formula consequence
queries.  The program under test only ever sees the JSON text and the
formula strings; the generator keeps its own copy of what it meant (ideal
masks or choices, formula model sets) so answers can be checked against
values the program did not compute.

Mix, per batch of 15 documents (stratified, so every batch costs about
the same and run-to-run spread stays small):

    kind         |U|=4  |U|=5   why
    choice         4      2     principal systems: most checks hold and scan
                                in full; exercises preferential + from_mu
    monotone       4      2     down-set ideals: the class the paper's facts
                                (3.9, 3.12, 3.13) quantify over
    arbitrary      2      1     ideals containing the empty set but not
                                downward closed: checks fail fast

|U| = 4 is what users check by hand (≈ 3 ms per document); |U| = 5 is the
largest size where every property, rule and mu-rule still finishes in tens
of milliseconds, and it produces the latency tail.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

MIX = (
    # (kind, universe size, documents per batch)
    ("choice", 4, 4),
    ("monotone", 4, 4),
    ("arbitrary", 4, 2),
    ("choice", 5, 2),
    ("monotone", 5, 2),
    ("arbitrary", 5, 1),
)
ATOMS = ("p", "q", "r")
QUERIES_PER_DOC = 3


@dataclass
class Doc:
    """One generated input and the generator's own record of its meaning."""

    name: str
    kind: str
    size: int
    text: str  # the JSON document handed to the program
    queries: list[tuple[str, str]]  # formula pairs (antecedent, consequent)
    ideals: dict[int, frozenset[int]]  # I(X) as masks; principal ones for choices
    choice: dict[int, int]  # f(X) as masks; empty unless kind == "choice"
    query_answers: list[bool]  # a |~ b for each query pair


def _letters(n: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(n)]


def _masks(n: int) -> list[int]:
    """Nonempty masks, ascending cardinality then value."""
    return sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))


def _submasks(x: int) -> list[int]:
    out, sub = [], 0
    while True:
        out.append(sub)
        if sub == x:
            return out
        sub = (sub - x) & x


def _labels(elems: list[str], mask: int) -> list[str]:
    return [e for i, e in enumerate(elems) if mask >> i & 1]


def _random_subset(rng: random.Random, x: int, p: float) -> int:
    out = 0
    for i in range(x.bit_length()):
        if x >> i & 1 and rng.random() < p:
            out |= 1 << i
    return out


def _down_closure(gens: list[int]) -> frozenset[int]:
    fam = {0}
    for g in gens:
        fam.update(_submasks(g))
    return frozenset(fam)


def _choice_ranked(rng: random.Random, n: int) -> dict[int, int]:
    rank = [rng.randrange(3) for _ in range(n)]
    out = {}
    for x in _masks(n):
        low = min(rank[i] for i in range(n) if x >> i & 1)
        out[x] = sum(1 << i for i in range(n) if x >> i & 1 and rank[i] == low)
    return out


def _choice_partial_order(rng: random.Random, n: int) -> dict[int, int]:
    order = list(range(n))
    rng.shuffle(order)
    below = [0] * n  # below[i]: elements strictly preferred to i
    for hi in range(n):
        for lo in range(hi):
            if rng.random() < 0.4:
                below[order[hi]] |= 1 << order[lo]
    for _ in range(n):  # transitive closure
        for i in range(n):
            for j in range(n):
                if below[i] >> j & 1:
                    below[i] |= below[j]
    return {x: sum(1 << i for i in range(n) if x >> i & 1 and not below[i] & x) for x in _masks(n)}


def _choice_arbitrary(rng: random.Random, n: int) -> dict[int, int]:
    out = {}
    for x in _masks(n):
        members = [1 << i for i in range(n) if x >> i & 1]
        f = _random_subset(rng, x, 0.5) or rng.choice(members)
        out[x] = f
    return out


def _ideals_monotone(rng: random.Random, n: int) -> dict[int, frozenset[int]]:
    if rng.random() < 0.5:
        # Coherent: one global down-set cut to each base set, so eMI holds.
        full = (1 << n) - 1
        glob = _down_closure([_random_subset(rng, full, 0.4) for _ in range(rng.randrange(1, 4))])
        return {x: frozenset(a for a in glob if not a & ~x) for x in _masks(n)}
    out = {}
    for x in _masks(n):
        gens = [_random_subset(rng, x, 0.35) for _ in range(rng.randrange(0, 3))]
        out[x] = _down_closure([g for g in gens if g != x])
    return out


def _ideals_arbitrary(rng: random.Random, n: int) -> dict[int, frozenset[int]]:
    out = {}
    for x in _masks(n):
        fam = {0}
        for a in _submasks(x)[1:]:
            if rng.random() < 0.3:
                fam.add(a)
        out[x] = frozenset(fam)
    return out


def _formula(rng: random.Random, depth: int) -> tuple[str, object]:
    """Random formula text and its tree (tuples), for independent evaluation."""
    if depth == 0 or rng.random() < 0.3:
        atom = rng.choice(ATOMS + ATOMS + ("T", "F"))
        return atom, atom
    op = rng.choice(("~", "&", "|", "->"))
    if op == "~":
        text, tree = _formula(rng, depth - 1)
        return f"~{text}", ("~", tree)
    lt, ltree = _formula(rng, depth - 1)
    rt, rtree = _formula(rng, depth - 1)
    return f"({lt} {op} {rt})", (op, ltree, rtree)


def _eval_formula(tree, atoms: dict[str, int], full: int) -> int:
    """Model-set mask of a generated formula tree."""
    if tree == "T":
        return full
    if tree == "F":
        return 0
    if isinstance(tree, str):
        return atoms[tree]
    if tree[0] == "~":
        return full & ~_eval_formula(tree[1], atoms, full)
    left = _eval_formula(tree[1], atoms, full)
    right = _eval_formula(tree[2], atoms, full)
    if tree[0] == "&":
        return left & right
    if tree[0] == "|":
        return left | right
    return (full & ~left) | right


def _make_doc(rng: random.Random, kind: str, n: int, name: str) -> Doc:
    elems = _letters(n)
    full = (1 << n) - 1
    doc: dict = {"universe": elems, "domain": "full"}
    choice: dict[int, int] = {}
    if kind == "choice":
        choice = rng.choice((_choice_ranked, _choice_partial_order, _choice_arbitrary))(rng, n)
        # Omitted entries default to the identity choice f(X) = X.
        doc["choice"] = {
            ",".join(_labels(elems, x)): _labels(elems, f) for x, f in choice.items() if f != x
        }
        ideals = {x: frozenset(_submasks(x & ~f)) for x, f in choice.items()}
    else:
        ideals = (_ideals_monotone if kind == "monotone" else _ideals_arbitrary)(rng, n)
        # Omitted entries default to the trivial ideal {∅}.
        doc["ideals"] = {
            ",".join(_labels(elems, x)): [
                _labels(elems, a) for a in sorted(fam, key=lambda m: (m.bit_count(), m))
            ]
            for x, fam in ideals.items()
            if fam != frozenset((0,))
        }
    atoms = {a: _random_subset(rng, full, 0.5) for a in ATOMS}
    doc["atoms"] = {a: _labels(elems, m) for a, m in atoms.items()}

    queries, answers = [], []
    for _ in range(QUERIES_PER_DOC):
        ftext, ftree = _formula(rng, 2)
        gtext, gtree = _formula(rng, 2)
        a = _eval_formula(ftree, atoms, full)
        b = _eval_formula(gtree, atoms, full)
        queries.append((ftext, gtext))
        answers.append(a == 0 or (a & ~b) in ideals[a])
    return Doc(
        name=name,
        kind=kind,
        size=n,
        text=json.dumps(doc),
        queries=queries,
        ideals=ideals,
        choice=choice,
        query_answers=answers,
    )


def batch(seed: int, index: int) -> list[Doc]:
    """Batch `index` of the stream for `seed`: the MIX counts, in seeded order."""
    rng = random.Random(f"sizesem-check/{seed}/{index}")
    plan = [(kind, n) for kind, n, count in MIX for _ in range(count)]
    rng.shuffle(plan)
    return [
        _make_doc(rng, kind, n, f"s{seed}b{index}d{i}-{kind}-u{n}")
        for i, (kind, n) in enumerate(plan)
    ]
