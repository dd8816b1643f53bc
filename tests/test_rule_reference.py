"""Rule checks against a per-instance reference scan and a witness oracle.

`reference_scan` walks every instance of every rule one at a time, in the
canonical order, and is the scan `rules` ran before it learnt to decide an
antecedent at once.  `check_rule` must report exactly what it reports: the
same count, the same first witness and the same notes.  `rule_witness_violates`
re-reads each failing witness against the formula table of the `rules`
docstring, sharing no code with either scan.
"""

import random
from itertools import product

import pytest

from sizesem.cli import ALL_RULES
from sizesem.report import scan_report
from sizesem.rules import RuleId, check_rule, parse_rule
from sizesem.search import SearchSpec, enumerate_systems
from sizesem.setcore import Universe, submasks
from sizesem.sizesys import MuFunction, SizeSystem, from_mu

RULES = [parse_rule(name) for name in ALL_RULES]


class _Relation(dict):
    """a ↦ [b : a |~ b] in canonical order (every b when a = ∅)."""

    def __init__(self, s: SizeSystem):
        super().__init__()
        self.s = s

    def __missing__(self, a: int) -> list[int]:
        fam = self.s.ideals[a] if a else (0,)
        out = self[a] = [b for b in self.s.universe.all_masks() if (a & ~b) in fam]
        return out


def reference_scan(s: SizeSystem, r: RuleId) -> tuple:
    """(instances_checked, witness), plus the notes for OR:2, CM:2 and CCL,
    one instance at a time."""
    count = 0
    ideals = s.ideals
    rel = _Relation(s)
    full = s.universe.full_mask
    masks = s.universe.all_masks()
    nonempty = tuple(m for m in masks if m)

    def nm(a: int, b: int) -> bool:
        return a == 0 or (a & ~b) in ideals[a]

    tag, n = r.tag, r.param

    if tag == "SC":
        for a in nonempty:
            for b in masks:
                if a & ~b:
                    continue
                count += 1
                if (a & ~b) not in ideals[a]:
                    return count, (("alpha", a), ("beta", b))

    elif tag == "REF":
        for a in masks:
            for g in masks:
                count += 1
                if not nm(a & g, g):
                    return count, (("alpha", a), ("gamma", g))

    elif tag == "RW":
        for a in nonempty:
            for b in rel[a]:
                for b2 in masks:
                    if b & ~b2:
                        continue
                    count += 1
                    if not nm(a, b2):
                        return count, (("alpha", a), ("beta", b), ("beta'", b2))

    elif tag == "wOR":
        for a in nonempty:
            for a2 in masks:
                for b in rel[a]:
                    if a2 & ~b:
                        continue
                    count += 1
                    if not nm(a | a2, b):
                        return count, (("alpha", a), ("alpha'", a2), ("beta", b))

    elif tag == "PR'":
        for a in nonempty:
            for a2 in nonempty:
                if a & ~a2:
                    continue
                for b in rel[a]:
                    if (a2 & ~a) & ~b:
                        continue
                    count += 1
                    if not nm(a2, b):
                        return count, (("alpha", a), ("alpha'", a2), ("beta", b))

    elif tag == "wCM":
        for a in nonempty:
            for a2 in nonempty:
                if a2 & ~a:
                    continue
                for b in rel[a]:
                    if (a & b) & ~a2:
                        continue
                    count += 1
                    if not nm(a2, b):
                        return count, (("alpha", a), ("alpha'", a2), ("beta", b))

    elif tag == "disjOR":
        for p in nonempty:
            for p2 in nonempty:
                if p & p2:
                    continue
                for q in rel[p]:
                    for q2 in rel[p2]:
                        count += 1
                        if not nm(p | p2, q | q2):
                            return count, (("phi", p), ("phi'", p2), ("psi", q), ("psi'", q2))

    elif tag == "CP":
        for p in nonempty:
            count += 1
            if p in ideals[p]:
                return count, (("phi", p),)

    elif tag == "AND":
        for a in nonempty:
            for combo in product(rel[a], repeat=n):
                count += 1
                meet = a
                for b in combo:
                    meet &= b
                if meet == 0:
                    return count, (("alpha", a), *((f"beta{i+1}", b) for i, b in enumerate(combo)))

    elif tag == "AND:omega":
        for a in nonempty:
            for b in rel[a]:
                for b2 in rel[a]:
                    count += 1
                    if not nm(a, b & b2):
                        return count, (("alpha", a), ("beta", b), ("beta'", b2))

    elif tag == "OR":
        notes = ("OR:2 and CM:2 name the same rule",) if n == 2 else ()
        for combo in product(nonempty, repeat=n - 1):
            for b in masks:
                if not all(nm(a, b) for a in combo):
                    continue
                count += 1
                union = 0
                for a in combo:
                    union |= a
                if nm(union, full & ~b):
                    alphas = ((f"alpha{i+1}", a) for i, a in enumerate(combo))
                    return count, (*alphas, ("beta", b)), notes
        return count, None, notes

    elif tag == "OR:omega":
        for a in nonempty:
            for a2 in nonempty:
                for b in rel[a]:
                    if not nm(a2, b):
                        continue
                    count += 1
                    if not nm(a | a2, b):
                        return count, (("alpha", a), ("alpha'", a2), ("beta", b))

    elif tag == "CM":
        notes = ("CM:2 and OR:2 name the same rule",) if n == 2 else ()
        for a in nonempty:
            for combo in product(rel[a], repeat=n - 1):
                count += 1
                t = a
                for b in combo[:-1]:
                    t &= b
                if nm(t, full & ~combo[-1]):
                    betas = ((f"beta{i+1}", b) for i, b in enumerate(combo))
                    return count, (("alpha", a), *betas), notes
        return count, None, notes

    elif tag == "CM:omega":
        for a in nonempty:
            for b in rel[a]:
                for b2 in rel[a]:
                    count += 1
                    if not nm(a & b, b2):
                        return count, (("alpha", a), ("beta", b), ("beta'", b2))

    elif tag == "RatM":
        for p in nonempty:
            for q in rel[p]:
                for q2 in masks:
                    if nm(p, full & ~q2):
                        continue
                    count += 1
                    if not nm(p & q2, q):
                        return count, (("phi", p), ("psi", q), ("psi'", q2))

    elif tag == "CUT":
        for a in nonempty:
            for b in rel[a]:
                for g in rel[a & b]:
                    count += 1
                    if not nm(a, g):
                        return count, (("alpha", a), ("beta", b), ("gamma", g))

    elif tag == "CUM":
        for p in nonempty:
            for q in rel[p]:
                for q2 in masks:
                    count += 1
                    if nm(p, q2) != nm(p & q, q2):
                        return count, (("phi", p), ("psi", q), ("psi'", q2))

    elif tag == "CCL":
        for a in nonempty:
            for b in rel[a]:
                for b2 in rel[a]:
                    count += 1
                    if not nm(a, b & b2):
                        witness = (("alpha", a), ("beta", b), ("beta'", b2))
                        return count, witness, ("consequences not closed under intersection",)
                for b2 in masks:
                    if b & ~b2:
                        continue
                    count += 1
                    if not nm(a, b2):
                        witness = (("alpha", a), ("beta", b), ("beta'", b2))
                        return count, witness, ("consequences not closed under superset",)

    elif tag == "M+derived":
        for g in nonempty:
            for b in masks:
                if nm(g, full & ~b):
                    continue
                for a in rel[g & b]:
                    count += 1
                    if nm(g, full & ~(a & b)):
                        return count, (("gamma", g), ("beta", b), ("alpha", a))

    return count, None


def rule_witness_violates(s: SizeSystem, r: RuleId, witness: dict) -> bool:
    """Whether the named instance violates r, read off the `rules` formula
    table: every premise holds and the conclusion fails.  Antecedents of bare
    consequence statements must be nonempty; compound ones may be ∅."""
    w = {name: sub.mask for name, sub in witness.items()}
    full = s.universe.full_mask

    def nm(a: int, b: int) -> bool:  # a |~ b, with ∅ |~ b for every b
        return a == 0 or (a & ~b) in s.ideals[a]

    def entails(a: int, b: int) -> bool:  # a ⊢ b
        return a & ~b == 0

    def neg(a: int) -> int:
        return full & ~a

    tag, n = r.tag, r.param
    if tag in ("SC", "RW", "wOR", "PR'", "wCM", "AND", "AND:omega", "CM", "CM:omega",
               "CUT", "CCL"):
        a = w["alpha"]
        if a == 0:
            return False
    if tag == "SC":
        return entails(a, w["beta"]) and not nm(a, w["beta"])
    if tag == "REF":
        return not nm(w["alpha"] & w["gamma"], w["gamma"])
    if tag == "RW":
        b, b2 = w["beta"], w["beta'"]
        return nm(a, b) and entails(b, b2) and not nm(a, b2)
    if tag == "wOR":
        a2, b = w["alpha'"], w["beta"]
        return nm(a, b) and entails(a2, b) and not nm(a | a2, b)
    if tag == "PR'":
        a2, b = w["alpha'"], w["beta"]
        return (nm(a, b) and a2 and entails(a, a2) and entails(a2 & neg(a), b)
                and not nm(a2, b))
    if tag == "wCM":
        a2, b = w["alpha'"], w["beta"]
        return (nm(a, b) and a2 and entails(a2, a) and entails(a & b, a2)
                and not nm(a2, b))
    if tag == "disjOR":
        p, p2, q, q2 = w["phi"], w["phi'"], w["psi"], w["psi'"]
        return (p and p2 and nm(p, q) and nm(p2, q2) and entails(p, neg(p2))
                and not nm(p | p2, q | q2))
    if tag == "CP":
        p = w["phi"]
        return p != 0 and nm(p, 0) and not entails(p, 0)
    if tag == "AND":
        betas = [w[f"beta{i+1}"] for i in range(n)]
        some_fails = 0  # ¬β₁ ∨ … ∨ ¬βₙ
        for b in betas:
            some_fails |= neg(b)
        return all(nm(a, b) for b in betas) and entails(a, some_fails)
    if tag == "AND:omega":
        b, b2 = w["beta"], w["beta'"]
        return nm(a, b) and nm(a, b2) and not nm(a, b & b2)
    if tag == "OR":
        alphas = [w[f"alpha{i+1}"] for i in range(n - 1)]
        b = w["beta"]
        union = 0
        for x in alphas:
            union |= x
        return (all(alphas) and all(nm(x, b) for x in alphas)
                and nm(union, neg(b)))
    if tag == "OR:omega":
        a, a2, b = w["alpha"], w["alpha'"], w["beta"]
        return a and a2 and nm(a, b) and nm(a2, b) and not nm(a | a2, b)
    if tag == "CM":
        betas = [w[f"beta{i+1}"] for i in range(n - 1)]
        t = a
        for b in betas[:-1]:
            t &= b
        return all(nm(a, b) for b in betas) and nm(t, neg(betas[-1]))
    if tag == "CM:omega":
        b, b2 = w["beta"], w["beta'"]
        return nm(a, b) and nm(a, b2) and not nm(a & b, b2)
    if tag == "RatM":
        p, q, q2 = w["phi"], w["psi"], w["psi'"]
        return p and nm(p, q) and not nm(p, neg(q2)) and not nm(p & q2, q)
    if tag == "CUT":
        b, g = w["beta"], w["gamma"]
        return nm(a, b) and nm(a & b, g) and not nm(a, g)
    if tag == "CUM":
        p, q, q2 = w["phi"], w["psi"], w["psi'"]
        return p and nm(p, q) and nm(p, q2) != nm(p & q, q2)
    if tag == "CCL":
        b, b2 = w["beta"], w["beta'"]
        meet_escapes = nm(a, b2) and not nm(a, b & b2)
        superset_escapes = entails(b, b2) and not nm(a, b2)
        return nm(a, b) and (meet_escapes or superset_escapes)
    if tag == "M+derived":
        g, b, a = w["gamma"], w["beta"], w["alpha"]
        return g and not nm(g, neg(b)) and nm(g & b, a) and nm(g, neg(a & b))
    raise ValueError(f"no formula for {r.name}")


# --- the corpus ---------------------------------------------------------------


def _letters(n: int) -> Universe:
    return Universe([chr(ord("a") + i) for i in range(n)])


def every_small_system():
    """Every full system at |U| ≤ 2: every family of subsets of each base set,
    so empty families and ideals without ∅ too (4 + 256 systems)."""
    for n in (1, 2):
        u = _letters(n)
        domain = tuple(m for m in u.all_masks() if m)
        per_set = []
        for x in domain:
            subs = submasks(x)
            per_set.append([
                frozenset(m for i, m in enumerate(subs) if bits >> i & 1)
                for bits in range(1 << len(subs))
            ])
        for i, fams in enumerate(product(*per_set)):
            yield SizeSystem(u, domain, dict(zip(domain, fams)), label=f"all{n}#{i}")


def canonical_u3():
    return enumerate_systems(SearchSpec(3, mode="count", canonical_only=True))


def _random_family(rng: random.Random, x: int, p: float) -> frozenset:
    return frozenset(m for m in submasks(x) if rng.random() < p)


def seeded_systems():
    """Monotone, principal and arbitrary systems at |U| = 4 and 5, plus a few
    extreme ones: every ideal empty, every ideal all of 𝒫(X) but ∅."""
    rng = random.Random(2009)
    for n, per_kind in ((4, 24), (5, 8)):
        u = _letters(n)
        domain = tuple(m for m in u.all_masks() if m)
        for i in range(per_kind):
            top = {m for m in submasks(u.full_mask) if rng.random() < 0.3}
            down = {d for m in top for d in submasks(m)} | {0}
            ideals = {x: frozenset(d & x for d in down) for x in domain}
            yield SizeSystem(u, domain, ideals, label=f"mono{n}#{i}")
            choice = {x: (rng.randrange(1 << n) & x) or x for x in domain}
            yield from_mu(MuFunction(u, domain, choice, label=f"mu{n}#{i}"))
            ideals = {x: _random_family(rng, x, rng.choice((0.2, 0.5, 0.8))) for x in domain}
            yield SizeSystem(u, domain, ideals, label=f"arb{n}#{i}")
        yield SizeSystem(u, domain, {x: frozenset() for x in domain}, label=f"empty{n}")
        nonempty = {x: frozenset(submasks(x)[1:]) for x in domain}
        yield SizeSystem(u, domain, nonempty, label=f"no-empty{n}")


CORPUS = {"small": every_small_system, "canonical-u3": canonical_u3, "seeded": seeded_systems}

WITNESS_NAMES = {
    "SC": ("alpha", "beta"), "REF": ("alpha", "gamma"), "RW": ("alpha", "beta", "beta'"),
    "wOR": ("alpha", "alpha'", "beta"), "PR'": ("alpha", "alpha'", "beta"),
    "wCM": ("alpha", "alpha'", "beta"), "disjOR": ("phi", "phi'", "psi", "psi'"),
    "CP": ("phi",), "AND:omega": ("alpha", "beta", "beta'"),
    "OR:omega": ("alpha", "alpha'", "beta"), "CM:omega": ("alpha", "beta", "beta'"),
    "RatM": ("phi", "psi", "psi'"), "CUT": ("alpha", "beta", "gamma"),
    "CUM": ("phi", "psi", "psi'"), "CCL": ("alpha", "beta", "beta'"),
    "M+derived": ("gamma", "beta", "alpha"),
}


def witness_names(r: RuleId) -> tuple[str, ...]:
    if r.tag == "AND":
        return ("alpha", *(f"beta{i+1}" for i in range(r.param)))
    if r.tag == "OR":
        return (*(f"alpha{i+1}" for i in range(r.param - 1)), "beta")
    if r.tag == "CM":
        return ("alpha", *(f"beta{i+1}" for i in range(r.param - 1)))
    return WITNESS_NAMES[r.name]


@pytest.mark.parametrize("part", sorted(CORPUS))
def test_rules_match_the_reference_scan(part):
    # Failing reports are where the walks and the closed-form first
    # violations run, so the small and seeded parts must make every rule
    # fail, and CCL fail both ways.
    failed, ccl_notes = set(), set()
    for s in CORPUS[part]():
        for r in RULES:
            got = check_rule(s, r)
            want = scan_report(s.label, r.name, s.universe, *reference_scan(s, r))
            assert got == want, (s.label, r.name)
            if not got.holds:
                failed.add(r)
                if r.tag == "CCL":
                    ccl_notes.update(got.notes)
                assert rule_witness_violates(s, r, got.witness), (s.label, r.name)
    assert failed
    if part != "canonical-u3":
        assert failed == set(RULES)
        assert ccl_notes == {
            "consequences not closed under intersection",
            "consequences not closed under superset",
        }


def test_the_oracle_decides_every_verdict_at_two_elements():
    # At |U| ≤ 2 every instantiation can be tried: a rule holds iff the oracle
    # finds no violating one, and a failing report names the rule's variables.
    for s in every_small_system():
        u = s.universe
        for r in RULES:
            names = witness_names(r)
            violated = any(
                rule_witness_violates(s, r, {k: u.subset_from_mask(m) for k, m in zip(names, ms)})
                for ms in product(u.all_masks(), repeat=len(names))
            )
            rep = check_rule(s, r)
            assert rep.holds != violated, (s.label, r.name)
            assert rep.holds or tuple(rep.witness) == names
