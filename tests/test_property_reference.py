"""The size properties against the scans they were once written as.

eMI, eMF, M+omega:1–4 and M++:1–3 each had a hand-written scan, and so had
the local properties Opt, iM, I-omega and n*s:k.  They are now rows of scan
factories in `properties`.  The union properties and M+n walked every
instance; they are now decided per pair (X, Y) and per first set X1.
`reference_scan` keeps the old loops as they were, and `check_property`
must report exactly what they report: the same count and the same first
witness, or a `DomainNotClosed` with the same message.  Every failing witness must also be a violation by
`witness_violates`, which re-reads the formula without either scan.
"""

import random
from itertools import islice

import pytest

from sizesem.errors import DomainNotClosed
from sizesem.properties import check_property, parse_property, witness_violates
from sizesem.report import scan_report
from sizesem.search import SearchSpec, enumerate_systems
from sizesem.setcore import canon_rank, submasks
from sizesem.sizesys import MuFunction, SizeSystem, _label_key, from_mu
from test_rule_reference import _letters, _random_family, every_small_system

PROPS = [
    parse_property(name)
    for name in ("eMI", "eMF", "M+omega:1", "M+omega:2", "M+omega:3", "M+omega:4",
                 "M++:1", "M++:2", "M++:3",
                 "Opt", "iM", "I-omega", "1*s", "n*s:2", "n*s:3", "n*s:4",
                 "I-union-disj", "F-union-disj", "M+n:3", "M+n:5")
]


# --- the old scans ------------------------------------------------------------


def _rank_key(s: SizeSystem):
    return canon_rank(s.universe.size).__getitem__


def _filter_list(x: int, fam: frozenset[int], key) -> list[int]:
    return sorted([x & ~a for a in fam], key=key)


def _check_emi(s: SizeSystem) -> tuple:
    count = 0
    dom = s.domain_masks
    key = _rank_key(s)
    for x in dom:
        fam_x = sorted(s.ideals[x], key=key)
        for y in dom:
            if x & ~y or x == y:
                continue
            fam_y = s.ideals[y]
            for a in fam_x:
                count += 1
                if a not in fam_y:
                    return count, (("X", x), ("Y", y), ("A", a))
    return count, None


def _check_emf(s: SizeSystem) -> tuple:
    count = 0
    dom = s.domain_masks
    key = _rank_key(s)
    filters = {y: _filter_list(y, s.ideals[y], key) for y in dom}
    for x in dom:
        fam_x = s.ideals[x]
        for y in dom:
            if x & ~y or x == y:
                continue
            for a in filters[y]:
                if a & ~x:
                    continue
                count += 1
                if (x & ~a) not in fam_x:
                    return count, (("X", x), ("Y", y), ("A", a))
    return count, None


def _check_m_plus_omega(s: SizeSystem, variant: int) -> tuple:
    count = 0
    dom = s.domain_masks
    ideals = s.ideals
    if variant == 4:
        key = _rank_key(s)
        for x in dom:
            fam = sorted(ideals[x], key=key)
            for a in fam:
                for b in fam:
                    if b == x:
                        continue  # empty carrier X−B
                    z = x & ~b
                    if z not in ideals:
                        raise DomainNotClosed(_label_key(s.universe, z), "M+omega:4")
                    count += 1
                    if (a & ~b) not in ideals[z]:
                        return count, (("X", x), ("A", a), ("B", b))
        return count, None
    for x in dom:
        fam_x = ideals[x]
        subs = submasks(x)
        for y in dom:
            if x & ~y:
                continue
            fam_y = ideals[y]
            if variant == 1:
                # A ∈ F(X), X ∈ M+(Y) ⇒ A ∈ M+(Y)
                if x in fam_y:
                    continue
                for a in subs:
                    if (x & ~a) not in fam_x:
                        continue
                    count += 1
                    if a in fam_y:
                        return count, (("X", x), ("Y", y), ("A", a))
            elif variant == 2:
                # A ∈ M+(X), X ∈ F(Y) ⇒ A ∈ M+(Y)
                if (y & ~x) not in fam_y:
                    continue
                for a in subs:
                    if a in fam_x:
                        continue
                    count += 1
                    if a in fam_y:
                        return count, (("X", x), ("Y", y), ("A", a))
            else:
                # A ∈ F(X), X ∈ F(Y) ⇒ A ∈ F(Y)
                if (y & ~x) not in fam_y:
                    continue
                for a in subs:
                    if (x & ~a) not in fam_x:
                        continue
                    count += 1
                    if (y & ~a) not in fam_y:
                        return count, (("X", x), ("Y", y), ("A", a))
    return count, None


def _check_m_plus_plus(s: SizeSystem, variant: int) -> tuple:
    count = 0
    dom = s.domain_masks
    ideals = s.ideals
    if variant == 3:
        for x in dom:
            fam_x = ideals[x]
            subs = submasks(x)
            for y in dom:
                if x & ~y:
                    continue
                fam_y = ideals[y]
                if x in fam_y:
                    continue  # X not in M+(Y)
                for a in subs:
                    if a in fam_x:
                        continue
                    count += 1
                    if a in fam_y:
                        return count, (("X", x), ("Y", y), ("A", a))
        return count, None
    key = _rank_key(s)
    for x in dom:
        fam_x = ideals[x]
        if variant == 1:
            bases = sorted(fam_x, key=key)
        else:
            bases = _filter_list(x, fam_x, key)
        if not bases:
            continue
        # The B side does not depend on A: B not big in X (premise) and
        # B ≠ X (empty carrier), with the carrier's ideal, None if missing.
        carriers = [
            (b, x & ~b, ideals.get(x & ~b))
            for b in submasks(x)
            if (x & ~b) not in fam_x and b != x
        ]
        for a in bases:
            for b, z, fam_z in carriers:
                if fam_z is None:
                    raise DomainNotClosed(_label_key(s.universe, z), f"M++:{variant}")
                count += 1
                if variant == 1:
                    bad = (a & ~b) not in fam_z
                else:
                    bad = ((x & ~a) & ~b) not in fam_z
                if bad:
                    return count, (("X", x), ("A", a), ("B", b))
    return count, None


def _check_opt(s: SizeSystem) -> tuple:
    count = 0
    for x in s.domain_masks:
        count += 1
        if 0 not in s.ideals[x]:
            return count, (("X", x),)
    return count, None


def _check_im(s: SizeSystem) -> tuple:
    count = 0
    for x in s.domain_masks:
        fam = s.ideals[x]
        subs = submasks(x)
        for a in subs:
            if a in fam:
                continue
            for b in subs:
                if a & ~b:
                    continue
                count += 1
                if b in fam:
                    return count, (("X", x), ("A", a), ("B", b))
    return count, None


def _cover_reach(family: list[int], limit: int) -> list[set[int]]:
    """reach[k] = unions achievable from at most k family members."""
    reach = [{0}]
    cur = {0}
    for _ in range(limit):
        nxt = set(cur)
        for r in cur:
            for a in family:
                nxt.add(r | a)
        reach.append(nxt)
        cur = nxt
    return reach


def _first_cover(x: int, family: list[int], n: int, reach: list[set[int]]) -> list[int]:
    """Lexicographically first n-tuple from `family` whose union is x."""
    picks: list[int] = []
    cur = 0
    for i in range(n):
        left = n - i - 1
        for a in family:
            need = x & ~(cur | a)
            if any(u & need == need for u in reach[left]):
                picks.append(a)
                cur |= a
                break
        else:  # pragma: no cover - guarded by the reach test before calling
            raise AssertionError("cover reconstruction failed")
    return picks


def _check_n_star_s(s: SizeSystem, n: int) -> tuple:
    count = 0
    key = _rank_key(s)
    for x in s.domain_masks:
        fam = sorted(s.ideals[x], key=key)
        if not fam:
            continue
        reach = _cover_reach(fam, n)
        count += len(fam) ** n
        if x in reach[n]:
            picks = _first_cover(x, fam, n, reach)
            return count, (("X", x), *((f"A{i+1}", a) for i, a in enumerate(picks)))
    return count, None


def _check_iomega(s: SizeSystem) -> tuple:
    count = 0
    key = _rank_key(s)
    for x in s.domain_masks:
        fam = s.ideals[x]
        fam_sorted = sorted(fam, key=key)
        for a in fam_sorted:
            for b in fam_sorted:
                count += 1
                if (a | b) not in fam:
                    return count, (("X", x), ("A", a), ("B", b))
    return count, None


def _check_union_disj(s: SizeSystem, on_filters: bool) -> tuple:
    count = 0
    dom = s.domain_masks
    key = _rank_key(s)
    if on_filters:
        members = {x: sorted([x & ~a for a in fam], key=key) for x, fam in s.ideals.items()}
    else:
        members = {x: sorted(fam, key=key) for x, fam in s.ideals.items()}
    for x in dom:
        if not s.ideals[x]:
            continue
        for y in dom:
            if x & y or not s.ideals[y]:
                continue
            u = x | y
            if u not in s.ideals:
                raise DomainNotClosed(_label_key(s.universe, u), "disjoint union rule")
            fam_u = s.ideals[u]
            for a in members[x]:
                for b in members[y]:
                    count += 1
                    ab = u & ~(a | b) if on_filters else a | b
                    if ab not in fam_u:
                        return count, (("X", x), ("Y", y), ("A", a), ("B", b))
    return count, None


def _check_m_plus_n(s: SizeSystem, n: int) -> tuple:
    count = 0
    dom = s.domain_masks
    ideals = s.ideals
    links: dict[int, list[int]] = {}  # X ↦ the Y that may follow X in a chain
    chain: list[int] = []
    todo = [iter(dom)]  # per chain length, the sets left to try next
    while todo:
        x = next(todo[-1], None)
        if x is None:  # none left: back up one link
            todo.pop()
            del chain[-1:]
            continue
        chain.append(x)
        if len(chain) < n:
            if x not in links:
                links[x] = [y for y in dom if not x & ~y and (y & ~x) in ideals[y]]
            todo.append(iter(links[x]))
            continue
        count += 1
        if chain[0] in ideals[x]:
            return count, tuple((f"X{i+1}", x) for i, x in enumerate(chain))
        chain.pop()
    return count, None


LOCAL_SCANS = {"Opt": _check_opt, "iM": _check_im, "I-omega": _check_iomega}


def reference_scan(s: SizeSystem, p) -> tuple:
    """(instances_checked, witness) of the old scan of p."""
    if p.tag in LOCAL_SCANS:
        return LOCAL_SCANS[p.tag](s)
    if p.tag == "n*s":
        return _check_n_star_s(s, p.param)
    if p.tag == "eMI":
        return _check_emi(s)
    if p.tag == "eMF":
        return _check_emf(s)
    if p.tag in ("I-union-disj", "F-union-disj"):
        return _check_union_disj(s, p.tag == "F-union-disj")
    if p.tag == "M+n":
        return _check_m_plus_n(s, p.param)
    if p.tag == "M+omega":
        return _check_m_plus_omega(s, p.param)
    return _check_m_plus_plus(s, p.param)


def reference_report(s: SizeSystem, p):
    """The report `check_property` built on the old scan of p."""
    notes = ()
    if p.tag in ("n*s", "M+n") and p.param > s.universe.size + 1:
        notes = (f"parameter {p.param} exceeds |U|+1; condition near-vacuous",)
    return scan_report(s.label, p.name, s.universe, *reference_scan(s, p), notes)


# --- the corpus ---------------------------------------------------------------


def canonical_u3():
    return enumerate_systems(SearchSpec(3, mode="count", canonical_only=True))


def sampled_u3_leaders():
    """Every 7th lex-leader of the |U| = 3 systems whose ideals need not be
    down-closed (12 782 systems)."""
    spec = SearchSpec(3, mode="count", monotone_only=False, canonical_only=True)
    return islice(enumerate_systems(spec), 0, None, 7)


def seeded_systems():
    """Down-closed, principal and arbitrary systems at |U| = 4 and 5, and
    systems on a partial domain, where a carrier X−B may be missing."""
    rng = random.Random(19)
    for n, per_kind in ((4, 24), (5, 16)):
        u = _letters(n)
        full = tuple(m for m in u.all_masks() if m)
        for i in range(per_kind):
            top = {m for m in submasks(u.full_mask) if rng.random() < 0.3}
            down = {d for m in top for d in submasks(m)} | {0}
            ideals = {x: frozenset(d & x for d in down) for x in full}
            yield SizeSystem(u, full, ideals, label=f"mono{n}#{i}")
            choice = {x: (rng.randrange(1 << n) & x) or x for x in full}
            yield from_mu(MuFunction(u, full, choice, label=f"mu{n}#{i}"))
            arb = {x: _random_family(rng, x, rng.choice((0.2, 0.5, 0.8))) for x in full}
            yield SizeSystem(u, full, arb, label=f"arb{n}#{i}")
            domain = tuple(x for x in full if x == u.full_mask or rng.random() < 0.7)
            pick = ideals if i % 2 else arb
            yield SizeSystem(u, domain, {x: pick[x] for x in domain}, label=f"part{n}#{i}")


CORPUS = {
    "small": every_small_system,
    "canonical-u3": canonical_u3,
    "sampled-u3": sampled_u3_leaders,
    "seeded": seeded_systems,
}


def _outcome(scan):
    try:
        return scan()
    except DomainNotClosed as exc:
        return str(exc)


@pytest.mark.parametrize("part", sorted(CORPUS))
def test_properties_match_the_reference_scan(part):
    failures = errors = 0
    for s in CORPUS[part]():
        for p in PROPS:
            got = _outcome(lambda: check_property(s, p))
            want = _outcome(lambda: reference_report(s, p))
            assert got == want, (s.label, p.name)
            if isinstance(got, str):
                errors += 1
            elif not got.holds:
                failures += 1
                assert witness_violates(s, p, got.witness), (s.label, p.name)
    assert failures > 0
    assert errors > 0 or part != "seeded"
