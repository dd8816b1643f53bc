"""Tallies of the exhaustive system scans, against a brute force over the raw stream.

Every scan here must report what a scan of the raw `enumerate_systems` stream
reports: the same verdict, the same first failing system and the same count
of systems checked (and skipped), also when the failure cuts the stream in
the middle of a relabeling class.  The brute force below walks the raw
stream itself and shares no code with the scans beyond the checks.
"""

import itertools
import operator
from functools import lru_cache
from math import prod

import pytest

from sizesem import properties, rules
from sizesem.cli import ALL_PROPS, ALL_RULES
from sizesem.errors import CapacityExceeded, NotPrincipal
from sizesem.preferential import (
    ROW_LEFT,
    ROW_MU,
    check_mu_rule,
    verify_correspondence_forward,
)
from sizesem.properties import (
    EMF,
    EMI,
    IM,
    IOMEGA,
    OPT,
    PropertyId,
    check_property,
    below,
    m_plus_n,
    m_plus_plus,
    n_star_s,
    parse_property,
)
from sizesem.rules import CM_OMEGA, DISJ_OR, OR_OMEGA, RATM, WOR, and_n, cm_n, or_n, parse_rule
from sizesem.search import (
    SearchSpec,
    _SystemSpace,
    _parting,
    _system_space,
    _systems_upto,
    count_systems,
    enumerate_systems,
    evaluate_check,
    find_counterexample,
    verdict,
    verify_agreement,
    verify_implication,
    verify_implication_upto,
)
from sizesem.setcore import Columns, submasks
from sizesem.sizesys import principal_mu

from leader_scan import images_upto

PROPS = [parse_property(n) for n in ALL_PROPS]
CHECKS = PROPS + [parse_rule(n) for n in ALL_RULES]
LOCAL_PROPS = [OPT, IM, IOMEGA] + [n_star_s(k) for k in (1, 2, 3, 4)]
TWO_LEVEL_PROPS = [
    parse_property(name)
    for name in ("eMI", "eMF", "I-union-disj", "F-union-disj", "M+omega:1", "M+omega:2",
                 "M+omega:3", "M+omega:4", "M++:1", "M++:2", "M++:3")
]


class Verdicts(dict):
    """check -> holds on one system, each evaluated on first lookup."""

    def __init__(self, system):
        super().__init__()
        self.system = system

    def __missing__(self, check):
        holds = self[check] = evaluate_check(self.system, check).holds
        return holds


def raw_verdicts(n: int, monotone: bool):
    """(system, its Verdicts) for every system of the raw stream, in order."""
    spec = SearchSpec(n, mode="count", monotone_only=monotone)
    return ((s, Verdicts(s)) for s in enumerate_systems(spec))


@lru_cache(maxsize=None)
def small_verdicts(monotone: bool) -> list:
    """raw_verdicts at |U| = 2, kept for the sweeps over every check."""
    return list(raw_verdicts(2, monotone))


def raw_implication(rows, required, target):
    """(systems satisfying required, up to and including the first that
    violates target; that system or None)."""
    counted = 0
    for s, v in rows:
        if all(v[c] for c in required):
            counted += 1
            if not v[target]:
                return counted, s
    return counted, None


def implication_mismatches(n, monotone, pairs):
    mismatches, failures = [], 0
    for required, target in pairs:
        spec = SearchSpec(n, required, target, "verify-implication", monotone_only=monotone)
        rep = verify_implication(spec)
        rows = small_verdicts(monotone) if n == 2 else raw_verdicts(n, monotone)
        counted, failing = raw_implication(rows, required, target)
        if failing is None:
            expected = (True, counted, (), None)
        else:
            failures += 1
            witness = evaluate_check(failing, target).witness
            expected = (False, counted, (f"violating system {failing.label}",), witness)
        got = (rep.holds, rep.instances_checked, rep.notes, rep.witness)
        if got != expected:
            mismatches.append((spec.to_dict(), got, expected))
    return mismatches, failures


@pytest.mark.parametrize("monotone", [True, False], ids=["monotone", "non-monotone"])
def test_implication_tallies_match_the_raw_stream(monotone):
    # No required check, or each check alone, against every check.
    pairs = [
        (required, target)
        for required in [()] + [(c,) for c in CHECKS]
        for target in CHECKS
        if target not in required
    ]
    mismatches, failures = implication_mismatches(2, monotone, pairs)
    assert mismatches == []
    assert 0 < failures < len(pairs)


def test_implication_tallies_match_the_raw_stream_at_size_3():
    # Failures deep in the |U| = 3 stream, past many split classes.
    pairs = [
        ((EMI,), parse_property("I-union-disj")),  # u3#3083, 1 046 checked
        ((EMF,), parse_property("1*s")),  # u3#2375, 622 checked
        ((CM_OMEGA,), parse_property("n*s:3")),  # u3#2375, 127 checked
        ((parse_rule("wOR"),), parse_rule("disjOR")),  # u3#3083, 1 046 checked
        # A local required check prunes the leader walk.
        ((IOMEGA, EMF), parse_property("n*s:2")),  # u3#2375, 118 checked
        ((parse_property("n*s:3"), m_plus_plus(1)), parse_rule("CUM")),  # u3#590, 19 checked
    ]
    mismatches, failures = implication_mismatches(3, True, pairs)
    assert mismatches == []
    assert failures == len(pairs)


def test_count_tallies_match_the_raw_stream():
    mismatches = []
    for monotone in (True, False):
        rows = small_verdicts(monotone)
        requireds = [()] + [(p,) for p in PROPS] + [(EMI, IOMEGA), (OPT, EMF)]
        for required in requireds:
            spec = SearchSpec(2, required, mode="count", monotone_only=monotone)
            expected = sum(all(v[c] for c in required) for _, v in rows)
            got = count_systems(spec).instances_checked
            if got != expected:
                mismatches.append((spec.to_dict(), got, expected))
    assert mismatches == []


def test_agreement_tallies_match_the_raw_stream():
    rows = small_verdicts(True)
    mismatches, failures = [], 0
    for i, a in enumerate(CHECKS):
        for b in CHECKS[i + 1 :]:
            rep = verify_agreement([a, b], 2)
            counted, failing = 0, None
            for s, v in rows:
                counted += 1
                if v[a] != v[b]:
                    failing = s
                    break
            expected = (failing is None, counted, None if failing is None else failing.to_dict())
            failures += failing is not None
            got = (rep.holds, rep.instances_checked, rep.witness_system)
            if got != expected:
                mismatches.append((a.name, b.name, got, expected))
    assert mismatches == []
    assert failures > 0


def raw_forward(left, mu_rule, max_universe):
    """(systems checked, non-principal systems skipped, first failing system)."""
    checked = skipped = 0
    for n in range(1, max_universe + 1):
        for s in enumerate_systems(SearchSpec(n, mode="count")):
            if not all(check_property(s, p).holds for p in left):
                continue
            try:
                mu = principal_mu(s)
            except NotPrincipal:
                skipped += 1
                continue
            checked += 1
            if mu_rule is not None and not check_mu_rule(mu, mu_rule).holds:
                return checked, skipped, s
    return checked, skipped, None


@pytest.mark.parametrize(
    "row,left",
    [(row, ()) for row in (1, 2, 3, 4, 5, 6, 8, 9, 10)]
    + [(8, (m_plus_plus(1),)), (9, (EMF,)), (1, (OPT,))],
    ids=lambda v: str(v) if isinstance(v, int) else "+".join(p.name for p in v) or "none",
)
def test_forward_row_failure_tallies_match_the_raw_stream(monkeypatch, row, left):
    monkeypatch.setitem(ROW_LEFT, row, left)
    checked, skipped, failing = raw_forward(left, ROW_MU[row], 3)
    assert failing is not None
    rep = verify_correspondence_forward(row, 3)
    got = (rep.holds, rep.systems_checked, rep.skipped_non_principal, rep.witness["system"])
    assert got == (False, checked, skipped, failing.to_dict())
    assert rep.witness["violation"]["subject"] == failing.label


def refuse_leaders(monkeypatch):
    """Make `_SystemSpace.leaders` raise: a raw tally is the failing system's
    position in the walk without relabelings, read off its cells."""

    def refuse(space, checks):
        raise AssertionError("a search expanded the leader walk")

    monkeypatch.setattr(_SystemSpace, "leaders", refuse)


def test_failing_searches_tally_without_expanding_the_leader_walk(monkeypatch):
    refuse_leaders(monkeypatch)
    required, target = (EMI,), parse_property("I-union-disj")
    _, failing = raw_implication(raw_verdicts(3, True), required, target)
    system, rep = find_counterexample(SearchSpec(3, required, target))
    assert (system.label, system.to_dict(), rep.holds) == (failing.label, failing.to_dict(), False)

    required, target = (EMF,), parse_property("1*s")
    stream = itertools.chain.from_iterable(raw_verdicts(n, True) for n in (1, 2, 3))
    counted, failing = raw_implication(stream, required, target)
    rep = verify_implication_upto(required, target, 3)
    got = (rep.holds, rep.instances_checked, rep.notes)
    assert got == (False, counted, (f"violating system {failing.label}",))

    row, left = 9, (EMF,)
    monkeypatch.setitem(ROW_LEFT, row, left)
    checked, skipped, failing = raw_forward(left, ROW_MU[row], 3)
    rep = verify_correspondence_forward(row, 3)
    got = (rep.holds, rep.systems_checked, rep.skipped_non_principal, rep.witness["system"])
    assert got == (False, checked, skipped, failing.to_dict())


def leader_tally(space, checks, idx):
    """The raw tally up to the leader idx as it was counted leader by leader:
    each leader of the walk pruned by checks, up to idx, adds its distinct
    relabelings ranked at most idx (`leader_scan.images_upto`)."""
    leaders = itertools.takewhile(lambda lead: lead[0] <= idx, space.leaders(checks))
    return sum(images_upto(space, lead, stab, idx) for lead, stab in leaders)


@pytest.mark.parametrize("n,monotone", [(2, True), (3, True), (2, False), (3, False)])
def test_raw_tallies_match_the_leader_by_leader_count(n, monotone):
    # Every check as a target, with no required check, one and two.
    space = _system_space(n, monotone, False)
    mismatches, failures = [], 0
    for k, target in enumerate(CHECKS):
        for required in ((), (CHECKS[k - 1],), (CHECKS[k - 2], CHECKS[k - 7])):
            idx, _, _ = _parting(space, [required, required + (target,)], True)
            if idx is None:
                continue
            failures += 1
            got, want = _systems_upto(space, required, idx), leader_tally(space, required, idx)
            if got != want:
                mismatches.append(([c.name for c in required], target.name, got, want))
    assert mismatches == []
    assert failures > len(CHECKS)


@pytest.mark.parametrize(
    "required,target,checked",
    [
        ((OPT, IM, EMI, IOMEGA), EMF, 6),
        ((OPT, IM, EMF, IOMEGA), EMI, 6),
        ((parse_property("M+omega:2"),), parse_property("M+omega:1"), 167),
        ((EMI,), OR_OMEGA, 1_989),
        ((n_star_s(3),), or_n(3), 107),
    ],
    ids=["Opt+iM+eMI+I-omega", "Opt+iM+eMF+I-omega", "M+omega:2", "eMI", "n*s:3"],
)
def test_raw_tallies_at_size_4_match_the_leader_by_leader_count(monkeypatch, required, target, checked):
    # Raw enumeration cannot reach |U| = 4: the count over the leaders is the reference.
    space = _system_space(4, True, False)
    idx, _, _ = _parting(space, [required, required + (target,)], True)
    assert leader_tally(space, required, idx) == checked
    refuse_leaders(monkeypatch)
    assert _systems_upto(space, required, idx) == checked
    rep = verify_implication(SearchSpec(4, required, target, "verify-implication"))
    assert (rep.holds, rep.instances_checked) == (False, checked)


def local_split_mismatches(systems):
    """(system, property) where a local property's verdict is not the
    conjunction of its verdicts on the one-base-set systems."""
    mismatches = []
    for s in systems:
        for p in LOCAL_PROPS:
            per_family = all(below(p).alone(x, s.ideals[x]) for x in s.domain_masks)
            if check_property(s, p).holds != per_family:
                mismatches.append((s.label, p.name))
    return mismatches


@lru_cache(maxsize=None)
def split_corpus() -> list:
    """Every system at |U| ≤ 2, monotone or not, and the 3 450 canonical
    monotone systems at |U| = 3."""
    systems = [
        s
        for n in (1, 2)
        for monotone in (True, False)
        for s in enumerate_systems(SearchSpec(n, mode="count", monotone_only=monotone))
    ]
    systems += enumerate_systems(SearchSpec(3, mode="count", canonical_only=True))
    assert len(systems) == 2 + 2 + 20 + 32 + 3_450
    return systems


def test_local_properties_split_by_base_set():
    # The local properties are those whose test below Y reads I(Y) alone.
    alone = {p.tag for p in PROPS if isinstance(below(p), Columns) and below(p).cross is None}
    assert {p.tag for p in LOCAL_PROPS} == alone
    assert local_split_mismatches(split_corpus()) == []


# Past the instance ceiling at |U| = 3, the least parameter with the same
# verdict there: a union of more than |U| sets is a union of |U| of them.
SATURATED = {or_n(10): or_n(4), cm_n(12): cm_n(5), and_n(12): and_n(3)}
HEREDITARY = CHECKS + [m_plus_n(4), m_plus_n(5), or_n(4), cm_n(4), *SATURATED]


def test_every_check_splits_by_base_set():
    # Every instance of a check has a largest set Y and reads I(Y) and the
    # ideals of subsets of Y alone, so the check holds iff it holds below
    # every Y.
    mismatches, failures = [], 0
    for c in HEREDITARY:
        module = properties if isinstance(c, PropertyId) else rules
        for s in split_corpus():
            try:
                holds = verdict(s, c)
            except CapacityExceeded:
                holds = verdict(s, SATURATED[c])
            failures += not holds
            if holds != all(module.below(c)(y, s.ideals) for y in s.domain_masks):
                mismatches.append((s.label, c.name))
    assert mismatches == []
    assert failures > 0


def m_plus_n_below_reference(n, y, ideals) -> bool:
    """M+n:n below Y, stepping back all n − 1 links from Y."""
    reached = {y}
    for _ in range(n - 1):
        reached = {x for z in reached for x in submasks(z) if x in ideals and z & ~x in ideals[z]}
    return ideals[y].isdisjoint(reached)


def test_m_plus_n_below_stops_at_a_fixpoint_with_the_full_walks_verdict():
    mismatches, failures = [], 0
    for n in range(3, 13):
        for s in split_corpus():
            for y in s.domain_masks:
                want = m_plus_n_below_reference(n, y, s.ideals)
                failures += not want
                if properties.below(m_plus_n(n))(y, s.ideals) != want:
                    mismatches.append((n, s.label, y))
    assert mismatches == []
    assert failures > 0


@pytest.mark.parametrize(
    "props",
    [(p,) for p in TWO_LEVEL_PROPS]
    + [(EMI, IOMEGA), (IOMEGA, EMF), (OPT, IM)]
    + [(c,) for c in (CM_OMEGA, RATM, OR_OMEGA, WOR, DISJ_OR, or_n(3), m_plus_n(3))]
    + [(IOMEGA, EMI, cm_n(3))],
    ids=lambda props: "+".join(p.name for p in props),
)
def test_pruned_walk_yields_the_leaders_that_have_the_properties(props):
    for monotone, sizes in ((True, (1, 2, 3)), (False, (1, 2))):
        for n in sizes:
            space = _SystemSpace(n, monotone)
            expected = [
                (idx, stab)
                for idx, stab in space.leaders(())
                if all(evaluate_check(space.system(idx, ""), c).holds for c in props)
            ]
            assert list(space.leaders(props)) == expected, (n, monotone)


@pytest.mark.parametrize(
    "checks",
    [(), (OPT,), (IM, n_star_s(2)), (EMI,), (IOMEGA, EMF), (OPT, CM_OMEGA)],
    ids=lambda checks: "+".join(c.name for c in checks) or "none",
)
def test_cell_counts_are_the_sums_over_the_leaders(checks):
    # A count reads the walk's cells without expanding them: per cell, the
    # completions of its prefix, each standing for relabelings // stab systems.
    for monotone in (True, False):
        for n in (1, 2, 3):
            space = _SystemSpace(n, monotone)
            leaders = list(space.leaders(checks))
            cells = list(space.union_cells([checks], space.perms, False))
            completions = [prod(map(len, lists)) for _, _, _, lists, _, _ in cells]
            weights = [space.relabelings // stab for _, stab, _, _, _, _ in cells]
            assert sum(completions) == len(leaders), (n, monotone)
            assert sum(map(operator.mul, completions, weights)) == sum(
                space.relabelings // stab for _, stab in leaders
            ), (n, monotone)
            spec = SearchSpec(n, checks, mode="count", monotone_only=monotone)
            assert count_systems(spec).instances_checked == sum(
                space.relabelings // stab for _, stab in leaders
            )
            spec = SearchSpec(n, checks, mode="count", monotone_only=monotone, canonical_only=True)
            assert count_systems(spec).instances_checked == len(leaders)


@pytest.mark.parametrize(
    "monotone,raw,classes",
    [(True, (2, 20, 19_000), (2, 13, 3_450)), (False, (2, 32, 524_288), (2, 20, 89_472))],
    ids=["monotone", "non-monotone"],
)
def test_class_sizes_sum_to_the_raw_stream(monotone, raw, classes):
    for n, raw_count, class_count in zip((1, 2, 3), raw, classes):
        space = _SystemSpace(n, monotone)
        sizes = [space.relabelings // stab for _, stab in space.leaders(())]
        assert (sum(sizes), len(sizes)) == (raw_count, class_count)
        spec = SearchSpec(n, mode="count", monotone_only=monotone, canonical_only=True)
        assert sum(1 for _ in enumerate_systems(spec)) == class_count


@pytest.mark.parametrize("monotone", [True, False], ids=["monotone", "non-monotone"])
def test_leaders_carry_their_raw_rank_and_class(monotone):
    # At |U| = 2 the one relabeling swaps a and b: each leader sits at its
    # rank in the raw stream, and its class is itself and its mirror image.
    raw = list(enumerate_systems(SearchSpec(2, mode="count", monotone_only=monotone)))
    swap = {0: 0, 1: 2, 2: 1, 3: 3}
    space = _SystemSpace(2, monotone)
    last = tuple(r - 1 for r in space.radices)
    for idx, stab in space.leaders(()):
        leader = raw[space.rank(idx)]
        assert space.system(idx, leader.label).to_dict() == leader.to_dict()
        mirror = {swap[x]: frozenset(swap[a] for a in fam) for x, fam in leader.ideals.items()}
        members = [s for s in raw if s.ideals in (leader.ideals, mirror)]
        assert members[0] is leader
        assert len(members) == space.relabelings // stab == images_upto(space, idx, stab, last)
