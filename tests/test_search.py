import itertools
import json

import pytest

from sizesem import fixtures, preferential, search
from sizesem.errors import CapacityExceeded
from sizesem.preferential import verify_correspondence_backward, verify_correspondence_forward
from sizesem.properties import (
    EMF,
    EMI,
    IM,
    IOMEGA,
    I_UNION_DISJ,
    OPT,
    check_property,
    m_plus_n,
    m_plus_omega,
    m_plus_plus,
    n_star_s,
    witness_violates,
)
from sizesem.rules import (
    AND_OMEGA,
    CCL,
    CM_OMEGA,
    CP,
    CUM,
    OR_OMEGA,
    RATM,
    REF,
    RW,
    SC,
    and_n,
    check_rule,
    cm_n,
    or_n,
)
from sizesem.search import (
    SearchSpec,
    count_systems,
    enumerate_systems,
    find_counterexample,
    verify_agreement,
    verify_agreement_upto,
    verify_implication,
    verify_implication_upto,
    verify_two_s_breakdown,
    _families,
)
from sizesem.setcore import submasks


def family_code(x, fam):
    """The bitmask of the family over the canonical subset index of x."""
    return sum(1 << submasks(x).index(m) for m in fam)


def families_with_empty(x):
    """Oracle: every family over P(x) that contains ∅, by code: bit i of
    the code past ∅'s stands for the i-th nonempty submask of x."""
    others = submasks(x)[1:]
    return [
        frozenset([0, *(m for i, m in enumerate(others) if bits >> i & 1)])
        for bits in range(1 << len(others))
    ]


def brute_force_down_sets(x):
    """Oracle: filter every ∅-containing family for downward closure."""
    return [
        fam for fam in families_with_empty(x)
        if all(sub in fam for m in fam for sub in submasks(m))
    ]


@pytest.mark.parametrize("bits,count", [(1, 2), (3, 5), (7, 19), (15, 167)])
def test_down_set_counts_match_oracle(bits, count):
    fams = _families(bits, True)
    assert len(fams) == count
    assert fams == brute_force_down_sets(bits)
    assert all(0 in f for f in fams)
    # The canonicity filter compares family indices in place of codes, which
    # needs both lists in strictly ascending code.
    for monotone in (True, False):
        codes = [family_code(bits, f) for f in _families(bits, monotone)]
        assert codes == sorted(set(codes))
    assert len(_families(bits, False)) == 2 ** (2 ** bin(bits).count("1") - 1)


@pytest.mark.parametrize("x", range(1, 16), ids=lambda x: f"{x:04b}")
def test_families_match_the_oracle(x):
    # Both lists, in order, for every x of up to 4 bits, non-contiguous ones
    # such as 0b1011 among them; without monotony up to 3 bits, as far as a
    # space lists them (NON_MONOTONE_CEILING).
    assert _families(x, True) == brute_force_down_sets(x)
    if x.bit_count() <= 3:
        assert _families(x, False) == families_with_empty(x)


def test_the_down_sets_of_five_elements_ascend_by_code():
    codes = [family_code(0b11111, f) for f in _families(0b11111, True)]
    assert len(codes) == 7_580
    assert all(a < b for a, b in itertools.pairwise(codes))


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_systems(SearchSpec(1, mode="count"))) == 2
    assert sum(1 for _ in enumerate_systems(SearchSpec(2, mode="count"))) == 20
    assert (
        sum(1 for _ in enumerate_systems(SearchSpec(3, mode="count"))) == 2**3 * 5**3 * 19
    )


def test_enumeration_counts_without_monotony():
    # product over X of 2^(2^|X|-1)
    assert (
        sum(1 for _ in enumerate_systems(SearchSpec(2, mode="count", monotone_only=False)))
        == 2 * 2 * 8
    )


def test_size_one_systems_are_the_two_expected():
    systems = list(enumerate_systems(SearchSpec(1, mode="count")))
    fams = [s.ideals[1] for s in systems]
    assert fams == [frozenset({0}), frozenset({0, 1})]


def test_each_size_has_one_shared_space():
    space = search._system_space(3, True, False)
    assert search._system_space(3, True, True) is space
    assert search._system_space(3, False, False) is not space
    spec = SearchSpec(3, mode="count", canonical_only=True)
    assert len(list(enumerate_systems(spec))) == len(list(enumerate_systems(spec))) == 3_450


def test_enumeration_deterministic():
    a = [s.to_dict() for s in enumerate_systems(SearchSpec(2, mode="count"))]
    b = [s.to_dict() for s in enumerate_systems(SearchSpec(2, mode="count"))]
    assert a == b


def test_capacity_guards():
    with pytest.raises(CapacityExceeded):
        list(enumerate_systems(SearchSpec(5, mode="count")))
    with pytest.raises(CapacityExceeded):
        list(enumerate_systems(SearchSpec(7, mode="count", canonical_only=True)))
    with pytest.raises(CapacityExceeded, match="capped at size 5"):
        next(enumerate_systems(SearchSpec(6, mode="count", canonical_only=True)))
    gen = enumerate_systems(
        SearchSpec(5, mode="count", canonical_only=True, monotone_only=True)
    )
    next(gen)  # permitted combination must start streaming


def _least_relabeling_codes(s, n):
    """Oracle: the least family-code tuple over every relabeling of s."""
    best = None
    for p in itertools.permutations(range(n)):
        image = [sum(1 << p[i] for i in range(n) if m >> i & 1) for m in range(1 << n)]
        ideals = {image[x]: frozenset(image[a] for a in fam) for x, fam in s.ideals.items()}
        codes = tuple(family_code(x, ideals[x]) for x in s.domain_masks)
        if best is None or codes < best:
            best = codes
    return best


def test_canonical_only_reduction():
    # (|U|, monotone_only, number of relabeling classes)
    for n, monotone, orbits in [(2, True, 13), (2, False, 20), (3, True, 3450)]:
        full = list(enumerate_systems(SearchSpec(n, mode="count", monotone_only=monotone)))
        reduced = list(
            enumerate_systems(
                SearchSpec(n, mode="count", monotone_only=monotone, canonical_only=True)
            )
        )
        classes = {_least_relabeling_codes(s, n) for s in full}
        assert len(reduced) == len(classes) == orbits
        # each emitted system is the least member of its class, so every
        # discarded system is a relabeling of exactly one emitted one
        codes = [tuple(family_code(x, s.ideals[x]) for x in s.domain_masks) for s in reduced]
        assert codes == [_least_relabeling_codes(s, n) for s in reduced]
        assert codes == sorted(codes)  # stream order is kept
        assert [s.label for s in reduced] == [f"u{n}#{i}" for i in range(len(reduced))]


def test_property_verdicts_are_relabeling_invariant():
    from sizesem.setcore import Universe
    from sizesem.sizesys import SizeSystem

    props = [OPT, IM, EMI, EMF, IOMEGA, n_star_s(2), m_plus_n(3)]
    u = Universe(["a", "b"])
    swap = {0: 0, 1: 2, 2: 1, 3: 3}  # exchange the two elements
    for s in enumerate_systems(SearchSpec(2, mode="count", monotone_only=False)):
        ideals = {
            swap[x]: frozenset(swap[a] for a in fam) for x, fam in s.ideals.items()
        }
        mirrored = SizeSystem(u, s.domain_masks, ideals)
        for p in props:
            assert check_property(s, p).holds == check_property(mirrored, p).holds


def test_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(2, required=(OPT,), target=OPT)
    with pytest.raises(ValueError):
        SearchSpec(2, mode="nope", target=OPT)
    with pytest.raises(ValueError):
        SearchSpec(2, mode="verify-implication")  # needs a target
    with pytest.raises(ValueError, match="count mode takes no target"):
        SearchSpec(2, required=(EMI,), target=EMF, mode="count")


MU_PR = preferential.MuRuleId("mu-PR")


@pytest.mark.parametrize(
    "scan",
    [
        lambda: verify_agreement([MU_PR, EMI], 2),
        lambda: verify_implication_upto((EMI,), MU_PR, 3),
        lambda: verify_implication_upto((IOMEGA,), MU_PR, 3),
        lambda: find_counterexample(SearchSpec(2, (MU_PR,), EMI)),
        lambda: count_systems(SearchSpec(2, ("eMI",), mode="count")),
    ],
    ids=["agreement", "implication_target", "implication_iomega", "find_required", "count_name"],
)
def test_ids_that_are_not_size_checks_are_refused_before_any_walk(scan, monkeypatch):
    # A mu-rule's test below a set reads a choice function off an I-omega
    # system alone, and a name is no check: a search refuses both up front.
    def no_walk(*args):
        raise AssertionError("a walk started before the refusal")

    monkeypatch.setattr(search._SystemSpace, "union_cells", no_walk)
    with pytest.raises(ValueError, match="is not a size property or rule"):
        scan()


@pytest.mark.parametrize(
    "agree",
    [lambda: verify_agreement([], 2), lambda: verify_agreement_upto([], 3)],
    ids=["agreement", "agreement_upto"],
)
def test_an_empty_agreement_is_refused_before_any_walk(agree, monkeypatch):
    def no_walk(*args):
        raise AssertionError("a walk started before the refusal")

    monkeypatch.setattr(search._SystemSpace, "union_cells", no_walk)
    with pytest.raises(ValueError, match="an agreement needs at least one check"):
        agree()


@pytest.mark.parametrize("n,monotone", [(3, True), (2, False)])
def test_rules_that_read_i_y_alone_enter_the_walk_as_masks(n, monotone):
    # Each of these rules holds below Y iff a local property holds at Y (OR:2
    # and CM:2, one formula, iff no t ∈ I(Y) has Y − t ∈ I(Y)), so the walk
    # takes static lists of families for them, as for the properties.
    space = search._SystemSpace(n, monotone)
    lists, options = space._options((SC, REF, RW, CP, and_n(2), AND_OMEGA, CCL, or_n(2), cm_n(2)))
    assert lists is not None and options is None


@pytest.mark.parametrize(
    "required,monotone,counts",
    [
        ((EMI,), True, (13, 2171)),
        ((EMI, IOMEGA), True, (9, 216)),
        # Local checks alone: the pruned walk counts without building a system.
        ((IOMEGA,), True, (16, 4096)),
        ((OPT,), False, (32, 524_288)),
        ((n_star_s(3),), True, (3, 270)),
        # Two-level checks: the walk prunes each base set by the families below it.
        ((IOMEGA, EMF), True, (13, 1_253)),
        ((m_plus_omega(2),), True, (14, 1_980)),
        ((m_plus_omega(4),), True, (14, 1_980)),
        ((m_plus_plus(1),), True, (20, 7_336)),
        ((I_UNION_DISJ,), True, (12, 1_603)),
        ((EMI,), False, (18, 11_664)),
        # Rules that read I(Y) alone: the walk prunes by their properties' masks.
        ((SC, RW), False, (20, 19_000)),
        ((and_n(2),), False, (3, 540)),
        ((CCL,), True, (16, 4_096)),
        ((CP, AND_OMEGA), True, (3, 189)),
        ((REF, and_n(3)), False, (3, 513)),
        ((or_n(2),), True, (3, 297)),
        ((cm_n(2),), True, (3, 297)),
        ((or_n(2),), False, (3, 729)),
        ((cm_n(2),), False, (3, 729)),
    ],
    # The ids of the first two rows predate the monotone column.
    ids=[f"required{i}-counts{i}" for i in range(5)]
    + ["I-omega+eMF", "M+omega:2", "M+omega:4", "M++:1", "I-union-disj", "eMI-non-monotone"]
    + ["SC+RW-non-monotone", "AND:2-non-monotone", "CCL", "CP+AND:omega", "REF+AND:3-non-monotone"]
    + ["OR:2", "CM:2", "OR:2-non-monotone", "CM:2-non-monotone"],
)
def test_count_systems_pinned(required, monotone, counts):
    got = tuple(
        count_systems(
            SearchSpec(n, required=required, mode="count", monotone_only=monotone)
        ).instances_checked
        for n in (2, 3)
    )
    assert got == counts


def test_find_counterexample_reproduces_outer_monotony_gap():
    spec = SearchSpec(
        3,
        required=(OPT, IM, EMI, IOMEGA),
        target=EMF,
        mode="find-counterexample",
    )
    system, rep = find_counterexample(spec)
    assert system is not None and not rep.holds
    for p in (OPT, IM, EMI, IOMEGA):
        assert check_property(system, p).holds
    assert not check_property(system, EMF).holds


def test_find_counterexample_reproduces_rules_without_robustness():
    spec = SearchSpec(
        3,
        required=(OPT, IM, EMI, EMF, or_n(3), cm_n(3), m_plus_n(3)),
        target=n_star_s(3),
        mode="find-counterexample",
    )
    system, rep = find_counterexample(spec)
    assert system is not None
    assert not check_property(system, n_star_s(3)).holds
    assert check_rule(system, or_n(3)).holds
    assert check_rule(system, cm_n(3)).holds


def test_deep_find_pins_stream_label():
    """The first M+omega:2 system violating M+omega:1 sits deep in the |U| = 4
    stream; its label pins the enumeration order."""
    system, rep = find_counterexample(
        SearchSpec(4, (m_plus_omega(2),), m_plus_omega(1))
    )
    assert system.label == "u4#73333"
    assert not rep.holds


@pytest.mark.parametrize(
    "required,count",
    # eMI + I-omega at n = 4 is also the number of mu-PR choice functions, as
    # an independent choice walk counted them.  I-omega alone is every choice
    # function, I(X) = P(M) for each M ⊆ X, and no check is every system:
    # 2, 5, 19 and 167 families per base set of 1, 2, 3 and 4 elements.
    # eMI, I-omega + eMF and the fact-3.9 counts read below a base set, so the
    # last two blocks are summed out (`_SystemSpace.count`), not walked.
    [((EMI, IOMEGA), 160_000), ((n_star_s(3), EMI), 369_796),
     ((IOMEGA,), 2**32), ((), 2**4 * 5**6 * 19**4 * 167),
     ((EMI,), 2_700_626_494), ((IOMEGA, EMF), 48_045_274),
     ((CM_OMEGA,), 374_388_328), ((m_plus_omega(4),), 374_388_328),
     ((CM_OMEGA, m_plus_omega(4)), 374_388_328)],
    ids=["eMI+I-omega", "n*s:3+eMI", "I-omega", "none", "eMI", "I-omega+eMF", "CM:omega",
         "M+omega:4", "CM:omega+M+omega:4"],
)
def test_count_systems_pinned_at_size_4(required, count):
    assert count_systems(SearchSpec(4, required, mode="count")).instances_checked == count


def test_a_holding_find_reads_the_walk_of_its_implication(monkeypatch):
    # I-omega + eMF => M+omega:2 holds at |U| = 4 (fact 3.10).  A find leaves
    # the walk where its implication does: every cell of both counts whole
    # where the two tuples complete a prefix alike, so they step the same
    # cells, and no completion is walked one system at a time.
    steps = []
    scan_stream = search.scan_stream

    def counting(stream):
        for item in scan_stream(stream):
            steps[-1] += 1
            yield item

    monkeypatch.setattr(search, "scan_stream", counting)
    required, target = (IOMEGA, EMF), m_plus_omega(2)
    steps.append(0)
    assert find_counterexample(SearchSpec(4, required, target)) == (None, None)
    steps.append(0)
    assert verify_implication(SearchSpec(4, required, target, "verify-implication")).holds
    assert steps[0] == steps[1] > 0


def test_canonical_deep_find_pins_leader_label():
    spec = SearchSpec(4, (m_plus_omega(2),), m_plus_omega(1), canonical_only=True)
    system, rep = find_counterexample(spec)
    assert system.label == "u4#22625"
    assert check_property(system, m_plus_omega(2)).holds
    assert witness_violates(system, m_plus_omega(1), rep.witness)


def test_cumulativity_follows_at_size_4():
    for canonical in (False, True):
        required = (EMI, EMF, IOMEGA)
        rep = verify_implication(SearchSpec(4, required, CUM, "verify-implication",
                                            canonical_only=canonical))
        assert rep.holds and rep.witness is None, canonical


@pytest.mark.parametrize(
    "required,target,count",
    # fact-3.7:3's three cases, and fact-3.10's rows with eMI.
    [((n_star_s(3), EMI), m_plus_n(3), 369_796),
     ((n_star_s(3), EMI), cm_n(3), 369_796),
     ((n_star_s(3), EMI), or_n(3), 369_796),
     ((IOMEGA, EMI), OR_OMEGA, 160_000),
     ((IOMEGA, EMI), m_plus_omega(1), 160_000),
     ((IOMEGA, EMI), m_plus_omega(3), 160_000),
     ((or_n(2),), CP, 853_863_120)],
    ids=["fact-3.7:3:M+n:3", "fact-3.7:3:CM:3", "fact-3.7:3:OR:3",
         "fact-3.10:OR:omega", "fact-3.10:M+omega:1", "fact-3.10:M+omega:3", "OR:2=>CP"],
)
def test_implications_hold_at_size_4(required, target, count):
    rep = verify_implication(SearchSpec(4, required, target, "verify-implication"))
    assert rep.holds and rep.witness is None
    assert rep.instances_checked == count


def test_an_nary_target_above_the_rule_scan_ceiling_prunes_the_walk():
    # OR:10 would walk 3·10⁸ instances on one system, but its test below a
    # set walks none: a holding target is decided.  A failing one is refused
    # once its report is built.
    rep = verify_implication(SearchSpec(3, (or_n(4),), or_n(10), "verify-implication"))
    assert rep.holds and rep.instances_checked == 216
    with pytest.raises(CapacityExceeded, match="OR:10 would examine"):
        find_counterexample(SearchSpec(3, (EMI,), or_n(10)))


def test_find_counterexample_absent():
    spec = SearchSpec(
        1,
        required=(OPT, IM, EMI, EMF, n_star_s(2)),
        target=n_star_s(3),
        mode="find-counterexample",
    )
    system, rep = find_counterexample(spec)
    assert system is None and rep is None


def test_verify_implication_single_size():
    spec = SearchSpec(
        2,
        required=(n_star_s(3), EMI),
        target=m_plus_n(3),
        mode="verify-implication",
    )
    rep = verify_implication(spec)
    assert rep.holds
    assert rep.instances_checked > 0


def test_verify_implication_counterexample_is_reported():
    # without outer monotony the robustness chain breaks, so this must fail
    spec = SearchSpec(
        3,
        required=(n_star_s(3),),
        target=m_plus_n(3),
        mode="verify-implication",
    )
    rep = verify_implication(spec)
    assert not rep.holds
    assert rep.witness_system is not None
    assert rep.witness is not None


def test_verify_implication_equivalence_both_ways():
    from sizesem.rules import CM_OMEGA

    fwd = verify_implication_upto((CM_OMEGA,), m_plus_omega(4), 2)
    bwd = verify_implication_upto((m_plus_omega(4),), CM_OMEGA, 2)
    assert fwd.holds and bwd.holds
    assert fwd.instances_checked > 0 and bwd.instances_checked > 0


def test_implication_upto_merges_a_failure_across_sizes():
    # 2 eMI systems at |U| = 1 hold eMF; the fifth at |U| = 2 is the first to fail.
    rep = verify_implication_upto((EMI,), EMF, 2)
    assert json.dumps(rep.to_dict()) == json.dumps({
        "subject": "search:u<=2",
        "condition": "eMI=>eMF",
        "holds": False,
        "witness": {"X": ["a"], "Y": ["a", "b"], "A": []},
        "instances_checked": 7,
        "notes": ["violating system u2#4"],
        "witness_system": {
            "universe": ["a", "b"],
            "domain": "full",
            "ideals": {"a,b": [[], ["a"], ["b"], ["a", "b"]]},
        },
    })
    # The same system is the first whose eMI and eMF verdicts differ.
    rep = verify_agreement_upto([EMI, EMF], 2)
    assert json.dumps(rep.to_dict()) == json.dumps({
        "subject": "search:u<=2",
        "condition": "agree:eMI=eMF",
        "holds": False,
        "witness": None,
        "instances_checked": 7,
        "notes": ["verdicts eMI=True, eMF=False"],
        "witness_system": {
            "universe": ["a", "b"],
            "domain": "full",
            "ideals": {"a,b": [[], ["a"], ["b"], ["a", "b"]]},
        },
    })


def _reference_upto(per_size, max_universe):
    """The record of a scan over sizes 1..max_universe pieced together from
    single-size scans: the first failing size's record, or the last holding
    one, with the subject of the whole range and the counts summed."""
    total = 0
    for n in range(1, max_universe + 1):
        record = per_size(n).to_dict()
        total += record["instances_checked"]
        if not record["holds"]:
            break
    record.update(subject=f"search:u<={max_universe}", instances_checked=total)
    return record


_TERNARY = (n_star_s(3), EMI)
_CHAINED_FIXTURES = {
    "fact-3.7:3": [(_TERNARY, m_plus_n(3)), (_TERNARY, cm_n(3)), (_TERNARY, or_n(3))],
    "fact-3.9": [CM_OMEGA, m_plus_omega(4)],
    "fact-3.10": [
        ((IOMEGA, EMI), OR_OMEGA),
        ((IOMEGA, EMI), m_plus_omega(1)),
        ((IOMEGA, EMF), m_plus_omega(2)),
        ((IOMEGA, EMI), m_plus_omega(3)),
        ((IOMEGA, EMF), m_plus_omega(4)),
    ],
    "fact-3.12": [m_plus_plus(1), m_plus_plus(2), m_plus_plus(3)],
    "fact-3.13": [RATM, m_plus_plus(1)],
}


@pytest.mark.parametrize("fid", list(_CHAINED_FIXTURES))
def test_chained_fixture_records_match_single_size_scans(fid):
    # Each record of these fixtures is one scan over |U| = 1..3; it must
    # equal what the single-size verifiers report size by size.
    assert fixtures.SEARCH_MAX == 3
    cases = _CHAINED_FIXTURES[fid]
    if isinstance(cases[0], tuple):
        expected = [
            _reference_upto(
                lambda n: verify_implication(SearchSpec(n, req, target, "verify-implication")), 3
            )
            for req, target in cases
        ]
    else:
        expected = [_reference_upto(lambda n: verify_agreement(cases, n), 3)]
    assert fixtures.run_fixture(fid)["records"] == expected


@pytest.mark.parametrize(
    "scan",
    [
        lambda: verify_two_s_breakdown(0),
        lambda: verify_implication_upto((EMI,), EMF, 0),
        lambda: verify_agreement_upto([EMI, EMF], -1),
        lambda: list(enumerate_systems(SearchSpec(0, mode="count"))),
    ],
    ids=["two_s_breakdown", "implication_upto", "agreement_upto", "enumerate_systems"],
)
def test_sizes_below_one_are_refused(scan):
    with pytest.raises(ValueError, match="at least 1"):
        scan()


@pytest.mark.parametrize(
    "scan,ceiling",
    [
        (lambda: verify_implication_upto((EMI,), EMF, 5), 4),
        (lambda: verify_agreement_upto([EMI, EMF], 5), 4),
        (lambda: verify_two_s_breakdown(5), 4),
        (lambda: find_counterexample(SearchSpec(6, (EMI,), EMF, canonical_only=True)), 5),
        (lambda: count_systems(SearchSpec(6, (EMI,), mode="count", canonical_only=True)), 5),
        (lambda: verify_correspondence_forward(2, 4), 3),
        (lambda: verify_correspondence_backward(2, 4), 3),
        (lambda: count_systems(SearchSpec(4, mode="count", monotone_only=False)), 3),
    ],
    ids=[
        "implication_upto", "agreement_upto", "two_s_breakdown", "canonical_find",
        "canonical_count", "correspondence_forward", "correspondence_backward",
        "non_monotone_count",
    ],
)
def test_sizes_above_the_ceiling_are_refused_before_any_scan(scan, ceiling, monkeypatch):
    def no_check(*args):
        raise AssertionError("a system was checked before the refusal")

    monkeypatch.setattr(search, "evaluate_check", no_check)
    monkeypatch.setattr(search, "verdict", no_check)
    monkeypatch.setattr(search, "scan_stream", no_check)
    monkeypatch.setattr(preferential, "enumerate_mu_functions", no_check)
    # No family may be listed and no column built: one of size 5 has 2³¹ bits.
    monkeypatch.setattr(search, "_families", no_check)
    monkeypatch.setattr(search, "_breakdown_columns", no_check)
    # No leader walk may start either: at |U| = 4 one runs for minutes.
    monkeypatch.setattr(search._SystemSpace, "union_cells", no_check)  # every walk's one way in
    with pytest.raises(CapacityExceeded, match=f"capped at size {ceiling}"):
        scan()


def test_count_mode():
    rep = count_systems(SearchSpec(2, required=(IOMEGA,), mode="count"))
    assert rep.holds
    assert 0 < rep.instances_checked <= 20


def test_repeated_scans_are_deterministic():
    # Two runs of the same scans give the same bytes, a pruned scan included.
    spec = SearchSpec(
        3,
        required=(OPT, IM, EMI, IOMEGA),
        target=EMF,
        mode="find-counterexample",
    )
    (s1, r1), (s2, r2) = find_counterexample(spec), find_counterexample(spec)
    assert json.dumps(s1.to_dict()) == json.dumps(s2.to_dict())
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())

    reps = [verify_implication_upto((n_star_s(3), EMI), m_plus_n(3), 2) for _ in range(2)]
    assert json.dumps(reps[0].to_dict()) == json.dumps(reps[1].to_dict())

    reps = [verify_implication_upto((IOMEGA, EMI), OR_OMEGA, 3) for _ in range(2)]
    assert reps[0].holds
    assert json.dumps(reps[0].to_dict()) == json.dumps(reps[1].to_dict())


def test_agreement_failure_is_pinned():
    rep = verify_agreement([EMI, EMF], 2)
    assert json.dumps(rep.to_dict()) == json.dumps({
        "subject": "search:u2",
        "condition": "agree:eMI=eMF",
        "holds": False,
        "witness": None,
        "instances_checked": 5,
        "notes": ["verdicts eMI=True, eMF=False"],
        "witness_system": {
            "universe": ["a", "b"],
            "domain": "full",
            "ideals": {"a,b": [[], ["a"], ["b"], ["a", "b"]]},
        },
    })


def test_and_omega_agrees_with_iomega_at_size_4():
    # Both read I(Y) alone, so the walks never part and every system counts.
    rep = verify_agreement([AND_OMEGA, IOMEGA], 4)
    assert rep.holds and rep.witness_system is None
    assert rep.instances_checked == 5_440_901_750_000


def test_cm_omega_agrees_with_m_plus_omega_4_at_size_4():
    # Fact 3.9 at |U| = 4: each id's count equals the count of both, 374 388 328.
    rep = verify_agreement([CM_OMEGA, m_plus_omega(4)], 4)
    assert rep.holds and rep.witness_system is None
    assert rep.instances_checked == 5_440_901_750_000


def test_two_s_breakdown_small_sizes():
    rep = verify_two_s_breakdown(2)
    assert rep.holds
    assert rep.instances_checked > 0


def test_two_s_breakdown_fires_on_every_family_not_closed_under_union():
    # Whenever I(X) is not union-closed, A, B ∈ I(X) with A ∪ B ∉ I(X) make
    # Z = A ∪ B a carrier that is not small and is covered by a pairwise
    # union, so the claim holds on every family the premise fires on: the
    # count is that of the families with ∅ that are not union-closed.
    # Pinned at every max up to 4; each count runs over the sizes 1..max.
    not_closed = 0
    counts = []
    for n in (1, 2, 3, 4):
        others = range(1, 1 << n)
        for bits in range(1 << len(others)):
            fam = {0, *(m for i, m in enumerate(others) if bits >> i & 1)}
            not_closed += any((a | b) not in fam for a in fam for b in fam)
        rep = verify_two_s_breakdown(n)
        assert rep.holds and rep.instances_checked == not_closed
        counts.append(not_closed)
    assert counts == [0, 1, 68, 30356]


def test_two_s_breakdown_matches_whole_system_scan_at_size_2():
    """Cross-check the local reduction against brute force over whole systems."""
    from sizesem.setcore import Universe
    from sizesem.sizesys import SizeSystem

    u = Universe(["a", "b"])
    domain = tuple(m for m in u.all_masks() if m)
    per_set = [families_with_empty(x) for x in domain]
    premise_hits = 0
    for fams in itertools.product(*per_set):
        s = SizeSystem(u, domain, dict(zip(domain, fams)))
        for x in domain:
            fam = s.ideals[x]
            robust = True
            for a in fam:
                for b in submasks(x):
                    if b == x or (x & ~b) in fam:
                        continue  # empty carrier / B is big: no instance
                    if (a & ~b) not in s.ideals[x & ~b]:
                        robust = False
                        break
                if not robust:
                    break
            union_closed = all((a | b) in fam for a in fam for b in fam)
            if robust and not union_closed:
                premise_hits += 1
                some_y_fails = any(
                    any(c | d == y for c in s.ideals[y] for d in s.ideals[y])
                    for y in domain
                )
                assert some_y_fails
    assert premise_hits > 0


def test_breakdown_columns_match_a_per_family_evaluation():
    # Bit f of each vector against the docstring's conditions on family f:
    # the premise (not union-closed), and the failure (the premise, and no
    # members A, B with a nonempty Z ⊆ A ∪ B outside the family).
    for n in (1, 2, 3):
        x = (1 << n) - 1
        premise, failing = search._breakdown_columns(x)
        for code, fam in enumerate(families_with_empty(x)):
            fires = any(a | b not in fam for a in fam for b in fam)
            covers = any(
                z not in fam for a in fam for b in fam for z in submasks(a | b)
            )
            assert premise >> code & 1 == fires, (n, code)
            assert failing >> code & 1 == (fires and not covers), (n, code)
        families = 1 << (len(submasks(x)) - 1)
        assert premise >> families == failing >> families == 0


def test_two_s_breakdown_reports_the_first_failing_family(monkeypatch):
    # A failing bit forced onto the 5th family of a 3-set that the premise
    # fires on: the count runs up to and including it, after all of size 2.
    columns = search._breakdown_columns

    def one_failure(x):
        premise, failing = columns(x)
        if x == 0b111:
            bits = [f for f in range(premise.bit_length()) if premise >> f & 1]
            failing |= 1 << bits[4]
        return premise, failing

    monkeypatch.setattr(search, "_breakdown_columns", one_failure)
    rep = verify_two_s_breakdown(4)
    assert not rep.holds and rep.notes == ("counterexample found",)
    assert rep.instances_checked == 0 + 1 + 5
    w = rep.witness_system
    assert w["universe_size"] == 3
    fam = {frozenset(m) for m in w["ideal_at_base"]}
    a, b = map(frozenset, w["union_gap"])
    assert a in fam and b in fam and a | b not in fam


def test_two_s_breakdown_walks_no_family(monkeypatch):
    # The counts come from the columns alone: no family is listed, built as
    # a set or scanned item by item.
    def no_walk(*args, **kwargs):
        raise AssertionError("a family was walked")

    for name in ("_families", "scan_stream", "frozenset"):
        monkeypatch.setattr(search, name, no_walk, raising=False)
    counts = [verify_two_s_breakdown(n).instances_checked for n in (1, 2, 3, 4)]
    assert counts == [0, 1, 68, 30356]
