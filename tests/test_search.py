import itertools
import json

import pytest

from sizesem import fixtures, search
from sizesem.errors import CapacityExceeded
from sizesem.properties import (
    EMF,
    EMI,
    IM,
    IOMEGA,
    OPT,
    check_property,
    m_plus_n,
    m_plus_omega,
    m_plus_plus,
    n_star_s,
)
from sizesem.rules import CM_OMEGA, OR_OMEGA, RATM, check_rule, cm_n, or_n
from sizesem.search import (
    SearchSpec,
    count_systems,
    enumerate_systems,
    family_code,
    find_counterexample,
    verify_agreement,
    verify_agreement_upto,
    verify_implication,
    verify_implication_upto,
    verify_two_s_breakdown,
    _down_set_families,
    _families_with_empty,
)
from sizesem.setcore import submasks


def brute_force_down_sets(x):
    """Oracle: filter every ∅-containing family for downward closure."""
    out = []
    for fam in _families_with_empty(x):
        if all(sub in fam for m in fam for sub in submasks(m)):
            out.append(fam)
    return out


@pytest.mark.parametrize("bits,count", [(1, 2), (3, 5), (7, 19), (15, 167)])
def test_down_set_counts_match_oracle(bits, count):
    fams = list(_down_set_families(bits))
    assert len(fams) == count
    assert set(fams) == set(brute_force_down_sets(bits))
    codes = [family_code(bits, f) for f in fams]
    assert codes == sorted(codes)  # ascending family-code order
    assert all(0 in f for f in fams)
    # The canonicity filter compares family indices in place of codes, which
    # needs both generators to list families in strictly ascending code.
    all_codes = [family_code(bits, f) for f in _families_with_empty(bits)]
    assert all_codes == sorted(set(all_codes))
    assert len(all_codes) == 2 ** (2 ** bin(bits).count("1") - 1)


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


def test_enumeration_deterministic():
    a = [s.to_dict() for s in enumerate_systems(SearchSpec(2, mode="count"))]
    b = [s.to_dict() for s in enumerate_systems(SearchSpec(2, mode="count"))]
    assert a == b


def test_capacity_guards():
    with pytest.raises(CapacityExceeded):
        list(enumerate_systems(SearchSpec(5, mode="count")))
    with pytest.raises(CapacityExceeded):
        list(enumerate_systems(SearchSpec(7, mode="count", canonical_only=True)))
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


@pytest.mark.parametrize(
    "required,counts", [((EMI,), (13, 2171)), ((EMI, IOMEGA), (9, 216))]
)
def test_count_systems_pinned(required, counts):
    got = tuple(
        count_systems(SearchSpec(n, required=required, mode="count")).instances_checked
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
    "scan",
    [
        lambda: verify_implication_upto((EMI,), EMF, 5),
        lambda: verify_agreement_upto([EMI, EMF], 5),
    ],
    ids=["implication_upto", "agreement_upto"],
)
def test_sizes_above_the_ceiling_are_refused_before_any_scan(scan, monkeypatch):
    def no_check(*args):
        raise AssertionError("a system was checked before the refusal")

    monkeypatch.setattr(search, "evaluate_check", no_check)
    with pytest.raises(CapacityExceeded, match="capped at size 4"):
        scan()


def test_count_mode():
    rep = count_systems(SearchSpec(2, required=(IOMEGA,), mode="count"))
    assert rep.holds
    assert 0 < rep.instances_checked <= 20


def test_parallel_scan_is_deterministic():
    # Two runs of the same scans give the same bytes.
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


def test_two_s_breakdown_small_sizes():
    rep = verify_two_s_breakdown(2)
    assert rep.holds
    assert rep.instances_checked > 0


def test_two_s_breakdown_matches_whole_system_scan_at_size_2():
    """Cross-check the local reduction against brute force over whole systems."""
    from sizesem.setcore import Universe
    from sizesem.sizesys import SizeSystem

    u = Universe(["a", "b"])
    domain = tuple(m for m in u.all_masks() if m)
    per_set = [list(_families_with_empty(x)) for x in domain]
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
