import itertools

import pytest

from sizesem.cli import ALL_PROPS
from sizesem.errors import DomainNotClosed
from sizesem.properties import (
    EMF,
    EMI,
    IM,
    IOMEGA,
    I_UNION_DISJ,
    F_UNION_DISJ,
    OPT,
    PropertyId,
    check_level,
    check_property,
    m_plus_n,
    m_plus_omega,
    m_plus_plus,
    n_star_s,
    parse_property,
    property_matrix,
    witness_violates,
)
from sizesem.search import SearchSpec, enumerate_systems
from sizesem.setcore import Universe
from sizesem.sizesys import SizeSystem, build


def all_trivial(n):
    return build(Universe([chr(ord("a") + i) for i in range(n)]), None, {})


def test_property_names_roundtrip():
    ids = [
        OPT, IM, EMI, EMF, I_UNION_DISJ, F_UNION_DISJ, IOMEGA,
        n_star_s(1), n_star_s(2), n_star_s(5),
        m_plus_n(3), m_plus_omega(2), m_plus_plus(3),
    ]
    for p in ids:
        assert parse_property(p.name) == p
    assert parse_property("1*s") == n_star_s(1)
    assert parse_property("2*s") == n_star_s(2)
    assert n_star_s(1).name == "1*s"
    assert n_star_s(3).name == "n*s:3"


@pytest.mark.parametrize("text", ["eMI:", "Opt:", "I-omega: "])
def test_a_colon_after_a_tag_without_a_parameter_is_refused(text):
    # A bare colon used to be dropped, and "eMI:" read as eMI.
    with pytest.raises(ValueError, match=f"^{text.partition(':')[0]} takes no parameter$"):
        parse_property(text)


def test_property_id_validation():
    with pytest.raises(ValueError):
        PropertyId("M+n", 2)
    with pytest.raises(ValueError):
        PropertyId("M+omega", 5)
    with pytest.raises(ValueError):
        PropertyId("Opt", 1)
    with pytest.raises(ValueError):
        n_star_s(0)


def test_all_trivial_system_satisfies_basics():
    s = all_trivial(3)
    for p in [OPT, IM, EMI, EMF, n_star_s(1), n_star_s(2), n_star_s(3), IOMEGA]:
        assert check_property(s, p).holds, p.name


def test_fact34_matrix(fact34_1, fact34_2):
    got = [r.holds for r in property_matrix(fact34_1, [OPT, IM, EMI, IOMEGA, EMF])]
    assert got == [True, True, True, True, False]
    got = [r.holds for r in property_matrix(fact34_2, [OPT, IM, IOMEGA, EMF, EMI])]
    assert got == [True, True, True, True, False]


def test_emf_witness_is_canonical(fact34_1):
    rep = check_property(fact34_1, EMF)
    u = fact34_1.universe
    assert rep.witness == {
        "X": u.subset(["x", "z"]),
        "Y": u.full,
        "A": u.subset(["z"]),
    }


def test_ex38_iomega_fails(ex38_3):
    rep = check_property(ex38_3, IOMEGA)
    assert not rep.holds
    u = ex38_3.universe
    assert rep.witness["X"] == u.full
    assert witness_violates(ex38_3, IOMEGA, rep.witness)


def test_ex38_small_n_star_s_holds(ex38_3):
    assert check_property(ex38_3, n_star_s(1)).holds
    assert check_property(ex38_3, n_star_s(2)).holds
    assert not check_property(ex38_3, n_star_s(3)).holds


def test_n_star_s_witness_is_lex_first(ex38_3):
    rep = check_property(ex38_3, n_star_s(3))
    u = ex38_3.universe
    assert rep.witness == {
        "X": u.full,
        "A1": u.subset(["1"]),
        "A2": u.subset(["2"]),
        "A3": u.subset(["3"]),
    }


def test_check_level_fact35():
    from sizesem.fixtures import fixture_system

    for n in (2, 3, 4):
        s = fixture_system(f"fact35-{n}")
        assert check_level(s, n).holds
        rep = check_level(s, n + 1)
        assert not rep.holds
        assert any("n*s" in note for note in rep.notes)


def test_level_monotone_strength():
    spec = SearchSpec(universe_size=2, mode="count")
    for s in enumerate_systems(spec):
        for n in (1, 2):
            if check_level(s, n + 1).holds:
                assert check_level(s, n).holds


def test_level_fails_via_emf(fact34_1):
    rep = check_level(fact34_1, 1)
    assert not rep.holds
    assert any("eMF" in note for note in rep.notes)


def test_property_matrix_empty(fact34_1):
    assert property_matrix(fact34_1, []) == []


def test_matrix_propagates_errors_without_aborting():
    u = Universe(["a", "b"])
    # domain without the difference set {b}: M++ checks need it
    dom = [u.subset(["a"]), u.full]
    s = build(u, dom, {u.full: [u.empty, u.subset(["a"])]})
    reps = property_matrix(s, [m_plus_plus(1), OPT])
    assert reps[0].error is not None and "DomainNotClosed" in reps[0].error
    assert reps[1].holds


def test_domain_not_closed_names_missing_set():
    u = Universe(["a", "b"])
    dom = [u.subset(["a"]), u.full]
    s = build(u, dom, {u.full: [u.empty, u.subset(["a"])]})
    with pytest.raises(DomainNotClosed) as exc:
        check_property(s, m_plus_plus(1))
    assert exc.value.missing == "b"
    # The missing carrier {a} = X−{b} comes after a violation at B = {a}:
    # the scan reports that violation and never reaches the missing set.
    s = build(u, [u.subset(["b"]), u.full], {u.subset(["b"]): [], u.full: [u.empty]})
    rep = check_property(s, m_plus_plus(1))
    assert not rep.holds
    assert {k: v.labels() for k, v in rep.witness.items()} == {
        "X": ("a", "b"), "A": (), "B": ("a",)
    }


def test_vacuous_parameter_note():
    s = all_trivial(2)
    rep = check_property(s, m_plus_n(5))
    assert rep.holds
    assert any("exceeds" in n for n in rep.notes)


def test_m_plus_omega_vectors():
    from sizesem.fixtures import fixture_system

    expect = {1: (False, False, True, False), 2: (True, False, False, False),
              3: (True, True, False, True)}
    for k, vec in expect.items():
        s = fixture_system(f"ex311-{k}")
        got = tuple(check_property(s, m_plus_omega(v)).holds for v in (1, 2, 3, 4))
        assert got == vec, f"system {k}"


def test_one_element_ideals_make_emf_hold():
    # Systems whose every ideal only holds sets of at most one element
    # satisfy outer filter monotony outright.
    u = Universe(["a", "b", "c"])
    domain = [m for m in u.all_masks() if m]
    singletons = {x: [s for s in (1, 2, 4) if s & ~x == 0] for x in domain}
    count = 0
    for picks in itertools.product(*(range(1 << len(singletons[x])) for x in domain)):
        ideals = {}
        for x, bits in zip(domain, picks):
            fam = {0}
            for i, s in enumerate(singletons[x]):
                if bits >> i & 1:
                    fam.add(s)
            ideals[x] = frozenset(fam)
        s = SizeSystem(u, tuple(domain), ideals)
        assert check_property(s, EMF).holds
        count += 1
    assert count == 2 ** 12


def test_witness_soundness_over_enumeration():
    # every reported witness re-evaluates to a genuine violation
    props = [OPT, IM, EMI, EMF, IOMEGA, n_star_s(1), n_star_s(2),
             I_UNION_DISJ, F_UNION_DISJ, m_plus_n(3),
             m_plus_omega(1), m_plus_omega(2), m_plus_omega(3), m_plus_omega(4),
             m_plus_plus(1), m_plus_plus(2), m_plus_plus(3)]
    spec = SearchSpec(universe_size=2, mode="count", monotone_only=False)
    seen_failures = 0
    for s in enumerate_systems(spec):
        for p in props:
            rep = check_property(s, p)
            if not rep.holds:
                seen_failures += 1
                assert witness_violates(s, p, rep.witness), (s.label, p.name)
    assert seen_failures > 0


def test_m_plus_plus_3_witness_soundness_at_size_3():
    # M++:3 fails on no system at |U| <= 2, so the test above never sees one
    # of its witnesses; it fails on 2 038 of the 3 450 canonical monotone
    # systems at |U| = 3.
    p = m_plus_plus(3)
    spec = SearchSpec(universe_size=3, mode="count", canonical_only=True)
    systems = failures = 0
    for s in enumerate_systems(spec):
        systems += 1
        rep = check_property(s, p)
        if not rep.holds:
            failures += 1
            assert witness_violates(s, p, rep.witness), s.label
    assert (systems, failures) == (3450, 2038)


def test_instances_zero_is_vacuous_note():
    u = Universe(["a"])
    s = build(u, [u.subset(["a"])], {u.subset(["a"]): []})
    rep = check_property(s, IOMEGA)
    assert rep.holds and rep.instances_checked == 0
    assert any("vacuous" in n for n in rep.notes)


def test_property_matrix_error_record_on_domain_not_closed():
    u = Universe(["a", "b"])
    s = build(u, [u.subset(["a"]), u.subset(["b"])], {}, label="split")
    opt, union = property_matrix(s, [OPT, I_UNION_DISJ])
    assert opt.holds and opt.error is None
    assert union.to_dict() == {
        "subject": "split",
        "condition": "I-union-disj",
        "holds": False,
        "witness": None,
        "instances_checked": 0,
        "error": "DomainNotClosed: domain does not contain a,b (needed for disjoint union rule)",
    }


# (systems the property holds on, Σ instances_checked) for every id of
# `cli.ALL_PROPS`: at |U| = 2 over all 32 systems whose ideals contain ∅,
# down-closed or not; at |U| = 3 over the 3 450 canonical monotone systems.
PROPERTY_PINS = {
    2: {
        "Opt": (32, 96), "iM": (20, 104), "eMI": (18, 84), "eMF": (20, 46),
        "I-union-disj": (17, 90), "F-union-disj": (17, 75), "1*s": (4, 92),
        "n*s:2": (3, 176), "n*s:3": (3, 386), "I-omega": (28, 372), "M+n:3": (3, 66),
        "M+omega:1": (14, 69), "M+omega:2": (26, 89), "M+omega:3": (25, 191),
        "M+omega:4": (22, 249), "M++:1": (25, 126), "M++:2": (25, 112), "M++:3": (32, 80),
    },
    3: {
        "Opt": (3450, 24150), "iM": (3450, 58097), "eMI": (441, 33779),
        "eMF": (1163, 15782), "I-union-disj": (326, 22397), "F-union-disj": (326, 18375),
        "1*s": (228, 15232), "n*s:2": (59, 26105), "n*s:3": (52, 62247),
        "I-omega": (752, 99316), "M+n:3": (37, 9251), "M+omega:1": (65, 16561),
        "M+omega:2": (383, 15098), "M+omega:3": (296, 32888), "M+omega:4": (383, 62074),
        "M++:1": (1412, 64197), "M++:2": (1412, 54956), "M++:3": (1412, 33006),
    },
}


@pytest.mark.parametrize("n", [2, 3])
def test_property_holding_counts(n):
    if n == 2:
        spec = SearchSpec(2, mode="count", monotone_only=False)
    else:
        spec = SearchSpec(3, mode="count", canonical_only=True)
    systems = list(enumerate_systems(spec))
    pins = {}
    for name in ALL_PROPS:
        reports = [check_property(s, parse_property(name)) for s in systems]
        pins[name] = (sum(r.holds for r in reports), sum(r.instances_checked for r in reports))
    assert pins == PROPERTY_PINS[n]
