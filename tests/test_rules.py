import random
import time
from itertools import chain, islice

import pytest

from sizesem import properties, rules
from sizesem.cli import ALL_PROPS, ALL_RULES
from sizesem.errors import CapacityExceeded, DomainNotFull, SetNotInDomain
from sizesem.logic import Interpretation, parse_formula
from sizesem.properties import (
    IM,
    IOMEGA,
    OPT,
    F_UNION_DISJ,
    check_property,
    m_plus_omega,
    n_star_s,
    parse_property,
)
from sizesem.rules import (
    AND_OMEGA,
    CCL,
    CP,
    CUM,
    CUT,
    DISJ_OR,
    M_PLUS_DERIVED,
    RATM,
    REF,
    RW,
    SC,
    WCM,
    WOR,
    RuleId,
    and_n,
    check_rule,
    cm_n,
    derive_relation,
    nm_entails,
    nm_entails_formulas,
    or_n,
    parse_rule,
)
from sizesem.search import SearchSpec, enumerate_systems
from sizesem.setcore import Universe
from sizesem.sizesys import MuFunction, SizeSystem, build, from_mu
from test_rule_reference import canonical_u3, every_small_system


def all_trivial(n):
    return build(Universe([chr(ord("a") + i) for i in range(n)]), None, {})


def random_system(u, rng):
    domain = tuple(m for m in u.all_masks() if m)
    ideals = {}
    for x in domain:
        fam = {0}
        for sub in range(x + 1):
            if sub and sub & ~x == 0 and rng.random() < 0.4:
                fam.add(sub)
        ideals[x] = frozenset(fam)
    return SizeSystem(u, domain, ideals, label="random")


def test_rule_names_roundtrip():
    for r in (SC, REF, RW, WOR, WCM, DISJ_OR, CP, AND_OMEGA, RATM, CUT, CUM, CCL,
              M_PLUS_DERIVED, and_n(1), and_n(3), or_n(2), cm_n(4)):
        assert parse_rule(r.name) == r
    assert parse_rule("PR'").name == "PR'"
    assert parse_rule("AND:omega") == AND_OMEGA
    with pytest.raises(ValueError):
        parse_rule("OR:1")
    with pytest.raises(ValueError):
        parse_rule("nope")


RULE_NAME_ERRORS = [
    (RuleId, ("x",), "unknown rule tag 'x'"),
    (RuleId, ("SC", 1), "SC takes no parameter"),
    (RuleId, ("AND:omega", 2), "AND:omega takes no parameter"),
    (RuleId, ("AND",), "AND:n needs n >= 1"),
    (RuleId, ("CM", 1), "CM:n needs n >= 2"),
    (parse_rule, ("AND",), "unknown rule name 'AND'"),
    (parse_rule, ("AND:0",), "AND:n needs n >= 1"),
    (parse_rule, ("OR:1",), "OR:n needs n >= 2"),
    (parse_rule, ("SC:1",), "unknown rule name 'SC:1'"),
    (parse_rule, ("SC:",), "unknown rule name 'SC:'"),
    (parse_rule, ("OR:x",), "unknown rule name 'OR:x'"),
]


@pytest.mark.parametrize(
    "make, args, message",
    RULE_NAME_ERRORS,
    ids=[f"{make.__name__}{args!r}" for make, args, _ in RULE_NAME_ERRORS],
)
def test_rule_name_errors_are_pinned(make, args, message):
    with pytest.raises(ValueError) as exc:
        make(*args)
    assert str(exc.value) == message


def test_every_rule_and_property_row_is_listed():
    # The reference and holding-count tests iterate cli.ALL_RULES and
    # cli.ALL_PROPS, so a row missing from those lists would go unchecked.
    assert {parse_rule(n).tag for n in ALL_RULES} == set(rules._UNITS)
    assert {parse_property(n).tag for n in ALL_PROPS} == set(properties._SCANS)


def test_nm_entails_fact34_1(fact34_1):
    u = fact34_1.universe
    assert nm_entails(fact34_1, u.full, u.subset(["z"]))
    assert not nm_entails(fact34_1, u.full, u.subset(["x"]))


def test_nm_entails_reflexive(fact34_1, ex38_3):
    for s in (fact34_1, ex38_3):
        for a in s.domain:
            assert nm_entails(s, a, a)


def test_nm_entails_ex38(ex38_3):
    u = ex38_3.universe
    assert nm_entails(ex38_3, u.full, u.subset(["2", "3"]))


def test_nm_entails_empty_antecedent_convention(fact34_1):
    u = fact34_1.universe
    assert nm_entails(fact34_1, u.empty, u.empty)
    assert nm_entails(fact34_1, u.empty, u.subset(["x"]))


def test_nm_entails_refuses_sets_of_another_universe(fact34_1):
    # The empty antecedent is no exception: both universes are checked first.
    u, other = fact34_1.universe, Universe(["p", "q"])
    for a, b in [(other.empty, other.full), (other.full, u.full), (u.empty, other.empty)]:
        with pytest.raises(SetNotInDomain):
            nm_entails(fact34_1, a, b)


def test_nm_entails_outside_domain(fact34_1):
    u = fact34_1.universe
    restricted = build(u, [u.full], {u.full: [u.empty]})
    with pytest.raises(SetNotInDomain):
        nm_entails(restricted, u.subset(["x"]), u.empty)


def test_nm_entails_formulas(fact34_1):
    u = fact34_1.universe
    i = Interpretation(u, {"z-atom": u.subset(["z"]), "a": u.subset(["x"])})
    assert nm_entails_formulas(fact34_1, i, parse_formula("T"), parse_formula("z-atom"))
    assert nm_entails_formulas(fact34_1, i, parse_formula("a"), parse_formula("a"))
    assert nm_entails_formulas(fact34_1, i, parse_formula("F"), parse_formula("a"))


def test_lle_is_structural(fact34_1):
    u = fact34_1.universe
    i = Interpretation(u, {"p": u.subset(["x", "y"]), "q": u.subset(["z"])})
    lhs = parse_formula("p | q")
    rhs = parse_formula("q | p | (p & q)")  # same model set, different syntax
    for g_text in ("p", "q", "p & q", "T", "F", "~p"):
        g = parse_formula(g_text)
        assert nm_entails_formulas(fact34_1, i, lhs, g) == nm_entails_formulas(
            fact34_1, i, rhs, g
        )


def test_derive_relation_singleton():
    s = all_trivial(1)
    u = s.universe
    pairs = derive_relation(s)
    assert pairs == [
        (u.empty, u.empty),
        (u.empty, u.subset(["a"])),
        (u.subset(["a"]), u.subset(["a"])),
    ]


def test_derive_relation_fact34_1(fact34_1):
    u = fact34_1.universe
    pairs = derive_relation(fact34_1)
    from_full = {b for a, b in pairs if a == u.full}
    assert from_full == {b for b in map(u.subset_from_mask, range(8)) if "z" in b}
    for a in map(u.subset_from_mask, range(8)):
        assert (a, a) in pairs


def test_derive_relation_needs_full_domain(fact34_1):
    u = fact34_1.universe
    restricted = build(u, [u.full], {})
    with pytest.raises(DomainNotFull):
        derive_relation(restricted)
    with pytest.raises(DomainNotFull):
        check_rule(restricted, SC)


def test_ex38_rules_hold(ex38_3):
    assert check_rule(ex38_3, or_n(3)).holds
    assert check_rule(ex38_3, cm_n(3)).holds


def test_trivial_system_rules():
    s = all_trivial(3)
    for r in (SC, REF, RW, WOR, WCM, DISJ_OR, CP, AND_OMEGA, RATM, CUT, CUM, CCL,
              M_PLUS_DERIVED, and_n(1), and_n(2), or_n(2), cm_n(3)):
        assert check_rule(s, r).holds, r.name


def test_n_ary_rules_refuse_a_scan_above_the_ceiling():
    # On the trivial 3-element system these ran for minutes; now they are
    # refused before the scan starts.
    s = all_trivial(3)
    for r in (and_n(14), or_n(10), cm_n(14)):
        start = time.perf_counter()
        with pytest.raises(CapacityExceeded, match=r.name):
            check_rule(s, r)
        assert time.perf_counter() - start < 1.0
    # Below the ceiling nothing changes: α |~ β iff α ⊆ β, so the 3 singletons
    # have 4 consequences each, the 3 pairs 2 and U itself 1.
    rep = check_rule(s, and_n(9))
    assert rep.holds and rep.instances_checked == 3 * 4**9 + 3 * 2**9 + 1 == 787_969


def test_and3_fails_on_singleton_smallness():
    from sizesem.fixtures import fixture_system

    s = fixture_system("fact35-2")  # singletons small at the top set
    rep = check_rule(s, and_n(3))
    assert not rep.holds
    u = s.universe
    assert rep.witness["alpha"] == u.full
    betas = {rep.witness["beta1"], rep.witness["beta2"], rep.witness["beta3"]}
    assert betas == {u.subset(["1", "2"]), u.subset(["1", "3"]), u.subset(["2", "3"])}


def test_wor_tracks_outer_ideal_monotony(fact34_1, fact34_2):
    assert check_rule(fact34_1, WOR).holds  # eMI holds here
    assert not check_rule(fact34_2, WOR).holds  # eMI fails here
    assert check_rule(fact34_1, parse_rule("PR'")).holds
    assert not check_rule(fact34_2, parse_rule("PR'")).holds


def test_wcm_tracks_outer_filter_monotony(fact34_1, fact34_2):
    assert not check_rule(fact34_1, WCM).holds  # eMF fails here
    assert check_rule(fact34_2, WCM).holds  # eMF holds here


def test_sc_iff_all_is_optimal():
    u = Universe(["a", "b"])
    no_opt = build(u, None, {u.full: [u.subset(["a"])]})
    assert not check_property(no_opt, OPT).holds
    assert not check_rule(no_opt, SC).holds
    assert not check_rule(no_opt, REF).holds
    s = all_trivial(2)
    assert check_rule(s, SC).holds and check_rule(s, REF).holds


def _correspondence_systems():
    """Small exhaustive space plus a seeded sample of looser systems."""
    for size in (1, 2):
        spec = SearchSpec(universe_size=size, mode="count", monotone_only=False)
        yield from enumerate_systems(spec)
    rng = random.Random(1789)
    u = Universe(["a", "b", "c"])
    for _ in range(150):
        yield random_system(u, rng)


def test_cp_iff_one_star_s():
    for s in _correspondence_systems():
        assert check_rule(s, CP).holds == check_property(s, n_star_s(1)).holds
        assert check_rule(s, and_n(1)).holds == check_rule(s, CP).holds


def test_rw_iff_inner_monotony():
    for s in _correspondence_systems():
        assert check_rule(s, RW).holds == check_property(s, IM).holds


def test_ccl_iff_monotone_union_closed():
    for s in _correspondence_systems():
        expected = check_property(s, IM).holds and check_property(s, IOMEGA).holds
        assert check_rule(s, CCL).holds == expected


def test_and2_iff_two_star_s():
    for s in _correspondence_systems():
        assert check_rule(s, and_n(2)).holds == check_property(s, n_star_s(2)).holds


def test_rules_agree_with_their_local_size_properties():
    # Each rule below is decided at an antecedent a by the local size
    # property's test at the base set a, so on a full domain the two give one
    # verdict; ideals without ∅ and empty ones included at |U| ≤ 2.
    pairs = [
        ([RW], [IM]),
        ([AND_OMEGA], [IOMEGA]),
        ([SC, REF], [OPT]),
        ([CP, and_n(1)], [n_star_s(1)]),
        ([and_n(2)], [n_star_s(2)]),
        ([and_n(3)], [n_star_s(3)]),
        ([CCL], [IM, IOMEGA]),
    ]
    systems = failing = 0
    for s in chain(every_small_system(), canonical_u3()):
        systems += 1
        for rs, ps in pairs:
            verdicts = {check_rule(s, r).holds for r in rs}
            verdicts.add(all(check_property(s, p).holds for p in ps))
            assert len(verdicts) == 1, (s.label, rs[0].name)
            failing += not verdicts.pop()
    assert systems == 260 + 3_450
    assert failing > 0


def test_disj_or_iff_filter_union_over_monotone_space():
    count_failing = 0
    spec = SearchSpec(universe_size=3, mode="count")
    for s in enumerate_systems(spec):
        lhs = check_rule(s, DISJ_OR).holds
        rhs = check_property(s, F_UNION_DISJ).holds
        assert lhs == rhs, s.label
        count_failing += not lhs
    assert count_failing > 0  # the equivalence is not vacuous


def test_and2_flavours_agree_over_monotone_space():
    spec = SearchSpec(universe_size=3, mode="count")
    for s in enumerate_systems(spec):
        assert check_rule(s, and_n(2)).holds == check_rule(s, cm_n(2)).holds, s.label


def test_or2_cm2_alias():
    s = all_trivial(2)
    rep_or = check_rule(s, or_n(2))
    rep_cm = check_rule(s, cm_n(2))
    assert rep_or.holds == rep_cm.holds
    assert any("same rule" in n for n in rep_or.notes)
    assert any("same rule" in n for n in rep_cm.notes)


def test_rule_strength_is_monotone():
    from sizesem.fixtures import fixture_system

    systems = [fixture_system("ex38-3"), fixture_system("fact35-2"), all_trivial(3)]
    spec = SearchSpec(universe_size=2, mode="count")
    systems += list(enumerate_systems(spec))
    for s in systems:
        for n in (1, 2, 3):
            if check_rule(s, and_n(n + 1)).holds:
                assert check_rule(s, and_n(n)).holds
        for n in (2, 3):
            if check_rule(s, or_n(n + 1)).holds:
                assert check_rule(s, or_n(n)).holds
            if check_rule(s, cm_n(n + 1)).holds:
                assert check_rule(s, cm_n(n)).holds


def test_m_plus_derived_follows_from_m_plus_omega_1():
    checked = 0
    for size in (1, 2, 3):
        spec = SearchSpec(universe_size=size, mode="count")
        for s in enumerate_systems(spec):
            if check_property(s, m_plus_omega(1)).holds:
                checked += 1
                assert check_rule(s, M_PLUS_DERIVED).holds, s.label
    assert checked > 0


def test_ratm_holds_trivially_fails_with_singleton_smallness():
    assert check_rule(all_trivial(3), RATM).holds
    # singleton-smallness at the top breaks rational monotony
    from sizesem.fixtures import fixture_system

    s = fixture_system("fact35-2")
    assert not check_rule(s, RATM).holds


def test_vacuous_rule_note():
    # With I({a}) = ∅ no β satisfies the premise {a} |~ β, so RW has no instance.
    u = Universe(["a"])
    s = build(u, None, {u.full: []})
    rep = check_rule(s, RW)
    assert rep.holds and rep.witness is None and rep.instances_checked == 0
    assert rep.notes == ("vacuous: no instances to check",)


# (systems where the rule holds, Σ instances_checked) for every rule of
# `cli.ALL_RULES` but SC and REF, which are derived in the test.  Size 2 is all
# 32 full systems, monotone or not; size 3 is the 3 450 canonical monotone
# systems; size 4 is the first 400 canonical monotone systems and 40 seeded
# principal ones, where a consequence set counts 2^(|U|−|α|) copies of each
# small set.  The sums catch a scan that changes its order or its counts while
# keeping its verdicts.
RULE_PINS = {
    2: {
        "RW": (20, 496), "wOR": (18, 509), "PR'": (18, 289), "wCM": (20, 282),
        "disjOR": (17, 243), "CP": (4, 56), "AND:1": (4, 84), "AND:2": (3, 135),
        "AND:3": (3, 239), "AND:omega": (28, 836), "OR:2": (3, 82), "OR:3": (3, 108),
        "OR:omega": (17, 407), "CM:2": (3, 82), "CM:3": (3, 135), "CM:omega": (22, 796),
        "RatM": (25, 208), "CUT": (13, 760), "CUM": (9, 891), "CCL": (16, 1256),
        "M+derived": (14, 183),
    },
    3: {
        "RW": (3450, 350948), "wOR": (441, 199789), "PR'": (441, 108941),
        "wCM": (1163, 124389), "disjOR": (326, 193454), "CP": (228, 9711),
        "AND:1": (228, 29140), "AND:2": (59, 96308), "AND:3": (52, 371291),
        "AND:omega": (752, 599210), "OR:2": (59, 26879), "OR:3": (44, 38936),
        "OR:omega": (249, 98095), "CM:2": (59, 26879), "CM:3": (37, 96128),
        "CM:omega": (383, 532273), "RatM": (1412, 217735), "CUT": (296, 554888),
        "CUM": (56, 597941), "CCL": (752, 872848), "M+derived": (65, 127397),
    },
    4: {
        "RW": (440, 95958), "wOR": (302, 245750), "PR'": (302, 79638),
        "wCM": (39, 32365), "disjOR": (302, 589290), "CP": (436, 6600),
        "AND:1": (436, 34004), "AND:2": (242, 194879), "AND:3": (158, 1278196),
        "AND:omega": (68, 181646), "OR:2": (242, 32205), "OR:3": (199, 130642),
        "OR:omega": (302, 188913), "CM:2": (242, 32205), "CM:3": (155, 191595),
        "CM:omega": (8, 170819), "RatM": (3, 277409), "CUT": (201, 190501),
        "CUM": (7, 457372), "CCL": (68, 265647), "M+derived": (123, 451417),
    },
}


def _pinned_systems(n):
    if n == 2:
        return list(enumerate_systems(SearchSpec(2, mode="count", monotone_only=False)))
    spec = SearchSpec(n, mode="count", canonical_only=True)
    if n == 3:
        return list(enumerate_systems(spec))
    # The first 400 canonical monotone systems, then 40 seeded principal ones.
    systems = list(islice(enumerate_systems(spec), 400))
    u = Universe("abcd")
    domain = tuple(m for m in u.all_masks() if m)
    rng = random.Random(4)
    for i in range(40):
        choice = {x: (rng.randrange(16) & x) or x for x in domain}
        systems.append(from_mu(MuFunction(u, domain, choice, label=f"mu{i}")))
    return systems


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rule_holding_counts(n):
    systems = _pinned_systems(n)
    reports = {name: [check_rule(s, parse_rule(name)) for s in systems] for name in ALL_RULES}
    pins = {
        name: (sum(r.holds for r in reps), sum(r.instances_checked for r in reps))
        for name, reps in reports.items()
    }
    # SC and REF hold everywhere: one instance per pair α ⊆ β with α ≠ ∅
    # (3ⁿ − 2ⁿ of them), and one per pair (α, γ) (4ⁿ).
    assert pins.pop("SC") == (len(systems), len(systems) * (3**n - 2**n))
    assert pins.pop("REF") == (len(systems), len(systems) * 4**n)
    assert pins == RULE_PINS[n]

    def bare(rep):
        return rep.holds, rep.instances_checked, rep.witness and list(rep.witness.values())

    # OR:2 and CM:2 are one checker under two names.
    assert list(map(bare, reports["OR:2"])) == list(map(bare, reports["CM:2"]))
    # φ |~ ∅ iff φ ∈ I(φ), so CP and AND:1 agree system by system.
    assert [r.holds for r in reports["CP"]] == [r.holds for r in reports["AND:1"]]
