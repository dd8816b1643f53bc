import json

import pytest

from sizesem.errors import DomainNotClosed
from sizesem.preferential import (
    MU_CM,
    MU_CUM,
    MU_CUT,
    MU_EMPTY,
    MU_EMPTY_FIN,
    MU_IN,
    MU_OR,
    MU_PR,
    MU_RATM,
    MU_SUBSET_SUPSET,
    MU_WOR,
    ROW_LEFT,
    MuRuleId,
    check_mu_rule,
    counterexample_mu,
    enumerate_mu_functions,
    mu_to_rule_bridge,
    parse_mu_rule,
    verify_correspondence_backward,
    verify_correspondence_forward,
)
from sizesem.properties import EMF, EMI, IOMEGA, check_property
from sizesem.rules import AND_OMEGA, CP, CUT, RW, SC
from sizesem.search import SearchSpec, enumerate_systems
from sizesem.setcore import Universe
from sizesem.sizesys import MuFunction, build_mu, from_mu, full_domain_masks, principal_mu


def identity_mu(n):
    return build_mu(Universe([chr(ord("a") + i) for i in range(n)]))


def constant_empty_mu(n):
    u = Universe([chr(ord("a") + i) for i in range(n)])
    masks = tuple(m for m in u.all_masks() if m)
    return MuFunction(u, masks, {m: 0 for m in masks})


def test_mu_rule_names():
    assert parse_mu_rule("mu-CM") == MU_CM
    with pytest.raises(ValueError):
        MuRuleId("mu-zap")


def test_identity_choice_satisfies_or():
    assert check_mu_rule(identity_mu(3), MU_OR).holds
    assert check_mu_rule(identity_mu(3), MU_WOR).holds
    assert check_mu_rule(identity_mu(3), MU_PR).holds


def test_counterexample_mu_rules():
    mu = counterexample_mu()
    assert check_mu_rule(mu, MU_CUT).holds
    assert check_mu_rule(mu, MU_CUM).holds
    assert check_mu_rule(mu, MU_SUBSET_SUPSET).holds


def test_constant_empty_choice_fails_emptiness():
    mu = constant_empty_mu(2)
    rep = check_mu_rule(mu, MU_EMPTY)
    assert not rep.holds
    assert rep.witness["X"] == mu.universe.subset(["a"])  # first nonempty set
    assert not check_mu_rule(mu, MU_EMPTY_FIN).holds
    assert check_mu_rule(identity_mu(2), MU_EMPTY).holds


def test_mu_in_on_picky_choice():
    u = Universe(["a", "b"])
    mu = build_mu(u, None, {u.full: u.subset(["a"])})
    assert check_mu_rule(mu, MU_IN).holds  # b is not chosen from {a,b} itself
    skewed = build_mu(u, None, {u.subset(["b"]): u.subset(["b"])})
    assert check_mu_rule(skewed, MU_IN).holds


def test_mu_rule_requires_composite_sets():
    # One partial domain per composite carrier; the error names the first
    # missing set in scan order and the rule that needed it.
    ab = Universe(["a", "b"])
    abc = Universe(["a", "b", "c"])
    singletons = build_mu(ab, [ab.subset(["a"]), ab.subset(["b"])], {})
    two_pairs = build_mu(abc, [abc.subset(["a", "b"]), abc.subset(["a", "c"])], {})
    crossed = build_mu(
        abc,
        [abc.subset(["a", "b"]), abc.subset(["a", "c"])],
        {abc.subset(["a", "b"]): abc.subset(["b"]), abc.subset(["a", "c"]): abc.subset(["a"])},
    )
    picky_pair = build_mu(ab, [ab.full], {ab.full: ab.subset(["a"])})
    picky_top = build_mu(abc, [abc.full], {abc.full: abc.subset(["a"])})
    cases = [
        # X∪Y
        (singletons, "mu-wOR", "a,b"),
        (singletons, "mu-disjOR", "a,b"),
        (singletons, "mu-OR", "a,b"),
        (singletons, "mu-parallel", "a,b"),
        (crossed, "mu-union", "a,b,c"),
        (crossed, "mu-union'", "a,b,c"),
        # X∩Y
        (two_pairs, "mu-PR'", "a"),
        (two_pairs, "mu-eq'", "a"),
        # X∩A
        (picky_pair, "mu-ResM", "a"),
        # {a,b}
        (picky_top, "mu-in", "a,b"),
    ]
    for mu, tag, missing in cases:
        with pytest.raises(DomainNotClosed) as caught:
            check_mu_rule(mu, MuRuleId(tag))
        assert caught.value.missing == missing, tag
        assert str(caught.value) == f"domain does not contain {missing} (needed for {tag})"


def test_bridge_identity_choice():
    mu = identity_mu(3)
    for r in (SC, RW, AND_OMEGA):
        assert mu_to_rule_bridge(mu, r).holds


def test_bridge_counterexample_cut():
    assert mu_to_rule_bridge(counterexample_mu(), CUT).holds


def test_bridge_constant_empty_fails_cp():
    rep = mu_to_rule_bridge(constant_empty_mu(2), CP)
    assert not rep.holds


def test_from_mu_always_union_closed():
    for n in (1, 2, 3):
        u = Universe([chr(ord("a") + i) for i in range(n)])
        for mu in enumerate_mu_functions(u):
            assert check_property(from_mu(mu), IOMEGA).holds


def test_mu_enumeration_count_and_roundtrip():
    u = Universe(["a", "b", "c"])
    mus = list(enumerate_mu_functions(u))
    assert len(mus) == 2 ** 12  # product of 2^|X| over the seven nonempty sets
    assert len({tuple(sorted(m.choice.items())) for m in mus}) == len(mus)
    for mu in mus[::97]:
        assert principal_mu(from_mu(mu)) == mu


def test_bridge_is_isomorphism_invariant():
    u = Universe(["a", "b", "c"])
    v = Universe(["a", "b", "c"])
    perm = {"a": "b", "b": "c", "c": "a"}
    mus = list(enumerate_mu_functions(u))
    for mu in mus[::311]:
        relabeled = {}
        for mask, choice in mu.choice.items():
            x = frozenset(perm[e] for e in u.subset_from_mask(mask).labels())
            fx = frozenset(perm[e] for e in u.subset_from_mask(choice).labels())
            relabeled[v.subset(x)] = v.subset(fx)
        mu2 = build_mu(v, None, relabeled)
        for r in (SC, CP, CUT):
            assert mu_to_rule_bridge(mu, r).holds == mu_to_rule_bridge(mu2, r).holds


def test_forward_row7_is_trivial():
    rep = verify_correspondence_forward(7, 2)
    assert rep.holds
    assert any("structural" in n for n in rep.notes)


def test_forward_rows_small():
    for row in (1, 5, 6):
        rep = verify_correspondence_forward(row, 2)
        assert rep.holds, row
        assert rep.systems_checked > 0


def test_backward_rows_small():
    for row in (1, 2, 4):
        rep = verify_correspondence_backward(row, 2)
        assert rep.holds, row
        assert rep.systems_checked > 0


def test_backward_negative_rows_confirm():
    for row, mu_rule in ((8, "mu-CUT"), (9, "mu-CUM"), (10, "mu-sub-sup")):
        rep = verify_correspondence_backward(row, 3)
        assert not rep.holds
        assert rep.non_implication_confirmed
        assert rep.witness["mu_rule"] == mu_rule
        assert rep.witness["fails"] == ["eMI"]
        assert rep.witness["system"]["ideals"] == {"a,b": [[], ["b"]]}


def test_forward_row_failure_is_pinned(monkeypatch):
    # With no size-side premise, the first principal system that violates
    # mu-wOR is reported after one non-principal system was skipped.
    monkeypatch.setitem(ROW_LEFT, 1, ())
    rep = verify_correspondence_forward(1, 3)
    assert json.dumps(rep.to_dict()) == json.dumps({
        "row": 1,
        "direction": "forward",
        "universe_max": 3,
        "systems_checked": 7,
        "holds": False,
        "witness": {
            "system": {"universe": ["a", "b"], "domain": "full", "ideals": {"b": [[], ["b"]]}},
            "mu": {
                "universe": ["a", "b"],
                "domain": "full",
                "choice": {"a": ["a"], "b": [], "a,b": ["a", "b"]},
            },
            "violation": {
                "subject": "u2#5",
                "condition": "mu-wOR",
                "holds": False,
                "witness": {"X": ["b"], "Y": ["a"]},
                "instances_checked": 4,
            },
        },
        "skipped_non_principal": 1,
    })


def test_backward_row_failure_is_pinned(monkeypatch):
    # mu-OR does not give eMF, so adding it to row 2's size side must fail.
    monkeypatch.setitem(ROW_LEFT, 2, (EMI, IOMEGA, EMF))
    rep = verify_correspondence_backward(2, 3)
    assert json.dumps(rep.to_dict()) == json.dumps({
        "row": 2,
        "direction": "backward",
        "universe_max": 3,
        "systems_checked": 4,
        "holds": False,
        "witness": {
            "mu": {
                "universe": ["a", "b"],
                "domain": "full",
                "choice": {"a": [], "b": ["b"], "a,b": []},
            },
            "system": {
                "universe": ["a", "b"],
                "domain": "full",
                "ideals": {"a": [[], ["a"]], "a,b": [[], ["a"], ["b"], ["a", "b"]]},
            },
            "violation": {
                "subject": "mu2#4",
                "condition": "eMF",
                "holds": False,
                "witness": {"X": ["b"], "Y": ["a", "b"], "A": []},
                "instances_checked": 3,
            },
        },
    })


@pytest.mark.parametrize("verify", [verify_correspondence_forward, verify_correspondence_backward])
def test_correspondence_sizes_below_one_are_refused(verify):
    with pytest.raises(ValueError, match="at least 1"):
        verify(2, 0)


def test_mu_functions_are_labelled_by_stream_rank():
    labels = [mu.label for mu in enumerate_mu_functions(Universe(["a", "b"]))]
    assert labels == [f"mu2#{rank}" for rank in range(16)]


def test_row_validation():
    with pytest.raises(ValueError):
        verify_correspondence_forward(11, 2)
    with pytest.raises(ValueError):
        verify_correspondence_backward(0, 2)


def test_identity_choice_satisfies_every_mu_rule():
    from sizesem.preferential import _MU_RULES

    mu = identity_mu(3)
    for name in sorted(_MU_RULES):
        assert check_mu_rule(mu, MuRuleId(name)).holds, name


def test_mu_ratm_failure():
    u = Universe(["a", "b", "c"])
    mu = build_mu(
        u, None,
        {u.full: u.subset(["a", "b"]), u.subset(["a", "c"]): u.subset(["c"])},
    )
    rep = check_mu_rule(mu, MU_RATM)
    assert not rep.holds
    assert rep.witness == {"X": u.subset(["a", "c"]), "Y": u.full}


def test_mu_parallel_failure():
    u = Universe(["a", "b"])
    masks = tuple(m for m in u.all_masks() if m)
    mu = MuFunction(u, masks, {1: 1, 2: 2, 3: 0})
    assert not check_mu_rule(mu, parse_mu_rule("mu-parallel")).holds


def test_mu_union_failure():
    u = Universe(["a", "b"])
    masks = tuple(m for m in u.all_masks() if m)
    mu = MuFunction(u, masks, {1: 0, 2: 2, 3: 1})  # f({a})=∅, f(U)={a}
    assert not check_mu_rule(mu, parse_mu_rule("mu-union")).holds


def test_mu_cum_is_cm_plus_cut():
    for n in (1, 2, 3):
        u = Universe([chr(ord("a") + i) for i in range(n)])
        for mu in enumerate_mu_functions(u):
            both = check_mu_rule(mu, MU_CM).holds and check_mu_rule(mu, MU_CUT).holds
            assert check_mu_rule(mu, MU_CUM).holds == both


def test_mu_eq_implies_mu_ratm():
    from sizesem.preferential import MU_EQ

    u = Universe(["a", "b", "c"])
    seen = 0
    for mu in enumerate_mu_functions(u):
        if check_mu_rule(mu, MU_EQ).holds:
            seen += 1
            assert check_mu_rule(mu, MU_RATM).holds
    assert seen > 0


def test_from_mu_with_nonempty_choices_has_basic_properties():
    from sizesem.properties import IM, OPT, check_property, n_star_s

    for n in (1, 2):
        u = Universe([chr(ord("a") + i) for i in range(n)])
        for mu in enumerate_mu_functions(u):
            if any(v == 0 for v in mu.choice.values()):
                continue
            s = from_mu(mu)
            assert check_property(s, OPT).holds
            assert check_property(s, IM).holds
            assert check_property(s, IOMEGA).holds
            assert check_property(s, n_star_s(1)).holds


def test_vacuous_mu_rule_note():
    # With f the identity, X − f(X) is empty, so mu-union has no instance.
    rep = check_mu_rule(identity_mu(3), MuRuleId("mu-union"))
    assert rep.holds and rep.witness is None and rep.instances_checked == 0
    assert rep.notes == ("vacuous: no instances to check",)


def test_mu_pr_prime_skipped_count():
    # Pairs (X, Y) of nonempty subsets of a 3-set with X ∩ Y = ∅ are skipped:
    # 3^3 − 2·2^3 + 1 = 12 of the 7·7 = 49 pairs.
    rep = check_mu_rule(identity_mu(3), MuRuleId("mu-PR'"))
    assert rep.holds
    assert (rep.instances_checked, rep.skipped) == (37, 12)
    assert rep.to_dict()["skipped"] == 12
    # The scan stops at the witness; every disjoint pair came before it.
    rep = check_mu_rule(counterexample_mu(), MuRuleId("mu-PR'"))
    assert not rep.holds
    assert (rep.instances_checked, rep.skipped) == (34, 12)


def test_mu_resm_skipped_count():
    # f ≡ ∅ meets every premise f(X) ⊆ A∩B, and the instance is skipped iff
    # X ∩ A = ∅: sum over X of 2^(n−|X|) choices of A times 2^n of B, that is
    # 2^n (3^n − 2^n) = 20 at n = 2 and 152 at n = 3.
    for n, skipped, checked in ((2, 20, 28), (3, 152, 296)):
        rep = check_mu_rule(constant_empty_mu(n), MuRuleId("mu-ResM"))
        assert rep.holds
        assert (rep.instances_checked, rep.skipped) == (checked, skipped)
    # With f the identity, f(X) ⊆ A forces X ∩ A = X ≠ ∅: nothing is skipped.
    rep = check_mu_rule(identity_mu(3), MuRuleId("mu-ResM"))
    assert rep.skipped == 0 and "skipped" not in rep.to_dict()


# Functions on the full domain at |U| = 2 and 3 that satisfy each rule.
MU_HOLDING_COUNTS = {
    2: {
        "mu-CM": 13, "mu-CUM": 9, "mu-CUT": 12, "mu-OR": 9, "mu-PR": 9, "mu-PR'": 9,
        "mu-RatM": 16, "mu-ResM": 13, "mu-disjOR": 9, "mu-empty": 3, "mu-empty-fin": 3,
        "mu-eq": 9, "mu-eq'": 9, "mu-in": 16, "mu-parallel": 8, "mu-sub-sup": 9,
        "mu-union": 9, "mu-union'": 9, "mu-wOR": 9,
    },
    3: {
        "mu-CM": 1253, "mu-CUM": 246, "mu-CUT": 834, "mu-OR": 216, "mu-PR": 216,
        "mu-PR'": 216, "mu-RatM": 1792, "mu-ResM": 1253, "mu-disjOR": 216,
        "mu-empty": 189, "mu-empty-fin": 189, "mu-eq": 159, "mu-eq'": 159, "mu-in": 3375,
        "mu-parallel": 50, "mu-sub-sup": 246, "mu-union": 159, "mu-union'": 136,
        "mu-wOR": 216,
    },
}


@pytest.mark.parametrize("n", [2, 3])
def test_mu_rule_holding_counts(n):
    from sizesem.preferential import _MU_RULES

    u = Universe([chr(ord("a") + i) for i in range(n)])
    mus = list(enumerate_mu_functions(u))
    holding = {
        tag: [check_mu_rule(mu, MuRuleId(tag)).holds for mu in mus] for tag in sorted(_MU_RULES)
    }
    assert {tag: sum(v) for tag, v in holding.items()} == MU_HOLDING_COUNTS[n]
    # mu-empty and mu-empty-fin hold iff every f(X) is nonempty: 2^|X| − 1
    # choices at each X.
    nonempty = 1
    for x in full_domain_masks(u):
        nonempty *= 2 ** x.bit_count() - 1
    assert sum(holding["mu-empty"]) == sum(holding["mu-empty-fin"]) == nonempty
    # On a full domain mu-wOR, mu-OR and mu-PR are one rule (rows 1–3): they
    # agree function by function, not just in number.
    assert holding["mu-wOR"] == holding["mu-OR"] == holding["mu-PR"]


def test_forward_row3_counts_every_small_system():
    # eMI + I-omega systems: 2 at |U| = 1, 9 at 2 and 216 at 3; all principal.
    rep = verify_correspondence_forward(3, 3)
    assert rep.holds
    assert (rep.systems_checked, rep.skipped_non_principal) == (2 + 9 + 216, 0)


@pytest.mark.parametrize("n,count", [(2, 9), (3, 216)])
def test_principal_mu_is_a_bijection_onto_mu_pr(n, count):
    u = Universe([chr(ord("a") + i) for i in range(n)])
    systems = [
        s
        for s in enumerate_systems(SearchSpec(n, mode="count"))
        if check_property(s, EMI).holds and check_property(s, IOMEGA).holds
    ]
    images = [principal_mu(s) for s in systems]
    for s, mu in zip(systems, images):
        assert from_mu(mu).to_dict() == s.to_dict()
    pr = {mu for mu in enumerate_mu_functions(u) if check_mu_rule(mu, MU_PR).holds}
    assert len(systems) == len(set(images)) == len(pr) == count
    assert set(images) == pr
