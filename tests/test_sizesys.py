import pytest
from hypothesis import given, settings, strategies as st

from sizesem.errors import (
    ChoiceNotSubset,
    EmptySetInDomain,
    IdealMemberNotSubset,
    NotPrincipal,
    SetNotInDomain,
    UnknownElementLabel,
)
from sizesem.setcore import Universe, enumerate_subsets
from sizesem.sizesys import (
    MuFunction,
    build,
    build_mu,
    filter_of,
    from_mu,
    medium_of,
    mplus_of,
    mu_from_dict,
    principal_mu,
    system_from_dict,
)


def fact35_like(n):
    """Universe of n+1 points, singletons small at the top, trivial elsewhere."""
    u = Universe([str(i) for i in range(1, n + 2)])
    ideals = {u.full: [u.empty] + [u.subset([e]) for e in u.elements]}
    return build(u, None, ideals)


def test_build_valid_fact35():
    s = fact35_like(2)
    assert s.is_full_domain()
    assert len(s.ideals[s.universe.full_mask]) == 4


def test_build_minimal_system():
    u = Universe(["a"])
    s = build(u, [u.subset(["a"])], {u.subset(["a"]): [u.empty]})
    assert s.domain_masks == (1,)


def test_build_rejects_empty_set_in_domain():
    u = Universe(["a"])
    with pytest.raises(EmptySetInDomain):
        build(u, [u.empty, u.subset(["a"])], {})


def test_build_rejects_ideal_member_outside_base():
    u = Universe(["a", "b"])
    with pytest.raises(IdealMemberNotSubset):
        build(u, None, {u.subset(["a"]): [u.subset(["b"])]})


def test_build_rejects_unknown_label():
    u = Universe(["a", "b"])
    with pytest.raises(UnknownElementLabel):
        u.subset(["zz"])


def test_build_rejects_ideal_base_outside_domain():
    u = Universe(["a", "b"])
    with pytest.raises(SetNotInDomain):
        build(u, [u.subset(["a"])], {u.subset(["b"]): [u.empty]})


def test_filter_of_examples(fact34_1, ex38_3):
    u = fact34_1.universe
    filt = filter_of(fact34_1, u.full)
    assert set(filt) == {s for s in enumerate_subsets(u, u.full) if "z" in s}

    v = ex38_3.universe
    filt = filter_of(ex38_3, v.full)
    assert set(filt) == {
        v.full, v.subset(["2", "3"]), v.subset(["1", "3"]), v.subset(["1", "2"])
    }

    trivial = build(Universe(["a", "b"]), None, {})
    x = trivial.universe.subset(["a", "b"])
    assert filter_of(trivial, x) == (x,)


def test_filter_size_matches_ideal_size(fact34_2):
    for x in fact34_2.domain:
        assert len(filter_of(fact34_2, x)) == len(fact34_2.ideal_of(x))


def test_mplus_of_examples():
    s = fact35_like(1)  # |U| = 2, I(U) = {∅, singletons}
    u = s.universe
    assert set(mplus_of(s, u.full)) == {u.full}
    bigger = fact35_like(2)
    v = bigger.universe
    assert set(mplus_of(bigger, v.full)) == {
        x for x in enumerate_subsets(v, v.full) if len(x) >= 2
    }
    two = build(Universe(["a", "b"]), None, {})
    x = two.universe.full
    assert set(mplus_of(two, x)) == {
        two.universe.subset(["a"]), two.universe.subset(["b"]), x
    }
    full_ideal = build(
        Universe(["a"]), None,
        {Universe(["a"]).subset(["a"]): [Universe(["a"]).empty, Universe(["a"]).subset(["a"])]},
    )
    assert mplus_of(full_ideal, full_ideal.universe.subset(["a"])) == ()


def test_medium_of_examples(fact34_1):
    u = fact34_1.universe
    assert medium_of(fact34_1, u.full) == ()  # small/big partition everything
    trivial = build(Universe(["a", "b"]), None, {})
    x = trivial.universe.full
    med = set(medium_of(trivial, x))
    assert med == {trivial.universe.subset(["a"]), trivial.universe.subset(["b"])}
    one = build(Universe(["a"]), None, {})
    assert medium_of(one, one.universe.subset(["a"])) == ()


def test_small_medium_big_cover_powerset():
    for s in (fact35_like(1), fact35_like(2)):
        for x in s.domain:
            fam = set(s.ideal_of(x)) | set(medium_of(s, x)) | set(filter_of(s, x))
            assert fam == set(enumerate_subsets(s.universe, x))


def test_partition_when_small_and_big_disjoint():
    s = fact35_like(2)
    for x in s.domain:
        small = set(s.ideal_of(x))
        big = set(filter_of(s, x))
        med = set(medium_of(s, x))
        assert not small & big
        assert not small & med and not big & med
        assert len(small) + len(big) + len(med) == 2 ** len(x)


def test_union_covers_even_when_small_and_big_overlap():
    u = Universe(["a"])
    a = u.subset(["a"])
    s = build(u, [a], {a: [u.empty, a]})  # everything small, everything big
    assert set(s.ideal_of(a)) & set(filter_of(s, a))
    assert medium_of(s, a) == ()
    assert set(s.ideal_of(a)) | set(filter_of(s, a)) == set(enumerate_subsets(u, a))


def test_duality_involution_exhaustive():
    s = fact35_like(2)
    u = s.universe
    for x in s.domain:
        ideal = set(s.ideal_of(x))
        filt = set(filter_of(s, x))
        for a in enumerate_subsets(u, x):
            assert (a in ideal) == ((x - a) in filt)


def test_set_not_in_domain(fact34_1):
    u = fact34_1.universe
    restricted = build(u, [u.full], {u.full: [u.empty]})
    with pytest.raises(SetNotInDomain):
        filter_of(restricted, u.subset(["x"]))


def test_principal_mu_examples(fact34_2):
    u = fact34_2.universe
    mu = principal_mu(fact34_2)
    assert mu.value(u.subset(["x", "z"])) == u.subset(["z"])
    assert mu.value(u.full) == u.full

    trivial = build(u, None, {})
    mu = principal_mu(trivial)
    assert all(mu.value(x) == x for x in trivial.domain)


def test_principal_mu_not_principal():
    u = Universe(["a", "b", "c"])
    # F(U) = {{a,b},{b,c},U}: pairwise intersection {b} is not a member
    ideals = {u.full: [u.subset(["c"]), u.subset(["a"]), u.empty]}
    s = build(u, None, ideals)
    with pytest.raises(NotPrincipal) as exc:
        principal_mu(s)
    assert exc.value.base == "a,b,c"


def test_principal_mu_empty_ideal_not_principal():
    u = Universe(["a"])
    s = build(u, [u.subset(["a"])], {u.subset(["a"]): []})
    with pytest.raises(NotPrincipal):
        principal_mu(s)


def test_from_mu_examples():
    u = Universe(["a", "b"])
    mu = build_mu(u, None, {u.full: u.subset(["a"])})
    s = from_mu(mu)
    assert set(filter_of(s, u.full)) == {u.subset(["a"]), u.full}
    # identity choice gives the trivial ideal everywhere
    ident = build_mu(u)
    triv = from_mu(ident)
    assert all(set(triv.ideal_of(x)) == {u.empty} for x in triv.domain)


def test_from_mu_prop41_fixture():
    from sizesem.fixtures import fixture_mu

    mu = fixture_mu("prop41-82-mu")
    s = from_mu(mu)
    u = s.universe
    ab = u.subset(["a", "b"])
    assert set(filter_of(s, ab)) == {u.subset(["a"]), ab}
    for x in s.domain:
        if x != ab:
            assert filter_of(s, x) == (x,)


def test_roundtrip_principal_from_mu():
    u = Universe(["a", "b", "c"])
    mu = build_mu(u, None, {u.full: u.subset(["b"]), u.subset(["a", "b"]): u.subset(["a"])})
    assert principal_mu(from_mu(mu)) == mu


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
def test_roundtrip_random_mu(n, rng):
    u = Universe([f"e{i}" for i in range(n)])
    masks = [m for m in u.all_masks() if m]
    choice = {m: rng.choice([s for s in range(m + 1) if s & ~m == 0]) for m in masks}
    mu = MuFunction(u, tuple(masks), choice)
    assert principal_mu(from_mu(mu)) == mu


def test_build_mu_rejects_bad_choice():
    u = Universe(["a", "b"])
    with pytest.raises(ChoiceNotSubset):
        build_mu(u, None, {u.subset(["a"]): u.subset(["b"])})


@pytest.mark.parametrize(
    "case",
    ["empty-domain", "foreign-domain-member", "foreign-choice-base", "foreign-choice-value"],
)
def test_build_mu_rejects_bad_domain_and_foreign_sets(case):
    u = Universe(["a", "b"])
    v = Universe(["p", "q"])
    domain, choice, error = {
        "empty-domain": ([], None, EmptySetInDomain),
        "foreign-domain-member": ([u.subset(["a"]), v.subset(["q"])], None, SetNotInDomain),
        "foreign-choice-base": (None, {v.subset(["p"]): u.empty}, SetNotInDomain),
        "foreign-choice-value": (None, {u.subset(["a"]): v.subset(["p"])}, SetNotInDomain),
    }[case]
    with pytest.raises(error):
        build_mu(u, domain, choice)
    with pytest.raises(error):
        build(u, domain, None if choice is None else {x: [fx] for x, fx in choice.items()})


def test_json_roundtrip(fact34_1):
    doc = fact34_1.to_dict()
    again = system_from_dict(doc)
    assert again.domain_masks == fact34_1.domain_masks
    assert again.ideals == fact34_1.ideals
    assert doc["domain"] == "full"
    assert list(doc["ideals"]) == ["x,y,z"]  # trivial ideals omitted


def test_json_defaults():
    doc = {"universe": ["p", "q"], "ideals": {}}
    s = system_from_dict(doc)
    assert s.is_full_domain()
    assert all(fam == frozenset((0,)) for fam in s.ideals.values())

    mu = mu_from_dict({"universe": ["p", "q"], "choice": {"p,q": ["p"]}})
    assert mu.choice[3] == 1
    assert mu.choice[1] == 1 and mu.choice[2] == 2  # identity default


def test_explicit_domain_serialization():
    u = Universe(["a", "b"])
    s = build(u, [u.subset(["a"]), u.full], {})
    doc = s.to_dict()
    assert doc["domain"] == [["a"], ["a", "b"]]
    again = system_from_dict(doc)
    assert again.domain_masks == s.domain_masks
