import itertools

import pytest
from hypothesis import given, strategies as st

from sizesem.errors import CapacityExceeded, UnknownElementLabel, WidthMismatch
from sizesem.setcore import (
    Universe,
    canon_rank,
    complement,
    enumerate_subsets,
    is_subset,
    relative_difference,
    submasks,
)


def test_complement_examples(u3):
    assert complement(u3, u3.subset(["x", "z"])) == u3.subset(["y"])
    assert complement(u3, u3.empty) == u3.full
    assert complement(u3, u3.full) == u3.empty


def test_relative_difference_examples():
    u = Universe(["a", "b", "c"])
    assert relative_difference(u.full, u.subset(["b"])) == u.subset(["a", "c"])
    assert relative_difference(u.subset(["a"]), u.subset(["a"])) == u.empty
    assert relative_difference(u.subset(["a", "c"]), u.empty) == u.subset(["a", "c"])


def test_is_subset_examples(u3):
    assert is_subset(u3.subset(["x"]), u3.subset(["x", "z"]))
    assert not is_subset(u3.subset(["x", "y"]), u3.subset(["x", "z"]))
    assert is_subset(u3.empty, u3.subset(["y"]))


def test_enumerate_subsets_canonical_order(u3):
    two = u3.subset(["x", "y"])
    assert [s.labels() for s in enumerate_subsets(u3, two)] == [
        (), ("x",), ("y",), ("x", "y")
    ]
    assert [s.labels() for s in enumerate_subsets(u3, u3.empty)] == [()]
    assert len(list(enumerate_subsets(u3, u3.full))) == 8


def test_enumeration_is_bijective_and_reproducible(u3):
    first = [s.mask for s in enumerate_subsets(u3, u3.full)]
    second = [s.mask for s in enumerate_subsets(u3, u3.full)]
    assert first == second
    assert len(set(first)) == 2 ** u3.size
    cards = [m.bit_count() for m in first]
    assert cards == sorted(cards)


def test_complement_roundtrip_exhaustive():
    u = Universe(["a", "b", "c", "d"])
    for s in enumerate_subsets(u, u.full):
        assert complement(u, complement(u, s)) == s


def test_de_morgan_exhaustive():
    u = Universe(["a", "b", "c", "d"])
    subs = list(enumerate_subsets(u, u.full))
    for a, b in itertools.product(subs, repeat=2):
        assert complement(u, a | b) == complement(u, a) & complement(u, b)


def test_universe_validation():
    with pytest.raises(ValueError):
        Universe([])
    with pytest.raises(ValueError):
        Universe(["a", "a"])
    with pytest.raises(ValueError):
        Universe(["a", ""])
    # Set keys in system and choice files join labels with ",".
    with pytest.raises(ValueError, match="may not contain ','"):
        Universe(["x,y", "z"])
    with pytest.raises(CapacityExceeded):
        Universe(list("abcdefg"))


def test_unknown_label(u3):
    with pytest.raises(UnknownElementLabel):
        u3.subset(["w"])


def test_cross_universe_rejected(u3):
    other = Universe(["x", "y"])
    with pytest.raises(WidthMismatch):
        u3.subset(["x"]).union(other.subset(["x"]))
    with pytest.raises(WidthMismatch):
        complement(other, u3.subset(["x"]))


def test_value_semantics(u3):
    again = Universe(["x", "y", "z"])
    assert u3 == again
    assert u3.subset(["x"]) == again.subset(["x"])
    assert hash(u3.subset(["x"])) == hash(again.subset(["x"]))
    assert u3.subset(["x"]) != u3.subset(["y"])


def test_subset_is_immutable(u3):
    s = u3.subset(["x"])
    with pytest.raises(AttributeError):
        s.mask = 3


@given(st.integers(min_value=1, max_value=6), st.data())
def test_ops_agree_with_python_sets(n, data):
    labels = [f"e{i}" for i in range(n)]
    u = Universe(labels)
    a_labels = data.draw(st.sets(st.sampled_from(labels)))
    b_labels = data.draw(st.sets(st.sampled_from(labels)))
    a, b = u.subset(a_labels), u.subset(b_labels)
    assert set((a | b).labels()) == a_labels | b_labels
    assert set((a & b).labels()) == a_labels & b_labels
    assert set((a - b).labels()) == a_labels - b_labels
    assert is_subset(a, b) == (a_labels <= b_labels)
    assert set(complement(u, a).labels()) == set(labels) - a_labels


def test_submasks_match_brute_force_at_capacity_7():
    # submasks takes bare masks, so it serves masks wider than any universe
    full = (1 << 7) - 1
    for mask in range(full + 1):
        expected = sorted(
            (m for m in range(full + 1) if not m & ~mask),
            key=lambda m: (bin(m).count("1"), m),
        )
        got = submasks(mask)
        # a shared result must be immutable, or one caller could corrupt it
        assert isinstance(got, tuple)
        assert list(got) == expected
        assert submasks(mask) == got


@pytest.mark.parametrize("size", range(8))
def test_canon_rank_is_the_canonical_order(size):
    masks = list(range(1 << size))
    rank = canon_rank(size)
    by_size_then_value = sorted(masks, key=lambda m: (bin(m).count("1"), m))
    assert sorted(masks, key=rank.__getitem__) == by_size_then_value
    assert sorted(rank) == masks
