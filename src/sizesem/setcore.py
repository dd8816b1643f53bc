"""Finite universes and bit-vector subsets.

Everything downstream quantifies over subsets of one small universe, so this
module fixes the two conventions the rest of the package relies on:

* a subset is a bit vector over the universe's element positions, and two
  subsets are interchangeable exactly when their bit vectors are equal;
* the canonical enumeration order is ascending cardinality, ties broken by
  ascending bit-vector value.  Every "first witness" reported anywhere in the
  workbench means first in this order, which keeps reports reproducible.

Values are immutable; operations on subsets of different universes raise
WidthMismatch instead of coercing.  `down_closed`, `union_closed` and
`unions` test a family of masks; the local size properties and the rules
decide a base set or antecedent by them.  `Columns` is a check's test below a
base set: of its family alone, and over bit columns of many candidates at once.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import CapacityExceeded, UnknownElementLabel, WidthMismatch

CAPACITY = 6  # most elements a universe may have


def canon_key(mask: int) -> tuple[int, int]:
    """Sort key realizing the canonical subset order."""
    return (mask.bit_count(), mask)


_RANKS: dict[int, tuple[int, ...]] = {}


def canon_rank(size: int) -> tuple[int, ...]:
    """rank[mask] = position of mask in the canonical order of all masks over
    `size` elements.  Built on first use per size, then shared.

    `sorted(masks, key=canon_rank(n).__getitem__)` orders exactly like
    `key=canon_key`, with a table lookup in place of a Python call per mask.
    """
    rank = _RANKS.get(size)
    if rank is None:
        table = [0] * (1 << size)
        for pos, mask in enumerate(sorted(range(1 << size), key=canon_key)):
            table[mask] = pos
        rank = _RANKS[size] = tuple(table)
    return rank


_SUBMASKS: dict[int, tuple[int, ...]] = {}


def submasks(mask: int) -> tuple[int, ...]:
    """All submasks of `mask` in canonical order.

    Filled lazily, one entry per mask asked for, and shared: the result is an
    immutable tuple so no caller can corrupt another's copy.
    """
    subs = _SUBMASKS.get(mask)
    if subs is None:
        out = []
        sub = 0
        while True:
            out.append(sub)
            if sub == mask:
                break
            sub = (sub - mask) & mask
        out.sort(key=canon_key)
        subs = _SUBMASKS[mask] = tuple(out)
    return subs


def down_closed(fam) -> bool:
    """Whether every subset of a member of fam is a member, checked one
    element off at a time."""
    for x in fam:
        rest = x
        while rest:
            low = rest & -rest
            if x ^ low not in fam:
                return False
            rest ^= low
    return True


def union_closed(fam) -> bool:
    """Whether the union of any two members of fam is a member."""
    for x in fam:
        for y in fam:
            if x | y not in fam:
                return False
    return True


def unions(fam, j: int, stop: int) -> set[int]:
    """The unions of j members of fam, repeats allowed, so of 1 to j distinct
    ones; cut short once stop is among them."""
    reach = set(fam)
    for _ in range(j - 1):
        if stop in reach:
            break
        grown = {x | y for x in reach for y in fam}  # ⊇ reach: x | x = x
        if len(grown) == len(reach):
            break
        reach = grown
    return reach


class Columns(NamedTuple):
    """A check's test below a base set Y, in two parts.  alone(y, I(Y)), if
    given, decides the instances that read I(Y) alone.  The column part tests
    the candidates for I(Y) over bit columns: cols[a] has bit i set iff the
    i-th candidate holds a ⊆ Y (Knuth, TAOCP 4A §7.1.3).  cross(cols, y, x,
    I(X)), if given, is the mask of the candidates passing every instance that
    reads I(Y) and I(X), X ⊊ Y; with `pairs`, I(X) and I(Y − X).  Bits above
    the last candidate mean nothing, so a mask may be negative.  Called as
    test(y, ideals), it decides one family I(Y).
    """

    cross: Callable[..., int] | None = None
    pairs: bool = False
    alone: Callable[[int, frozenset], bool] | None = None

    def parts(self, y: int) -> list[tuple[int, ...]]:
        """The nonempty X ⊊ Y that cross reads, or the splits (X, Y − X), X < Y − X."""
        xs = submasks(y)[1:-1] if self.cross else ()
        return [(x, y & ~x) for x in xs if x < y & ~x] if self.pairs else [(x,) for x in xs]

    def __call__(self, y: int, ideals) -> bool:
        fam = ideals[y]
        cols = {a: a in fam for a in submasks(y)}  # bools are one-bit ints
        ok = -1 if self.alone is None or self.alone(y, fam) else 0
        for part in self.parts(y):
            if all(x in ideals for x in part):
                ok &= self.cross(cols, y, part[0], *map(ideals.__getitem__, part))
        return bool(ok & 1)


class Universe:
    """An ordered list of distinct element labels; positions index bit vectors."""

    __slots__ = ("elements", "full_mask", "_index", "_all_masks")

    def __init__(self, elements: Iterable[str]):
        elems = tuple(elements)
        if not elems:
            raise ValueError("universe needs at least one element")
        if len(elems) > CAPACITY:
            raise CapacityExceeded(f"{len(elems)} elements exceed capacity {CAPACITY}")
        seen = set()
        for label in elems:
            if not isinstance(label, str) or not label:
                raise ValueError(f"bad element label {label!r}")
            if "," in label:  # "," joins labels in the set keys of system files
                raise ValueError(f"element label {label!r} may not contain ','")
            if label in seen:
                raise ValueError(f"duplicate element label {label!r}")
            seen.add(label)
        self.elements = elems
        self.full_mask = (1 << len(elems)) - 1
        self._index = {label: i for i, label in enumerate(elems)}
        self._all_masks: tuple[int, ...] | None = None

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownElementLabel(f"unknown element label {label!r}") from None

    def subset(self, labels: Iterable[str] = ()) -> Subset:
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return Subset(self, mask)

    def subset_from_mask(self, mask: int) -> Subset:
        return Subset(self, mask)

    @property
    def empty(self) -> Subset:
        return Subset(self, 0)

    @property
    def full(self) -> Subset:
        return Subset(self, self.full_mask)

    def all_masks(self) -> tuple[int, ...]:
        """Every subset mask, canonical order.  Cached; universes are immutable."""
        if self._all_masks is None:
            self._all_masks = tuple(sorted(range(1 << self.size), key=canon_key))
        return self._all_masks

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Universe) and self.elements == other.elements

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"Universe({list(self.elements)!r})"


class Subset:
    """An immutable subset of a universe, backed by an int bit vector."""

    __slots__ = ("universe", "mask")

    def __init__(self, universe: Universe, mask: int):
        if mask < 0 or mask > universe.full_mask:
            raise WidthMismatch(f"mask {mask:#x} does not fit universe of size {universe.size}")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Subset is immutable")

    def labels(self) -> tuple[str, ...]:
        """Member labels in universe position order (the serialization order)."""
        return tuple(
            label for i, label in enumerate(self.universe.elements) if self.mask >> i & 1
        )

    def __contains__(self, label: str) -> bool:
        return bool(self.mask >> self.universe.index(label) & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subset)
            and self.mask == other.mask
            and self.universe == other.universe
        )

    def __hash__(self) -> int:
        return hash((self.universe.elements, self.mask))

    def __repr__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"

    def _same(self, other: Subset) -> None:
        if self.universe != other.universe:
            raise WidthMismatch("subsets belong to different universes")

    def union(self, other: Subset) -> Subset:
        self._same(other)
        return Subset(self.universe, self.mask | other.mask)

    def intersection(self, other: Subset) -> Subset:
        self._same(other)
        return Subset(self.universe, self.mask & other.mask)

    def difference(self, other: Subset) -> Subset:
        self._same(other)
        return Subset(self.universe, self.mask & ~other.mask)

    __or__ = union
    __and__ = intersection
    __sub__ = difference


def complement(u: Universe, a: Subset) -> Subset:
    """u − a."""
    if a.universe != u:
        raise WidthMismatch("subset does not belong to the given universe")
    return Subset(u, u.full_mask & ~a.mask)


def relative_difference(x: Subset, b: Subset) -> Subset:
    """x − b."""
    return x.difference(b)


def is_subset(a: Subset, b: Subset) -> bool:
    a._same(b)
    return a.mask & ~b.mask == 0


def enumerate_subsets(u: Universe, of: Subset) -> Iterator[Subset]:
    """All 2^|of| subsets of `of`, canonical order, deterministic across runs."""
    if of.universe != u:
        raise WidthMismatch("subset does not belong to the given universe")
    for mask in submasks(of.mask):
        yield Subset(u, mask)
