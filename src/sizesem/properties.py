"""Checkers for the size-property vocabulary of coherent systems.

Each property is a universally quantified condition over a system's domain
family 𝒴 and, where the condition speaks about subsets of a member, over all
subsets of that member (ideals are families over the member's full powerset,
whether or not those subsets are themselves in 𝒴).  The checkable vocabulary:

    Opt            ∅ ∈ I(X)                       ("all of X is big")
    iM             A ⊆ B ∈ I(X) ⇒ A ∈ I(X)        (inner monotony)
    eMI            X ⊆ Y ⇒ I(X) ⊆ I(Y)            (outer monotony, ideals)
    eMF            X ⊆ Y ⇒ F(Y) ∩ 𝒫(X) ⊆ F(X)     (outer monotony, filters)
    I-union-disj   A ∈ I(X), B ∈ I(Y), X∩Y=∅ ⇒ A∪B ∈ I(X∪Y)
    F-union-disj   dual of the above for filters
    1*s / n*s:k    no k small subsets of X union to X
    I-omega        small sets are closed under union
    M+n:k          X₁ ∈ F(X₂), …, X_{k−1} ∈ F(X_k) ⇒ X₁ ∉ I(X_k)
    M+omega:1      A ∈ F(X), X ∈ M+(Y) ⇒ A ∈ M+(Y)
    M+omega:2      A ∈ M+(X), X ∈ F(Y) ⇒ A ∈ M+(Y)
    M+omega:3      A ∈ F(X), X ∈ F(Y) ⇒ A ∈ F(Y)
    M+omega:4      A, B ∈ I(X) ⇒ A − B ∈ I(X − B)
    M++:1          A ∈ I(X), B ∉ F(X) ⇒ A − B ∈ I(X − B)
    M++:2          A ∈ F(X), B ∉ F(X) ⇒ A − B ∈ F(X − B)
    M++:3          A ∈ M+(X), X ∈ M+(Y) ⇒ A ∈ M+(Y)

where A, B ⊆ X ⊆ Y and M+(X) holds the subsets of X that are not small.
Opt, iM, I-omega and n*s:k are local: each is a row of `_local_scan`, which
decides every base set X from I(X) alone by one test in `_LOCAL`, ∅ ∈ I(X)
or one of `setcore.down_closed`, `union_closed` and `unions`, which is its
`below`'s `Columns.alone`, shared by seven rules.  Eleven properties relate
two base sets; each is a row (scan, column test) of one of three factories:
`_nested_row` (eMI, eMF, M+omega:1–3, M++:3), `_carrier_row` (M+omega:4,
M++:1–2) and `_union_row` (I-union-disj, F-union-disj).  M+n reads a chain
of sets and is decided per first set X1.

Every instance has a largest set Y (the base set of a local row, the larger
set of a nested pair, the base of the carriers X − B, the union X ∪ Y, the
last set of an M+n chain) and reads I(Y) and the ideals of subsets of Y
alone: a property holds iff it holds below every Y (`below`).  A two-level
instance reads I(Y) and one I(X) besides (X the smaller set, the carrier,
or the split X, Y − X), so a row's test below Y is a column test
(`setcore.Columns`): given I(X), the mask of the candidates for I(Y) that
pass, over bit columns of the candidates.

A failed check reports the canonically first violating instantiation (subset
order: ascending cardinality, then bit value; tuples ordered lexicographically
in the variables' order of appearance).  `instances_checked` counts the
instantiations the scan examined before reaching its verdict; a check with
nothing to examine is vacuously true and says so in its notes.

Instances of the carrier rows (M+omega:4, M++:1/2) whose carrier X−B would
be empty are skipped: no domain may contain ∅.  A nonempty carrier missing
from the domain raises DomainNotClosed instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from operator import mul
from typing import Callable

from .errors import DomainNotClosed
from .report import CheckReport, Witness, guarded_report, scan_report
from .setcore import Columns, Subset, canon_rank, down_closed, submasks, union_closed, unions
from .sizesys import SizeSystem, _label_key

_PARAM_TAGS = ("n*s", "M+n", "M+omega", "M++")

Scan = Callable[[SizeSystem], tuple[int, Witness]]


@dataclass(frozen=True)
class PropertyId:
    """One property of the vocabulary: a tag of `_SCANS`, and its parameter."""

    tag: str
    param: int | None = None

    def __post_init__(self):
        if self.tag not in _SCANS:
            raise ValueError(f"unknown property tag {self.tag!r}")
        if self.tag == "n*s" and (self.param is None or self.param < 1):
            raise ValueError("n*s needs n >= 1")
        if self.tag == "M+n" and (self.param is None or self.param < 3):
            raise ValueError("M+n needs n >= 3")
        rows = _VARIANTS.get(self.tag)
        if rows is not None and self.param not in rows:
            raise ValueError(f"{self.tag} variant must be 1..{len(rows)}")
        if self.tag not in _PARAM_TAGS and self.param is not None:
            raise ValueError(f"{self.tag} takes no parameter")

    @property
    def name(self) -> str:
        if self.tag == "n*s":
            return "1*s" if self.param == 1 else f"n*s:{self.param}"
        if self.param is not None:
            return f"{self.tag}:{self.param}"
        return self.tag

    def __str__(self) -> str:
        return self.name


def n_star_s(n: int) -> PropertyId:
    return PropertyId("n*s", n)


def m_plus_n(n: int) -> PropertyId:
    return PropertyId("M+n", n)


def m_plus_omega(variant: int) -> PropertyId:
    return PropertyId("M+omega", variant)


def m_plus_plus(variant: int) -> PropertyId:
    return PropertyId("M++", variant)


def parse_property(text: str) -> PropertyId:
    text = text.strip()
    base, colon, arg = text.partition(":")
    if base in _SCANS and base not in _PARAM_TAGS:
        if colon:  # a bare "eMI:" too
            raise ValueError(f"{base} takes no parameter")
        return PropertyId(base)
    if text.endswith("*s") and not arg and text[:-2].isdecimal():
        return n_star_s(int(text[:-2]))
    if base in _PARAM_TAGS and arg.isdecimal():
        return PropertyId(base, int(arg))
    raise ValueError(f"unknown property name {text!r}")


# --- internal scan helpers ---------------------------------------------------


def _rank_key(s: SizeSystem):
    """Canonical-order sort key for masks of s, as a table lookup."""
    return canon_rank(s.universe.size).__getitem__


class _Links(dict):
    """X ↦ the Y that may follow X in an M+n chain (X ∈ F(Y)), in domain
    order, listed on first use."""

    def __init__(self, s: SizeSystem):
        super().__init__()
        self.domain, self.ideals = s.domain_masks, s.ideals

    def __missing__(self, x: int) -> list[int]:
        ideals = self.ideals
        nxt = self[x] = [y for y in self.domain if not x & ~y and (y & ~x) in ideals[y]]
        return nxt


def _check_m_plus_n(s: SizeSystem, n: int) -> tuple[int, Witness]:
    """Instances the chains X1, …, Xn of domain members with each X_i ∈
    F(X_{i+1}), failing where X1 ∈ I(Xn); X1 in domain order, then each next
    link in domain order.

    X1 fails iff it is in I(Y) for a set Y it reaches in n − 1 links; where
    it holds, its chains are counted in closed form, link by link.  Only the
    first failing X1 is walked, in chain order; a set the walk has finished
    at the same place in a chain adds its chains at once."""
    ideals = s.ideals
    links = _Links(s)
    count = 0
    for x1 in s.domain_masks:
        front = dict.fromkeys(links[x1], 1)  # the sets one link on, with their chains
        for _ in range(n - 3):
            step: dict[int, int] = {}
            for x, chains in front.items():
                for y in links[x]:
                    step[y] = step.get(y, 0) + chains
            front = step
        for x in front:  # the last link
            for y in links[x]:
                if x1 in ideals[y]:
                    break
            else:
                continue
            break
        else:
            count += sum(map(mul, front.values(), map(len, map(links.__getitem__, front))))
            continue
        done: dict[tuple[int, int], int] = {}  # (i, X) ↦ the chains on from X as X_i
        chain, todo, subtotals = [x1], [iter(links[x1])], [0]
        while True:
            y = next(todo[-1], None)
            if y is None:  # every chain through the last set is counted
                x, finished = chain.pop(), subtotals.pop()
                done[len(chain) + 1, x] = finished
                todo.pop()
                subtotals[-1] += finished
            elif len(chain) == n - 1:
                subtotals[-1] += 1
                if x1 in ideals[y]:
                    chain.append(y)
                    return count + sum(subtotals), tuple((f"X{i+1}", x) for i, x in enumerate(chain))
            elif (len(chain) + 1, y) in done:
                subtotals[-1] += done[len(chain) + 1, y]
            else:
                chain.append(y)
                todo.append(iter(links[y]))
                subtotals.append(0)
    return count, None


def _m_plus_n_below(n: int, y: int, ideals) -> bool:
    """M+n:n below Y = Xn: no set n − 1 links back from Y may be in I(Y)."""
    reached = {y}
    for _ in range(n - 1):
        step = {x for z in reached for x in submasks(z) if x in ideals and z & ~x in ideals[z]}
        if step == reached:  # a fixpoint: every later step reaches the same sets
            break
        reached = step
    return ideals[y].isdisjoint(reached)


# --- local properties: one row per base set -----------------------------------
#
# Each local tag has one test, test(X, I(X)[, k]): whether the property holds
# at X on I(X) alone (`_LOCAL`).  A row at(X, I(X), key, held[, k]) takes its
# verdict and returns (the instances at X, the witness after X, or None), with
# key the canonical sort key.  Where the test holds, X's count comes in closed
# form; only a failing X is walked, in canonical order.


def _opt_at(x: int, fam, key, held: bool) -> tuple[int, Witness]:
    """Opt at X: one instance, failing iff ∅ ∉ I(X)."""
    return 1, None if held else ()


def _im_at(x: int, fam, key, held: bool) -> tuple[int, Witness]:
    """iM at X: instances (A, B), A ∉ I(X) and A ⊆ B ⊆ X, so 2^|X−A| per A."""
    subs = submasks(x)
    if held:
        return sum(1 << (x & ~a).bit_count() for a in subs if a not in fam), None
    count = 0
    for a in subs:
        if a in fam:
            continue
        for b in subs:
            if a & ~b:
                continue
            count += 1
            if b in fam:
                return count, (("A", a), ("B", b))


def _iomega_at(x: int, fam, key, held: bool) -> tuple[int, Witness]:
    """I-omega at X: instances (A, B), A and B in I(X)."""
    if held:
        return len(fam) ** 2, None
    members = sorted(fam, key=key)
    count = 0
    for a in members:
        for b in members:
            count += 1
            if a | b not in fam:
                return count, (("A", a), ("B", b))


def _cover_at(x: int, fam, key, held: bool, n: int) -> tuple[int, Witness]:
    """n*s:n at X: instances the n-tuples over I(X), failing where they cover
    X.  The first such tuple takes, at each place, the first member that the
    places left can complete to a cover."""
    if held:
        return len(fam) ** n, None
    members = sorted(fam, key=key)
    picks, cur = [], 0
    for left in range(n - 1, -1, -1):
        reach = unions(fam, left, x) | {0} if left else {0}  # unions of ≤ left members
        a = next(a for a in members if any(not x & ~(cur | a | u) for u in reach))
        picks.append(a)
        cur |= a
    return len(fam) ** n, tuple((f"A{i+1}", a) for i, a in enumerate(picks))


def _local_scan(test, at) -> Scan:
    """The scan of a local property: its row at each X in domain order, the
    counts added up to the first X with a witness."""

    def scan(s: SizeSystem, *param: int) -> tuple[int, Witness]:
        ideals = s.ideals
        key = _rank_key(s)
        count = 0
        for x in s.domain_masks:
            fam = ideals[x]
            at_x, rest = at(x, fam, key, test(x, fam, *param), *param)
            count += at_x
            if rest is not None:
                return count, (("X", x), *rest)
        return count, None

    return scan


# --- two-level properties: size classes and their rows -------------------------
#
# A subset A of X has one of four size classes in X: small (A ∈ I(X)), big
# (A ∈ F(X), i.e. X − A ∈ I(X)), not small (A ∈ M+(X)) or not big.  A class
# is the pair (complemented, member): A is in it iff whether X − A (if
# complemented) or A is in I(X) equals member.
#
# Each two-level property is a row (scan, column test): the scan of a system,
# and its test below one base set Y over the bit columns of the candidates for
# I(Y) (`setcore.Columns`), one proper subset X (or split) at a time.

_SMALL = (False, True)
_BIG = (True, True)
_NOT_SMALL = (False, False)
_NOT_BIG = (True, False)

Below = Callable[[int, dict], bool]


def _has(fam, x: int, a: int, cls) -> bool:
    """Whether A is in class cls of X, where I(X) = fam."""
    complemented, member = cls
    return ((x & ~a if complemented else a) in fam) == member


def _members(cols, x: int, a: int, cls) -> int:
    """The mask of the candidates for I(X) in which A is in class cls."""
    complemented, member = cls
    col = cols[x & ~a if complemented else a]
    return col if member else ~col


@lru_cache(maxsize=64)
def _nesting(domain: tuple[int, ...]) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """X ↦ (the members Y ⊇ X of the domain in domain order, X included; the
    subsets of X in canonical order).  Every system on one domain shares the
    result: read it, never change it."""
    return {x: (tuple(y for y in domain if not x & ~y), submasks(x)) for x in domain}


def _nested_row(link, sides: str, premise, conclusion) -> tuple[Scan, Columns]:
    """The row of "for all X ⊆ Y in the domain and A ⊆ X: X in class link of
    Y, and A in class premise of one set ⇒ A in class conclusion of the
    other".  `sides` "XY" reads the premise at X and the conclusion at Y, "YX"
    the other way round; a link of None asks X ≠ Y instead of a class.

    Instances come as (X, Y, A): X, then Y in domain order, A in canonical
    order.  Where premise and conclusion are one class, the pair Y = X holds
    on every A and adds their number at once (I(X) ⊆ 𝒫(X), as `build` ensures);
    else, with a link, the pair Y = X reads I(Y) alone.
    """
    at_y = sides == "YX"
    lc, lm = link or (False, False)
    pc, pm = premise
    cc, cm = conclusion
    same = premise == conclusion

    def scan(s: SizeSystem) -> tuple[int, Witness]:
        ideals = s.ideals
        count = 0
        for x, (ups, subs) in _nesting(s.domain_masks).items():
            fam_x = ideals[x]
            for y in ups:
                fam_y = ideals[y]
                if y == x if link is None else ((y & ~x if lc else x) in fam_y) != lm:
                    continue  # X ≠ Y, or X in class link of Y, fails
                if same and y == x:  # one instance per A in the class
                    count += len(fam_x) if pm else len(subs) - len(fam_x)
                    continue
                p, fam_p, q, fam_q = (y, fam_y, x, fam_x) if at_y else (x, fam_x, y, fam_y)
                for a in subs:
                    if ((p & ~a if pc else a) in fam_p) != pm:
                        continue
                    count += 1
                    if ((q & ~a if cc else a) in fam_q) != cm:
                        return count, (("X", x), ("Y", y), ("A", a))
        return count, None

    def cross(cols, y: int, x: int, fam_x) -> int:
        """The candidates for I(Y) that pass every instance (X, Y, A)."""
        fail = 0
        for a in submasks(x):
            if at_y:
                if not _has(fam_x, x, a, conclusion):
                    fail |= _members(cols, y, a, premise)
            elif _has(fam_x, x, a, premise):
                fail |= ~_members(cols, y, a, conclusion)
        return ~fail if link is None else ~(fail & _members(cols, y, x, link))

    def alone(y: int, fam) -> bool:
        """Whether I(Y) = fam passes every instance (Y, Y, A)."""
        subs = submasks(y) if _has(fam, y, y, link) else ()
        return all(_has(fam, y, a, conclusion) for a in subs if _has(fam, y, a, premise))

    return scan, Columns(cross, alone=None if link is None or same else alone)


def _carrier_row(premise, cut, conclusion) -> tuple[Scan, Columns]:
    """The row of "for all X in the domain, A in class premise of X, small
    or big, and B ≠ X in class cut of X: A − B in class conclusion of the
    carrier X − B".

    Instances come as (X, A, B): X in domain order, A, then B in canonical
    order.  X's test adds its instances in closed form where it holds; only
    a failing X is walked.  B ≠ X keeps the carrier nonempty; a carrier
    missing from the domain fails the test and raises KeyError at its first
    instance, which `check_property` reports as DomainNotClosed.  Conclusion
    and premise are one class in every row, so B = ∅ (carrier X) always holds.
    """
    big, same = premise == _BIG, cut == premise
    bc, bm = cut
    cc, cm = conclusion

    def parts(x: int, fam_x):
        """(the A in class premise of X, the B in class cut of X, B = X
        among them to be skipped)."""
        bases = [x & ~a for a in fam_x] if big else fam_x  # F(X) or I(X)
        if same:
            return bases, bases
        return bases, [b for b in submasks(x) if ((x & ~b if bc else b) in fam_x) == bm]

    def holds(x: int, ideals, bases, cuts) -> bool:
        for b in cuts:
            if b == x:
                continue
            z = x & ~b
            fam_z = ideals.get(z)
            if fam_z is None:
                return False
            for a in bases:
                # A − B in class conclusion of Z = X − B; Z − (A − B) = Z − A
                if ((z & ~a if cc else a & ~b) in fam_z) != cm:
                    return False
        return True

    def scan(s: SizeSystem) -> tuple[int, Witness]:
        ideals = s.ideals
        key = _rank_key(s)
        count = 0
        for x in s.domain_masks:
            bases, cuts = parts(x, ideals[x])
            if holds(x, ideals, bases, cuts):
                count += len(bases) * (len(cuts) - (x in cuts))
                continue
            bases = sorted(bases, key=key)
            for a in bases:
                for b in bases if same else cuts:
                    if b == x:
                        continue
                    z = x & ~b
                    count += 1
                    if ((z & ~a if cc else a & ~b) in ideals[z]) != cm:
                        return count, (("X", x), ("A", a), ("B", b))
        return count, None

    def cross(cols, y: int, z: int, fam_z) -> int:
        """The candidates for I(Y) that pass every instance (Y, A, B) with
        the carrier Z = Y − B; A − B = A ∩ Z."""
        fail = 0
        for a in submasks(y):
            if not _has(fam_z, z, a & z, conclusion):
                fail |= _members(cols, y, a, premise)
        return ~(fail & _members(cols, y, y & ~z, cut))

    return scan, Columns(cross)


def _union_holds(fam_x, fam_y, fam_u) -> bool:
    """Whether A ∪ B ∈ I(X ∪ Y) for every A ∈ I(X) and B ∈ I(Y).  For disjoint
    X and Y this also decides F-union-disj at (X, Y): with A′ = X − A and
    B′ = Y − B, (X ∪ Y) − (A′ ∪ B′) = A ∪ B."""
    for a in fam_x:
        for b in fam_y:
            if a | b not in fam_u:
                return False
    return True


def _union_cross(cols, u: int, x: int, fam_x, fam_y) -> int:
    """The candidates for I(X ∪ Y) that hold A ∪ B for every A ∈ I(X) and
    B ∈ I(Y): `_union_holds` on each, so for both union rows."""
    ok = -1
    for ab in {a | b for a in fam_x for b in fam_y}:
        ok &= cols[ab]
    return ok


def _union_row(on_filters: bool) -> tuple[Scan, Columns]:
    """The row of I-union-disj, or with on_filters of F-union-disj.

    Instances come as (X, Y, A, B): X, then Y disjoint from X in domain
    order, A and B in canonical order.  A pair (X, Y) is decided by
    `_union_holds`, which adds its instances in closed form where it holds;
    only a failing pair is walked.
    """

    def scan(s: SizeSystem) -> tuple[int, Witness]:
        count = 0
        dom = s.domain_masks
        ideals = s.ideals
        key = _rank_key(s)
        for x in dom:
            fam_x = ideals[x]
            if not fam_x:
                continue
            for y in dom:
                fam_y = ideals[y]
                if x & y or not fam_y:
                    continue
                u = x | y
                if u not in ideals:
                    raise DomainNotClosed(_label_key(s.universe, u), "disjoint union rule")
                fam_u = ideals[u]
                if _union_holds(fam_x, fam_y, fam_u):
                    count += len(fam_x) * len(fam_y)
                    continue
                members_x = sorted([x & ~a for a in fam_x] if on_filters else fam_x, key=key)
                members_y = sorted([y & ~b for b in fam_y] if on_filters else fam_y, key=key)
                for a in members_x:
                    for b in members_y:
                        count += 1
                        ab = u & ~(a | b) if on_filters else a | b
                        if ab not in fam_u:
                            return count, (("X", x), ("Y", y), ("A", a), ("B", b))
        return count, None

    return scan, Columns(_union_cross, pairs=True)


# The two-level rows by (tag, variant).
_ROWS = {
    ("eMI", None): _nested_row(None, "XY", _SMALL, _SMALL),  # X ≠ Y, A ∈ I(X) ⇒ A ∈ I(Y)
    ("eMF", None): _nested_row(None, "YX", _BIG, _BIG),  # X ≠ Y, A ∈ F(Y) ⇒ A ∈ F(X)
    ("I-union-disj", None): _union_row(on_filters=False),
    ("F-union-disj", None): _union_row(on_filters=True),
    # A ∈ F(X), X ∈ M+(Y) ⇒ A ∈ M+(Y)
    ("M+omega", 1): _nested_row(_NOT_SMALL, "XY", _BIG, _NOT_SMALL),
    # A ∈ M+(X), X ∈ F(Y) ⇒ A ∈ M+(Y)
    ("M+omega", 2): _nested_row(_BIG, "XY", _NOT_SMALL, _NOT_SMALL),
    ("M+omega", 3): _nested_row(_BIG, "XY", _BIG, _BIG),  # A ∈ F(X), X ∈ F(Y) ⇒ A ∈ F(Y)
    ("M+omega", 4): _carrier_row(_SMALL, _SMALL, _SMALL),  # A, B ∈ I(X) ⇒ A − B ∈ I(X − B)
    # A ∈ I(X), B ∉ F(X) ⇒ A − B ∈ I(X − B)
    ("M++", 1): _carrier_row(_SMALL, _NOT_BIG, _SMALL),
    # A ∈ F(X), B ∉ F(X) ⇒ A − B ∈ F(X − B)
    ("M++", 2): _carrier_row(_BIG, _NOT_BIG, _BIG),
    # A ∈ M+(X), X ∈ M+(Y) ⇒ A ∈ M+(Y)
    ("M++", 3): _nested_row(_NOT_SMALL, "XY", _NOT_SMALL, _NOT_SMALL),
}

# M+omega and M++ are families of variants, one row each.
_VARIANTS = {tag: {v for t, v in _ROWS if t == tag} for tag in ("M+omega", "M++")}

# The local properties by tag: (the test at one base set, the row).
_LOCAL = {
    "Opt": (lambda x, fam: 0 in fam, _opt_at),
    "iM": (lambda x, fam: down_closed(fam), _im_at),
    "n*s": (lambda x, fam, n: x not in unions(fam, n, x), _cover_at),
    "I-omega": (lambda x, fam: union_closed(fam), _iomega_at),
}

# The property vocabulary: each tag's scan returns (instances_checked, witness).
# Parameterised tags take the PropertyId's parameter as a second argument.
_SCANS = {
    **{tag: _local_scan(*row) for tag, row in _LOCAL.items()},
    **{tag: scan for (tag, v), (scan, _) in _ROWS.items() if v is None},
    "M+n": _check_m_plus_n,
    "M+omega": lambda s, v: _ROWS["M+omega", v][0](s),
    "M++": lambda s, v: _ROWS["M++", v][0](s),
}

PROPERTY_TAGS = frozenset(_SCANS)


def below(p: PropertyId) -> Below:
    """p's test below(Y, ideals) of the instances whose largest set is Y, on
    I(Y) and the ideals of the domain's subsets of Y: a `Columns`, whose
    `alone` is a local property's test at Y and whose column part is a
    two-level row's; M+n's is a test of the one family.  On a domain closed
    under p's carriers and disjoint unions, p holds iff it holds at every Y."""
    if p.tag in _LOCAL:
        test, param = _LOCAL[p.tag][0], () if p.param is None else (p.param,)
        return Columns(alone=lambda y, fam: test(y, fam, *param))
    if p.tag == "M+n":
        return partial(_m_plus_n_below, p.param)
    return _ROWS[p.tag, p.param][1]


OPT = PropertyId("Opt")
IM = PropertyId("iM")
EMI = PropertyId("eMI")
EMF = PropertyId("eMF")
I_UNION_DISJ = PropertyId("I-union-disj")
F_UNION_DISJ = PropertyId("F-union-disj")
IOMEGA = PropertyId("I-omega")


def _scan_property(s: SizeSystem, p: PropertyId) -> tuple[int, Witness]:
    """(instances_checked, first witness or None) of p on s."""
    scan = _SCANS[p.tag]
    try:
        return scan(s) if p.param is None else scan(s, p.param)
    except KeyError as exc:  # a carrier X − B outside the domain
        raise DomainNotClosed(_label_key(s.universe, exc.args[0]), p.name) from None


def check_property(s: SizeSystem, p: PropertyId) -> CheckReport:
    """Decide one table property over all instances in s; canonical witness."""
    count, witness = _scan_property(s, p)
    notes = ()
    if p.tag in ("n*s", "M+n") and p.param > s.universe.size + 1:
        notes = (f"parameter {p.param} exceeds |U|+1; condition near-vacuous",)
    return scan_report(s.label, p.name, s.universe, count, witness, notes)


LEVEL_CONSTITUENTS = (OPT, IM, EMI, EMF)


def check_level(s: SizeSystem, x: int) -> CheckReport:
    """Level-x check: Opt, iM, eMI, eMF and x*s together."""
    if x < 1:
        raise ValueError("level must be >= 1")
    parts = list(LEVEL_CONSTITUENTS) + [n_star_s(x)]
    total = 0
    for part in parts:
        rep = check_property(s, part)
        total += rep.instances_checked
        if not rep.holds:
            return CheckReport(
                subject=s.label,
                condition=f"level:{x}",
                holds=False,
                witness=rep.witness,
                instances_checked=total,
                notes=(f"constituent {part.name} fails",) + rep.notes,
            )
    return CheckReport(
        subject=s.label, condition=f"level:{x}", holds=True, instances_checked=total
    )


def property_matrix(s: SizeSystem, ps: list[PropertyId]) -> list[CheckReport]:
    """One report per requested property; errors become error reports."""
    return [guarded_report(check_property, s, p) for p in ps]


# --- independent single-instance re-evaluation (used by the test suite) ------


def witness_violates(s: SizeSystem, p: PropertyId, witness: dict[str, Subset]) -> bool:
    """Re-evaluate the condition body on one named instantiation.

    Returns True when the instance is a genuine violation.  Written directly
    from the condition formulas, independent of the scanning code above.
    """
    w = {name: sub.mask for name, sub in witness.items()}
    ideals = s.ideals

    def small(x: int, a: int) -> bool:
        return a in ideals[x]

    def big(x: int, a: int) -> bool:
        return small(x, x & ~a)

    tag, v = p.tag, p.param
    if tag == "Opt":
        return not small(w["X"], 0)
    if tag == "iM":
        x, a, b = w["X"], w["A"], w["B"]
        return not a & ~b and small(x, b) and not small(x, a)
    if tag == "eMI":
        x, y, a = w["X"], w["Y"], w["A"]
        return not x & ~y and small(x, a) and not small(y, a)
    if tag == "eMF":
        x, y, a = w["X"], w["Y"], w["A"]
        return not x & ~y and not a & ~x and big(y, a) and not big(x, a)
    if tag == "I-union-disj":
        x, y, a, b = w["X"], w["Y"], w["A"], w["B"]
        return not x & y and small(x, a) and small(y, b) and not small(x | y, a | b)
    if tag == "F-union-disj":
        x, y, a, b = w["X"], w["Y"], w["A"], w["B"]
        return not x & y and big(x, a) and big(y, b) and not big(x | y, a | b)
    if tag == "n*s":
        x = w["X"]
        parts = [w[f"A{i+1}"] for i in range(v)]
        union = 0
        for part in parts:
            union |= part
        return all(small(x, part) for part in parts) and union == x
    if tag == "I-omega":
        x, a, b = w["X"], w["A"], w["B"]
        return small(x, a) and small(x, b) and not small(x, a | b)
    if tag == "M+n":
        chain = [w[f"X{i+1}"] for i in range(v)]
        links = all(big(chain[i + 1], chain[i]) for i in range(v - 1))
        return links and small(chain[-1], chain[0])
    if tag == "M+omega":
        if v == 4:
            x, a, b = w["X"], w["A"], w["B"]
            return small(x, a) and small(x, b) and b != x and not small(x & ~b, a & ~b)
        x, y, a = w["X"], w["Y"], w["A"]
        if v == 1:
            return big(x, a) and not small(y, x) and small(y, a)
        if v == 2:
            return not small(x, a) and big(y, x) and small(y, a)
        return big(x, a) and big(y, x) and not big(y, a)
    if tag == "M++":
        if v == 3:
            x, y, a = w["X"], w["Y"], w["A"]
            return not small(x, a) and not small(y, x) and small(y, a)
        x, a, b = w["X"], w["A"], w["B"]
        if b == x:
            return False
        z = x & ~b
        if v == 1:
            return small(x, a) and not big(x, b) and not small(z, a & ~b)
        return big(x, a) and not big(x, b) and not big(z, a & ~b)
    raise ValueError(f"unhandled property {p!r}")  # pragma: no cover
