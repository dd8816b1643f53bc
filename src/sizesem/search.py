"""Exhaustive enumeration of size systems over small universes.

The search space for one universe is the product, over the nonempty subsets
X, of the ideal families allowed at X.  Every enumerated family contains ∅,
and with `monotone_only` the families are the down-sets, which shrinks the
space by orders of magnitude: 2, 5, 19, 167, ... per base-set size, and the
product grows Dedekind-fast.  Hence the size ceilings: exhaustive runs stop
at size 4 (at size 3 without `monotone_only`), size 5 needs both
`monotone_only` and `canonical_only`, and size 6 is refused.  Each (size,
monotone) has one shared `_SystemSpace`.

Ordering is canonical everywhere: families are ordered by their code (the
bitmask of their members, indexed in canonical subset order), assignments
lexicographically across base sets, and with `canonical_only` only the
lexicographically least system of each element-relabeling class (its
lex-leader) is emitted.  Every scan reads its stream in that order, one item
at a time, so first findings are reproducible.

Every property and rule is invariant under relabeling the elements, so the
scans over the raw stream (`find_counterexample`, `verify_implication` and
`count_systems` without `canonical_only`, the `_upto` verifiers, the
agreements and the correspondence rows) run on the lex-leaders alone, each
weighted by its class size, sizes 1..n chained into one scan.  They report
what a scan of every system would: the same first failing system with its
raw label, and exact counts.  The leaders come from one walk that prunes
block by block (the base sets of one cardinality), after the lex-leader
constraints of Crawford, Ginsberg, Luks and Roy (KR 1996).

The walk also prunes by every check it is given.  Each holds on a system iff
it holds below every base set Y, on I(Y) and the ideals of the subsets of Y
(`properties.below`, `rules.below`), which sit in earlier blocks; so do the
rules of the correspondence rows on I-omega systems (`preferential.below`).
The two-level and pairwise tests below Y are column masks: one AND over bit
columns of Y's families per subset of Y and its family (`setcore.Columns`).
A relabeling that fixes the prefix maps a family that passes to one that
passes, so the pruned walk yields exactly the leaders that have the checks,
with their stabilizers, and no check is decided per leader.  A count sums
the weights of one walk's cells (`count`).  Every other search compares
walks (`_parting`): an implication or a find those pruned by the required
checks with and without the target, an agreement one per id.  The first
leader that some but not all of them reach is the first failing system,
and only it gets a report.  One walk over the union of their trees finds
it (`_SystemSpace.union_cells`): each cell carries the tuples of checks
that hold on its prefix, and marks its options with the tuples that allow
them where the tuples' lists differ, so only the cells with marks, or that
some tuple does not reach, are expanded.  With `canonical_only` a leader
counts once, labelled by its position among all leaders.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb, factorial, prod
from typing import Callable, Iterable, Iterator

from .errors import CapacityExceeded
from . import properties, rules
from .properties import LOCAL_TAGS, PropertyId, _scan_property, check_property, holds_at
from .report import CheckReport
from .rules import RuleId, _scan_rule, check_rule
from .setcore import Columns, Subset, Universe, submasks
from .sizesys import SizeSystem, full_domain_masks

EXHAUSTIVE_CEILING = 4
CANONICAL_CEILING = 5  # monotone lex-leader streams only
NON_MONOTONE_CEILING = 3  # the full set of size 4 alone has 32 768 families with ∅

CheckId = PropertyId | RuleId


@dataclass(frozen=True)
class SearchSpec:
    universe_size: int
    required: tuple[CheckId, ...] = ()
    target: CheckId | None = None
    mode: str = "find-counterexample"  # | "verify-implication" | "count"
    monotone_only: bool = True
    canonical_only: bool = False

    def __post_init__(self):
        if not isinstance(self.required, tuple):
            object.__setattr__(self, "required", tuple(self.required))
        if self.mode not in ("find-counterexample", "verify-implication", "count"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.target is None and self.mode != "count":
            raise ValueError(f"mode {self.mode!r} needs a target")
        if self.target is not None and self.mode == "count":
            raise ValueError("count mode takes no target")
        if self.target is not None and self.target in self.required:
            raise ValueError("target may not be in required")

    def to_dict(self) -> dict:
        return {
            "universe_size": self.universe_size,
            "required": [c.name for c in self.required],
            "target": None if self.target is None else self.target.name,
            "mode": self.mode,
            "monotone_only": self.monotone_only,
            "canonical_only": self.canonical_only,
        }


def check_size(size: int) -> None:
    """Refuse a universe size below 1: every scan over it would check nothing."""
    if size < 1:
        raise ValueError(f"universe size must be at least 1, got {size}")


def sizes_upto(max_universe: int) -> range:
    """The universe sizes 1..max_universe, refusing a max below 1."""
    check_size(max_universe)
    return range(1, max_universe + 1)


def evaluate_check(s: SizeSystem, c: CheckId) -> CheckReport:
    if isinstance(c, PropertyId):
        return check_property(s, c)
    return check_rule(s, c)


def verdict(s: SizeSystem, c: CheckId) -> bool:
    """evaluate_check(s, c).holds, from the scan alone: no report is built."""
    if isinstance(c, PropertyId):
        return _scan_property(s, c)[1] is None
    return _scan_rule(s, c)[1] is None


# --- family enumeration -------------------------------------------------------


def _families_with_empty(x: int) -> Iterator[frozenset[int]]:
    """All subset families over P(x) that contain ∅, ascending family code."""
    others = [m for m in submasks(x) if m]
    for bits in range(1 << len(others)):
        fam = [0]
        for i, m in enumerate(others):
            if bits >> i & 1:
                fam.append(m)
        yield frozenset(fam)


def _down_set_families(x: int) -> Iterator[frozenset[int]]:
    """All downward-closed families over P(x) containing ∅, ascending code.

    Membership is decided from the largest subset down, excluding before
    including (so smaller family codes come first); including a set forces
    every submask of it, all of which sit at lower positions.
    """
    subs = submasks(x)  # canonical order; subs[0] == 0
    m = len(subs)
    forced = [0] * m

    def rec(pos: int, picked: list[int]) -> Iterator[frozenset[int]]:
        if pos < 0:
            yield frozenset(picked)
            return
        if pos == 0 or forced[pos]:
            picked.append(subs[pos])
            yield from rec(pos - 1, picked)
            picked.pop()
            return
        yield from rec(pos - 1, picked)  # exclude first
        picked.append(subs[pos])
        sm = subs[pos]
        newly = []
        for q in range(pos):
            if subs[q] & ~sm == 0 and not forced[q]:
                forced[q] = 1
                newly.append(q)
        yield from rec(pos - 1, picked)
        for q in newly:
            forced[q] = 0
        picked.pop()

    yield from rec(m - 1, [])


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _letters(n: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(n)]


def _bits(flags: Iterable[bool]) -> int:
    """The int whose bit i is the i-th of the flags, at least one."""
    return int(bytes(flags)[::-1].translate(_DIGITS), 2)


def _indices(mask: int) -> list[int]:
    """The set bits of a mask that is not negative, ascending."""
    return [i for i, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]


def _permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << target
    return out


def _below(c) -> Callable[[int, dict], bool]:
    """The test below a base set of a property, rule or mu-rule."""
    if isinstance(c, PropertyId):
        return properties.below(c)
    if isinstance(c, RuleId):
        return rules.below(c)
    from . import preferential  # which imports this module

    return preferential.below(c)


class _SystemSpace:
    """The systems of one universe size, as tuples of family indices.

    A system is a tuple of indices, one per base set in domain order, into
    that base set's family list.  The lists ascend by family code, so
    comparing index tuples lexicographically compares code tuples, and the
    raw stream (`itertools.product` order) is ascending in the tuple's
    mixed-radix rank.

    A relabeling p maps a system to the one with, at position j, the image
    of the family at p's pre-image of domain[j]; a table per position maps
    the pre-image family's index to the image's.  The tables are filled
    entry by entry on first use (at |U| = 5 full ones would run to a million
    entries before the first system is out) and, like the `passing` lists,
    serve every query of the process.

    Each position j also has bit columns of its families: bit i of
    columns[j][a] is set iff per_set[j][i] holds a, for every a ⊆ domain[j].
    """

    def __init__(self, n: int, monotone: bool):
        self.universe = Universe(_letters(n))
        self.domain = domain = full_domain_masks(self.universe)
        gen = _down_set_families if monotone else _families_with_empty
        self.per_set = [tuple(gen(x)) for x in domain]
        self.radices = [len(fams) for fams in self.per_set]
        self.strides = [1] * len(domain)
        for j in range(len(domain) - 1, 0, -1):
            self.strides[j - 1] = self.strides[j] * self.radices[j]
        # A relabeling maps the base sets of one cardinality onto themselves,
        # and the domain lists them block by block.
        bounds = [0, *itertools.accumulate(comb(n, k) for k in range(1, n + 1))]
        self.blocks = [range(a, b) for a, b in itertools.pairwise(bounds)]
        self.relabelings = factorial(n)
        self._passing: dict[tuple[PropertyId, ...], list[list[int]]] = {}
        self._prepared: dict[CheckId, tuple] = {}
        self.positions = [{fam: k for k, fam in enumerate(fams)} for fams in self.per_set]
        self.columns = [
            {a: _bits(map(operator.contains, fams, itertools.repeat(a))) for a in submasks(x)}
            for x, fams in zip(domain, self.per_set)
        ]
        pos = {x: j for j, x in enumerate(domain)}
        # Per position, the positions of the base sets below it: all in earlier blocks.
        self.below = [tuple(pos[m] for m in submasks(x)[1:-1]) for x in domain]
        self.perms = []
        for perm in itertools.permutations(range(n)):
            if perm == tuple(range(n)):
                continue
            image = [_permute_mask(m, perm) for m in range(1 << n)]
            pre = [0] * len(domain)
            for k, x in enumerate(domain):
                pre[pos[image[x]]] = k
            self.perms.append((image, tuple(pre), [{} for _ in domain]))

    def system(self, idx: tuple[int, ...], label: str) -> SizeSystem:
        fams = map(operator.getitem, self.per_set, idx)
        return SizeSystem(self.universe, self.domain, dict(zip(self.domain, fams)), label=label)

    def rank(self, idx: tuple[int, ...]) -> int:
        """Position of the system in the raw stream."""
        return sum(map(operator.mul, idx, self.strides))

    def leader(self, idx: tuple[int, ...]) -> SizeSystem:
        """The system idx, labelled u<n>#<raw rank> as the raw stream labels it."""
        return self.system(idx, f"u{self.universe.size}#{self.rank(idx)}")

    def _image_index(self, perm: tuple, j: int, i: int) -> int:
        """Index at position j of the relabeling of a system with index i at
        the pre-image position."""
        image, pre, tables = perm
        t = tables[j].get(i)
        if t is None:
            fam = self.per_set[pre[j]][i]
            t = tables[j][i] = self.positions[j][frozenset([image[a] for a in fam])]
        return t

    def passing(self, local: tuple[PropertyId, ...]) -> list[list[int]]:
        """Per position, the indices of the families on which every local
        property holds at its base set; each tuple is tested once per process."""
        lists = self._passing.get(local)
        if lists is None:
            lists = self._passing[local] = [
                [i for i, fam in enumerate(fams) if all(holds_at(x, fam, p) for p in local)]
                for x, fams in zip(self.domain, self.per_set)
            ]
        return lists

    def _prepare(self, c: CheckId) -> tuple:
        """(test, alone, reads) of c's test below a base set, kept per space as
        `passing` is: for a column test, per position the families it alone
        lets through and its column reads, (masks made, cross, X, positions
        read) each, so every walk pruned by c shares the masks made."""
        prepared = self._prepared.get(c)
        if prepared is None:
            test, domain = _below(c), self.domain
            alone, reads = [-1] * len(domain), [[] for _ in domain]
            if isinstance(test, Columns):
                pos = {x: j for j, x in enumerate(domain)}
                for j, y in enumerate(domain):
                    if test.alone is not None:
                        alone[j] = test.alone(self.columns[j], y)
                    for part in test.parts(y):
                        reads[j].append(({}, test.cross, part[0], tuple(map(pos.get, part))))
            prepared = self._prepared[c] = test, alone, reads
        return prepared

    def _options(self, allowed: list[list[int]], checks: tuple[CheckId, ...]) -> Callable:
        """options(j, prefix): the indices in allowed[j] of the families that
        pass each check's test below the base set Y at position j, given
        what prefix assigns to the subsets of Y, memoised for the walk.

        A column test (`setcore.Columns`) gives a mask of Y's families per
        subset X (or split) and its family, made once per space (`_prepare`);
        the other tests run per family, on those every mask lets through."""
        domain, per_set, below, columns = self.domain, self.per_set, self.below, self.columns
        start = [_bits(map(set(ok).__contains__, range(r))) for ok, r in zip(allowed, self.radices)]
        reads = [[] for _ in domain]  # per position: (masks made, cross, X, positions read)
        per_family = []
        for test, alone, column_reads in map(self._prepare, checks):
            if not isinstance(test, Columns):
                per_family.append(test)
            for j in range(len(domain)):
                start[j] &= alone[j]
                reads[j] += column_reads[j]
        memo: dict[tuple[int, ...], list[int]] = {}

        def options(j: int, prefix: tuple[int, ...]) -> list[int]:
            key = (j, *map(prefix.__getitem__, below[j]))
            got = memo.get(key)
            if got is None:
                y, mask = domain[j], start[j]
                for made, cross, x, ks in reads[j]:
                    at = tuple(map(prefix.__getitem__, ks))
                    passed = made.get(at)
                    if passed is None:
                        fams = map(operator.getitem, map(per_set.__getitem__, ks), at)
                        passed = made[at] = cross(columns[j], y, x, *fams)
                    mask &= passed
                    if not mask:
                        break
                got = _indices(mask)
                if per_family and got:
                    ideals = {domain[k]: per_set[k][prefix[k]] for k in below[j]}
                    kept = []
                    for i in got:
                        ideals[y] = per_set[j][i]
                        if all(test(y, ideals) for test in per_family):
                            kept.append(i)
                    got = kept
                if len(below[j]) < len(prefix):  # else the key is the whole prefix, met once
                    memo[key] = got
            return got

        return options

    def union_cells(self, walks: list[tuple[CheckId, ...]]) -> Iterator[tuple]:
        """(prefix, order of the stabilizer, alive, lists, marks) per cell of
        lex-leaders, the systems no relabeling makes smaller, that have every
        check of some tuple in walks: each completion of prefix by
        `itertools.product(*lists)`, in raw order.  Bit k of alive is set iff
        tuple k's tests pass on the prefix.  marks is None when every tuple
        in alive allows the same lists; else marks[p] maps each index in
        lists[p] to the bits of the tuples that allow it, and a completion
        has the checks of the tuples whose bits are in every index it takes.

        The walk runs block by block, each block's tuples in product order,
        and carries the relabelings whose image still equals the prefix.
        One whose image is smaller on a block prunes every completion of
        that prefix; one whose image is larger drops out.  The relabelings
        left at the end, with the identity, are the stabilizer.  Once none
        is left, the last block (the full set alone) is one cell, and so is
        the rest of the walk if the live tuples ask only for local
        properties.  The images are compared whether or not their families
        pass, so the stabilizers are those of the unpruned walk, and each
        part of a block is tested once for every tuple.  A position takes,
        per live tuple, the families that pass each local property
        (`passing`) and every other check's test below it (`_options`): a
        column mask per subset for the two-level and pairwise checks, and a
        test per family for the others.  Where the live tuples' lists
        differ, a block walks their union, and a part that no tuple allows
        is pruned.
        """
        made, tuples = {}, []  # per walk: (allowed, options or None), shared by equal walks
        for checks in walks:
            checks = tuple(dict.fromkeys(checks))
            local = tuple(c for c in checks if isinstance(c, PropertyId) and c.tag in LOCAL_TAGS)
            cross = tuple(c for c in checks if c not in local)
            if (local, cross) not in made:
                allowed = self.passing(local)
                made[local, cross] = allowed, self._options(allowed, cross) if cross else None
            tuples.append(made[local, cross])
        members = {}  # alive ↦ (its tuples as (bit, allowed, options or None), any options)
        image_index = self._image_index
        last = len(self.blocks) - 1

        def walk(b: int, prefix: tuple[int, ...], live: list, alive: int) -> Iterator:
            entry = members.get(alive)
            if entry is None:
                tups = [(1 << k, *tuples[k]) for k in range(len(walks)) if alive >> k & 1]
                entry = members[alive] = tups, any(options for _, _, options in tups)
            tups, cross = entry
            block = self.blocks[b] if live or cross else range(len(prefix), len(self.domain))
            lo = block.start
            if len(tups) == 1:  # one live tuple, as in a count: its own lists, no marks
                _, allowed, options = tups[0]
                lists = [options(j, prefix) for j in block] if options else allowed[lo : block.stop]
                marks = None
            else:
                lists, marks = _union(tups, block, prefix)
            if not live and (b == last or not cross):
                yield prefix, 1, alive, lists, marks
                return
            reach = alive
            for part in itertools.product(*lists):
                if marks is not None:
                    reach = _allowing(marks, part)
                    if not reach:
                        continue  # no tuple allows the part
                kept = []
                for perm in live:
                    _, pre, tables = perm
                    for j in block:
                        i = part[pre[j] - lo]
                        t = tables[j].get(i)  # `_image_index`, inlined where it is filled
                        if t is None:
                            t = image_index(perm, j, i)
                        if t != part[j - lo]:
                            break
                    else:
                        kept.append(perm)
                        continue
                    if t < part[j - lo]:
                        break  # a smaller relabeling: no completion is a leader
                else:
                    if b < last:
                        yield from walk(b + 1, prefix + part, kept, reach)
                    else:  # a whole system, its own cell
                        yield prefix + part, len(kept) + 1, reach, [], None

        return walk(0, (), self.perms, (1 << len(walks)) - 1)

    def cells(self, checks: tuple[CheckId, ...]) -> Iterator[tuple[tuple[int, ...], int, list]]:
        """(prefix, order of the stabilizer, lists) per cell of the walk
        pruned by one tuple of checks (`union_cells`)."""
        for prefix, stab, _, lists, _ in self.union_cells([checks]):
            yield prefix, stab, lists

    def leaders(self, checks: tuple[CheckId, ...]) -> Iterator[tuple[tuple[int, ...], int]]:
        """(index tuple, order of its stabilizer) of every lex-leader on which
        every check holds, in raw-stream order: the cells, expanded."""
        for prefix, stab, lists in self.cells(checks):
            for rest in itertools.product(*lists):
                yield prefix + rest, stab

    def images_upto(self, idx: tuple[int, ...], stab: int, bound: tuple[int, ...]) -> int:
        """Distinct relabelings of the leader idx (itself included) whose
        index tuple is at most bound, for a bound not below idx.  Each image
        comes from stab relabelings (orbit-stabilizer), the identity's among
        them, so count the relabelings and divide; an image is compared with
        bound up to the first position where they differ."""
        image_index = self._image_index
        upto = 1  # the identity
        for perm in self.perms:
            for j, k in enumerate(perm[1]):
                t = image_index(perm, j, idx[k])
                if t != bound[j]:
                    upto += t < bound[j]
                    break
            else:
                upto += 1
        return upto // stab


def _union(tups: list, block: range, prefix: tuple[int, ...]) -> tuple[list, list | None]:
    """(lists, marks) at the positions of block of two or more live tuples,
    (bit, allowed, options or None) each: their lists and None if all are
    equal, else per position the ascending union and a dict from each index
    in it to the bits of the tuples that allow it (`union_cells`)."""
    per = []
    for bit, allowed, options in tups:
        lists = [options(j, prefix) for j in block] if options else allowed[block.start : block.stop]
        per.append((bit, lists))
    (_, first), *rest = per
    if all(lists == first for _, lists in rest):
        return first, None
    union, marks = [], []
    for p in range(len(first)):
        mask: dict[int, int] = {}
        for bit, lists in per:
            for i in lists[p]:
                mask[i] = mask.get(i, 0) | bit
        union.append(sorted(mask))
        marks.append(mask)
    return union, marks


def _allowing(marks: list[dict[int, int]], part: tuple[int, ...]) -> int:
    """The bits of the tuples that allow every entry of part (`union_cells`)."""
    return reduce(operator.and_, map(dict.__getitem__, marks, part))


_shared_space = lru_cache(maxsize=None)(_SystemSpace)


def _system_space(n: int, monotone: bool, canonical: bool) -> _SystemSpace:
    """The shared space of size n, refusing a size no scan over it can finish."""
    check_size(n)
    if n > NON_MONOTONE_CEILING and not monotone:
        raise CapacityExceeded(f"non-monotone enumeration is capped at size {NON_MONOTONE_CEILING}")
    if n > EXHAUSTIVE_CEILING and not (monotone and canonical):
        raise CapacityExceeded(
            f"exhaustive enumeration is capped at size {EXHAUSTIVE_CEILING}; "
            f"size {CANONICAL_CEILING} needs monotone_only and canonical_only"
        )
    if n > CANONICAL_CEILING:  # the full set of size 6 alone has 7 828 353 down-sets
        raise CapacityExceeded(f"enumeration is capped at size {CANONICAL_CEILING}")
    return _shared_space(n, monotone)


def enumerate_systems(spec: SearchSpec) -> Iterator[SizeSystem]:
    """Every full-powerset system of the given size whose ideals contain ∅.

    Canonical order; with monotone_only the ideals are down-sets, with
    canonical_only each relabeling class's leader alone is emitted, labelled
    by its position among them."""
    n = spec.universe_size
    space = _system_space(n, spec.monotone_only, spec.canonical_only)
    if spec.canonical_only:
        # Unpruned: the label is the position among all leaders.
        for index, (idx, _) in enumerate(space.leaders(())):
            yield space.system(idx, f"u{n}#{index}")
        return
    u, domain = space.universe, space.domain
    for index, assignment in enumerate(itertools.product(*space.per_set)):
        yield SizeSystem(u, domain, dict(zip(domain, assignment)), label=f"u{n}#{index}")


# --- ordered stream scans -------------------------------------------------------


def scan_stream(stream: Iterable) -> Iterator:
    """The stream's items in order, for as long as the caller reads: every
    walk that a search reads cell by cell or leader by leader is read
    through it, and bench/tracing.py times it by name."""
    yield from stream


def count(sizes: Iterable[int], monotone: bool, checks: tuple[CheckId, ...]) -> int:
    """The systems of the given sizes that have every check, counted by the
    cells of the walk pruned by them: no leader is expanded."""
    spaces = [_system_space(n, monotone, False) for n in sizes]
    return sum(space.relabelings // stab * prod(map(len, lists))
               for space in spaces for _, stab, _, lists, _ in space.union_cells([checks]))


def _parting(space: _SystemSpace, walks: list[tuple[CheckId, ...]]) -> tuple:
    """The first leader, in raw order, that the walks pruned by some but not
    all of the tuples of checks reach: a walk reaches a leader iff the
    leader has its checks, so that is the first system on which the tuples
    disagree.  One walk over their union (`union_cells`) finds it: a cell
    that every tuple reaches without marks adds its leaders whole, and only
    a cell with marks, or one that some tuple does not reach, is expanded.
    Returns (its index tuple, per walk whether it reaches it, the first
    walk's leaders read before it, the systems they stand for); if the walks
    never part, the first two are None and the counts are the first walk's
    whole."""
    full = (1 << len(walks)) - 1
    leaders = systems = 0
    for prefix, stab, alive, lists, marks in scan_stream(space.union_cells(walks)):
        weight = space.relabelings // stab
        if alive == full and marks is None:
            whole = prod(map(len, lists))
            leaders += whole
            systems += weight * whole
            continue
        for rest in itertools.product(*lists):
            reach = alive if marks is None else _allowing(marks, rest)
            if reach == full:
                leaders += 1
                systems += weight
            elif reach:
                held = [bool(reach >> k & 1) for k in range(len(walks))]
                return prefix + rest, held, leaders, systems
    return None, None, leaders, systems


def _systems_upto(space: _SystemSpace, checks: tuple[CheckId, ...], idx: tuple[int, ...]) -> int:
    """The systems of the raw stream up to the leader idx that have every
    check: each leader of the walk pruned by them, up to idx, adds its
    distinct relabelings ranked at most idx (idx itself alone)."""
    leaders = itertools.takewhile(lambda lead: lead[0] <= idx, scan_stream(space.leaders(checks)))
    return sum(space.images_upto(lead, stab, idx) for lead, stab in leaders)


def _first_parting(sizes: Iterable[int], monotone: bool, walks: list[tuple[CheckId, ...]]) -> tuple:
    """(space, idx, systems): over the given sizes in turn, the first leader
    idx at which the walks part, in its space, and the systems up to it in
    the raw stream that have the first walk's checks, each earlier size's
    whole.  A leader stands for its class, and the first system of the raw
    stream on which the walks part leads its class, so idx is that system.
    If the walks never part, space and idx are None and every system that
    has the first walk's checks is counted."""
    systems = 0
    for space in [_system_space(n, monotone, False) for n in sizes]:
        idx, _, _, whole = _parting(space, walks)
        if idx is not None:
            return space, idx, systems + _systems_upto(space, walks[0], idx)
        systems += whole
    return None, None, systems


def _scan_systems(
    spec: SearchSpec, sizes: Iterable[int]
) -> tuple[int, tuple[SizeSystem, CheckReport] | None]:
    """(systems of the given sizes satisfying the required checks, the first
    of them violating the target with its report, or None).  The first is
    where the walks pruned by the required checks, with and without the
    target, part; canonical_only counts each leader once."""
    n, monotone = spec.universe_size, spec.monotone_only
    required, target = spec.required, spec.target
    if target is None:
        if not spec.canonical_only:
            return count(sizes, monotone, required), None
        cells = _system_space(n, monotone, True).cells(required)
        return sum(prod(map(len, lists)) for _, _, lists in cells), None
    walks = [required, required + (target,)]
    if not spec.canonical_only:
        space, idx, satisfying = _first_parting(sizes, monotone, walks)
        s = None if idx is None else space.leader(idx)
    else:
        space = _system_space(n, monotone, True)
        idx, _, satisfying, _ = _parting(space, walks)
        s = None if idx is None else space.system(idx, f"u{n}#{_leaders_before(space, idx)}")
        satisfying += s is not None
    return satisfying, None if s is None else (s, evaluate_check(s, target))


def _leaders_before(space: _SystemSpace, idx: tuple[int, ...]) -> int:
    """The position of the lex-leader idx among all leaders, counted by the
    cells of the unpruned walk: whole cells before its own, then its rank
    in its cell's product."""
    before = 0
    for prefix, _, lists in space.cells(()):
        if prefix < idx[: len(prefix)]:
            before += prod(map(len, lists))
            continue
        rank = 0  # the first cell not before idx is its own
        for k, options in enumerate(lists, len(prefix)):
            rank = rank * len(options) + options.index(idx[k])
        return before + rank
    raise ValueError(f"{idx} is not a lex-leader")


def find_counterexample(
    spec: SearchSpec, *, parallelism: int = 1  # unused; the benchmark in bench/ still passes it
) -> tuple[SizeSystem | None, CheckReport | None]:
    """First system satisfying all required checks while violating the target."""
    if spec.mode != "find-counterexample":
        raise ValueError("spec.mode must be find-counterexample")
    _, failure = _scan_systems(spec, [spec.universe_size])
    return failure or (None, None)


def _implication_report(spec: SearchSpec, sizes: Iterable[int], subject: str) -> CheckReport:
    satisfying, failure = _scan_systems(spec, sizes)
    left = "+".join(c.name for c in spec.required) or "(all)"
    report = CheckReport(
        subject=subject,
        condition=f"{left}=>{spec.target.name}",
        holds=failure is None,
        instances_checked=satisfying,
    )
    if failure is not None:
        s, rep = failure
        report.witness = rep.witness
        report.notes = (f"violating system {s.label}",)
        report.witness_system = s.to_dict()
    return report


def verify_implication(
    spec: SearchSpec, *, parallelism: int = 1  # unused; the benchmark in bench/ still passes it
) -> CheckReport:
    """No enumerated system may satisfy the required checks yet violate the target."""
    if spec.mode != "verify-implication":
        raise ValueError("spec.mode must be verify-implication")
    return _implication_report(spec, [spec.universe_size], f"search:u{spec.universe_size}")


def verify_implication_upto(
    required: Iterable[CheckId], target: CheckId, max_universe: int
) -> CheckReport:
    """verify_implication over every universe size 1..max_universe as one scan."""
    sizes = sizes_upto(max_universe)
    spec = SearchSpec(max_universe, required, target, "verify-implication")
    return _implication_report(spec, sizes, f"search:u<={max_universe}")


def count_systems(
    spec: SearchSpec, *, parallelism: int = 1  # unused; the benchmark in bench/ still passes it
) -> CheckReport:
    """Count the systems satisfying the required checks."""
    if spec.mode != "count":
        raise ValueError("spec.mode must be count")
    satisfying, _ = _scan_systems(spec, [spec.universe_size])
    return CheckReport(
        subject=f"search:u{spec.universe_size}",
        condition="count:" + "+".join(c.name for c in spec.required),
        holds=True,
        instances_checked=satisfying,
    )


def _agreement_report(ids: list[CheckId], sizes: Iterable[int], subject: str) -> CheckReport:
    """Per size, the walks pruned by each id alone part at the first
    disagreeing system, and every system up to it is counted."""
    checked, failure = 0, None
    for space in [_system_space(n, True, False) for n in sizes]:
        idx, held, _, _ = _parting(space, [(c,) for c in ids])
        if idx is not None:
            checked += space.rank(idx) + 1
            failure = space.leader(idx), held
            break
        checked += prod(space.radices)
    report = CheckReport(
        subject=subject,
        condition="agree:" + "=".join(c.name for c in ids),
        holds=failure is None,
        instances_checked=checked,
    )
    if failure is not None:
        s, verdicts = failure
        report.notes = (
            "verdicts " + ", ".join(f"{c.name}={v}" for c, v in zip(ids, verdicts)),
        )
        report.witness_system = s.to_dict()
    return report


def verify_agreement(ids: list[CheckId], universe_size: int) -> CheckReport:
    """All listed checks give one verdict on every monotone system of the size."""
    return _agreement_report(ids, [universe_size], f"search:u{universe_size}")


def verify_agreement_upto(ids: list[CheckId], max_universe: int) -> CheckReport:
    """verify_agreement over every universe size 1..max_universe as one scan."""
    return _agreement_report(ids, sizes_upto(max_universe), f"search:u<={max_universe}")


# --- difference-robustness vs. union-closure ----------------------------------


def _breakdown_columns(x: int) -> tuple[int, int]:
    """(premise, failing) bit vectors over the families of P(x) that contain
    ∅: bit f stands for the family whose code is f, bit i of f for the i-th
    nonempty submask of x.  Decided bit-sliced (Knuth, TAOCP 4A §7.1.3)."""
    others = submasks(x)[1:]  # ∅, in every family, adds no pair
    full = (1 << (1 << len(others))) - 1
    col = {}  # bit f of col[m]: family f has m, so runs of 2^i codes alternate
    for i, m in enumerate(others):
        w = 1 << i
        col[m] = full // ((1 << 2 * w) - 1) * (((1 << w) - 1) << w)
    missing = {v: reduce(operator.or_, (full ^ col[z] for z in submasks(v)[1:])) for v in others}
    premise = conclusion = 0  # members A, B with A ∪ B, or some Z ⊆ A ∪ B, missing
    for a, b in itertools.combinations_with_replacement(others, 2):
        both = col[a] & col[b]
        premise |= both & ~col[a | b]
        conclusion |= both & missing[a | b]
    return premise, premise & ~conclusion


def verify_two_s_breakdown(
    max_universe: int, *, parallelism: int = 1  # unused; the benchmark in bench/ still passes it
) -> CheckReport:
    """A base set that is difference-robust but not union-closed forces a 2*s failure.

    Claim checked: in any full-powerset system, if some X satisfies all three
    robustness variants M++:1..3 (instances based at X) while its small sets
    are not closed under union, then some Y ⊆ X is the union of two of its own
    small sets.

    The claim is local to X: the robustness instances based at X only ever
    force *lower bounds* on the ideals of the carriers Z = X−B with B not
    big, namely {A ∩ Z : A ∈ I(X)} (variants 1 and 2 force the same bound,
    variant 3 a weaker one), and "no Y fails 2*s" only gets harder as ideals
    grow, so whole systems need not be enumerated.  A counterexample exists
    iff some single family I(X) contains ∅, is not union-closed, has no two
    members covering X, and no forced minimal bound at any carrier has two
    members covering that carrier.  Since (A∩Z) ∪ (B∩Z) = Z iff A∪B ⊇ Z, the
    last two conditions reduce to: no pairwise union of members of I(X)
    covers any Z ⊆ X with Z not small.  That is what this decides, for every
    family of every base-set size up to max_universe (a larger X restricts to
    this case), one pass per size (`_breakdown_columns`), counting the
    families the premise fires on up to the first that fails.  None fails
    (Z = A ∪ B is not small and is covered); up to size 4 the premise fires
    on 30 356 of 32 906 families, and size 5, with 2³¹, is refused.
    """
    if max_universe > EXHAUSTIVE_CEILING:
        raise CapacityExceeded(f"the 2*s breakdown scan is capped at size {EXHAUSTIVE_CEILING}")
    checked, witness = 0, None
    for n in sizes_upto(max_universe):
        u = Universe(_letters(n))
        premise, failing = _breakdown_columns(u.full_mask)
        if not failing:
            checked += premise.bit_count()
            continue
        f = (failing & -failing).bit_length() - 1  # the first failing family's code
        checked += (premise & ((2 << f) - 1)).bit_count()
        fam = [0, *(m for i, m in enumerate(submasks(u.full_mask)[1:]) if f >> i & 1)]
        gap = next((a, b) for a in fam for b in fam if a | b not in fam)
        witness = {
            "universe_size": n,
            "ideal_at_base": [list(Subset(u, m).labels()) for m in fam],
            "union_gap": [list(Subset(u, m).labels()) for m in gap],
        }
        break

    return CheckReport(
        subject=f"search:u<={max_universe}",
        condition="M++&not-I-omega=>2*s-failure",
        holds=witness is None,
        instances_checked=checked,
        notes=() if witness is None else ("counterexample found",),
        witness_system=witness,
    )
