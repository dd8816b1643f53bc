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
agreements and the correspondence rows) walk only the prefixes that no
relabeling makes smaller, sizes 1..n chained into one scan.  The walk prunes
block by block (the base sets of one cardinality), after the lex-leader
constraints of Crawford, Ginsberg, Luks and Roy (KR 1996); the same walk
without relabelings yields every system, in raw order.  A raw scan reads it
by orbits: a prefix p is settled at the last block, or once no check of a
live walk reads below a base set, and the rest of the walk from p is one
cell whatever relabelings H fix p (the identity among them).  It reports
what a scan of every system would, for two reasons.  Every relabeling
outside H makes p larger, so the lex-leaders among p's completions are the
least of their H-orbits and stand for n!/|H| systems per completion
(orbit–stabilizer): counts are exact.  And the completions on which the
checks disagree form an H-invariant set, so the first of them leads its
class: it is the raw stream's first failing system, with its raw label.
`canonical_only` reads the walk by leaders instead, each cell only once no
relabeling is live.

The walk also prunes by every check it is given.  Each holds on a system iff
it holds below every base set Y, on I(Y) and the ideals of the subsets of Y
(`properties.below`, `rules.below`), which sit in earlier blocks; so do the
rules of the correspondence rows on I-omega systems (`preferential.below`).
Every check enters the walk one way (`_SystemSpace._prepare`, once per
space): a test that is a `setcore.Columns` as a mask of Y's families passing
its test of I(Y) alone (a local property's, shared by seven rules, or the
one of OR:2 and CM:2) and column masks, one AND over bit columns of Y's
families per subset of Y and its family; any other as a test per family.
Each tuple of checks' options (`_options`) and counts (`_elimination`) are
kept per space too.  A relabeling that fixes the prefix maps a family that
passes to one that passes, so the pruned walk read by leaders yields
exactly the leaders that have the checks, with their stabilizers.  Every
search is read one way out, through `scan_stream`, where walks part
(`_parting`): an implication or a find compares those pruned by the
required checks with and without the target, an agreement one per id, and
a count reads one walk, which never parts.
The first system that some but not all of them reach is the first failing
system, and only it gets a report.  One walk over the union of their trees
finds it (`_SystemSpace.union_cells`): each cell carries the tuples of
checks that hold on its prefix, and marks its options with the tuples that
allow them where the tuples' lists differ, so only the cells with marks, or
that some tuple does not reach, are expanded.  With `canonical_only` a
leader counts once.  One reader counts positions off cells (`_position`): a
failing `canonical_only` leader's label is its position among all leaders,
and a failing raw search's tally its position in the first tuple's walk
without relabelings.

Read by orbits, the walk also sums the last two blocks out
(`_SystemSpace._elimination`, bucket elimination after Dechter, AIJ 1999)
where every check of every live tuple is a `Columns` without pairs and
n ≥ 2.  A relabeling maps a block onto itself, so orbit–stabilizer holds at
any block boundary: a leader prefix p that ends before the sets Y_i of size
n − 1, with stabilizer H, stands for n!/|H| prefixes with as many
completions as p.  Each Y_i reads only p, so it takes its options V_i(p)
apart from the others, and the full set takes the families F in M(p), its
`alone` mask and column reads of p, that each Y_i's family lets through.  So
p has Σ_{F ∈ M(p)} Π_i c_i(F) completions, where c_i(F) counts the families
in V_i(p) that let F through.  p is one whole cell if each live tuple
completes it as often as all their checks together do, so that no
completion tells them apart, and every tuple is alive there or none
completes it; else the walk goes on.  So a search whose walks never part,
the usual case, reads no prefix past the sets of size n − 2, and a find
whose target holds reads the walk of its implication.
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
from .properties import PropertyId, _scan_property, check_property
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
        check_ids(self.required if self.target is None else (*self.required, self.target))
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


def check_ids(ids: Iterable) -> None:
    """Refuse an id that is not a size property or rule: a mu-rule's test
    below a set means something on I-omega walks alone (`preferential`)."""
    for c in ids:
        if not isinstance(c, CheckId):
            raise ValueError(f"{getattr(c, 'name', c)!r} is not a size property or rule")


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


def _families(x: int, monotone: bool) -> list[frozenset[int]]:
    """The families over P(x) that contain ∅, the down-sets alone if
    monotone, ascending family code.  Each element e of x turns families D,
    D′ over P(S) into D ∪ {m ∪ e : m ∈ D′} over P(S ∪ e): every family once,
    and every down-set once from down-sets D′ ⊆ D (a monotone Boolean
    function split on one variable)."""
    fams, rest = [frozenset(), frozenset([0])], x  # over P(∅)
    while rest:
        e = rest & -rest
        raised = [frozenset(m | e for m in low) for low in fams]
        fams = [d | up for d in fams for low, up in zip(fams, raised) if not monotone or low <= d]
        rest ^= e
    weight = {m: 1 << k for k, m in enumerate(submasks(x))}  # m's bit in a family code
    with_empty = [fam for fam in fams if 0 in fam]
    return sorted(with_empty, key=lambda fam: sum(map(weight.__getitem__, fam)))


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
    that base set's family list.  `_families` sorts each by family code, so
    comparing index tuples lexicographically compares code tuples, and the
    raw stream (`itertools.product` order) is ascending in the tuple's
    mixed-radix rank.

    A relabeling p maps a system to the one with, at position j, the image
    of the family at p's pre-image of domain[j]; a table per position maps
    the pre-image family's index to the image's.  The tables are filled
    entry by entry on first use (at |U| = 5 full ones would run to a million
    entries before the first system is out) and, like each check's masks
    (`_prepare`), serve every query of the process.

    Each position j also has bit columns of its families: bit i of
    columns[j][a] is set iff per_set[j][i] holds a, for every a ⊆ domain[j].
    """

    def __init__(self, n: int, monotone: bool):
        self.universe = Universe(_letters(n))
        self.domain = domain = full_domain_masks(self.universe)
        self.per_set = [_families(x, monotone) for x in domain]
        self.radices = [len(fams) for fams in self.per_set]
        self.strides = [1] * len(domain)
        for j in range(len(domain) - 1, 0, -1):
            self.strides[j - 1] = self.strides[j] * self.radices[j]
        # A relabeling maps the base sets of one cardinality onto themselves,
        # and the domain lists them block by block.
        bounds = [0, *itertools.accumulate(comb(n, k) for k in range(1, n + 1))]
        self.blocks = [range(a, b) for a, b in itertools.pairwise(bounds)]
        self.relabelings = factorial(n)
        self._prepared: dict[CheckId, tuple] = {}
        self._tuples: dict[tuple, tuple] = {}  # per tuple of checks: its `_options`
        self._counters: dict[tuple, Callable | None] = {}  # and its `_elimination`
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

    def _prepare(self, c: CheckId) -> tuple:
        """(alone, reads, test or None) of c, kept per space for every walk
        pruned by c: if its test below Y is a `Columns`, per position the
        mask of the families its `alone` lets through and its column reads,
        (masks made, cross, X, positions read) each; else its per-family test."""
        prepared = self._prepared.get(c)
        if prepared is None:
            domain, per_set = self.domain, self.per_set
            alone, reads, test = [-1] * len(domain), [[] for _ in domain], None
            if isinstance(below := _below(c), Columns):
                pos = {x: j for j, x in enumerate(domain)}
                for j, (y, fams) in enumerate(zip(domain, per_set)):
                    if below.alone is not None:
                        alone[j] = _bits(below.alone(y, fam) for fam in fams)
                    for part in below.parts(y):
                        reads[j].append(({}, below.cross, part[0], tuple(map(pos.get, part))))
            else:
                test = below
            prepared = self._prepared[c] = alone, reads, test
        return prepared

    def _options(self, checks: tuple[CheckId, ...]) -> tuple[list | None, Callable | None]:
        """(lists, None) if no check reads below the base sets, lists per
        position the indices of the families that pass every check; else
        (None, options), options(j, prefix) the indices of the families that
        pass each check's test below the base set Y at position j, given
        what prefix assigns to the subsets of Y, memoised.  Kept per space
        for every walk pruned by the checks.  The masks come from `_prepare`;
        the per-family tests run on the families every mask lets through."""
        if (tup := self._tuples.get(checks)) is not None:
            return tup
        domain, per_set, below, columns = self.domain, self.per_set, self.below, self.columns
        start = [(1 << r) - 1 for r in self.radices]
        reads = [[] for _ in domain]  # per position: (masks made, cross, X, positions read)
        per_family = []
        for alone, column_reads, test in map(self._prepare, checks):
            if test is not None:
                per_family.append(test)
            for j in range(len(domain)):
                start[j] &= alone[j]
                reads[j] += column_reads[j]
        if not per_family and not any(reads):
            tup = self._tuples[checks] = list(map(_indices, start)), None
            return tup
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

        tup = self._tuples[checks] = None, options
        return tup

    def _elimination(self, checks: tuple[CheckId, ...]) -> Callable | None:
        """completions(prefix), the number of ways to complete a prefix that
        ends before the sets of size n − 1 to a system with every check, by
        summing those sets and the full set out; None unless n ≥ 2 and every
        check's test below a base set is a `Columns` without pairs.  Kept per
        space, like `_options`; the module docstring gives the sum."""
        if checks in self._counters:
            return self._counters[checks]
        if self.universe.size < 2 or not all(_columns(_below(c)) for c in checks):
            self._counters[checks] = None
            return None
        tup, top, u = (1, *self._options(checks)), self.blocks[-2], len(self.domain) - 1
        full = (1 << self.radices[u]) - 1
        mask, reads_of = full, {}  # position k ↦ U's column reads of k
        for alone, reads, _ in map(self._prepare, checks):
            mask &= alone[u]
            for made_u, cross, x, (k,) in reads[u]:
                reads_of.setdefault(k, []).append((made_u, cross, x))
        low = [k for k in reads_of if k not in top]
        passing: dict[tuple, int] = {}  # (k, its family) ↦ U's families passing U's reads of k
        counts: dict[tuple, list[int]] = {}  # (j, V) ↦ c per family of U
        totals: dict[tuple, int] = {}  # (M, V per size-(n − 1) set) ↦ completions

        def through(k: int, i: int) -> int:
            got = passing.get((k, i))
            if got is None:
                got = full
                for made_u, cross, x in reads_of.get(k, ()):
                    one = made_u.get((i,))
                    if one is None:
                        one = made_u[(i,)] = cross(self.columns[u], self.domain[u], x, self.per_set[k][i])
                    got &= one
                passing[k, i] = got
            return got

        def reading(j: int, options: tuple[int, ...]) -> list[int]:
            c = counts.get((j, options))
            if c is None:
                c = counts[j, options] = [0] * self.radices[u]
                for f in options:
                    for big in _indices(through(j, f)):
                        c[big] += 1
            return c

        def completions(prefix: tuple[int, ...]) -> int:
            m = mask
            for k in low:
                m &= through(k, prefix[k])
            key = (m, *map(tuple, _union([tup], top, prefix)[0]))
            total = totals.get(key)
            if total is None:
                bigs = _indices(m)
                cs = [map(reading(j, v).__getitem__, bigs) for j, v in zip(top, key[1:])]
                total = totals[key] = sum(map(prod, zip(*cs)))
            return total

        self._counters[checks] = completions
        return completions

    def union_cells(
        self, walks: list[tuple[CheckId, ...]], perms: list, orbits: bool
    ) -> Iterator[tuple]:
        """(prefix, order of the stabilizer, alive, lists, marks, whole) per
        cell of the walk over the systems that have every check of some tuple
        in walks: each completion of prefix by `itertools.product(*lists)`, in
        raw order.  Read by leaders, the completions are the systems that no
        relabeling in perms makes smaller: with `perms` the space's
        relabelings the lex-leaders, each with its stabilizer; with none,
        every system that has the checks, each cell's stabilizer 1.  Read by
        orbits, a cell may hold systems that are not leaders.  Bit k of alive
        is set iff tuple k's tests pass on the prefix.  marks is None when
        every tuple in alive allows the same lists; else marks[p] maps each
        index in lists[p] to the bits of the tuples that allow it, and a
        completion has the checks of the tuples whose bits are in every index
        it takes.  whole is the number of completions if every tuple reaches
        each of them, else None; lists is None where they were summed out.

        The walk runs block by block, each block's tuples in product order,
        and carries the relabelings whose image still equals the prefix.
        One whose image is smaller on a block prunes every completion of
        that prefix; one whose image is larger drops out.  A prefix is
        settled at the last block (the full set alone), or once no live
        tuple's check reads below a base set (its `_options` are static
        lists); the rest of the walk from a settled prefix is one cell.
        Read by leaders, a prefix settles only once no relabeling is left
        (from the start without perms), and the relabelings left at the end,
        with the identity, are each whole system's stabilizer.  Read by
        orbits, a settled prefix is one cell whatever relabelings are live,
        and so is a prefix at the sets of size n − 1 whose completions no
        live tuple tells apart from the others by their counts
        (`_elimination`): each live tuple completes it as often as all of
        them together, and every tuple is alive or none completes it.

        The images are compared whether or not their families pass, so the
        stabilizers are those of the unpruned walk, and each part of a block
        is tested once for every tuple.  A position takes, per live tuple, the
        families that pass every check's test below it (`_options`).  Where
        the live tuples' lists differ, a block walks their union, and a part
        that no tuple allows is pruned.
        """
        walks = [tuple(dict.fromkeys(checks)) for checks in walks]
        tuples = list(map(self._options, walks))
        members = {}  # alive ↦ (its tuples as (bit, lists, options), any options, counters)
        image_index = self._image_index
        full, last = (1 << len(walks)) - 1, len(self.blocks) - 1

        def walk(b: int, prefix: tuple[int, ...], live: list, alive: int) -> Iterator:
            entry = members.get(alive)
            if entry is None:
                ks = [k for k in range(len(walks)) if alive >> k & 1]
                tups = [(1 << k, *tuples[k]) for k in ks]
                reads, summed = any(options for _, _, options in tups), None
                if orbits and reads:  # each live tuple's counter, and that of all their checks
                    live_walks = [walks[k] for k in ks]
                    every = tuple(dict.fromkeys(itertools.chain(*live_walks)))
                    summed = list(map(self._elimination, dict.fromkeys([*live_walks, every])))
                    if None in summed:
                        summed = None
                entry = members[alive] = tups, reads, summed
            tups, reads, summed = entry
            if summed and b == last - 1:
                counts = {completions(prefix) for completions in summed}
                if len(counts) == 1 and (alive == full or 0 in counts):
                    yield prefix, len(live) + 1, alive, None, None, counts.pop()
                    return
            settled = (orbits or not live) and (b == last or not reads)
            block = range(len(prefix), len(self.domain)) if settled else self.blocks[b]
            lo = block.start
            lists, marks = _union(tups, block, prefix)
            if settled:
                whole = prod(map(len, lists)) if alive == full and marks is None else None
                yield prefix, len(live) + 1, alive, lists, marks, whole
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
                        whole = 1 if reach == full else None
                        yield prefix + part, len(kept) + 1, reach, [], None, whole

        return walk(0, (), perms, full)

    def leaders(self, checks: tuple[CheckId, ...]) -> Iterator[tuple[tuple[int, ...], int]]:
        """(index tuple, order of its stabilizer) of every lex-leader on which
        every check holds, in raw-stream order: the cells of the walk pruned
        by them (`union_cells`), expanded."""
        for prefix, stab, _, lists, _, _ in self.union_cells([checks], self.perms, False):
            for rest in itertools.product(*lists):
                yield prefix + rest, stab


def _columns(test) -> bool:
    """Whether a test below a base set is a `Columns` without pairs, so one
    whose reads below each set are of one set each (`_elimination`)."""
    return isinstance(test, Columns) and not test.pairs


def _union(tups: list, block: range, prefix: tuple[int, ...]) -> tuple[list, list | None]:
    """(lists, marks) at the positions of block of the live tuples, (bit,
    lists, options) each: their lists and None if all are equal, as one
    tuple's are, else per position the ascending union and a dict from each
    index in it to the bits of the tuples that allow it (`union_cells`)."""
    per = []
    for bit, static, options in tups:
        lists = [options(j, prefix) for j in block] if options else static[block.start : block.stop]
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


def _parting(space: _SystemSpace, walks: list[tuple[CheckId, ...]], orbits: bool) -> tuple:
    """The first system, in raw order, on which the tuples of checks
    disagree: the first that the walks pruned by some but not all of them
    reach (a walk reaches a system iff the system has its checks).  One walk
    over their union finds it (`union_cells`, read by orbits or by leaders as
    `orbits` says): a whole cell is counted, and only the others are
    expanded.  Returns (its index tuple, per walk whether it reaches it, what
    the first walk reached before it); if the walks never part, the first two
    are None and the count is the first walk's whole, of leaders or, read by
    orbits, of systems."""
    full, relabelings = (1 << len(walks)) - 1, space.relabelings
    reached = 0
    cells = space.union_cells(walks, space.perms, orbits)
    for prefix, stab, alive, lists, marks, whole in scan_stream(cells):
        weight = relabelings // stab if orbits else 1
        if whole is not None:
            reached += weight * whole
            continue
        for rest in itertools.product(*lists):
            reach = alive if marks is None else _allowing(marks, rest)
            if reach == full:
                reached += weight
            elif reach:
                held = [bool(reach >> k & 1) for k in range(len(walks))]
                return prefix + rest, held, reached
    return None, None, reached


def _position(cells: Iterable[tuple], idx: tuple[int, ...]) -> int:
    """The position of the system idx among those the cells of a walk over
    one tuple of checks yield (`union_cells`): the whole cells before its
    own, then its rank in its cell's product.  The unpruned leader walk gives
    a canonical label, a walk without relabelings a raw tally (`_systems_upto`)."""
    before = 0
    for prefix, _, _, lists, _, whole in scan_stream(cells):
        if prefix < idx[: len(prefix)]:
            before += whole
        elif prefix == idx[: len(prefix)] and all(map(operator.contains, lists, idx[len(prefix):])):
            rank = 0  # mixed radix over the lists, as `itertools.product` runs
            for k, options in enumerate(lists, len(prefix)):
                rank = rank * len(options) + options.index(idx[k])
            return before + rank
        else:
            break
    raise ValueError(f"the walk does not reach {idx}")


def _systems_upto(space: _SystemSpace, checks: tuple[CheckId, ...], idx: tuple[int, ...]) -> int:
    """The systems of the raw stream up to the system idx, which has every
    check, that have every check: idx's position in the walk pruned by them
    without relabelings, which yields those systems in raw order, plus one."""
    return _position(space.union_cells([checks], [], False), idx) + 1


def _first_parting(sizes: Iterable[int], monotone: bool, walks: list[tuple[CheckId, ...]]) -> tuple:
    """(space, idx, systems): over the given sizes in turn, the first leader
    idx at which the walks part, in its space, and the systems up to it in
    the raw stream that have the first walk's checks, each earlier size's
    whole.  A leader stands for its class, and the first system of the raw
    stream on which the walks part leads its class, so idx is that system.
    Every caller's walks are nested, so idx has the first walk's checks
    (`_systems_upto`).  If the walks never part, space and idx are None and
    every system that has the first walk's checks is counted."""
    systems = 0
    for space in [_system_space(n, monotone, False) for n in sizes]:
        idx, _, whole = _parting(space, walks, True)
        if idx is not None:
            return space, idx, systems + _systems_upto(space, walks[0], idx)
        systems += whole
    return None, None, systems


def count(sizes: Iterable[int], monotone: bool, checks: tuple[CheckId, ...]) -> int:
    """The systems of the given sizes that have every check: the walk pruned
    by them never parts from itself, so its cells count whole (`_parting`)."""
    return _first_parting(sizes, monotone, [checks])[2]


def _scan_systems(
    spec: SearchSpec, sizes: Iterable[int]
) -> tuple[int, tuple[SizeSystem, CheckReport] | None]:
    """(systems of the given sizes satisfying the required checks, the first
    of them violating the target with its report, or None).  The first is
    where the walks pruned by the required checks, with and without the
    target, part; canonical_only counts each leader once.  Without a target
    the one walk never parts, and every system that it reaches is counted."""
    n, monotone = spec.universe_size, spec.monotone_only
    required, target = spec.required, spec.target
    walks = [required] if target is None else [required, required + (target,)]
    if not spec.canonical_only:
        space, idx, satisfying = _first_parting(sizes, monotone, walks)
        s = None if idx is None else space.leader(idx)
    else:
        space = _system_space(n, monotone, True)
        if n == CANONICAL_CEILING and all(
            (lists := space._options(checks)[0]) and list(map(len, lists)) == space.radices
            for checks in walks
        ):
            raise CapacityExceeded(
                f"a canonical search at size {n} needs a required check or target that prunes "
                "its walk: unpruned, it reads more than 10^34 leaders"
            )
        idx, _, satisfying = _parting(space, walks, False)
        s = None
        if idx is not None:  # labelled by its position among all leaders
            index = _position(space.union_cells([()], space.perms, False), idx)
            s = space.system(idx, f"u{n}#{index}")
            satisfying += 1
    return satisfying, None if s is None else (s, evaluate_check(s, target))


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
    check_ids(ids)
    if not ids:
        raise ValueError("an agreement needs at least one check")
    checked, failure = 0, None
    for space in [_system_space(n, True, False) for n in sizes]:
        idx, held, _ = _parting(space, [(c,) for c in ids], True)
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
