"""Exhaustive enumeration of size systems over small universes.

The search space for one universe is the product, over the nonempty subsets
X, of the ideal families allowed at X.  Every enumerated family contains ∅
(systems violating that are out of scope for the searches), and with
`monotone_only` the families are restricted to downward-closed ones, which
shrinks the space by orders of magnitude; the down-set counts per base-set
size are 2, 5, 19, 167, ... and the product across all base sets grows
Dedekind-fast, hence the size ceiling: exhaustive runs stop at universe
size 4, sizes 5-6 are admitted only with both `monotone_only` and
`canonical_only` set.

Ordering is canonical everywhere: families are ordered by their code (the
bitmask recording which subsets belong to the family, indexed in canonical
subset order), assignments are ordered lexicographically across base sets,
and with `canonical_only` only the lexicographically least system of each
element-relabeling class (its lex-leader) is emitted.  Every scan reads
its stream in that order, one item at a time, so first findings are
reproducible.

Every property and rule is invariant under relabeling the elements, so the
scans over the raw stream (`find_counterexample`, `verify_implication` and
`count_systems` without `canonical_only`, `verify_agreement`, the `_upto`
verifiers and the forward correspondence rows) run on the lex-leaders
alone, each weighted by the size of its class (`scan_classes`), sizes 1..n
chained into one stream.  They report what a scan of every system would:
the same first failing system with its raw label, and exact counts, also
when the failure falls inside a class.  The leaders come from one walk that
prunes block by block (the base sets of one cardinality), after the
lex-leader constraints of Crawford, Ginsberg, Luks and Roy (KR 1996).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import CapacityExceeded
from .properties import PropertyId, check_property
from .report import CheckReport
from .rules import RuleId, check_rule
from .setcore import CAPACITY, Subset, Universe, canon_rank, submasks
from .sizesys import SizeSystem, full_domain_masks

T = TypeVar("T")
R = TypeVar("R")

EXHAUSTIVE_CEILING = 4

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


@lru_cache(maxsize=None)
def _subset_index(x: int) -> dict[int, int]:
    return {m: i for i, m in enumerate(submasks(x))}


def family_code(x: int, fam: frozenset[int]) -> int:
    """Bitmask of the family over the canonical subset index of x."""
    idx = _subset_index(x)
    code = 0
    for m in fam:
        code |= 1 << idx[m]
    return code


def _letters(n: int) -> list[str]:
    return [chr(ord("a") + i) for i in range(n)]


def _permute_mask(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i, target in enumerate(perm):
        if mask >> i & 1:
            out |= 1 << target
    return out


class _SystemSpace:
    """The systems of one universe size, as tuples of family indices.

    A system is a tuple of indices, one per base set in domain order, into
    that base set's family list.  The lists ascend by family code, so
    comparing index tuples lexicographically compares code tuples, and the
    raw stream (`itertools.product` order) is ascending in the tuple's
    mixed-radix rank.

    A relabeling p of the elements maps a system to the system that has at
    position j the image under p of the family at p's pre-image of domain[j];
    its index there comes from a table that maps the pre-image family's index
    to the image family's index.  Every table starts empty and is memoised
    entry by entry on first use: at |U| = 5 filled tables would run to a
    million entries before the first system is out.
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
        self.positions: list[dict[frozenset[int], int] | None] = [None] * len(domain)
        pos = {x: j for j, x in enumerate(domain)}
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

    def _image_index(self, perm: tuple, j: int, i: int) -> int:
        """Index at position j of the relabeling of a system with index i at
        the pre-image position."""
        image, pre, tables = perm
        t = tables[j].get(i)
        if t is None:
            positions = self.positions[j]
            if positions is None:
                positions = {fam: k for k, fam in enumerate(self.per_set[j])}
                self.positions[j] = positions
            fam = self.per_set[pre[j]][i]
            t = tables[j][i] = positions[frozenset([image[a] for a in fam])]
        return t

    def leaders(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """(index tuple, order of its stabilizer) of every lex-leader, i.e.
        every system no relabeling makes smaller, in raw-stream order.

        The walk runs block by block, each block's tuples in product order,
        and carries the relabelings whose image still equals the prefix.
        One whose image is smaller on a block prunes every completion of
        that prefix; one whose image is larger drops out.  The relabelings
        left at the end, with the identity, are the stabilizer; once none is
        left, the rest of the walk is the plain product.
        """
        ranges = [range(r) for r in self.radices]
        image_index = self._image_index

        def walk(b: int, prefix: tuple[int, ...], live: list) -> Iterator:
            if not live:
                for rest in itertools.product(*ranges[len(prefix):]):
                    yield prefix + rest, 1
                return
            if b == len(self.blocks):
                yield prefix, len(live) + 1
                return
            block = self.blocks[b]
            lo = block.start
            for part in itertools.product(*ranges[lo : block.stop]):
                kept = []
                for perm in live:
                    pre = perm[1]
                    for j in block:
                        t = image_index(perm, j, part[pre[j] - lo])
                        if t != part[j - lo]:
                            break
                    else:
                        kept.append(perm)
                        continue
                    if t < part[j - lo]:
                        break  # a smaller relabeling: no completion is a leader
                else:
                    yield from walk(b + 1, prefix + part, kept)

        return walk(0, (), self.perms)

    def images_upto(self, idx: tuple[int, ...], bound: tuple[int, ...]) -> int:
        """Distinct relabelings of the leader idx (itself included) whose
        index tuple is at most bound, for a bound not below idx."""
        images = {idx}
        for perm in self.perms:
            pre = perm[1]
            image = tuple(self._image_index(perm, j, idx[k]) for j, k in enumerate(pre))
            if image <= bound:
                images.add(image)
        return len(images)


def _system_space(n: int, monotone: bool, canonical: bool) -> _SystemSpace:
    check_size(n)
    if n > CAPACITY:
        raise CapacityExceeded(f"universe size beyond capacity {CAPACITY}")
    if n > EXHAUSTIVE_CEILING and not (monotone and canonical):
        raise CapacityExceeded(
            f"exhaustive enumeration is capped at size {EXHAUSTIVE_CEILING}; "
            "sizes 5-6 need monotone_only and canonical_only"
        )
    return _SystemSpace(n, monotone)


def enumerate_systems(spec: SearchSpec) -> Iterator[SizeSystem]:
    """Every full-powerset system of the given size whose ideals contain ∅.

    Deterministic canonical order; with monotone_only the ideals are also
    downward closed, with canonical_only exactly one representative per
    element-relabeling class is emitted, labelled by its position among them.
    """
    n = spec.universe_size
    space = _system_space(n, spec.monotone_only, spec.canonical_only)
    if spec.canonical_only:
        for index, (idx, _) in enumerate(space.leaders()):
            yield space.system(idx, f"u{n}#{index}")
        return
    u, domain = space.universe, space.domain
    for index, assignment in enumerate(itertools.product(*space.per_set)):
        yield SizeSystem(u, domain, dict(zip(domain, assignment)), label=f"u{n}#{index}")


# --- ordered stream scans -------------------------------------------------------


def scan_stream(stream: Iterable[T], evaluate: Callable[[T], R]) -> Iterator[R]:
    """Yield evaluate(item) in stream order; the caller may stop consuming at
    any point (first-witness semantics).  first_failure reads its stream
    through this generator, which bench/tracing.py times by name."""
    for item in stream:
        yield evaluate(item)


_OUTSIDE, _SKIPPED, _COUNTED = 0, 1, 2


def first_failure(
    items: Iterable[tuple[int, T]], evaluate: Callable[[T], object]
) -> tuple[int, int, object, bytearray]:
    """Scan weighted items in stream order up to the first failure.

    Items come as (weight, item): the number of stream members the item
    stands for, and the item.  evaluate(item) returns None when the item is
    outside the scan (not counted), False when it is skipped but tallied,
    True when it is counted and passes, and any other value as the failure:
    the item is counted and the scan stops.  Returns (counted, skipped,
    failure or None, outcomes): the tallies add weights, and outcomes holds
    one byte per item read, the failure included (_OUTSIDE, _SKIPPED or
    _COUNTED).
    """
    counted = skipped = 0
    outcomes = bytearray()
    weighed = scan_stream(items, lambda item: (item[0], evaluate(item[1])))
    for weight, result in weighed:
        if result is None:
            outcomes.append(_OUTSIDE)
            continue
        if result is False:
            outcomes.append(_SKIPPED)
            skipped += weight
            continue
        outcomes.append(_COUNTED)
        counted += weight
        if result is not True:
            return counted, skipped, result, outcomes
    return counted, skipped, None, outcomes


def scan_classes(
    sizes: Iterable[int], monotone: bool, evaluate: Callable[[SizeSystem], object]
) -> tuple[int, int, object]:
    """first_failure over the raw system streams of the given sizes in turn,
    run on one system per relabeling class.

    Every check is invariant under relabeling the elements, so a class
    leader's verdict is its whole class's, and the leader stands for
    n!/|Stab| systems.  The first failing system of the raw stream is the
    leader of its class, so it is found with the same report and labelled
    u<n>#<raw rank> as the raw stream labels it.  On a failure at raw rank
    r the tallies are those of the raw stream up to r: each counted or
    skipped leader of that size adds its distinct relabelings ranked at
    most r (the failing leader adds itself alone), found by walking the
    leaders again, without checks, beside their outcomes; leaders of an
    earlier size add their whole class.  Returns (counted, skipped,
    failure or None).
    """
    spaces = [_system_space(n, monotone, False) for n in sizes]

    def stream() -> Iterator[tuple[int, tuple[_SystemSpace, tuple[int, ...]]]]:
        for space in spaces:
            for idx, stab in space.leaders():
                yield space.relabelings // stab, (space, idx)

    def judge(item: tuple[_SystemSpace, tuple[int, ...]]):
        space, idx = item
        label = f"u{space.universe.size}#{space.rank(idx)}"
        result = evaluate(space.system(idx, label))
        if result is None or result is True or result is False:
            return result
        return space, idx, result

    counted, skipped, failure, outcomes = first_failure(stream(), judge)
    if failure is None:
        return counted, skipped, None
    at, bound, failure = failure
    counted = skipped = 0
    for (weight, (space, idx)), outcome in zip(stream(), outcomes):
        if outcome == _OUTSIDE:
            continue
        if space is at:
            weight = space.images_upto(idx, bound)
        if outcome == _COUNTED:
            counted += weight
        else:
            skipped += weight
    return counted, skipped, failure


def _scan_systems(
    spec: SearchSpec, sizes: Iterable[int]
) -> tuple[int, tuple[SizeSystem, CheckReport] | None]:
    """(systems of the given sizes satisfying the required checks, the first
    of them violating the target with its report, or None).  With
    canonical_only the scan runs over the spec's own size alone."""

    def evaluate(s: SizeSystem):
        for c in spec.required:
            if not evaluate_check(s, c).holds:
                return None
        if spec.target is None:
            return True
        rep = evaluate_check(s, spec.target)
        return True if rep.holds else (s, rep)

    if spec.canonical_only:
        systems = ((1, s) for s in enumerate_systems(spec))
        satisfying, _, failure, _ = first_failure(systems, evaluate)
    else:
        satisfying, _, failure = scan_classes(sizes, spec.monotone_only, evaluate)
    return satisfying, failure


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
    def evaluate(s: SizeSystem):
        verdicts = [evaluate_check(s, c).holds for c in ids]
        return True if all(v == verdicts[0] for v in verdicts) else (s, verdicts)

    count, _, failure = scan_classes(sizes, True, evaluate)
    report = CheckReport(
        subject=subject,
        condition="agree:" + "=".join(c.name for c in ids),
        holds=failure is None,
        instances_checked=count,
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


def verify_two_s_breakdown(
    max_universe: int, *, parallelism: int = 1  # unused; the benchmark in bench/ still passes it
) -> CheckReport:
    """A base set that is difference-robust but not union-closed forces a 2*s failure.

    Claim checked: in any full-powerset system, if some X satisfies all three
    robustness variants M++:1..3 (instances based at X) while its small sets
    are not closed under union, then some Y ⊆ X is the union of two of its own
    small sets.

    Enumerating whole systems is hopeless (the family product at size 4 is
    astronomically large), but the claim is local to X: the robustness
    instances based at X only ever force *lower bounds* on the ideals of the
    carriers Z = X−B with B not big, namely {A ∩ Z : A ∈ I(X)} (variants 1
    and 2 force the same bound, variant 3 a weaker one), and "no Y fails 2*s"
    only gets harder as ideals grow.  So a whole-system counterexample exists
    iff some single family I(X) contains ∅, is not union-closed, has no two
    members covering X, and no forced minimal bound at any carrier has two
    members covering that carrier.  Since (A∩Z) ∪ (B∩Z) = Z iff A∪B ⊇ Z, the
    last two conditions reduce to: no pairwise union of members of I(X)
    covers any Z ⊆ X with Z not small.  That is what this scans, for every
    base-set size up to max_universe (a larger X restricts to this case).
    """
    universes = (Universe(_letters(n)) for n in sizes_upto(max_universe))
    candidates = ((1, (u, fam)) for u in universes for fam in _families_with_empty(u.full_mask))

    def eval_family(args: tuple[Universe, frozenset[int]]):
        u, fam = args
        x = u.full_mask
        key = canon_rank(u.size).__getitem__
        members = sorted(fam, key=key, reverse=True)
        broken = next(
            ((a, b) for i, a in enumerate(members) for b in members[i:] if (a | b) not in fam),
            None,
        )
        if broken is None:
            return None  # union-closed: premise not triggered
        if x in fam:
            return True  # X small in itself: X = X ∪ X fails 2*s
        covers2 = {a | b for a in fam for b in fam}
        big_covers = sorted(covers2, key=key, reverse=True)
        for z in submasks(x):
            if z == 0 or z in fam:
                continue  # only carriers Z with Z not small are constrained
            if any(z & ~c == 0 for c in big_covers):
                return True  # some Y fails 2*s, as claimed
        return u, fam, broken

    checked, _, failure, _ = first_failure(candidates, eval_family)
    witness = None
    if failure is not None:
        u, fam, broken = failure
        order = sorted(fam, key=canon_rank(u.size).__getitem__)
        witness = {
            "universe_size": u.size,
            "ideal_at_base": [list(Subset(u, m).labels()) for m in order],
            "union_gap": [list(Subset(u, m).labels()) for m in broken],
        }

    return CheckReport(
        subject=f"search:u<={max_universe}",
        condition="M++&not-I-omega=>2*s-failure",
        holds=witness is None,
        instances_checked=checked,
        notes=() if witness is None else ("counterexample found",),
        witness_system=witness,
    )
