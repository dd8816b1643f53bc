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
element-relabeling class is emitted.  First findings are therefore
reproducible, also under parallel scanning, which splits the stream into
contiguous chunks and merges verdicts in stream order.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
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


class _LexLeader:
    """Lex-leader test for element relabelings, on family-index tuples.

    A system is a tuple of indices, one per base set in domain order, into
    that base set's family list.  The lists ascend by family code, so
    comparing index tuples lexicographically compares code tuples.  For each
    non-identity permutation p, the relabeled system has at position j the
    image under p of the family at p's pre-image of domain[j]; its index
    there comes from a table that maps the pre-image family's index to the
    image family's index.  Every table starts empty and is memoised entry
    by entry on first use: at |U| = 5 filled tables would run to a million
    entries before the first system is out.
    """

    def __init__(self, n: int, domain: tuple[int, ...], per_set: list[tuple]):
        self.per_set = per_set
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

    def _image_index(self, image: list[int], j: int, k: int, i: int) -> int:
        positions = self.positions[j]
        if positions is None:
            positions = {fam: t for t, fam in enumerate(self.per_set[j])}
            self.positions[j] = positions
        return positions[frozenset([image[a] for a in self.per_set[k][i]])]

    def __call__(self, idx: tuple[int, ...]) -> bool:
        """True iff no relabeling of the system has a smaller index tuple."""
        for image, pre, tables in self.perms:
            for j, table in enumerate(tables):
                k = pre[j]
                i = idx[k]
                t = table.get(i)
                if t is None:
                    t = table[i] = self._image_index(image, j, k, i)
                if t != idx[j]:
                    if t < idx[j]:
                        return False
                    break
        return True


def enumerate_systems(spec: SearchSpec) -> Iterator[SizeSystem]:
    """Every full-powerset system of the given size whose ideals contain ∅.

    Deterministic canonical order; with monotone_only the ideals are also
    downward closed, with canonical_only exactly one representative per
    element-relabeling class is emitted.
    """
    n = spec.universe_size
    check_size(n)
    if n > CAPACITY:
        raise CapacityExceeded(f"universe size beyond capacity {CAPACITY}")
    if n > EXHAUSTIVE_CEILING and not (spec.monotone_only and spec.canonical_only):
        raise CapacityExceeded(
            f"exhaustive enumeration is capped at size {EXHAUSTIVE_CEILING}; "
            "sizes 5-6 need monotone_only and canonical_only"
        )
    u = Universe(_letters(n))
    domain = full_domain_masks(u)
    gen = _down_set_families if spec.monotone_only else _families_with_empty
    per_set = [tuple(gen(x)) for x in domain]
    if spec.canonical_only:
        is_leader = _LexLeader(n, domain, per_set)
        assignments = (
            tuple(fams[i] for fams, i in zip(per_set, idx))
            for idx in itertools.product(*(range(len(fams)) for fams in per_set))
            if is_leader(idx)
        )
    else:
        assignments = itertools.product(*per_set)
    for index, assignment in enumerate(assignments):
        yield SizeSystem(u, domain, dict(zip(domain, assignment)), label=f"u{n}#{index}")


# --- ordered, optionally parallel stream scans ---------------------------------

_CHUNK = 256


def scan_stream(
    stream: Iterable[T], evaluate: Callable[[T], R], parallelism: int = 1
) -> Iterator[R]:
    """Yield evaluate(item) in stream order; chunks may run on worker threads.

    The caller may stop consuming at any point (first-witness semantics);
    results never depend on the degree of parallelism.
    """
    if parallelism <= 1:
        for item in stream:
            yield evaluate(item)
        return

    def eval_chunk(chunk: list[T]) -> list[R]:
        return [evaluate(item) for item in chunk]

    iter_stream = iter(stream)
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        pending: list = []
        exhausted = False
        while True:
            while not exhausted and len(pending) < parallelism + 1:
                chunk = list(itertools.islice(iter_stream, _CHUNK))
                if not chunk:
                    exhausted = True
                    break
                pending.append(pool.submit(eval_chunk, chunk))
            if not pending:
                return
            head = pending.pop(0)
            yield from head.result()


def first_failure(
    items: Iterable[T], evaluate: Callable[[T], object], parallelism: int = 1
) -> tuple[int, int, object]:
    """Scan items in stream order up to the first failure.

    evaluate(item) returns None when the item is outside the scan (not
    counted), False when it is skipped but tallied, True when it is counted
    and passes, and any other value as the failure: the item is counted and
    the scan stops.  Returns (counted, skipped, failure or None).  Every
    tally is taken from the values read in stream order, never from a
    counter kept by evaluate: at parallelism > 1, chunks past the failure
    are evaluated too.
    """
    counted = skipped = 0
    for result in scan_stream(items, evaluate, parallelism):
        if result is None:
            continue
        if result is False:
            skipped += 1
            continue
        counted += 1
        if result is not True:
            return counted, skipped, result
    return counted, skipped, None


def _scan_systems(
    spec: SearchSpec, parallelism: int
) -> tuple[int, tuple[SizeSystem, CheckReport] | None]:
    """(systems satisfying the required checks, the first of them violating
    the target with its report, or None)."""

    def evaluate(s: SizeSystem):
        for c in spec.required:
            if not evaluate_check(s, c).holds:
                return None
        if spec.target is None:
            return True
        rep = evaluate_check(s, spec.target)
        return True if rep.holds else (s, rep)

    satisfying, _, failure = first_failure(enumerate_systems(spec), evaluate, parallelism)
    return satisfying, failure


def find_counterexample(
    spec: SearchSpec, parallelism: int = 1
) -> tuple[SizeSystem | None, CheckReport | None]:
    """First system satisfying all required checks while violating the target."""
    if spec.mode != "find-counterexample":
        raise ValueError("spec.mode must be find-counterexample")
    _, failure = _scan_systems(spec, parallelism)
    return failure or (None, None)


def verify_implication(spec: SearchSpec, parallelism: int = 1) -> CheckReport:
    """No enumerated system may satisfy the required checks yet violate the target."""
    if spec.mode != "verify-implication":
        raise ValueError("spec.mode must be verify-implication")
    satisfying, failure = _scan_systems(spec, parallelism)
    report = CheckReport(
        subject=f"search:u{spec.universe_size}",
        condition=_implication_name(spec.required, spec.target),
        holds=failure is None,
        instances_checked=satisfying,
    )
    if failure is not None:
        s, rep = failure
        report.witness = rep.witness
        report.notes = (f"violating system {s.label}",)
        report.witness_system = s.to_dict()
    return report


def count_systems(spec: SearchSpec, parallelism: int = 1) -> CheckReport:
    """Count the systems satisfying the required checks."""
    if spec.mode != "count":
        raise ValueError("spec.mode must be count")
    satisfying, _ = _scan_systems(spec, parallelism)
    return CheckReport(
        subject=f"search:u{spec.universe_size}",
        condition="count:" + "+".join(c.name for c in spec.required),
        holds=True,
        instances_checked=satisfying,
    )


def _implication_name(required: tuple[CheckId, ...], target: CheckId) -> str:
    left = "+".join(c.name for c in required) or "(all)"
    return f"{left}=>{target.name}"


def _agreement_name(ids: list[CheckId]) -> str:
    return "agree:" + "=".join(c.name for c in ids)


def _merge_upto(
    per_size: Callable[[int], CheckReport], max_universe: int, condition: str
) -> CheckReport:
    """Run one per-size check for sizes 1..max_universe, summing the counts.

    The first failing report is returned with the summed count; if every size
    holds, one holding report covers them all.
    """
    check_size(max_universe)
    total = 0
    for size in range(1, max_universe + 1):
        rep = per_size(size)
        total += rep.instances_checked
        if not rep.holds:
            rep.subject = f"search:u<={max_universe}"
            rep.instances_checked = total
            return rep
    return CheckReport(
        subject=f"search:u<={max_universe}",
        condition=condition,
        holds=True,
        instances_checked=total,
    )


def verify_implication_upto(
    required: Iterable[CheckId],
    target: CheckId,
    max_universe: int,
    parallelism: int = 1,
) -> CheckReport:
    """verify_implication over every universe size 1..max_universe, merged."""
    required = tuple(required)

    def per_size(size: int) -> CheckReport:
        spec = SearchSpec(size, required, target, "verify-implication")
        return verify_implication(spec, parallelism)

    return _merge_upto(per_size, max_universe, _implication_name(required, target))


def verify_agreement_upto(
    ids: list[CheckId],
    max_universe: int,
    parallelism: int = 1,
) -> CheckReport:
    """verify_agreement over every universe size 1..max_universe, merged."""
    return _merge_upto(
        lambda size: verify_agreement(ids, size, parallelism),
        max_universe,
        _agreement_name(ids),
    )


def verify_agreement(
    ids: list[CheckId], universe_size: int, parallelism: int = 1
) -> CheckReport:
    """All listed checks give one verdict on every monotone system of the size."""
    spec = SearchSpec(universe_size, mode="count")

    def evaluate(s: SizeSystem):
        verdicts = [evaluate_check(s, c).holds for c in ids]
        return True if all(v == verdicts[0] for v in verdicts) else (s, verdicts)

    count, _, failure = first_failure(enumerate_systems(spec), evaluate, parallelism)
    report = CheckReport(
        subject=f"search:u{universe_size}",
        condition=_agreement_name(ids),
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


# --- difference-robustness vs. union-closure ----------------------------------


def verify_two_s_breakdown(max_universe: int, parallelism: int = 1) -> CheckReport:
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
    check_size(max_universe)
    universes = (Universe(_letters(n)) for n in range(1, max_universe + 1))
    candidates = ((u, fam) for u in universes for fam in _families_with_empty(u.full_mask))

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

    checked, _, failure = first_failure(candidates, eval_family, parallelism)
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
