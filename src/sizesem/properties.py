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
    M+omega:1..4   robustness of "not small" under one base-set change
    M++:1..3       robustness of "not small" under shrinking by a non-big set

A failed check reports the canonically first violating instantiation (subset
order: ascending cardinality, then bit value; tuples ordered lexicographically
in the variables' order of appearance).  `instances_checked` counts the
instantiations the scan examined before reaching its verdict; a check with
nothing to examine is vacuously true and says so in its notes.

Instances of the difference-shaped conditions (M+omega:4, M++:1/2) whose
carrier X−B would be empty are skipped: no domain may contain ∅.  A nonempty
carrier missing from the domain raises DomainNotClosed instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import DomainNotClosed
from .report import CheckReport, Witness, guarded_report, scan_report
from .setcore import Subset, canon_rank, submasks
from .sizesys import SizeSystem, _label_key

_PARAM_TAGS = ("n*s", "M+n", "M+omega", "M++")


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
        if self.tag == "M+omega" and self.param not in (1, 2, 3, 4):
            raise ValueError("M+omega variant must be 1..4")
        if self.tag == "M++" and self.param not in (1, 2, 3):
            raise ValueError("M++ variant must be 1..3")
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
    base, _, arg = text.partition(":")
    if base in _SCANS and base not in _PARAM_TAGS:
        if arg:
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


def _filter_list(x: int, fam: frozenset[int], key) -> list[int]:
    return sorted([x & ~a for a in fam], key=key)


def _cover_reach(family: list[int], limit: int) -> list[set[int]]:
    """reach[k] = unions achievable from at most k family members."""
    reach = [{0}]
    cur = {0}
    for _ in range(limit):
        nxt = set(cur)
        for r in cur:
            for a in family:
                nxt.add(r | a)
        reach.append(nxt)
        cur = nxt
    return reach


def _first_cover(x: int, family: list[int], n: int, reach: list[set[int]]) -> list[int]:
    """Lexicographically first n-tuple from `family` whose union is x."""
    picks: list[int] = []
    cur = 0
    for i in range(n):
        left = n - i - 1
        for a in family:
            need = x & ~(cur | a)
            if any(u & need == need for u in reach[left]):
                picks.append(a)
                cur |= a
                break
        else:  # pragma: no cover - guarded by the reach test before calling
            raise AssertionError("cover reconstruction failed")
    return picks


def _check_opt(s: SizeSystem) -> tuple[int, Witness]:
    count = 0
    for x in s.domain_masks:
        count += 1
        if 0 not in s.ideals[x]:
            return count, (("X", x),)
    return count, None


def _check_im(s: SizeSystem) -> tuple[int, Witness]:
    count = 0
    for x in s.domain_masks:
        fam = s.ideals[x]
        subs = submasks(x)
        for a in subs:
            if a in fam:
                continue
            for b in subs:
                if a & ~b:
                    continue
                count += 1
                if b in fam:
                    return count, (("X", x), ("A", a), ("B", b))
    return count, None


def _check_emi(s: SizeSystem) -> tuple[int, Witness]:
    count = 0
    dom = s.domain_masks
    key = _rank_key(s)
    for x in dom:
        fam_x = sorted(s.ideals[x], key=key)
        for y in dom:
            if x & ~y or x == y:
                continue
            fam_y = s.ideals[y]
            for a in fam_x:
                count += 1
                if a not in fam_y:
                    return count, (("X", x), ("Y", y), ("A", a))
    return count, None


def _check_emf(s: SizeSystem) -> tuple[int, Witness]:
    count = 0
    dom = s.domain_masks
    key = _rank_key(s)
    filters = {y: _filter_list(y, s.ideals[y], key) for y in dom}
    for x in dom:
        fam_x = s.ideals[x]
        for y in dom:
            if x & ~y or x == y:
                continue
            for a in filters[y]:
                if a & ~x:
                    continue
                count += 1
                if (x & ~a) not in fam_x:
                    return count, (("X", x), ("Y", y), ("A", a))
    return count, None


def _check_union_disj(s: SizeSystem, on_filters: bool) -> tuple[int, Witness]:
    count = 0
    dom = s.domain_masks
    key = _rank_key(s)
    if on_filters:
        members = {x: _filter_list(x, fam, key) for x, fam in s.ideals.items()}
    else:
        members = {x: sorted(fam, key=key) for x, fam in s.ideals.items()}
    for x in dom:
        if not s.ideals[x]:
            continue
        for y in dom:
            if x & y or not s.ideals[y]:
                continue
            u = x | y
            if u not in s.ideals:
                raise DomainNotClosed(_label_key(s.universe, u), "disjoint union rule")
            fam_u = s.ideals[u]
            for a in members[x]:
                for b in members[y]:
                    count += 1
                    ab = u & ~(a | b) if on_filters else a | b
                    if ab not in fam_u:
                        return count, (("X", x), ("Y", y), ("A", a), ("B", b))
    return count, None


def _check_n_star_s(s: SizeSystem, n: int) -> tuple[int, Witness]:
    count = 0
    key = _rank_key(s)
    for x in s.domain_masks:
        fam = sorted(s.ideals[x], key=key)
        if not fam:
            continue
        reach = _cover_reach(fam, n)
        count += len(fam) ** n
        if x in reach[n]:
            picks = _first_cover(x, fam, n, reach)
            return count, (("X", x), *((f"A{i+1}", a) for i, a in enumerate(picks)))
    return count, None


def _check_iomega(s: SizeSystem) -> tuple[int, Witness]:
    count = 0
    key = _rank_key(s)
    for x in s.domain_masks:
        fam = s.ideals[x]
        fam_sorted = sorted(fam, key=key)
        for a in fam_sorted:
            for b in fam_sorted:
                count += 1
                if (a | b) not in fam:
                    return count, (("X", x), ("A", a), ("B", b))
    return count, None


def _check_m_plus_n(s: SizeSystem, n: int) -> tuple[int, Witness]:
    count = 0
    dom = s.domain_masks
    ideals = s.ideals

    def extend(chain: list[int]) -> bool:
        """Depth-first over chains; True, with `chain` the violation, if found."""
        nonlocal count
        if len(chain) == n:
            count += 1
            return chain[0] in ideals[chain[-1]]
        last = chain[-1]
        for nxt in dom:
            if last & ~nxt:
                continue
            if (nxt & ~last) not in ideals[nxt]:
                continue
            chain.append(nxt)
            if extend(chain):
                return True
            chain.pop()
        return False

    for first in dom:
        chain = [first]
        if extend(chain):
            return count, tuple((f"X{i+1}", x) for i, x in enumerate(chain))
    return count, None


def _check_m_plus_omega(s: SizeSystem, variant: int) -> tuple[int, Witness]:
    count = 0
    dom = s.domain_masks
    ideals = s.ideals
    if variant == 4:
        key = _rank_key(s)
        for x in dom:
            fam = sorted(ideals[x], key=key)
            for a in fam:
                for b in fam:
                    if b == x:
                        continue  # empty carrier X−B
                    z = x & ~b
                    if z not in ideals:
                        raise DomainNotClosed(_label_key(s.universe, z), "M+omega:4")
                    count += 1
                    if (a & ~b) not in ideals[z]:
                        return count, (("X", x), ("A", a), ("B", b))
        return count, None
    for x in dom:
        fam_x = ideals[x]
        subs = submasks(x)
        for y in dom:
            if x & ~y:
                continue
            fam_y = ideals[y]
            if variant == 1:
                # A ∈ F(X), X ∈ M+(Y) ⇒ A ∈ M+(Y)
                if x in fam_y:
                    continue
                for a in subs:
                    if (x & ~a) not in fam_x:
                        continue
                    count += 1
                    if a in fam_y:
                        return count, (("X", x), ("Y", y), ("A", a))
            elif variant == 2:
                # A ∈ M+(X), X ∈ F(Y) ⇒ A ∈ M+(Y)
                if (y & ~x) not in fam_y:
                    continue
                for a in subs:
                    if a in fam_x:
                        continue
                    count += 1
                    if a in fam_y:
                        return count, (("X", x), ("Y", y), ("A", a))
            else:
                # A ∈ F(X), X ∈ F(Y) ⇒ A ∈ F(Y)
                if (y & ~x) not in fam_y:
                    continue
                for a in subs:
                    if (x & ~a) not in fam_x:
                        continue
                    count += 1
                    if (y & ~a) not in fam_y:
                        return count, (("X", x), ("Y", y), ("A", a))
    return count, None


def _check_m_plus_plus(s: SizeSystem, variant: int) -> tuple[int, Witness]:
    count = 0
    dom = s.domain_masks
    ideals = s.ideals
    if variant == 3:
        for x in dom:
            fam_x = ideals[x]
            subs = submasks(x)
            for y in dom:
                if x & ~y:
                    continue
                fam_y = ideals[y]
                if x in fam_y:
                    continue  # X not in M+(Y)
                for a in subs:
                    if a in fam_x:
                        continue
                    count += 1
                    if a in fam_y:
                        return count, (("X", x), ("Y", y), ("A", a))
        return count, None
    key = _rank_key(s)
    for x in dom:
        fam_x = ideals[x]
        if variant == 1:
            bases = sorted(fam_x, key=key)
        else:
            bases = _filter_list(x, fam_x, key)
        if not bases:
            continue
        # The B side does not depend on A: B not big in X (premise) and
        # B ≠ X (empty carrier), with the carrier's ideal, None if missing.
        carriers = [
            (b, x & ~b, ideals.get(x & ~b))
            for b in submasks(x)
            if (x & ~b) not in fam_x and b != x
        ]
        for a in bases:
            for b, z, fam_z in carriers:
                if fam_z is None:
                    raise DomainNotClosed(_label_key(s.universe, z), f"M++:{variant}")
                count += 1
                if variant == 1:
                    bad = (a & ~b) not in fam_z
                else:
                    bad = ((x & ~a) & ~b) not in fam_z
                if bad:
                    return count, (("X", x), ("A", a), ("B", b))
    return count, None


# The property vocabulary: each tag's scan returns (instances_checked, witness).
# Parameterised tags take the PropertyId's parameter as a second argument.
_SCANS = {
    "Opt": _check_opt,
    "iM": _check_im,
    "eMI": _check_emi,
    "eMF": _check_emf,
    "I-union-disj": partial(_check_union_disj, on_filters=False),
    "F-union-disj": partial(_check_union_disj, on_filters=True),
    "n*s": _check_n_star_s,
    "I-omega": _check_iomega,
    "M+n": _check_m_plus_n,
    "M+omega": _check_m_plus_omega,
    "M++": _check_m_plus_plus,
}

OPT = PropertyId("Opt")
IM = PropertyId("iM")
EMI = PropertyId("eMI")
EMF = PropertyId("eMF")
I_UNION_DISJ = PropertyId("I-union-disj")
F_UNION_DISJ = PropertyId("F-union-disj")
IOMEGA = PropertyId("I-omega")


def check_property(s: SizeSystem, p: PropertyId) -> CheckReport:
    """Decide one table property over all instances in s; canonical witness."""
    scan = _SCANS[p.tag]
    count, witness = scan(s) if p.param is None else scan(s, p.param)
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
