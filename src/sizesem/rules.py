"""The consequence relation induced by a size system, and its rule checkers.

The relation itself is a one-liner: a |~ b iff the a∧b-part of a is big in a,
i.e. a−b ∈ I(a).  Everything else here is universally quantified rule
checking over model sets.  Two conventions make that well defined on a finite
full powerset:

* Antecedent convention.  ∅ is never in a domain, so `nm_entails` declares
  ∅ |~ b true for every b; this is the unique choice that keeps
  supraclassicality unconditional and consistency preservation meaningful.
* Rule quantification.  `check_rule` ranges every metavariable over all
  subsets of the universe (every set is the model set of some formula over a
  finite full powerset), but skips instantiations that would put ∅ on the
  left of a *bare* consequence statement: those instances are artifacts of
  the convention, not content of the rule.  Compound antecedents such as
  α∧β or α∨α' are evaluated as written, using the convention when they
  collapse to ∅.

Checked rules (n-ary families take their parameter from the RuleId):

    SC       α ⊢ β ⇒ α |~ β
    REF      α∧γ |~ γ
    RW       α |~ β, β ⊢ β' ⇒ α |~ β'
    wOR      α |~ β, α' ⊢ β ⇒ α∨α' |~ β
    PR'      α |~ β, α ⊢ α', α'∧¬α ⊢ β ⇒ α' |~ β
    wCM      α |~ β, α' ⊢ α, α∧β ⊢ α' ⇒ α' |~ β
    disjOR   φ |~ ψ, φ' |~ ψ', φ ⊢ ¬φ' ⇒ φ∨φ' |~ ψ∨ψ'
    CP       φ |~ ⊥ ⇒ φ ⊢ ⊥
    AND:n    α |~ β₁, …, α |~ βₙ ⇒ α ⊬ ¬β₁∨…∨¬βₙ
    AND:omega  α |~ β, α |~ β' ⇒ α |~ β∧β'
    OR:n     α₁ |~ β, …, α_{n−1} |~ β ⇒ α₁∨…∨α_{n−1} ̸|~ ¬β
    OR:omega   α |~ β, α' |~ β ⇒ α∨α' |~ β
    CM:n     α |~ β₁, …, α |~ β_{n−1} ⇒ α∧β₁∧…∧β_{n−2} ̸|~ ¬β_{n−1}
    CM:omega   α |~ β, α |~ β' ⇒ α∧β |~ β'
    RatM     φ |~ ψ, φ ̸|~ ¬ψ' ⇒ φ∧ψ' |~ ψ
    CUT      α |~ β, α∧β |~ γ ⇒ α |~ γ
    CUM      φ |~ ψ ⇒ (φ |~ ψ' ⇔ φ∧ψ |~ ψ')
    CCL      {β : α |~ β} is closed under ∩ and ⊇
    M+derived  γ ̸|~ ¬β, γ∧β |~ α ⇒ γ ̸|~ ¬(α∧β)

OR:2 and CM:2 are the same formula (α |~ β ⇒ α ̸|~ ¬β); both names map to one
checker and the report notes the aliasing.

The relation is read in three forms.  `_Consequences` gives rel(a), every b
with a |~ b in canonical order (every set when a = ∅), filled on first use:
`derive_relation` and the instance walks read it, except those of SC, REF,
CP and OR:n, which test the ideals directly.  `_Follows` holds rel(a) as a
bit set, which OR:n and OR:omega intersect to decide or count a unit.
`_rel_size` gives |rel(a)| in closed form, for unit counts and for the
ceilings of the n-ary scans.

Units.  A scan walks its instances in canonical order, grouped into units:
one antecedent a, or the outer tuple where the outer loop binds more than one
variable — (φ, φ') for disjOR, (α, α') for OR:omega, the α-combo for OR:n.
An instance reads each consequent b only through its trace a − b ∈ I(a); the
2^k choices of b outside a (k = |U| − |a|) repeat the same test.  So each
unit is first decided from I = I(a) and the ideals of a's subsets, and a unit
that holds adds its instance count in closed form, leaving out every
instance the walk skips on a premise:

    rule       the unit holds iff                            its instances
    RW         I is down-closed                              3ᵏ·Σ_{x∈I} 2^|x|
    wOR        I ⊆ I(a ∪ d) for every d ⊆ U − a              3ᵏ·Σ_{x∈I} 2^|a−x|
    PR'        as wOR                                        |I|·3ᵏ
    wCM        e ∈ I((a − x) ∪ e) for x ∈ I, e ⊆ x with      2ᵏ·Σ_{x∈I} (2^|x| − [x = a])
               (a − x) ∪ e ≠ ∅
    disjOR     x' ∪ y' ∈ I(φ ∪ φ') for x' ⊆ x ∈ I(φ),        |rel(φ)|·|rel(φ')|
               y' ⊆ y ∈ I(φ')
    AND:n      no n members of I have union a                |rel(a)|ⁿ
    AND:omega  I is closed under ∪                           |rel(a)|²
    OR:n       no t ∈ I(∪αᵢ) has αᵢ − t ∈ I(αᵢ) for all i   |rel(α₁) ∩ … ∩ rel(α_{n−1})|
    OR:omega   rel(α) ∩ rel(α') ⊆ rel(α ∪ α')                |rel(α) ∩ rel(α')|
    CM:n       every t = a − v, v a union of n − 2 members   |rel(a)|ⁿ⁻¹
               of I (v = ∅ for n = 2), is nonempty and has
               t − x ∉ I(t) for x ∈ I
    CM:omega   y − x ∈ I(a − x) for x, y ∈ I, x ≠ a          |rel(a)|²
    RatM       t ∩ x ∈ I(t) for x ∈ I, ∅ ≠ t ⊆ a, t ∉ I      |I|·(2^|a| − |I|)·4ᵏ
    CUT        y ∪ x' ∈ I for x ∈ I, y ∈ I(a − x), x' ⊆ x    2ᵏ·Σ_{x∈I} |rel(a − x)|
               (y = ∅ when x = a)
    CUM        c ∈ I ⇔ (t = ∅ or t ∩ c ∈ I(t)) for x ∈ I,    |rel(a)|·2^|U|
               t = a − x, c ⊆ a
    CCL        I is down-closed and closed under ∪           |rel(a)|² + 3ᵏ·Σ_{x∈I} 2^|x|
    M+derived  t − y ∉ I for ∅ ≠ t ⊆ a, t ∉ I, y ∈ I(t)      2ᵏ·Σ_{t⊆a, t∉I} |rel(t)|

with a the unit's antecedent (φ or γ where the rule names it so),
|rel(a)| = |I(a)|·2ᵏ and |rel(∅)| = 2^|U|; OR:n and OR:omega count rel sets
as bit sets (`_Follows`).  Members of I(a) are subsets of a, as `build`
ensures.  Only the first unit that may fail is walked instance by instance,
by the loops below its test, so counts, witnesses and notes are those of a
walk over every instance.  SC, REF and CP walk their instances directly.

An n-ary rule whose scan would exceed RULE_SCAN_CEILING instances — Σₐ |rel(a)|ⁿ
for AND:n, Σₐ |rel(a)|ⁿ⁻¹ for CM:n, (2^|U| − 1)ⁿ⁻¹ · 2^|U| for OR:n — is
refused with CapacityExceeded before it starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import CapacityExceeded, DomainNotFull, SetNotInDomain
from .logic import Formula, Interpretation, models
from .report import CheckReport, scan_report
from .setcore import Subset, submasks
from .sizesys import SizeSystem, full_domain_masks

_PLAIN_RULES = {
    "SC",
    "REF",
    "RW",
    "wOR",
    "PR'",
    "wCM",
    "disjOR",
    "CP",
    "AND:omega",
    "OR:omega",
    "CM:omega",
    "RatM",
    "CUT",
    "CUM",
    "CCL",
    "M+derived",
}
_PARAM_RULES = {"AND": 1, "OR": 2, "CM": 2}  # minimal n per family


@dataclass(frozen=True)
class RuleId:
    tag: str
    param: int | None = None

    def __post_init__(self):
        if self.tag in _PLAIN_RULES:
            if self.param is not None:
                raise ValueError(f"{self.tag} takes no parameter")
        elif self.tag in _PARAM_RULES:
            if self.param is None or self.param < _PARAM_RULES[self.tag]:
                raise ValueError(f"{self.tag}:n needs n >= {_PARAM_RULES[self.tag]}")
        else:
            raise ValueError(f"unknown rule tag {self.tag!r}")

    @property
    def name(self) -> str:
        return self.tag if self.param is None else f"{self.tag}:{self.param}"

    def __str__(self) -> str:
        return self.name


SC = RuleId("SC")
REF = RuleId("REF")
RW = RuleId("RW")
WOR = RuleId("wOR")
PR_PRIME = RuleId("PR'")
WCM = RuleId("wCM")
DISJ_OR = RuleId("disjOR")
CP = RuleId("CP")
AND_OMEGA = RuleId("AND:omega")
OR_OMEGA = RuleId("OR:omega")
CM_OMEGA = RuleId("CM:omega")
RATM = RuleId("RatM")
CUT = RuleId("CUT")
CUM = RuleId("CUM")
CCL = RuleId("CCL")
M_PLUS_DERIVED = RuleId("M+derived")


def and_n(n: int) -> RuleId:
    return RuleId("AND", n)


def or_n(n: int) -> RuleId:
    return RuleId("OR", n)


def cm_n(n: int) -> RuleId:
    return RuleId("CM", n)


def parse_rule(text: str) -> RuleId:
    text = text.strip()
    if text in _PLAIN_RULES:
        return RuleId(text)
    base, _, arg = text.partition(":")
    if base in _PARAM_RULES and arg.isdecimal():
        return RuleId(base, int(arg))
    raise ValueError(f"unknown rule name {text!r}")


# --- the relation ------------------------------------------------------------


def nm_entails(s: SizeSystem, a: Subset, b: Subset) -> bool:
    """a |~ b: the b-part of a is big in a.  True by convention when a = ∅."""
    if a.universe != s.universe or (a.mask and a.mask not in s.ideals):
        raise SetNotInDomain(f"antecedent {a!r} is not in the domain")
    if b.universe != s.universe:
        raise SetNotInDomain(f"consequent {b!r} is over a different universe")
    return a.mask == 0 or (a.mask & ~b.mask) in s.ideals[a.mask]


def nm_entails_formulas(
    s: SizeSystem, i: Interpretation, f: Formula, g: Formula
) -> bool:
    return nm_entails(s, models(f, i), models(g, i))


def derive_relation(s: SizeSystem) -> list[tuple[Subset, Subset]]:
    """All pairs (a, b) with a |~ b, canonical order; for report diffing."""
    _require_full(s)
    u = s.universe
    rel = _Consequences(s)
    return [(Subset(u, a), Subset(u, b)) for a in u.all_masks() for b in rel[a]]


class _Consequences(dict):
    """a ↦ [b : a |~ b] in canonical order, each a filled on first use."""

    def __init__(self, s: SizeSystem):
        self.ideals = s.ideals
        self.masks = s.universe.all_masks()

    def __missing__(self, a: int) -> list[int]:
        fam = self.ideals[a] if a else (0,)
        out = self[a] = [b for b in self.masks if (a & ~b) in fam]
        return out


def _require_full(s: SizeSystem) -> None:
    if not s.is_full_domain():
        raise DomainNotFull("rule checking needs the full powerset domain")


# --- rule checking -----------------------------------------------------------

# The most instances an n-ary scan (AND:n, OR:n, CM:n) may face; a larger
# parameter would run for hours, so it is refused before the scan starts.
RULE_SCAN_CEILING = 10**7


def check_rule(s: SizeSystem, r: RuleId) -> CheckReport:
    """Decide one rule over all model-set instantiations; canonical witness."""
    _require_full(s)
    count, witness, *notes = _scan_rule(s, r)
    return scan_report(s.label, r.name, s.universe, count, witness, *notes)


def _refuse_above_ceiling(r: RuleId, space: int) -> None:
    if space > RULE_SCAN_CEILING:
        raise CapacityExceeded(
            f"{r.name} would examine up to {space} instances, above the ceiling {RULE_SCAN_CEILING}"
        )


# --- units -------------------------------------------------------------------
#
# Each helper decides one unit of a scan (see the module docstring): its
# instance count when no instance fails, else None, or a bool where the count
# is a one-liner at the call site.


def _rel_size(ideals, size: int, a: int) -> int:
    """|rel(a)| = |I(a)|·2^(|U|−|a|); every mask when a = ∅."""
    return len(ideals[a]) << (size - a.bit_count()) if a else 1 << size


class _Follows(dict):
    """a ↦ rel(a) as an int with bit b set iff a |~ b, filled on first use."""

    def __init__(self, s: SizeSystem):
        self.ideals = s.ideals
        self.full = s.universe.full_mask

    def __missing__(self, a: int) -> int:
        outside = 1  # bit c for every c ⊆ U − a
        rest = self.full & ~a
        while rest:
            low = rest & -rest
            outside |= outside << low
            rest ^= low
        out = 0
        for x in self.ideals[a]:
            out |= outside << (a & ~x)
        self[a] = out
        return out


def _down_closed(fam: frozenset[int]) -> bool:
    """Every subset of a member is a member (one element off at a time)."""
    for x in fam:
        rest = x
        while rest:
            low = rest & -rest
            if x ^ low not in fam:
                return False
            rest ^= low
    return True


def _union_closed(fam: frozenset[int]) -> bool:
    for x in fam:
        for y in fam:
            if x | y not in fam:
                return False
    return True


def _unions(fam: frozenset[int], j: int, stop: int) -> set[int]:
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


def _superset_unit(ideals, size: int, a: int) -> int | None:
    """RW and CCL's ⊇ half: a − β' ⊆ a − β = x for β ⊆ β', so no instance
    fails iff I(a) is down-closed; β has 2^(|U|−|β|) supersets."""
    fam = ideals[a]
    if not _down_closed(fam):
        return None
    return 3 ** (size - a.bit_count()) * sum(1 << x.bit_count() for x in fam)


def _grows(ideals, size: int, a: int) -> bool:
    """wOR and PR': the small sets that fail are x ∈ I(a) outside I(a ∪ d)."""
    fam = ideals[a]
    return all(fam <= ideals[a | d] for d in submasks(((1 << size) - 1) & ~a))


def _wor_unit(ideals, size: int, a: int) -> int | None:
    """wOR at a: (a ∪ α') − β = x for α' ⊆ β; α' ⊆ β has 2^|β| choices."""
    if not _grows(ideals, size, a):
        return None
    width = a.bit_count()
    return 3 ** (size - width) * sum(1 << width - x.bit_count() for x in ideals[a])


def _wcm_unit(ideals, size: int, a: int) -> int | None:
    """wCM at a: α' = (a − x) ∪ e for e ⊆ x, and α' − β = e."""
    total = 0
    for x in ideals[a]:
        base = a & ~x
        for e in submasks(x):
            if base | e and e not in ideals[base | e]:
                return None
        total += (1 << x.bit_count()) - (x == a)  # α' ≠ ∅
    return total << size - a.bit_count()


def _joins_small(big: frozenset[int], down: set[int], down2: set[int]) -> bool:
    """disjOR at (φ, φ'): (φ ∪ φ') − (ψ ∪ ψ') is x' ∪ y' for any x' ⊆ x ∈ I(φ)
    and y' ⊆ y ∈ I(φ')."""
    for x in down:
        for y in down2:
            if x | y not in big:
                return False
    return True


def _jointly_small(ideals, combo: tuple[int, ...], union: int) -> bool:
    """OR:n at a combo: some t ∈ I(union) has a − t ∈ I(a) for every a."""
    for t in ideals[union]:
        for a in combo:
            if a & ~t not in ideals[a]:
                break
        else:
            return True
    return False


def _cover_meets_small(ideals, a: int, covers) -> bool:
    """CM:n at a: some t = a − v, v a union of n − 2 members of I(a), is ∅
    or has t − x ∈ I(t) for an x ∈ I(a)."""
    fam = ideals[a]
    for v in covers:
        t = a & ~v
        if t == 0:
            return True
        small = ideals[t]
        for x in fam:
            if t & ~x in small:
                return True
    return False


def _cm_omega_holds(ideals, a: int) -> bool:
    """CM:omega at a: (a ∩ β) − β' = y − x for x, y ∈ I(a)."""
    fam = ideals[a]
    for x in fam:
        if x != a:
            small = ideals[a & ~x]
            for y in fam:
                if y & ~x not in small:
                    return False
    return True


def _ratm_unit(ideals, size: int, p: int) -> int | None:
    """RatM at φ: t = φ ∩ ψ' ranges over the t ∉ I(φ), and t − ψ = t ∩ x."""
    fam = ideals[p]
    for t in submasks(p):
        if t and t not in fam:
            small = ideals[t]
            for x in fam:
                if t & x not in small:
                    return None
    not_small = (1 << p.bit_count()) - len(fam)
    return len(fam) * not_small << 2 * (size - p.bit_count())


def _cut_unit(ideals, size: int, a: int) -> int | None:
    """CUT at a: with t = a − x, a − γ is y ∪ x' for y ∈ I(t) (∅ if t = ∅)
    and any x' ⊆ x."""
    fam = ideals[a]
    total = 0
    for x in fam:
        t = a & ~x
        for y in ideals[t] if t else (0,):
            for part in submasks(x):
                if y | part not in fam:
                    return None
        total += _rel_size(ideals, size, t)
    return total << size - a.bit_count()


def _cum_holds(ideals, p: int) -> bool:
    """CUM at φ: with t = φ − x, c ∈ I(φ) ⇔ (t = ∅ or t ∩ c ∈ I(t)) for every
    c ⊆ φ (c = φ − ψ')."""
    fam = ideals[p]
    subs = submasks(p)
    for x in fam:
        t = p & ~x
        if not t:
            if len(fam) != len(subs):
                return False
            continue
        small = ideals[t]
        for c in subs:
            if (c in fam) != (t & c in small):
                return False
    return True


def _m_plus_derived_unit(ideals, size: int, g: int) -> int | None:
    """M+derived at γ: t = γ ∩ β ranges over the t ∉ I(γ), and γ ∩ α ∩ β is
    t − y for y ∈ I(t)."""
    fam = ideals[g]
    total = 0
    for t in submasks(g):
        if t not in fam:
            if t:
                for y in ideals[t]:
                    if t & ~y in fam:
                        return None
            total += _rel_size(ideals, size, t)
    return total << size - g.bit_count()


# --- the scans ----------------------------------------------------------------


def _scan_rule(s: SizeSystem, r: RuleId) -> tuple:
    """(instances_checked, witness), plus the notes for OR:2, CM:2 and CCL."""
    count = 0
    ideals = s.ideals
    rel = _Consequences(s)
    size = s.universe.size
    full = s.universe.full_mask
    masks = s.universe.all_masks()
    nonempty = full_domain_masks(s.universe)

    def nm(a: int, b: int) -> bool:
        return a == 0 or (a & ~b) in ideals[a]

    tag, n = r.tag, r.param

    if tag == "SC":
        for a in nonempty:
            fam = ideals[a]
            for b in masks:
                if a & ~b:
                    continue
                count += 1
                if (a & ~b) not in fam:  # a − b is ∅ here; fails iff Opt fails at a
                    return count, (("alpha", a), ("beta", b))

    elif tag == "REF":
        for a in masks:
            for g in masks:
                count += 1
                if not nm(a & g, g):
                    return count, (("alpha", a), ("gamma", g))

    elif tag == "RW":
        for a in nonempty:
            held = _superset_unit(ideals, size, a)
            if held is not None:
                count += held
                continue
            fam = ideals[a]
            for b in rel[a]:
                for b2 in masks:
                    if b & ~b2:
                        continue
                    count += 1
                    if (a & ~b2) not in fam:
                        return count, (("alpha", a), ("beta", b), ("beta'", b2))

    elif tag == "wOR":
        for a in nonempty:
            held = _wor_unit(ideals, size, a)
            if held is not None:
                count += held
                continue
            for a2 in masks:
                for b in rel[a]:
                    if a2 & ~b:
                        continue
                    count += 1
                    if not nm(a | a2, b):
                        return count, (("alpha", a), ("alpha'", a2), ("beta", b))

    elif tag == "PR'":
        for a in nonempty:
            if _grows(ideals, size, a):
                count += len(ideals[a]) * 3 ** (size - a.bit_count())
                continue
            for a2 in nonempty:
                if a & ~a2:
                    continue
                for b in rel[a]:
                    if (a2 & ~a) & ~b:
                        continue
                    count += 1
                    if not nm(a2, b):
                        return count, (("alpha", a), ("alpha'", a2), ("beta", b))

    elif tag == "wCM":
        for a in nonempty:
            held = _wcm_unit(ideals, size, a)
            if held is not None:
                count += held
                continue
            for a2 in nonempty:
                if a2 & ~a:
                    continue
                for b in rel[a]:
                    if (a & b) & ~a2:
                        continue
                    count += 1
                    if not nm(a2, b):
                        return count, (("alpha", a), ("alpha'", a2), ("beta", b))

    elif tag == "disjOR":
        down = {p: {d for x in ideals[p] for d in submasks(x)} for p in nonempty}
        for p in nonempty:
            for p2 in nonempty:
                if p & p2:
                    continue
                if _joins_small(ideals[p | p2], down[p], down[p2]):
                    count += _rel_size(ideals, size, p) * _rel_size(ideals, size, p2)
                    continue
                for q in rel[p]:
                    for q2 in rel[p2]:
                        count += 1
                        if not nm(p | p2, q | q2):
                            return count, (("phi", p), ("phi'", p2), ("psi", q), ("psi'", q2))

    elif tag == "CP":
        for p in nonempty:
            count += 1
            if p in ideals[p]:
                return count, (("phi", p),)

    elif tag == "AND":
        _refuse_above_ceiling(r, sum(_rel_size(ideals, size, a) ** n for a in nonempty))
        for a in nonempty:
            if a not in _unions(ideals[a], n, a):  # no n small sets of a cover a
                count += _rel_size(ideals, size, a) ** n
                continue
            for combo in product(rel[a], repeat=n):
                count += 1
                meet = a
                for b in combo:
                    meet &= b
                if meet == 0:
                    return count, (("alpha", a), *((f"beta{i+1}", b) for i, b in enumerate(combo)))

    elif tag == "AND:omega":
        for a in nonempty:
            fam = ideals[a]
            if _union_closed(fam):  # a − (β ∩ β') = x ∪ y
                count += _rel_size(ideals, size, a) ** 2
                continue
            for b in rel[a]:
                for b2 in rel[a]:
                    count += 1
                    if (a & ~(b & b2)) not in fam:
                        return count, (("alpha", a), ("beta", b), ("beta'", b2))

    elif tag == "OR":
        notes = ("OR:2 and CM:2 name the same rule",) if n == 2 else ()
        _refuse_above_ceiling(r, len(nonempty) ** (n - 1) * len(masks))
        bits = _Follows(s)
        for combo in product(nonempty, repeat=n - 1):
            union = 0
            for a in combo:
                union |= a
            # Premises and conclusion read β only through t = β ∩ union.
            if not _jointly_small(ideals, combo, union):
                if n == 2:  # |rel(α₁)|, without building its bit set
                    count += _rel_size(ideals, size, union)
                    continue
                shared = -1
                for a in combo:
                    shared &= bits[a]
                count += shared.bit_count()
                continue
            for b in masks:
                ok = True
                for a in combo:
                    if (a & ~b) not in ideals[a]:
                        ok = False
                        break
                if not ok:
                    continue
                count += 1
                if (union & b) in ideals[union]:
                    alphas = ((f"alpha{i+1}", a) for i, a in enumerate(combo))
                    return count, (*alphas, ("beta", b)), notes
        return count, None, notes

    elif tag == "OR:omega":
        bits = _Follows(s)
        for a in nonempty:
            for a2 in nonempty:
                shared = bits[a] & bits[a2]
                if not shared & ~bits[a | a2]:
                    count += shared.bit_count()
                    continue
                fam2 = ideals[a2]
                for b in rel[a]:
                    if (a2 & ~b) not in fam2:
                        continue
                    count += 1
                    if ((a | a2) & ~b) not in ideals[a | a2]:
                        return count, (("alpha", a), ("alpha'", a2), ("beta", b))

    elif tag == "CM":
        notes = ("CM:2 and OR:2 name the same rule",) if n == 2 else ()
        _refuse_above_ceiling(r, sum(_rel_size(ideals, size, a) ** (n - 1) for a in nonempty))
        for a in nonempty:
            covers = _unions(ideals[a], n - 2, a) if n > 2 else (0,)
            if not _cover_meets_small(ideals, a, covers):
                count += _rel_size(ideals, size, a) ** (n - 1)
                continue
            for combo in product(rel[a], repeat=n - 1):
                count += 1
                t = a
                for b in combo[:-1]:
                    t &= b
                if nm(t, full & ~combo[-1]):
                    betas = ((f"beta{i+1}", b) for i, b in enumerate(combo))
                    return count, (("alpha", a), *betas), notes
        return count, None, notes

    elif tag == "CM:omega":
        for a in nonempty:
            if _cm_omega_holds(ideals, a):
                count += _rel_size(ideals, size, a) ** 2
                continue
            for b in rel[a]:
                for b2 in rel[a]:
                    count += 1
                    if not nm(a & b, b2):
                        return count, (("alpha", a), ("beta", b), ("beta'", b2))

    elif tag == "RatM":
        for p in nonempty:
            held = _ratm_unit(ideals, size, p)
            if held is not None:
                count += held
                continue
            fam = ideals[p]
            for q in rel[p]:
                for q2 in masks:
                    if (p & q2) in fam:  # p |~ ¬q2: premise p ̸|~ ¬q2 false
                        continue
                    count += 1
                    if not nm(p & q2, q):
                        return count, (("phi", p), ("psi", q), ("psi'", q2))

    elif tag == "CUT":
        for a in nonempty:
            held = _cut_unit(ideals, size, a)
            if held is not None:
                count += held
                continue
            fam = ideals[a]
            for b in rel[a]:
                for g in rel[a & b]:
                    count += 1
                    if (a & ~g) not in fam:
                        return count, (("alpha", a), ("beta", b), ("gamma", g))

    elif tag == "CUM":
        for p in nonempty:
            if _cum_holds(ideals, p):
                count += _rel_size(ideals, size, p) << size
                continue
            fam = ideals[p]
            for q in rel[p]:
                for q2 in masks:
                    count += 1
                    if ((p & ~q2) in fam) != nm(p & q, q2):
                        return count, (("phi", p), ("psi", q), ("psi'", q2))

    elif tag == "CCL":
        for a in nonempty:
            held = _superset_unit(ideals, size, a)
            if held is not None and _union_closed(ideals[a]):
                count += _rel_size(ideals, size, a) ** 2 + held
                continue
            closed_set = set(rel[a])
            for b in rel[a]:
                for b2 in rel[a]:
                    count += 1
                    if b & b2 not in closed_set:
                        witness = (("alpha", a), ("beta", b), ("beta'", b2))
                        return count, witness, ("consequences not closed under intersection",)
                for b2 in masks:
                    if b & ~b2:
                        continue
                    count += 1
                    if b2 not in closed_set:
                        witness = (("alpha", a), ("beta", b), ("beta'", b2))
                        return count, witness, ("consequences not closed under superset",)

    elif tag == "M+derived":
        for g in nonempty:
            held = _m_plus_derived_unit(ideals, size, g)
            if held is not None:
                count += held
                continue
            fam = ideals[g]
            for b in masks:
                if (g & b) in fam:  # γ |~ ¬β: premise γ ̸|~ ¬β false
                    continue
                for a in rel[g & b]:
                    count += 1
                    if (g & a & b) in fam:  # γ |~ ¬(α∧β): conclusion fails
                        return count, (("gamma", g), ("beta", b), ("alpha", a))

    else:  # pragma: no cover
        raise ValueError(f"unhandled rule {r!r}")

    return count, None
