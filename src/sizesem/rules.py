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

OR:2 and CM:2 are one formula (α |~ β ⇒ α ̸|~ ¬β); a report under either
name notes the other, but each runs its own scan and names its witness its
own way: α₁, β for OR:2 against α, β₁ for CM:2.

The relation is read in three forms.  `_Consequences` gives rel(a), every b
with a |~ b in canonical order (every set when a = ∅), filled on first use:
`derive_relation` and the instance walks but OR:n's read it.  `_Follows`
holds rel(a) as a bit set, which OR:n and OR:omega intersect to decide or
count a unit, and `_Refutes` the b with a |~ ¬b, which OR:n's intersection
must miss.  `_rel_size` gives |rel(a)| in closed form.

Units.  A scan walks its instances in canonical order, grouped into units:
one antecedent a (every a ⊆ U for REF, ∅ included), or, where walking a whole
antecedent on failure would cost too much, the outer tuple: (φ, φ') for
disjOR, the α-combo for OR:n.  An instance reads each consequent b only
through its trace a − b ∈ I(a); the 2^k choices of b outside a
(k = |U| − |a|) repeat the same test.  So each unit is first decided from
I = I(a) and the ideals of a's subsets, and a unit that holds adds its
instance count in closed form, leaving out every instance the walk skips on a
premise:

    rule       the unit holds iff                            its instances
    SC         ∅ ∈ I                                         2ᵏ
    REF        ∅ ∈ I(t) for every ∅ ≠ t ⊆ a                  2^|U|
    RW         I is down-closed                              3ᵏ·Σ_{x∈I} 2^|x|
    wOR        I ⊆ I(a ∪ d) for every d ⊆ U − a              3ᵏ·Σ_{x∈I} 2^|a−x|
    PR'        as wOR                                        |I|·3ᵏ
    wCM        e ∈ I((a − x) ∪ e) for x ∈ I, e ⊆ x with      2ᵏ·Σ_{x∈I} (2^|x| − [x = a])
               (a − x) ∪ e ≠ ∅
    disjOR     x' ∪ y' ∈ I(φ ∪ φ') for x' ⊆ x ∈ I(φ),        |rel(φ)|·|rel(φ')|
               y' ⊆ y ∈ I(φ')
    CP         a ∉ I                                         1
    AND:n      no n members of I have union a                |rel(a)|ⁿ
    AND:omega  I is closed under ∪                           |rel(a)|²
    OR:n       rel(α₁) ∩ … ∩ rel(α_{n−1}) has no β with      |rel(α₁) ∩ … ∩ rel(α_{n−1})|
               ∪αᵢ |~ ¬β
    OR:omega   rel(α) ∩ rel(α') ⊆ rel(α ∪ α') for α' ≠ ∅     Σ_{α'} |rel(α) ∩ rel(α')|
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
as bit sets (`_Follows`, `_Refutes`).  Members of I(a) are subsets of a, as
`build` ensures.  RW, AND:omega, AND:n, CM:n and CCL read the tests of the
local size properties: `setcore.down_closed`, `union_closed` and `unions`.
`_UNITS` maps each rule tag to its unit test, and `_scan_rule` runs every
rule through one loop: it adds each unit's count until the first unit whose
test returns None, then walks that unit alone, instance by instance.  So
counts, witnesses and notes are those of a walk over every instance (SC, CP
and REF know their first violation without one).

A rule holds iff it holds below every nonempty Y (`below`): every unit
whose antecedent, superset (wOR, PR') or union (disjOR, OR:n, OR:omega) is Y
holds, read from I(Y) and the ideals of Y's subsets.  SC, REF, RW, CP,
AND:n, AND:omega and CCL read I(Y) alone, by their local properties' tests
(`setcore.Columns.alone`), and so do OR:2 and CM:2, by one test; RatM's,
CM:omega's, wOR's and PR' (eMI's) and disjOR's (I-union-disj's on
down-closures) are column tests.  These walk no
instance, so RULE_SCAN_CEILING bounds only the scans that do, `check_rule`
and a search target: an n-ary one that would exceed it — Σₐ |rel(a)|ⁿ for
AND:n, Σₐ |rel(a)|ⁿ⁻¹ for CM:n, (2^|U| − 1)ⁿ⁻¹ · 2^|U| for OR:n — is
refused with CapacityExceeded before it starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import product
from operator import or_
from typing import Callable

from .errors import CapacityExceeded, DomainNotFull, SetNotInDomain
from .logic import Formula, Interpretation, models
from .properties import EMI, IM, IOMEGA, OPT, _union_cross, _union_holds, below as _property_below, n_star_s
from .report import CheckReport, scan_report
from .setcore import Columns, Subset, canon_rank, down_closed, submasks, union_closed, unions
from .sizesys import SizeSystem, full_domain_masks

_PARAM_RULES = {"AND": 1, "OR": 2, "CM": 2}  # minimal n per family


@dataclass(frozen=True)
class RuleId:
    """One rule: a tag of `_UNITS`, and n for the AND, OR and CM families."""

    tag: str
    param: int | None = None

    def __post_init__(self):
        if self.tag not in _UNITS:
            raise ValueError(f"unknown rule tag {self.tag!r}")
        least = _PARAM_RULES.get(self.tag)
        if least is None:
            if self.param is not None:
                raise ValueError(f"{self.tag} takes no parameter")
        elif self.param is None or self.param < least:
            raise ValueError(f"{self.tag}:n needs n >= {least}")

    @property
    def name(self) -> str:
        return self.tag if self.param is None else f"{self.tag}:{self.param}"

    def __str__(self) -> str:
        return self.name


def and_n(n: int) -> RuleId:
    return RuleId("AND", n)


def or_n(n: int) -> RuleId:
    return RuleId("OR", n)


def cm_n(n: int) -> RuleId:
    return RuleId("CM", n)


def parse_rule(text: str) -> RuleId:
    text = text.strip()
    if text in _UNITS and text not in _PARAM_RULES:
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
    count, witness, notes = _scan_rule(s, r)
    return scan_report(s.label, r.name, s.universe, count, witness, notes)


def _refuse_above_ceiling(r: RuleId, space: int) -> None:
    if space > RULE_SCAN_CEILING:
        raise CapacityExceeded(
            f"{r.name} would examine up to {space} instances, above the ceiling {RULE_SCAN_CEILING}"
        )


# --- units -------------------------------------------------------------------
#
# Each `_*_unit(ideals, size, unit)` decides one unit of a scan (see the
# module docstring): its instance count when no instance fails, else None.
# A test that needs more (n, a `_Follows`, the nonempty masks, disjOR's
# down-closures) takes it before the unit, bound positionally with `partial`.


def _rel_size(ideals, size: int, a: int) -> int:
    """|rel(a)| = |I(a)|·2^(|U|−|a|); every mask when a = ∅."""
    return len(ideals[a]) << (size - a.bit_count()) if a else 1 << size


class _Follows(dict):
    """a ↦ rel(a) as an int with bit b set iff a |~ b, filled on first use:
    the b whose trace b ∩ a is a − x for some x ∈ I(a)."""

    def __init__(self, s: SizeSystem):
        self.ideals = s.ideals
        self.full = s.universe.full_mask

    @staticmethod
    def trace(a: int, x: int) -> int:
        return a & ~x

    def __missing__(self, a: int) -> int:
        outside = 1  # bit c for every c ⊆ U − a
        rest = self.full & ~a
        while rest:
            low = rest & -rest
            outside |= outside << low
            rest ^= low
        out = 0
        for x in self.ideals[a]:
            out |= outside << self.trace(a, x)
        self[a] = out
        return out


class _Refutes(_Follows):
    """a ↦ the b with a |~ ¬b as a bit set: those whose trace b ∩ a is in I(a)."""

    @staticmethod
    def trace(a: int, x: int) -> int:
        return x


def _grows(ideals, size: int, a: int) -> bool:
    """wOR and PR': the small sets that fail are x ∈ I(a) outside I(a ∪ d)."""
    fam = ideals[a]
    return all(fam <= ideals[a | d] for d in submasks(((1 << size) - 1) & ~a))


def _sc_unit(ideals, size: int, a: int) -> int | None:
    """SC at α: α − β = ∅ for each of the 2ᵏ supersets β of α."""
    return 1 << size - a.bit_count() if 0 in ideals[a] else None


def _ref_unit(ideals, size: int, a: int) -> int | None:
    """REF at α: (α ∩ γ) − γ = ∅ for each of the 2^|U| choices of γ, and
    α ∩ γ is every t ⊆ α (t = ∅ holds by convention)."""
    for t in submasks(a):
        if t and 0 not in ideals[t]:
            return None
    return 1 << size


def _superset_unit(ideals, size: int, a: int) -> int | None:
    """RW and CCL's ⊇ half: a − β' ⊆ a − β = x for β ⊆ β', so no instance
    fails iff I(a) is down-closed; β has 2^(|U|−|β|) supersets."""
    fam = ideals[a]
    if not down_closed(fam):
        return None
    return 3 ** (size - a.bit_count()) * sum(1 << x.bit_count() for x in fam)


def _wor_unit(ideals, size: int, a: int) -> int | None:
    """wOR at a: (a ∪ α') − β = x for α' ⊆ β; α' ⊆ β has 2^|β| choices."""
    if not _grows(ideals, size, a):
        return None
    width = a.bit_count()
    return 3 ** (size - width) * sum(1 << width - x.bit_count() for x in ideals[a])


def _pr_unit(ideals, size: int, a: int) -> int | None:
    """PR' at a: as wOR; each x ∈ I(a) has 3ᵏ choices of α' ⊇ a and β."""
    return len(ideals[a]) * 3 ** (size - a.bit_count()) if _grows(ideals, size, a) else None


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


def _down(fam) -> set[int]:
    """The down-closure of fam: every subset of a member."""
    return {d for x in fam for d in submasks(x)}


def _disj_or_unit(ideals, size: int, down, pair: tuple[int, int]) -> int | None:
    """disjOR at (φ, φ'): (φ ∪ φ') − (ψ ∪ ψ') is x' ∪ y' for any x' ⊆ x ∈ I(φ)
    and y' ⊆ y ∈ I(φ'): I-union-disj's test on the down-closures `down` of each."""
    p, p2 = pair
    holds = _union_holds(down[p], down[p2], ideals[p | p2])
    return _rel_size(ideals, size, p) * _rel_size(ideals, size, p2) if holds else None


def _cp_unit(ideals, size: int, p: int) -> int | None:
    """CP at φ: its one instance fails iff φ |~ ⊥, i.e. φ ∈ I(φ)."""
    return None if p in ideals[p] else 1


def _and_unit(ideals, size: int, n: int, a: int) -> int | None:
    """AND:n at a: a ∩ β₁ ∩ … ∩ βₙ = ∅ iff the sets a − βᵢ ∈ I(a) cover a."""
    if a in unions(ideals[a], n, a):
        return None
    return _rel_size(ideals, size, a) ** n


def _and_omega_unit(ideals, size: int, a: int) -> int | None:
    """AND:omega at a: a − (β ∩ β') = x ∪ y for x, y ∈ I(a), so I(a) must be
    closed under ∪."""
    return _rel_size(ideals, size, a) ** 2 if union_closed(ideals[a]) else None


def _or_unit(ideals, size: int, bits, refutes, combo: tuple[int, ...]) -> int | None:
    """OR:n at a combo: an instance fails iff every αᵢ |~ β while ∪αᵢ |~ ¬β,
    so the unit holds iff rel(α₁) ∩ … ∩ rel(α_{n−1}) misses the β that ∪αᵢ
    refutes."""
    if len(combo) == 1:  # OR:2 without bit sets, by its test of I(α₁) alone
        # Not a second path to fold into the bit sets below: building them makes OR:2
        # on a |U| = 4 or 5 document about 2.5 times slower (12 µs against 30 µs).
        a = combo[0]
        return _rel_size(ideals, size, a) if _or_2_alone(a, ideals[a]) else None
    shared, union = -1, 0
    for a in combo:
        shared &= bits[a]
        union |= a
    return None if shared & refutes[union] else shared.bit_count()


def _or_omega_unit(ideals, size: int, bits, nonempty, a: int) -> int | None:
    """OR:omega at α: rel(α) ∩ rel(α') ⊆ rel(α ∪ α') for every α' ≠ ∅."""
    mine = bits[a]
    total = 0
    for a2 in nonempty:
        shared = mine & bits[a2]
        if shared & ~bits[a | a2]:
            return None
        total += shared.bit_count()
    return total


def _cm_unit(ideals, size: int, n: int, a: int) -> int | None:
    """CM:n at a: an instance fails iff some t = a − v, v a union of n − 2
    members of I(a), is ∅ or has t − x ∈ I(t) for an x ∈ I(a)."""
    fam = ideals[a]
    for v in unions(fam, n - 2, a) if n > 2 else (0,):
        t = a & ~v
        if t == 0:
            return None
        small = ideals[t]
        for x in fam:
            if t & ~x in small:
                return None
    return _rel_size(ideals, size, a) ** (n - 1)


def _cm_omega_unit(ideals, size: int, a: int) -> int | None:
    """CM:omega at a: (a ∩ β) − β' = y − x for x, y ∈ I(a)."""
    fam = ideals[a]
    for x in fam:
        if x != a:
            small = ideals[a & ~x]
            for y in fam:
                if y & ~x not in small:
                    return None
    return _rel_size(ideals, size, a) ** 2


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


def _cum_unit(ideals, size: int, p: int) -> int | None:
    """CUM at φ: with t = φ − x, c ∈ I(φ) ⇔ (t = ∅ or t ∩ c ∈ I(t)) for every
    c ⊆ φ (c = φ − ψ')."""
    fam = ideals[p]
    subs = submasks(p)
    for x in fam:
        t = p & ~x
        if not t:
            if len(fam) != len(subs):
                return None
            continue
        small = ideals[t]
        for c in subs:
            if (c in fam) != (t & c in small):
                return None
    return _rel_size(ideals, size, p) << size


def _ccl_unit(ideals, size: int, a: int) -> int | None:
    """CCL at a: AND:omega's test for ∩, RW's for ⊇."""
    meets = _and_omega_unit(ideals, size, a)
    supersets = _superset_unit(ideals, size, a)
    return None if meets is None or supersets is None else meets + supersets


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


# --- below one set -------------------------------------------------------------


def _disj_or_cross(cols, y: int, p: int, fam_p, fam_q) -> int:
    """disjOR below Y at a split Y = φ ∪ φ': I-union-disj's column test on
    the down-closures of I(φ) and I(φ')."""
    return _union_cross(cols, y, p, _down(fam_p), _down(fam_q))


def _covered(y: int, ideals, t: int, j: int) -> bool:
    """Whether Y is a union of j sets α ⊆ Y with α − t ∈ I(α)."""
    return y in unions([a for a in submasks(y)[1:] if a & ~t in ideals[a]], j, y)


def _or_2_alone(y: int, fam) -> bool:
    """OR:2 and CM:2 below Y, from I(Y) alone: no t ∈ I(Y) has Y − t ∈ I(Y)."""
    return not any(y & ~t in fam for t in fam)


def _or_below(n: int, y: int, ideals) -> bool:
    """OR:n below Y, reading β through its trace t on Y = ∪αᵢ: no t ∈ I(Y)
    has n − 1 premises αᵢ covering Y."""
    return not any(_covered(y, ideals, t, n - 1) for t in ideals[y])


def _or_omega_below(y: int, ideals) -> bool:
    """OR:omega below Y: no t ⊆ Y with Y − t ∉ I(Y) has premises α, α'
    covering Y."""
    return not any(_covered(y, ideals, t, 2) for t in submasks(y) if y & ~t not in ideals[y])


def _stray(cols, y: int, t: int, fam_t) -> int:
    """The candidates for I(Y) with a member whose trace on t is not in I(t)."""
    out = 0
    for x in submasks(y):
        if x & t not in fam_t:
            out |= cols[x]
    return out


def _ratm_cross(cols, p: int, t: int, fam_t) -> int:
    """RatM below φ at one t ⊊ φ: its unit fails iff t ∉ I(φ) and some
    x ∈ I(φ) has t ∩ x ∉ I(t).  At t = φ, t ∩ x = x holds."""
    return ~(~cols[t] & _stray(cols, p, t, fam_t))


def _cm_omega_cross(cols, a: int, t: int, fam_t) -> int:
    """CM:omega below a at one t = a − x ⊊ a: its unit fails iff x ∈ I(a) and
    some y ∈ I(a) has y − x = y ∩ t ∉ I(t).  At x = ∅, y − x = y holds."""
    return ~(cols[a & ~t] & _stray(cols, a, t, fam_t))


# By rule name.  SC and REF read Opt's test below Y, RW iM's, CP 1*s's, AND:omega
# I-omega's, CCL iM's and I-omega's, AND:n n*s:n's (in `below`); OR:2 and CM:2 read
# I(Y) alone too; wOR and PR' read eMI's, I(α) ⊆ I(Y) for α ⊆ Y.
_OR_2 = Columns(alone=_or_2_alone)
_BELOW = {"SC": _property_below(OPT), "REF": _property_below(OPT), "RW": _property_below(IM),
          "CP": _property_below(n_star_s(1)), "AND:omega": _property_below(IOMEGA),
          "CCL": Columns(alone=lambda y, fam: down_closed(fam) and union_closed(fam)),
          "OR:2": _OR_2, "CM:2": _OR_2, "wOR": _property_below(EMI), "PR'": _property_below(EMI),
          "OR:omega": _or_omega_below, "disjOR": Columns(_disj_or_cross, pairs=True),
          "RatM": Columns(_ratm_cross), "CM:omega": Columns(_cm_omega_cross)}


def below(r: RuleId) -> Callable[[int, dict], bool]:
    """r's test below one set Y, below(Y, ideals), on a full domain: r holds
    on a system iff it holds below every nonempty Y.  Seven rules share a local
    property's test of I(Y) alone (`Columns.alone`), and OR:2 and CM:2 share
    one; RatM and CM:omega read one I(t) per instance besides, wOR and PR'
    share eMI's and disjOR reads I-union-disj's on down-closures; OR:n reads
    the sets that cover Y, and the others test a family by their unit."""
    if r.tag == "AND":
        return _property_below(n_star_s(r.param))
    if r.name in _BELOW:
        return _BELOW[r.name]
    if r.tag == "OR":
        return partial(_or_below, r.param)
    unit, n = _UNITS[r.tag], () if r.param is None else (r.param,)
    return lambda y, ideals: unit(ideals, y.bit_count(), *n, y) is not None


# The rule tags, each with the test of one of its units.
_UNITS = {
    "SC": _sc_unit,
    "REF": _ref_unit,
    "RW": _superset_unit,
    "wOR": _wor_unit,
    "PR'": _pr_unit,
    "wCM": _wcm_unit,
    "disjOR": _disj_or_unit,
    "CP": _cp_unit,
    "AND": _and_unit,
    "AND:omega": _and_omega_unit,
    "OR": _or_unit,
    "OR:omega": _or_omega_unit,
    "CM": _cm_unit,
    "CM:omega": _cm_omega_unit,
    "RatM": _ratm_unit,
    "CUT": _cut_unit,
    "CUM": _cum_unit,
    "CCL": _ccl_unit,
    "M+derived": _m_plus_derived_unit,
}

# OR:2 and CM:2 are one formula; a report under either name notes the other.
_ALIASES = {"OR:2": "CM:2", "CM:2": "OR:2"}

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


# --- the scan -----------------------------------------------------------------


def _scan_rule(s: SizeSystem, r: RuleId) -> tuple:
    """(instances_checked, witness, notes): units add their counts until a test
    returns None, and that unit alone is walked instance by instance."""
    _require_full(s)
    ideals = s.ideals
    size = s.universe.size
    masks = s.universe.all_masks()
    nonempty = full_domain_masks(s.universe)
    tag, n = r.tag, r.param
    alias = _ALIASES.get(r.name)
    notes = (f"{r.name} and {alias} name the same rule",) if alias else ()

    units = nonempty
    test = partial(_UNITS[tag], ideals, size)
    if tag == "REF":
        units = masks
    elif tag == "disjOR":
        units = ((p, p2) for p in nonempty for p2 in nonempty if not p & p2)
        test = partial(test, {p: _down(ideals[p]) for p in nonempty})
    elif tag == "OR:omega":
        test = partial(test, _Follows(s), nonempty)
    elif tag == "OR":
        _refuse_above_ceiling(r, len(nonempty) ** (n - 1) * len(masks))
        units = product(nonempty, repeat=n - 1)
        test = partial(test, _Follows(s), _Refutes(s))
    elif tag in ("AND", "CM"):
        power = n if tag == "AND" else n - 1
        _refuse_above_ceiling(r, sum(_rel_size(ideals, size, a) ** power for a in nonempty))
        test = partial(test, n)

    count = 0
    for unit in units:
        held = test(unit)
        if held is None:
            break
        count += held
    else:
        return count, None, notes

    rel = _Consequences(s)

    def nm(a: int, b: int) -> bool:
        return a == 0 or (a & ~b) in ideals[a]

    a = unit  # the antecedent, unless the unit is a pair or a combo

    if tag == "SC":  # the first superset β of α is α, and ∅ ∉ I(α)
        return count + 1, (("alpha", a), ("beta", a)), notes

    elif tag == "CP":  # the unit's one instance
        return count + 1, (("phi", a),), notes

    elif tag == "REF":
        # γ fails iff t = α ∩ γ ≠ ∅ has ∅ ∉ I(t); then t fails too and comes
        # no later than γ, so the first failing γ is the first such t ⊆ α.
        g = next(t for t in submasks(a) if t and 0 not in ideals[t])
        return count + canon_rank(size)[g] + 1, (("alpha", a), ("gamma", g)), notes

    elif tag == "RW":
        for b in rel[a]:
            for b2 in masks:
                if b & ~b2:
                    continue
                count += 1
                if (a & ~b2) not in ideals[a]:
                    return count, (("alpha", a), ("beta", b), ("beta'", b2)), notes

    elif tag == "wOR":
        for a2 in masks:
            for b in rel[a]:
                if a2 & ~b:
                    continue
                count += 1
                if not nm(a | a2, b):
                    return count, (("alpha", a), ("alpha'", a2), ("beta", b)), notes

    elif tag == "PR'":
        for a2 in nonempty:
            if a & ~a2:
                continue
            for b in rel[a]:
                if (a2 & ~a) & ~b:
                    continue
                count += 1
                if not nm(a2, b):
                    return count, (("alpha", a), ("alpha'", a2), ("beta", b)), notes

    elif tag == "wCM":
        for a2 in nonempty:
            if a2 & ~a:
                continue
            for b in rel[a]:
                if (a & b) & ~a2:
                    continue
                count += 1
                if not nm(a2, b):
                    return count, (("alpha", a), ("alpha'", a2), ("beta", b)), notes

    elif tag == "disjOR":
        p, p2 = unit
        for q in rel[p]:
            for q2 in rel[p2]:
                count += 1
                if not nm(p | p2, q | q2):
                    return count, (("phi", p), ("phi'", p2), ("psi", q), ("psi'", q2)), notes

    elif tag == "AND":
        for combo in product(rel[a], repeat=n):
            count += 1
            meet = a
            for b in combo:
                meet &= b
            if meet == 0:
                betas = ((f"beta{i+1}", b) for i, b in enumerate(combo))
                return count, (("alpha", a), *betas), notes

    elif tag == "AND:omega":
        for b in rel[a]:
            for b2 in rel[a]:
                count += 1
                if (a & ~(b & b2)) not in ideals[a]:
                    return count, (("alpha", a), ("beta", b), ("beta'", b2)), notes

    elif tag == "OR":
        union = reduce(or_, unit)
        for b in masks:
            for x in unit:
                if (x & ~b) not in ideals[x]:
                    break
            else:
                count += 1
                if (union & b) in ideals[union]:
                    alphas = ((f"alpha{i+1}", x) for i, x in enumerate(unit))
                    return count, (*alphas, ("beta", b)), notes

    elif tag == "OR:omega":
        for a2 in nonempty:
            for b in rel[a]:
                if (a2 & ~b) not in ideals[a2]:
                    continue
                count += 1
                if ((a | a2) & ~b) not in ideals[a | a2]:
                    return count, (("alpha", a), ("alpha'", a2), ("beta", b)), notes

    elif tag == "CM":
        for combo in product(rel[a], repeat=n - 1):
            count += 1
            t = a
            for b in combo[:-1]:
                t &= b
            if nm(t, s.universe.full_mask & ~combo[-1]):
                betas = ((f"beta{i+1}", b) for i, b in enumerate(combo))
                return count, (("alpha", a), *betas), notes

    elif tag == "CM:omega":
        for b in rel[a]:
            for b2 in rel[a]:
                count += 1
                if not nm(a & b, b2):
                    return count, (("alpha", a), ("beta", b), ("beta'", b2)), notes

    elif tag == "RatM":
        for q in rel[a]:
            for q2 in masks:
                if (a & q2) in ideals[a]:  # φ |~ ¬ψ': premise φ ̸|~ ¬ψ' false
                    continue
                count += 1
                if not nm(a & q2, q):
                    return count, (("phi", a), ("psi", q), ("psi'", q2)), notes

    elif tag == "CUT":
        for b in rel[a]:
            for g in rel[a & b]:
                count += 1
                if (a & ~g) not in ideals[a]:
                    return count, (("alpha", a), ("beta", b), ("gamma", g)), notes

    elif tag == "CUM":
        for q in rel[a]:
            for q2 in masks:
                count += 1
                if ((a & ~q2) in ideals[a]) != nm(a & q, q2):
                    return count, (("phi", a), ("psi", q), ("psi'", q2)), notes

    elif tag == "CCL":
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
        for b in masks:
            if (a & b) in ideals[a]:  # γ |~ ¬β: premise γ ̸|~ ¬β false
                continue
            for a2 in rel[a & b]:
                count += 1
                if (a & a2 & b) in ideals[a]:  # γ |~ ¬(α∧β): conclusion fails
                    return count, (("gamma", a), ("beta", b), ("alpha", a2)), notes

    assert False, f"{r.name} at {unit}: the unit fails its test but no instance fails"
