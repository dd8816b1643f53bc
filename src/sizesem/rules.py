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

Every scan and `derive_relation` read the relation from one place,
`_Consequences`: for an antecedent a, every b with a |~ b in canonical order
(every set when a = ∅), filled on first use, so a scan that stops at its first
witness pays only for the antecedents it reached.
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
from .setcore import Subset
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
    if base in _PARAM_RULES and arg:
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
# AND:n and CM:n form their exact space Σₐ |rel(a)|ᵏ only when the bound
# |nonempty| · |masks|ᵏ is above the ceiling, since the sum fills rel(a) for
# every a, which a scan that stops early would not.
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


def _scan_rule(s: SizeSystem, r: RuleId) -> tuple:
    """(instances_checked, witness), plus the notes for OR:2, CM:2 and CCL."""
    count = 0
    ideals = s.ideals
    rel = _Consequences(s)
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
            for a2 in masks:
                for b in rel[a]:
                    if a2 & ~b:
                        continue
                    count += 1
                    if not nm(a | a2, b):
                        return count, (("alpha", a), ("alpha'", a2), ("beta", b))

    elif tag == "PR'":
        for a in nonempty:
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
        for p in nonempty:
            for p2 in nonempty:
                if p & p2:
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
        if len(nonempty) * len(masks) ** n > RULE_SCAN_CEILING:
            _refuse_above_ceiling(r, sum(len(rel[a]) ** n for a in nonempty))
        for a in nonempty:
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
            for b in rel[a]:
                for b2 in rel[a]:
                    count += 1
                    if (a & ~(b & b2)) not in fam:
                        return count, (("alpha", a), ("beta", b), ("beta'", b2))

    elif tag == "OR":
        notes = ("OR:2 and CM:2 name the same rule",) if n == 2 else ()
        _refuse_above_ceiling(r, len(nonempty) ** (n - 1) * len(masks))
        for combo in product(nonempty, repeat=n - 1):
            for b in masks:
                ok = True
                for a in combo:
                    if (a & ~b) not in ideals[a]:
                        ok = False
                        break
                if not ok:
                    continue
                count += 1
                union = 0
                for a in combo:
                    union |= a
                if (union & b) in ideals[union]:
                    alphas = ((f"alpha{i+1}", a) for i, a in enumerate(combo))
                    return count, (*alphas, ("beta", b)), notes
        return count, None, notes

    elif tag == "OR:omega":
        for a in nonempty:
            for a2 in nonempty:
                fam2 = ideals[a2]
                for b in rel[a]:
                    if (a2 & ~b) not in fam2:
                        continue
                    count += 1
                    if ((a | a2) & ~b) not in ideals[a | a2]:
                        return count, (("alpha", a), ("alpha'", a2), ("beta", b))

    elif tag == "CM":
        notes = ("CM:2 and OR:2 name the same rule",) if n == 2 else ()
        if len(nonempty) * len(masks) ** (n - 1) > RULE_SCAN_CEILING:
            _refuse_above_ceiling(r, sum(len(rel[a]) ** (n - 1) for a in nonempty))
        for a in nonempty:
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
            for b in rel[a]:
                for b2 in rel[a]:
                    count += 1
                    if not nm(a & b, b2):
                        return count, (("alpha", a), ("beta", b), ("beta'", b2))

    elif tag == "RatM":
        for p in nonempty:
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
            fam = ideals[a]
            for b in rel[a]:
                for g in rel[a & b]:
                    count += 1
                    if (a & ~g) not in fam:
                        return count, (("alpha", a), ("beta", b), ("gamma", g))

    elif tag == "CUM":
        for p in nonempty:
            fam = ideals[p]
            for q in rel[p]:
                for q2 in masks:
                    count += 1
                    if ((p & ~q2) in fam) != nm(p & q, q2):
                        return count, (("phi", p), ("psi", q), ("psi'", q2))

    elif tag == "CCL":
        for a in nonempty:
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
