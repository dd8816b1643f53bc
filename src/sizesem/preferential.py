"""Choice-function rules and the size↔choice-function correspondence.

A choice function f picks the "normal" part f(X) ⊆ X of every domain member.
It induces the principal-filter system F(X) = {A : f(X) ⊆ A ⊆ X}; conversely
a system whose every filter has a least element yields a choice function.
`verify_correspondence_forward` and `_backward` check, by exhaustion over
small universes, the ten rows tying size properties to choice-function rules:

    row  size side                     choice side
    1    eMI                        ⇔  mu-wOR       f(X∪Y) ⊆ f(X) ∪ Y
    2    eMI + I-omega              ⇔  mu-OR        f(X∪Y) ⊆ f(X) ∪ f(Y)
    3    eMI + I-omega              ⇔  mu-PR        X ⊆ Y ⇒ f(Y)∩X ⊆ f(X)
    4    I-union-disj               ⇔  mu-disjOR    disjoint form of mu-OR
    5    M+omega:4                  ⇔  mu-CM        f(X) ⊆ Y ⊆ X ⇒ f(Y) ⊆ f(X)
    6    M++:1                      ⇔  mu-RatM      X ⊆ Y, X∩f(Y) ≠ ∅ ⇒ f(X) ⊆ f(Y)∩X
    7    I-omega                    ⇔  (structural: principal filters intersect)
    8    eMI + I-omega              ⇒  mu-CUT       (converse fails)
    9    eMI + I-omega + M+omega:4  ⇒  mu-CUM       (converse fails)
    10   eMI + I-omega + eMF        ⇒  mu-sub-sup   (converse fails)

Forward runs over every monotone full-powerset system with principal filters
(non-principal systems are counted and skipped, not silently dropped).
Backward runs over every choice function on a full domain; rows 8–10 instead
confirm the known non-implication witness: the choice function over {a,b,c}
that picks {a} from {a,b} and is the identity elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import CapacityExceeded, DomainNotClosed, NotPrincipal
from .properties import (
    EMF,
    EMI,
    IOMEGA,
    I_UNION_DISJ,
    PropertyId,
    check_property,
    m_plus_omega,
    m_plus_plus,
)
from .report import CheckReport, CorrespondenceReport, Witness, scan_report
from .rules import RuleId, check_rule
from .search import SearchSpec, _letters, check_size, enumerate_systems, first_failure
from .setcore import Universe, submasks
from .sizesys import MuFunction, SizeSystem, _label_key, from_mu, full_domain_masks, principal_mu

_MU_RULES = {
    "mu-wOR",
    "mu-disjOR",
    "mu-OR",
    "mu-PR",
    "mu-PR'",
    "mu-CM",
    "mu-ResM",
    "mu-CUT",
    "mu-CUM",
    "mu-sub-sup",
    "mu-RatM",
    "mu-eq",
    "mu-eq'",
    "mu-parallel",
    "mu-union",
    "mu-union'",
    "mu-in",
    "mu-empty",
    "mu-empty-fin",
}


@dataclass(frozen=True)
class MuRuleId:
    tag: str

    def __post_init__(self):
        if self.tag not in _MU_RULES:
            raise ValueError(f"unknown mu rule {self.tag!r}")

    @property
    def name(self) -> str:
        return self.tag

    def __str__(self) -> str:
        return self.tag


MU_WOR = MuRuleId("mu-wOR")
MU_DISJ_OR = MuRuleId("mu-disjOR")
MU_OR = MuRuleId("mu-OR")
MU_PR = MuRuleId("mu-PR")
MU_PR_PRIME = MuRuleId("mu-PR'")
MU_CM = MuRuleId("mu-CM")
MU_RES_M = MuRuleId("mu-ResM")
MU_CUT = MuRuleId("mu-CUT")
MU_CUM = MuRuleId("mu-CUM")
MU_SUBSET_SUPSET = MuRuleId("mu-sub-sup")
MU_RATM = MuRuleId("mu-RatM")
MU_EQ = MuRuleId("mu-eq")
MU_EQ_PRIME = MuRuleId("mu-eq'")
MU_PARALLEL = MuRuleId("mu-parallel")
MU_UNION = MuRuleId("mu-union")
MU_UNION_PRIME = MuRuleId("mu-union'")
MU_IN = MuRuleId("mu-in")
MU_EMPTY = MuRuleId("mu-empty")
MU_EMPTY_FIN = MuRuleId("mu-empty-fin")


def parse_mu_rule(text: str) -> MuRuleId:
    return MuRuleId(text.strip())


def check_mu_rule(mu: MuFunction, r: MuRuleId) -> CheckReport:
    """Decide one choice-function rule over all instances; canonical witness.

    X and Y range over the domain; composite carriers (X∪Y, X∩A, {a,b}) must
    be in the domain when an instance needs their value: a missing nonempty
    carrier raises DomainNotClosed, an empty one skips the instance.
    """
    count, witness, skipped = _scan_mu(mu, r.tag)
    return scan_report(mu.label, r.name, mu.universe, count, witness, skipped=skipped)


def _scan_mu(mu: MuFunction, tag: str) -> tuple[int, Witness, int]:
    """(instances_checked, witness, instances skipped for an empty carrier)."""
    u = mu.universe
    dom = mu.domain_masks
    f = mu.choice
    count = 0
    skipped = 0

    def need(mask: int, context: str) -> bool:
        """True if the carrier is usable; skips ∅, raises when missing."""
        nonlocal skipped
        if mask == 0:
            skipped += 1
            return False
        if mask not in f:
            raise DomainNotClosed(_label_key(u, mask), context)
        return True

    if tag in ("mu-wOR", "mu-disjOR", "mu-OR", "mu-parallel"):
        for x in dom:
            for y in dom:
                if tag == "mu-disjOR" and x & y:
                    continue
                un = x | y
                if un not in f:
                    raise DomainNotClosed(_label_key(u, un), tag)
                count += 1
                fu = f[un]
                if tag == "mu-wOR":
                    ok = not fu & ~(f[x] | y)
                elif tag == "mu-parallel":
                    ok = fu in (f[x], f[y], f[x] | f[y])
                else:
                    ok = not fu & ~(f[x] | f[y])
                if not ok:
                    return count, (("X", x), ("Y", y)), skipped

    elif tag == "mu-PR":
        for x in dom:
            for y in dom:
                if x & ~y:
                    continue
                count += 1
                if f[y] & x & ~f[x]:
                    return count, (("X", x), ("Y", y)), skipped

    elif tag == "mu-PR'":
        for x in dom:
            for y in dom:
                lhs = f[x] & y
                meet = x & y
                if meet == 0:
                    skipped += 1  # lhs ⊆ x∩y is empty too; nothing to test
                    continue
                if meet not in f:
                    raise DomainNotClosed(_label_key(u, meet), tag)
                count += 1
                if lhs & ~f[meet]:
                    return count, (("X", x), ("Y", y)), skipped

    elif tag in ("mu-CM", "mu-CUT", "mu-CUM"):
        for x in dom:
            fx = f[x]
            for y in dom:
                if fx & ~y or y & ~x:
                    continue
                count += 1
                if tag == "mu-CM":
                    ok = not f[y] & ~fx
                elif tag == "mu-CUT":
                    ok = not fx & ~f[y]
                else:
                    ok = f[y] == fx
                if not ok:
                    return count, (("X", x), ("Y", y)), skipped

    elif tag == "mu-ResM":
        all_masks = u.all_masks()
        for x in dom:
            fx = f[x]
            for a in all_masks:
                meet = x & a
                for b in all_masks:
                    if fx & ~(a & b):
                        continue
                    if not need(meet, tag):
                        continue
                    count += 1
                    if f[meet] & ~b:
                        return count, (("X", x), ("A", a), ("B", b)), skipped

    elif tag == "mu-sub-sup":
        for x in dom:
            for y in dom:
                if f[x] & ~y or f[y] & ~x:
                    continue
                count += 1
                if f[x] != f[y]:
                    return count, (("X", x), ("Y", y)), skipped

    elif tag in ("mu-RatM", "mu-eq"):
        for x in dom:
            for y in dom:
                if x & ~y or not x & f[y]:
                    continue
                count += 1
                if tag == "mu-RatM":
                    ok = not f[x] & ~(f[y] & x)
                else:
                    ok = f[x] == f[y] & x
                if not ok:
                    return count, (("X", x), ("Y", y)), skipped

    elif tag == "mu-eq'":
        for y in dom:
            fy = f[y]
            for x in dom:
                if not fy & x:
                    continue
                meet = y & x  # nonempty: it contains f(Y)∩X
                if meet not in f:
                    raise DomainNotClosed(_label_key(u, meet), tag)
                count += 1
                if f[meet] != fy & x:
                    return count, (("Y", y), ("X", x)), skipped

    elif tag in ("mu-union", "mu-union'"):
        for x in dom:
            fx = f[x]
            for y in dom:
                if not f[y] & (x & ~fx):
                    continue
                un = x | y
                if un not in f:
                    raise DomainNotClosed(_label_key(u, un), tag)
                count += 1
                if tag == "mu-union":
                    ok = not f[un] & y
                else:
                    ok = f[un] == fx
                if not ok:
                    return count, (("X", x), ("Y", y)), skipped

    elif tag == "mu-in":
        for x in dom:
            rest = x & ~f[x]
            for i in range(u.size):
                a = 1 << i
                if not rest & a:
                    continue
                count += 1
                for j in range(u.size):
                    b = 1 << j
                    if not x & b:
                        continue
                    pair = a | b
                    if pair not in f:
                        raise DomainNotClosed(_label_key(u, pair), tag)
                    if not f[pair] & a:
                        break
                else:
                    return count, (("X", x), ("a", a)), skipped

    elif tag in ("mu-empty", "mu-empty-fin"):
        for x in dom:
            count += 1
            if f[x] == 0:
                return count, (("X", x),), skipped

    else:  # pragma: no cover
        raise ValueError(f"unhandled mu rule {tag!r}")

    return count, None, skipped


def mu_to_rule_bridge(mu: MuFunction, r: RuleId) -> CheckReport:
    """Check a consequence-relation rule against the system induced by mu."""
    return check_rule(from_mu(mu), r)


# --- correspondence rows ------------------------------------------------------

ROW_LEFT: dict[int, tuple[PropertyId, ...]] = {
    1: (EMI,),
    2: (EMI, IOMEGA),
    3: (EMI, IOMEGA),
    4: (I_UNION_DISJ,),
    5: (m_plus_omega(4),),
    6: (m_plus_plus(1),),
    7: (IOMEGA,),
    8: (EMI, IOMEGA),
    9: (EMI, IOMEGA, m_plus_omega(4)),
    10: (EMI, IOMEGA, EMF),
}

ROW_MU: dict[int, MuRuleId | None] = {
    1: MU_WOR,
    2: MU_OR,
    3: MU_PR,
    4: MU_DISJ_OR,
    5: MU_CM,
    6: MU_RATM,
    7: None,  # structural: principal filters are intersection-closed
    8: MU_CUT,
    9: MU_CUM,
    10: MU_SUBSET_SUPSET,
}

NEGATIVE_BACKWARD_ROWS = (8, 9, 10)

CORRESPONDENCE_CEILING = 3


def enumerate_mu_functions(universe: Universe) -> Iterator[MuFunction]:
    """Every choice function on the full domain, canonical order.

    Choices at earlier domain members vary slowest, each over the submasks of
    its member in canonical order; a function is labelled mu<n>#<rank> with
    its rank in this stream, as systems are labelled u<n>#<rank>.
    """
    dom = full_domain_masks(universe)
    n = universe.size
    per_set = [submasks(m) for m in dom]
    for rank, choices in enumerate(itertools.product(*per_set)):
        yield MuFunction(universe, dom, dict(zip(dom, choices)), label=f"mu{n}#{rank}")


def counterexample_mu() -> MuFunction:
    """The known witness: over {a,b,c}, pick {a} from {a,b}, identity elsewhere."""
    u = Universe(_letters(3))
    dom = full_domain_masks(u)
    choice = {m: m for m in dom}
    ab = u.subset(["a", "b"]).mask
    choice[ab] = u.subset(["a"]).mask
    return MuFunction(u, dom, choice, label="cut-without-emi")


def _check_scan_size(max_universe: int) -> None:
    check_size(max_universe)
    if max_universe > CORRESPONDENCE_CEILING:
        raise CapacityExceeded(
            f"correspondence scans are capped at size {CORRESPONDENCE_CEILING}; size 4 "
            "has 2^32 choice functions and about 5.4e12 monotone systems"
        )


def verify_correspondence_forward(
    row: int, max_universe: int, parallelism: int = 1
) -> CorrespondenceReport:
    """Left side ⇒ choice side, over monotone principal systems up to size max."""
    if row not in ROW_LEFT:
        raise ValueError("row must be 1..10")
    _check_scan_size(max_universe)
    left = ROW_LEFT[row]
    mu_rule = ROW_MU[row]

    def evaluate(s: SizeSystem):
        for p in left:
            if not check_property(s, p).holds:
                return None
        try:
            mu = principal_mu(s)
        except NotPrincipal:
            return False
        # Row 7's choice side is structural: only count the systems it ranges over.
        if mu_rule is None:
            return True
        rep = check_mu_rule(mu, mu_rule)
        return True if rep.holds else (s, mu, rep)

    systems = (
        s
        for size in range(1, max_universe + 1)
        for s in enumerate_systems(SearchSpec(size, mode="count"))
    )
    checked, skipped, failure = first_failure(systems, evaluate, parallelism)
    witness = None
    if failure is not None:
        s, mu, rep = failure
        witness = {"system": s.to_dict(), "mu": mu.to_dict(), "violation": rep.to_dict()}

    return CorrespondenceReport(
        row=row,
        direction="forward",
        universe_max=max_universe,
        systems_checked=checked,
        holds=witness is None,
        witness=witness,
        skipped_non_principal=skipped,
        notes=("choice side is structural for principal filters",) if mu_rule is None else (),
    )


def verify_correspondence_backward(
    row: int, max_universe: int, parallelism: int = 1
) -> CorrespondenceReport:
    """Choice side ⇒ left side over all choice functions; rows 8–10 confirm
    the non-implication instead, exhibiting the known witness, which needs a
    max_universe of at least 3."""
    if row not in ROW_LEFT:
        raise ValueError("row must be 1..10")
    left = ROW_LEFT[row]
    mu_rule = ROW_MU[row]

    if row in NEGATIVE_BACKWARD_ROWS:
        mu = counterexample_mu()
        if max_universe < mu.universe.size:
            raise ValueError(
                f"row {row} is confirmed by a witness on {mu.universe.size} elements; "
                f"max_universe {max_universe} excludes it"
            )
        system = from_mu(mu)
        assert mu_rule is not None
        mu_rep = check_mu_rule(mu, mu_rule)
        failing = [p for p in left if not check_property(system, p).holds]
        confirmed = mu_rep.holds and bool(failing)
        return CorrespondenceReport(
            row=row,
            direction="backward",
            universe_max=max_universe,
            systems_checked=1,
            holds=not confirmed,
            witness={
                "mu": mu.to_dict(),
                "system": system.to_dict(),
                "mu_rule": mu_rule.name,
                "fails": [p.name for p in failing],
            },
            non_implication_confirmed=confirmed,
            notes=("expected non-implication",),
        )

    _check_scan_size(max_universe)

    def evaluate(mu: MuFunction):
        if mu_rule is not None and not check_mu_rule(mu, mu_rule).holds:
            return None
        system = from_mu(mu)
        for p in left:
            rep = check_property(system, p)
            if not rep.holds:
                return mu, system, rep
        return True

    universes = (Universe(_letters(n)) for n in range(1, max_universe + 1))
    choices = (mu for u in universes for mu in enumerate_mu_functions(u))
    checked, _, failure = first_failure(choices, evaluate, parallelism)
    witness = None
    if failure is not None:
        mu, system, rep = failure
        witness = {"mu": mu.to_dict(), "system": system.to_dict(), "violation": rep.to_dict()}

    return CorrespondenceReport(
        row=row,
        direction="backward",
        universe_max=max_universe,
        systems_checked=checked,
        holds=witness is None,
        witness=witness,
    )
