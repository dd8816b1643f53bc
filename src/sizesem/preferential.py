"""Choice-function rules and the size↔choice-function correspondence.

A choice function f picks the "normal" part f(X) ⊆ X of every domain member.
It induces the principal-filter system F(X) = {A : f(X) ⊆ A ⊆ X}; conversely
a system whose every filter has a least element yields a choice function.

`_MU_RULES` maps each of the 19 mu-rule tags to its scan.  Fifteen rules
quantify over pairs X, Y of domain members, and `_pair_scan` builds each of
their scans from one table row: a premise, a carrier that must be nonempty,
and a conclusion.  mu-ResM, mu-in and mu-empty(-fin) have scans of their own.
The carrier policy sits in `check_mu_rule` alone: a composite set (X∪Y, X∩Y,
X∩A, {a,b}) that an instance needs f at but the domain lacks raises
DomainNotClosed naming it; an instance whose carrier is empty is skipped and
counted in the report's `skipped`.

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
from typing import Callable, Iterator

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
from .search import _letters, first_failure, scan_classes, sizes_upto
from .setcore import Universe, submasks
from .sizesys import MuFunction, SizeSystem, _label_key, from_mu, full_domain_masks, principal_mu

# --- choice-function rules ----------------------------------------------------
#
# A scan returns (instances_checked, witness, instances skipped for an empty
# carrier) and looks f up at every composite carrier an instance needs.

MuScan = Callable[[MuFunction], tuple[int, Witness, int]]
PairTest = Callable[[dict, int, int], object]  # (f, X, Y) -> truthy or falsy


def _pair_scan(
    names: str, guard: PairTest, carrier: Callable[[int, int], int] | None, holds: PairTest
) -> MuScan:
    """The scan of "for all X, Y in the domain: guard ⇒ holds".

    Pairs come in domain order, the first name's variable outermost.  A pair
    the guard admits whose carrier is empty is skipped and tallied.
    """
    outer, inner = names

    def scan(mu: MuFunction) -> tuple[int, Witness, int]:
        f = mu.choice
        dom = mu.domain_masks
        count = skipped = 0
        for x in dom:
            for y in dom:
                if not guard(f, x, y):
                    continue
                if carrier is not None and not carrier(x, y):
                    skipped += 1
                    continue
                count += 1
                if not holds(f, x, y):
                    return count, ((outer, x), (inner, y)), skipped
        return count, None, skipped

    return scan


def _every_pair(f, x, y):
    return True


def _meet(x, y):
    return x & y


def _disjoint(f, x, y):
    """X ∩ Y = ∅."""
    return not x & y


def _inside(f, x, y):
    """X ⊆ Y."""
    return not x & ~y


def _between(f, x, y):
    """f(X) ⊆ Y ⊆ X."""
    return not f[x] & ~y and not y & ~x


def _choices_inside(f, x, y):
    """f(X) ⊆ Y and f(Y) ⊆ X."""
    return not f[x] & ~y and not f[y] & ~x


def _inside_meeting(f, x, y):
    """X ⊆ Y and X ∩ f(Y) ≠ ∅."""
    return not x & ~y and x & f[y]


def _choice_meets(f, y, x):
    """f(Y) ∩ X ≠ ∅."""
    return f[y] & x


def _meets_rest(f, x, y):
    """f(Y) ∩ (X − f(X)) ≠ ∅."""
    return f[y] & x & ~f[x]


def _parallel(f, x, y):
    """f(X∪Y) is f(X), f(Y) or f(X) ∪ f(Y)."""
    return f[x | y] in (f[x], f[y], f[x] | f[y])


def _scan_res_m(mu: MuFunction) -> tuple[int, Witness, int]:
    """f(X) ⊆ A∩B ⇒ f(X∩A) ⊆ B, A and B over the supersets of f(X)."""
    f = mu.choice
    all_masks = mu.universe.all_masks()
    count = skipped = 0
    for x in mu.domain_masks:
        fx = f[x]
        supersets = [a for a in all_masks if not fx & ~a]
        for a in supersets:
            meet = x & a
            if not meet:
                skipped += len(supersets)
                continue
            f_meet = f[meet]
            for b in supersets:
                count += 1
                if f_meet & ~b:
                    return count, (("X", x), ("A", a), ("B", b)), skipped
    return count, None, skipped


def _scan_in(mu: MuFunction) -> tuple[int, Witness, int]:
    """Every a ∈ X − f(X) has some b ∈ X with a ∉ f({a,b})."""
    f = mu.choice
    points = [1 << i for i in range(mu.universe.size)]
    count = 0
    for x in mu.domain_masks:
        rest = x & ~f[x]
        for a in points:
            if not rest & a:
                continue
            count += 1
            for b in points:
                if x & b and not f[a | b] & a:
                    break
            else:
                return count, (("X", x), ("a", a)), 0
    return count, None, 0


def _scan_empty(mu: MuFunction) -> tuple[int, Witness, int]:
    """f(X) ≠ ∅ for every X; on a finite domain mu-empty-fin says the same."""
    f = mu.choice
    for count, x in enumerate(mu.domain_masks, 1):
        if not f[x]:
            return count, (("X", x),), 0
    return len(mu.domain_masks), None, 0


# The choice-function rule vocabulary.  A pair-scan row reads: variable names,
# the premise that makes (X, Y) an instance, the carrier that must be nonempty,
# and the conclusion.
_MU_RULES: dict[str, MuScan] = {
    "mu-wOR": _pair_scan("XY", _every_pair, None, lambda f, x, y: not f[x | y] & ~(f[x] | y)),
    "mu-disjOR": _pair_scan("XY", _disjoint, None, lambda f, x, y: not f[x | y] & ~(f[x] | f[y])),
    "mu-OR": _pair_scan("XY", _every_pair, None, lambda f, x, y: not f[x | y] & ~(f[x] | f[y])),
    "mu-PR": _pair_scan("XY", _inside, None, lambda f, x, y: not f[y] & x & ~f[x]),
    "mu-PR'": _pair_scan("XY", _every_pair, _meet, lambda f, x, y: not f[x] & y & ~f[x & y]),
    "mu-CM": _pair_scan("XY", _between, None, lambda f, x, y: not f[y] & ~f[x]),
    "mu-ResM": _scan_res_m,
    "mu-CUT": _pair_scan("XY", _between, None, lambda f, x, y: not f[x] & ~f[y]),
    "mu-CUM": _pair_scan("XY", _between, None, lambda f, x, y: f[y] == f[x]),
    "mu-sub-sup": _pair_scan("XY", _choices_inside, None, lambda f, x, y: f[x] == f[y]),
    "mu-RatM": _pair_scan("XY", _inside_meeting, None, lambda f, x, y: not f[x] & ~(f[y] & x)),
    "mu-eq": _pair_scan("XY", _inside_meeting, None, lambda f, x, y: f[x] == f[y] & x),
    "mu-eq'": _pair_scan("YX", _choice_meets, None, lambda f, y, x: f[y & x] == f[y] & x),
    "mu-parallel": _pair_scan("XY", _every_pair, None, _parallel),
    "mu-union": _pair_scan("XY", _meets_rest, None, lambda f, x, y: not f[x | y] & y),
    "mu-union'": _pair_scan("XY", _meets_rest, None, lambda f, x, y: f[x | y] == f[x]),
    "mu-in": _scan_in,
    "mu-empty": _scan_empty,
    "mu-empty-fin": _scan_empty,
}


@dataclass(frozen=True)
class MuRuleId:
    """One choice-function rule: a tag of `_MU_RULES`."""

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

    X and Y range over the domain.  The carrier policy lives here: a scan
    that looks f up at a composite carrier (X∪Y, X∩Y, X∩A, {a,b}) outside the
    domain raises KeyError, reported as DomainNotClosed for that set; an
    instance whose carrier is empty was skipped, and tallied, before any lookup.
    """
    try:
        count, witness, skipped = _MU_RULES[r.tag](mu)
    except KeyError as exc:
        raise DomainNotClosed(_label_key(mu.universe, exc.args[0]), r.tag) from None
    return scan_report(mu.label, r.name, mu.universe, count, witness, skipped=skipped)


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
    if max_universe > CORRESPONDENCE_CEILING:
        raise CapacityExceeded(
            f"correspondence scans are capped at size {CORRESPONDENCE_CEILING}; size 4 "
            "has 2^32 choice functions and about 5.4e12 monotone systems"
        )


def verify_correspondence_forward(row: int, max_universe: int) -> CorrespondenceReport:
    """Left side ⇒ choice side, over monotone principal systems up to size max."""
    if row not in ROW_LEFT:
        raise ValueError("row must be 1..10")
    sizes = sizes_upto(max_universe)
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

    checked, skipped, failure = scan_classes(sizes, True, evaluate)
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


def verify_correspondence_backward(row: int, max_universe: int) -> CorrespondenceReport:
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

    sizes = sizes_upto(max_universe)
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

    universes = (Universe(_letters(n)) for n in sizes)
    choices = ((1, mu) for u in universes for mu in enumerate_mu_functions(u))
    checked, _, failure, _ = first_failure(choices, evaluate)
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
