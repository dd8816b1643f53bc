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

Both directions are cell counts of leader walks (`search.count`), and no
leader is expanded while a row holds.  On a monotone system the filters
are principal iff I-omega holds: the I-omega family at X is P(M) for one
M ⊆ X, the system of the choice function f(X) = X − M.  Each rule of the
rows has a test below a base set on that reading (`below`), so it prunes the
walk as a property does.  Forward runs over every monotone full-powerset
system with principal filters: it counts left + I-omega, with and without
the rule, and the row holds iff both counts agree; the non-principal systems
with left are counted and skipped, not silently dropped.  Backward runs over
every choice function on a full domain, the I-omega systems: it counts those
with the rule, with and without left.  A row whose counts differ takes its
first witness and the tallies up to it from where they part: forward, the
first leader that the walk pruned by left + I-omega reaches and the one
pruned by the rule as well does not; backward, the first function of the
raw `enumerate_mu_functions` stream that has the rule but fails left, since
the walks do not go in the order of its `mu<n>#<rank>` labels.
Rows 8–10 backward instead confirm the known non-implication witness: the
choice function over {a,b,c} that picks {a} from {a,b} and is the identity
elsewhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator

from .errors import CapacityExceeded, DomainNotClosed
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
from .search import _first_parting, _letters, _systems_upto, count, sizes_upto, verdict
from .setcore import Columns, Universe, submasks
from .sizesys import MuFunction, _label_key, from_mu, full_domain_masks, principal_mu

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


def _or_holds(f, x, y):
    """f(X∪Y) ⊆ f(X) ∪ f(Y)."""
    return not f[x | y] & ~(f[x] | f[y])


def _same_choice(f, x, y):
    """f(X) = f(Y)."""
    return f[x] == f[y]


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
    "mu-disjOR": _pair_scan("XY", _disjoint, None, _or_holds),
    "mu-OR": _pair_scan("XY", _every_pair, None, _or_holds),
    "mu-PR": _pair_scan("XY", _inside, None, lambda f, x, y: not f[y] & x & ~f[x]),
    "mu-PR'": _pair_scan("XY", _every_pair, _meet, lambda f, x, y: not f[x] & y & ~f[x & y]),
    "mu-CM": _pair_scan("XY", _between, None, lambda f, x, y: not f[y] & ~f[x]),
    "mu-ResM": _scan_res_m,
    "mu-CUT": _pair_scan("XY", _between, None, lambda f, x, y: not f[x] & ~f[y]),
    "mu-CUM": _pair_scan("XY", _between, None, lambda f, x, y: f[y] == f[x]),
    "mu-sub-sup": _pair_scan("XY", _choices_inside, None, _same_choice),
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


def _scan_mu_rule(mu: MuFunction, r: MuRuleId) -> tuple[int, Witness, int]:
    """(instances_checked, first witness or None, instances skipped) of r on mu.

    X and Y range over the domain.  The carrier policy lives here: a scan
    that looks f up at a composite carrier (X∪Y, X∩Y, X∩A, {a,b}) outside the
    domain raises KeyError, reported as DomainNotClosed for that set; an
    instance whose carrier is empty was skipped, and tallied, before any lookup.
    """
    try:
        return _MU_RULES[r.tag](mu)
    except KeyError as exc:
        raise DomainNotClosed(_label_key(mu.universe, exc.args[0]), r.tag) from None


def check_mu_rule(mu: MuFunction, r: MuRuleId) -> CheckReport:
    """Decide one choice-function rule over all instances; canonical witness."""
    count, witness, skipped = _scan_mu_rule(mu, r)
    return scan_report(mu.label, r.name, mu.universe, count, witness, skipped=skipped)


def mu_verdict(mu: MuFunction, r: MuRuleId) -> bool:
    """check_mu_rule(mu, r).holds, from the scan alone: no report is built."""
    return _scan_mu_rule(mu, r)[1] is None


def mu_to_rule_bridge(mu: MuFunction, r: RuleId) -> CheckReport:
    """Check a consequence-relation rule against the system induced by mu."""
    return check_rule(from_mu(mu), r)


# --- below one set -------------------------------------------------------------
#
# On a monotone I-omega system over a full domain I(X) = P(M) with M = max I(X),
# and the system stands for the choice function f(X) = X − M (`principal_mu`'s
# reading; `from_mu` of f is the system again).  A pair rule's instance (X, Y)
# reads f at sets inside Z = X ∪ Y alone, so the rule holds iff it holds below
# every Z: at the pairs with X ∪ Y = Z.  As I(Z) is P(M), A ⊆ M iff A ∈ I(Z),
# and f(X) meets M iff one of its points is in I(Z): most rules read I(Z) and
# one I(X), or a split X, Z − X, so theirs are column tests (`setcore.Columns`).


def _choice(x: int, fam) -> int:
    """f(X) = X − max I(X)."""
    return x & ~max(fam)


def _meets(cols, m: int) -> int:
    """The candidates for I(Z) with a point of m, so whose max meets m."""
    hit = 0
    while m:
        low = m & -m
        hit |= cols[low]
        m ^= low
    return hit


def _pr_cross(cols, z: int, x: int, fam_x) -> int:
    """mu-PR at X ⊊ Z, f(Z) ∩ X ⊆ f(X): max I(X) = X − f(X) is in I(Z).  mu-wOR
    at the pairs (X, Y) covering Z asks the same, of its least Y, Z − X."""
    return cols[max(fam_x)]


def _cm_cross(cols, z: int, y: int, fam_y) -> int:
    """mu-CM at Y ⊊ Z: f(Z) ⊆ Y, i.e. Z − Y ∈ I(Z), ⇒ f(Y) ⊆ f(Z), i.e. no
    point of f(Y) is in I(Z)."""
    return ~(cols[z & ~y] & _meets(cols, _choice(y, fam_y)))


def _cut_cross(cols, z: int, y: int, fam_y) -> int:
    """mu-CUT at Y ⊊ Z: f(Z) ⊆ Y ⇒ f(Z) ⊆ f(Y), i.e. Z − f(Y) ∈ I(Z)."""
    return ~(cols[z & ~y] & ~cols[z & ~_choice(y, fam_y)])


def _cum_cross(cols, z: int, y: int, fam_y) -> int:
    """mu-CUM at Y ⊊ Z: mu-CM's and mu-CUT's tests."""
    return _cm_cross(cols, z, y, fam_y) & _cut_cross(cols, z, y, fam_y)


def _ratm_cross(cols, z: int, x: int, fam_x) -> int:
    """mu-RatM at X ⊊ Z: X meets f(Z), i.e. X ∉ I(Z), ⇒ f(X) ⊆ f(Z) ∩ X, i.e.
    no point of f(X) is in I(Z)."""
    return ~(~cols[x] & _meets(cols, _choice(x, fam_x)))


def _disj_or_cross(cols, z: int, x: int, fam_x, fam_y) -> int:
    """mu-disjOR at a split Z = X ∪ Y: f(Z) ⊆ f(X) ∪ f(Y), i.e.
    Z − f(X) − f(Y) ∈ I(Z)."""
    return cols[z & ~_choice(x, fam_x) & ~_choice(z & ~x, fam_y)]


@lru_cache(maxsize=None)
def _covers(z: int) -> tuple[tuple[int, int], ...]:
    """The pairs X, Y of nonempty subsets of Z with X ∪ Y = Z."""
    subs = submasks(z)[1:]
    return tuple((x, y) for x in subs for y in subs if x | y == z)


def _pair_below(guard: PairTest, holds: PairTest, z: int, ideals) -> bool:
    """Whether guard ⇒ holds at every pair covering Z, f read off each I(X)."""
    f = {x: _choice(x, ideals[x]) for x in submasks(z)[1:]}
    return all(holds(f, x, y) for x, y in _covers(z) if guard(f, x, y))


_BELOW = {
    "mu-wOR": Columns(_pr_cross),
    "mu-PR": Columns(_pr_cross),
    "mu-disjOR": Columns(_disj_or_cross, pairs=True),
    "mu-OR": partial(_pair_below, _every_pair, _or_holds),
    "mu-CM": Columns(_cm_cross),
    "mu-CUT": Columns(_cut_cross),
    "mu-CUM": Columns(_cum_cross),
    "mu-sub-sup": partial(_pair_below, _choices_inside, _same_choice),
    "mu-RatM": Columns(_ratm_cross),
}


def below(r: MuRuleId) -> Callable[[int, dict], bool]:
    """r's test below(Z, ideals) of the instances inside Z that cover it, on
    I(Z) and the ideals of Z's subsets read as f(X) = X − max I(X): on a
    monotone I-omega system, r holds on its choice function iff the test
    passes at every Z.  The rules of the correspondence rows have one."""
    test = _BELOW.get(r.tag)
    if test is None:
        raise ValueError(f"{r.tag} has no test below a base set")
    return test


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
    """Left side ⇒ choice side, over monotone principal systems up to size max.

    A monotone system is principal iff it has I-omega, so the row holds iff
    the walks pruned by left + I-omega with and without the rule's test
    (`below`) count the same systems.  A failing row's first witness is the
    first leader at which those walks part, and its tallies run up to it."""
    if row not in ROW_LEFT:
        raise ValueError("row must be 1..10")
    sizes = sizes_upto(max_universe)
    _check_scan_size(max_universe)
    left, mu_rule = ROW_LEFT[row], ROW_MU[row]

    checked, witness = count(sizes, True, left + (IOMEGA,)), None
    # Row 7's choice side is structural: only count the systems it ranges over.
    if mu_rule is None or count(sizes, True, left + (IOMEGA, mu_rule)) == checked:
        skipped = 0 if IOMEGA in left else count(sizes, True, left) - checked
    else:
        walks = [left + (IOMEGA,), left + (IOMEGA, mu_rule)]
        space, idx, checked = _first_parting(sizes, True, walks)
        if idx is None:
            raise RuntimeError(f"row {row}: the cell counts differ, yet no leader fails")
        before = range(1, space.universe.size)
        skipped = count(before, True, left) + _systems_upto(space, left, idx) - checked
        s = space.leader(idx)
        mu = principal_mu(s)
        rep = check_mu_rule(mu, mu_rule)
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
        failing = [p for p in left if not verdict(system, p)]
        confirmed = mu_verdict(mu, mu_rule) and bool(failing)
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

    # Read as f(X) = X − max I(X), each I-omega system is a choice function
    # whose system is itself, so the row holds iff left prunes none of them.
    pruned = (IOMEGA,) if mu_rule is None else (IOMEGA, mu_rule)
    checked, witness = count(sizes, True, pruned), None
    if count(sizes, True, pruned + left) != checked:
        # The walks do not go in the order of the mu<n>#<rank> labels: read
        # the raw stream of choice functions up to the first that fails.
        checked = 0
        for mu in (mu for n in sizes for mu in enumerate_mu_functions(Universe(_letters(n)))):
            if mu_rule is not None and not mu_verdict(mu, mu_rule):
                continue
            checked += 1
            system = from_mu(mu)
            failing = next((p for p in left if not verdict(system, p)), None)
            if failing is not None:
                break
        else:
            raise RuntimeError(f"row {row}: the cell counts differ, yet no function fails")
        rep = check_property(system, failing)
        witness = {"mu": mu.to_dict(), "system": system.to_dict(), "violation": rep.to_dict()}

    return CorrespondenceReport(
        row=row,
        direction="backward",
        universe_max=max_universe,
        systems_checked=checked,
        holds=witness is None,
        witness=witness,
    )
