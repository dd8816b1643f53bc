"""Choice-function rules and the size↔choice-function correspondence.

A choice function f picks the "normal" part f(X) ⊆ X of every domain member.
It induces the principal-filter system F(X) = {A : f(X) ⊆ A ⊆ X}; conversely
a system whose every filter has a least element yields a choice function.

`_MU_RULES` maps each of the 19 mu-rule tags to its scan.  Fifteen rules
quantify over pairs X, Y of domain members, and `_pair_rule` decides each one
X at a time, from bit masks over the domain positions of the Y its guard
admits and of the Y whose conclusion holds.  A row has one of three shapes:
direct, reading f at X and Y alone; by the union Z = X ∪ Y; or by the meet
W = X ∩ Y, deciding each class of Y with one Z or W at once.  mu-ResM, mu-in
and mu-empty(-fin) have scans of their own.  The first instance in scan
order that fails or needs f at a composite set (X∪Y, X∩Y, X∩A, {a,b}) outside
the domain ends the scan: in the second case `_scan_mu_rule` raises
DomainNotClosed naming that set.  An instance whose carrier is empty is
skipped and counted in the report's `skipped`.

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

Both directions are read where two leader walks part, in one walk over
their union per size (`search._first_parting`).  On a monotone system the
filters are principal iff I-omega holds: the I-omega family at X is P(M)
for one M ⊆ X, the system of f(X) = X − M.  Each rule of the rows has a
test below a base set on that reading (`below`), so it prunes the walk as a
property does.  Forward, over the monotone systems with principal filters,
the row holds iff the walks pruned by left + I-omega with and without the
rule never part; the non-principal systems with left are counted and
skipped, not silently dropped.  Backward, over the choice functions on a
full domain, the I-omega systems, it holds iff the walks pruned by the rule
with and without left never part.  A failing row's first witness and
tallies are read where they part: forward, at the first leader that only
the walk without the rule reaches; backward, at the first function of the
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
from operator import and_, or_
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
# carrier) and looks f up at every composite carrier an instance needs.  The
# fifteen pair rules are decided one outer X at a time, by bit masks over the
# domain positions (Knuth, TAOCP 4A §7.1.3).

MuScan = Callable[[MuFunction], tuple[int, Witness, int]]
PairTest = Callable[[dict, int, int], object]  # (f, X, Y) -> truthy or falsy


@lru_cache(maxsize=None)
def _sum_steps(n: int) -> tuple[tuple[int, int], ...]:
    """(S, S − b) for each bit b of U in turn and each S ⊆ U holding b."""
    return tuple((s, s ^ 1 << b) for b in range(n) for s in range(1 << n) if s >> b & 1)


def _sums(at: list[int], n: int) -> tuple[list[int], list[int]]:
    """For every S ⊆ U, the OR of at[T] over the T ⊆ S and over the T ⊇ S."""
    down, up = at[:], at[:]
    for s, t in _sum_steps(n):
        down[s] |= down[t]
        up[t] |= up[s]
    return down, up


@lru_cache(maxsize=64)
def _domain_rows(domain: tuple[int, ...], n: int) -> tuple:
    """Per S ⊆ U, the positions of the Y ⊆ S and of the Y ⊇ S; per X in the
    domain, its nonempty classes of Y by Z = X ∪ Y, the Y ⊆ Z and ⊇ Z − X, and
    by W = X ∩ Y, the Y ⊇ W and ⊆ W ∪ (U − X), as (Z or W, mask of its Y).
    Every choice function on the domain shares them: never change them."""
    at = [0] * (1 << n)
    for i, y in enumerate(domain):
        at[y] = 1 << i
    sub, sup = _sums(at, n)
    full = (1 << n) - 1
    unions = {x: [(x | r, ys) for r in submasks(full & ~x) if (ys := sub[x | r] & sup[r])]
              for x in domain}
    meets = {x: [(w, ys) for w in submasks(x) if (ys := sup[w] & sub[w | full & ~x])]
             for x in domain}
    return sub, sup, unions, meets


class _Masks:
    """A choice function's masks of domain positions, per S ⊆ U: sub and sup
    hold the Y ⊆ S and ⊇ S; eq, fsub and fsup the Y with f(Y) = S, ⊆ S and
    ⊇ S; every holds them all.  unions and meets list each X's classes of Y."""

    __slots__ = ("full", "every", "sub", "sup", "unions", "meets", "eq", "fsub", "fsup")

    def __init__(self, mu: MuFunction):
        n, dom, f = mu.universe.size, mu.domain_masks, mu.choice
        self.full, self.every = mu.universe.full_mask, (1 << len(dom)) - 1
        self.sub, self.sup, self.unions, self.meets = _domain_rows(dom, n)
        self.eq = [0] * (1 << n)
        for i, y in enumerate(dom):
            self.eq[f[y]] |= 1 << i
        self.fsub, self.fsup = _sums(self.eq, n)


def _pair_rule(names: str, carrier, admits, holds) -> MuScan:
    """The scan of "for all X, Y in the domain: guard ⇒ conclusion".

    Per X of the first name, admits(m, x, f(X)) masks the Y the guard admits
    (None: every Y) and holds(m, x, f(X)) the Y whose conclusion holds.  A
    conclusion that reads f at a carrier C, X ∪ Y (or_) or X ∩ Y (and_), is
    decided per class of the Y with one C instead, by holds(m, f(X), C, f(C));
    the Y of C = ∅ are skipped and those of a C outside the domain fail.
    Pairs come in domain order, so the first that fails is at the lowest set
    bit; if its carrier is outside the domain, its KeyError is raised instead.
    """
    outer, inner = names

    def scan(mu: MuFunction) -> tuple[int, Witness, int]:
        if mu._masks is None:
            mu._masks = _Masks(mu)
        m, f = mu._masks, mu.choice
        classes = m.unions if carrier is or_ else m.meets
        count = skipped = 0
        for x in mu.domain_masks:
            fx = f[x]
            admit = m.every if admits is None else admits(m, x, fx)
            fail = skip = 0
            if carrier is None:
                fail = admit & ~holds(m, x, fx)
            else:
                for c, ys in classes[x]:
                    if not c:
                        skip = ys & admit
                    elif ys & admit:
                        fc = f.get(c)
                        fail |= ys if fc is None else ys & ~holds(m, fx, c, fc)
                fail &= admit
            if not fail:
                count += (admit & ~skip).bit_count()
                skipped += skip.bit_count()
                continue
            low = fail & -fail
            y = mu.domain_masks[low.bit_length() - 1]
            if carrier is not None and carrier(x, y) not in f:
                raise KeyError(carrier(x, y))
            count += (admit & ~skip & low - 1).bit_count() + 1
            skipped += (skip & low - 1).bit_count()
            return count, ((outer, x), (inner, y)), skipped
        return count, None, skipped

    return scan


def _between(m, x, fx):
    """f(X) ⊆ Y ⊆ X."""
    return m.sub[x] & m.sup[fx]


def _inside_meeting(m, x, fx):
    """X ⊆ Y and X ∩ f(Y) ≠ ∅."""
    return m.sup[x] & ~m.fsub[m.full & ~x]


def _meets_rest(m, x, fx):
    """f(Y) ∩ (X − f(X)) ≠ ∅."""
    return m.every & ~m.fsub[m.full & ~x | fx]


def _parallel(m, fx, z, fz):
    """f(X∪Y) is f(X), f(Y) or f(X) ∪ f(Y)."""
    if fz == fx:
        return m.every
    return m.eq[fz] if fx & ~fz else m.fsub[fz] & m.fsup[fz & ~fx]


def _every_pair(f, x, y):
    return True


def _choices_inside(f, x, y):
    """f(X) ⊆ Y and f(Y) ⊆ X."""
    return not f[x] & ~y and not f[y] & ~x


def _or_holds(f, x, y):
    """f(X∪Y) ⊆ f(X) ∪ f(Y)."""
    return not f[x | y] & ~(f[x] | f[y])


def _same_choice(f, x, y):
    """f(X) = f(Y)."""
    return f[x] == f[y]


def _scan_res_m(mu: MuFunction) -> tuple[int, Witness, int]:
    """f(X) ⊆ A∩B ⇒ f(X∩A) ⊆ B, A and B over the supersets of f(X).  Each
    (X, A) is decided at once: if f(X∩A) ⊆ f(X) every B holds, else the first
    B in canonical order, f(X), fails."""
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
            if f[meet] & ~fx:
                return count + 1, (("X", x), ("A", a), ("B", fx)), skipped
            count += len(supersets)
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


# The choice-function rule vocabulary.  A pair rule's row reads: variable
# names, carrier, the Y its guard admits, the Y whose conclusion holds.  In a
# row, fx is f(X) (fz, fw: f at the carrier); m.sub[S], m.sup[S] mask the
# Y ⊆ S, ⊇ S and m.fsub[S], m.fsup[S], m.eq[S] those with f(Y) ⊆ S, ⊇ S, = S.
_MU_RULES: dict[str, MuScan] = {
    "mu-wOR": _pair_rule("XY", or_, None, lambda m, fx, z, fz: m.sup[fz & ~fx]),
    "mu-disjOR": _pair_rule(
        "XY", or_, lambda m, x, fx: m.sub[m.full & ~x], lambda m, fx, z, fz: m.fsup[fz & ~fx]
    ),
    "mu-OR": _pair_rule("XY", or_, None, lambda m, fx, z, fz: m.fsup[fz & ~fx]),
    "mu-PR": _pair_rule(
        "XY", None, lambda m, x, fx: m.sup[x], lambda m, x, fx: m.fsub[m.full & ~x | fx]
    ),
    "mu-PR'": _pair_rule("XY", and_, None, lambda m, fx, w, fw: 0 if fx & w & ~fw else m.every),
    "mu-CM": _pair_rule("XY", None, _between, lambda m, x, fx: m.fsub[fx]),
    "mu-ResM": _scan_res_m,
    "mu-CUT": _pair_rule("XY", None, _between, lambda m, x, fx: m.fsup[fx]),
    "mu-CUM": _pair_rule("XY", None, _between, lambda m, x, fx: m.eq[fx]),
    "mu-sub-sup": _pair_rule(
        "XY", None, lambda m, x, fx: m.sup[fx] & m.fsub[x], lambda m, x, fx: m.eq[fx]
    ),
    "mu-RatM": _pair_rule("XY", None, _inside_meeting, lambda m, x, fx: m.fsup[fx]),
    "mu-eq": _pair_rule(
        "XY", None, _inside_meeting, lambda m, x, fx: m.fsup[fx] & m.fsub[m.full & ~x | fx]
    ),
    "mu-eq'": _pair_rule(
        "YX",
        and_,
        lambda m, y, fy: m.every & ~m.sub[m.full & ~fy],
        lambda m, fy, w, fw: m.every if fw == fy & w else 0,
    ),
    "mu-parallel": _pair_rule("XY", or_, None, _parallel),
    "mu-union": _pair_rule("XY", or_, _meets_rest, lambda m, fx, z, fz: m.sub[m.full & ~fz]),
    "mu-union'": _pair_rule(
        "XY", or_, _meets_rest, lambda m, fx, z, fz: m.every if fz == fx else 0
    ),
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
    whose first failing instance needs f at a composite carrier (X∪Y, X∩Y,
    X∩A, {a,b}) outside the domain raises KeyError, reported as
    DomainNotClosed for that set.  The pair rules' mask scans find that
    instance as their lowest failing bit, where a Y whose class carrier is
    missing counts as failing; the other scans meet it at their lookup.  An
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
    (`below`) never part.  A failing row's first witness is the first
    leader at which they part, and its tallies run up to it."""
    if row not in ROW_LEFT:
        raise ValueError("row must be 1..10")
    sizes = sizes_upto(max_universe)
    _check_scan_size(max_universe)
    left, mu_rule = ROW_LEFT[row], ROW_MU[row]

    # Row 7's choice side is structural: its one walk never parts.
    walks = [left + (IOMEGA,), left + (IOMEGA, mu_rule)] if mu_rule else [left + (IOMEGA,)]
    space, idx, checked = _first_parting(sizes, True, walks)
    witness = None
    if idx is None:
        skipped = 0 if IOMEGA in left else count(sizes, True, left) - checked
    else:
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
    _, idx, checked = _first_parting(sizes, True, [pruned, pruned + left])
    witness = None
    if idx is not None:
        # The walks do not go in the order of the mu<n>#<rank> labels: drop their
        # tally and read the raw stream of choice functions up to the first that fails.
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
            raise RuntimeError(f"row {row}: the walks part, yet no function fails")
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
