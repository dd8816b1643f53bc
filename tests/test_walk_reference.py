"""The leader walk's masks against the per-family loop they replaced.

`reference_options` is the loop `_SystemSpace._options` ran before the column
tests and the masks of the rules that read I(Y) alone: each family at a base
set Y is tested on its own, by the per-family test below Y that a column test
or a mask replaced (copied here from the rows and units) or, for a check
without a column test and for a local property, by its `below`.  The walk
with either must yield the same cells: prefix, stabilizer and lists.  Every tuple of checks here has one that reads below Y, so the
reference's options are never static lists.
"""

from math import prod

import pytest

from sizesem import properties, rules
from sizesem.properties import (
    EMF,
    EMI,
    IOMEGA,
    PropertyId,
    m_plus_n,
    m_plus_omega,
    n_star_s,
    parse_property,
)
from sizesem.rules import (
    AND_OMEGA,
    CCL,
    CP,
    DISJ_OR,
    OR_OMEGA,
    RATM,
    REF,
    RW,
    SC,
    and_n,
    cm_n,
    or_n,
    parse_rule,
)
from sizesem.search import _SystemSpace
from sizesem.setcore import Columns, submasks

SMALL, BIG, NOT_SMALL, NOT_BIG = (False, True), (True, True), (False, False), (True, False)


def nested_below(link, sides, premise, conclusion):
    at_y = sides == "YX"
    lc, lm = link or (False, False)
    pc, pm = premise
    cc, cm = conclusion
    same = premise == conclusion

    def below(y, ideals):
        fam_y = ideals[y]
        for x in submasks(y):
            fam_x = ideals.get(x)
            if fam_x is None or same and y == x:
                continue
            if y == x if link is None else ((y & ~x if lc else x) in fam_y) != lm:
                continue
            p, fam_p, q, fam_q = (y, fam_y, x, fam_x) if at_y else (x, fam_x, y, fam_y)
            for a in submasks(x):
                premise = ((p & ~a if pc else a) in fam_p) == pm
                if premise and ((q & ~a if cc else a) in fam_q) != cm:
                    return False
        return True

    return below


def carrier_below(premise, cut, conclusion):
    big, same = premise == BIG, cut == premise
    bc, bm = cut
    cc, cm = conclusion

    def below(x, ideals):
        fam_x = ideals[x]
        bases = [x & ~a for a in fam_x] if big else fam_x
        cuts = bases if same else [b for b in submasks(x) if ((x & ~b if bc else b) in fam_x) == bm]
        for b in cuts:
            if b == x:
                continue
            z = x & ~b
            fam_z = ideals.get(z)
            if fam_z is None:
                return False
            for a in bases:
                if ((z & ~a if cc else a & ~b) in fam_z) != cm:
                    return False
        return True

    return below


def union_below(u, ideals):
    fam_u = ideals[u]
    for x in submasks(u):
        y = u & ~x
        if x < y and x in ideals and y in ideals:
            if any(a | b not in fam_u for a in ideals[x] for b in ideals[y]):
                return False
    return True


def unit_below(unit, *n):
    return lambda y, ideals: unit(ideals, y.bit_count(), *n, y) is not None


def disj_or_below(y: int, ideals) -> bool:
    """disjOR below Y: its unit at each split Y = φ ∪ φ'."""
    down = {p: {d for x in ideals[p] for d in submasks(x)} for p in submasks(y)[1:-1]}
    size = y.bit_count()
    pairs = ((p, y & ~p) for p in down if p < y & ~p)
    return all(rules._disj_or_unit(ideals, size, down, pair) is not None for pair in pairs)


# The per-family tests below Y that the column tests replaced, by check name.
REFERENCE = {
    "eMI": nested_below(None, "XY", SMALL, SMALL),
    "eMF": nested_below(None, "YX", BIG, BIG),
    "I-union-disj": union_below,
    "F-union-disj": union_below,
    "M+omega:1": nested_below(NOT_SMALL, "XY", BIG, NOT_SMALL),
    "M+omega:2": nested_below(BIG, "XY", NOT_SMALL, NOT_SMALL),
    "M+omega:3": nested_below(BIG, "XY", BIG, BIG),
    "M+omega:4": carrier_below(SMALL, SMALL, SMALL),
    "M++:1": carrier_below(SMALL, NOT_BIG, SMALL),
    "M++:2": carrier_below(BIG, NOT_BIG, BIG),
    "M++:3": nested_below(NOT_SMALL, "XY", NOT_SMALL, NOT_SMALL),
    "RatM": unit_below(rules._ratm_unit),
    "CM:omega": unit_below(rules._cm_omega_unit),
    "disjOR": disj_or_below,
    # The rules that read I(Y) alone, each by its unit at Y, and OR:2 by OR:n's test.
    "SC": unit_below(rules._sc_unit),
    "REF": unit_below(rules._ref_unit),
    "RW": unit_below(rules._superset_unit),
    "CP": unit_below(rules._cp_unit),
    "AND:2": unit_below(rules._and_unit, 2),
    "AND:omega": unit_below(rules._and_omega_unit),
    "CCL": unit_below(rules._ccl_unit),
    "OR:2": lambda y, ideals: rules._or_below(2, y, ideals),
    "CM:2": unit_below(rules._cm_unit, 2),
}


def module_below(c):
    return (properties if isinstance(c, PropertyId) else rules).below(c)


def reference_options(self, checks):
    """(None, options): options(j, prefix) as the walk had it, every family
    at position j tested on its own, memoised for the walk."""
    cross = tuple(REFERENCE.get(c.name) or module_below(c) for c in checks)
    domain, per_set, below = self.domain, self.per_set, self.below
    memo = {}

    def options(j, prefix):
        key = (j, *map(prefix.__getitem__, below[j]))
        got = memo.get(key)
        if got is None:
            y = domain[j]
            ideals = {domain[k]: per_set[k][prefix[k]] for k in below[j]}
            got = []
            for i, fam in enumerate(per_set[j]):
                ideals[y] = fam
                if all(test(y, ideals) for test in cross):
                    got.append(i)
            if len(below[j]) < len(prefix):
                memo[key] = got
        return got

    return None, options


LOCAL_RULES = [SC, REF, RW, CP, and_n(2), AND_OMEGA, CCL, or_n(2), cm_n(2)]
COLUMN_CHECKS = [
    parse_rule(name) if name in ("RatM", "CM:omega", "disjOR") else parse_property(name)
    for name in REFERENCE
    if name not in {r.name for r in LOCAL_RULES}
]
CHECK_SETS = (
    [(c,) for c in COLUMN_CHECKS]
    + [(IOMEGA, EMI), (IOMEGA, EMF), (EMI, m_plus_omega(4)), (n_star_s(3), EMI), (RATM, EMF)]
    + [(DISJ_OR, IOMEGA)]
    + [(OR_OMEGA,), (m_plus_n(3),)]
    # A local rule alone walks static lists, so each is paired with a check that reads below Y.
    + [(RW, EMI), (CCL, EMF), (and_n(2), EMI), (CP, m_plus_omega(4)), (SC, REF, EMF), (AND_OMEGA, EMI)]
    + [(or_n(2), EMI), (cm_n(2), EMF)]
)


def first_cells(space, checks, leaders):
    """The cells of the walk up to the one that reaches the given number of
    leaders, with their lists as tuples."""
    out, seen = [], 0
    for prefix, stab, _, lists, _, _ in space.union_cells([checks], space.perms, False):
        out.append((prefix, stab, [tuple(options) for options in lists]))
        seen += prod(map(len, lists))
        if seen >= leaders:
            break
    return out


def test_each_check_has_one_test_below_y():
    for c in COLUMN_CHECKS + LOCAL_RULES + [OR_OMEGA, m_plus_n(3)]:
        below = module_below(c)
        if c in (OR_OMEGA, m_plus_n(3)):  # a test per family
            assert not isinstance(below, Columns), c.name
        else:  # column reads, or for a local rule a mask read from I(Y) alone
            assert isinstance(below, Columns) and (below.cross is None) == (c in LOCAL_RULES), c.name


@pytest.mark.parametrize("checks", CHECK_SETS, ids=lambda cs: "+".join(c.name for c in cs))
def test_column_walk_yields_the_per_family_walks_cells(monkeypatch, checks):
    cases = [(n, True, None) for n in (1, 2, 3)] + [(n, False, None) for n in (1, 2)]
    cases.append((4, True, 3_000))
    for n, monotone, leaders in cases:
        space = _SystemSpace(n, monotone)
        limit = leaders or float("inf")
        got = first_cells(space, checks, limit)
        with monkeypatch.context() as patch:
            patch.setattr(_SystemSpace, "_options", reference_options)
            want = first_cells(space, checks, limit)
        assert got == want, (n, monotone)
