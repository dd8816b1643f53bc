"""The walk read by orbits sums the sets of size n − 1 and the full set out
where every check's test below a base set is a `Columns` without pairs
(`search._SystemSpace._elimination`); the leader reading, which never sums
out, is its reference, each leader weighted by n!/|stabilizer|.

Every tuple of one or two such checks among the CLI's properties and rules is
counted both ways at |U| = 1..3, monotone and not, and so is I-omega with each
rule of the correspondence rows whose test is a `Columns`.
"""

import itertools
from math import prod

import pytest

from sizesem import cli, preferential
from sizesem.properties import IOMEGA, parse_property
from sizesem.rules import parse_rule
from sizesem.search import _below, _columns, _parting, _system_space
from sizesem.setcore import Columns

CHECKS = [parse_property(p) for p in cli.ALL_PROPS] + [parse_rule(r) for r in cli.ALL_RULES]
COLUMN_CHECKS = [c for c in CHECKS if _columns(_below(c))]
TUPLES = [t for r in (1, 2) for t in itertools.combinations(COLUMN_CHECKS, r)]
MU_RULES = [preferential.MuRuleId(tag) for tag, test in preferential._BELOW.items()
            if isinstance(test, Columns)]


def summed(space, checks):
    """The systems that have every check, off the orbit walk's cells."""
    return _parting(space, [checks], True)[2]


def by_leaders(space, checks):
    """The same, off the leader walk's cells: n!/stab systems per leader."""
    cells = space.union_cells([checks], space.perms, False)
    return sum(space.relabelings // stab * prod(map(len, lists)) for _, stab, _, lists, _, _ in cells)


def test_the_sweep_covers_thirty_checks():
    assert len(COLUMN_CHECKS) == 30
    assert len(TUPLES) == 465
    # eMI, eMF, M+omega:1..4, M++:1..3, wOR, PR', CM:omega and RatM read below
    # a base set and are summed out; the rest read I(Y) alone.
    assert sum(_below(c).cross is not None for c in COLUMN_CHECKS) == 13


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("monotone", [True, False], ids=["monotone", "non-monotone"])
def test_elimination_counts_what_the_leader_walk_counts(n, monotone):
    space = _system_space(n, monotone, False)
    mismatches = [
        ([c.name for c in checks], got, want)
        for checks in TUPLES
        if (got := summed(space, checks)) != (want := by_leaders(space, checks))
    ]
    assert mismatches == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_elimination_counts_the_iomega_systems_of_each_column_mu_rule(n):
    assert len(MU_RULES) == 7
    space = _system_space(n, True, False)
    for rule in MU_RULES:
        checks = (IOMEGA, rule)
        assert summed(space, checks) == by_leaders(space, checks), (n, rule.tag)
