"""Mu-rule verdicts at |U| = 4 and 5 against oracles that share no code with
the mask scans.

On a choice function's principal-filter system (`from_mu`), Prop. 4.1's rows
1–6 tie each of six mu-rules to size properties, which `properties` decides
from the ideals alone.  mu-CUM is mu-CM and mu-CUT together.  And every
mu-rule is invariant under relabeling the elements.
"""

import itertools
import random

import pytest

from mu_seeded import seeded
from sizesem.preferential import (
    MU_CM,
    MU_CUM,
    MU_CUT,
    MU_DISJ_OR,
    MU_OR,
    MU_PR,
    MU_RATM,
    MU_WOR,
    MuRuleId,
    _MU_RULES,
    check_mu_rule,
)
from sizesem.properties import EMI, I_UNION_DISJ, IOMEGA, check_property, m_plus_omega, m_plus_plus
from sizesem.sizesys import MuFunction, from_mu, full_domain_masks

# (size side, mu-rules that each hold iff every property of it holds)
ROWS = [
    ((EMI,), (MU_WOR,)),
    ((EMI, IOMEGA), (MU_OR, MU_PR)),
    ((I_UNION_DISJ,), (MU_DISJ_OR,)),
    ((m_plus_omega(4),), (MU_CM,)),
    ((m_plus_plus(1),), (MU_RATM,)),
]


def holds(mu, r):
    return check_mu_rule(mu, r).holds


@pytest.mark.parametrize("n", [4, 5])
def test_correspondence_rows_1_to_6(n):
    seen = {}
    for mu in seeded(random.Random(40 + n), n, 120 // n):
        system = from_mu(mu)
        for left, mu_rules in ROWS:
            size_side = all(check_property(system, p).holds for p in left)
            for r in mu_rules:
                assert holds(mu, r) == size_side, (r.tag, mu.choice)
                seen.setdefault(r.tag, set()).add(size_side)
    # Each row was met holding and failing.
    assert all(values == {True, False} for values in seen.values()), seen


@pytest.mark.parametrize("n", [4, 5])
def test_mu_cum_is_cm_plus_cut_on_seeded_functions(n):
    seen = set()
    for mu in seeded(random.Random(50 + n), n, 120 // n):
        both = holds(mu, MU_CM) and holds(mu, MU_CUT)
        assert holds(mu, MU_CUM) == both, mu.choice
        seen.add(both)
    assert seen == {True, False}


def relabeled(mu, perm):
    """mu with element i renamed perm[i]: f'(π X) = π f(X)."""

    def image(mask):
        return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)

    dom = full_domain_masks(mu.universe)
    return MuFunction(mu.universe, dom, {image(x): image(fx) for x, fx in mu.choice.items()})


@pytest.mark.parametrize("n", [4, 5])
def test_mu_rules_are_relabeling_invariant(n):
    rng = random.Random(60 + n)
    perms = list(itertools.permutations(range(n)))
    tags = sorted(_MU_RULES)
    verdicts = set()
    for mu in seeded(rng, n, 40 // n):
        want = [holds(mu, MuRuleId(tag)) for tag in tags]
        verdicts.update(want)
        for perm in rng.sample(perms, 3):
            got = [holds(relabeled(mu, perm), MuRuleId(tag)) for tag in tags]
            assert got == want, (perm, mu.choice)
    assert verdicts == {True, False}
