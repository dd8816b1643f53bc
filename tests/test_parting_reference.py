"""Where pruned walks part, read off one walk over their union, against the
leader merge it replaced (`tests/leader_merge.py`).

`search._parting` walks the union of the walks pruned by each tuple of
checks once and expands only the cells where the tuples' options differ.
It must return what merging the expanded walks leader by leader returned:
the first leader that some but not all of them reach, which walks reach it,
and the first walk's leaders and systems before it.
"""

import pytest

from leader_merge import _parting as merged_parting
from sizesem.preferential import MU_CM, MU_CUM, MU_RATM, ROW_LEFT, ROW_MU
from sizesem.properties import (
    EMF,
    EMI,
    IM,
    IOMEGA,
    OPT,
    m_plus_omega,
    m_plus_plus,
    n_star_s,
)
from sizesem.rules import CM_OMEGA, OR_OMEGA, RATM, or_n
from sizesem.search import _parting, _system_space

IMPLICATIONS = [
    # holding
    [(IOMEGA, EMI), (IOMEGA, EMI, OR_OMEGA)],
    [(n_star_s(3), EMI), (n_star_s(3), EMI, or_n(3))],
    [(IOMEGA, EMF), (IOMEGA, EMF, m_plus_omega(2))],
    # failing
    [(), (EMI,)],
    [(m_plus_omega(2),), (m_plus_omega(2), m_plus_omega(1))],
    [(OPT, IM, EMI, IOMEGA), (OPT, IM, EMI, IOMEGA, EMF)],
    [(OPT, IM, EMF, IOMEGA), (OPT, IM, EMF, IOMEGA, EMI)],
]
AGREEMENTS = [
    # the paper's, holding: facts 3.9, 3.12 and 3.13
    [(CM_OMEGA,), (m_plus_omega(4),)],
    [(m_plus_plus(1),), (m_plus_plus(2),), (m_plus_plus(3),)],
    [(RATM,), (m_plus_plus(1),)],
    # failing
    [(m_plus_plus(1),), (EMI,)],
    [(CM_OMEGA,), (m_plus_omega(4),), (EMF,)],
    [(m_plus_plus(1),), (CM_OMEGA,), (EMI,)],
]
DUPLICATED = [
    [(EMI,), (EMI,)],
    [(EMI, EMF), (EMI, EMF, EMI)],
    [(IOMEGA, EMI), (EMI, IOMEGA, EMI)],
]
LOCAL_AND_CROSS = [
    [(OPT,), (OPT, EMI)],
    [(OPT,), (IM,)],
    [(IOMEGA,), (IOMEGA, CM_OMEGA), (OPT,)],
    [(OPT, EMI), (OPT,)],
]
ROWS = [[ROW_LEFT[r] + (IOMEGA,), ROW_LEFT[r] + (IOMEGA, ROW_MU[r])] for r in ROW_MU if ROW_MU[r]]
ROWS += [[(IOMEGA,), (IOMEGA, mu)] for mu in (MU_CM, MU_RATM, MU_CUM)]  # failing
WALKS = IMPLICATIONS + AGREEMENTS + DUPLICATED + LOCAL_AND_CROSS


def _name(walks):
    return "|".join("+".join(c.name for c in checks) or "(all)" for checks in walks)


@pytest.mark.parametrize("walks", WALKS, ids=_name)
def test_the_union_walk_parts_where_the_merge_did(walks):
    for monotone, sizes in ((True, (1, 2, 3)), (False, (1, 2))):
        for n in sizes:
            space = _system_space(n, monotone, False)
            assert _parting(space, walks) == merged_parting(space, walks), (n, monotone)


@pytest.mark.parametrize("walks", ROWS, ids=_name)
def test_the_correspondence_rows_part_where_the_merge_did(walks):
    for n in (1, 2, 3):
        space = _system_space(n, True, False)
        assert _parting(space, walks) == merged_parting(space, walks), n


@pytest.mark.parametrize(
    "required,target",
    [
        ((OPT, IM, EMI, IOMEGA), EMF),
        ((OPT, IM, EMF, IOMEGA), EMI),
        ((m_plus_omega(2),), m_plus_omega(1)),
    ],
    ids=lambda v: "+".join(c.name for c in v) if isinstance(v, tuple) else v.name,
)
def test_the_benchmark_finds_at_u4_part_where_the_merge_did(required, target):
    space = _system_space(4, True, True)
    walks = [required, required + (target,)]
    got = _parting(space, walks)
    assert got[0] is not None
    assert got == merged_parting(space, walks)
