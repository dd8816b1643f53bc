"""Where pruned walks part, read off one walk over their union, against the
leader merge it replaced (`tests/leader_merge.py`).

`search._parting` walks the union of the walks pruned by each tuple of
checks once and expands only the cells where the tuples' options differ.
Read by leaders, it must return what merging the expanded walks leader by
leader returned: the first leader that some but not all of them reach,
which walks reach it, and the first walk's leaders before it.  Read by
orbits, as every raw search reads it, it must part at the same system with
the same walks reaching it, and where the walks never part count the
systems that the first walk's leaders stand for.
"""

import itertools
from math import prod

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
from sizesem.search import _SystemSpace, _allowing, _parting, _system_space

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


def _leader_reading(space, walks):
    """(index, held, leaders) of the merge, the leader reading's reference."""
    return merged_parting(space, walks)[:3]


@pytest.mark.parametrize("walks", WALKS, ids=_name)
def test_the_union_walk_parts_where_the_merge_did(walks):
    for monotone, sizes in ((True, (1, 2, 3)), (False, (1, 2))):
        for n in sizes:
            space = _system_space(n, monotone, False)
            assert _parting(space, walks, False) == _leader_reading(space, walks), (n, monotone)


@pytest.mark.parametrize("walks", ROWS, ids=_name)
def test_the_correspondence_rows_part_where_the_merge_did(walks):
    for n in (1, 2, 3):
        space = _system_space(n, True, False)
        assert _parting(space, walks, False) == _leader_reading(space, walks), n


def _systems(space, checks):
    """The systems that have every check, off the leader walk's cells."""
    cells = space.union_cells([checks], space.perms, False)
    return sum(space.relabelings // stab * prod(map(len, lists)) for _, stab, _, lists, _, _ in cells)


@pytest.mark.parametrize("walks", WALKS + ROWS, ids=_name)
def test_the_orbit_reading_parts_where_the_leader_reading_does(walks):
    # A settled rest is one cell whatever relabelings are live: the first
    # system where the tuples disagree, which walks reach it, and the
    # systems counted where they never part are those of the leader reading.
    for monotone in (True, False):
        for n in (1, 2, 3):
            space = _system_space(n, monotone, False)
            idx, held, _ = _parting(space, walks, False)
            got = _parting(space, walks, True)
            assert got[:2] == (idx, held), (n, monotone)
            if idx is None:
                assert got[2] == _systems(space, walks[0]), (n, monotone)


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
    got = _parting(space, walks, False)
    assert got[0] is not None
    assert got == _leader_reading(space, walks)
    assert _parting(space, walks, True)[:2] == got[:2]


def test_a_part_that_no_tuple_allows_is_pruned(monkeypatch):
    # At |U| = 2 the singletons are one block.  Each tuple allows an index at
    # one of them that the other does not, so the part (1, 1) of the union's
    # product is allowed by neither tuple and is never walked.
    lists = {(OPT,): [[0], [0, 1], [0, 1, 2]], (IM,): [[0, 1], [0], [1, 3]]}
    monkeypatch.setattr(
        _SystemSpace, "_options", lambda self, checks: (None, lambda j, prefix: lists[checks][j])
    )
    got, space = {}, _SystemSpace(2, True)
    for prefix, stab, alive, options, marks, _ in space.union_cells(list(lists), [], False):
        assert stab == 1
        for rest in itertools.product(*options):
            got[prefix + rest] = alive if marks is None else _allowing(marks, rest)
    want = {}
    for bit, per in enumerate(lists.values()):
        for idx in itertools.product(*per):
            want[idx] = want.get(idx, 0) | 1 << bit
    assert got == want
