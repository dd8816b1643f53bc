"""The leader merge that decided where pruned walks part before the walks
were read as one, kept as the reference `search._parting` is checked
against.

It expands every cell of each walk into leaders and merges the streams in
raw order, leader by leader, even where the walks never part.
"""

import heapq
import itertools
import operator

from sizesem.search import _SystemSpace, scan_stream


def _parting(space: _SystemSpace, walks: list[tuple]) -> tuple:
    """Merge in raw order the leader walks pruned by each tuple of checks, up
    to the first leader that some but not all of them reach: a walk reaches
    a leader iff the leader has its checks, so that is the first system on
    which the tuples disagree.  Returns (its index tuple, per walk whether it
    reaches it, the first walk's leaders read before it, the systems they
    stand for); if the walks never part, the first two are None and the
    counts are the first walk's whole."""
    streams = (zip(scan_stream(space.leaders(checks)), itertools.repeat(k))
               for k, checks in enumerate(walks))
    leaders = systems = 0
    for (idx, stab), reached in itertools.groupby(heapq.merge(*streams), operator.itemgetter(0)):
        held = [False] * len(walks)
        for _, k in reached:
            held[k] = True
        if not all(held):
            return idx, held, leaders, systems
        leaders += 1
        systems += space.relabelings // stab
    return None, None, leaders, systems
