"""The per-leader scan that the searches and the correspondence rows used to
run, kept as the reference they are checked against.

`scan_classes` decides each leader of a walk by a callback; the program now
decides every search, a count included, where the walks pruned by each tuple
of checks part (`search._parting`), a count by its one walk's whole cells.
"""

from math import prod

from sizesem.search import _system_space


def images_upto(space, idx, stab, bound):
    """Distinct relabelings of the leader idx (itself included) whose
    index tuple is at most bound, for a bound not below idx.  Each image
    comes from stab relabelings (orbit-stabilizer), the identity's among
    them, so count the relabelings and divide; an image is compared with
    bound up to the first position where they differ."""
    image_index = space._image_index
    upto = 1  # the identity
    for perm in space.perms:
        for j, k in enumerate(perm[1]):
            t = image_index(perm, j, idx[k])
            if t != bound[j]:
                upto += t < bound[j]
                break
        else:
            upto += 1
    return upto // stab


def scan_classes(sizes, monotone, required, evaluate):
    """Scan the systems of the given sizes, in turn, that satisfy every
    required check up to the first failure, one system per relabeling class.

    The required checks prune the walk (`_SystemSpace.leaders`), so the
    systems that fail one are neither built nor counted; beside properties
    and rules they may be mu-rules with a test below a set, for I-omega
    systems (`preferential.below`).  evaluate(space, idx) judges the leader
    idx of a space, whose system `space.leader(idx)` builds: None when it is
    outside the scan (not counted), False when it is skipped but tallied,
    True when it is counted and passes, and any other value as the failure,
    counted, that stops the scan.  An evaluate of None counts every system
    left without building one.

    A leader has its class's verdict and stands for n!/|Stab| systems.  The
    first failing system of the raw stream leads its class, so it is found
    with the same report and labelled u<n>#<raw rank>.  On a failure at raw
    rank r the tallies are those of the raw stream up to r: each counted or
    skipped leader of that size adds its distinct relabelings ranked at most
    r (the failing one itself alone), found by walking the size's leaders
    again beside their outcomes; an earlier size adds whole classes.
    Returns (counted, skipped, failure or None).
    """
    spaces = [_system_space(n, monotone, False) for n in sizes]
    if evaluate is None:
        cells = (space.relabelings // stab * prod(map(len, lists))
                 for space in spaces for _, stab, _, lists, _, _ in space.union_cells([required], space.perms, False))
        return sum(cells), 0, None
    tally = [0, 0, 0]  # weights outside the scan, skipped, counted
    for space in spaces:
        outcomes = bytearray()  # per leader read: its index into tally
        judged = ((lead, evaluate(space, lead[0])) for lead in space.leaders(required))
        for (idx, stab), result in judged:
            outcome = 0 if result is None else 1 if result is False else 2
            outcomes.append(outcome)
            tally[outcome] += space.relabelings // stab
            if outcome == 2 and result is not True:
                for (lead, stab), seen in zip(space.leaders(required), outcomes):
                    if seen:
                        upto = images_upto(space, lead, stab, idx)
                        tally[seen] += upto - space.relabelings // stab
                return tally[2], tally[1], result
    return tally[2], tally[1], None
