"""Seeded choice functions on a full domain, for the mu-rule tests.

`ranked` picks the least-ranked members of each set, as a modular
preference does; `ordered` picks the minimal members of a random strict
partial order; `nudged` is `ordered` with the choice at one set redrawn;
`arbitrary` picks any subset.  Most rules hold on the first two and fail
on the last; `nudged` breaks a holding function at one set.
"""

from sizesem.setcore import Universe, submasks
from sizesem.sizesys import MuFunction, full_domain_masks


def ranked(rng, u: Universe) -> MuFunction:
    rank = [rng.randrange(3) for _ in range(u.size)]
    choice = {}
    for x in full_domain_masks(u):
        low = min(rank[i] for i in range(u.size) if x >> i & 1)
        choice[x] = sum(1 << i for i in range(u.size) if x >> i & 1 and rank[i] == low)
    return MuFunction(u, full_domain_masks(u), choice)


def ordered(rng, u: Universe) -> MuFunction:
    below = [0] * u.size  # below[i]: the elements preferred to i
    for hi in range(u.size):
        for lo in range(hi):
            if rng.random() < 0.4:
                below[hi] |= 1 << lo | below[lo]
    dom = full_domain_masks(u)
    choice = {x: sum(1 << i for i in range(u.size) if x >> i & 1 and not below[i] & x) for x in dom}
    return MuFunction(u, dom, choice)


def nudged(rng, u: Universe) -> MuFunction:
    mu = ordered(rng, u)
    x = rng.choice(mu.domain_masks)
    return MuFunction(u, mu.domain_masks, {**mu.choice, x: rng.choice(submasks(x))})


def arbitrary(rng, u: Universe) -> MuFunction:
    dom = full_domain_masks(u)
    return MuFunction(u, dom, {x: rng.choice(submasks(x)) for x in dom})


def seeded(rng, n: int, per_kind: int) -> list[MuFunction]:
    """per_kind functions of each kind over n elements, kinds interleaved."""
    u = Universe([chr(ord("a") + i) for i in range(n)])
    return [make(rng, u) for _ in range(per_kind) for make in (ranked, ordered, nudged, arbitrary)]
