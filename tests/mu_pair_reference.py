"""The per-pair loop that decided the fifteen pair mu-rules, kept verbatim.

`preferential` decides these rules by bit masks over the domain, one outer
X at a time.  This is the loop it replaced: for every (X, Y) in domain
order, the guard, the carrier that must be nonempty, then the conclusion.
A composite set outside the domain surfaces as the KeyError of its lookup.
`test_mu_pair_reference.py` checks that both give the same results.
"""

from __future__ import annotations

from typing import Callable

from sizesem.report import Witness
from sizesem.sizesys import MuFunction

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


PAIR_RULES: dict[str, MuScan] = {
    "mu-wOR": _pair_scan("XY", _every_pair, None, lambda f, x, y: not f[x | y] & ~(f[x] | y)),
    "mu-disjOR": _pair_scan("XY", _disjoint, None, _or_holds),
    "mu-OR": _pair_scan("XY", _every_pair, None, _or_holds),
    "mu-PR": _pair_scan("XY", _inside, None, lambda f, x, y: not f[y] & x & ~f[x]),
    "mu-PR'": _pair_scan("XY", _every_pair, _meet, lambda f, x, y: not f[x] & y & ~f[x & y]),
    "mu-CM": _pair_scan("XY", _between, None, lambda f, x, y: not f[y] & ~f[x]),
    "mu-CUT": _pair_scan("XY", _between, None, lambda f, x, y: not f[x] & ~f[y]),
    "mu-CUM": _pair_scan("XY", _between, None, lambda f, x, y: f[y] == f[x]),
    "mu-sub-sup": _pair_scan("XY", _choices_inside, None, _same_choice),
    "mu-RatM": _pair_scan("XY", _inside_meeting, None, lambda f, x, y: not f[x] & ~(f[y] & x)),
    "mu-eq": _pair_scan("XY", _inside_meeting, None, lambda f, x, y: f[x] == f[y] & x),
    "mu-eq'": _pair_scan("YX", _choice_meets, None, lambda f, y, x: f[y & x] == f[y] & x),
    "mu-parallel": _pair_scan("XY", _every_pair, None, _parallel),
    "mu-union": _pair_scan("XY", _meets_rest, None, lambda f, x, y: not f[x | y] & y),
    "mu-union'": _pair_scan("XY", _meets_rest, None, lambda f, x, y: f[x | y] == f[x]),
}
