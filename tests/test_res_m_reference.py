"""mu-ResM's scan against the triple loop it replaced.

The scan decides each (X, A) at once: where f(X ∩ A) ⊆ f(X) every B holds.
It must return what walking every B returned, (count, first witness,
skipped), and on a domain that lacks some X ∩ A raise the same
DomainNotClosed.
"""

import random

import pytest

from sizesem import preferential
from sizesem.errors import DomainNotClosed
from sizesem.preferential import MU_RES_M, _scan_mu_rule, enumerate_mu_functions
from sizesem.setcore import Universe, submasks
from sizesem.sizesys import MuFunction


def reference_res_m(mu):
    """f(X) ⊆ A∩B ⇒ f(X∩A) ⊆ B, A and B over the supersets of f(X)."""
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
            f_meet = f[meet]
            for b in supersets:
                count += 1
                if f_meet & ~b:
                    return count, (("X", x), ("A", a), ("B", b)), skipped
    return count, None, skipped


def outcome(mu, monkeypatch, scan):
    """The scan's (count, witness, skipped), or the set DomainNotClosed names."""
    with monkeypatch.context() as patch:
        patch.setitem(preferential._MU_RULES, MU_RES_M.tag, scan)
        try:
            return _scan_mu_rule(mu, MU_RES_M)
        except DomainNotClosed as exc:
            return exc.missing


def test_every_choice_function_at_n3(monkeypatch):
    functions = list(enumerate_mu_functions(Universe(["a", "b", "c"])))
    assert len(functions) == 4096
    failing = 0
    for mu in functions:
        want = outcome(mu, monkeypatch, reference_res_m)
        assert outcome(mu, monkeypatch, preferential._scan_res_m) == want, mu.label
        failing += want[1] is not None
    assert 0 < failing < len(functions)


@pytest.mark.parametrize("seed", range(3))
def test_partial_domains(monkeypatch, seed):
    rng = random.Random(seed)
    u = Universe(["a", "b", "c", "d"][: 3 + seed % 2])
    nonempty = [m for m in u.all_masks() if m]
    missing = 0
    for _ in range(300):
        domain = tuple(m for m in nonempty if rng.random() < 0.6) or (u.full_mask,)
        choice = {x: rng.choice(submasks(x)) for x in domain}
        mu = MuFunction(u, domain, choice)
        want = outcome(mu, monkeypatch, reference_res_m)
        assert outcome(mu, monkeypatch, preferential._scan_res_m) == want
        missing += isinstance(want, str)
    assert 0 < missing < 300
