"""The fifteen pair mu-rules' mask scans against the per-pair loop they replaced.

A mask scan decides one outer X at a time from bit masks over the domain.
It must return what walking every (X, Y) returned, (count, first witness,
skipped), and on a domain that lacks some X ∪ Y or X ∩ Y raise the same
DomainNotClosed.
"""

import random

import pytest

from mu_pair_reference import PAIR_RULES
from mu_seeded import seeded
from sizesem import preferential
from sizesem.errors import DomainNotClosed
from sizesem.preferential import MuRuleId, _scan_mu_rule, enumerate_mu_functions
from sizesem.setcore import Universe, submasks
from sizesem.sizesys import MuFunction


def outcome(mu, tag, scan, monkeypatch):
    """The scan's (count, witness, skipped), or the set DomainNotClosed names."""
    with monkeypatch.context() as patch:
        patch.setitem(preferential._MU_RULES, tag, scan)
        try:
            return _scan_mu_rule(mu, MuRuleId(tag))
        except DomainNotClosed as exc:
            return exc.missing


def assert_same(mus, monkeypatch):
    """Every pair rule agrees with the loop on every mu; returns the outcomes."""
    seen = []
    for mu in mus:
        for tag, reference in PAIR_RULES.items():
            want = outcome(mu, tag, reference, monkeypatch)
            assert outcome(mu, tag, preferential._MU_RULES[tag], monkeypatch) == want, (
                tag,
                mu.label,
                mu.domain_masks,
                mu.choice,
            )
            seen.append(want)
    return seen


def test_pair_rules_are_the_fifteen_mask_scans():
    assert set(PAIR_RULES) <= set(preferential._MU_RULES)
    assert len(PAIR_RULES) == 15


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_choice_function(monkeypatch, n):
    mus = list(enumerate_mu_functions(Universe(["a", "b", "c"][:n])))
    assert len(mus) == (2, 16, 4096)[n - 1]
    seen = assert_same(mus, monkeypatch)
    if n == 3:
        failing = sum(want[1] is not None for want in seen)
        assert 0 < failing < len(seen)


@pytest.mark.parametrize("n", [4, 5])
def test_seeded_full_domains(monkeypatch, n):
    mus = seeded(random.Random(n), n, 40 // n)
    seen = assert_same(mus, monkeypatch)
    assert 0 < sum(want[1] is None for want in seen) < len(seen)


@pytest.mark.parametrize("n", [3, 4])
def test_partial_domains(monkeypatch, n):
    rng = random.Random(n)
    u = Universe(["a", "b", "c", "d"][:n])
    nonempty = [m for m in u.all_masks() if m]
    mus = []
    for _ in range(300):
        domain = tuple(m for m in nonempty if rng.random() < 0.6) or (u.full_mask,)
        mus.append(MuFunction(u, domain, {x: rng.choice(submasks(x)) for x in domain}))
    seen = assert_same(mus, monkeypatch)
    assert 0 < sum(isinstance(want, str) for want in seen) < len(seen)
