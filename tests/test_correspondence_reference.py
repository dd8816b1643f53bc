"""The correspondence rows decided where their walks part, against the per-leader
verifiers they replaced and against the mu-rule scans.

`per_leader_forward` and `per_leader_backward` are the verifiers as they were
before the counts: every leader of the walk is read as a choice function and
judged by `mu_verdict` (`leader_scan.scan_classes`).  The verifiers now
read where I-omega walks pruned by each mu-rule's test below a base set
(`preferential.below`) part; a failing forward row takes its witness where
the walks with and without the rule part, and a failing backward row from
the raw stream of choice functions.  Both must give the same report
bytes on every row, holding or failing.
"""

import itertools
import json
import operator

import pytest

from sizesem import preferential, search
from sizesem.errors import NotPrincipal
from sizesem.preferential import (
    MU_CM,
    MU_OR,
    MU_PR,
    MU_WOR,
    NEGATIVE_BACKWARD_ROWS,
    ROW_LEFT,
    ROW_MU,
    _check_scan_size,
    check_mu_rule,
    counterexample_mu,
    mu_verdict,
    verify_correspondence_backward,
    verify_correspondence_forward,
)
from sizesem.properties import EMF, EMI, IOMEGA, below, check_property, m_plus_plus
from sizesem.report import CorrespondenceReport
from sizesem.search import sizes_upto, verdict
from sizesem.setcore import submasks
from sizesem.sizesys import MuFunction, from_mu, principal_mu

from leader_scan import scan_classes


def per_leader_forward(row, max_universe):
    if row not in ROW_LEFT:
        raise ValueError("row must be 1..10")
    sizes = sizes_upto(max_universe)
    _check_scan_size(max_universe)
    mu_rule = ROW_MU[row]

    def evaluate(space, idx):
        s = space.leader(idx)
        try:
            mu = principal_mu(s)
        except NotPrincipal:
            return False
        if mu_rule is None or mu_verdict(mu, mu_rule):
            return True
        return s, mu, check_mu_rule(mu, mu_rule)

    checked, skipped, failure = scan_classes(sizes, True, ROW_LEFT[row], evaluate)
    witness = None
    if failure is not None:
        s, mu, rep = failure
        witness = {"system": s.to_dict(), "mu": mu.to_dict(), "violation": rep.to_dict()}
    return CorrespondenceReport(
        row=row,
        direction="forward",
        universe_max=max_universe,
        systems_checked=checked,
        holds=witness is None,
        witness=witness,
        skipped_non_principal=skipped,
        notes=("choice side is structural for principal filters",) if mu_rule is None else (),
    )


def per_leader_backward(row, max_universe):
    if row not in ROW_LEFT:
        raise ValueError("row must be 1..10")
    left, mu_rule = ROW_LEFT[row], ROW_MU[row]
    if row in NEGATIVE_BACKWARD_ROWS:
        mu = counterexample_mu()
        if max_universe < mu.universe.size:
            raise ValueError(
                f"row {row} is confirmed by a witness on {mu.universe.size} elements; "
                f"max_universe {max_universe} excludes it"
            )
        system = from_mu(mu)
        failing = [p for p in left if not verdict(system, p)]
        confirmed = mu_verdict(mu, mu_rule) and bool(failing)
        return CorrespondenceReport(
            row=row,
            direction="backward",
            universe_max=max_universe,
            systems_checked=1,
            holds=not confirmed,
            witness={
                "mu": mu.to_dict(),
                "system": system.to_dict(),
                "mu_rule": mu_rule.name,
                "fails": [p.name for p in failing],
            },
            non_implication_confirmed=confirmed,
            notes=("expected non-implication",),
        )
    sizes = sizes_upto(max_universe)
    _check_scan_size(max_universe)

    def evaluate(space, idx):
        u, dom = space.universe, space.domain
        choice = dict(zip(dom, map(max, map(operator.getitem, space.per_set, idx))))
        mu = MuFunction(u, dom, choice)
        if mu_rule is not None and not mu_verdict(mu, mu_rule):
            return None
        system = from_mu(mu)
        failing = next((p for p in left if not verdict(system, p)), None)
        if failing is None:
            return True
        rank = 0
        for x in dom:
            rank = (rank << x.bit_count()) + submasks(x).index(choice[x])
        mu = MuFunction(u, dom, choice, label=f"mu{u.size}#{rank}")
        system = from_mu(mu)
        return mu, system, check_property(system, failing)

    checked, _, failure = scan_classes(sizes, True, (IOMEGA,), evaluate)
    witness = None
    if failure is not None:
        mu, system, rep = failure
        witness = {"mu": mu.to_dict(), "system": system.to_dict(), "violation": rep.to_dict()}
    return CorrespondenceReport(
        row=row,
        direction="backward",
        universe_max=max_universe,
        systems_checked=checked,
        holds=witness is None,
        witness=witness,
    )


def outcome(verify, row, max_universe):
    """The report's JSON bytes, or the error a verifier refuses the row with."""
    try:
        return json.dumps(verify(row, max_universe).to_dict())
    except ValueError as exc:
        return f"ValueError: {exc}"


def choice_functions(n):
    """Every choice function on the full domain over n elements, read off the
    raw I-omega stream: the family P(M) at X as f(X) = M."""
    space = search._system_space(n, True, False)
    families = [
        [fam for fam in fams if below(IOMEGA).alone(x, fam)]
        for x, fams in zip(space.domain, space.per_set)
    ]
    for fams in itertools.product(*families):
        yield MuFunction(space.universe, space.domain, dict(zip(space.domain, map(max, fams))))


def test_each_mu_rule_holds_iff_its_test_passes_below_every_set():
    # `preferential.below` reads f(X) = X − max I(X), so from_mu's system of
    # a choice function reads as that function again.
    mismatches, failures, functions = [], 0, 0
    rules = [preferential.MuRuleId(tag) for tag in preferential._BELOW]
    for n in (1, 2, 3):
        for mu in choice_functions(n):
            functions += 1
            ideals = from_mu(mu).ideals
            for r in rules:
                test = preferential.below(r)
                holds = mu_verdict(mu, r)
                failures += not holds
                if holds != all(test(z, ideals) for z in mu.domain_masks):
                    mismatches.append((n, sorted(mu.choice.items()), r.name))
    assert mismatches == []
    assert functions == 2 + 16 + 4_096
    assert failures > 0
    assert {r.tag for r in rules} >= {r.tag for r in ROW_MU.values() if r is not None}


def test_a_rule_without_a_test_below_is_refused():
    with pytest.raises(ValueError, match="mu-ResM has no test below"):
        preferential.below(preferential.MU_RES_M)


@pytest.mark.parametrize("row", range(1, 11))
def test_rows_match_the_per_leader_verifiers(row):
    for n in (1, 2, 3):
        want = outcome(per_leader_forward, row, n)
        assert outcome(verify_correspondence_forward, row, n) == want, (row, n)
        want = outcome(per_leader_backward, row, n)
        assert outcome(verify_correspondence_backward, row, n) == want, (row, n)


@pytest.mark.parametrize(
    "verify,reference,row,left,mu_rule",
    [
        (verify_correspondence_forward, per_leader_forward, 1, (), preferential.MU_WOR),
        (verify_correspondence_backward, per_leader_backward, 2, (EMI, IOMEGA, EMF), MU_OR),
        (verify_correspondence_backward, per_leader_backward, 3, (m_plus_plus(1),), MU_PR),
        (verify_correspondence_backward, per_leader_backward, 5, (m_plus_plus(2),), MU_CM),
        (verify_correspondence_backward, per_leader_backward, 7, (IOMEGA, m_plus_plus(3)), None),
    ],
)
def test_failing_rows_match_the_per_leader_verifiers(
    verify, reference, row, left, mu_rule, monkeypatch
):
    monkeypatch.setitem(ROW_LEFT, row, left)
    monkeypatch.setitem(ROW_MU, row, mu_rule)
    for n in (2, 3):
        want = outcome(reference, row, n)
        assert '"holds": false' in want or n < 3
        assert outcome(verify, row, n) == want, n


def test_a_parting_without_a_failing_function_is_an_internal_error(monkeypatch):
    # Report a parting on holding row 3: the raw stream has no function that fails.
    monkeypatch.setattr(preferential, "_first_parting", lambda *args: (None, (0,), 0))
    with pytest.raises(RuntimeError, match="row 3: the walks part, yet no function fails"):
        verify_correspondence_backward(3, 2)


def record_walks(monkeypatch, cells=None) -> list:
    """(size, tuples of checks) of every walk `union_cells` opens from now on;
    with a list cells, also (size, cell) for each cell the walks yield."""
    walks = []
    union_cells = search._SystemSpace.union_cells

    def read(n, yielded):
        for cell in yielded:
            cells.append((n, cell))
            yield cell

    def recording(space, tuples, *args):
        walks.append((space.universe.size, tuple(tuples)))
        yielded = union_cells(space, tuples, *args)
        return yielded if cells is None else read(space.universe.size, yielded)

    monkeypatch.setattr(search._SystemSpace, "union_cells", recording)
    return walks


def test_a_holding_row_of_column_tests_is_decided_by_counts(monkeypatch):
    # mu-PR's test below a set is a column test.  So each size reads one walk
    # over the union of the row's two tuples, and none of its cells is walked
    # past the sets of size n − 1: there both tuples complete each prefix as
    # often (`search._SystemSpace._elimination`), and the cell counts whole.
    def summed_before_the_last_two_blocks(cells):
        for n, (prefix, _, _, lists, _, whole) in cells:
            if n > 1:  # at n = 1 the full set is the one block
                assert len(prefix) <= 2**n - n - 2 and lists is None and whole is not None, n

    cells = []
    walks = record_walks(monkeypatch, cells)
    assert verify_correspondence_forward(3, 3).holds
    left = ROW_LEFT[3] + (IOMEGA,)
    assert walks == [(n, (left, left + (MU_PR,))) for n in (1, 2, 3)]
    summed_before_the_last_two_blocks(cells)
    walks.clear()
    cells.clear()
    assert verify_correspondence_backward(3, 3).holds
    assert walks == [(n, ((IOMEGA, MU_PR), (IOMEGA, MU_PR) + ROW_LEFT[3])) for n in (1, 2, 3)]
    summed_before_the_last_two_blocks(cells)
    walks.clear()
    cells.clear()
    # Without I-omega in left, the systems with left are counted for skipped.
    assert verify_correspondence_forward(1, 3).holds
    assert walks == [(n, ((EMI, IOMEGA), (EMI, IOMEGA, MU_WOR))) for n in (1, 2, 3)] + [
        (n, ((EMI,),)) for n in (1, 2, 3)
    ]
    summed_before_the_last_two_blocks(cells)


def test_a_holding_row_with_a_per_family_test_reads_one_walk_per_size(monkeypatch):
    # mu-OR's test below a set is per family, so its row is read where the
    # walks with and without it part, in one walk over their union per size.
    walks = record_walks(monkeypatch)
    left = ROW_LEFT[2]
    assert verify_correspondence_forward(2, 3).holds
    assert walks == [(n, (left + (IOMEGA,), left + (IOMEGA, MU_OR))) for n in (1, 2, 3)]


def test_mu_pr_counts_the_emi_iomega_systems_at_size_4():
    # Row 3 at |U| = 4: the I-omega systems with eMI, with mu-PR's test and
    # with both are the same 160 000, each counted by cells.
    counts = [
        search.count([4], True, checks)
        for checks in ((IOMEGA, EMI), (IOMEGA, MU_PR), (IOMEGA, EMI, MU_PR))
    ]
    assert counts == [160_000] * 3
