"""Bare verdicts against full reports, and the pruned scans against per-leader references.

`search.verdict` and `preferential.mu_verdict` run a check's scan and build
no report; each must give the `.holds` of the report that `evaluate_check`
or `check_mu_rule` builds, and raise what it raises.  The agreement scan
merges the leader walks pruned by each id, the implication and
`canonical_only` scans merge those pruned by the required checks with and
without the target, and a count reads the cells of one;
`reference_agreement`, `reference_implication` and `reference_canonical`
decide every check on every leader instead, and each pair must give the
same bytes.
"""

import json
from dataclasses import replace

import pytest

from sizesem import fixtures, properties, rules, search
from sizesem.cli import ALL_PROPS, ALL_RULES
from sizesem.errors import DomainNotClosed, DomainNotFull
from sizesem.preferential import MuRuleId, _MU_RULES, check_mu_rule, enumerate_mu_functions, mu_verdict
from sizesem.properties import (
    EMF,
    EMI,
    I_UNION_DISJ,
    IOMEGA,
    OPT,
    m_plus_n,
    m_plus_omega,
    m_plus_plus,
    n_star_s,
    parse_property,
)
from sizesem.report import CheckReport
from sizesem.rules import CM_OMEGA, DISJ_OR, OR_OMEGA, RATM, WOR, cm_n, or_n, parse_rule
from sizesem.search import (
    SearchSpec,
    count_systems,
    enumerate_systems,
    evaluate_check,
    find_counterexample,
    verdict,
    verify_agreement,
    verify_agreement_upto,
    verify_implication,
    verify_implication_upto,
)
from sizesem.setcore import Universe
from sizesem.sizesys import build, build_mu

from leader_scan import scan_classes

CHECKS = [parse_property(n) for n in ALL_PROPS] + [parse_rule(n) for n in ALL_RULES]


def test_verdict_is_the_reports_holds():
    # Every system at |U| ≤ 2, monotone or not, and the 3 450 canonical
    # monotone systems at |U| = 3.
    systems = [
        s
        for n in (1, 2)
        for monotone in (True, False)
        for s in enumerate_systems(SearchSpec(n, mode="count", monotone_only=monotone))
    ]
    systems += enumerate_systems(SearchSpec(3, mode="count", canonical_only=True))
    assert len(systems) == 3_506
    mismatches, failures = [], 0
    for s in systems:
        for c in CHECKS:
            holds = evaluate_check(s, c).holds
            failures += not holds
            if verdict(s, c) != holds:
                mismatches.append((s.label, c.name))
    assert mismatches == []
    assert failures > 0


def test_mu_verdict_is_the_reports_holds():
    rules = [MuRuleId(tag) for tag in _MU_RULES]
    mismatches, failures, count = [], 0, 0
    for mu in enumerate_mu_functions(Universe(["a", "b", "c"])):
        count += 1
        for r in rules:
            holds = check_mu_rule(mu, r).holds
            failures += not holds
            if mu_verdict(mu, r) != holds:
                mismatches.append((mu.label, r.name))
    assert count == 4_096
    assert mismatches == []
    assert failures > 0


def _raised(error, call) -> str:
    with pytest.raises(error) as caught:
        call()
    return str(caught.value)


def test_verdicts_raise_what_the_reports_raise_on_a_partial_domain():
    u = Universe(["a", "b"])
    # M++:1 and M+omega:4 need the carrier {b} = X − {a}, which the domain lacks.
    s = build(u, [u.subset(["a"]), u.full], {u.full: [u.empty, u.subset(["a"])]})
    for p in (m_plus_plus(1), m_plus_omega(4)):
        want = _raised(DomainNotClosed, lambda: evaluate_check(s, p))
        assert _raised(DomainNotClosed, lambda: verdict(s, p)) == want
    # A rule needs the full powerset.
    want = _raised(DomainNotFull, lambda: evaluate_check(s, RATM))
    assert _raised(DomainNotFull, lambda: verdict(s, RATM)) == want
    # I-union-disj needs {a,b} = {a} ∪ {b}.
    s = build(u, [u.subset(["a"]), u.subset(["b"])], {})
    want = _raised(DomainNotClosed, lambda: evaluate_check(s, I_UNION_DISJ))
    assert _raised(DomainNotClosed, lambda: verdict(s, I_UNION_DISJ)) == want
    # mu-OR needs f({a,b}) for X = {a}, Y = {b}.
    mu = build_mu(u, [u.subset(["a"]), u.subset(["b"])], {})
    want = _raised(DomainNotClosed, lambda: check_mu_rule(mu, MuRuleId("mu-OR")))
    assert want == "domain does not contain a,b (needed for mu-OR)"
    assert _raised(DomainNotClosed, lambda: mu_verdict(mu, MuRuleId("mu-OR"))) == want


def reference_agreement(ids, sizes, subject) -> CheckReport:
    """The agreement scan with a full report per id on every leader."""

    def evaluate(space, idx):
        s = space.leader(idx)
        verdicts = [evaluate_check(s, c).holds for c in ids]
        return True if all(v == verdicts[0] for v in verdicts) else (s, verdicts)

    count, _, failure = scan_classes(sizes, True, (), evaluate)
    report = CheckReport(
        subject=subject,
        condition="agree:" + "=".join(c.name for c in ids),
        holds=failure is None,
        instances_checked=count,
    )
    if failure is not None:
        s, verdicts = failure
        report.notes = ("verdicts " + ", ".join(f"{c.name}={v}" for c, v in zip(ids, verdicts)),)
        report.witness_system = s.to_dict()
    return report


FACTS = {
    "fact-3.9": [CM_OMEGA, m_plus_omega(4)],
    "fact-3.12": [m_plus_plus(1), m_plus_plus(2), m_plus_plus(3)],
    "fact-3.13": [RATM, m_plus_plus(1)],
}
MIXES = {
    "eMI=eMF": [EMI, EMF],
    "CM:omega=M+omega:3": [CM_OMEGA, m_plus_omega(3)],
    "I-omega=RatM=M++:2": [IOMEGA, RATM, m_plus_plus(2)],
    "M+n:3=eMI": [m_plus_n(3), EMI],
    "I-omega=n*s:2": [IOMEGA, n_star_s(2)],
}


def _bytes(report: CheckReport) -> str:
    return json.dumps(report.to_dict())


@pytest.mark.parametrize("name", [*FACTS, *MIXES])
def test_agreement_matches_the_per_leader_reference(name):
    ids = FACTS.get(name) or MIXES[name]
    for n in (1, 2, 3):
        want = reference_agreement(ids, [n], f"search:u{n}")
        assert _bytes(verify_agreement(ids, n)) == _bytes(want), n
    want = reference_agreement(ids, range(1, 4), "search:u<=3")
    assert _bytes(verify_agreement_upto(ids, 3)) == _bytes(want)
    # The facts hold up to |U| = 3; each mix fails there, with a witness.
    assert want.holds == (name in FACTS)


def test_an_agreement_of_prunable_properties_runs_no_property_scan(monkeypatch):
    # Every check prunes the walk, rules too, so no agreement scans one.
    def no_scan(*args):
        raise AssertionError("a check was scanned")

    for tag in properties._SCANS:
        monkeypatch.setitem(properties._SCANS, tag, no_scan)
    for module, name in [(rules, "_scan_rule"), (search, "_scan_rule"), (search, "_scan_property"),
                         (search, "verdict"), (search, "evaluate_check")]:
        monkeypatch.setattr(module, name, no_scan)
    for name, ids in FACTS.items():
        rep = verify_agreement_upto(ids, 3)
        # Every monotone system up to |U| = 3: 2 + 20 + 19 000.
        assert rep.holds and rep.instances_checked == 19_022, name


def test_an_agreement_walks_no_unpruned_leaders(monkeypatch):
    # Each id's pruned walk gives its verdicts, and the counts come from the
    # raw ranks, so no walk over every leader is needed.
    leaders = search._SystemSpace.leaders

    def pruned_only(space, checks):
        assert checks, "an unpruned leader walk was started"
        return leaders(space, checks)

    monkeypatch.setattr(search._SystemSpace, "leaders", pruned_only)
    table = fixtures.expected_table()
    for fid in ("fact-3.9", "fact-3.12", "fact-3.13"):
        assert fixtures.compare_records(fixtures.run_fixture(fid), table[fid]) == [], fid


def reference_implication(required, target, max_universe) -> CheckReport:
    """verify_implication_upto with a full report per check on every leader."""

    def evaluate(space, idx):
        s = space.leader(idx)
        if not all(evaluate_check(s, c).holds for c in required):
            return None
        rep = evaluate_check(s, target)
        return True if rep.holds else (s, rep)

    count, _, failure = scan_classes(range(1, max_universe + 1), True, (), evaluate)
    return _implication(f"search:u<={max_universe}", required, target, count, failure)


def _implication(subject, required, target, count, failure) -> CheckReport:
    left = "+".join(c.name for c in required) or "(all)"
    report = CheckReport(
        subject=subject,
        condition=f"{left}=>{target.name}",
        holds=failure is None,
        instances_checked=count,
    )
    if failure is not None:
        s, rep = failure
        report.witness = rep.witness
        report.notes = (f"violating system {s.label}",)
        report.witness_system = s.to_dict()
    return report


# The three cases of fact-3.7:3, and the same checks with the rules and M+n
# on the required side.
TERNARY = (n_star_s(3), EMI)
IMPLICATIONS = [
    (TERNARY, m_plus_n(3)),
    (TERNARY, cm_n(3)),
    (TERNARY, or_n(3)),
    ((m_plus_n(3),), cm_n(3)),
    ((cm_n(3), or_n(3)), m_plus_n(3)),
    ((or_n(3), EMI), n_star_s(3)),
    ((m_plus_n(3), RATM), or_n(3)),
    ((CM_OMEGA,), m_plus_n(3)),
    ((m_plus_n(3),), OR_OMEGA),  # fails at u3#19
    ((cm_n(3), m_plus_n(3)), or_n(3)),  # fails at u3#118
]


@pytest.mark.parametrize(
    "required,target",
    IMPLICATIONS,
    ids=["+".join(c.name for c in req) + "=>" + tgt.name for req, tgt in IMPLICATIONS],
)
def test_implication_matches_the_per_leader_reference(required, target):
    want = reference_implication(required, target, 3)
    assert _bytes(verify_implication_upto(required, target, 3)) == _bytes(want)


def reference_canonical(spec) -> tuple:
    """A canonical scan that decides every required check on every leader of
    `enumerate_systems`: (leaders that have them, the first of them failing
    the target with its report, or None)."""
    satisfying = 0
    for s in enumerate_systems(spec):
        if not all(verdict(s, c) for c in spec.required):
            continue
        satisfying += 1
        if spec.target is not None and not verdict(s, spec.target):
            return satisfying, (s, evaluate_check(s, spec.target))
    return satisfying, None


# (size, monotone, required, target): a failing find is labelled by its
# position among all leaders.
CANONICAL = [
    (3, True, TERNARY, m_plus_n(3)),
    (3, True, (m_plus_n(3),), OR_OMEGA),  # fails at u3#9
    (3, True, (cm_n(3), m_plus_n(3)), or_n(3)),  # fails at u3#59
    (3, True, (IOMEGA, EMI), OR_OMEGA),
    (3, True, (CM_OMEGA,), m_plus_omega(3)),  # fails at u3#10
    (3, True, (WOR, EMI), DISJ_OR),  # fails at u3#963
    (3, True, (), EMF),  # fails at u3#4
    (2, True, (RATM, m_plus_n(3)), EMI),
    (1, True, (EMI,), EMF),
    (2, False, (EMI,), EMF),  # fails at u2#3
    (2, False, (CM_OMEGA,), EMF),  # fails at u2#3
    (2, False, (or_n(3), m_plus_n(3)), RATM),
    (1, False, (), OPT),
]


def _found(s, rep) -> str:
    return json.dumps(None if s is None else [s.label, s.to_dict(), rep.to_dict()])


def _canonical(n, monotone, required, target) -> SearchSpec:
    mode = "count" if target is None else "find-counterexample"
    return SearchSpec(n, required, target, mode, monotone_only=monotone, canonical_only=True)


@pytest.mark.parametrize(
    "n,monotone,required,target",
    CANONICAL,
    ids=[f"u{n}{'' if mono else '-raw'}:" + "+".join(c.name for c in req) + "=>" + tgt.name
         for n, mono, req, tgt in CANONICAL],
)
def test_canonical_scans_match_the_per_leader_reference(n, monotone, required, target):
    spec = _canonical(n, monotone, required, target)
    count, failure = reference_canonical(spec)
    assert _found(*find_counterexample(spec)) == _found(*failure or (None, None))
    want = _implication(f"search:u{n}", required, target, count, failure)
    assert _bytes(verify_implication(replace(spec, mode="verify-implication"))) == _bytes(want)
    spec = _canonical(n, monotone, required, None)
    assert count_systems(spec).instances_checked == reference_canonical(spec)[0]


def test_a_canonical_scan_decides_the_target_alone(monkeypatch):
    # The target prunes a walk as the required checks do: no scan calls
    # `verdict` or reads the `enumerate_systems` stream, and only the
    # reported system gets a report.
    reported = []

    def spy(s, c):
        reported.append((s.label, c))
        return evaluate_check(s, c)

    def refuse(*args):
        raise AssertionError("a search decided a check per leader")

    monkeypatch.setattr(search, "evaluate_check", spy)
    monkeypatch.setattr(search, "verdict", refuse)
    monkeypatch.setattr(search, "enumerate_systems", refuse)
    for n, monotone, required, target in CANONICAL:
        for canonical in (True, False):
            spec = replace(_canonical(n, monotone, required, target), canonical_only=canonical)
            s, _ = find_counterexample(spec)
            assert reported == ([] if s is None else [(s.label, target)]), spec
            reported.clear()
            rep = verify_implication(replace(spec, mode="verify-implication"))
            label = None if rep.holds else rep.notes[0].removeprefix("violating system ")
            assert reported == ([] if rep.holds else [(label, target)]), spec
            reported.clear()
            count_systems(replace(spec, target=None, mode="count"))
            assert reported == [], spec


def test_canonical_scans_match_the_per_leader_reference_at_size_2():
    # Every check as the one required check, monotone or not.
    mismatches, failures = [], 0
    for monotone in (True, False):
        for required in [()] + [(c,) for c in CHECKS]:
            counting = _canonical(2, monotone, required, None)
            count = reference_canonical(counting)[0]
            if count_systems(counting).instances_checked != count:
                mismatches.append(counting)
            for target in (EMI, EMF, IOMEGA, RATM, OR_OMEGA, m_plus_n(3)):
                if target in required:
                    continue
                spec = _canonical(2, monotone, required, target)
                failure = reference_canonical(spec)[1]
                failures += failure is not None
                if _found(*find_counterexample(spec)) != _found(*failure or (None, None)):
                    mismatches.append(spec)
    assert mismatches == []
    assert failures > 0
