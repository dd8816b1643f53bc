"""Named regression fixtures and their expected-verdict tables.

Each fixture id names one stored scenario: a small size system or choice
function plus the exact verdicts the workbench must reproduce for it.  The
systems live in data/*.json (the same files work with `--system`/`--mu` on
the command line); the verdicts live in data/expected.json, so the expected
outcomes are data, not code.  `FIXTURES` is the one list of ids: it maps
each id, in replay order, to the checks that produce its records.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Callable

from ..preferential import (
    verify_correspondence_backward,
    verify_correspondence_forward,
)
from ..properties import (
    EMF,
    EMI,
    IM,
    IOMEGA,
    OPT,
    PropertyId,
    check_level,
    m_plus_n,
    m_plus_omega,
    m_plus_plus,
    n_star_s,
    property_matrix,
)
from ..rules import RATM, CM_OMEGA, OR_OMEGA, check_rule, cm_n, or_n
from ..search import (
    CheckId,
    verify_agreement_upto,
    verify_implication_upto,
    verify_two_s_breakdown,
)
from ..sizesys import MuFunction, SizeSystem, mu_from_dict, system_from_dict

SEARCH_MAX = 3
BREAKDOWN_MAX = 4


def _load(name: str) -> dict:
    data = resources.files(__package__).joinpath(f"data/{name}")
    return json.loads(data.read_text(encoding="utf-8"))


def fixture_system(name: str) -> SizeSystem:
    return system_from_dict(_load(f"{name}.json"), label=name)


def fixture_mu(name: str) -> MuFunction:
    return mu_from_dict(_load(f"{name}.json"), label=name)


def expected_table() -> dict:
    return _load("expected.json")


# A fixture maps the degree of parallelism to its reports.  Every entry calls
# the checks by their module-level names when it runs, never through a stored
# function object, so rebinding such a name reaches every fixture.
Fixture = Callable[[int], list]


def _matrix(name: str, *props: PropertyId) -> Fixture:
    return lambda par: property_matrix(fixture_system(name), list(props))


def _levels(n: int) -> Fixture:
    def run(par: int) -> list:
        s = fixture_system(f"fact35-{n}")
        return [check_level(s, n), check_level(s, n + 1)]

    return run


def _rules_and_robustness(n: int) -> Fixture:
    def run(par: int) -> list:
        s = fixture_system(f"ex38-{n}")
        rules = [check_rule(s, or_n(n)), check_rule(s, cm_n(n))]
        return rules + property_matrix(s, [m_plus_n(n), n_star_s(n)])

    return run


def _implications(*cases: tuple[tuple[CheckId, ...], CheckId]) -> Fixture:
    return lambda par: [
        verify_implication_upto(req, target, SEARCH_MAX, parallelism=par)
        for req, target in cases
    ]


def _agreement(*ids: CheckId) -> Fixture:
    return lambda par: [verify_agreement_upto(list(ids), SEARCH_MAX, parallelism=par)]


def _forward(row: int) -> Fixture:
    return lambda par: [verify_correspondence_forward(row, SEARCH_MAX, parallelism=par)]


def _backward(row: int) -> Fixture:
    return lambda par: [verify_correspondence_backward(row, SEARCH_MAX, parallelism=par)]


_TERNARY = (n_star_s(3), EMI)
_M_PLUS_OMEGA = [m_plus_omega(v) for v in (1, 2, 3, 4)]

FIXTURES: dict[str, Fixture] = {
    # M++ without union closure forces a 2*s failure
    "fact-3.3": lambda par: [verify_two_s_breakdown(BREAKDOWN_MAX, parallelism=par)],
    # outer-monotony independence pair
    "fact-3.4-1": _matrix("fact34-1", OPT, IM, EMI, IOMEGA, EMF),
    "fact-3.4-2": _matrix("fact34-2", OPT, IM, IOMEGA, EMF, EMI),
    # level-n vs level-(n+1) separation
    "fact-3.5:2": _levels(2),
    "fact-3.5:3": _levels(3),
    "fact-3.5:4": _levels(4),
    # union-robustness implications (ternary)
    "fact-3.7:3": _implications(
        (_TERNARY, m_plus_n(3)), (_TERNARY, cm_n(3)), (_TERNARY, or_n(3))
    ),
    # rules without the matching robustness
    "ex-3.8:3": _rules_and_robustness(3),
    "ex-3.8:4": _rules_and_robustness(4),
    # CM:omega ⇔ M+omega:4
    "fact-3.9": _agreement(CM_OMEGA, m_plus_omega(4)),
    # the five omega-robustness implications
    "fact-3.10": _implications(
        ((IOMEGA, EMI), OR_OMEGA),
        ((IOMEGA, EMI), m_plus_omega(1)),
        ((IOMEGA, EMF), m_plus_omega(2)),
        ((IOMEGA, EMI), m_plus_omega(3)),
        ((IOMEGA, EMF), m_plus_omega(4)),
    ),
    # independence of the M+omega variants
    "ex-3.11-1": _matrix("ex311-1", *_M_PLUS_OMEGA),
    "ex-3.11-2": _matrix("ex311-2", *_M_PLUS_OMEGA),
    "ex-3.11-3": _matrix("ex311-3", *_M_PLUS_OMEGA),
    # the three M++ variants agree
    "fact-3.12": _agreement(m_plus_plus(1), m_plus_plus(2), m_plus_plus(3)),
    # RatM ⇔ M++:1
    "fact-3.13": _agreement(RATM, m_plus_plus(1)),
    # correspondence table rows 1..10, each direction
    **{
        f"prop-4.1:{row}:{direction}": fixture
        for row in range(1, 11)
        for direction, fixture in (("fwd", _forward(row)), ("bwd", _backward(row)))
    },
}

FIXTURE_IDS = list(FIXTURES)


def run_fixture(fid: str, parallelism: int = 1) -> dict:
    """Compute the records for one fixture id."""
    if fid not in FIXTURES:
        raise ValueError(f"unknown fixture id {fid!r}")
    return {"fixture": fid, "records": [r.to_dict() for r in FIXTURES[fid](parallelism)]}


def compare_records(produced: dict, expected: dict) -> list[str]:
    """Mismatch descriptions; empty when every pinned field is reproduced."""
    mismatches = []
    exp_records = expected["records"]
    got_records = produced["records"]
    if len(exp_records) != len(got_records):
        return [f"expected {len(exp_records)} records, produced {len(got_records)}"]
    for i, (exp, got) in enumerate(zip(exp_records, got_records)):
        for key, want in exp.items():
            have = got.get(key)
            if have != want:
                mismatches.append(f"record {i} field {key!r}: expected {want!r}, got {have!r}")
    return mismatches
