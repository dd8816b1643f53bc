"""Acceptance suite: every criterion prints one pass/fail line (run with -s).

Criteria 1-4 replay the stored fixture scenarios exactly (verdicts and
witnesses), 5-11 replay the fixtures of the exhaustive small-universe
verifications, 12 is the choice-function round trip, and 13 re-runs
everything at parallelism degrees 1 and 4 and demands byte-identical
serialized reports.
"""

import json
import time

from sizesem import fixtures
from sizesem.cli import main as cli_main
from sizesem.preferential import enumerate_mu_functions
from sizesem.setcore import Universe
from sizesem.sizesys import from_mu, principal_mu

_CACHE: dict[int, dict] = {}


def _payload(n: int, parallelism: int = 1) -> dict:
    if parallelism == 1 and n in _CACHE:
        return _CACHE[n]
    payload = _COMPUTE[n](parallelism)
    if parallelism == 1:
        _CACHE[n] = payload
    return payload


def _report(n: int, ok: bool, elapsed: float, desc: str) -> None:
    print(f"criterion {n:>2}: {'PASS' if ok else 'FAIL'} ({elapsed:5.1f}s)  {desc}")


def _records(fid: str, parallelism: int = 1) -> list[dict]:
    return fixtures.run_fixture(fid, parallelism=parallelism)["records"]


def _verdicts(records: list[dict]) -> list[bool]:
    return [r["holds"] for r in records]


# --- payload builders (parallelism-aware where a scan is involved) -----------


def _crit1(par):
    return {fid: _records(fid) for fid in ("fact-3.4-1", "fact-3.4-2")}


def _crit2(par):
    return {f"fact-3.5:{n}": _records(f"fact-3.5:{n}") for n in (2, 3, 4)}


def _crit3(par):
    return {f"ex-3.8:{n}": _records(f"ex-3.8:{n}") for n in (3, 4)}


def _crit4(par):
    return {f"ex-3.11-{k}": _records(f"ex-3.11-{k}") for k in (1, 2, 3)}


def _crit5(par):
    return _records("fact-3.7:3", par)


def _crit6(par):
    return _records("fact-3.9", par)[0]


def _crit7(par):
    return _records("fact-3.10", par)


def _crit8(par):
    return _records("fact-3.12", par)[0]


def _crit9(par):
    return _records("fact-3.13", par)[0]


def _crit10(par):
    return {
        direction: [_records(f"prop-4.1:{row}:{d}", par)[0] for row in range(1, 11)]
        for direction, d in (("forward", "fwd"), ("backward", "bwd"))
    }


def _crit11(par):
    return _records("fact-3.3", par)[0]


def _crit12(par):
    count = 0
    for n in (1, 2, 3):
        u = Universe([chr(ord("a") + i) for i in range(n)])
        for mu in enumerate_mu_functions(u):
            assert principal_mu(from_mu(mu)) == mu
            count += 1
    return {"roundtrips": count}


_COMPUTE = {
    1: _crit1, 2: _crit2, 3: _crit3, 4: _crit4, 5: _crit5, 6: _crit6,
    7: _crit7, 8: _crit8, 9: _crit9, 10: _crit10, 11: _crit11, 12: _crit12,
}


# --- the criteria -------------------------------------------------------------


def test_criterion_1_fixture_fact_3_4():
    t = time.time()
    payload = _payload(1)
    r1, r2 = payload["fact-3.4-1"], payload["fact-3.4-2"]
    ok = _verdicts(r1) == [True, True, True, True, False]
    ok &= r1[4]["witness"] == {"X": ["x", "z"], "Y": ["x", "y", "z"], "A": ["z"]}
    ok &= _verdicts(r2) == [True, True, True, True, False]
    ok &= r2[4]["witness"] == {"X": ["x", "z"], "Y": ["x", "y", "z"], "A": ["x"]}
    elapsed = time.time() - t
    _report(1, ok and elapsed < 1, elapsed, "independence of the two outer monotonies")
    assert ok and elapsed < 1


def test_criterion_2_fixture_levels():
    t = time.time()
    payload = _payload(2)
    ok = all(_verdicts(payload[f"fact-3.5:{n}"]) == [True, False] for n in (2, 3, 4))
    elapsed = time.time() - t
    _report(2, ok and elapsed < 1, elapsed, "level n holds, level n+1 fails")
    assert ok and elapsed < 1


def test_criterion_3_fixture_rules_without_robustness():
    t = time.time()
    payload = _payload(3)
    ok = all(
        _verdicts(payload[f"ex-3.8:{n}"]) == [True, True, True, False] for n in (3, 4)
    )
    elapsed = time.time() - t
    _report(3, ok and elapsed < 1, elapsed, "OR/CM/M+ hold while n*s fails")
    assert ok and elapsed < 1


def test_criterion_4_fixture_m_plus_omega_variants():
    t = time.time()
    payload = _payload(4)
    expect = {
        1: [False, False, True, False],
        2: [True, False, False, False],
        3: [True, True, False, True],
    }
    ok = all(_verdicts(payload[f"ex-3.11-{k}"]) == expect[k] for k in (1, 2, 3))
    elapsed = time.time() - t
    _report(4, ok and elapsed < 1, elapsed, "M+omega variant independence vectors")
    assert ok and elapsed < 1


def test_criterion_5_exhaustive_ternary_robustness():
    t = time.time()
    payload = _payload(5)
    ok = all(rec["holds"] for rec in payload)
    ok &= all(rec["instances_checked"] > 0 for rec in payload)
    elapsed = time.time() - t
    _report(5, ok and elapsed < 60, elapsed, "n*s:3 + eMI force M+n/CM/OR at 3")
    assert ok and elapsed < 60


def test_criterion_6_cm_omega_equivalence():
    t = time.time()
    payload = _payload(6)
    ok = payload["holds"] and payload["instances_checked"] == 19022
    elapsed = time.time() - t
    _report(6, ok and elapsed < 60, elapsed, "CM:omega agrees with M+omega:4 everywhere")
    assert ok and elapsed < 60


def test_criterion_7_omega_robustness_implications():
    t = time.time()
    payload = _payload(7)
    ok = all(rec["holds"] for rec in payload)
    elapsed = time.time() - t
    _report(7, ok and elapsed < 60, elapsed, "the five I-omega implications")
    assert ok and elapsed < 60


def test_criterion_8_m_plus_plus_variants_agree():
    t = time.time()
    payload = _payload(8)
    ok = payload["holds"] and payload["instances_checked"] == 19022
    elapsed = time.time() - t
    _report(8, ok and elapsed < 60, elapsed, "three M++ variants agree on monotone systems")
    assert ok and elapsed < 60


def test_criterion_9_ratm_equivalence():
    t = time.time()
    payload = _payload(9)
    ok = payload["holds"] and payload["instances_checked"] == 19022
    elapsed = time.time() - t
    _report(9, ok and elapsed < 60, elapsed, "RatM agrees with M++:1 everywhere")
    assert ok and elapsed < 60


def test_criterion_10_correspondence_rows():
    t = time.time()
    payload = _payload(10)
    ok = all(rec["holds"] for rec in payload["forward"])
    for rec in payload["backward"]:
        if rec["row"] in (8, 9, 10):
            ok &= (not rec["holds"]) and rec.get("non_implication_confirmed", False)
        else:
            ok &= rec["holds"]
    # the stored witness must be reproduced bit-exactly through the CLI
    ok &= cli_main(["repro", "prop-4.1:8:bwd"]) == 0
    expected = fixtures.expected_table()["prop-4.1:8:bwd"]["records"][0]["witness"]
    produced = payload["backward"][7]["witness"]
    ok &= produced == expected
    elapsed = time.time() - t
    _report(10, ok and elapsed < 300, elapsed, "size<->choice rows, incl. non-implications")
    assert ok and elapsed < 300


def test_criterion_11_robustness_without_union_closure():
    t = time.time()
    payload = _payload(11)
    ok = payload["holds"] and payload["instances_checked"] > 0
    elapsed = time.time() - t
    _report(11, ok and elapsed < 300, elapsed, "M++ minus union closure forces 2*s failure")
    assert ok and elapsed < 300


def test_criterion_12_choice_roundtrip():
    t = time.time()
    payload = _payload(12)
    ok = payload["roundtrips"] == 2 + 16 + 4096
    elapsed = time.time() - t
    _report(12, ok and elapsed < 10, elapsed, "principal extraction inverts induced filters")
    assert ok and elapsed < 10


def test_criterion_13_parallel_determinism():
    t = time.time()
    ok = True
    for n in range(1, 13):
        one = json.dumps(_payload(n, parallelism=1), sort_keys=False)
        four = json.dumps(_payload(n, parallelism=4), sort_keys=False)
        if one != four:
            ok = False
            print(f"criterion 13: payload {n} differs between degrees 1 and 4")
    elapsed = time.time() - t
    _report(13, ok, elapsed, "byte-identical reports across parallelism degrees")
    assert ok
