import json
import subprocess
import sys
from importlib import resources

import pytest

from sizesem.cli import main


def data_path(name):
    return str(resources.files("sizesem.fixtures").joinpath(f"data/{name}"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_system(capsys):
    code, out, _ = run_cli(capsys, "validate", "--system", data_path("fact34-1.json"))
    assert code == 0
    assert "ok: system" in out


def test_validate_mu(capsys):
    code, out, _ = run_cli(capsys, "validate", "--mu", data_path("prop41-82-mu.json"))
    assert code == 0


def test_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"universe": ["x"], "domain": [[]], "ideals": {}}')
    code, _, err = run_cli(capsys, "validate", "--system", str(bad))
    assert code == 2
    assert "EmptySetInDomain" in err


def test_validate_rejects_comma_in_element_label(tmp_path, capsys):
    # The set key "x,y,z" would not read back: "," joins labels in set keys.
    bad = tmp_path / "bad.json"
    bad.write_text('{"universe": ["x,y", "z"], "ideals": {"x,y,z": [[]]}}')
    code, out, err = run_cli(capsys, "validate", "--system", str(bad))
    assert code == 2
    assert "may not contain ','" in err and out == ""


@pytest.mark.parametrize(
    "flag, text, message",
    [
        (
            "--mu",
            '{"universe": ["a", "b"], "choice": {"a,b": ["a"], "b,a": ["b"]}}',
            '"choice" keys "a,b" and "b,a" name one set',
        ),
        (
            "--system",
            '{"universe": ["a", "b"], "ideals": {"a,b": [[], ["a"]], "b,a": [[], ["b"]]}}',
            '"ideals" keys "a,b" and "b,a" name one set',
        ),
        (
            "--mu",
            '{"universe": ["a", "b"], "choice": {"a,b": ["a"], "a,b": ["b"]}}',
            'key "a,b" appears twice in one object',
        ),
        (
            "--system",
            '{"universe": ["a", "b"], "domain": [["a"], ["b"], ["a"]]}',
            '"domain"[2] repeats "domain"[0]',
        ),
    ],
    ids=["choice-keys", "ideal-keys", "identical-keys", "domain"],
)
def test_validate_rejects_a_set_named_twice(tmp_path, capsys, flag, text, message):
    # Each of these used to load, keeping one of the two entries silently.
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run_cli(capsys, "validate", flag, str(bad))
    assert code == 2
    assert message in err and "MalformedDocument" in err and out == ""


def _check_all(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    return run_cli(capsys, "check", "--system", str(bad), "--all")


def test_check_rejects_top_level_array(tmp_path, capsys):
    code, out, err = _check_all(tmp_path, capsys, '[{"universe": ["x"]}]')
    assert code == 2
    assert "MalformedDocument" in err and "top level" in err and '"universe"' in err
    assert out == ""


def test_check_rejects_non_list_ideal(tmp_path, capsys):
    code, _, err = _check_all(tmp_path, capsys, '{"universe": ["x", "y"], "ideals": {"x,y": 5}}')
    assert code == 2
    assert "MalformedDocument" in err and '"ideals"["x,y"]' in err


def test_check_rejects_string_universe(tmp_path, capsys):
    code, _, err = _check_all(tmp_path, capsys, '{"universe": "xy"}')
    assert code == 2
    assert "MalformedDocument" in err and '"universe"' in err


def test_check_emf_example(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--system", data_path("fact34-1.json"), "--props", "eMF"
    )
    assert code == 0
    assert "FAILS" in out and "X={x,z}" in out and "A={z}" in out


def test_check_json_is_stable(capsys):
    args = ("check", "--system", data_path("fact34-1.json"), "--all", "--json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["records"][0]["condition"] == "Opt"


@pytest.mark.parametrize(
    "verb, flag, name, kind",
    [
        ("rules", "--rules", "AND:x", "rule"),
        ("check", "--props", "M+n:x", "property"),
        ("check", "--props", "n*s:x", "property"),
    ],
)
def test_a_bad_parameter_names_the_check_id(capsys, verb, flag, name, kind):
    code, out, err = run_cli(capsys, verb, "--system", data_path("fact34-1.json"), flag, name)
    assert code == 2 and out == ""
    assert f"unknown {kind} name {name!r}" in err


def test_rules_verb(capsys):
    code, out, _ = run_cli(
        capsys, "rules", "--system", data_path("ex38-3.json"), "--rules", "OR:3,CM:3,RatM"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("OR:3") and "holds" in lines[0]
    assert lines[2].startswith("RatM") and "FAILS" in lines[2]


def test_mu_rules_verb(capsys):
    code, out, _ = run_cli(
        capsys, "mu", "--mu", data_path("prop41-82-mu.json"), "--rules", "mu-CUT,mu-CUM"
    )
    assert code == 0
    assert out.count("holds") == 2


def test_mu_correspondence_verb(capsys):
    code, out, _ = run_cli(
        capsys, "mu", "--row", "8", "--direction", "bwd", "--max-size", "3"
    )
    assert code == 0
    assert "non-implication confirmed" in out


def test_validate_mu_rejects_empty_domain(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"universe": ["a"], "domain": []}')
    code, out, err = run_cli(capsys, "validate", "--mu", str(bad))
    assert code == 2
    assert "EmptySetInDomain" in err and out == ""


def test_mu_row_max_size_defaults_to_three(capsys):
    code, out, _ = run_cli(capsys, "mu", "--row", "8", "--direction", "bwd")
    assert code == 0
    assert "(max size 3)" in out


@pytest.mark.parametrize("size", ["0", "-1"])
def test_mu_row_rejects_max_size_below_one(capsys, size):
    code, out, err = run_cli(capsys, "mu", "--row", "1", "--direction", "fwd", "--max-size", size)
    assert code == 2
    assert "--max-size" in err and out == ""


@pytest.mark.parametrize("size", ["1", "2"])
@pytest.mark.parametrize("row", ["8", "9", "10"])
def test_mu_negative_row_refuses_size_below_its_witness(capsys, row, size):
    # the non-implication witness lives on {a,b,c}, outside a smaller universe
    code, out, err = run_cli(capsys, "mu", "--row", row, "--direction", "bwd", "--max-size", size)
    assert code == 2
    assert "3 elements" in err and out == ""


@pytest.mark.parametrize("direction", ["fwd", "bwd"])
def test_mu_row_refuses_unfinishable_scan(capsys, direction):
    code, out, err = run_cli(
        capsys, "mu", "--row", "1", "--direction", direction, "--max-size", "4"
    )
    assert code == 3
    assert "capacity" in err.lower() and out == ""


def test_derive_verb(capsys):
    code, out, _ = run_cli(
        capsys, "derive", "--system", data_path("fact34-2.json"), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [["x", "z"], ["z"]] in payload["pairs"]


def test_search_verb_capacity(capsys):
    code, _, err = run_cli(
        capsys, "search", "--size", "5", "--mode", "count"
    )
    assert code == 3
    assert "capacity" in err.lower()


def test_search_verb_refuses_size_zero(capsys):
    code, out, err = run_cli(capsys, "search", "--size", "0", "--mode", "count")
    assert code == 2
    assert "at least 1" in err and out == ""


def test_search_verb_count_mode(capsys):
    # monotone eMI systems at |U| = 2: I({a}) and I({b}) are each {∅} or hold
    # their singleton, and I({a,b}) must hold those singletons: 5 + 3 + 3 + 2
    code, out, _ = run_cli(
        capsys, "search", "--size", "2", "--mode", "count", "--required", "eMI", "--json"
    )
    assert code == 0
    assert json.loads(out)["records"][0]["instances_checked"] == 13


def test_search_verb_count_mode_refuses_target(capsys):
    # A target used to stop the count at its first violation: "5 systems".
    code, out, err = run_cli(
        capsys, "search", "--size", "2", "--mode", "count", "--required", "eMI", "--target", "eMF"
    )
    assert code == 2
    assert "count mode takes no target" in err and out == ""


def test_search_verb_verify_implication_mode(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--size", "2", "--mode", "verify-implication",
        "--required", "eMI", "--target", "eMF", "--json",
    )
    assert code == 0
    (rec,) = json.loads(out)["records"]
    assert (rec["holds"], rec["instances_checked"]) == (False, 5)
    assert rec["notes"] == ["violating system u2#4"]


def test_search_verb_counterexample(capsys):
    code, out, _ = run_cli(
        capsys,
        "search", "--size", "3", "--required", "Opt,iM,eMI,I-omega",
        "--target", "eMF", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is not None


def test_search_log_appends_json_lines(tmp_path, capsys):
    log = tmp_path / "found.jsonl"
    args = (
        "search", "--size", "3", "--required", "Opt,iM,eMI,I-omega",
        "--target", "eMF", "--log", str(log),
    )
    assert run_cli(capsys, *args)[0] == 0
    assert run_cli(capsys, *args)[0] == 0
    lines = log.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == json.loads(lines[1])


def test_every_fixture_id_has_expected_verdicts():
    from sizesem import fixtures

    table = fixtures.expected_table()
    assert set(table) == set(fixtures.FIXTURE_IDS)


def test_repro_pass(capsys):
    code, out, _ = run_cli(capsys, "repro", "fact-3.4-1")
    assert code == 0
    assert out.strip() == "PASS fact-3.4-1"


def test_repro_unknown_id(capsys):
    code, _, err = run_cli(capsys, "repro", "zzz")
    assert code == 2


def test_expect_mismatch_exits_one(tmp_path, capsys):
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"records": [{"condition": "eMF", "holds": True}]}))
    code, _, err = run_cli(
        capsys,
        "check", "--system", data_path("fact34-1.json"), "--props", "eMF",
        "--expect", str(expect),
    )
    assert code == 1
    assert "expect" in err


@pytest.mark.parametrize(
    "document",
    [[1], "records", {"records": [1]}, {"records": {"a": 1}}, {"records": None}],
    ids=["list", "string", "record-not-object", "records-object", "records-null"],
)
def test_malformed_expect_document_exits_two(tmp_path, capsys, document):
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps(document))
    code, _, err = run_cli(
        capsys,
        "check", "--system", data_path("fact34-1.json"), "--props", "eMI",
        "--expect", str(expect),
    )
    assert code == 2
    assert "MalformedDocument" in err and "--expect" in err


def test_expect_match_exits_zero(tmp_path, capsys):
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"records": [{"condition": "eMF", "holds": False}]}))
    code, _, _ = run_cli(
        capsys,
        "check", "--system", data_path("fact34-1.json"), "--props", "eMF",
        "--expect", str(expect),
    )
    assert code == 0


def test_repro_replays_every_fixture_id():
    from sizesem import fixtures

    table = fixtures.expected_table()
    for fid in fixtures.FIXTURE_IDS:
        produced = fixtures.run_fixture(fid)
        assert fixtures.compare_records(produced, table[fid]) == [], fid


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sizesem.cli", "repro", "fact-3.5:2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "PASS" in proc.stdout



@pytest.mark.parametrize(
    "argv, doc, errors",
    [
        (
            ("check", "--system", "--props", "Opt,I-union-disj"),
            {"universe": ["x", "y"], "domain": [["x"], ["y"]]},
            [None, "DomainNotClosed: "],
        ),
        (
            ("rules", "--system", "--rules", "SC,CP"),
            {"universe": ["x", "y"], "domain": [["x"], ["x", "y"]]},
            ["DomainNotFull: ", "DomainNotFull: "],
        ),
        (
            ("rules", "--system", "--rules", "AND:14,OR:10,CM:14,SC"),
            {"universe": ["a", "b", "c"]},
            ["CapacityExceeded: AND:14 ", "CapacityExceeded: OR:10 ", "CapacityExceeded: CM:14 ",
             None],
        ),
        (
            ("mu", "--mu", "--rules", "mu-OR,mu-PR"),
            {"universe": ["a", "b"], "domain": [["a"], ["b"]]},
            ["DomainNotClosed: domain does not contain a,b (needed for mu-OR)", None],
        ),
    ],
    ids=["check", "rules", "rules-ceiling", "mu"],
)
def test_json_error_records_exit_zero(tmp_path, capsys, argv, doc, errors):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, argv[0], argv[1], str(path), *argv[2:], "--json")
    assert code == 0
    records = json.loads(out)["records"]
    assert len(records) == len(errors)
    for rec, error in zip(records, errors):
        if error is None:
            assert rec["holds"] and "error" not in rec
        else:
            assert rec["error"].startswith(error)
            assert rec["holds"] is False and rec["witness"] is None
            assert rec["instances_checked"] == 0
