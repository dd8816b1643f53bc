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
    for size in (("--size", "5"), ("--size", "6", "--canonical")):
        code, _, err = run_cli(capsys, "search", *size, "--mode", "count")
        assert code == 3
        assert "capacity" in err.lower()


def test_search_verb_refuses_an_unpruned_canonical_count_at_size_5(capsys, monkeypatch):
    # With no required check the walk of size 5 reads every leader, more than
    # 10^34 of them: refused before it starts.
    from sizesem import search

    def no_walk(*args):
        raise AssertionError("a walk started before the refusal")

    monkeypatch.setattr(search._SystemSpace, "union_cells", no_walk)
    code, out, err = run_cli(capsys, "search", "--size", "5", "--mode", "count", "--canonical")
    assert code == 3
    assert "needs a required check" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [("--mode", "count", "--required", "Opt"), ("--mode", "count", "--required", "iM"),
     ("--target", "iM"), ("--mode", "verify-implication", "--required", "Opt", "--target", "iM")],
    ids=["count-Opt", "count-iM", "find-iM", "implication-Opt-iM"],
)
def test_search_verb_refuses_a_canonical_size_5_search_that_no_check_prunes(capsys, monkeypatch,
                                                                             argv):
    # Every family of the space holds ∅ and every down-set is inner-monotone,
    # so Opt and iM let every family through: each walk reads every leader.
    from sizesem import search

    def no_walk(*args):
        raise AssertionError("a walk started before the refusal")

    monkeypatch.setattr(search._SystemSpace, "union_cells", no_walk)
    code, out, err = run_cli(capsys, "search", "--size", "5", "--canonical", *argv)
    assert code == 3
    assert "needs a required check" in err and out == ""


def test_search_verb_finds_a_canonical_size_5_counterexample_whose_walks_part_early(capsys):
    code, out, _ = run_cli(capsys, "search", "--size", "5", "--canonical", "--target", "eMI")
    assert code == 0
    assert out.startswith("counterexample: u5#209\n")


@pytest.mark.parametrize("canonical", [(), ("--canonical",)], ids=["raw", "canonical"])
def test_search_verb_refuses_a_non_monotone_size_4(capsys, canonical):
    # The full set of size 4 alone has 32 768 families with ∅.
    code, out, err = run_cli(capsys, "search", "--size", "4", "--no-monotone", "--mode", "count",
                             *canonical)
    assert code == 3
    assert "capped at size 3" in err and out == ""


def test_search_verb_refuses_size_zero(capsys):
    code, out, err = run_cli(capsys, "search", "--size", "0", "--mode", "count")
    assert code == 2
    assert "at least 1" in err and out == ""


@pytest.mark.parametrize(
    "name,message", [("M+n:2", "M+n needs n >= 3"), ("M++:4", "M++ variant must be 1..3")]
)
def test_search_verb_names_a_property_parameter_error(capsys, name, message):
    for required, target in ((name, "eMI"), ("eMI", name)):
        code, out, err = run_cli(capsys, "search", "--size", "2", "--required", required,
                                 "--target", target)
        assert code == 2
        assert message in err and "unknown rule name" not in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [("check", "--system", data_path("fact34-1.json"), "--props", "eMI:"),
     ("search", "--size", "2", "--required", "Opt:,iM:", "--target", "eMI")],
    ids=["check-eMI", "search-Opt-iM"],
)
def test_a_bare_colon_after_a_property_without_a_parameter_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "takes no parameter" in err and out == ""


def test_search_verb_counts_every_system_at_size_4(capsys):
    # No check reads below a base set, so the walk is one cell from the start.
    code, out, _ = run_cli(capsys, "search", "--size", "4", "--mode", "count")
    assert code == 0
    assert out == "5440901750000 systems\n"


def test_search_verb_finds_no_counterexample_where_the_target_holds(capsys):
    # I-omega + eMF => M+omega:2 at |U| = 4, decided by counts inside the walk.
    code, out, _ = run_cli(
        capsys, "search", "--size", "4", "--required", "I-omega,eMF", "--target", "M+omega:2"
    )
    assert code == 0
    assert "no counterexample at this size" in out


def test_search_verb_count_mode(capsys):
    # monotone eMI systems at |U| = 2: I({a}) and I({b}) are each {∅} or hold
    # their singleton, and I({a,b}) must hold those singletons: 5 + 3 + 3 + 2
    code, out, _ = run_cli(
        capsys, "search", "--size", "2", "--mode", "count", "--required", "eMI", "--json"
    )
    assert code == 0
    assert json.loads(out)["records"][0]["instances_checked"] == 13


@pytest.mark.parametrize(
    "rule,saturated,count",
    [("OR:10", "OR:4", 216), ("AND:12", "AND:3", 270), ("CM:12", "CM:5", 180)],
)
def test_search_verb_counts_past_the_rule_instance_ceiling(capsys, rule, saturated, count):
    # A required rule prunes the walk by its test below each set, which walks
    # no instance, so the ceiling on instance scans does not refuse it.  At
    # |U| = 3 a union of more than three sets is a union of three of them, so
    # the count is that of the least parameter with the same verdict.
    for required in (rule, saturated):
        code, out, err = run_cli(
            capsys, "search", "--size", "3", "--mode", "count", "--required", required, "--json"
        )
        assert code == 0, err
        assert json.loads(out)["records"][0]["instances_checked"] == count


def test_search_verb_counts_a_long_m_plus_n_as_a_short_one(capsys):
    # M+n's test below a set stops stepping back once the sets it reaches
    # repeat, so M+n:3000 is decided in a few steps, with M+n:3's count.
    code, out, err = run_cli(
        capsys, "search", "--size", "3", "--mode", "count", "--required", "M+n:3000", "--json"
    )
    assert code == 0, err
    assert json.loads(out)["records"][0]["instances_checked"] == 181


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


@pytest.mark.parametrize("which", [("fact-3.4-1",), ("--all",)], ids=["one", "all"])
def test_repro_json_writes_the_json_alone_to_stdout(capsys, which):
    from sizesem import fixtures

    code, out, err = run_cli(capsys, "repro", *which, "--json")
    assert code == 0
    payload = json.loads(out)
    if which == ("--all",):
        assert [p["fixture"] for p in payload] == list(fixtures.FIXTURE_IDS) and len(payload) == 36
        assert err.splitlines() == [f"PASS {fid}" for fid in fixtures.FIXTURE_IDS]
    else:
        assert payload["fixture"] == "fact-3.4-1" and err == "PASS fact-3.4-1\n"


@pytest.mark.parametrize("as_json", [(), ("--json",)], ids=["text", "json"])
def test_repro_mismatch_exits_one(capsys, monkeypatch, as_json):
    from sizesem import fixtures

    table = fixtures.expected_table()
    table["fact-3.4-1"]["records"][4]["holds"] = True  # eMF fails on it
    monkeypatch.setattr(fixtures, "expected_table", lambda: table)
    code, out, err = run_cli(capsys, "repro", "fact-3.4-1", *as_json)
    assert code == 1
    log = err if as_json else out
    assert log.splitlines() == ["FAIL fact-3.4-1", "  record 4 field 'holds': expected True, got False"]
    if as_json:
        assert json.loads(out)["fixture"] == "fact-3.4-1"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (("validate",), None, "validate needs --system or --mu"),
        (("check", "--system", data_path("fact34-1.json"), "--props", ""), None,
         "check needs --props or --all"),
        (("mu", "--row", "8"), None, "mu --row needs --direction fwd|bwd"),
        (("mu",), None, "mu needs --mu or --row"),
        (("repro",), None, "repro needs a fixture id or --all"),
        (("validate", "--system"), '{"ideals": {}}', 'MalformedDocument: missing key "universe"'),
        (("validate", "--system"), '{"universe": ["x"], "domain": "all"}',
         'MalformedDocument: "domain" must be "full" or a list of subsets'),
        (("validate", "--system"), '{"universe": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "nested too deeply"),
    ],
    ids=["validate-neither", "check-empty-props", "mu-row-no-direction", "mu-neither",
         "repro-no-id", "no-universe", "domain-neither", "nested-too-deeply"],
)
def test_a_refused_command_line_or_document_exits_two_with_one_line(tmp_path, capsys, argv, text,
                                                                    message):
    if text is not None:
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        argv = (*argv, str(doc))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and len(err.splitlines()) == 1 and message in err


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


def test_expect_document_refuses_a_repeated_key(tmp_path, capsys):
    # --expect is read like a system document, which refuses repeated keys.
    expect = tmp_path / "expect.json"
    expect.write_text('{"records": [{"condition": "eMF", "holds": true, "holds": false}]}')
    code, _, err = run_cli(
        capsys,
        "check", "--system", data_path("fact34-1.json"), "--props", "eMF",
        "--expect", str(expect),
    )
    assert code == 2
    assert 'key "holds" appears twice' in err


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


def test_a_long_m_plus_n_chain_runs_clean():
    # Each of the chains that M+n:3000 walks is 3 000 sets long.
    proc = subprocess.run(
        [sys.executable, "-m", "sizesem.cli", "check", "--system", data_path("fact34-1.json"),
         "--props", "M+n:3000", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    [record] = json.loads(proc.stdout)["records"]
    assert (record["holds"], record["instances_checked"]) == (True, 9004)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["validate", "--system"], '{"universe": ' + "[" * 1500 + "]" * 1500 + "}"),
        (
            ["rules", "--system", data_path("fact34-1.json"), "--rules", "SC", "--json", "--expect"],
            "[" * 100_000 + "]" * 100_000,
        ),
    ],
    ids=["system", "expect"],
)
def test_deeply_nested_json_exits_two(tmp_path, argv, text):
    # Exit 1 means a verdict mismatch, so a document too deep for the JSON
    # reader is refused as malformed, without a traceback.
    doc = tmp_path / "deep.json"
    doc.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "sizesem.cli", *argv, str(doc)], capture_output=True, text=True
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "MalformedDocument" in proc.stderr and "nested too deeply" in proc.stderr


def test_malformed_value_is_quoted_short(tmp_path):
    # A value deep enough to print thousands of brackets, but shallow enough
    # to parse, is quoted cut short.
    doc = tmp_path / "deep.json"
    doc.write_text('{"universe": ' + "[" * 900 + "]" * 900 + "}")
    proc = subprocess.run(
        [sys.executable, "-m", "sizesem.cli", "validate", "--system", str(doc)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith('MalformedDocument: "universe" must be a list of element labels')
    assert line.endswith("…") and len(line) < 200


def test_search_counts_non_monotone_opt_systems(capsys):
    # Opt holds on every family with ∅: all 2³ · 8³ · 128 raw systems at |U| = 3.
    code, out, _ = run_cli(
        capsys, "search", "--size", "3", "--mode", "count", "--required", "Opt",
        "--no-monotone", "--json",
    )
    assert code == 0
    assert json.loads(out)["records"][0]["instances_checked"] == 524_288



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
