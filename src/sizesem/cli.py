"""Command-line front end.

    sizesem validate  --system s.json | --mu m.json
    sizesem check     --system s.json --props eMF,I-omega | --all
    sizesem rules     --system s.json --rules RatM,AND:3 | --all
    sizesem mu        --mu m.json --rules mu-CM,mu-CUT | --all
    sizesem mu        --row 8 --direction bwd --max-size 3
    sizesem derive    --system s.json
    sizesem search    --size 3 --mode find-counterexample --required Opt,eMI --target eMF
    sizesem repro     fact-3.4-1 | --all

Output is a human-readable table by default and machine-readable JSON with
--json; both are byte-stable for identical inputs.  `--expect FILE` compares
the JSON records against a stored table and fails (exit 1) on mismatch.
Exit codes: 0 success, 1 verdict mismatch under --expect or repro,
2 input/validation error, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures
from .errors import CapacityExceeded, MalformedDocument, WorkbenchError
from .preferential import (
    _MU_RULES,
    check_mu_rule,
    parse_mu_rule,
    verify_correspondence_backward,
    verify_correspondence_forward,
)
from .properties import PROPERTY_TAGS, check_property, parse_property
from .report import guarded_report
from .rules import check_rule, derive_relation, parse_rule
from .search import (
    SearchSpec,
    count_systems,
    find_counterexample,
    verify_implication,
)
from .sizesys import _read_document, load_mu, load_system

ALL_PROPS = [
    "Opt", "iM", "eMI", "eMF", "I-union-disj", "F-union-disj",
    "1*s", "n*s:2", "n*s:3", "I-omega", "M+n:3",
    "M+omega:1", "M+omega:2", "M+omega:3", "M+omega:4",
    "M++:1", "M++:2", "M++:3",
]
ALL_RULES = [
    "SC", "REF", "RW", "wOR", "PR'", "wCM", "disjOR", "CP",
    "AND:1", "AND:2", "AND:3", "AND:omega", "OR:2", "OR:3", "OR:omega",
    "CM:2", "CM:3", "CM:omega", "RatM", "CUT", "CUM", "CCL", "M+derived",
]


def _emit(payload: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


def _report_line(rec: dict) -> str:
    verdict = "holds" if rec["holds"] else "FAILS"
    if rec.get("error"):
        return f"{rec['condition']:<24} error   {rec['error']}"
    line = f"{rec['condition']:<24} {verdict:<6} instances={rec['instances_checked']}"
    if rec.get("witness"):
        parts = " ".join(
            f"{name}={{{','.join(labels)}}}" for name, labels in rec["witness"].items()
        )
        line += f"  witness: {parts}"
    if rec.get("notes"):
        line += "  [" + "; ".join(rec["notes"]) + "]"
    return line


def _check_expect(payload: dict, path: str | None) -> int:
    """0 without an --expect file; else 1 if the payload mismatches it."""
    if not path:
        return 0
    expected, _ = _read_document(path)
    records = expected.get("records", []) if isinstance(expected, dict) else None
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise MalformedDocument('--expect needs a JSON object whose "records" is a list of objects')
    if "records" in expected and "records" in payload:
        mismatches = fixtures.compare_records(payload, expected)
    else:
        mismatches = [] if payload == expected else ["payload differs from expected file"]
    for m in mismatches:
        print(f"expect: {m}", file=sys.stderr)
    return 1 if mismatches else 0


def _parse_check_id(text: str):
    """A property or rule id; a name based on a property tag keeps the
    property's own error, such as "M+n needs n >= 3"."""
    try:
        return parse_property(text)
    except ValueError:
        if text.strip().partition(":")[0] in PROPERTY_TAGS:
            raise
        return parse_rule(text)


def cmd_validate(args) -> int:
    if args.system:
        s = load_system(args.system)
        print(
            f"ok: system {s.label}: universe {list(s.universe.elements)}, "
            f"{len(s.domain_masks)} domain sets"
        )
    elif args.mu:
        mu = load_mu(args.mu)
        print(
            f"ok: mu {mu.label}: universe {list(mu.universe.elements)}, "
            f"{len(mu.domain_masks)} domain sets"
        )
    else:
        print("validate needs --system or --mu", file=sys.stderr)
        return 2
    return 0


def _run_checks(args, target, names: list[str], parse, check, usage: str) -> int:
    """Parse check ids, run each on target (errors become records), emit."""
    ids = [parse(n) for n in names if n]
    if not ids:
        print(usage, file=sys.stderr)
        return 2
    records = [guarded_report(check, target, cid).to_dict() for cid in ids]
    payload = {"subject": target.label, "records": records}
    _emit(payload, args.json, [_report_line(r) for r in records])
    return _check_expect(payload, args.expect)


def cmd_check(args) -> int:
    s = load_system(args.system)
    names = ALL_PROPS if args.all else (args.props or "").split(",")
    return _run_checks(
        args, s, names, parse_property, check_property, "check needs --props or --all"
    )


def cmd_rules(args) -> int:
    s = load_system(args.system)
    names = ALL_RULES if args.all else (args.rules or "").split(",")
    return _run_checks(args, s, names, parse_rule, check_rule, "rules needs --rules or --all")


def cmd_mu(args) -> int:
    if args.row is not None:
        if args.direction not in ("fwd", "bwd"):
            print("mu --row needs --direction fwd|bwd", file=sys.stderr)
            return 2
        max_size = 3 if args.max_size is None else args.max_size
        if max_size < 1:
            print("mu --max-size must be at least 1", file=sys.stderr)
            return 2
        if args.direction == "fwd":
            rep = verify_correspondence_forward(args.row, max_size)
        else:
            rep = verify_correspondence_backward(args.row, max_size)
        rec = rep.to_dict()
        payload = {"records": [rec]}
        verdict = "holds" if rec["holds"] else (
            "non-implication confirmed" if rec.get("non_implication_confirmed") else "FAILS"
        )
        _emit(
            payload, args.json,
            [
                f"row {rec['row']} {rec['direction']} (max size {rec['universe_max']}): "
                f"{verdict}, systems={rec['systems_checked']}"
            ],
        )
        return _check_expect(payload, args.expect)

    if not args.mu:
        print("mu needs --mu or --row", file=sys.stderr)
        return 2
    mu = load_mu(args.mu)
    names = sorted(_MU_RULES) if args.all else (args.rules or "").split(",")
    return _run_checks(args, mu, names, parse_mu_rule, check_mu_rule, "mu needs --rules or --all")


def cmd_derive(args) -> int:
    s = load_system(args.system)
    pairs = derive_relation(s)
    payload = {
        "subject": s.label,
        "pairs": [[list(a.labels()), list(b.labels())] for a, b in pairs],
    }
    lines = [f"{{{','.join(a.labels())}}} |~ {{{','.join(b.labels())}}}" for a, b in pairs]
    _emit(payload, args.json, lines)
    return _check_expect(payload, args.expect)


def cmd_search(args) -> int:
    required = [_parse_check_id(n) for n in (args.required or "").split(",") if n]
    target = _parse_check_id(args.target) if args.target else None
    spec = SearchSpec(
        universe_size=args.size,
        required=tuple(required),
        target=target,
        mode=args.mode,
        monotone_only=args.monotone,
        canonical_only=args.canonical,
    )
    if spec.mode == "find-counterexample":
        system, rep = find_counterexample(spec)
        if system is None:
            payload = {"spec": spec.to_dict(), "found": None}
            _emit(payload, args.json, ["no counterexample at this size"])
        else:
            payload = {
                "spec": spec.to_dict(),
                "found": system.to_dict(),
                "target_report": rep.to_dict(),
            }
            _emit(
                payload, args.json,
                [f"counterexample: {system.label}", _report_line(rep.to_dict())],
            )
            if args.log:
                with open(args.log, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(payload) + "\n")
    elif spec.mode == "verify-implication":
        rep = verify_implication(spec)
        payload = {"spec": spec.to_dict(), "records": [rep.to_dict()]}
        _emit(payload, args.json, [_report_line(rep.to_dict())])
    else:
        rep = count_systems(spec)
        payload = {"spec": spec.to_dict(), "records": [rep.to_dict()]}
        _emit(payload, args.json, [f"{rep.instances_checked} systems"])
    return _check_expect(payload, args.expect)


def cmd_repro(args) -> int:
    ids = fixtures.FIXTURE_IDS if args.all else [args.fixture]
    if not args.all and args.fixture not in fixtures.FIXTURE_IDS:
        print(f"unknown fixture id {args.fixture!r}", file=sys.stderr)
        return 2
    table = fixtures.expected_table()
    status = 0
    payloads = []
    log = sys.stderr if args.json else sys.stdout  # with --json, stdout is the JSON alone
    for fid in ids:
        produced = fixtures.run_fixture(fid)
        payloads.append(produced)
        mismatches = fixtures.compare_records(produced, table[fid])
        if mismatches:
            status = 1
            print(f"FAIL {fid}", file=log)
            for m in mismatches:
                print(f"  {m}", file=log)
        else:
            print(f"PASS {fid}", file=log)
    if args.json:
        print(json.dumps(payloads if args.all else payloads[0], indent=2))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sizesem",
        description="verification workbench for size-based consequence relations",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="build a system/mu file and report violations")
    p.add_argument("--system")
    p.add_argument("--mu")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("check", help="run property checks on a system")
    p.add_argument("--system", required=True)
    p.add_argument("--props")
    p.add_argument("--all", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("rules", help="run consequence-rule checks on a system")
    p.add_argument("--system", required=True)
    p.add_argument("--rules")
    p.add_argument("--all", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect")
    p.set_defaults(fn=cmd_rules)

    p = sub.add_parser("mu", help="check choice-function rules / correspondence rows")
    p.add_argument("--mu")
    p.add_argument("--rules")
    p.add_argument("--all", action="store_true")
    p.add_argument("--row", type=int)
    p.add_argument("--direction", choices=("fwd", "bwd"))
    p.add_argument("--max-size", type=int, dest="max_size")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect")
    p.set_defaults(fn=cmd_mu)

    p = sub.add_parser("derive", help="dump the consequence relation of a system")
    p.add_argument("--system", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("search", help="enumerate systems; find counterexamples")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--mode", default="find-counterexample",
                   choices=("find-counterexample", "verify-implication", "count"))
    p.add_argument("--required")
    p.add_argument("--target")
    p.add_argument("--monotone", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--canonical", action="store_true")
    p.add_argument("--log", help="append found witnesses to this JSON-lines file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expect")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("repro", help="replay a named fixture against stored verdicts")
    p.add_argument("fixture", nargs="?")
    p.add_argument("--all", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_repro)

    args = parser.parse_args(argv)
    if args.verb == "repro" and not args.all and not args.fixture:
        print("repro needs a fixture id or --all", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except CapacityExceeded as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return 3
    except WorkbenchError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
