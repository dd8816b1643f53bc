"""The package adds no settable value without taking one away.

A settable value is a parameter with a default (keyword-only ones included)
or a dataclass field with a default: each is an option some caller may set.
The walk below counts them over `src/sizesem`; the ceiling is today's count,
so a new option fails here until another is retired or the ceiling is
raised on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sizesem"
CEILING = 38


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None)):
            return True
    return False


def settable_values(root: Path) -> int:
    total = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                total += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                total += sum(
                    isinstance(st, ast.AnnAssign) and st.value is not None for st in node.body
                )
    return total


def test_no_new_settable_values():
    assert settable_values(SRC) <= CEILING


def test_the_walk_counts_every_kind_of_default(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d): pass\n"
        "g = lambda x=0: x\n"
        "@dataclass(frozen=True)\n"
        "class S:\n"
        "    u: int\n"
        "    v: int = 3\n"
        "class Plain:\n"
        "    w: int = 4\n"
    )
    assert settable_values(tmp_path) == 4
