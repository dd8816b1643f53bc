import random

import pytest

from sizesem.errors import ParseError, UnboundAtom
from sizesem.logic import (
    And,
    Atom,
    Falsum,
    Implies,
    Interpretation,
    Not,
    Or,
    Verum,
    classical_entails,
    describe,
    models,
    parse_formula,
    point_interpretation,
)
from sizesem.setcore import Universe, enumerate_subsets


def test_parse_examples():
    assert parse_formula("a & ~b") == And(Atom("a"), Not(Atom("b")))
    assert parse_formula("a -> b -> c") == Implies(Atom("a"), Implies(Atom("b"), Atom("c")))
    with pytest.raises(ParseError) as exc:
        parse_formula("(")
    assert exc.value.offset == 1


def test_parse_precedence_and_literals():
    assert parse_formula("a | b & c") == Or(Atom("a"), And(Atom("b"), Atom("c")))
    assert parse_formula("~a | b") == Or(Not(Atom("a")), Atom("b"))
    assert parse_formula("T") == Verum()
    assert parse_formula("F") == Falsum()
    assert parse_formula("(a | b) & c") == And(Or(Atom("a"), Atom("b")), Atom("c"))


def test_parse_hyphenated_atom():
    assert parse_formula("z-atom") == Atom("z-atom")
    assert parse_formula("a->b") == Implies(Atom("a"), Atom("b"))


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as exc:
        parse_formula("a &")
    assert exc.value.offset == 3
    with pytest.raises(ParseError) as exc:
        parse_formula("a b")
    assert exc.value.offset == 2
    with pytest.raises(ParseError):
        parse_formula("")


def _interp():
    u = Universe(["1", "2", "3"])
    return u, Interpretation(u, {"a": u.subset(["1", "2"]), "b": u.subset(["2", "3"])})


def test_models_examples():
    u, i = _interp()
    assert models(parse_formula("~a"), i) == u.subset(["3"])
    assert models(parse_formula("a & b"), i) == u.subset(["2"])
    assert models(parse_formula("a | ~a"), i) == u.full
    assert models(parse_formula("T"), i) == u.full
    assert models(parse_formula("F"), i) == u.empty
    assert models(parse_formula("a -> b"), i) == u.subset(["2", "3"])


def test_unbound_atom():
    _, i = _interp()
    with pytest.raises(UnboundAtom):
        models(parse_formula("zap"), i)


def test_classical_entails_examples():
    u, i = _interp()
    assert classical_entails(parse_formula("a & b"), parse_formula("a"), i)
    j = Interpretation(u, {"a": u.subset(["1", "2"]), "b": u.subset(["2"])})
    assert not classical_entails(parse_formula("a"), parse_formula("a & b"), j)
    assert classical_entails(parse_formula("F"), parse_formula("a"), i)


def test_entailment_reflexive_transitive():
    u, i = _interp()
    fs = [parse_formula(t) for t in ("a", "a & b", "a | b", "T", "F", "~a")]
    for f in fs:
        assert classical_entails(f, f, i)
    for f in fs:
        for g in fs:
            for h in fs:
                if classical_entails(f, g, i) and classical_entails(g, h, i):
                    assert classical_entails(f, h, i)
    for f in fs:
        for g in fs:
            if classical_entails(f, g, i) and classical_entails(g, f, i):
                assert models(f, i) == models(g, i)


def test_interpretation_from_system_file(tmp_path):
    import json

    from sizesem.logic import interpretation_from_system_file

    doc = {
        "universe": ["1", "2", "3"],
        "ideals": {},
        "atoms": {"a": ["1", "2"], "b": ["2", "3"]},
    }
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    i = interpretation_from_system_file(str(path))
    assert i.extension("a").labels() == ("1", "2")
    assert set(i.atoms()) == {"a", "b"}


def test_definability_completeness():
    u = Universe(["1", "2", "3", "4"])
    i = point_interpretation(u)
    for s in enumerate_subsets(u, u.full):
        assert models(describe(s), i) == s


# Independent per-world truth evaluation, used to cross-check model sets.


def _holds_at(f, i, world):
    if isinstance(f, Atom):
        return world in i.extension(f.name)
    if isinstance(f, Verum):
        return True
    if isinstance(f, Falsum):
        return False
    if isinstance(f, Not):
        return not _holds_at(f.sub, i, world)
    if isinstance(f, And):
        return _holds_at(f.left, i, world) and _holds_at(f.right, i, world)
    if isinstance(f, Or):
        return _holds_at(f.left, i, world) or _holds_at(f.right, i, world)
    if isinstance(f, Implies):
        return (not _holds_at(f.left, i, world)) or _holds_at(f.right, i, world)
    raise TypeError(f)


def _random_formula(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Atom(rng.choice(atoms)), Verum(), Falsum()])
    kind = rng.randrange(4)
    if kind == 0:
        return Not(_random_formula(rng, atoms, depth - 1))
    left = _random_formula(rng, atoms, depth - 1)
    right = _random_formula(rng, atoms, depth - 1)
    return [And, Or, Implies][kind - 1](left, right)


def test_models_agree_with_per_world_evaluation():
    rng = random.Random(20240811)
    for size in (1, 2, 3, 4):
        u = Universe([f"w{k}" for k in range(size)])
        atoms = ["p", "q", "r"]
        i = Interpretation(
            u,
            {
                name: u.subset_from_mask(rng.randrange(1 << size))
                for name in atoms
            },
        )
        for _ in range(100):
            f = _random_formula(rng, atoms, 6)
            m = models(f, i)
            for world in u.elements:
                assert (world in m) == _holds_at(f, i, world)



@pytest.mark.parametrize(
    "doc, key",
    [
        ({"universe": ["x", "y"], "atoms": {"p": "xy"}}, '"atoms"["p"]'),
        ({"universe": "xy", "atoms": {"p": ["x"]}}, '"universe"'),
        ({"universe": ["x"], "atoms": [["x"]]}, '"atoms"'),
    ],
    ids=["string-atom", "string-universe", "non-object-atoms"],
)
def test_interpretation_from_system_file_rejects_malformed(tmp_path, doc, key):
    import json

    from sizesem.errors import MalformedDocument
    from sizesem.logic import interpretation_from_system_file

    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MalformedDocument) as info:
        interpretation_from_system_file(str(path))
    assert key in str(info.value)
