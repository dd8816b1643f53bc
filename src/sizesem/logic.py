"""Propositional formulas over a universe of worlds.

Worlds are the universe elements themselves; an interpretation assigns each
atom the subset of worlds where it holds.  The model set of a formula is then
an ordinary Subset, which is what ties the syntactic side to the size
machinery: a consequence relation only ever sees model sets.

Grammar (ascending precedence):

    formula ::= disj ('->' formula)?          right-associative
    disj    ::= conj ('|' conj)*
    conj    ::= unary ('&' unary)*
    unary   ::= '~' unary | 'T' | 'F' | atom | '(' formula ')'
    atom    ::= identifier   (letters, digits, '_', interior '-')

'T' and 'F' are the constants verum and falsum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ParseError, UnboundAtom
from .setcore import Subset, Universe
from .sizesys import _labels_at, _object_at, _parse_universe, _read_document


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Verum(Formula):
    pass


@dataclass(frozen=True)
class Falsum(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()|&~":
            tokens.append((c, c, i))
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(("->", "->", i))
            i += 2
            continue
        if _is_ident_start(c):
            j = i + 1
            while j < n:
                cj = text[j]
                if cj.isalnum() or cj == "_":
                    j += 1
                # interior '-' is part of the name unless it starts '->'
                elif cj == "-" and j + 1 < n and (text[j + 1].isalnum() or text[j + 1] == "_"):
                    j += 1
                else:
                    break
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(i, "formula")
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str) -> tuple[str, str, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(tok[2], expected)
        return tok

    def formula(self) -> Formula:
        left = self.disj()
        if self.peek()[0] == "->":
            self.take()
            return Implies(left, self.formula())
        return left

    def disj(self) -> Formula:
        node = self.conj()
        while self.peek()[0] == "|":
            self.take()
            node = Or(node, self.conj())
        return node

    def conj(self) -> Formula:
        node = self.unary()
        while self.peek()[0] == "&":
            self.take()
            node = And(node, self.unary())
        return node

    def unary(self) -> Formula:
        kind, text, offset = self.peek()
        if kind == "~":
            self.take()
            return Not(self.unary())
        if kind == "(":
            self.take()
            node = self.formula()
            self.expect(")", "')'")
            return node
        if kind == "ident":
            self.take()
            if text == "T":
                return Verum()
            if text == "F":
                return Falsum()
            return Atom(text)
        raise ParseError(offset, "formula")


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    node = parser.formula()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ParseError(offset, "end of input")
    return node


class Interpretation:
    """Assignment of atoms to subsets of one universe."""

    __slots__ = ("universe", "_map")

    def __init__(self, universe: Universe, assignment: dict[str, Subset]):
        for label, sub in assignment.items():
            if sub.universe != universe:
                raise UnboundAtom(label)
        self.universe = universe
        self._map = dict(assignment)

    def extension(self, label: str) -> Subset:
        try:
            return self._map[label]
        except KeyError:
            raise UnboundAtom(label) from None

    def atoms(self) -> tuple[str, ...]:
        return tuple(self._map)


def point_interpretation(u: Universe) -> Interpretation:
    """Each element named by its own label; makes every subset definable."""
    return Interpretation(u, {label: u.subset([label]) for label in u.elements})


def describe(sub: Subset) -> Formula:
    """A formula whose models are exactly `sub` under point_interpretation."""
    labels = sub.labels()
    if not labels:
        return Falsum()
    node: Formula = Atom(labels[0])
    for label in labels[1:]:
        node = Or(node, Atom(label))
    return node


def _models_mask(f: Formula, i: Interpretation) -> int:
    full = i.universe.full_mask
    if isinstance(f, Atom):
        return i.extension(f.name).mask
    if isinstance(f, Verum):
        return full
    if isinstance(f, Falsum):
        return 0
    if isinstance(f, Not):
        return full & ~_models_mask(f.sub, i)
    if isinstance(f, And):
        return _models_mask(f.left, i) & _models_mask(f.right, i)
    if isinstance(f, Or):
        return _models_mask(f.left, i) | _models_mask(f.right, i)
    if isinstance(f, Implies):
        return (full & ~_models_mask(f.left, i)) | _models_mask(f.right, i)
    raise TypeError(f"not a formula: {f!r}")


def models(f: Formula, i: Interpretation) -> Subset:
    """The set of worlds where f holds."""
    return Subset(i.universe, _models_mask(f, i))


def classical_entails(f: Formula, g: Formula, i: Interpretation) -> bool:
    """Model-set inclusion: every world satisfying f satisfies g."""
    return _models_mask(f, i) & ~_models_mask(g, i) == 0


def interpretation_from_dict(u: Universe, atoms: dict[str, list[str]]) -> Interpretation:
    assignment = {
        name: u.subset(_labels_at(labels, f'"atoms"["{name}"]'))
        for name, labels in atoms.items()
    }
    return Interpretation(u, assignment)


def interpretation_from_system_file(path: str) -> Interpretation:
    """Read the optional "atoms" block of a system file."""
    doc, _ = _read_document(path)
    return interpretation_from_dict(_parse_universe(doc), _object_at(doc, "atoms"))
