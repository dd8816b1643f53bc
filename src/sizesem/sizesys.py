"""Coherent systems of sizes and choice functions.

A coherent system of sizes assigns to every set X of a domain family a
collection I(X) of subsets of X deemed "small".  The dual "big" family
F(X) and the "not small" family M+(X) are always derived, never stored, so
duality can never desynchronize:

    A in F(X)   iff  X−A in I(X)
    A in M+(X)  iff  A not in I(X)
    medium      =    neither small nor big

The domain never contains the empty set.  Nothing beyond these structural
facts is enforced at build time: whether a system is monotone, union-closed
etc. is exactly what the checkers in `properties` decide, so they must be
able to observe failures.

A MuFunction is the preferential-semantics counterpart: a choice of
f(X) ⊆ X for every domain member.  `from_mu` turns it into the system with
principal filters F(X) = {X' : f(X) ⊆ X' ⊆ X}; `principal_mu` inverts that
whenever every filter has a least element.
"""

from __future__ import annotations

import json
import os
from typing import Container, Iterable, Iterator, Mapping

from .errors import (
    ChoiceNotSubset,
    EmptySetInDomain,
    IdealMemberNotSubset,
    MalformedDocument,
    NotPrincipal,
    SetNotInDomain,
)
from .setcore import Subset, Universe, canon_key, submasks


def _label_key(u: Universe, mask: int) -> str:
    return ",".join(label for i, label in enumerate(u.elements) if mask >> i & 1)


def _labels(u: Universe, mask: int) -> list[str]:
    return [label for i, label in enumerate(u.elements) if mask >> i & 1]


def full_domain_masks(u: Universe) -> tuple[int, ...]:
    """Every nonempty subset mask in canonical order, where ∅ comes first."""
    return u.all_masks()[1:]


class SizeSystem:
    """Universe + domain family + per-set ideal families.  Immutable."""

    __slots__ = ("universe", "domain_masks", "ideals", "label")

    def __init__(
        self,
        universe: Universe,
        domain_masks: tuple[int, ...],
        ideals: dict[int, frozenset[int]],
        label: str = "system",
    ):
        # No validation here; use build() for checked construction.
        self.universe = universe
        self.domain_masks = domain_masks
        self.ideals = ideals
        self.label = label

    @property
    def domain(self) -> tuple[Subset, ...]:
        u = self.universe
        return tuple(Subset(u, m) for m in self.domain_masks)

    def is_full_domain(self) -> bool:
        return len(self.domain_masks) == self.universe.full_mask

    def ideal_of(self, x: Subset) -> tuple[Subset, ...]:
        fam = self.ideals[self._domain_mask(x)]
        u = self.universe
        return tuple(Subset(u, m) for m in sorted(fam, key=canon_key))

    def _domain_mask(self, x: Subset) -> int:
        if x.universe != self.universe:
            raise SetNotInDomain(f"{x!r} belongs to a different universe")
        if x.mask not in self.ideals:
            raise SetNotInDomain(f"{x!r} is not in the domain")
        return x.mask

    def to_dict(self) -> dict:
        """JSON form; trivial ideals {∅} are omitted, full domains abbreviated."""
        u = self.universe
        out: dict = {"universe": list(u.elements)}
        if self.is_full_domain():
            out["domain"] = "full"
        else:
            out["domain"] = [_labels(u, m) for m in self.domain_masks]
        ideals = {}
        for m in self.domain_masks:
            fam = self.ideals[m]
            if fam == frozenset((0,)):
                continue
            ideals[_label_key(u, m)] = [
                _labels(u, a) for a in sorted(fam, key=canon_key)
            ]
        out["ideals"] = ideals
        return out

    def __repr__(self) -> str:
        return f"SizeSystem({self.label!r}, |U|={self.universe.size}, |Y|={len(self.domain_masks)})"


class MuFunction:
    """A choice function f(X) ⊆ X over a domain family.  Immutable."""

    __slots__ = ("universe", "domain_masks", "choice", "label", "_masks")

    def __init__(
        self,
        universe: Universe,
        domain_masks: tuple[int, ...],
        choice: dict[int, int],
        label: str = "mu",
    ):
        self.universe = universe
        self.domain_masks = domain_masks
        self.choice = choice
        self.label = label
        self._masks = None  # the mu-rule scans' bit masks, filled on first use

    @property
    def domain(self) -> tuple[Subset, ...]:
        u = self.universe
        return tuple(Subset(u, m) for m in self.domain_masks)

    def value(self, x: Subset) -> Subset:
        if x.universe != self.universe:
            raise SetNotInDomain(f"{x!r} belongs to a different universe")
        if x.mask not in self.choice:
            raise SetNotInDomain(f"{x!r} is not in the domain")
        return Subset(self.universe, self.choice[x.mask])

    def to_dict(self) -> dict:
        u = self.universe
        out: dict = {"universe": list(u.elements)}
        if len(self.domain_masks) == u.full_mask:
            out["domain"] = "full"
        else:
            out["domain"] = [_labels(u, m) for m in self.domain_masks]
        out["choice"] = {
            _label_key(u, m): _labels(u, self.choice[m]) for m in self.domain_masks
        }
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MuFunction)
            and self.universe == other.universe
            and self.domain_masks == other.domain_masks
            and self.choice == other.choice
        )

    def __hash__(self) -> int:
        return hash((self.universe.elements, self.domain_masks, tuple(sorted(self.choice.items()))))

    def __repr__(self) -> str:
        return f"MuFunction({self.label!r}, |U|={self.universe.size})"


def _domain_masks(universe: Universe, domain: Iterable[Subset] | None) -> tuple[int, ...]:
    """The domain's masks in canonical order; None means every nonempty subset."""
    if domain is None:
        return full_domain_masks(universe)
    masks = {_checked_mask(universe, x, "domain member") for x in domain}
    if 0 in masks:
        raise EmptySetInDomain("domain may not contain the empty set")
    if not masks:
        raise EmptySetInDomain("domain is empty")
    return tuple(sorted(masks, key=canon_key))


def _checked_mask(
    universe: Universe, x: Subset, what: str, domain: Container[int] | None = None
) -> int:
    """x's mask, once x is known to be over universe (and in domain, if given)."""
    if x.universe != universe:
        raise SetNotInDomain(f"{what} {x!r} is over a different universe")
    if domain is not None and x.mask not in domain:
        raise SetNotInDomain(f"{what} {x!r} is not in the domain")
    return x.mask


def build(
    universe: Universe,
    domain: Iterable[Subset] | None = None,
    ideals: Mapping[Subset, Iterable[Subset]] | None = None,
    label: str = "system",
) -> SizeSystem:
    """Validated construction.

    `domain=None` means the full powerset minus the empty set.  Domain members
    missing from `ideals` get the trivial ideal {∅}.  Only structural
    invariants are enforced (∅ not in the domain, ideal members inside their
    base set); table properties stay checkable, not structural.
    """
    domain_masks = _domain_masks(universe, domain)
    ideal_map: dict[int, frozenset[int]] = {m: frozenset((0,)) for m in domain_masks}
    if ideals is not None:
        for x, family in ideals.items():
            base = _checked_mask(universe, x, "ideal base", ideal_map)
            fam = set()
            for a in family:
                member = _checked_mask(universe, a, "ideal member")
                if member & ~base:
                    raise IdealMemberNotSubset(repr(x), repr(a))
                fam.add(member)
            ideal_map[base] = frozenset(fam)
    return SizeSystem(universe, domain_masks, ideal_map, label=label)


def filter_of(s: SizeSystem, x: Subset) -> tuple[Subset, ...]:
    """F(x) = {A ⊆ x : x−A ∈ I(x)}, canonical order."""
    m = s._domain_mask(x)
    fam = s.ideals[m]
    u = s.universe
    return tuple(
        Subset(u, m & ~a) for a in sorted(fam, key=lambda a: canon_key(m & ~a))
    )


def mplus_of(s: SizeSystem, x: Subset) -> tuple[Subset, ...]:
    """M+(x) = P(x) − I(x): the subsets of x that are not small."""
    m = s._domain_mask(x)
    fam = s.ideals[m]
    u = s.universe
    return tuple(Subset(u, a) for a in submasks(m) if a not in fam)


def medium_of(s: SizeSystem, x: Subset) -> tuple[Subset, ...]:
    """Subsets of x that are neither small nor big."""
    m = s._domain_mask(x)
    fam = s.ideals[m]
    u = s.universe
    return tuple(
        Subset(u, a)
        for a in submasks(m)
        if a not in fam and (m & ~a) not in fam
    )


def principal_mu(s: SizeSystem) -> MuFunction:
    """Extract f(X) = the ⊆-least element of F(X).

    Raises NotPrincipal naming the first X (canonical order) whose filter has
    no least member; an empty ideal gives an empty filter and is reported the
    same way.  Whether F(X) contains the whole interval above f(X) is not
    checked here.
    """
    u = s.universe
    choice: dict[int, int] = {}
    for m in s.domain_masks:
        fam = s.ideals[m]
        if not fam:
            raise NotPrincipal(_label_key(u, m))
        filt = [m & ~a for a in fam]
        least = filt[0]
        for f in filt[1:]:
            least &= f
        if least not in set(filt):
            raise NotPrincipal(_label_key(u, m))
        choice[m] = least
    return MuFunction(u, s.domain_masks, choice, label=s.label)


def from_mu(mu: MuFunction) -> SizeSystem:
    """The principal-filter system F(X) = {X' : f(X) ⊆ X' ⊆ X}.

    Equivalently I(X) = {A ⊆ X : A ∩ f(X) = ∅}; principal_mu inverts this.
    """
    ideals: dict[int, frozenset[int]] = {}
    for m in mu.domain_masks:
        f = mu.choice[m]
        ideals[m] = frozenset(submasks(m & ~f))
    return SizeSystem(mu.universe, mu.domain_masks, ideals, label=mu.label)


def build_mu(
    universe: Universe,
    domain: Iterable[Subset] | None = None,
    choice: Mapping[Subset, Subset] | None = None,
    label: str = "mu",
) -> MuFunction:
    """Validated MuFunction; omitted choices default to the identity f(X)=X."""
    domain_masks = _domain_masks(universe, domain)
    choice_map = {m: m for m in domain_masks}
    if choice is not None:
        for x, fx in choice.items():
            base = _checked_mask(universe, x, "choice base", choice_map)
            if _checked_mask(universe, fx, "choice value") & ~base:
                raise ChoiceNotSubset(f"f({x!r}) = {fx!r} is not a subset of {x!r}")
            choice_map[base] = fx.mask
    return MuFunction(universe, domain_masks, choice_map, label=label)


# --- JSON file format -------------------------------------------------------
#
# System files:
#   { "universe": ["x","y","z"],
#     "domain": "full" | [["x"], ["x","y"], ...],
#     "ideals": { "x,y,z": [[], ["x"], ["y"], ["z"]], ... },
#     "atoms":  { "p": ["x","y"], ... } }            -- optional
#
# Omitted ideal entries default to the trivial ideal [[]].  Subset keys and
# member lists use universe position order.  Mu files replace "ideals" with
# "choice"; omitted choice entries default to the identity.


# Shape errors name the offending key and raise MalformedDocument, so a bad
# file never surfaces as a TypeError and a string is never read as a list of
# one-letter labels.  They quote the offending value through _quote, cut to
# _QUOTE_LIMIT characters, so a huge or deeply nested value cannot flood the
# error line.

_QUOTE_LIMIT = 60


def _quote(value: object) -> str:
    """repr(value), cut to _QUOTE_LIMIT characters; "…" marks a cut."""
    text = repr(value)
    return text if len(text) <= _QUOTE_LIMIT else text[: _QUOTE_LIMIT - 1] + "…"


def _labels_at(value: object, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise MalformedDocument(f"{where} must be a list of element labels, got {_quote(value)}")
    return value


def _object_at(doc: Mapping, key: str) -> Mapping:
    value = doc.get(key, {})
    if not isinstance(value, Mapping):
        raise MalformedDocument(f'"{key}" must be an object, got {_quote(value)}')
    return value


def _parse_universe(doc: object) -> Universe:
    if not isinstance(doc, Mapping):
        raise MalformedDocument(
            f"top level must be an object with a \"universe\" key, got {type(doc).__name__}"
        )
    if "universe" not in doc:
        raise MalformedDocument('missing key "universe"')
    return Universe(_labels_at(doc["universe"], '"universe"'))


def _parse_domain(doc: Mapping, u: Universe) -> list[Subset] | None:
    dom = doc.get("domain", "full")
    if dom == "full":
        return None
    if not isinstance(dom, list):
        raise MalformedDocument(f'"domain" must be "full" or a list of subsets, got {_quote(dom)}')
    members = [u.subset(_labels_at(labels, f'"domain"[{i}]')) for i, labels in enumerate(dom)]
    for i, x in enumerate(members):
        if x in members[:i]:
            raise MalformedDocument(f'"domain"[{i}] repeats "domain"[{members.index(x)}]: {_quote(dom[i])}')
    return members


def _keyed_sets(u: Universe, doc: Mapping, name: str) -> Iterator[tuple[Subset, str, object]]:
    """(set, key, value) for each entry of a set-keyed object such as "ideals".

    Two keys that name one set, such as "a,b" and "b,a", are refused: one of
    them would silently win.
    """
    seen: dict[Subset, str] = {}
    for key, value in _object_at(doc, name).items():
        base = u.subset(key.split(",")) if key else u.empty
        if base in seen:
            raise MalformedDocument(f'"{name}" keys "{seen[base]}" and "{key}" name one set')
        seen[base] = key
        yield base, key, value


def system_from_dict(doc: Mapping, label: str = "system") -> SizeSystem:
    u = _parse_universe(doc)
    domain = _parse_domain(doc, u)
    ideals = {}
    for base, key, families in _keyed_sets(u, doc, "ideals"):
        where = f'"ideals"["{key}"]'
        if not isinstance(families, list):
            raise MalformedDocument(f"{where} must be a list of subsets, got {_quote(families)}")
        ideals[base] = [
            u.subset(_labels_at(labels, f"{where}[{i}]")) for i, labels in enumerate(families)
        ]
    return build(u, domain, ideals, label=label)


def mu_from_dict(doc: Mapping, label: str = "mu") -> MuFunction:
    u = _parse_universe(doc)
    domain = _parse_domain(doc, u)
    choice = {}
    for base, key, labels in _keyed_sets(u, doc, "choice"):
        choice[base] = u.subset(_labels_at(labels, f'"choice"["{key}"]'))
    return build_mu(u, domain, choice, label=label)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are all distinct; plain json keeps the last of two."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise MalformedDocument(f'key "{key}" appears twice in one object')
        out[key] = value
    return out


def _read_document(path: str) -> tuple[object, str]:
    """The parsed JSON of a document file, and its label: the file's base name."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise MalformedDocument(f"{path}: JSON nested too deeply to read") from None
    return doc, os.path.splitext(os.path.basename(path))[0]


def load_system(path: str) -> SizeSystem:
    doc, label = _read_document(path)
    return system_from_dict(doc, label=label)


def load_mu(path: str) -> MuFunction:
    doc, label = _read_document(path)
    return mu_from_dict(doc, label=label)
