"""Exception hierarchy shared by all workbench modules."""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for every error raised by this package."""


class WidthMismatch(WorkbenchError):
    """Two subsets (or a subset and a universe) disagree on the carrier universe."""


class UnknownElementLabel(WorkbenchError):
    """A label does not name any element of the universe."""


class CapacityExceeded(WorkbenchError):
    """A universe or search size is beyond the configured enumeration ceiling."""


class EmptySetInDomain(WorkbenchError):
    """The domain of a size system may not contain the empty set."""


class IdealMemberNotSubset(WorkbenchError):
    """An ideal family at X contains a set that is not a subset of X."""

    def __init__(self, base: str, member: str):
        super().__init__(f"ideal member {member} is not a subset of its base set {base}")
        self.base = base
        self.member = member


class ChoiceNotSubset(WorkbenchError):
    """A choice function value f(X) is not a subset of X."""


class SetNotInDomain(WorkbenchError):
    """An operation was asked about a set outside the system's domain."""


class NotPrincipal(WorkbenchError):
    """A filter has no least element, so no choice function can be extracted."""

    def __init__(self, base: str):
        super().__init__(f"filter at {base} has no least element")
        self.base = base


class MalformedDocument(WorkbenchError):
    """A system or choice-function document does not have the JSON file shape."""


class DomainNotClosed(WorkbenchError):
    """A check needs a composite set (difference, union, ...) missing from the domain."""

    def __init__(self, missing: str, context: str = ""):
        msg = f"domain does not contain {missing}"
        if context:
            msg += f" (needed for {context})"
        super().__init__(msg)
        self.missing = missing


class DomainNotFull(WorkbenchError):
    """Rule checking requires the domain to be the full powerset minus the empty set."""


class UnboundAtom(WorkbenchError):
    """A formula uses an atom the interpretation does not assign."""

    def __init__(self, label: str):
        super().__init__(f"atom {label!r} is not bound by the interpretation")
        self.label = label


class ParseError(WorkbenchError):
    """Formula text could not be parsed; carries the byte offset and expectation."""

    def __init__(self, offset: int, expected: str):
        super().__init__(f"syntax error at offset {offset}: expected {expected}")
        self.offset = offset
        self.expected = expected
