"""Check reports: one verdict plus, on failure, the canonical first witness.

A witness instantiates the quantified variables of the failed condition by
name; re-evaluating the condition body on it must reproduce the violation.
Reports serialize to stable JSON (insertion-ordered witnesses, no
timestamps), so identical inputs give byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import WorkbenchError
from .setcore import Subset, Universe

# What a scan finds: None, or the violating instance as (name, mask) pairs.
Witness = tuple[tuple[str, int], ...] | None


@dataclass
class CheckReport:
    subject: str
    condition: str
    holds: bool
    witness: dict[str, Subset] | None = None
    instances_checked: int = 0
    notes: tuple[str, ...] = ()
    skipped: int = 0
    error: str | None = None
    witness_system: dict | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "subject": self.subject,
            "condition": self.condition,
            "holds": self.holds,
            "witness": None
            if self.witness is None
            else {name: list(sub.labels()) for name, sub in self.witness.items()},
            "instances_checked": self.instances_checked,
        }
        if self.notes:
            out["notes"] = list(self.notes)
        if self.skipped:
            out["skipped"] = self.skipped
        if self.error is not None:
            out["error"] = self.error
        if self.witness_system is not None:
            out["witness_system"] = self.witness_system
        return out


def scan_report(
    subject: str,
    condition: str,
    universe: Universe,
    count: int,
    witness: Witness,
    notes: Iterable[str] = (),
    skipped: int = 0,
) -> CheckReport:
    """The report of one property, rule or mu-rule scan.

    `count` is the number of instances the scan examined and `witness` its
    first violation; a scan with nothing to examine is vacuously true.
    """
    named = None
    if witness is not None:
        named = {name: Subset(universe, mask) for name, mask in witness}
    elif count == 0:
        notes = (*notes, "vacuous: no instances to check")
    return CheckReport(
        subject=subject,
        condition=condition,
        holds=named is None,
        witness=named,
        instances_checked=count,
        notes=tuple(notes),
        skipped=skipped,
    )


def guarded_report(check: Callable, target, cid) -> CheckReport:
    """check(target, cid), or an error record if the check raises."""
    try:
        return check(target, cid)
    except WorkbenchError as exc:
        return CheckReport(
            subject=target.label,
            condition=cid.name,
            holds=False,
            error=f"{type(exc).__name__}: {exc}",
        )


@dataclass
class CorrespondenceReport:
    """Result of verifying one row/direction of the size↔choice-function table."""

    row: int
    direction: str  # "forward" | "backward"
    universe_max: int
    systems_checked: int
    holds: bool
    witness: dict | None = None
    skipped_non_principal: int = 0
    non_implication_confirmed: bool = False
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out: dict = {
            "row": self.row,
            "direction": self.direction,
            "universe_max": self.universe_max,
            "systems_checked": self.systems_checked,
            "holds": self.holds,
            "witness": self.witness,
        }
        if self.skipped_non_principal:
            out["skipped_non_principal"] = self.skipped_non_principal
        if self.non_implication_confirmed:
            out["non_implication_confirmed"] = True
        if self.notes:
            out["notes"] = list(self.notes)
        return out
