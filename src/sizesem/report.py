"""Check reports: one verdict plus, on failure, the canonical first witness.

A witness instantiates the quantified variables of the failed condition by
name; re-evaluating the condition body on it must reproduce the violation.
Reports serialize to stable JSON (insertion-ordered witnesses, no
timestamps), so identical inputs give byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .setcore import Subset


@dataclass
class CheckReport:
    subject: str
    condition: str
    holds: bool
    witness: dict[str, Subset] | None = None
    instances_checked: int = 0
    notes: tuple[str, ...] = ()
    skipped: int = 0
    non_implication_confirmed: bool = False
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
        if self.non_implication_confirmed:
            out["non_implication_confirmed"] = True
        if self.error is not None:
            out["error"] = self.error
        if self.witness_system is not None:
            out["witness_system"] = self.witness_system
        return out


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
