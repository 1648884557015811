"""`Finding`: one lint result.

A finding pinpoints a violated invariant at ``path:line:col`` and names
the rule that detected it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str  #: posix path relative to the package root, e.g. repro/mp/sim.py
    line: int  #: 1-based line of the offending node
    col: int  #: 0-based column of the offending node
    rule: str  #: rule id, e.g. "RD01"
    message: str  #: what invariant is violated, and how
    hint: str = ""  #: how to fix it
    #: 1-based last line of the offending construct (0 = just ``line``);
    #: inline suppressions anywhere in line..end_line apply, so a
    #: ``# repro: disable=…`` on any line of a multi-line await works
    end_line: int = 0

    def span(self) -> "tuple[int, int]":
        """The inclusive 1-based line range this finding covers."""
        return (self.line, max(self.line, self.end_line))

    def format(self) -> str:
        """One human-readable report line."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f"  [fix: {self.hint}]"
        return text

    def to_json(self) -> Dict[str, Any]:
        """The JSON-report shape of this finding."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }
