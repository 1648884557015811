"""Rule registry and the per-module context rules analyze.

A rule is a class with an ``id``, a human ``title``, a ``scope`` of
package-relative path prefixes it applies to, and a ``check`` method
that yields :class:`~repro.analysis.findings.Finding` objects for one
parsed module.  Rules self-register at import time via
:func:`register`; the engine asks :func:`all_rules` for the active set,
so adding a rule is one new module under ``repro/analysis/rules/``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Type

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .callgraph import ProjectContext


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one module."""

    relpath: str  #: posix path from the package root, e.g. "repro/sm/rcons.py"
    source: str
    tree: ast.Module
    #: whole-program context (call graph); None for a lone
    #: :func:`~repro.analysis.engine.analyze_source` snippet
    project: Optional["ProjectContext"] = None


class Rule:
    """Base class for lint rules.

    ``scope`` is a tuple of path prefixes relative to the package root;
    a module is analyzed iff its relpath starts with one of them (an
    empty tuple means every module).  ``exclude`` removes exact paths
    from the scope — e.g. RD07 must not flag ``smr/sessions.py`` for
    implementing the seam it guards.
    """

    id: str = "RD00"
    title: str = ""
    scope: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()
    #: minimal violating / conforming snippets shown by ``--explain``
    example_bad: str = ""
    example_good: str = ""

    def applies(self, relpath: str) -> bool:
        """True iff this rule analyzes the module at ``relpath``."""
        if relpath in self.exclude:
            return False
        if not self.scope:
            return True
        return any(relpath.startswith(prefix) for prefix in self.scope)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module (override in subclasses)."""
        raise NotImplementedError

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str, hint: str = ""
    ) -> Finding:
        """Build a finding anchored at ``node`` (spanning its lines)."""
        line = getattr(node, "lineno", 1)
        return Finding(
            path=ctx.relpath,
            line=line,
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
            hint=hint,
            end_line=getattr(node, "end_lineno", None) or line,
        )

    def explain(self) -> str:
        """The rule's documentation + minimal bad/good example."""
        import inspect

        doc = inspect.cleandoc(self.__class__.__doc__ or self.title or "")
        parts = [f"{self.id} — {self.title}", "", doc]
        if self.scope:
            parts += ["", "applies to: " + ", ".join(self.scope)]
        if self.example_bad:
            parts += ["", "bad:", _indent(self.example_bad)]
        if self.example_good:
            parts += ["", "good:", _indent(self.example_good)]
        return "\n".join(parts)


def _indent(snippet: str) -> str:
    return "\n".join(
        "    " + line for line in snippet.strip("\n").splitlines()
    )


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a rule to the active set (unique by id)."""
    if rule_cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.id}")
    _REGISTRY[rule_cls.id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """One fresh instance of every registered rule, ordered by id."""
    from . import rules  # noqa: F401  (importing populates the registry)

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_ids() -> List[str]:
    """The registered rule ids, sorted."""
    from . import rules  # noqa: F401

    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    """One fresh instance of the rule with ``rule_id``.

    Raises ``KeyError`` with the known ids when the id is unknown.
    """
    from . import rules  # noqa: F401

    normalized = rule_id.strip().upper()
    if normalized not in _REGISTRY:
        raise KeyError(
            f"unknown rule {rule_id!r} (known: {', '.join(sorted(_REGISTRY))})"
        )
    return _REGISTRY[normalized]()
