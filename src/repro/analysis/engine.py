"""The lint engine: walk files, run rules, apply inline suppressions.

The engine is deliberately dumb plumbing — every protocol-aware idea
lives in the rules (``repro/analysis/rules/``).  It parses every module,
folds them into the project call graph, hands each AST (and that
:class:`ProjectContext`) to every rule whose scope matches, filters the
raw findings through inline suppressions (:mod:`.suppressions`), and
folds the result into a :class:`LintReport` that renders as text or
JSON (the CI artifact format).

Scoping is by *package-relative* path: ``…/src/repro/mp/sim.py`` is
analyzed as ``repro/mp/sim.py``, so rules address layers (``repro/mp/``,
``repro/net/``) independently of where the tree is checked out — and
test fixtures opt into a rule by mirroring the layout under a temp dir.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence

from .callgraph import ProjectContext, build_project
from .findings import Finding
from .registry import ModuleContext, Rule, all_rules
from .suppressions import split_suppressed


def package_relpath(path: str) -> str:
    """The path from the ``repro`` package root, in posix form.

    Falls back to the path as given (posix-normalized) when it does not
    contain a ``repro`` component — such files still parse, but rules
    scoped to package layers will skip them.
    """
    posix = path.replace(os.sep, "/")
    parts = posix.split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return posix.lstrip("./")


def iter_python_files(root: str) -> Iterable[str]:
    """Every ``*.py`` under ``root`` (or ``root`` itself), sorted."""
    if os.path.isfile(root):
        yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)  #: active findings
    suppressed: List[Finding] = field(default_factory=list)
    checked_files: int = 0
    parse_errors: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True iff no active finding remains and every file parsed."""
        return not self.findings and not self.parse_errors

    def summary(self) -> str:
        return (
            f"checked {self.checked_files} files: "
            f"{len(self.findings)} findings "
            f"({len(self.suppressed)} suppressed, "
            f"{len(self.parse_errors)} parse errors)"
        )

    def to_text(self) -> str:
        lines = [finding.format() for finding in self.findings]
        lines.extend(f"parse error: {error}" for error in self.parse_errors)
        lines.append(self.summary())
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "findings": [f.to_json() for f in self.findings],
            "suppressed": [f.to_json() for f in self.suppressed],
            "parse_errors": list(self.parse_errors),
            "summary": {
                "checked_files": self.checked_files,
                "findings": len(self.findings),
                "suppressed": len(self.suppressed),
                "clean": self.clean,
            },
        }


def analyze_source(
    source: str,
    relpath: str,
    rules: Optional[Sequence[Rule]] = None,
    project: Optional[ProjectContext] = None,
) -> "tuple[List[Finding], List[Finding]]":
    """Lint one module's source; returns (active, suppressed) findings.

    ``relpath`` should be package-relative (``repro/...``) — it decides
    which rules run.  Raises ``SyntaxError`` if the source cannot parse.
    With no ``project`` (a lone snippet) an interprocedural rule sees
    no call graph and must stay sound without it: RD08 then treats
    every call it cannot resolve as suspending.
    """
    if rules is None:
        rules = all_rules()
    tree = ast.parse(source, filename=relpath)
    ctx = ModuleContext(
        relpath=relpath, source=source, tree=tree, project=project
    )
    raw: List[Finding] = []
    for rule in rules:
        if rule.applies(relpath):
            raw.extend(rule.check(ctx))
    return split_suppressed(sorted(raw), source)


def run_lint(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint every python file under ``paths`` against the active rules.

    The pass has two phases: every module is parsed first and folded
    into a project-wide call graph with may-suspend summaries
    (:mod:`~repro.analysis.callgraph`), then the rule set runs per
    module with that :class:`ProjectContext` in hand.
    """
    if rules is None:
        rules = all_rules()
    report = LintReport()
    # Phase 1: parse everything (a parse failure just drops the module
    # from the call graph; it is still reported as a parse error below).
    modules: List["tuple[str, str, str]"] = []  #: (path, relpath, source)
    parsed: List["tuple[str, ast.Module]"] = []
    for root in paths:
        for path in iter_python_files(root):
            relpath = package_relpath(path)
            try:
                with open(path, encoding="utf-8") as handle:
                    source = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                report.parse_errors.append(f"{path}: {exc}")
                continue
            modules.append((path, relpath, source))
            try:
                parsed.append((relpath, ast.parse(source, filename=path)))
            except SyntaxError:
                pass  # reported by analyze_source below
    project = build_project(parsed)
    # Phase 2: per-module rule runs (rules see the whole program).
    for path, relpath, source in modules:
        try:
            active, suppressed = analyze_source(
                source, relpath, rules, project=project
            )
        except SyntaxError as exc:
            report.parse_errors.append(f"{path}: {exc}")
            continue
        report.checked_files += 1
        report.findings.extend(active)
        report.suppressed.extend(suppressed)
    report.findings.sort()
    return report
