"""Inline suppression comments: ``# repro: disable=RD01[,RD04]``.

This is the one way to accept a lint finding.  A trailing comment
suppresses the named rules on its own line; a comment standing alone on
a line suppresses them on the next line (so a suppression can sit above
an expression too long to share a line with).  Findings carry a line
*span*, so a suppression anywhere inside a multi-line construct (say,
the closing line of a wrapped ``await``) suppresses findings anchored to
it.

Pragmas are read from comment tokens only: the same text inside a
string literal or a docstring is data and suppresses nothing.

Suppressions are deliberate, reviewable exceptions — the report counts
them, and the test suite pins the committed tree's list, so a diff that
adds one is visible.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, List, Sequence, Set

from .findings import Finding

DISABLE_RE = re.compile(r"#\s*repro:\s*disable=([A-Za-z0-9_,\s]+)")


def disabled_lines(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line numbers to the rule ids disabled there."""
    disabled: Dict[int, Set[str]] = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = DISABLE_RE.search(token.string)
        if match is None:
            continue
        line, col = token.start
        # A comment-only line shields the line below it; a trailing
        # comment shields its own line.
        target = line + 1 if not token.line[:col].strip() else line
        disabled.setdefault(target, set()).update(
            rule.strip().upper()
            for rule in match.group(1).split(",")
            if rule.strip()
        )
    return disabled


def split_suppressed(
    findings: Sequence[Finding], source: str
) -> "tuple[List[Finding], List[Finding]]":
    """Partition findings into (active, suppressed) per the comments."""
    if not findings:  # most modules: skip tokenizing, a third of a pass
        return [], []
    disabled = disabled_lines(source)
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in findings:
        first, last = finding.span()
        rules: Set[str] = set()
        for line_no in range(first, last + 1):
            rules |= disabled.get(line_no, set())
        if finding.rule in rules:
            suppressed.append(finding)
        else:
            active.append(finding)
    return active, suppressed
