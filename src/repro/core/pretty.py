"""Human-readable rendering of traces, witnesses and verdicts.

Checker results are only useful if a protocol designer can read them.
This module renders traces as aligned timelines (one column per client),
linearization witnesses as annotated histories, and check results as
short reports — used by the examples and handy in test failures.
"""

from __future__ import annotations

from typing import List, Sequence

from .actions import Invocation, Response, Switch
from .linearizability import LinearizationResult
from .speculative import SpeculativeResult
from .traces import Trace


def describe_action(action) -> str:
    """One compact human-readable cell for an action."""
    if isinstance(action, Invocation):
        return f"inv[{action.phase}] {_payload(action.input)}"
    if isinstance(action, Response):
        return (
            f"res[{action.phase}] {_payload(action.input)} -> "
            f"{_payload(action.output)}"
        )
    if isinstance(action, Switch):
        return (
            f"swi[{action.phase}] {_payload(action.input)} / "
            f"{_payload(action.value)}"
        )
    return repr(action)


def _payload(value) -> str:
    if isinstance(value, tuple) and value and isinstance(value[0], str):
        # Operation-shaped payloads like ("propose", "v1").
        head, *rest = value
        if rest:
            inner = ",".join(str(r) for r in rest)
            return f"{head}({inner})"
        return f"{head}()"
    return str(value)


def format_trace(trace: Trace, title: str = "") -> str:
    """Render a trace as a per-client timeline.

    Each row is one action; columns are clients, so overlap structure is
    visible at a glance::

        #  c1                      c2
        0  inv[1] propose(v1)      .
        1  .                       inv[1] propose(v2)
        2  res[1] ... -> decide(v1).
    """
    clients = sorted(trace.clients(), key=repr)
    if not clients:
        return f"{title}(empty trace)" if title else "(empty trace)"
    width = max(
        24,
        2 + max(
            len(describe_action(a)) for a in trace
        ),
    )
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "#".rjust(3) + "  " + "".join(
        str(c).ljust(width) for c in clients
    )
    lines.append(header)
    for i, action in enumerate(trace):
        cells = []
        for client in clients:
            if action.client == client:
                cells.append(describe_action(action).ljust(width))
            else:
                cells.append(".".ljust(width))
        lines.append(str(i).rjust(3) + "  " + "".join(cells))
    return "\n".join(lines)


def format_history(history: Sequence) -> str:
    """Render an input history compactly."""
    return "[" + ", ".join(_payload(x) for x in history) + "]"


def format_linearization(
    trace: Trace, result: LinearizationResult
) -> str:
    """Render a linearizability verdict with its witness (if any)."""
    lines = [f"linearizable: {result.ok}"]
    if result.ok and result.witness:
        lines.append(f"linearization: {format_history(result.master)}")
        for index in sorted(result.witness):
            action = trace[index]
            lines.append(
                f"  commit @{index} ({action.client}): "
                f"{format_history(result.witness[index])}"
            )
    elif not result.ok:
        lines.append(f"reason: {result.reason}")
    return "\n".join(lines)


def format_speculative(result: SpeculativeResult) -> str:
    """Render a speculative-linearizability verdict."""
    lines = [f"speculatively linearizable: {result.ok}"]
    if result.ok:
        lines.append(
            f"witnesses for {len(result.witnesses)} init interpretation(s)"
        )
        if result.witnesses:
            witness = result.witnesses[0]
            lines.append(
                f"  example init prefix: "
                f"{format_history(witness.init_prefix)}"
            )
            for index in sorted(witness.commit):
                lines.append(
                    f"  commit @{index}: "
                    f"{format_history(witness.commit[index])}"
                )
            for index in sorted(witness.fabort):
                lines.append(
                    f"  abort  @{index}: "
                    f"{format_history(witness.fabort[index])}"
                )
    else:
        lines.append(f"reason: {result.reason}")
        if result.failing_finit is not None:
            lines.append("failing init interpretation:")
            for index in sorted(result.failing_finit):
                lines.append(
                    f"  init @{index}: "
                    f"{format_history(result.failing_finit[index])}"
                )
    return "\n".join(lines)


def side_by_side(left: str, right: str) -> str:
    """Join two multi-line blocks horizontally, four spaces apart."""
    left_lines = left.splitlines() or [""]
    right_lines = right.splitlines() or [""]
    width = max(len(line) for line in left_lines)
    height = max(len(left_lines), len(right_lines))
    left_lines += [""] * (height - len(left_lines))
    right_lines += [""] * (height - len(right_lines))
    return "\n".join(
        line.ljust(width + 4) + other
        for line, other in zip(left_lines, right_lines)
    )
