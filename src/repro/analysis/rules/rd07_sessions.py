"""RD07 — replicated apply paths route through the session-dedup seam.

Safe retry rests on one invariant: a command that decided in two slots
(a retried or hedged proposal whose first decree also won) must take
effect **once**.  The seam that enforces it is
:mod:`repro.smr.sessions` — :class:`~repro.smr.sessions.SessionedApplier`
for incremental folds, :func:`~repro.smr.sessions.dedup_commands` for
prefix replays.  Any code in the replicated data plane that applies
decided commands to an ADT *directly* reintroduces double-apply: the
exact bug the dedup-disabled mutant canary exists to demonstrate, now
hiding in a code path the canary does not toggle.

RD07 scans ``repro/net/`` and ``repro/smr/`` for:

* **direct ADT application** — a call ``<chain>.transition(...)`` or
  ``<chain>.run(...)`` whose receiver chain names an ADT (a component
  containing ``adt``).  Decided commands must fold through a
  :class:`~repro.smr.sessions.SessionedApplier` (which owns the
  first-occurrence-wins rule) instead;
* **raw prefix responses** (``repro/net/`` only) — a call
  ``<chain>.respond(...)`` on a frontend with no ``dedup_commands``
  call earlier in the same function.  Deriving a response from a log
  prefix that may carry duplicate decrees applies the retried command
  twice.

Two modules are exempt by design: ``repro/smr/sessions.py`` is the
seam itself (its ``transition`` calls *are* the single sanctioned
application site), and ``repro/smr/lockservice.py`` replays the
committed log only inside verification helpers (``table``,
``mutual_exclusion_holds``) that assert invariants over the decided
history — they serve no client response and no retry path feeds them.
The simulator's one frontend (``ReplicatedObject.adt_state`` in
``repro/smr/replica.py``) folds the committed log the same way for the
same purpose and carries the tree's one inline ``disable=RD07``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from ..cfg import Pos, attr_chain, position, walk_same_scope
from ..findings import Finding
from ..registry import ModuleContext, Rule, register

#: direct-application method names on an ADT receiver
_APPLY_METHODS = ("transition", "run")


def _chain_mentions(call: ast.Call, needle: str) -> bool:
    if not isinstance(call.func, ast.Attribute):
        return False
    chain = attr_chain(call.func.value)
    return any(needle in name.lower() for name in chain)


def _is_dedup_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "dedup_commands"
    if isinstance(func, ast.Attribute):
        return func.attr == "dedup_commands"
    return False


@register
class Rd07SessionSeam(Rule):
    """Decided commands applied outside the session-dedup seam."""

    id = "RD07"
    title = "session-dedup seam discipline"
    scope = ("repro/net/", "repro/smr/")
    exclude = ("repro/smr/sessions.py", "repro/smr/lockservice.py")
    example_bad = """\
for command in decided_prefix:
    state = self.adt.transition(state, command)  # double-applies retries
"""
    example_good = """\
for slot, command in enumerate(decided_prefix):
    state = self.applier.apply(slot, command)    # first-occurrence-wins
"""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _APPLY_METHODS
                and _chain_mentions(node, "adt")
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"direct ADT application (.{node.func.attr}) in the "
                    "replicated data plane bypasses session dedup — a "
                    "retried command that decided twice is applied twice",
                    "fold decided commands through "
                    "repro.smr.sessions.SessionedApplier (or "
                    "dedup_commands for a prefix replay)",
                )
        if not ctx.relpath.startswith("repro/net/"):
            return
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            responds: List[Tuple[Pos, ast.Call]] = []
            dedups: List[Pos] = []
            for node in walk_same_scope(func):
                if not isinstance(node, ast.Call):
                    continue
                if _is_dedup_call(node):
                    dedups.append(position(node))
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "respond"
                    and _chain_mentions(node, "frontend")
                ):
                    responds.append((position(node), node))
            for pos, call in responds:
                if not any(p < pos for p in dedups):
                    yield self.finding(
                        ctx,
                        call,
                        f"{func.name} derives a response from a log "
                        "prefix without dedup_commands — duplicate "
                        "decrees of a retried op would apply twice",
                        "pass the prefix through "
                        "repro.smr.sessions.dedup_commands before "
                        "untagging and responding",
                    )
