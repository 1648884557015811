"""RD08 — asyncio interleaving races on shared role state.

Cooperatively-scheduled coroutines only interleave at suspension
points, so the classic lost-update race looks like this:

    slot = self._next_slot          # read shared state into a local
    await self._quorum.propose(...) # another task may run here
    self._next_slot = slot + 1      # write back the *stale* value

Between the read and the write another task can claim the same slot;
the write-back then silently undoes its claim.  The type system cannot
see this, and neither can a per-statement lint — the read and the
write may be far apart, and the ``await`` may hide inside a helper.

This rule runs the taint analysis over the function's CFG
(:mod:`~repro.analysis.cfg`): a fact is a ``(local, location,
crossed)`` triple meaning *local holds a value read from shared
location, and a real suspension point has (not) intervened*.  Whether
an ``await helper()`` really suspends is answered by the project call
graph's may-suspend summaries (:mod:`~repro.analysis.callgraph`) — so
awaits bubble up through helpers, and awaiting a known non-suspending
coroutine is not an interleaving window.

Shared locations are ``self.*`` attributes (protocol role state, WAL
and session tables — including ``self.table[...]`` element access) and
module globals the function declares ``global``.

What silences a stale write-back:

* **re-validation** — an ``if``/``while``/``assert`` that re-reads the
  location between the suspension and the write;
* **re-reading** the location into the local after the await;
* a **lock-shaped guard** — suspensions under ``async with …lock`` are
  serialized and do not mark taints crossed.

``atomic_section`` is deliberately *not* a static silencer: it is a
claim of no suspension, so a suspension point inside one is itself an
RD08 finding (and the runtime sanitizer will catch the interleaving
live — the static/dynamic cross-check the pair is built for).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..cfg import CFG, CFGNode, build_cfg
from ..dataflow import SetUnionAnalysis, solve
from ..findings import Finding
from ..registry import ModuleContext, Rule, register

#: a taint fact: local ``var`` holds a value read from shared ``loc``;
#: ``crossed`` is True once a real suspension point has intervened
Taint = Tuple[str, str, bool]


def _shared_reads(expr: ast.AST, globals_declared: Set[str]) -> Set[str]:
    """Shared locations read anywhere in ``expr`` (``self.x``, globals)."""
    locs: Set[str] = set()
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and isinstance(node.ctx, ast.Load)
        ):
            locs.add(f"self.{node.attr}")
        elif (
            isinstance(node, ast.Name)
            and node.id in globals_declared
            and isinstance(node.ctx, ast.Load)
        ):
            locs.add(f"global {node.id}")
    return locs


def _names_in(expr: ast.AST) -> Set[str]:
    """Plain variable names loaded anywhere in ``expr``."""
    return {
        node.id
        for node in ast.walk(expr)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _write_target_loc(
    target: ast.AST, globals_declared: Set[str]
) -> Optional[str]:
    """The shared location a store target mutates, if any.

    ``self.x = …`` and ``self.table[k] = …`` both count as writes to
    the attribute (element writes mutate the shared container).
    """
    if isinstance(target, ast.Subscript):
        target = target.value
        if not isinstance(target, ast.Attribute):
            return None
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            return f"self.{target.attr}"
        return None
    if isinstance(target, ast.Attribute):
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            return f"self.{target.attr}"
        return None
    if isinstance(target, ast.Name) and target.id in globals_declared:
        return f"global {target.id}"
    return None


class _TaintAnalysis(SetUnionAnalysis):
    """Forward may-analysis of stale shared-state reads.

    During :func:`~repro.analysis.dataflow.solve` it only computes
    facts; with ``collector`` set (the reporting sweep), ``transfer``
    also emits findings for stale write-backs, in-statement RMW across
    an await, and suspensions inside declared-atomic windows.
    """

    def __init__(self, rule: "InterleavingRaceRule", ctx: ModuleContext,
                 globals_declared: Set[str]) -> None:
        self.rule = rule
        self.ctx = ctx
        self.globals_declared = globals_declared
        self.collector: Optional[List[Finding]] = None

    # -- helpers -------------------------------------------------------

    def _suspends(self, node: CFGNode) -> bool:
        project = self.ctx.project
        for suspension in node.suspensions:
            if project is None or project.may_suspend(suspension):
                return True
        return False

    def _emit(self, node: CFGNode, anchor: ast.AST, message: str,
              hint: str) -> None:
        if self.collector is None:
            return
        finding = self.rule.finding(self.ctx, anchor, message, hint)
        if finding not in self.collector:
            self.collector.append(finding)

    # -- the transfer function -----------------------------------------

    def transfer(self, node: CFGNode, fact: frozenset) -> frozenset:
        taints: Set[Taint] = set(fact)
        suspends = self._suspends(node)

        if suspends and node.atomic:
            self._emit(
                node,
                node.stmt or node.exprs[0],
                "suspension point inside atomic_section — a "
                "declared-atomic window must not await",
                "move the await outside the section, or drop the "
                "atomic_section claim",
            )

        # A real, unguarded suspension marks every live taint stale.
        if suspends and not node.guarded:
            taints = {(var, loc, True) for var, loc, _ in taints}

        # Assignments: taint creation, write-back checks, kills.
        for expr in node.exprs:
            if isinstance(expr, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                taints = self._assignment(node, expr, taints, suspends)

        # Re-validation: a branch/loop test or assert that re-reads the
        # location proves it unchanged — clear the crossed flag.
        revalidated: Set[str] = set()
        if node.kind == "test" or isinstance(node.stmt, ast.Assert):
            for expr in node.exprs:
                revalidated |= _shared_reads(expr, self.globals_declared)
        if revalidated:
            taints = {
                (var, loc, crossed and loc not in revalidated)
                for var, loc, crossed in taints
            }

        return frozenset(taints)

    def _assignment(
        self,
        node: CFGNode,
        stmt: "ast.Assign | ast.AnnAssign | ast.AugAssign",
        taints: Set[Taint],
        suspends: bool,
    ) -> Set[Taint]:
        value = stmt.value
        if value is None:  # bare annotation: x: int
            return taints
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )

        value_locs = _shared_reads(value, self.globals_declared)
        value_names = _names_in(value)

        for target in targets:
            # tuple targets unpack; check each element
            elements = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for element in elements:
                loc = _write_target_loc(element, self.globals_declared)
                if loc is None:
                    continue
                if isinstance(stmt, ast.AugAssign):
                    # x @= … reads and writes the target implicitly
                    value_locs = value_locs | {loc}
                if loc in value_locs and suspends:
                    self._emit(
                        node,
                        stmt,
                        f"{loc} is read and written back in one "
                        "statement that awaits — the update uses a "
                        "pre-suspension value",
                        "split the read out, re-validate after the "
                        "await, or guard the section",
                    )
                    continue
                stale = sorted(
                    var
                    for var, taint_loc, crossed in taints
                    if crossed and taint_loc == loc and var in value_names
                )
                if stale:
                    self._emit(
                        node,
                        stmt,
                        f"read-modify-write of {loc} spans an await: "
                        f"{stale[0]!r} was read before the suspension "
                        "and written back after it without "
                        "re-validation",
                        "re-read or re-validate the attribute after "
                        "the await, or hold a lock across the window",
                    )

        # Name targets: old taints die, reads create fresh ones.  A
        # taint born in a suspending statement starts crossed — the
        # shared read happened before the await resumed.
        for target in targets:
            elements = (
                target.elts
                if isinstance(target, (ast.Tuple, ast.List))
                else [target]
            )
            for element in elements:
                if not isinstance(element, ast.Name):
                    continue
                var = element.id
                taints = {t for t in taints if t[0] != var}
                born_crossed = suspends and not node.guarded
                for loc in value_locs:
                    taints.add((var, loc, born_crossed))
                # copy propagation: x = f(y) inherits y's taints
                for other, loc, crossed in list(taints):
                    if other in value_names and other != var:
                        taints.add((var, loc, crossed or born_crossed))
        return taints


@register
class InterleavingRaceRule(Rule):
    """Shared role state must not be read-modify-written across an await.

    Every ``await`` is a scheduling point: any other task — a second
    client request, the WAL retry timer, a learner catch-up — may run
    and mutate the same role object.  A local copy of ``self.*`` state
    taken before a suspension is stale after it; writing it back
    overwrites whatever the interleaved task did (lost update), which
    for SMR roles means double-allocated slots, rewound sequence
    numbers, or un-promised ballots.  Re-validate after the await,
    re-read the attribute, hold a lock across the window, or declare
    the section atomic (``atomic_section``) so the runtime sanitizer
    enforces it.
    """

    id = "RD08"
    title = "read-modify-write of shared state across an await"
    scope = ("repro/net/", "repro/smr/", "repro/monitor/")
    example_bad = """\
async def claim(self):
    slot = self._next_slot          # read shared state
    await self._quorum.propose(slot)
    self._next_slot = slot + 1      # stale write-back: lost update
"""
    example_good = """\
async def claim(self):
    slot = self._next_slot
    await self._quorum.propose(slot)
    if self._next_slot == slot:     # re-validate after the await
        self._next_slot = slot + 1
"""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func in self._async_functions(ctx.tree):
            yield from self._check_function(ctx, func)

    @staticmethod
    def _async_functions(tree: ast.Module) -> Iterator[ast.AsyncFunctionDef]:
        for node in ast.walk(tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield node

    def _check_function(
        self, ctx: ModuleContext, func: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        globals_declared: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        cfg = build_cfg(func)
        if not cfg.has_suspension:
            return
        analysis = _TaintAnalysis(self, ctx, globals_declared)
        entry_facts, _exit_facts = solve(cfg, analysis)
        findings: List[Finding] = []
        analysis.collector = findings
        for node in cfg.statement_nodes():
            analysis.transfer(node, entry_facts[node.index])
        analysis.collector = None
        yield from findings
