"""RD06 — observed-response discipline at history-recording sites.

The streaming monitor (:mod:`repro.monitor`) is only as sound as the
events fed to it: a recorded *response* asserts "the cluster answered
this" and moves the operation's linearization point into the past.  A
call site that records a response without having awaited anything since
recording the invocation is fabricating that observation — the durable
role's reply cannot have been released and received synchronously, so
the monitor (and every post-hoc checker) would be certifying a response
the wire never carried.  The dual bug — recording a response on a path
that never recorded the invocation — breaks history well-formedness
outright and makes the monitor report "trace is not well-formed"
instead of a verdict about the cluster.

RD06 scans every function in ``repro/net/`` and ``repro/monitor/`` for
calls of the shape ``<recorder>.invoke(...)`` / ``<recorder>.respond(...)``
where the receiver's attribute chain mentions a recorder (any dotted
name containing ``record`` — ``recorder``, ``self.recorder``,
``self._recorder``), and flags, per function:

* a ``respond`` with **no** earlier ``invoke`` in the same function —
  a response-only emission site (the invocation must be recorded first,
  on the same path, before the op is handed to anything that can decide
  it — see ``PipelineClient.submit``);
* a ``respond`` with no ``await`` expression strictly *between* the
  latest preceding ``invoke`` and itself — a synchronously fabricated
  response, recorded before the durable role's reply could have been
  released.

Nested function bodies are analyzed as their own functions, not as part
of the enclosing one (a callback's respond is its own path).  The
simulation-layer recorders (``repro/mp/``, ``repro/sm/``) run under a
synchronous scheduler where responses really are decided in-step, so
they are out of scope by design.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from ..cfg import Pos, attr_chain, position, walk_same_scope
from ..findings import Finding
from ..registry import ModuleContext, Rule, register


def _is_recorder_call(call: ast.Call, method: str) -> bool:
    """True for ``<chain>.{method}(...)`` where the chain names a
    recorder (some component contains "record")."""
    if not (
        isinstance(call.func, ast.Attribute) and call.func.attr == method
    ):
        return False
    chain = attr_chain(call.func.value)
    return any("record" in name.lower() for name in chain)


@register
class Rd06MonitorEvents(Rule):
    """Responses recorded before the reply was observably released."""

    id = "RD06"
    title = "observed-response event emission"
    scope = ("repro/net/", "repro/monitor/")
    example_bad = """\
async def submit(self, command):
    self.recorder.invoke(op)
    self.recorder.respond(op, value)   # nothing awaited in between
"""
    example_good = """\
async def submit(self, command):
    self.recorder.invoke(op)
    value = await self.pipeline.enqueue(command)
    self.recorder.respond(op, value)
"""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield from self._check_function(ctx, func)

    def _check_function(
        self,
        ctx: ModuleContext,
        func: ast.AST,
    ) -> Iterator[Finding]:
        invokes: List[Pos] = []
        responds: List[Tuple[Pos, ast.Call]] = []
        awaits: List[Pos] = []
        for node in walk_same_scope(func):
            if isinstance(node, ast.Call):
                if _is_recorder_call(node, "invoke"):
                    invokes.append(position(node))
                elif _is_recorder_call(node, "respond"):
                    responds.append((position(node), node))
            elif isinstance(node, ast.Await):
                awaits.append(position(node))
        name = getattr(func, "name", "<lambda>")
        for pos, call in sorted(responds, key=lambda item: item[0]):
            before = [p for p in invokes if p < pos]
            if not before:
                yield self.finding(
                    ctx,
                    call,
                    f"{name} records a response with no invocation "
                    "recorded earlier on the same path",
                    "record the invocation first (before the op can "
                    "take effect), then await the reply, then respond",
                )
                continue
            latest = max(before)
            if not any(latest < p < pos for p in awaits):
                yield self.finding(
                    ctx,
                    call,
                    f"{name} records a response with no await between "
                    "the invocation and the response — the reply "
                    "cannot have been released and observed yet",
                    "await the cluster's reply (quorum future, pipeline "
                    "future) between recorder.invoke and "
                    "recorder.respond",
                )
