"""Project-wide call graph with may-suspend function summaries.

``await helper()`` only yields to the event loop if ``helper`` can
actually suspend: awaiting a coroutine that never awaits anything runs
synchronously to completion, and no other task can interleave.  The
RD08 race detector therefore needs awaits to "bubble up" through
helpers — an ``await self._flush()`` is a real interleaving window iff
``_flush`` (or anything it transitively awaits) can suspend.

The summary is computed as a least fixpoint over a best-effort call
graph:

* every function/method in the project is indexed by its simple name
  (calls are resolved by name, not by type — Python's dynamism makes
  anything sharper a research project, and the rules only need a
  may-analysis);
* an async function *directly* suspends if it awaits something that is
  not a call to a known **async** function — a bare future, a task,
  ``asyncio.sleep``, a transport primitive — or iterates/enters an
  ``async for`` / ``async with`` (their ``__anext__``/``__aenter__``
  are out of reach), or is an async generator (yields suspend);
* awaiting a call whose simple name resolves only to known async
  functions inherits the OR of their summaries; any unresolved or
  ambiguous callee is conservatively assumed to suspend.

Awaiting a call to a known **sync** function is treated as suspending:
a sync callee reached through ``await`` must have returned a future or
custom awaitable, whose behavior we cannot see.

The conservative direction matters: over-approximating suspension can
only create *extra* interleaving windows for RD08 to inspect (possible
false positives, silenced by re-validation or a guard), never hide a
real race.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .cfg import Suspension, walk_same_scope

FunctionAst = "ast.FunctionDef | ast.AsyncFunctionDef"


class FunctionInfo:
    """One function/method definition and its call-graph summary."""

    __slots__ = (
        "qualname",
        "relpath",
        "name",
        "node",
        "is_async",
        "class_name",
        "direct_suspend",
        "await_callees",
        "may_suspend",
    )

    def __init__(
        self,
        qualname: str,
        relpath: str,
        node,
        class_name: Optional[str],
    ) -> None:
        self.qualname = qualname
        self.relpath = relpath
        self.name = node.name
        self.node = node
        self.is_async = isinstance(node, ast.AsyncFunctionDef)
        self.class_name = class_name
        #: suspends regardless of callee summaries
        self.direct_suspend = False
        #: simple names of known-async callees this function awaits
        self.await_callees: Set[str] = set()
        #: the fixpoint summary (meaningful for async functions)
        self.may_suspend = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.qualname}, suspend={self.may_suspend})"


def call_simple_name(call: ast.Call) -> Optional[str]:
    """The resolvable simple name of a call's target, if any."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def iter_functions(tree: ast.Module):
    """Yield ``(class_name_or_None, func_node)`` for every def in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for item in ast.walk(node):
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item


class CallGraph:
    """Every project function, indexed for name-based resolution."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}  #: by qualname
        self.by_name: Dict[str, List[FunctionInfo]] = {}  #: by simple name

    def add_module(self, relpath: str, tree: ast.Module) -> None:
        module = relpath[:-3].replace("/", ".") if relpath.endswith(".py") else relpath
        for class_name, node in iter_functions(tree):
            scope = f"{module}.{class_name}" if class_name else module
            qualname = f"{scope}.{node.name}"
            if qualname in self.functions:
                continue  # first definition wins (overloads are rare)
            info = FunctionInfo(qualname, relpath, node, class_name)
            self.functions[qualname] = info
            self.by_name.setdefault(node.name, []).append(info)

    # -- summary computation -------------------------------------------

    def _seed(self, info: FunctionInfo) -> None:
        """Classify each await/async construct as direct or delegated."""
        node = info.node
        for sub in walk_same_scope(node):
            if isinstance(sub, (ast.Yield, ast.YieldFrom)) and info.is_async:
                info.direct_suspend = True  # async generator
            elif isinstance(sub, (ast.AsyncFor, ast.AsyncWith)):
                info.direct_suspend = True
            elif isinstance(sub, ast.Await):
                target = sub.value
                name = (
                    call_simple_name(target)
                    if isinstance(target, ast.Call)
                    else None
                )
                candidates = self.by_name.get(name, []) if name else []
                if candidates and all(c.is_async for c in candidates):
                    info.await_callees.add(name)  # summary decides
                else:
                    info.direct_suspend = True

    def compute_summaries(self) -> None:
        """Least fixpoint of may-suspend over the await-callee edges."""
        for info in self.functions.values():
            self._seed(info)
            info.may_suspend = info.direct_suspend
        changed = True
        while changed:
            changed = False
            for info in self.functions.values():
                if info.may_suspend:
                    continue
                for callee in info.await_callees:
                    if any(
                        c.may_suspend for c in self.by_name.get(callee, [])
                    ):
                        info.may_suspend = True
                        changed = True
                        break

    # -- queries --------------------------------------------------------

    def name_may_suspend(self, name: Optional[str]) -> bool:
        """May an ``await <name>(...)`` suspend?  Unknown names may."""
        if name is None:
            return True
        candidates = self.by_name.get(name, [])
        if not candidates or not all(c.is_async for c in candidates):
            return True
        return any(c.may_suspend for c in candidates)


class ProjectContext:
    """What interprocedural rules may ask about the whole program.

    Built once per ``lint`` run from every parsed module and
    handed to rules through
    :class:`~repro.analysis.registry.ModuleContext`.
    """

    def __init__(self, callgraph: CallGraph) -> None:
        self.callgraph = callgraph

    def may_suspend(self, suspension: Suspension) -> bool:
        """Can this CFG suspension point actually yield to the loop?"""
        if suspension.kind != "await":
            return True  # async-for/with, yields: always real
        value = suspension.node.value
        if isinstance(value, ast.Call):
            return self.callgraph.name_may_suspend(call_simple_name(value))
        return True  # awaiting a future/task/attribute: real


def build_project(
    modules: Sequence[Tuple[str, ast.Module]],
) -> ProjectContext:
    """Parse results in, whole-program context out."""
    graph = CallGraph()
    for relpath, tree in modules:
        graph.add_module(relpath, tree)
    graph.compute_summaries()
    return ProjectContext(graph)
