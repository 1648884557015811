"""Control-flow graphs with explicit await/yield points.

The path rules (path-based RD02, the RD08 interleaving detector) need
*paths*, not source order: persist-before-reply is violated by a reply
that beats the fsync on **any** execution path, and a read-modify-write
race exists only when a suspension point sits *between* the read and
the write.  This module lowers one function body to a statement-level
CFG the :mod:`~repro.analysis.dataflow` solver iterates over.

Design choices, all in service of the rules:

* **one node per evaluated step** — a simple statement is one node; a
  compound statement contributes a node for the part of it that is
  actually evaluated at that point (the ``if``/``while`` test, the
  ``for`` iterator, a ``with`` item's context expression) while its
  body statements become their own nodes.  Branch tests being nodes is
  what lets RD08 model "re-reading the attribute in a guard condition
  re-validates it";
* **suspension points are explicit** — every node carries the ``await``
  expressions (and yields) it evaluates, plus synthetic markers for the
  implicit awaits of ``async for`` / ``async with``.  Whether a given
  await can actually suspend is the call graph's business
  (:mod:`~repro.analysis.callgraph`); the CFG only records where they
  sit;
* **exceptions over-approximate** — inside a ``try``, every statement
  gets an edge to every handler, and a bare ``raise``/unhandled path
  flows to the function exit.  More paths can only make a path property
  easier to violate, which is the conservative direction for both path
  rules;
* **guard context is structural** — nodes remember whether they sit
  inside a lock-shaped ``with`` (``…lock``/``…mutex``/``…sem``) or an
  ``atomic_section(...)`` block, so RD08 can treat lock-held windows as
  guarded and declared-atomic windows as must-not-suspend.

Nested function definitions (and lambdas) open their own scopes: their
bodies are *not* inlined into the enclosing CFG — build a separate CFG
per function.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple, Union

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: substrings marking a ``with`` context expression as a concurrency
#: guard (held lock): suspensions under it are serialized by convention
LOCK_NAME_HINTS = ("lock", "mutex", "sem", "cond")

#: the runtime sanitizer's critical-section guard; statically the
#: opposite of a lock — suspending inside one is itself a violation
ATOMIC_SECTION_NAME = "atomic_section"


class Suspension:
    """One potential suspension point evaluated by a CFG node."""

    __slots__ = ("node", "kind")

    def __init__(self, node: ast.AST, kind: str) -> None:
        self.node = node  #: the ast.Await / ast.Yield / header node
        self.kind = kind  #: "await" | "yield" | "async-for" | "async-with"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Suspension({self.kind}, line {self.node.lineno})"


class CFGNode:
    """One evaluated step of the function body."""

    __slots__ = (
        "index",
        "kind",
        "stmt",
        "exprs",
        "succ",
        "pred",
        "suspensions",
        "guarded",
        "atomic",
    )

    def __init__(
        self,
        index: int,
        kind: str,
        stmt: Optional[ast.AST],
        exprs: Sequence[ast.AST],
        guarded: bool,
        atomic: bool,
    ) -> None:
        self.index = index
        #: "entry" | "exit" | "stmt" | "test" | "iter" | "with"
        self.kind = kind
        self.stmt = stmt  #: the owning statement (anchor for findings)
        #: the expressions this node actually evaluates
        self.exprs = list(exprs)
        self.succ: List[int] = []
        self.pred: List[int] = []
        self.suspensions: List[Suspension] = []
        self.guarded = guarded  #: under a lock-shaped ``with``
        self.atomic = atomic  #: under ``with atomic_section(...)``
        for expr in self.exprs:
            self.suspensions.extend(_find_suspensions(expr))

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 1) if self.stmt else 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CFGNode({self.index}, {self.kind}, line {self.line})"


class CFG:
    """The control-flow graph of one function body."""

    def __init__(self, func: FunctionNode) -> None:
        self.func = func
        self.nodes: List[CFGNode] = []
        self.entry = self._new("entry", None, ())
        self.exit = self._new("exit", None, ())

    def _new(
        self,
        kind: str,
        stmt: Optional[ast.AST],
        exprs: Sequence[ast.AST],
        guarded: bool = False,
        atomic: bool = False,
    ) -> int:
        node = CFGNode(len(self.nodes), kind, stmt, exprs, guarded, atomic)
        self.nodes.append(node)
        return node.index

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succ:
            self.nodes[src].succ.append(dst)
            self.nodes[dst].pred.append(src)

    def statement_nodes(self) -> Iterator[CFGNode]:
        """Every non-synthetic node, in creation (roughly source) order."""
        for node in self.nodes:
            if node.kind not in ("entry", "exit"):
                yield node

    @property
    def has_suspension(self) -> bool:
        """True iff any node evaluates a potential suspension point."""
        return any(node.suspensions for node in self.nodes)


#: a node's ``(line, column)``: source order as a sortable key
Pos = Tuple[int, int]


def position(node: ast.AST) -> Pos:
    return (node.lineno, node.col_offset)


def attr_chain(node: ast.AST) -> List[str]:
    """The dotted names of an attribute chain, outermost last."""
    names: List[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    return names


def walk_same_scope(root: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that does not descend into nested function scopes."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            stack.append(child)


def _find_suspensions(expr: ast.AST) -> List[Suspension]:
    found: List[Suspension] = []
    for node in walk_same_scope(expr):
        if isinstance(node, ast.Await):
            found.append(Suspension(node, "await"))
        elif isinstance(node, (ast.Yield, ast.YieldFrom)):
            found.append(Suspension(node, "yield"))
    return found


def _is_lock_context(expr: ast.AST) -> bool:
    """Heuristic: the ``with`` item looks like a held lock/semaphore."""
    for node in walk_same_scope(expr):
        name = None
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        if name is not None and any(
            hint in name.lower() for hint in LOCK_NAME_HINTS
        ):
            return True
    return False


def _is_atomic_context(expr: ast.AST) -> bool:
    """True for ``atomic_section(...)`` / ``sanitizer.atomic_section(...)``."""
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    if isinstance(func, ast.Name):
        return func.id == ATOMIC_SECTION_NAME
    if isinstance(func, ast.Attribute):
        return func.attr == ATOMIC_SECTION_NAME
    return False


class _Builder:
    """Recursive-descent CFG construction with loop/try context stacks."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        #: (continue_target, break_collector) per enclosing loop
        self.loops: List[Tuple[int, List[int]]] = []
        #: handler-entry node lists per enclosing try
        self.handlers: List[List[int]] = []
        self.guarded = 0
        self.atomic = 0

    # -- plumbing ------------------------------------------------------

    def node(
        self, kind: str, stmt: ast.AST, exprs: Sequence[ast.AST]
    ) -> int:
        index = self.cfg._new(
            kind, stmt, exprs, self.guarded > 0, self.atomic > 0
        )
        # Over-approximate exceptions: any evaluated step inside a try
        # may transfer to any of its handlers.
        for entries in self.handlers:
            entries.append(index)
        return index

    def link(self, frontier: Sequence[int], target: int) -> None:
        for src in frontier:
            self.cfg._edge(src, target)

    # -- statements ----------------------------------------------------

    def build(self, stmts: Sequence[ast.stmt], frontier: List[int]) -> List[int]:
        """Thread ``stmts`` after ``frontier``; return the new frontier."""
        for stmt in stmts:
            frontier = self.statement(stmt, frontier)
        return frontier

    def statement(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            return self.if_(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self.while_(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self.for_(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self.try_(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self.with_(stmt, frontier)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            exprs = [e for e in (getattr(stmt, "value", None),
                                 getattr(stmt, "exc", None)) if e]
            index = self.node("stmt", stmt, exprs)
            self.link(frontier, index)
            self.cfg._edge(index, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Break):
            index = self.node("stmt", stmt, ())
            self.link(frontier, index)
            if self.loops:
                self.loops[-1][1].append(index)
            return []
        if isinstance(stmt, ast.Continue):
            index = self.node("stmt", stmt, ())
            self.link(frontier, index)
            if self.loops:
                self.cfg._edge(index, self.loops[-1][0])
            return []
        if isinstance(stmt, ast.Match):
            return self.match_(stmt, frontier)
        if isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # a nested definition is a single binding step; its body is
            # its own scope (build a separate CFG for it)
            index = self.node("stmt", stmt, ())
            self.link(frontier, index)
            return [index]
        # simple statement: one node evaluating the whole thing
        index = self.node("stmt", stmt, [stmt])
        self.link(frontier, index)
        return [index]

    def if_(self, stmt: ast.If, frontier: List[int]) -> List[int]:
        test = self.node("test", stmt, [stmt.test])
        self.link(frontier, test)
        then_out = self.build(stmt.body, [test])
        else_out = self.build(stmt.orelse, [test]) if stmt.orelse else [test]
        return then_out + else_out

    def while_(self, stmt: ast.While, frontier: List[int]) -> List[int]:
        test = self.node("test", stmt, [stmt.test])
        self.link(frontier, test)
        breaks: List[int] = []
        self.loops.append((test, breaks))
        body_out = self.build(stmt.body, [test])
        self.loops.pop()
        self.link(body_out, test)
        else_out = self.build(stmt.orelse, [test]) if stmt.orelse else [test]
        return else_out + breaks

    def for_(
        self, stmt: Union[ast.For, ast.AsyncFor], frontier: List[int]
    ) -> List[int]:
        head = self.node("iter", stmt, [stmt.iter, stmt.target])
        if isinstance(stmt, ast.AsyncFor):
            head_node = self.cfg.nodes[head]
            head_node.suspensions.append(Suspension(stmt, "async-for"))
        self.link(frontier, head)
        breaks: List[int] = []
        self.loops.append((head, breaks))
        body_out = self.build(stmt.body, [head])
        self.loops.pop()
        self.link(body_out, head)
        else_out = self.build(stmt.orelse, [head]) if stmt.orelse else [head]
        return else_out + breaks

    def with_(
        self, stmt: Union[ast.With, ast.AsyncWith], frontier: List[int]
    ) -> List[int]:
        exprs: List[ast.AST] = [item.context_expr for item in stmt.items]
        head = self.node("with", stmt, exprs)
        self.link(frontier, head)
        is_async = isinstance(stmt, ast.AsyncWith)
        if is_async:
            self.cfg.nodes[head].suspensions.append(
                Suspension(stmt, "async-with")
            )
        locked = any(_is_lock_context(e) for e in exprs)
        atomic = any(_is_atomic_context(e) for e in exprs)
        if locked:
            self.guarded += 1
        if atomic:
            self.atomic += 1
        body_out = self.build(stmt.body, [head])
        if atomic:
            self.atomic -= 1
        if locked:
            self.guarded -= 1
        # __exit__ / __aexit__ runs after the body; async exit suspends
        tail = self.node("with", stmt, ())
        if is_async:
            self.cfg.nodes[tail].suspensions.append(
                Suspension(stmt, "async-with")
            )
        self.link(body_out, tail)
        return [tail]

    def try_(self, stmt: ast.Try, frontier: List[int]) -> List[int]:
        reaches_handlers: List[int] = []
        self.handlers.append(reaches_handlers)
        body_out = self.build(stmt.body, frontier)
        self.handlers.pop()
        else_out = (
            self.build(stmt.orelse, body_out) if stmt.orelse else body_out
        )
        handler_outs: List[int] = []
        for handler in stmt.handlers:
            head = self.node("stmt", handler, [handler.type] if handler.type else ())
            self.link(reaches_handlers, head)
            handler_outs.extend(self.build(handler.body, [head]))
        merged = else_out + handler_outs
        if stmt.finalbody:
            merged = self.build(stmt.finalbody, merged)
        return merged

    def match_(self, stmt: ast.Match, frontier: List[int]) -> List[int]:
        head = self.node("test", stmt, [stmt.subject])
        self.link(frontier, head)
        outs: List[int] = [head]  # no case may match
        for case in stmt.cases:
            case_frontier = [head]
            if case.guard is not None:
                guard = self.node("test", stmt, [case.guard])
                self.link(case_frontier, guard)
                case_frontier = [guard]
            outs.extend(self.build(case.body, case_frontier))
        return outs


def build_cfg(func: FunctionNode) -> CFG:
    """Lower one function body to its statement-level CFG."""
    cfg = CFG(func)
    builder = _Builder(cfg)
    frontier = builder.build(func.body, [cfg.entry])
    builder.link(frontier, cfg.exit)
    return cfg
