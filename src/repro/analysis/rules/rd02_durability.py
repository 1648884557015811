"""RD02 — persist-before-reply in the TCP runtime's durable roles.

The WAL discipline of :mod:`repro.net.node`: while a durable role's
handler runs, outbound messages are buffered; the role's changed
``durable_state()`` is appended (and fsync'd) to the WAL; only then are
the buffered replies released.  A reply that escapes *before* the
append is a promise a crash can erase — the exact bug class the
amnesiac-node canary exists to catch dynamically.  RD02 catches it at
diff time.

A class is *durable* when it derives from ``_DurableRole``, is
``_DurableRole`` itself, or touches ``self._wal`` or ``self._fs``
anywhere (roles built straight on the injectable filesystem seam are
held to the same discipline as WAL-backed ones).

Persist-before-reply is a **path** property, and the rule checks it as
one: the handler's CFG (:mod:`~repro.analysis.cfg`) is run through a
two-state typestate analysis — every path starts *unpersisted* and
becomes *persisted* at a persistence point.  Persistence points are

* a WAL append — ``…wal.record(...)`` / ``…wal.record_decided(...)`` /
  ``…wal.record_durable(...)`` (which fsyncs the record before it
  schedules its callback) — or a direct
  :class:`FaultFS` point (``…fs.append(...)`` / ``…fs.fsync(...)``);
* a call to a ``self.`` method that *transitively* performs one — so
  the append may live in a helper and still count (method summaries
  are resolved through module-local base classes);
* ``super().on_message(...)`` delegation, but only in a handler with
  no persistence points of its own (the override persists on the
  subclass's behalf; a handler that also appends is held to the
  ordering between its own appends and its replies).

And the violations, judged per reachable state rather than source
order:

* an emit — ``super().send(...)``, the release of buffered frames —
  reachable in the *unpersisted* state is a persist-before-reply
  violation: an append that exists in the source but is skipped on
  some branch no longer hides the bug;
* an emit in a handler with no persistence point at all is flagged
  too (unless delegation covered it, per the above);
* a write to a *durable attribute* — one that the class's own
  ``durable_state()`` reads — reachable in the *persisted* state
  diverges memory from disk without re-logging, so the next crash
  recovers stale state.

The rule is scoped to ``repro/net/``; volatile roles (no WAL contact)
are never analyzed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from ..cfg import CFG, CFGNode, Pos, attr_chain, build_cfg, position
from ..dataflow import SetUnionAnalysis, solve
from ..findings import Finding
from ..registry import ModuleContext, Rule, register

#: WAL append methods (the persistence points)
WAL_APPENDS = frozenset({"record", "record_decided", "record_durable"})

#: FaultFS methods that make bytes durable when called on an fs seam
FS_PERSISTS = frozenset({"append", "fsync"})

#: typestate values: unpersisted / persisted
_U, _P = "unpersisted", "persisted"


def _is_super_call(call: ast.Call, attr: str) -> bool:
    """True for ``super().<attr>(...)``."""
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr == attr
        and isinstance(call.func.value, ast.Call)
        and isinstance(call.func.value.func, ast.Name)
        and call.func.value.func.id == "super"
    )


def _is_fs_name(name: str) -> bool:
    """True for names that denote a :class:`FaultFS` seam (``fs``,
    ``_fs``, ``faultfs``, ``wal_fs`` …) — deliberately *not* any name
    merely containing "fs" (``offsets`` is a list, not a disk)."""
    lowered = name.lower()
    return (
        lowered in ("fs", "_fs")
        or "faultfs" in lowered
        or lowered.startswith("fs_")
        or lowered.endswith("_fs")
    )


def _is_wal_append(call: ast.Call) -> bool:
    """True for a persistence point: ``<wal chain>.record*(...)`` or a
    direct ``<fs chain>.append/fsync(...)`` on the FaultFS seam."""
    if not isinstance(call.func, ast.Attribute):
        return False
    chain = attr_chain(call.func.value)
    if call.func.attr in WAL_APPENDS:
        return any("wal" in name.lower() for name in chain)
    if call.func.attr in FS_PERSISTS:
        return any(_is_fs_name(name) for name in chain)
    return False


def _self_method_call(call: ast.Call) -> Optional[str]:
    """The method name of a direct ``self.<m>(...)`` call, if any."""
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return func.attr
    return None


def _references_wal(node: ast.AST) -> bool:
    """True iff the subtree reads or writes ``self._wal``/``self._fs``."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and sub.attr in ("_wal", "_fs")
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            return True
    return False


def _self_attr_target(node: ast.AST) -> Optional[str]:
    """The attribute name if ``node`` is a ``self.X`` target."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _durable_attrs(cls: ast.ClassDef) -> Set[str]:
    """Attributes the class's own ``durable_state`` reads."""
    attrs: Set[str] = set()
    for item in cls.body:
        if (
            isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name == "durable_state"
        ):
            for node in ast.walk(item):
                name = _self_attr_target(node)
                if name is not None and not name.startswith("_wal"):
                    attrs.add(name)
    return attrs


def _own_methods(cls: ast.ClassDef) -> Dict[str, ast.AST]:
    return {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _flattened_methods(
    cls: ast.ClassDef, classes: Dict[str, ast.ClassDef]
) -> Dict[str, ast.AST]:
    """The class's methods, module-local bases included (nearest wins)."""
    methods: Dict[str, ast.AST] = {}
    seen: Set[str] = set()
    stack = [cls]
    while stack:
        current = stack.pop(0)
        if current.name in seen:
            continue
        seen.add(current.name)
        for name, fn in _own_methods(current).items():
            methods.setdefault(name, fn)
        for base in current.bases:
            base_name = None
            if isinstance(base, ast.Name):
                base_name = base.id
            elif isinstance(base, ast.Attribute):
                base_name = base.attr
            if base_name is not None and base_name in classes:
                stack.append(classes[base_name])
    return methods


def _persisting_methods(
    cls: ast.ClassDef, classes: Dict[str, ast.ClassDef]
) -> Set[str]:
    """Methods that transitively reach a WAL append via ``self.`` calls."""
    methods = _flattened_methods(cls, classes)
    persisting: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for name, fn in methods.items():
            if name in persisting:
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = _self_method_call(node)
                if _is_wal_append(node) or (
                    callee is not None and callee in persisting
                ):
                    persisting.add(name)
                    changed = True
                    break
    return persisting


class _PersistTypestate(SetUnionAnalysis):
    """Forward typestate: which of {unpersisted, persisted} reach a node."""

    def __init__(self, persisting: Set[str], handler_persists: bool) -> None:
        self.persisting = persisting
        self.handler_persists = handler_persists

    def initial(self, cfg: CFG) -> frozenset:
        return frozenset({_U})

    def node_persists(self, node: CFGNode) -> bool:
        for expr in node.exprs:
            for call in ast.walk(expr):
                if not isinstance(call, ast.Call):
                    continue
                if _is_wal_append(call):
                    return True
                callee = _self_method_call(call)
                if callee is not None and callee in self.persisting:
                    return True
                # delegation persists on our behalf — but only in a
                # handler with no persistence points of its own
                if not self.handler_persists and _is_super_call(
                    call, "on_message"
                ):
                    return True
        return False

    def transfer(self, node: CFGNode, fact: frozenset) -> frozenset:
        if fact and self.node_persists(node):
            return frozenset({_P})
        return fact


@register
class Rd02Durability(Rule):
    """Replies before WAL appends, and post-persist durable mutations."""

    id = "RD02"
    title = "persist-before-reply durability"
    scope = ("repro/net/",)
    example_bad = """\
class Hasty(_DurableRole):
    def on_message(self, src, message):
        if message[0] == "fast-read":
            super().send(src, ("ack",))   # path with no append!
            return
        self._wal.record(self._wal_kind, self._wal_slot, self.state)
        super().send(src, ("ack",))
"""
    example_good = """\
class Careful(_DurableRole):
    def on_message(self, src, message):
        self._wal.record(self._wal_kind, self._wal_slot, self.state)
        super().send(src, ("ack",))       # every path persisted first
"""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        classes: Dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        }
        for cls in classes.values():
            if not self._is_durable(cls):
                continue
            durable_attrs = _durable_attrs(cls)
            persisting = _persisting_methods(cls, classes)
            for item in cls.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "on_message"
                ):
                    yield from self._check_handler(
                        ctx, cls, item, durable_attrs, persisting
                    )

    def _is_durable(self, cls: ast.ClassDef) -> bool:
        if cls.name == "_DurableRole":
            return True
        for base in cls.bases:
            if isinstance(base, ast.Name) and base.id == "_DurableRole":
                return True
            if isinstance(base, ast.Attribute) and base.attr == "_DurableRole":
                return True
        return _references_wal(cls)

    def _check_handler(
        self,
        ctx: ModuleContext,
        cls: ast.ClassDef,
        handler: "ast.FunctionDef | ast.AsyncFunctionDef",
        durable_attrs: Set[str],
        persisting: Set[str],
    ) -> Iterator[Finding]:
        # Does the handler itself reach a persistence point anywhere?
        # (Decides whether delegation counts, and which message an
        # unpersisted emit gets.)
        handler_persists = False
        for node in ast.walk(handler):
            if isinstance(node, ast.Call):
                callee = _self_method_call(node)
                if _is_wal_append(node) or (
                    callee is not None and callee in persisting
                ):
                    handler_persists = True
                    break

        cfg = build_cfg(handler)
        analysis = _PersistTypestate(persisting, handler_persists)
        entry_facts, _exit = solve(cfg, analysis)

        for node in cfg.statement_nodes():
            states = entry_facts[node.index]
            if not states:
                continue  # unreachable
            yield from self._check_node(
                ctx, cls, node, states, durable_attrs, handler_persists
            )

    def _check_node(
        self,
        ctx: ModuleContext,
        cls: ast.ClassDef,
        node: CFGNode,
        states: frozenset,
        durable_attrs: Set[str],
        handler_persists: bool,
    ) -> Iterator[Finding]:
        # in-statement persists that precede an emit in the same node
        persist_positions: List[Pos] = []
        emits: List[ast.Call] = []
        for expr in node.exprs:
            for call in ast.walk(expr):
                if not isinstance(call, ast.Call):
                    continue
                if _is_wal_append(call):
                    persist_positions.append(position(call))
                elif _is_super_call(call, "send"):
                    emits.append(call)
        for call in sorted(emits, key=position):
            if _U not in states:
                continue
            if persist_positions and min(persist_positions) < position(call):
                continue  # this very statement persisted first
            if handler_persists:
                yield self.finding(
                    ctx,
                    call,
                    f"{cls.name}.on_message releases a reply before the "
                    "WAL append — a crash can erase the promised state",
                    "buffer sends while the handler runs and release "
                    "them only after wal.record(...)",
                )
            else:
                yield self.finding(
                    ctx,
                    call,
                    f"{cls.name}.on_message releases a reply with no WAL "
                    "append on the handler path",
                    "append the changed durable_state() to the WAL "
                    "(and fsync) before any super().send",
                )
        if durable_attrs and _P in states:
            for expr in node.exprs:
                if not isinstance(expr, (ast.Assign, ast.AugAssign)):
                    continue
                targets = (
                    expr.targets
                    if isinstance(expr, ast.Assign)
                    else [expr.target]
                )
                for target in targets:
                    for leaf in ast.walk(target):
                        name = _self_attr_target(leaf)
                        if name is not None and name in durable_attrs:
                            yield self.finding(
                                ctx,
                                expr,
                                f"{cls.name}.on_message mutates durable "
                                f"attribute {name!r} after the WAL append "
                                "— recovery would restore stale state",
                                "mutate durable attributes before "
                                "capturing durable_state(), or re-log "
                                "after the change",
                            )
