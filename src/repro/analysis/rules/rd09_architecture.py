"""RD09 — architecture invariants, one table.

What keeps this tree's layers apart is invisible to a type checker:
which package may import which, who may build a protocol role, who may
look inside a decree, what must never come back under ``net/``.  Each
such invariant is a row of :data:`TABLE` — *what* construct, *which
names*, *where* (``within``: the paths the row binds, everywhere when
empty; ``allowed``: the paths exempt from it) and *why* — so it runs
wherever ``python -m repro lint`` does and a finding quotes the reason.
An architecture invariant is a row here, not a CI script.

An ``import`` row matches the named module and anything under it
(relative imports resolved); a ``call`` row matches the callee by
dotted suffix, and a subclass *definition* is no call; an ``attribute``
row matches a read or bare call of ``.name`` but not a call that passes
arguments (``struct.unpack(fmt, data)`` is someone else's method); a
``name`` row matches the identifier wherever written, imports included.
"""

from __future__ import annotations

import ast
from typing import Iterator, NamedTuple, Tuple

from ..findings import Finding
from ..registry import ModuleContext, Rule, register


class Invariant(NamedTuple):
    what: str  #: "import" | "call" | "attribute" | "name"
    names: Tuple[str, ...]
    why: str
    within: Tuple[str, ...] = ()
    allowed: Tuple[str, ...] = ()


TABLE: Tuple[Invariant, ...] = (
    Invariant(
        "import", ("repro.faults",), within=("repro/net/",),
        why="TransportFaults lives in repro.net, so a wire process never "
        "loads the simulator campaign and repro.faults needs no lazy loader",
    ),
    Invariant(
        "import", ("repro.net",), within=("repro/core/",),
        why="the trace theory alone loads no wire runtime",
    ),
    Invariant(
        "import", ("repro.core.fastcheck",), within=("repro/monitor/",),
        why="fastcheck runs the monitor's engine; imported back, the "
        "import order of repro.core and repro.monitor would matter",
    ),
    Invariant(
        "call", ("QuorumClient", "BackupClient", "PaxosClient"),
        allowed=("repro/mp/phases.py",),
        why="the walk Quorum -> Backup is written once, in mp/phases: the "
        "simulator and the wire pipeline both propose through walk()",
    ),
    Invariant(
        "call", ("QuorumServer", "PaxosAcceptor", "PaxosCoordinator"),
        allowed=("repro/mp/phases.py", "repro/net/node.py"),
        why="a server's role set is written once, in mp/phases (the "
        "wire's durable servers are the node's)",
    ),
    Invariant(
        "attribute", ("unpack",),
        allowed=("repro/net/codec.py", "repro/net/pipeline.py"),
        why="only an applier opens a decree: a server, WAL or transport "
        "that reads inside one brings back a parse per hop and makes a "
        "malformed decree a server's problem",
    ),
    Invariant(
        "name", ("Packed",),
        within=(
            "repro/mp/", "repro/net/node.py", "repro/net/wal.py",
            "repro/net/transport.py",
        ),
        why="what carries a decree's bytes does not so much as name the kind",
    ),
    Invariant(
        "call",
        (
            "asyncio.wait", "asyncio.wait_for", "asyncio.open_connection",
            "asyncio.start_server",
        ),
        within=("repro/net/",),
        why="a hand-off is one trip round the loop: deadlines belong to "
        "PipelineClient's watchdog, not a second future and a timer per op",
    ),
    Invariant(
        "name", ("StreamReader", "StreamWriter"), within=("repro/net/",),
        why="connections are BufferedProtocols fed by loop.create_server / "
        "create_connection, not streams with a reader task each",
    ),
    Invariant(
        "attribute", ("Protocol",), within=("repro/net/",),
        why="a socket reader reads into a reused buffer (a BufferedProtocol): "
        "an asyncio.Protocol is handed a fresh 256 KiB read each time",
    ),
    Invariant(
        "name", ("_cells",),
        within=("repro/sm/",), allowed=("repro/sm/memory.py",),
        why="the Section 5 algorithms are proved against atomic registers "
        "and CAS: a cell touched around SharedMemory's read/write/cas is "
        "no serialized scheduler step and escapes the operation census",
    ),
    Invariant(
        "call", ("peek",),
        within=("repro/sm/",), allowed=("repro/sm/memory.py",),
        why="peek() is the test helper that skips the scheduler and the "
        "operation census; algorithm code yields a ('read', name) step",
    ),
    Invariant(
        "call", ("linearize", "is_linearizable"), within=("repro/",),
        allowed=(
            "repro/core/linearizability.py", "repro/core/composition.py",
            "repro/core/report.py",
        ),
        why="the paper's Defs 5-15 are the reference, coarser than "
        "Herlihy-Wing on repeated inputs; a recorded history is decided "
        "by monitor.streaming.decide",
    ),
    Invariant(
        "name", ("step",), within=("repro/monitor/streaming.py",),
        why="ADT.step is the search's memo; the certificate steps plain "
        "transitions (docs/MONITORING.md §7)",
    ),
    Invariant(
        "name", ("dedup",), within=("repro/net/", "repro/smr/"),
        why="the data plane has no bug switch: a mutant is a subclass in "
        "faults/mutants.py (DoubleApplyPipeline)",
    ),
)


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ""
    return ".".join([node.id, *reversed(parts)])


def _constructs(
    tree: ast.Module, relpath: str
) -> Iterator[Tuple[ast.AST, str, str]]:
    """Every ``(node, what, name)`` a row could be about."""
    package = relpath.split("/")[:-1]
    with_arguments = {
        id(node.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (node.args or node.keywords)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, "import", alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + (node.module or "").split("."))
            for alias in node.names:
                yield node, "import", f"{module.strip('.')}.{alias.name}"
                yield node, "name", alias.name
        elif isinstance(node, ast.Call):
            yield node, "call", _dotted(node.func)
        elif isinstance(node, ast.Name):
            yield node, "name", node.id
        elif isinstance(node, ast.Attribute):
            yield node, "name", node.attr
            if id(node) not in with_arguments:
                yield node, "attribute", node.attr


def _matches(row: Invariant, name: str) -> bool:
    if row.what == "import":
        return any(name == n or name.startswith(n + ".") for n in row.names)
    if row.what == "call":
        return any(name == n or name.endswith("." + n) for n in row.names)
    return name in row.names


@register
class Rd09Architecture(Rule):
    """A construct sits where a row of the architecture table forbids it.

    The table (``repro/analysis/rules/rd09_architecture.py``, rendered
    in docs/ANALYSIS.md) holds the layering facts the rest of the tree
    relies on; the finding names the row's reason.  Move the construct
    to a module the row allows — or, if the architecture itself is
    changing, change the row and its reason in the same commit.
    """

    id = "RD09"
    title = "architecture invariant"
    example_bad = """\
# repro/net/loadgen.py
from ..faults import FaultSchedule   # net/ imports nothing from faults/
client = QuorumClient(pid, servers)  # roles are built in mp/phases.py
"""
    example_good = """\
# repro/net/loadgen.py
from .netfaults import TransportFaults
class Probe(QuorumClient): ...       # a definition is not a construction
"""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        path = ctx.relpath
        rows = [
            row
            for row in TABLE
            if (not row.within or path.startswith(row.within))
            and not (row.allowed and path.startswith(row.allowed))
        ]
        if not rows:
            return
        for node, what, name in _constructs(ctx.tree, path):
            for row in rows:
                if row.what == what and _matches(row, name):
                    yield self.finding(
                        ctx,
                        node,
                        f"{what} of {name} breaks an architecture "
                        f"invariant: {row.why}",
                        "move it to a module the RD09 row allows",
                    )
