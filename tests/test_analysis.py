"""Tests for the protocol-aware static analysis pass (repro.analysis).

Each rule is demonstrated by at least one known-bad fixture snippet and
one near-miss that must stay clean; RD02 is additionally exercised by
deliberately reintroducing the persist-before-reply bug in a scratch
copy of the real ``net/node.py``.  The suite also pins the framework
contracts: inline suppressions, read from comments only, and — the
self-hosting gate — that the committed tree lints clean with exactly
the pinned list of suppressed findings.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis import (
    analyze_source,
    package_relpath,
    rule_ids,
    run_lint,
)

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
NODE_PY = os.path.join(SRC, "repro", "net", "node.py")

def rules_of(source, relpath):
    """The active rule ids a snippet triggers (dedent applied)."""
    active, _ = analyze_source(textwrap.dedent(source), relpath)
    return [finding.rule for finding in active]


# ----------------------------------------------------------------------
# per-rule fixtures: known-bad snippets and near-misses
# ----------------------------------------------------------------------

BAD_SNIPPETS = [
    # RD01: wall clocks / global RNG / unseeded constructions in
    # replayable layers
    (
        "RD01",
        """\
        import time

        def stamp():
            return time.time()
        """,
        "repro/mp/scratch.py",
    ),
    (
        "RD01",
        """\
        import random

        def pick(options):
            return random.choice(options)
        """,
        "repro/faults/scratch.py",
    ),
    (
        "RD01",
        """\
        import random

        rng = random.Random()
        """,
        "repro/core/scratch.py",
    ),
    (
        "RD01",
        """\
        from datetime import datetime

        def stamp():
            return datetime.now()
        """,
        "repro/sm/scratch.py",
    ),
    (
        "RD01",
        """\
        import os

        def nonce():
            return os.urandom(8)
        """,
        "repro/faults/scratch.py",
    ),
    (
        "RD01",
        """\
        class Cell:
            def __hash__(self):
                return id(self)
        """,
        "repro/core/scratch.py",
    ),
    # RD04: orphan tasks and silent broad excepts in net/
    (
        "RD04",
        """\
        import asyncio

        def spawn(loop, coro):
            loop.create_task(coro())
        """,
        "repro/net/scratch.py",
    ),
    (
        "RD04",
        """\
        def drain(frames):
            try:
                frames.pop()
            except Exception:
                pass
        """,
        "repro/net/scratch.py",
    ),
    # RD05: incomplete signatures and impure hooks
    (
        "RD05",
        """\
        class Half(IOAutomaton):
            def initial_states(self):
                return [0]

            def is_input(self, action):
                return False
        """,
        "repro/ioa/scratch.py",
    ),
    (
        "RD05",
        """\
        class Memoizing(IOAutomaton):
            def initial_states(self):
                return [0]

            def is_input(self, action):
                return False

            def is_output(self, action):
                return True

            def is_internal(self, action):
                return False

            def input_step(self, state, action):
                return state

            def transitions(self, state):
                self.cache.append(state)
                return []
        """,
        "repro/ioa/scratch.py",
    ),
    # RD06: responses recorded before the reply was observably released
    (
        "RD06",
        """\
        async def submit(self, command):
            self.recorder.invoke(self.name, command)
            output = self.cache.get(command)
            self.recorder.respond(self.name, command, output)
        """,
        "repro/net/scratch.py",
    ),
    (
        "RD06",
        """\
        async def emit(self, command, output):
            await self.ready.wait()
            self._recorder.respond(self.name, command, output)
        """,
        "repro/monitor/scratch.py",
    ),
    # RD07: decided commands applied outside the session-dedup seam
    (
        "RD07",
        """\
        def apply_ready(self, command):
            self._state, output = self.adt.transition(self._state, command)
            return output
        """,
        "repro/net/scratch.py",
    ),
    (
        "RD07",
        """\
        def prefix_response(self, slot):
            history = tuple(c[:-1] for c in self.flatten(slot))
            return self.frontend.respond(history)
        """,
        "repro/net/scratch.py",
    ),
    # RD09: each row of the architecture table, on the tree its CI step
    # was written against
    ("RD09", "client = QuorumClient(pid, servers)\n", "repro/net/loadgen.py"),
    ("RD09", "client = QuorumClient(pid, servers)\n", "repro/net/pipeline.py"),
    (
        "RD09",
        "roles = [quorum.QuorumServer(pid), paxos.PaxosAcceptor(pid)]\n",
        "repro/faults/campaign.py",
    ),
    ("RD09", "commands = value.unpack()\n", "repro/net/node.py"),
    ("RD09", "opened = map(Packed.unpack, values)\n", "repro/smr/sessions.py"),
    ("RD09", "from ..net.codec import Packed\n", "repro/mp/quorum.py"),
    ("RD09", "kind = codec.Packed\n", "repro/net/wal.py"),
    (
        "RD09",
        """\
        import asyncio

        async def submit(self, future):
            return await asyncio.wait_for(future, self.op_timeout)
        """,
        "repro/net/client.py",
    ),
    ("RD09", "reader: asyncio.StreamReader = None\n", "repro/net/transport.py"),
    # RD09: a socket reader handed a fresh buffer per read
    (
        "RD09",
        "class _Connection(asyncio.Protocol):\n    pass\n",
        "repro/net/transport.py",
    ),
    ("RD09", "from ..faults import FaultSchedule\n", "repro/net/cluster.py"),
    ("RD09", "from .. import faults\n", "repro/net/__init__.py"),
    ("RD09", "import repro.faults.campaign\n", "repro/net/loadgen.py"),
    ("RD09", "from ..net import HistoryRecorder\n", "repro/core/traces.py"),
    (
        "RD09",
        "from ..core.fastcheck import check_linearizable\n",
        "repro/monitor/streaming.py",
    ),
    ("RD09", "verdict = linearize(trace, adt)\n", "repro/core/fastcheck.py"),
    # RD09: the search's memo in the certificate, read or called
    (
        "RD09",
        "cell = [part.step, part.initial_state]\n",
        "repro/monitor/streaming.py",
    ),
    (
        "RD09",
        "state, output = part.step(state, projected)\n",
        "repro/monitor/streaming.py",
    ),
    # RD09: a bug switch in the data plane, as the pipeline once had
    (
        "RD09",
        "self.applier = SessionedApplier(self.adt, enabled=dedup)\n",
        "repro/net/pipeline.py",
    ),
    # RD09: bypassing the atomic shared-memory API
    (
        "RD09",
        """\
        def sneak(memory, name):
            return memory._cells[name]
        """,
        "repro/sm/scratch.py",
    ),
    (
        "RD09",
        """\
        def sneak(memory, name):
            return memory.peek(name)
        """,
        "repro/sm/scratch.py",
    ),
]


GOOD_SNIPPETS = [
    # seeded randomness and port clocks are the sanctioned forms
    (
        """\
        import random

        def pick(options, seed):
            return random.Random(seed).choice(options)
        """,
        "repro/faults/scratch.py",
    ),
    # wall clocks outside the replayable layers are RD01-exempt
    (
        """\
        import time

        def stamp():
            return time.time()
        """,
        "repro/net/scratch.py",
    ),
    # memory.py itself implements the API it guards
    (
        """\
        class SharedMemory:
            def read(self, name):
                return self._cells.get(name)
        """,
        "repro/sm/memory.py",
    ),
    # a retained task handle is not an orphan
    (
        """\
        def spawn(loop, coro, tasks):
            tasks.append(loop.create_task(coro()))
        """,
        "repro/net/scratch.py",
    ),
    # a narrowed, counted except is the transport's sanctioned shape
    (
        """\
        def write(writer, frame, stats):
            try:
                writer.write(frame)
            except (ConnectionError, RuntimeError):
                stats.lost += 1
        """,
        "repro/net/scratch.py",
    ),
    # a complete, observer-only automaton
    (
        """\
        class Total(IOAutomaton):
            def initial_states(self):
                return [0]

            def is_input(self, action):
                return False

            def is_output(self, action):
                return True

            def is_internal(self, action):
                return False

            def input_step(self, state, action):
                return state

            def transitions(self, state):
                return [(("out",), state + 1)]
        """,
        "repro/ioa/scratch.py",
    ),
    # invoke, awaited reply, then respond — the sanctioned shape
    (
        """\
        async def submit(self, command):
            self.recorder.invoke(self.name, command)
            output = await self.pipeline.enqueue(command)
            self.recorder.respond(self.name, command, output)
        """,
        "repro/net/scratch.py",
    ),
    # a nested callback's respond is its own scope, and the simulation
    # recorders (mp/, sm/) decide responses in-step — both out of reach
    (
        """\
        def run(self, command):
            self.recorder.invoke(self.name, command)
            self.recorder.respond(self.name, command, self.step(command))
        """,
        "repro/mp/scratch.py",
    ),
    # applying through the session seam is RD07's sanctioned shape, as
    # is a frontend response derived from a deduplicated prefix
    (
        """\
        def apply_ready(self, command):
            self._state, output, fresh = self.applier.apply(
                self._state, command
            )
            return output

        def prefix_response(self, commands):
            history = tuple(
                untag_command(c) for c in dedup_commands(commands)
            )
            return self.frontend.respond(history)
        """,
        "repro/net/scratch.py",
    ),
    # the checker-side replay in core/ is out of RD07's scope
    (
        """\
        def replay(adt, history):
            state = adt.initial_state
            for command in history:
                state, _ = adt.transition(state, command)
            return state
        """,
        "repro/core/scratch.py",
    ),
    # RD09 near-misses: struct's unpack takes arguments, a subclass
    # definition constructs nothing, and the allowed modules stay allowed
    (
        """\
        import struct

        def header(data):
            return struct.unpack(">I", data[:4])
        """,
        "repro/net/node.py",
    ),
    ("class Durable(QuorumServer):\n    pass\n", "repro/net/loadgen.py"),
    ("client = QuorumClient(pid, servers)\n", "repro/mp/phases.py"),
    ("commands = value.unpack()\n", "repro/net/pipeline.py"),
    ("from ..net.codec import Packed\n", "repro/smr/sessions.py"),
    ("from ..net import TransportFaults\n", "repro/faults/nemesis.py"),
    ("from ..core.adt import ADT\n", "repro/monitor/streaming.py"),
    ("verdict = linearize_classical(trace, adt)\n", "repro/net/loadgen.py"),
    (
        "cell = [part._transition, part.initial_state, 0]\n",
        "repro/monitor/streaming.py",
    ),
    ("successors = adt.step(state, payload)\n", "repro/monitor/frontier.py"),
    ("distinct = list(dedup_commands(decided))\n", "repro/smr/sessions.py"),
    (
        "async def settle(tasks):\n    return await asyncio.wait(tasks)\n",
        "repro/faults/netcampaign.py",
    ),
    # ... a reader into a reused buffer, typing's Protocol, and an
    # asyncio.Protocol outside net/
    (
        "class _Connection(asyncio.BufferedProtocol):\n    pass\n",
        "repro/net/transport.py",
    ),
    (
        "from typing import Protocol\n\nclass Port(Protocol):\n    pass\n",
        "repro/net/port.py",
    ),
    ("class Probe(asyncio.Protocol):\n    pass\n", "repro/faults/probe.py"),
]



@pytest.mark.parametrize("rule,source,relpath", BAD_SNIPPETS)
def test_bad_fixture_is_caught(rule, source, relpath):
    assert rule in rules_of(source, relpath)


@pytest.mark.parametrize("source,relpath", GOOD_SNIPPETS)
def test_near_miss_stays_clean(source, relpath):
    assert rules_of(source, relpath) == []


def test_every_rule_has_a_failing_fixture():
    # RD02's failing fixtures are the real-node mutations below; RD08's
    # live in tests/test_interleaving.py (they need the project call
    # graph the deep engine builds).
    covered = {rule for rule, _, _ in BAD_SNIPPETS} | {"RD02", "RD08"}
    assert covered == set(rule_ids()) == {
        "RD01",
        "RD02",
        "RD04",
        "RD05",
        "RD06",
        "RD07",
        "RD08",
        "RD09",
    }


# ----------------------------------------------------------------------
# RD02 against the real durable roles
# ----------------------------------------------------------------------

GOOD_BODY = """\
        self._wal_buffer = []
        state = self._wal_persisted
        try:
            super().on_message(src, message)  # type: ignore[misc]
            state = self.durable_state()
        finally:
            buffered, self._wal_buffer = self._wal_buffer, None
        if state == self._wal_persisted:
            # nothing new to persist; replies promise only already
            # durable state and may leave at once
            self._wal_release(buffered)
            return
        self._wal_persist(state, buffered)
"""

BUGGED_BODY = """\
        self._wal_buffer = []
        state = self._wal_persisted
        try:
            super().on_message(src, message)
            state = self.durable_state()
        finally:
            buffered, self._wal_buffer = self._wal_buffer, None
        for dst, msg in buffered:
            super().send(dst, msg)
        if state != self._wal_persisted:
            self._wal.record(self._wal_kind, self._wal_slot, state)
            self._wal_persisted = state
"""


def test_rd02_real_node_is_clean():
    with open(NODE_PY) as handle:
        source = handle.read()
    active, _ = analyze_source(source, "repro/net/node.py")
    assert [f for f in active if f.rule == "RD02"] == []


def test_rd02_catches_reintroduced_persist_before_reply_bug():
    """Reordering the WAL append after the reply release must be caught."""
    with open(NODE_PY) as handle:
        source = handle.read()
    assert GOOD_BODY in source, (
        "net/node.py's persist-before-reply body drifted; update the "
        "scratch mutation in this test alongside it"
    )
    mutated = source.replace(GOOD_BODY, BUGGED_BODY)
    active, _ = analyze_source(mutated, "repro/net/node.py")
    rd02 = [f for f in active if f.rule == "RD02"]
    assert rd02, "the reintroduced persist-before-reply bug went unnoticed"
    assert "before the WAL append" in rd02[0].message


def test_rd02_flags_reply_with_no_wal_append():
    source = textwrap.dedent(
        """\
        class Leaky(_DurableRole):
            def on_message(self, src, message):
                self._wal = self._wal
                super().send(src, ("ack",))
        """
    )
    assert rules_of(source, "repro/net/scratch.py") == ["RD02"]


def test_rd02_flags_durable_mutation_after_append():
    source = textwrap.dedent(
        """\
        class Sloppy(_DurableRole):
            def durable_state(self):
                return self.ballot

            def on_message(self, src, message):
                self._wal.record("acc", 0, self.durable_state())
                self.ballot = message
        """
    )
    active, _ = analyze_source(source, "repro/net/scratch.py")
    assert [f.rule for f in active] == ["RD02"]
    assert "mutates durable attribute 'ballot'" in active[0].message


def test_rd02_flags_reply_before_faultfs_fsync():
    """A role built straight on the FaultFS seam (no NodeWAL) is held
    to the same persist-before-reply discipline: the fsync is the
    persistence point, and an ack released before it is flagged."""
    source = textwrap.dedent(
        """\
        class RawDiskRole(Process):
            def on_message(self, src, message):
                self.pending = message
                super().send(src, ("ack", self.pending))
                self._fs.append(self.handle, frame(message))
                self._fs.fsync(self.handle)
        """
    )
    active, _ = analyze_source(source, "repro/net/scratch.py")
    assert [f.rule for f in active] == ["RD02"]
    assert "before the WAL append" in active[0].message


def test_rd02_faultfs_fsync_before_reply_is_clean():
    source = textwrap.dedent(
        """\
        class RawDiskRole(Process):
            def on_message(self, src, message):
                self._fs.append(self.handle, frame(message))
                self._fs.fsync(self.handle)
                super().send(src, ("ack",))
        """
    )
    assert rules_of(source, "repro/net/scratch.py") == []


def test_rd02_list_append_is_not_a_persistence_point():
    """``self.offsets.append`` must not satisfy the durability rule —
    "fs" inside an unrelated name is a list, not a disk."""
    source = textwrap.dedent(
        """\
        class Sneaky(_DurableRole):
            def on_message(self, src, message):
                self.offsets.append(message)
                super().send(src, ("ack",))
        """
    )
    assert rules_of(source, "repro/net/scratch.py") == ["RD02"]


def test_rd02_delegating_subclass_is_clean():
    """super().on_message persists on the subclass's behalf."""
    source = textwrap.dedent(
        """\
        class Chatty(_DurableRole):
            def on_message(self, src, message):
                super().on_message(src, message)
                super().send(src, ("also",))
        """
    )
    assert rules_of(source, "repro/net/scratch.py") == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------


def test_trailing_suppression_comment():
    source = "import time\nstamp = time.time()  # repro: disable=RD01\n"
    active, suppressed = analyze_source(source, "repro/mp/scratch.py")
    assert active == []
    assert [f.rule for f in suppressed] == ["RD01"]


def test_standalone_suppression_shields_next_line():
    source = (
        "import time\n"
        "# repro: disable=RD01\n"
        "stamp = time.time()\n"
    )
    active, suppressed = analyze_source(source, "repro/mp/scratch.py")
    assert active == []
    assert [f.rule for f in suppressed] == ["RD01"]


def test_suppression_is_rule_specific():
    source = "import time\nstamp = time.time()  # repro: disable=RD05\n"
    active, suppressed = analyze_source(source, "repro/mp/scratch.py")
    assert [f.rule for f in active] == ["RD01"]
    assert suppressed == []


def test_pragma_text_in_a_string_suppresses_nothing():
    source = 'import time\nstamp = (time.time(), "# repro: disable=RD01")\n'
    active, suppressed = analyze_source(source, "repro/mp/scratch.py")
    assert [f.rule for f in active] == ["RD01"]
    assert suppressed == []


# ----------------------------------------------------------------------
# fixture trees
# ----------------------------------------------------------------------

BAD_MODULE = "import time\n\n\ndef stamp():\n    return time.time()\n"


def write_tree(root, files):
    for relpath, source in files.items():
        path = os.path.join(root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(source)


# ----------------------------------------------------------------------
# the self-hosting gate: the committed tree lints clean
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tree_report():
    return run_lint([SRC])


def test_tree_is_clean(tree_report):
    assert tree_report.checked_files > 50
    assert tree_report.parse_errors == []
    assert tree_report.findings == [], "\n" + tree_report.to_text()


def test_committed_suppressions_are_pinned(tree_report):
    """Every accepted finding in the tree, so adding an inline
    suppression shows up as a diff of this list under review."""
    assert [(f.path, f.rule) for f in tree_report.suppressed] == [
        ("repro/smr/replica.py", "RD07")
    ]


def test_every_definition_is_named_somewhere_else():
    """No function, class or method under ``src/repro`` that nothing
    calls, tests or documents: each name occurs in ``src/``, ``tests/``,
    ``benchmarks/``, ``examples/`` or ``docs/`` more often than it is
    defined.  Exempt are names a framework calls for us: ``@register``ed
    lint rules, ``asyncio.Protocol`` callbacks and dunders."""
    import ast
    import asyncio
    import re
    from collections import Counter

    mentions = Counter()
    for tree in ("src", "tests", "benchmarks", "examples", "docs"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, tree)):
            for name in files:
                if name.endswith((".py", ".md")):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as handle:
                        mentions.update(re.findall(r"\w+", handle.read()))
    exempt = set(dir(asyncio.Protocol))
    defined = Counter()
    where = {}
    for dirpath, _, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as handle:
                module = ast.parse(handle.read())
            for node in ast.walk(module):
                if not isinstance(
                    node,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                if any(
                    isinstance(d, ast.Name) and d.id == "register"
                    for d in node.decorator_list
                ):
                    exempt.add(node.name)
                defined[node.name] += 1
                where[node.name] = (
                    f"{node.name} ({os.path.relpath(path, ROOT)}:{node.lineno})"
                )
    unnamed = sorted(
        where[name]
        for name, count in defined.items()
        if mentions[name] <= count
        and name not in exempt
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert unnamed == [], "defined but never named elsewhere: " + ", ".join(
        unnamed
    )


#: the packages a running system is built from; ``core/``, ``ioa/`` and
#: ``sm/`` are the paper's executable theory, which exists to be tested
SYSTEM_LAYERS = ("analysis", "faults", "monitor", "mp", "net", "smr")

#: reached on purpose only by tests and campaigns: the test double's
#: fault knobs, and the reference spec with the table methods it uses
TEST_ONLY = {
    "FaultyFS", "sessioned_adt", "SessionTable.snapshot",
    "SessionTable.restore",
}


def _definitions(body, prefix=""):
    """``(qualified name, node)`` of every def and class in ``body``."""
    import ast

    for node in body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            yield prefix + node.name, node
            yield from _definitions(node.body, f"{prefix}{node.name}.")


def test_nothing_in_the_system_layers_is_reached_only_by_tests():
    """Every function, class and method of the system layers and
    ``__main__`` is reached by code in ``src/``, ``benchmarks/`` or
    ``examples/``: an AST name, attribute or import alias names it.
    What only ``tests/`` reach goes.  Exempt are names a framework calls
    (dunders, ``asyncio.BufferedProtocol`` callbacks, ``@register``ed rules),
    ``typing.Protocol`` classes, ``faults/mutants.py`` and
    :data:`TEST_ONLY`."""
    import ast
    import asyncio
    from collections import Counter

    reached = Counter()
    for tree in ("src", "benchmarks", "examples"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, tree)):
            for name in files:
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    module = ast.parse(f.read())
                for node in ast.walk(module):
                    if isinstance(node, ast.Name):
                        reached[node.id] += 1
                    elif isinstance(node, ast.Attribute):
                        reached[node.attr] += 1
                    elif isinstance(node, ast.alias):
                        reached[node.name.rsplit(".", 1)[-1]] += 1
    package = os.path.join(SRC, "repro")
    paths = [os.path.join(package, "__main__.py")]
    for layer in SYSTEM_LAYERS:
        for dirpath, _, files in os.walk(os.path.join(package, layer)):
            paths += [os.path.join(dirpath, f) for f in files if f.endswith(".py")]
    callbacks = set(dir(asyncio.BufferedProtocol))
    unreached = []
    for path in sorted(paths):
        relpath = os.path.relpath(path, SRC)
        if relpath == os.path.join("repro", "faults", "mutants.py"):
            continue
        with open(path, encoding="utf-8") as f:
            module = ast.parse(f.read())
        protocols = {
            node.name
            for node in module.body
            if isinstance(node, ast.ClassDef)
            and any(getattr(b, "id", None) == "Protocol" for b in node.bases)
        }
        for qualname, node in _definitions(module.body):
            parts = qualname.split(".")
            if (
                reached[node.name]
                or node.name in callbacks
                or (node.name.startswith("__") and node.name.endswith("__"))
                or any(getattr(d, "id", None) == "register"
                       for d in node.decorator_list)
                or parts[0] in protocols
                or any(".".join(parts[:i]) in TEST_ONLY
                       for i in range(1, len(parts) + 1))
            ):
                continue
            unreached.append(f"{qualname} ({relpath}:{node.lineno})")
    assert unreached == [], "reached only by tests: " + ", ".join(unreached)


FACADES = ("analysis", "core", "faults", "ioa", "monitor", "mp", "net", "sm",
           "smr")


def _dotted_facade_names(text):
    """``(facade, name)`` for every dotted ``repro.<facade>.name``."""
    import re

    return set(re.findall(r"\brepro\.(%s)\.(\w+)" % "|".join(FACADES), text))


def _imports_through_facades(source, package=""):
    """``(facade, name)`` for every ``from repro.<facade> import name``
    in ``source`` (relative forms resolved against ``package``) and
    every dotted ``repro.<facade>.name`` in its text."""
    import ast

    found = _dotted_facade_names(source)
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = node.module.split(".") if node.module else []
        if node.level:
            base = package.split(".")
            parts = base[: len(base) - node.level + 1] + parts
        if len(parts) == 2 and parts[0] == "repro" and parts[1] in FACADES:
            found.update((parts[1], alias.name) for alias in node.names)
    return found


def test_every_reexport_is_imported_through_its_package():
    """A package ``__init__`` re-exports a name only if something
    imports it through the package: a ``from repro.<pkg> import X``
    (relative inside ``src/``) or a dotted ``repro.<pkg>.X`` in code,
    in the docs (prose or python blocks), or in a CI heredoc.
    Everything else is imported from its defining module."""
    import ast
    import re

    facade_inits = {f"repro.{facade}" for facade in FACADES}
    used = set()
    for tree in ("src", "tests", "benchmarks", "examples"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, tree)):
            for name in files:
                if not name.endswith(".py"):
                    continue
                package = ""
                if tree == "src":
                    package = os.path.relpath(dirpath, SRC).replace(os.sep, ".")
                    if name == "__init__.py" and package in facade_inits:
                        continue
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    used |= _imports_through_facades(f.read(), package)
    docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + [
        os.path.join("docs", name)
        for name in os.listdir(os.path.join(ROOT, "docs"))
        if name.endswith(".md")  # docs/perf-runs/ holds run data
    ]
    for doc in docs:
        with open(os.path.join(ROOT, doc), encoding="utf-8") as handle:
            text = handle.read()
        used |= _dotted_facade_names(text)
        for block in re.findall(r"```python\n(.*?)```", text, re.S):
            used |= _imports_through_facades(block)
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml")) as f:
        for block in re.findall(r"<<'EOF'\n(.*?)\n\s*EOF\n", f.read(), re.S):
            used |= _imports_through_facades(textwrap.dedent(block))
    unused = []
    for facade in FACADES:
        path = os.path.join(SRC, "repro", facade, "__init__.py")
        with open(path, encoding="utf-8") as handle:
            module = ast.parse(handle.read())
        for node in module.body:
            if isinstance(node, ast.ImportFrom):
                unused += [
                    f"repro.{facade}.{alias.name}"
                    for alias in node.names
                    if (facade, alias.name) not in used
                ]
    assert unused == [], "re-exported but never imported through: " + (
        ", ".join(unused)
    )


def test_the_trace_theory_loads_alone():
    """``import repro.core.traces`` (the paper's Sections 3-5) loads no
    ``repro`` module outside ``repro.core``: no simulator, SMR stack,
    monitor or wire runtime behind a package facade."""
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.core.traces; "
            "print(' '.join(m for m in sys.modules if m.startswith('repro.')))",
        ],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": SRC},
    ).stdout.split()
    assert "repro.core.traces" in loaded
    assert [m for m in loaded if not m.startswith("repro.core")] == []


def test_package_relpath_normalizes_to_package_root():
    assert (
        package_relpath(os.path.join(SRC, "repro", "mp", "sim.py"))
        == "repro/mp/sim.py"
    )
    assert package_relpath("repro/net/node.py") == "repro/net/node.py"
    assert package_relpath("./scratch.py") == "scratch.py"


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------


def run_cli(*args, timeout=120):
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )


def test_cli_full_tree_is_clean():
    result = run_cli()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 findings" in result.stdout


def test_cli_reports_findings_as_json(tmp_path):
    write_tree(str(tmp_path), {"repro/mp/bad.py": BAD_MODULE})
    result = run_cli(str(tmp_path), "--format", "json")
    assert result.returncode == 1
    data = json.loads(result.stdout)
    assert data["summary"]["clean"] is False
    assert data["findings"][0]["rule"] == "RD01"
    assert data["findings"][0]["path"] == "repro/mp/bad.py"
    assert data["findings"][0]["hint"]


def test_cli_text_report_names_rule_and_location(tmp_path):
    write_tree(str(tmp_path), {"repro/mp/bad.py": BAD_MODULE})
    result = run_cli(str(tmp_path))
    assert result.returncode == 1
    assert "repro/mp/bad.py:5" in result.stdout
    assert "RD01" in result.stdout


# ----------------------------------------------------------------------
# the CLI: --rules, --explain
# ----------------------------------------------------------------------


def test_cli_rules_filter_limits_the_active_set(tmp_path):
    write_tree(str(tmp_path), {"repro/mp/bad.py": BAD_MODULE})
    result = run_cli(str(tmp_path), "--rules", "RD05")
    assert result.returncode == 0, result.stdout + result.stderr
    result = run_cli(str(tmp_path), "--rules", "RD01,RD05")
    assert result.returncode == 1
    assert "RD01" in result.stdout


def test_cli_unknown_rule_id_is_a_usage_error(tmp_path):
    result = run_cli(str(tmp_path), "--rules", "RD42")
    assert result.returncode == 2
    assert "unknown rule 'RD42'" in result.stderr
    assert "Traceback" not in result.stderr


def test_cli_explain_renders_doc_and_examples():
    result = run_cli("--explain", "RD08")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "RD08" in result.stdout
    assert "bad:" in result.stdout
    assert "good:" in result.stdout
    assert "applies to:" in result.stdout


@pytest.mark.parametrize("rule", sorted(rule_ids()))
def test_cli_explain_covers_every_rule(rule):
    result = run_cli("--explain", rule)
    assert result.returncode == 0, result.stdout + result.stderr
    assert rule in result.stdout
    assert "bad:" in result.stdout


def test_cli_explain_unknown_rule_exits_2():
    result = run_cli("--explain", "RD42")
    assert result.returncode == 2
    assert "unknown rule 'RD42'" in result.stderr


def test_cli_deep_reports_interprocedural_findings_as_json(tmp_path):
    racy = (
        "class P:\n"
        "    async def claim(self):\n"
        "        slot = self._next_slot\n"
        "        await self._flush()\n"
        "        self._next_slot = slot + 1\n"
    )
    write_tree(str(tmp_path), {"repro/net/racy.py": racy})
    result = run_cli(str(tmp_path), "--format", "json")
    assert result.returncode == 1
    data = json.loads(result.stdout)
    assert "deep" not in data["summary"]
    assert [f["rule"] for f in data["findings"]] == ["RD08"]


def test_cli_names_rd09_and_the_rows_reason(tmp_path):
    write_tree(
        str(tmp_path),
        {"repro/net/client.py": "from ..faults import FaultSchedule\n"},
    )
    result = run_cli(str(tmp_path))
    assert result.returncode == 1
    assert "repro/net/client.py:1:0: RD09 import of repro.faults" in result.stdout
    assert "a wire process never loads the simulator campaign" in result.stdout


def test_cli_has_one_mode_and_refuses_the_old_flag():
    result = run_cli("--deep")
    assert result.returncode == 2
    assert "unrecognized arguments: --deep" in result.stderr


def test_cli_deep_self_hosts_clean():
    """The pass (call graph + RD08 + path-sensitive RD02 + the RD09
    architecture table) finds nothing in the committed tree — the
    self-hosting gate CI enforces."""
    result = run_cli()
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 findings" in result.stdout
