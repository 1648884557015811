"""Tests for the interprocedural dataflow engine and the RD08 race pass.

Three layers, mirroring docs/ANALYSIS.md:

* the engine primitives — statement-level CFG construction
  (``repro.analysis.cfg``), the generic fixpoint solver
  (``repro.analysis.dataflow``) and the project call graph with
  may-suspend summaries (``repro.analysis.callgraph``);
* the rules built on them — RD08 (read-modify-write of shared state
  across an ``await``) with its known-bad fixtures and near-misses,
  the path-sensitive RD02 rewrite, and inline suppressions over
  multi-line constructs;
* the runtime cross-check — the interleaving sanitizer
  (``repro.analysis.sanitizer``) unit-tested directly, the race mutant
  injected into a scratch copy of the real ``net/pipeline.py`` caught
  statically, and the live ``RacySlotPipeline`` campaign caught
  dynamically.
"""

import ast
import asyncio
import os
import textwrap

import pytest

from repro.analysis import (
    analyze_source,
    build_cfg,
    build_project,
    run_lint,
    solve,
)
from repro.analysis import sanitizer
from repro.analysis.callgraph import CallGraph
from repro.analysis.dataflow import SetUnionAnalysis
from repro.analysis.sanitizer import InterleaveError, atomic_section

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src")
PIPELINE_PY = os.path.join(SRC, "repro", "net", "pipeline.py")


def function_cfg(source, name=None):
    """Build the CFG of the first (or named) function in ``source``."""
    tree = ast.parse(textwrap.dedent(source))
    funcs = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    func = (
        funcs[0]
        if name is None
        else next(f for f in funcs if f.name == name)
    )
    return build_cfg(func)


def deep_findings(source, relpath="repro/net/scratch.py"):
    """(active, suppressed) findings with a single-module project."""
    src = textwrap.dedent(source)
    project = build_project([(relpath, ast.parse(src))])
    return analyze_source(src, relpath, project=project)


def deep_rules_of(source, relpath="repro/net/scratch.py"):
    active, _ = deep_findings(source, relpath)
    return [finding.rule for finding in active]


# ----------------------------------------------------------------------
# the CFG builder
# ----------------------------------------------------------------------


def test_cfg_linear_statements_chain():
    cfg = function_cfg(
        """
        def f():
            a = 1
            b = a + 1
            return b
        """
    )
    stmts = list(cfg.statement_nodes())
    assert len(stmts) == 3
    # entry -> a -> b -> return -> exit, one path
    assert cfg.nodes[cfg.entry].succ == [stmts[0].index]
    assert stmts[0].succ == [stmts[1].index]
    assert stmts[1].succ == [stmts[2].index]
    assert stmts[2].succ == [cfg.exit]
    assert not cfg.has_suspension


def test_cfg_if_without_else_keeps_the_skip_path():
    """``if`` with no ``else`` must leave a fall-through edge — the

    path sensitivity RD02 relies on (the branch may not execute)."""
    cfg = function_cfg(
        """
        def f(x):
            if x:
                x = x + 1
            return x
        """
    )
    test = next(n for n in cfg.statement_nodes() if n.kind == "test")
    ret = next(
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Return)
    )
    body = next(
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Assign)
    )
    assert set(test.succ) == {body.index, ret.index}
    assert set(ret.pred) == {body.index, test.index}


def test_cfg_while_has_a_back_edge():
    cfg = function_cfg(
        """
        def f(x):
            while x:
                x = x - 1
            return x
        """
    )
    test = next(n for n in cfg.statement_nodes() if n.kind == "test")
    body = next(
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Assign)
    )
    assert test.index in body.succ  # loop back edge
    assert body.index in test.succ


def test_cfg_marks_awaits_as_suspensions():
    cfg = function_cfg(
        """
        async def f(self):
            x = 1
            await self.flush()
            return x
        """
    )
    assert cfg.has_suspension
    suspending = [n for n in cfg.statement_nodes() if n.suspensions]
    assert len(suspending) == 1
    assert suspending[0].suspensions[0].kind == "await"


def test_cfg_lock_shaped_with_marks_guarded_region():
    cfg = function_cfg(
        """
        async def f(self):
            async with self._lock:
                await self.flush()
            await self.other()
        """
    )
    stmts = [n for n in cfg.statement_nodes() if n.kind == "stmt"]
    inside = next(n for n in stmts if n.line == 4)  # await self.flush()
    outside = next(n for n in stmts if n.line == 5)  # await self.other()
    assert inside.guarded and inside.suspensions
    assert not outside.guarded and outside.suspensions


def test_cfg_atomic_section_marks_atomic_region():
    cfg = function_cfg(
        """
        def f(self):
            with atomic_section(self, "claim"):
                self.x = 1
            self.y = 2
        """
    )
    atomic = [
        n
        for n in cfg.statement_nodes()
        if n.atomic and isinstance(n.stmt, ast.Assign)
    ]
    assert len(atomic) == 1


# ----------------------------------------------------------------------
# the fixpoint solver
# ----------------------------------------------------------------------


class _AssignedNames(SetUnionAnalysis):
    """Forward may-analysis: names assigned on some path so far."""

    def transfer(self, node, fact):
        for expr in [node.stmt] if node.kind == "stmt" else []:
            if isinstance(expr, ast.Assign):
                for target in expr.targets:
                    if isinstance(target, ast.Name):
                        fact = fact | {target.id}
        return fact


def test_solver_joins_facts_over_branches_and_loops():
    cfg = function_cfg(
        """
        def f(flag):
            if flag:
                a = 1
            else:
                b = 2
            while flag:
                c = 3
            return 0
        """
    )
    _, exit_facts = solve(cfg, _AssignedNames())
    assert exit_facts[cfg.exit] == frozenset({"a", "b", "c"})
    # at the return, both branch facts have joined
    ret = next(
        n for n in cfg.statement_nodes() if isinstance(n.stmt, ast.Return)
    )
    entry_facts, _ = solve(cfg, _AssignedNames())
    assert {"a", "b"} <= set(entry_facts[ret.index])


# ----------------------------------------------------------------------
# the call graph: may-suspend summaries
# ----------------------------------------------------------------------


def callgraph_of(source):
    graph = CallGraph()
    graph.add_module("repro/net/scratch.py", ast.parse(textwrap.dedent(source)))
    graph.compute_summaries()
    return graph


def test_async_function_with_no_awaits_does_not_suspend():
    graph = callgraph_of(
        """
        async def noop():
            return 1
        """
    )
    assert graph.name_may_suspend("noop") is False


def test_suspension_propagates_through_the_call_chain():
    graph = callgraph_of(
        """
        import asyncio

        async def leaf():
            await asyncio.sleep(0)

        async def mid():
            await leaf()

        async def top():
            await mid()
        """
    )
    assert graph.name_may_suspend("leaf") is True
    assert graph.name_may_suspend("mid") is True
    assert graph.name_may_suspend("top") is True


def test_unknown_callee_is_conservatively_suspending():
    graph = callgraph_of("async def f():\n    return 1\n")
    assert graph.name_may_suspend("somewhere_else") is True


# ----------------------------------------------------------------------
# RD08: known-bad fixtures (the seeded canaries) and near-misses
# ----------------------------------------------------------------------

RD08_BAD = [
    # the classic: read, suspend, write the stale value back
    """
    class P:
        async def claim(self):
            slot = self._next_slot
            await self._flush()
            self._next_slot = slot + 1
            return slot
    """,
    # one statement that reads, awaits and writes back
    """
    class P:
        async def bump(self):
            self.total = self.total + await self._fetch()
    """,
    # module-global read-modify-write across an await
    """
    import asyncio

    PENDING = 0

    class P:
        async def tick(self):
            global PENDING
            count = PENDING
            await asyncio.sleep(0)
            PENDING = count + 1
    """,
    # stale arithmetic on an attribute snapshot
    """
    class P:
        async def drain(self):
            backlog = self.backlog
            await self._io()
            self.backlog = backlog - 1
    """,
    # a call after the await vouches for nothing, not even the name of
    # the sanitizer's removed check: only a re-read, a re-validation, a
    # lock or an inline pragma accepts the window
    """
    from repro.analysis.sanitizer import assert_no_interleave

    class P:
        async def claim(self):
            slot = self._next_slot
            await self._flush()
            assert_no_interleave(self)
            self._next_slot = slot + 1
            return slot
    """,
]

RD08_GOOD = [
    # re-read after the suspension: the taint is re-validated
    """
    class P:
        async def claim(self):
            slot = self._next_slot
            await self._flush()
            slot = self._next_slot
            self._next_slot = slot + 1
            return slot
    """,
    # the whole window is under a lock-shaped guard
    """
    class P:
        async def claim(self):
            async with self._lock:
                slot = self._next_slot
                await self._flush()
                self._next_slot = slot + 1
            return slot
    """,
    # the awaited helper provably cannot suspend (call-graph summary)
    """
    class P:
        async def _noop(self):
            return 1

        async def claim(self):
            slot = self._next_slot
            await self._noop()
            self._next_slot = slot + 1
            return slot
    """,
    # a test of the location re-validates before the write
    """
    class P:
        async def claim(self):
            slot = self._next_slot
            await self._flush()
            if self._next_slot != slot:
                return None
            self._next_slot = slot + 1
            return slot
    """,
]


@pytest.mark.parametrize("source", RD08_BAD)
def test_rd08_bad_fixture_is_caught(source):
    assert "RD08" in deep_rules_of(source)


@pytest.mark.parametrize("source", RD08_GOOD)
def test_rd08_near_miss_stays_clean(source):
    assert deep_rules_of(source) == []


def test_rd08_names_the_location_and_variable():
    active, _ = deep_findings(RD08_BAD[0])
    finding = next(f for f in active if f.rule == "RD08")
    assert "self._next_slot" in finding.message
    assert "'slot'" in finding.message
    assert "spans an await" in finding.message


def test_rd08_flags_await_inside_atomic_section():
    active, _ = deep_findings(
        """
        from repro.analysis.sanitizer import atomic_section

        class P:
            async def claim(self):
                with atomic_section(self, "slot-claim"):
                    slot = self._next_slot
                    await self._flush()
                    self._next_slot = slot + 1
        """
    )
    messages = [f.message for f in active if f.rule == "RD08"]
    assert any("atomic_section" in m for m in messages)


def test_rd08_on_a_lone_snippet_assumes_every_call_suspends():
    """No call graph (``analyze_source`` alone): the rule still runs,
    and an await it cannot resolve counts as a suspension."""
    source = textwrap.dedent(RD08_BAD[0])
    active, _ = analyze_source(source, "repro/net/scratch.py")
    assert "RD08" in [f.rule for f in active]


def test_rd08_is_scoped_to_runtime_layers():
    """The same racy shape in an out-of-scope layer is not flagged."""
    assert deep_rules_of(RD08_BAD[0], "repro/faults/scratch.py") == []


# ----------------------------------------------------------------------
# RD02 as a path property (the typestate rewrite)
# ----------------------------------------------------------------------


def test_rd02_flags_reply_reachable_on_an_append_free_path():
    """One branch replies without persisting: only a path-sensitive

    analysis sees that the append does not dominate the reply."""
    active, _ = deep_findings(
        """
        class Hasty(_DurableRole):
            durable_attrs = ("value",)

            def on_message(self, src, msg):
                if msg[0] == "read":
                    super().send(src, ("value", self.value))
                    return
                self._wal.record(("set", msg[1]))
                self.value = msg[1]
                super().send(src, ("ok", msg[1]))
        """
    )
    rd02 = [f for f in active if f.rule == "RD02"]
    assert len(rd02) == 1
    assert "before the WAL append" in rd02[0].message


def test_rd02_every_path_persisting_is_clean():
    active, _ = deep_findings(
        """
        class Careful(_DurableRole):
            durable_attrs = ("value",)

            def on_message(self, src, msg):
                if msg[0] == "read":
                    self._wal.record(("read", msg[1]))
                    super().send(src, ("value", self.value))
                    return
                self._wal.record(("set", msg[1]))
                self.value = msg[1]
                super().send(src, ("ok", msg[1]))
        """
    )
    assert [f.rule for f in active] == []


# ----------------------------------------------------------------------
# suppressions over multi-line constructs
# ----------------------------------------------------------------------


def test_inline_disable_on_first_line_of_multiline_write():
    active, suppressed = deep_findings(
        """
        class P:
            async def claim(self):
                slot = self._next_slot
                await self._flush()
                self._next_slot = (  # repro: disable=RD08
                    slot + 1
                )
        """
    )
    assert active == []
    assert [f.rule for f in suppressed] == ["RD08"]


def test_inline_disable_on_last_line_of_multiline_write():
    """The finding spans line..end_line; a disable anywhere in the

    span silences it — trailing comments on the closing paren work."""
    active, suppressed = deep_findings(
        """
        class P:
            async def claim(self):
                slot = self._next_slot
                await self._flush()
                self._next_slot = (
                    slot + 1
                )  # repro: disable=RD08
        """
    )
    assert active == []
    assert [f.rule for f in suppressed] == ["RD08"]
    assert suppressed[0].end_line > suppressed[0].line


# ----------------------------------------------------------------------
# the injected race mutant: a scratch copy of the real pipeline
# ----------------------------------------------------------------------

def _write_tree(root, files):
    for relpath, source in files.items():
        path = os.path.join(root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(source)


RACY_CLAIM = '''\
    async def _racy_claim(self) -> int:
        slot = self._next_slot
        await asyncio.sleep(0)
        self._next_slot = slot + 1
        return slot

'''

PIPELINE_ANCHOR = "    def _scheduled_pump(self) -> None:"


def test_race_mutant_in_pipeline_copy_is_caught(tmp_path):
    """Textually inject the racy claim into a copy of the *real*

    ``net/pipeline.py``: deep lint must flag the mutant and stay
    silent on the pristine copy (the end-to-end RD08 canary)."""
    with open(PIPELINE_PY) as handle:
        source = handle.read()
    assert PIPELINE_ANCHOR in source

    tree = str(tmp_path / "tree")
    _write_tree(tree, {"repro/net/pipeline.py": source})
    report = run_lint([tree])
    assert report.findings == [], "\n" + report.to_text()

    mutated = source.replace(PIPELINE_ANCHOR, RACY_CLAIM + PIPELINE_ANCHOR)
    assert mutated != source
    _write_tree(tree, {"repro/net/pipeline.py": mutated})
    report = run_lint([tree])
    rd08 = [f for f in report.findings if f.rule == "RD08"]
    assert len(rd08) == 1
    assert "self._next_slot" in rd08[0].message
    assert rd08[0].path == "repro/net/pipeline.py"


# ----------------------------------------------------------------------
# the runtime sanitizer
# ----------------------------------------------------------------------


@pytest.fixture
def armed():
    """The sanitizer, enabled and clean, restored after the test."""
    was = sanitizer.enabled()
    sanitizer.reset()
    sanitizer.enable()
    yield sanitizer
    if not was:
        sanitizer.disable()
    sanitizer.reset()


def test_sanitizer_is_a_noop_when_disabled():
    assert not sanitizer.enabled()
    obj = object()
    with atomic_section(obj, "crit"):
        pass
    assert sanitizer.violations() == []


def test_intruding_task_raises_and_is_recorded(armed):
    obj = object()

    async def scenario():
        async def holder():
            with atomic_section(obj, "crit"):
                await asyncio.sleep(0.05)

        async def intruder():
            await asyncio.sleep(0.01)
            with atomic_section(obj, "crit"):
                pass

        t1 = asyncio.get_running_loop().create_task(holder(), name="holder")
        t2 = asyncio.get_running_loop().create_task(
            intruder(), name="intruder"
        )
        await asyncio.gather(t1, t2)

    with pytest.raises(InterleaveError):
        asyncio.run(scenario())
    violations = sanitizer.violations()
    assert len(violations) == 1
    assert violations[0].holder == "holder"
    assert violations[0].intruder == "intruder"
    assert "crit" in violations[0].format()


def test_same_task_reentry_is_allowed(armed):
    obj = object()
    with atomic_section(obj, "crit"):
        with atomic_section(obj, "crit"):
            pass
    assert sanitizer.violations() == []


def test_decorator_guards_the_whole_async_call(armed):
    class Counter:
        def __init__(self):
            self.value = 0

        @atomic_section
        async def bump(self):
            claimed = self.value
            await asyncio.sleep(0.02)
            self.value = claimed + 1

    counter = Counter()

    async def scenario():
        await asyncio.gather(counter.bump(), counter.bump())

    with pytest.raises(InterleaveError):
        asyncio.run(scenario())
    assert len(sanitizer.violations()) == 1


def test_reset_clears_recorded_violations(armed):
    obj = object()

    async def scenario():
        async def holder():
            with atomic_section(obj, "crit"):
                await asyncio.sleep(0.02)

        async def intruder():
            with atomic_section(obj, "crit"):
                pass

        loop = asyncio.get_running_loop()
        held = loop.create_task(holder())
        await asyncio.sleep(0)
        await asyncio.gather(held, loop.create_task(intruder()))

    with pytest.raises(InterleaveError):
        asyncio.run(scenario())
    assert len(sanitizer.violations()) == 1
    sanitizer.reset()
    assert sanitizer.violations() == []


# ----------------------------------------------------------------------
# the live cross-check: RacySlotPipeline under the armed sanitizer
# ----------------------------------------------------------------------


def _quiet_campaign(**kwargs):
    from repro.faults import FaultSchedule, run_net_campaign

    return run_net_campaign(
        schedules=[FaultSchedule(seed=3, actions=(), horizon=1.0)],
        ops_per_client=3,
        shrink=False,
        emit=lambda *_: None,
        **kwargs,
    )


def test_race_mutant_campaign_is_caught_live():
    report = _quiet_campaign(race_mutant=True)
    run = report.runs[0]
    assert run.race_mutant and run.sanitized
    assert run.sanitizer_caught
    assert run.sanitizer_violations > 0
    assert run.to_jsonable()["sanitizer_violations"] > 0
    assert "race-mutant" in run.line() and "sanitizer=" in run.line()


def test_clean_pipeline_records_no_interleavings():
    report = _quiet_campaign(pipelined=True)
    run = report.runs[0]
    assert run.sanitized and not run.race_mutant
    assert run.sanitizer_violations == 0
    assert not run.sanitizer_caught
