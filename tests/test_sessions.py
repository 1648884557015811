"""Exactly-once client sessions (`repro.smr.sessions` and friends).

The session seam is the safety half of safe retry: a command that
decided in two slots — retried proposal, hedged duplicate, redelivered
frame — must apply once and answer the same reply everywhere.  These
tests cover the seam in isolation (table, applier, spec-level ADT
wrapper), its durability by inheritance (a WAL-recovered decided log
refolds to the same state and replies, through compaction), the wire
level (duplicate-delivery bursts on both codecs must not re-apply a
decree), and the overload edge (typed ``Overloaded`` before any
invocation is recorded, circuit breaker state machine, per-client
backoff copies).
"""

import asyncio

import pytest

from repro.core.adt import counter_adt
from repro.core.fastcheck import check_linearizable
from repro.faults.mutants import DoubleApplier
from repro.net.netfaults import TransportFaults
from repro.mp.backoff import BackoffPolicy
from repro.net.client import DEFAULT_BACKOFF, HistoryRecorder
from repro.net.cluster import ShardedCluster
from repro.net.overload import (
    CircuitBreaker,
    DEFAULT_FAILURE_THRESHOLD,
    DEFAULT_RESET_AFTER,
    Overloaded,
)
from repro.net.pipeline import PipelineClient, SlotPipeline, probing_client
from repro.net.wal import NodeWAL
from repro.smr.sessions import (
    SessionTable,
    SessionedApplier,
    dedup_commands,
    seq_uid,
    sessioned_adt,
    untag_command,
)
from repro.smr.universal import batch_commands


def tag(command, client, seq):
    return command + (("seq", (client, seq)),)


# ---------------------------------------------------------------------------
# the session vocabulary: uids, untagging, stream dedup
# ---------------------------------------------------------------------------


class TestSessionVocabulary:
    def test_seq_uid_roundtrip(self):
        tagged = tag(("inc", 1), "c1", 4)
        assert seq_uid(tagged) == ("c1", 4)
        assert untag_command(tagged) == ("inc", 1)

    def test_untagged_commands_have_no_identity(self):
        assert seq_uid(("inc", 1)) is None
        assert untag_command(("inc", 1)) == ("inc", 1)
        assert seq_uid(("put", "k", ("seq", "lookalike"))) is None

    def test_dedup_commands_first_occurrence_wins(self):
        a1 = tag(("inc", 1), "a", 1)
        b1 = tag(("inc", 1), "b", 1)
        stream = [a1, b1, a1, tag(("inc", 1), "a", 2), b1, ("inc", 7)]
        deduped = list(dedup_commands(stream))
        assert deduped == [a1, b1, tag(("inc", 1), "a", 2), ("inc", 7)]


# ---------------------------------------------------------------------------
# the table and the applier
# ---------------------------------------------------------------------------


class TestSessionTable:
    def test_duplicate_suppressed_with_cached_reply(self):
        table = SessionTable()
        uid = ("c1", 1)
        assert table.seen(uid) is None
        table.store(uid, ("count", 0))
        assert table.seen(uid) == (1, ("count", 0))
        assert table.duplicates == 1
        assert len(table) == 1

    def test_older_seq_is_duplicate_newer_is_fresh(self):
        table = SessionTable()
        table.store(("c1", 3), ("count", 2))
        assert table.seen(("c1", 2)) is not None
        assert table.seen(("c1", 4)) is None

    def test_snapshot_restore_roundtrip(self):
        table = SessionTable()
        table.store(("c2", 5), ("count", 4))
        table.store(("c1", 1), ("count", 0))
        restored = SessionTable.restore(table.snapshot())
        assert restored.snapshot() == table.snapshot()
        assert restored.seen(("c2", 5)) is not None

    def test_disabled_table_is_the_mutant(self):
        applier = DoubleApplier(counter_adt())
        op = tag(("inc", 1), "c1", 1)
        state, reply, fresh = applier.apply(0, op)
        state, reply, fresh = applier.apply(state, op)
        assert (state, reply, fresh) == (2, ("count", 1), True)  # double-apply
        assert applier.duplicates == 0


class TestSessionedApplier:
    def test_duplicate_leaves_state_and_answers_cached(self):
        applier = SessionedApplier(counter_adt())
        op = tag(("inc", 3), "c1", 1)
        state, reply, fresh = applier.apply(0, op)
        assert (state, reply, fresh) == (3, ("count", 0), True)
        state, reply, fresh = applier.apply(state, op)
        assert (state, reply, fresh) == (3, ("count", 0), False)
        assert applier.duplicates == 1

    def test_refold_rebuilds_the_same_table(self):
        """The table is a pure function of the decided prefix: a
        recovering applier refolding the same log agrees on state,
        replies and duplicates."""
        log = [
            tag(("inc", 1), "a", 1),
            tag(("inc", 2), "b", 1),
            tag(("inc", 1), "a", 1),
            tag(("inc", 5), "a", 2),
        ]

        def fold():
            applier = SessionedApplier(counter_adt())
            state, replies = 0, []
            for command in log:
                state, reply, _ = applier.apply(state, command)
                replies.append(reply)
            return state, replies, applier.table.snapshot()

        assert fold() == fold()
        state, replies, _ = fold()
        assert state == 8  # 1 + 2 + 5, the duplicate folded once
        assert replies[2] == replies[0]


class TestSessionedADT:
    def test_duplicate_input_is_a_noop_with_cached_output(self):
        adt = sessioned_adt(counter_adt())
        op = tag(("inc", 2), "c1", 1)
        state, out = adt.transition(adt.initial_state, op)
        assert out == ("count", 0)
        state2, out2 = adt.transition(state, op)
        assert state2 == state and out2 == ("count", 0)

    def test_untagged_input_passes_through(self):
        adt = sessioned_adt(counter_adt())
        state, out = adt.transition(adt.initial_state, ("inc", 2))
        assert out == ("count", 0) and state[0] == 2
        assert adt.is_input(tag(("inc", 1), "c", 1))
        assert adt.is_input(("cread",))
        assert not adt.is_input(("bogus",))


# ---------------------------------------------------------------------------
# durability by inheritance: the WAL'd decided log refolds identically
# ---------------------------------------------------------------------------


class TestSessionsSurviveRecovery:
    def _fold(self, decided):
        applier = SessionedApplier(counter_adt())
        state, replies = 0, {}
        for slot in sorted(decided):
            for command in batch_commands(decided[slot]):
                state, reply, _ = applier.apply(state, command)
                replies.setdefault(seq_uid(command), reply)
        return state, replies, applier.table.snapshot()

    def test_recovered_log_folds_to_the_same_sessions(self, tmp_path):
        """Kill-and-recover (and compact) preserves exactly-once: the
        session table needs no storage of its own because the decided
        log *is* the durable state."""
        decided = {
            0: tag(("inc", 1), "c1", 1),
            1: tag(("inc", 2), "c2", 1),
            2: tag(("inc", 1), "c1", 1),  # duplicate decree of slot 0
            3: tag(("inc", 4), "c1", 2),
        }
        wal = NodeWAL(str(tmp_path))
        for slot in (0, 1):
            wal.record_decided(slot, decided[slot])
        wal.compact()  # the duplicate's first occurrence is snapshotted
        for slot in (2, 3):
            wal.record_decided(slot, decided[slot])
        before = self._fold(dict(wal.state.decided))
        wal.close()

        recovered = NodeWAL(str(tmp_path))
        after = self._fold(dict(recovered.state.decided))
        recovered.close()
        assert after == before
        state, replies, snapshot = after
        assert state == 7  # 1 + 2 + 4: slot 2 folded as a duplicate
        assert replies[("c1", 1)] == ("count", 0)
        assert dict(
            (client, (seq, reply)) for client, seq, reply in snapshot
        ) == {"c1": (2, ("count", 3)), "c2": (1, ("count", 1))}


# ---------------------------------------------------------------------------
# the wire level: duplicate-delivery bursts on both codecs
# ---------------------------------------------------------------------------


class TestWireDuplicateDelivery:
    @pytest.mark.parametrize("codec", ["json", "binary"])
    def test_redelivered_frames_never_reapply(self, codec):
        """Under a heavy duplicate-delivery window every frame class —
        proposals, accepts, phase-2 broadcasts, decisions — may arrive
        twice.  Acked increments must still apply exactly once and the
        history must stay linearizable."""

        async def scenario():
            faults = TransportFaults(seed=13)
            faults.burst_duplicate(0.5, duration=30.0)
            cluster = ShardedCluster(n_servers=3, faults=faults, codec=codec)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "dup", 3, transport, adt=counter_adt(), quorum_timeout=0.15
            )
            clients = [
                PipelineClient(f"c{i}", pipeline, recorder, op_timeout=10.0)
                for i in range(3)
            ]

            async def drive(client):
                for _ in range(4):
                    await client.submit(("inc", 1))

            await asyncio.gather(*(drive(c) for c in clients))
            await cluster.stop()
            return faults, pipeline, recorder

        faults, pipeline, recorder = asyncio.run(scenario())
        assert faults.duplicated > 0  # the nemesis actually engaged
        # the counter's one cell: 3 clients x 4 acked incs, once each
        assert pipeline._state == {None: 12}
        assert check_linearizable(recorder.trace(), counter_adt()).ok


# ---------------------------------------------------------------------------
# overload: typed shedding before any invocation, breaker mechanics
# ---------------------------------------------------------------------------


class TestOverload:
    def test_admission_sheds_before_invocation(self):
        """A shed op is a per-op typed error: no invocation recorded,
        client not poisoned, next submit proceeds."""

        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline("adm", 3, transport)
            pipeline.max_queue = 0
            client = PipelineClient("c0", pipeline, recorder)
            with pytest.raises(Overloaded):
                await client.submit(("put", "k", "v"))
            shed_events = len(recorder.events)
            assert pipeline.shed == 1
            # relieve the pressure: the same client retries fine
            pipeline.max_queue = 8
            out = await client.submit(("put", "k", "v"))
            await cluster.stop()
            return shed_events, client, out, recorder

        shed_events, client, out, recorder = asyncio.run(scenario())
        assert shed_events == 0  # shed load leaves no history
        assert not client.poisoned
        assert out == ("value", None)
        assert recorder.pending_clients() == ()

    def test_open_breaker_sheds_typed(self):
        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline("brk", 3, transport)
            for _ in range(DEFAULT_FAILURE_THRESHOLD):
                pipeline.breaker.record_failure()  # as decree give-ups would
            client = PipelineClient("c0", pipeline, recorder)
            with pytest.raises(Overloaded):
                await client.submit(("put", "k", "v"))
            await cluster.stop()
            return recorder

        recorder = asyncio.run(scenario())
        assert recorder.events == []


class TestCircuitBreaker:
    def test_closed_until_threshold_then_open(self):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0])
        assert breaker.state == "closed"
        for _ in range(DEFAULT_FAILURE_THRESHOLD - 1):
            breaker.record_failure()
            assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_half_open_single_probe_then_close_or_reopen(self):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0])
        for _ in range(DEFAULT_FAILURE_THRESHOLD):
            breaker.record_failure()
        assert not breaker.allow()
        now[0] = 1.5 * DEFAULT_RESET_AFTER
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe claims the half-open slot
        assert not breaker.allow()  # concurrent admits stay shed
        breaker.record_failure()  # probe failed: straight back to open
        assert breaker.state == "open" and breaker.trips == 2
        now[0] = 3.0 * DEFAULT_RESET_AFTER
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(clock=lambda: 0.0)
        for _ in range(DEFAULT_FAILURE_THRESHOLD - 1):
            breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"


# ---------------------------------------------------------------------------
# the backoff-sharing regression (per-client policy copies)
# ---------------------------------------------------------------------------


class TestBackoffCopies:
    def test_clients_never_share_the_module_template(self):
        """Regression for the shared-module-instance bug: every client
        and every proposer (a probing client's own included) owns a
        private policy copy, never ``DEFAULT_BACKOFF`` itself."""

        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            a = probing_client("a", 3, transport, recorder)
            b = probing_client("b", 3, transport, recorder)
            pipeline = SlotPipeline("p", 3, transport)
            pc = PipelineClient("c", pipeline, recorder)
            await cluster.stop()
            return a, b, pipeline, pc

        a, b, pipeline, pc = asyncio.run(scenario())
        policies = [
            a.pipeline.backoff,
            b.pipeline.backoff,
            a.retry_backoff,
            b.retry_backoff,
            pipeline.backoff,
            pc.retry_backoff,
        ]
        assert all(p is not DEFAULT_BACKOFF for p in policies)
        assert len(set(map(id, policies))) == len(policies)
        # the copies still carry the template's parameters
        assert a.pipeline.backoff == DEFAULT_BACKOFF
        assert b.pipeline.backoff == DEFAULT_BACKOFF

    def test_explicit_policy_is_copied_not_aliased(self):
        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            shared = BackoffPolicy(base=0.1, max_retries=5)
            a = probing_client("a", 3, transport, recorder, backoff=shared)
            b = probing_client("b", 3, transport, recorder, backoff=shared)
            await cluster.stop()
            return shared, a.pipeline, b.pipeline

        shared, a, b = asyncio.run(scenario())
        assert a.backoff is not shared and b.backoff is not shared
        assert a.backoff is not b.backoff
        assert a.backoff.max_retries == 5
