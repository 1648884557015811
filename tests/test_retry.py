"""Safe retry, failover, hedging: the client liveness half of sessions.

The pre-session clients poisoned themselves on the first timeout.  With
the session seam making re-proposal safe, a timed-out attempt is
re-submitted with the *same* ``(client, seq)`` identity — so these
tests pin the recording discipline that makes retries sound: all
attempts of an op are **one** invocation (the post-hoc checker and the
streaming monitor must both agree), a hedged duplicate's second
response is ignored, and only an exhausted deadline leaves a pending
invocation and a poisoned identity with a working successor.  The
deterministic canary at the bottom proves the other direction: on the
double-apply mutant, a duplicate decree double-applies and *both* checkers
call the history a violation.
"""

import asyncio

import pytest

from repro.core.adt import counter_adt
from repro.core.fastcheck import check_linearizable
from repro.faults.mutants import DoubleApplyPipeline
from repro.net.netfaults import TransportFaults
from repro.monitor import MonitorTap, StreamingMonitor
from repro.mp.backoff import BackoffPolicy
from repro.net.client import (
    HistoryRecorder,
    OperationTimeout,
    RetriesExhausted,
)
from repro.net.cluster import ShardedCluster
from repro.net.codec import BinaryCodec
from repro.net.pipeline import PipelineClient, SlotPipeline

from helpers import client_timers, run_quiet

#: a patient per-op retry budget for tests that must survive a blackout
PATIENT = BackoffPolicy(base=0.05, factor=2.0, cap=0.3, jitter=0.5,
                        max_retries=10)


def blackout(faults, duration):
    """Cut the client endpoint off from every node for ``duration``."""
    for j in range(3):
        faults.partition("clients", f"node{j}", duration=duration)


def one_invocation(recorder, client, command):
    return [
        e for e in recorder.events
        if e[0] == "inv" and e[1] == client and e[2] == command
    ]


# ---------------------------------------------------------------------------
# retried op = exactly one invocation
# ---------------------------------------------------------------------------


class TestRetryIsOneInvocation:
    def test_pipeline_client_retries_through_a_blackout(self):
        async def scenario():
            faults = TransportFaults(seed=3)
            cluster = ShardedCluster(n_servers=3, faults=faults)
            await cluster.start()
            transport = cluster.client_transport("clients")
            tap = MonitorTap(StreamingMonitor(counter_adt()))
            recorder = HistoryRecorder(clock=lambda: transport.now)
            recorder.tap = tap
            pipeline = SlotPipeline(
                "rt", 3, transport, adt=counter_adt(), quorum_timeout=0.1
            )
            client = PipelineClient(
                "c0", pipeline, recorder, op_timeout=6.0,
                attempt_timeout=0.15, retry_backoff=PATIENT,
            )
            blackout(faults, 0.5)
            out = await client.submit(("inc", 1))
            report = await tap.close()
            await cluster.stop()
            return out, client, recorder, report

        out, client, recorder, report = asyncio.run(scenario())
        assert out == ("count", 0)
        assert client.retries >= 1  # the blackout actually forced retries
        assert not client.poisoned
        # every attempt shares the one invocation: both checkers agree
        assert len(one_invocation(recorder, "c0", ("inc", 1))) == 1
        assert check_linearizable(recorder.trace(), counter_adt()).ok
        assert report.verdict == "ok"


# ---------------------------------------------------------------------------
# hedging: the duplicate's second response is ignored
# ---------------------------------------------------------------------------


class TestHedging:
    def test_hedged_duplicate_answers_once(self):
        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            tap = MonitorTap(StreamingMonitor(counter_adt()))
            recorder = HistoryRecorder(clock=lambda: transport.now)
            recorder.tap = tap
            pipeline = SlotPipeline(
                "hdg", 3, transport, adt=counter_adt(), quorum_timeout=0.15
            )
            client = PipelineClient(
                "c0", pipeline, recorder, op_timeout=5.0, hedge_after=0.0
            )
            outs = [await client.submit(("inc", 1)) for _ in range(3)]
            # let any trailing hedged decree decide and fold
            await asyncio.sleep(0.3)
            report = await tap.close()
            await cluster.stop()
            return outs, client, pipeline, recorder, report

        outs, client, pipeline, recorder, report = asyncio.run(scenario())
        # fetch-and-add replies are consecutive: each inc applied once,
        # every hedged duplicate suppressed by the seam
        assert outs == [("count", 0), ("count", 1), ("count", 2)]
        assert client.hedges == 3
        assert pipeline._state == {None: 3}  # the counter's one cell
        # one invocation and one response per op, hedges notwithstanding
        assert len(recorder.events) == 6
        assert check_linearizable(recorder.trace(), counter_adt()).ok
        assert report.verdict == "ok"


# ---------------------------------------------------------------------------
# exhaustion: pending invocation, poisoned identity, working successor
# ---------------------------------------------------------------------------


class TestRetriesExhausted:
    def test_exhaustion_leaves_pending_poisons_and_hands_over(self):
        async def scenario():
            faults = TransportFaults(seed=5)
            cluster = ShardedCluster(n_servers=3, faults=faults)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "exh", 3, transport, adt=counter_adt(), quorum_timeout=0.1
            )
            client = PipelineClient(
                "c0", pipeline, recorder, op_timeout=0.6,
                attempt_timeout=0.15, retry_backoff=PATIENT,
            )
            blackout(faults, 30.0)  # outlives the op deadline
            with pytest.raises(RetriesExhausted):
                await client.submit(("inc", 1))
            assert client.poisoned
            with pytest.raises(RuntimeError, match="poisoned"):
                await client.submit(("inc", 1))
            heir = client.successor()
            # fast-forward the fault clock past the blackout
            clock = faults.clock
            faults.clock = lambda: clock() + 30.0
            out = await heir.submit(("inc", 1))
            # the abandoned op may still decide behind our back — that
            # is exactly why its invocation must stay pending
            await asyncio.sleep(0.3)
            await cluster.stop()
            return client, heir, out, recorder

        client, heir, out, recorder = asyncio.run(scenario())
        assert heir.name == "c0@1"
        assert heir.successor().name == "c0@2"
        assert "c0" in recorder.pending_clients()
        assert out[0] == "count"
        # fate-unknown op pending, not lost: the history still checks
        assert check_linearizable(recorder.trace(), counter_adt()).ok

    def test_retries_exhausted_is_an_operation_timeout(self):
        # call sites written against the old contract keep working
        assert issubclass(RetriesExhausted, OperationTimeout)


# ---------------------------------------------------------------------------
# the watchdog: one lazily re-armed timer keeps every deadline
# ---------------------------------------------------------------------------


class TestWatchdog:
    """Every frame the client endpoint sends is held ``hold`` seconds
    (a slow-node gray failure), so a decree decides ``hold`` after it
    was proposed and every deadline below falls at a known time."""

    async def _held_cluster(self, hold, **client_kwargs):
        faults = TransportFaults(seed=11)
        cluster = ShardedCluster(n_servers=3, faults=faults)
        await cluster.start()
        transport = cluster.client_transport("clients")
        recorder = HistoryRecorder(clock=lambda: transport.now)
        pipeline = SlotPipeline(
            "wd", 3, transport, adt=counter_adt(), quorum_timeout=5.0
        )
        client = PipelineClient("c0", pipeline, recorder, **client_kwargs)
        faults.slow("clients", hold)
        return cluster, pipeline, client, recorder

    def test_an_attempt_times_out_at_attempt_timeout_and_is_counted(self):
        pace = BackoffPolicy(base=0.2, factor=1.0, cap=0.2, jitter=0.0,
                             max_retries=5)

        async def scenario():
            cluster, pipeline, client, recorder = await self._held_cluster(
                0.5, op_timeout=5.0, attempt_timeout=0.2, retry_backoff=pace,
                hedge_after=0.35,
            )
            seen, clock = [], pipeline.transport
            started = clock.now

            async def observe():
                for at in (0.1, 0.3, 0.46):
                    await asyncio.sleep(started + at - clock.now)
                    seen.append((client.retries, pipeline.decrees))

            watcher = asyncio.ensure_future(observe())
            out = await client.submit(("inc", 1))
            await watcher
            await asyncio.sleep(0.6)  # the re-submitted decree folds too
            await cluster.stop()
            return out, seen, client, pipeline, recorder

        (out, seen, client, pipeline, recorder), errors = run_quiet(scenario)
        assert errors == []
        assert out == ("count", 0)
        # 0.2 s: the attempt is over and counted; the re-submission
        # waits out the 0.2 s pause and goes out at 0.4 s
        assert seen == [(0, 1), (1, 1), (1, 2)]
        # answered at 0.5 s from the first decree, not at 0.9 s
        assert client.results[0].latency < 0.8
        assert client.retries == 1 and pipeline.duplicates == 1
        # a hedge rides the first attempt or none: one due later than
        # the attempt's own timeout never fires, here inside the pause
        assert client.hedges == 0
        assert len(one_invocation(recorder, "c0", ("inc", 1))) == 1
        assert check_linearizable(recorder.trace(), counter_adt()).ok

    def test_a_hedge_fires_once_on_time_by_moving_the_timer_earlier(self):
        async def scenario():
            cluster, pipeline, client, recorder = await self._held_cluster(
                0.0, op_timeout=20.0, attempt_timeout=5.0
            )
            armed = client_timers(pipeline.transport.loop)
            started = pipeline.transport.now
            await client.submit(("inc", 1))  # healthy: armed for +5 s
            client.hedge_after = 0.1
            pipeline.transport.faults.slow("clients", 0.3)
            out = await client.submit(("inc", 1))
            latency = client.results[-1].latency
            await asyncio.sleep(0.4)  # the hedged decree folds too
            await cluster.stop()
            return out, latency, armed, started, client, pipeline, recorder

        (
            (out, latency, armed, started, client, pipeline, recorder),
            errors,
        ) = run_quiet(scenario)
        assert errors == []
        assert out == ("count", 1)
        assert client.hedges == 1 and client.retries == 0
        # the duplicate went out at 0.1 s and decided at 0.4 s, after
        # the original had answered at 0.3 s
        assert 0.25 < latency < 0.39
        assert pipeline.decrees == 3 and pipeline.duplicates == 1
        # armed for the first op's attempt timeout, moved 4.9 s earlier
        # for the hedge, and back out once the hedge was spent
        offsets = [round(when - started, 1) for when in armed]
        assert offsets == [5.0, 0.1, 5.0]
        assert check_linearizable(recorder.trace(), counter_adt()).ok

    def test_a_retry_and_a_hedge_re_enqueue_the_bytes_ensure_fits_returned(
        self, monkeypatch
    ):
        """The op is encoded once, by ``ensure_fits``; the hedge at 0.1 s
        and the retry at 0.35 s enqueue those same bytes."""
        pace = BackoffPolicy(base=0.1, factor=1.0, cap=0.1, jitter=0.0,
                             max_retries=5)
        encoded, enqueued = [], []
        real_body = BinaryCodec.encode_body
        real_enqueue = SlotPipeline.enqueue

        def spy_body(self, value):
            encoded.append(value)
            return real_body(self, value)

        def spy_enqueue(self, tagged, body):
            enqueued.append((tagged, body))
            return real_enqueue(self, tagged, body)

        monkeypatch.setattr(BinaryCodec, "encode_body", spy_body)
        monkeypatch.setattr(SlotPipeline, "enqueue", spy_enqueue)

        async def scenario():
            cluster, pipeline, client, recorder = await self._held_cluster(
                0.5, op_timeout=5.0, attempt_timeout=0.25,
                retry_backoff=pace, hedge_after=0.1,
            )
            out = await client.submit(("inc", 1))
            await asyncio.sleep(0.6)  # the other decrees fold too
            await cluster.stop()
            return out, client

        (out, client), errors = run_quiet(scenario)
        assert errors == [] and out == ("count", 0)
        assert client.hedges == 1 and client.retries >= 1
        tagged = ("inc", 1, ("seq", ("c0", 1)))
        assert [t for t, _body in enqueued] == [tagged] * (2 + client.retries)
        assert encoded.count(tagged) == 1
        first = enqueued[0][1]
        assert all(body is first for _t, body in enqueued)

    def test_the_deadline_leaves_the_op_pending_and_the_client_poisoned(self):
        async def scenario():
            cluster, pipeline, client, recorder = await self._held_cluster(
                0.6, op_timeout=0.3, attempt_timeout=5.0
            )
            started = pipeline.transport.now
            with pytest.raises(RetriesExhausted, match="1 attempt"):
                await client.submit(("inc", 1))
            waited = pipeline.transport.now - started
            assert client.poisoned and client.results == []
            # the op decides behind the client's back, hurting nobody
            await asyncio.sleep(0.5)
            heir = client.successor()
            pipeline.transport.faults.slow("clients", 0.0)
            out = await heir.submit(("cread",))
            await cluster.stop()
            return waited, out, client, pipeline, recorder

        (waited, out, client, pipeline, recorder), errors = run_quiet(
            scenario
        )
        assert errors == []
        assert 0.29 < waited < 0.5
        assert out == ("count", 1)
        assert client.retries == 0 and pipeline.decrees == 2
        assert recorder.pending_clients() == ("c0",)
        assert check_linearizable(recorder.trace(), counter_adt()).ok

    def test_an_op_decided_during_the_backoff_pause_is_answered(self):
        """The pause before a retry still listens: the decree in flight
        decides at 0.3 s, inside the pause that runs from 0.1 s to
        0.9 s, and answers the op.  No second decree is proposed."""
        pace = BackoffPolicy(base=0.8, factor=1.0, cap=0.8, jitter=0.0,
                             max_retries=5)

        async def scenario():
            cluster, pipeline, client, recorder = await self._held_cluster(
                0.3, op_timeout=5.0, attempt_timeout=0.1, retry_backoff=pace
            )
            out = await client.submit(("inc", 1))
            await cluster.stop()
            return out, client, pipeline, recorder

        (out, client, pipeline, recorder), errors = run_quiet(scenario)
        assert errors == []
        assert out == ("count", 0)
        assert client.retries == 1  # the attempt did time out
        assert 0.25 < client.results[0].latency < 0.8
        assert pipeline.decrees == 1 and pipeline.duplicates == 0
        assert check_linearizable(recorder.trace(), counter_adt()).ok


# ---------------------------------------------------------------------------
# the deterministic dedup-disabled canary
# ---------------------------------------------------------------------------


class TestDedupCanary:
    async def _double_decide(self, pipeline_cls):
        """One inc, a manufactured duplicate decree of it, one read."""
        cluster = ShardedCluster(n_servers=3)
        await cluster.start()
        transport = cluster.client_transport("clients")
        tap = MonitorTap(StreamingMonitor(counter_adt()))
        recorder = HistoryRecorder(clock=lambda: transport.now)
        recorder.tap = tap
        pipeline = pipeline_cls(
            "can", 3, transport, adt=counter_adt(), quorum_timeout=0.15
        )
        c1 = PipelineClient("c1", pipeline, recorder)
        c2 = PipelineClient("c2", pipeline, recorder)
        await c1.submit(("inc", 1))
        # redeliver the decided decree as a retry would: same tag,
        # fresh slot
        dup = ("inc", 1, ("seq", ("c1", 1)))
        await pipeline.enqueue(dup, pipeline.ensure_fits(dup))
        out = await c2.submit(("cread",))
        report = await tap.close()
        await cluster.stop()
        return out, pipeline, recorder, report

    def test_seam_folds_the_duplicate(self):
        out, pipeline, recorder, report = asyncio.run(
            self._double_decide(SlotPipeline)
        )
        assert out == ("count", 1)
        assert pipeline.duplicates == 1
        assert check_linearizable(recorder.trace(), counter_adt()).ok
        assert report.verdict == "ok"

    def test_mutant_double_applies_and_both_checkers_catch_it(self):
        out, pipeline, recorder, report = asyncio.run(
            self._double_decide(DoubleApplyPipeline)
        )
        assert out == ("count", 2)  # the impossible read
        assert pipeline.duplicates == 0
        verdict = check_linearizable(recorder.trace(), counter_adt())
        assert not verdict.ok
        assert report.verdict == "violation"
