"""Safe retry, failover, hedging: the client liveness half of sessions.

The pre-session clients poisoned themselves on the first timeout.  With
the session seam making re-proposal safe, a timed-out attempt is
re-submitted with the *same* ``(client, seq)`` identity — so these
tests pin the recording discipline that makes retries sound: all
attempts of an op are **one** invocation (the post-hoc checker and the
streaming monitor must both agree), a hedged duplicate's second
response is ignored, and only an exhausted deadline leaves a pending
invocation and a poisoned identity with a working successor.  The
deterministic canary at the bottom proves the other direction: with
dedup disabled, a duplicate decree double-applies and *both* checkers
call the history a violation.
"""

import asyncio

import pytest

from repro.core.adt import counter_adt
from repro.core.fastcheck import check_linearizable
from repro.net.netfaults import TransportFaults
from repro.monitor import MonitorTap, StreamingMonitor
from repro.mp.backoff import BackoffPolicy
from repro.net.client import (
    HistoryRecorder,
    OperationTimeout,
    RetriesExhausted,
)
from repro.net.cluster import LocalCluster
from repro.net.pipeline import PipelineClient, SlotPipeline

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
            cluster = LocalCluster(n_servers=3, faults=faults)
            await cluster.start()
            transport = cluster.client_transport("clients")
            tap = MonitorTap(StreamingMonitor(counter_adt()))
            recorder = HistoryRecorder(clock=lambda: transport.now, tap=tap)
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
            cluster = LocalCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            tap = MonitorTap(StreamingMonitor(counter_adt()))
            recorder = HistoryRecorder(clock=lambda: transport.now, tap=tap)
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
        assert pipeline._state == 3
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
            cluster = LocalCluster(n_servers=3, faults=faults)
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
            faults.heal()
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
# the deterministic dedup-disabled canary
# ---------------------------------------------------------------------------


class TestDedupCanary:
    async def _double_decide(self, dedup):
        """One inc, a manufactured duplicate decree of it, one read."""
        cluster = LocalCluster(n_servers=3)
        await cluster.start()
        transport = cluster.client_transport("clients")
        tap = MonitorTap(StreamingMonitor(counter_adt()))
        recorder = HistoryRecorder(clock=lambda: transport.now, tap=tap)
        pipeline = SlotPipeline(
            "can", 3, transport, adt=counter_adt(),
            quorum_timeout=0.15, dedup=dedup,
        )
        c1 = PipelineClient("c1", pipeline, recorder)
        c2 = PipelineClient("c2", pipeline, recorder)
        await c1.submit(("inc", 1))
        # redeliver the decided decree as a retry would: same tag,
        # fresh slot
        dup = ("inc", 1, ("seq", ("c1", 1)))
        await pipeline.enqueue(dup)
        out = await c2.submit(("cread",))
        report = await tap.close()
        await cluster.stop()
        return out, pipeline, recorder, report

    def test_seam_folds_the_duplicate(self):
        out, pipeline, recorder, report = asyncio.run(
            self._double_decide(dedup=True)
        )
        assert out == ("count", 1)
        assert pipeline.duplicates == 1
        assert check_linearizable(recorder.trace(), counter_adt()).ok
        assert report.verdict == "ok"

    def test_mutant_double_applies_and_both_checkers_catch_it(self):
        out, pipeline, recorder, report = asyncio.run(
            self._double_decide(dedup=False)
        )
        assert out == ("count", 2)  # the impossible read
        assert pipeline.duplicates == 0
        verdict = check_linearizable(recorder.trace(), counter_adt())
        assert not verdict.ok
        assert report.verdict == "violation"
