"""The high-throughput data plane (`repro.net.pipeline` and friends).

The :class:`~repro.net.pipeline.SlotPipeline` changes *how fast* ops
commit — windowed in-flight decrees, batch coalescing, split-and-retry
at the frame bound — but must not change *what* commits: every history
it produces, sharded or not, killed-replica or not, has to check out
linearizable, and oversized work has to fail as a typed per-op error
without tearing a connection or poisoning an innocent client.

The simulator-side mirror (:meth:`SpeculativeSMR.submit_pipelined`)
is covered here too, so the two data planes stay behaviourally aligned.
"""

import asyncio

import pytest

from repro.core.fastcheck import check_linearizable
from repro.net.client import HistoryRecorder
from repro.net.cluster import LocalCluster, shard_of
from repro.net.codec import MAX_FRAME
from repro.net.loadgen import run_loadgen
from repro.net.pipeline import (
    PayloadTooLarge,
    PipelineClient,
    SlotPipeline,
    probing_client,
)
from repro.smr.replica import SpeculativeSMR
from repro.smr.universal import batch_commands, kv_store_adt

SILENT = lambda line: None  # noqa: E731


# ---------------------------------------------------------------------------
# the simulator-side mirror
# ---------------------------------------------------------------------------


class TestSimPipelined:
    def test_pipelined_commits_all_commands_in_order(self):
        smr = SpeculativeSMR(n_servers=3, seed=7)
        commands = [("put", "k", i) for i in range(20)]
        outcomes = smr.submit_pipelined(
            "c1", commands, at=0.0, window=4, max_batch=4
        )
        smr.run()
        assert all(o.commit_time is not None for o in outcomes)
        # the flattened decided log is exactly the submitted sequence:
        # batches partition the commands, slots preserve their order
        decided = []
        for slot in sorted(smr.log):
            decided.extend(batch_commands(smr.log[slot]))
        assert decided == commands

    def test_pipelined_batches_across_the_window(self):
        smr = SpeculativeSMR(n_servers=3, seed=1)
        commands = [("put", "k", i) for i in range(16)]
        smr.submit_pipelined("c1", commands, window=4, max_batch=8)
        smr.run()
        # 16 commands at <=8 per decree need at least 2 decrees but far
        # fewer than one per command — batching actually engaged
        assert 2 <= len(smr.log) <= 4

    def test_pipelined_under_crash_still_commits(self):
        smr = SpeculativeSMR(n_servers=3, seed=3)
        commands = [("put", "k", i) for i in range(12)]
        outcomes = smr.submit_pipelined("c1", commands, window=4, max_batch=4)
        smr.crash_server(2, at=5.0)
        smr.run()
        assert all(o.commit_time is not None for o in outcomes)


# ---------------------------------------------------------------------------
# SlotPipeline over real sockets
# ---------------------------------------------------------------------------


def _check(recorder):
    return check_linearizable(recorder.trace(), kv_store_adt())


class TestSlotPipeline:
    def test_concurrent_submits_coalesce_into_batches(self):
        """Ops enqueued in one loop tick ride one decree, not eight."""

        async def scenario():
            cluster = LocalCluster(n_servers=3, codec="binary")
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "main", 3, transport, window=4, max_batch=16,
                quorum_timeout=0.15,
            )
            clients = [
                PipelineClient(f"c{i}", pipeline, recorder, op_timeout=5.0)
                for i in range(8)
            ]
            outs = await asyncio.gather(
                *(c.submit(("put", "k", i)) for i, c in enumerate(clients))
            )
            await cluster.stop()
            return pipeline, recorder, outs

        pipeline, recorder, outs = asyncio.run(scenario())
        # a put answers with the previous cell value
        assert all(out[0] == "value" for out in outs)
        assert pipeline.batched_ops == 8
        # all eight submits land in the same tick's pump: one decree
        # (or two if the loop slices the gather — never one per op)
        assert pipeline.decrees <= 2
        assert _check(recorder).ok

    def test_oversized_batch_splits_and_all_ops_commit(self):
        """A batch over MAX_FRAME is halved and re-tried, never torn."""
        big = "v" * 300_000  # 4 together > 1 MiB, any 2 fit, 1 fits

        async def scenario():
            cluster = LocalCluster(n_servers=3, codec="binary")
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "main", 3, transport, window=4, max_batch=16,
                quorum_timeout=0.5,
            )
            clients = [
                PipelineClient(f"c{i}", pipeline, recorder, op_timeout=10.0)
                for i in range(4)
            ]
            outs = await asyncio.gather(
                *(
                    c.submit(("put", f"k{i}", big))
                    for i, c in enumerate(clients)
                )
            )
            await cluster.stop()
            return pipeline, recorder, outs

        pipeline, recorder, outs = asyncio.run(scenario())
        assert all(out[0] == "value" for out in outs)
        assert pipeline.splits > 0
        assert pipeline.batched_ops == 4
        assert pipeline.decrees >= 2
        assert _check(recorder).ok

    def test_unframeable_op_is_a_per_op_error_not_a_poisoning(self):
        """PayloadTooLarge: pre-invocation, client survives, history
        stays clean, the connection keeps working."""

        async def scenario():
            cluster = LocalCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "main", 3, transport, quorum_timeout=0.15
            )
            client = PipelineClient("c0", pipeline, recorder, op_timeout=5.0)
            with pytest.raises(PayloadTooLarge):
                await client.submit(("put", "k", "x" * MAX_FRAME))
            # nothing recorded, nothing queued, client not poisoned
            assert recorder.pending_clients() == ()
            assert not client.poisoned
            out = await client.submit(("put", "k", 1))
            await cluster.stop()
            return recorder, out

        recorder, out = asyncio.run(scenario())
        assert out == ("value", None)  # first put on the fresh cell
        assert _check(recorder).ok

    def test_cancelled_submit_leaves_a_pending_invocation(self):
        """A submitter task killed mid-flight must leave the op as a
        *pending invocation* in the history — never an effect with no
        invocation.  The op was enqueued before the cancel, so it still
        decides and takes effect on the replicas; a later reader then
        observes that effect, and only the recorded open invocation
        makes the combined history linearizable (regression: recording
        the invocation only after the enqueue loses the race)."""

        async def scenario():
            cluster = LocalCluster(n_servers=3, codec="binary")
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "main", 3, transport, window=4, max_batch=16,
                quorum_timeout=0.15,
            )
            doomed = PipelineClient("c0", pipeline, recorder, op_timeout=5.0)
            task = asyncio.ensure_future(doomed.submit(("put", "k", "lost")))
            # one loop tick: the invocation is recorded and the op is in
            # the pipeline's hands — but the decree has not decided yet
            await asyncio.sleep(0)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # the orphaned op still commits; a fresh client reads it
            reader = PipelineClient("c1", pipeline, recorder, op_timeout=5.0)
            out = await reader.submit(("get", "k"))
            await cluster.stop()
            return recorder, out

        recorder, out = asyncio.run(scenario())
        # the cancelled op's effect is visible to the reader...
        assert out == ("value", "lost")
        # ...and the history explains it: c0's invocation is pending
        assert recorder.pending_clients() == ("c0",)
        assert _check(recorder).ok
        # the streaming monitor sees the same trace the same way
        from repro.monitor import watch_trace

        assert watch_trace(recorder.trace(), kv_store_adt()).verdict == "ok"


# ---------------------------------------------------------------------------
# the paper's client: window 1, batch 1, a pipeline of its own
# ---------------------------------------------------------------------------


class TestProbingClient:
    def test_contending_window_one_pipelines_commit_every_op(self):
        """Two probing clients on one cluster fight over every slot:
        the loser of a slot learns the winner's decree and re-proposes
        at the next one, so decrees outnumber ops, every op still
        commits, and the history is linearizable."""

        async def scenario():
            cluster = LocalCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            clients = [
                probing_client(
                    f"c{i}", 3, transport, recorder, quorum_timeout=0.15
                )
                for i in range(2)
            ]

            async def drive(client, index):
                for n in range(6):
                    await client.submit(("put", "k", (index, n)))
                    await client.submit(("get", "k"))

            await asyncio.gather(
                *(drive(c, i) for i, c in enumerate(clients))
            )
            await cluster.stop()
            return clients, recorder

        clients, recorder = asyncio.run(scenario())
        a, b = (c.pipeline for c in clients)
        assert a is not b and a.log is not b.log
        assert (a.window, a.max_batch) == (1, 1)
        ops = sum(len(c.results) for c in clients)
        assert ops == 24 and recorder.pending_clients() == ()
        assert a.batched_ops + b.batched_ops > ops  # lost slots re-propose
        assert a.decrees + b.decrees > ops
        # both private logs agree wherever both know a slot
        assert all(a.log[s] == b.log[s] for s in a.log.keys() & b.log.keys())
        assert _check(recorder).ok

    def test_fresh_client_walks_the_decided_prefix_from_slot_zero(self):
        """A late reader's first ``get`` proposes at slot 0, loses every
        decided slot to its decree, folds the whole prefix and answers
        with the last committed ``put`` — the fork-detector walk."""

        async def scenario():
            cluster = LocalCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            writer = probing_client("w", 3, transport, recorder)
            for n in range(5):
                await writer.submit(("put", "k", n))
            late = probing_client("late", 3, transport, recorder)
            out = await late.submit(("get", "k"))
            await cluster.stop()
            return out, writer, late, recorder

        out, writer, late, recorder = asyncio.run(scenario())
        assert out == ("value", 4)
        (result,) = late.results
        assert result.slot == 5 and result.attempts == 6
        assert late.pipeline.decrees == 6  # slots 0..4 lost, slot 5 won
        assert {s: late.pipeline.log[s] for s in range(5)} == writer.pipeline.log
        assert _check(recorder).ok


# ---------------------------------------------------------------------------
# the full data plane end to end (loadgen)
# ---------------------------------------------------------------------------


class TestPipelinedLoadgen:
    def test_sharded_pipelined_run_is_linearizable(self, tmp_path):
        report = run_loadgen(
            replicas=3,
            clients=8,
            ops=96,
            seed=11,
            shards=2,
            window=8,
            batch=16,
            codec="binary",
            group_commit=True,
            wal_root=str(tmp_path),
            emit=SILENT,
        )
        assert report.committed == 96
        assert report.linearizable
        assert report.shard_verdicts == ["linearizable", "linearizable"]
        assert report.pipelined and report.shards == 2
        assert report.codec == "binary"
        # batching engaged: fewer decrees than ops
        assert 0 < report.decrees < report.committed
        assert report.batched_ops == report.committed

    def test_kill_mid_run_pipelined_stays_linearizable(self, tmp_path):
        report = run_loadgen(
            replicas=3,
            clients=8,
            ops=96,
            seed=13,
            kill=2,
            kill_after=0.3,
            shards=2,
            codec="binary",
            group_commit=True,
            wal_root=str(tmp_path),
            op_timeout=20.0,
            emit=SILENT,
        )
        assert report.killed == 2
        assert report.committed == 96
        assert report.linearizable
        # with a replica dead Quorum unanimity is impossible: the tail
        # of the run must have committed through the Backup path
        assert report.slow > 0

    def test_shard_routing_matches_partition_key(self):
        # the router and the checker partition by the same key, which
        # is what makes per-shard checking compositional
        keys = [f"key{i:02d}" for i in range(12)]
        shards = {shard_of(k, 2) for k in keys}
        assert shards == {0, 1}
        for k in keys:
            assert shard_of(k, 2) == shard_of(k, 2)  # deterministic
