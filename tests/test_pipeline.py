"""The high-throughput data plane (`repro.net.pipeline` and friends).

The :class:`~repro.net.pipeline.SlotPipeline` changes *how fast* ops
commit — windowed in-flight decrees, batch coalescing, split-and-retry
at the frame bound — but must not change *what* commits: every history
it produces, sharded or not, killed-replica or not, has to check out
linearizable, and oversized work has to fail as a typed per-op error
without tearing a connection or poisoning an innocent client.
"""

import asyncio
import gc
import statistics
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastcheck import check_linearizable
from repro.mp.backup import BackupClient
from repro.mp.quorum import QuorumClient
from repro.net.client import DEFAULT_BACKOFF, HistoryRecorder
from repro.net.cluster import ShardedCluster, shard_of
from repro.net.codec import (
    BINARY_CODEC,
    BinaryCodec,
    FrameTooLarge,
    JSON_CODEC,
    JsonCodec,
    MAX_FRAME,
    Packed,
    _UNREAD,
    get_codec,
)
from repro.net.faultfs import FaultyFS
from repro.net.loadgen import run_loadgen
from repro.net.pipeline import (
    BadDecree,
    FRAME_SLACK,
    PayloadTooLarge,
    PipelineClient,
    SlotPipeline,
    _DECREE_HEAD,
    _Entry,
    _decree,
    probing_client,
)
from repro.net.transport import (
    AddressBook,
    AsyncTransport,
    RECONNECT_COOLDOWN,
)
from repro.net.wal import MAX_RECORD, NodeWAL, WriteAheadLog
from repro.smr.universal import kv_store_adt, make_batch

from helpers import client_timers, run_quiet
from .test_net_codec import wide_payloads

SILENT = lambda line: None  # noqa: E731


# ---------------------------------------------------------------------------
# SlotPipeline over real sockets
# ---------------------------------------------------------------------------


def _check(recorder):
    return check_linearizable(recorder.trace(), kv_store_adt())


class TestSlotPipeline:
    def test_concurrent_submits_coalesce_into_batches(self):
        """Ops enqueued in one loop tick ride one decree, not eight."""

        async def scenario():
            cluster = ShardedCluster(n_servers=3, codec="binary")
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
            cluster = ShardedCluster(n_servers=3, codec="binary")
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
            cluster = ShardedCluster(n_servers=3)
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
            cluster = ShardedCluster(n_servers=3, codec="binary")
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

    def test_a_cancelled_submitter_costs_its_decree_nothing(self):
        """``submit`` awaits the entry's future directly, so cancelling
        the submitter cancels that future (``asyncio.wait`` used to
        shield it).  Everything that resolves a future skips a done
        one: the decree still decides and folds, the ops it shares the
        decree with are answered, and the loop sees no stray error."""

        async def scenario():
            cluster = ShardedCluster(n_servers=3, codec="binary")
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "main", 3, transport, window=4, max_batch=16,
                quorum_timeout=0.15,
            )
            clients = [
                PipelineClient(f"c{i}", pipeline, recorder, op_timeout=5.0)
                for i in range(4)
            ]
            tasks = [
                asyncio.ensure_future(c.submit(("put", f"k{i}", i)))
                for i, c in enumerate(clients)
            ]
            await asyncio.sleep(0)  # all four enqueued, one decree
            tasks[1].cancel()
            outs = await asyncio.gather(*tasks, return_exceptions=True)
            reader = PipelineClient("r", pipeline, recorder, op_timeout=5.0)
            seen = await reader.submit(("get", "k1"))
            await cluster.stop()
            return pipeline, recorder, clients, outs, seen

        (pipeline, recorder, clients, outs, seen), errors = run_quiet(
            scenario
        )
        assert errors == []
        assert isinstance(outs[1], asyncio.CancelledError)
        assert [outs[i] for i in (0, 2, 3)] == [("value", None)] * 3
        # one decree carried all four, the cancelled op included
        assert pipeline.decrees == 2 and pipeline.batched_ops == 5
        assert seen == ("value", 1)
        assert recorder.pending_clients() == ("c1",)
        assert not clients[1].poisoned and clients[1].results == []
        assert _check(recorder).ok


# ---------------------------------------------------------------------------
# an op is one future and one wake-up
# ---------------------------------------------------------------------------


class TestOneWakeUp:
    N_CLIENTS = 4

    def _healthy_run(self, ops_each):
        async def scenario():
            cluster = ShardedCluster(n_servers=3, codec="binary")
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "main", 3, transport, window=8, max_batch=16,
                quorum_timeout=2.0,
            )
            # attempt_timeout = op_timeout / 4: far beyond the run, so
            # no watchdog comes due while it lasts
            clients = [
                PipelineClient(f"c{i}", pipeline, recorder, op_timeout=120.0)
                for i in range(self.N_CLIENTS)
            ]
            armed = client_timers(transport.loop)

            async def drive(index, client):
                for op in range(ops_each):
                    await client.submit(("put", f"k{index}", op))

            await asyncio.gather(
                *(drive(i, c) for i, c in enumerate(clients))
            )
            await cluster.stop()
            return armed, recorder, clients

        (armed, recorder, clients), errors = run_quiet(scenario)
        assert errors == []
        assert all(len(c.results) == ops_each for c in clients)
        assert _check(recorder).ok
        return len(armed)

    def test_timers_grow_with_the_clients_not_with_the_ops(
        self, monkeypatch
    ):
        """A healthy op arms and cancels no timer: each client's
        watchdog is armed once, for its first op, and every later wait
        finds it armed for an earlier time than its own.  And no op
        goes through ``asyncio.wait``."""

        def no_wait(*args, **kwargs):
            raise AssertionError("asyncio.wait on the data plane")

        monkeypatch.setattr(asyncio, "wait", no_wait)
        few, many = self._healthy_run(50), self._healthy_run(400)
        assert 1 <= few <= 2 * self.N_CLIENTS
        assert abs(many - few) <= self.N_CLIENTS


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
            cluster = ShardedCluster(n_servers=3)
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
            cluster = ShardedCluster(n_servers=3)
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


class TestTheDefaultPlaneIsTheMeasuredOne:
    """Saying nothing gets what ``benchmarks/ledger`` measures: batching
    pipelines, binary frames, a WAL fsync per record (DESIGN.md,
    "Defaults are the measured plane")."""

    def test_run_loadgen_with_no_plane_argument(self, tmp_path):
        report = run_loadgen(ops=96, wal_root=str(tmp_path), emit=SILENT)
        assert report.linearizable and report.committed == 96
        assert report.pipelined and report.codec == "binary"
        assert (report.window, report.batch) == (8, 16)
        assert report.batched_ops > report.decrees > 0

    def test_a_default_cluster_syncs_every_record(self, tmp_path):
        fs = {i: FaultyFS(seed=i) for i in range(3)}

        async def scenario():
            cluster = ShardedCluster(wal_root=str(tmp_path), wal_fs=fs)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            client = probing_client("c0", 3, transport, recorder)
            await client.submit(("put", "k", 1))
            await cluster.stop()
            bare = AsyncTransport("bare", AddressBook())
            return cluster, transport, bare

        cluster, transport, bare = asyncio.run(scenario())
        assert transport.codec is bare.codec is BINARY_CODEC
        assert all(n.transport.codec is BINARY_CODEC for n in cluster.nodes)
        # no record waits on another's fsync
        assert all(
            disk.stats["fsyncs"] >= disk.stats["appends"] > 1
            for disk in fs.values()
        )

    @pytest.mark.parametrize(
        "cluster_codec, client_codec",
        [("json", BINARY_CODEC), ("binary", JSON_CODEC)],
    )
    def test_peers_on_different_codecs_interoperate(
        self, cluster_codec, client_codec
    ):
        """The rollout claim in ``AsyncTransport``: inbound frames
        self-describe, so a default client commits against a JSON
        cluster and a JSON client against a default one."""

        async def scenario():
            cluster = ShardedCluster(n_servers=3, codec=cluster_codec)
            await cluster.start()
            transport = AsyncTransport(
                "clients", cluster.books[0], codec=client_codec
            )
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline("main", 3, transport, quorum_timeout=0.15)
            clients = [
                PipelineClient(f"c{i}", pipeline, recorder) for i in range(4)
            ]
            outs = await asyncio.gather(
                *(c.submit(("put", "k", i)) for i, c in enumerate(clients)),
            )
            outs.append(await clients[0].submit(("get", "k")))
            await transport.close()
            await cluster.stop()
            return cluster, recorder, outs

        cluster, recorder, outs = asyncio.run(scenario())
        assert cluster.codec is get_codec(cluster_codec) is not client_codec
        assert len(outs) == 5 and outs[-1][1] in range(4)
        assert not recorder.pending_clients()
        assert _check(recorder).ok


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
        # one WAL directory and one stats row per group and replica
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "shard0", "shard1",
        ]
        assert set(report.endpoint_stats) == {
            f"shard{s}/node{i}" for s in range(2) for i in range(3)
        }

    def test_shard_routing_matches_partition_key(self):
        # the router and the checker partition by the same key, which
        # is what makes per-shard checking compositional
        keys = [f"key{i:02d}" for i in range(12)]
        shards = {shard_of(k, 2) for k in keys}
        assert shards == {0, 1}
        for k in keys:
            assert shard_of(k, 2) == shard_of(k, 2)  # deterministic


# ---------------------------------------------------------------------------
# a dead replica costs no Quorum timer, and Backup asks a live coordinator
# ---------------------------------------------------------------------------


class TestADeadReplicaCostsNoTimer:
    """A closed connection presumes its server down at once: the rounds
    in flight switch to Backup as soon as the others agree, later rounds
    do not wait for it, Backup asks it last, and its next answer ends
    the presumption.  The timer is long so that nothing here depends on
    a fast machine: no decree below may wait it out."""

    TIMEOUT = 1.0
    HEALTHY, DOWN, AFTER = 3, 12, 12

    def _run(self, tmp_path, victim):
        async def scenario():
            cluster = ShardedCluster(n_servers=3, wal_root=str(tmp_path))
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "main", 3, transport, quorum_timeout=self.TIMEOUT
            )
            client = PipelineClient("c0", pipeline, recorder, op_timeout=10.0)
            seen = []

            async def ops(n):
                for _ in range(n):
                    await client.submit(("put", "k", len(client.results)))
                seen.append(set(pipeline.presumed_down))

            await ops(self.HEALTHY)
            await cluster.kill(victim)
            await ops(self.DOWN)
            await cluster.restart(victim)
            # the client transport re-dials an unpublished endpoint only
            # after its reconnect cooldown
            await asyncio.sleep(RECONNECT_COOLDOWN)
            await ops(self.AFTER)
            await cluster.stop()
            return recorder, client.results, seen

        return asyncio.run(scenario())

    def _phases(self, results):
        return (
            results[: self.HEALTHY],
            results[self.HEALTHY : self.HEALTHY + self.DOWN],
            results[self.HEALTHY + self.DOWN :],
        )

    def test_kill_then_restart(self, tmp_path):
        recorder, results, seen = self._run(tmp_path, victim=2)
        healthy, down, after = self._phases(results)
        assert [r.path for r in healthy] == ["fast"] * self.HEALTHY
        assert seen[0] == set()
        # every decree after the kill switches to Backup at once: the
        # closed connection told the pipeline, not the timer
        assert [r.path for r in down] == ["slow"] * self.DOWN
        assert max(r.latency for r in down) < self.TIMEOUT / 4
        assert seen[1] == {2}
        # the restarted replica answers, and the fast path resumes
        first_fast = [r.path for r in after].index("fast")
        assert first_fast <= 3
        assert [r.path for r in after[first_fast:]] == ["fast"] * (
            self.AFTER - first_fast
        )
        assert seen[2] == set()
        assert _check(recorder).ok

    def test_a_dead_ballot_owner_costs_no_backoff(self, tmp_path, monkeypatch):
        # node 0 owns ballot 0, so Backup used to ask it first and wait
        # out the retry backoff (>= 0.1 s) on every decree; now a live
        # coordinator is asked first and pays phase 1 instead
        attempts = {}  # slot -> retries its Backup client made
        decide = BackupClient._decide

        def counted(client, value):
            attempts[client.pid[1][1]] = client.attempt
            decide(client, value)

        monkeypatch.setattr(BackupClient, "_decide", counted)
        recorder, results, seen = self._run(tmp_path, victim=0)
        _, down, _ = self._phases(results)
        assert [r.path for r in down] == ["slow"] * self.DOWN
        # a count, not a clock: no down decree's client asked twice
        assert [attempts[r.slot] for r in down] == [0] * self.DOWN
        shortest_backoff = DEFAULT_BACKOFF.base * (1 - DEFAULT_BACKOFF.jitter)
        assert statistics.median(r.latency for r in down) < shortest_backoff
        assert seen[1] == {0}
        assert _check(recorder).ok

    def test_a_closed_connection_to_a_live_node_costs_little(self):
        # a wrong hint: node 1 is alive, only the client's connection to
        # it closes.  At most the decrees in flight lose their fast path,
        # the next answer from node 1 ends the presumption, and no
        # decree waits out the timer
        WINDOW, OPS = 4, 80

        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "main", 3, transport, window=WINDOW,
                quorum_timeout=self.TIMEOUT,
            )
            clients = [
                PipelineClient(f"c{i}", pipeline, recorder, op_timeout=10.0)
                for i in range(WINDOW)
            ]

            async def drive(index, client):
                for op in range(OPS // WINDOW):
                    await client.submit(("put", f"k{index}", op))

            async def cut():
                while pipeline._applied_upto < 3 or not pipeline.in_flight:
                    await asyncio.sleep(0)
                transport._peers["node1"].writer.close()

            await asyncio.gather(
                cut(), *(drive(i, c) for i, c in enumerate(clients))
            )
            await cluster.stop()
            return pipeline, recorder, clients

        pipeline, recorder, clients = asyncio.run(scenario())
        results = sorted(
            (r for c in clients for r in c.results), key=lambda r: r.slot
        )
        slow = {r.slot for r in results if r.path != "fast"}
        assert len(slow) <= 2 * WINDOW
        # the fast path resumes: the last decrees are all fast
        assert all(r.path == "fast" for r in results[-WINDOW:])
        assert max(r.latency for r in results) < self.TIMEOUT / 4
        assert pipeline.presumed_down == set()
        assert _check(recorder).ok

    def test_a_healthy_run_marks_nobody_down_and_leaves_no_cycles(self):
        """Nobody is presumed down, and a round is freed as soon as it
        is unregistered: a closure holding its own round would leave
        every decree to the cyclic garbage collector."""

        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "main", 3, transport, quorum_timeout=self.TIMEOUT
            )
            clients = [
                PipelineClient(f"c{i}", pipeline, recorder, op_timeout=10.0)
                for i in range(4)
            ]

            async def drive(index, client):
                for op in range(25):
                    await client.submit(("put", f"k{index}", op))

            gc.collect()
            gc.disable()
            try:
                await asyncio.gather(
                    *(drive(i, c) for i, c in enumerate(clients))
                )
                cyclic = gc.collect()
            finally:
                gc.enable()
            await cluster.stop()
            return pipeline, recorder, clients, cyclic

        pipeline, recorder, clients, cyclic = asyncio.run(scenario())
        assert pipeline.decrees >= 25 and cyclic == 0
        assert pipeline.presumed_down == set()
        assert all(r.path == "fast" for c in clients for r in c.results)
        assert _check(recorder).ok


# ---------------------------------------------------------------------------
# the sizing contract: arithmetic, and never a different answer
# ---------------------------------------------------------------------------


def _real_decree(ops):
    """A decree as a proposer builds it: the ops' binary bodies joined."""
    return _decree(
        [_Entry(op, BINARY_CODEC.encode_body(op), None) for op in ops]
    )


def _real_frame(codec, decree):
    """The oracle: the frame that carries ``decree`` to a Quorum server
    in the wire codec, actually encoded."""
    return len(
        codec.encode_frame(
            (("qcli", ("probe", 0, 0)), ("qs", 0, 0), ("q-propose", decree))
        )
    )


def _exact_fits(codec, ops):
    try:
        size = _real_frame(codec, _real_decree(ops))
    except FrameTooLarge:
        return False
    return size + FRAME_SLACK <= MAX_FRAME


def _offline_pipeline(codec_name):
    """A pipeline over an unconnected transport: sizing needs no peer.
    Built inside a running loop, which the transport looks up."""

    async def build():
        transport = AsyncTransport(
            "clients", AddressBook(), codec=get_codec(codec_name)
        )
        return SlotPipeline("main", 3, transport)

    return asyncio.run(build())


PIPELINES = {name: _offline_pipeline(name) for name in ("json", "binary")}


def _tag(command, seq=1):
    return command + (("seq", ("c0", seq)),)


#: payload families: plain text, control characters (six times larger
#: in a JSON value than in a binary one, and no larger in a decree,
#: whose bytes are binary whatever carries them), floats
PAYLOAD_FAMILIES = {
    "ascii": lambda n: "x" * n,
    "control": lambda n: "\x01" * n,
    "floats": lambda n: (0.0,) * n,
}


class TestSizingContract:
    @pytest.mark.parametrize("family", sorted(PAYLOAD_FAMILIES))
    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_ensure_fits_flips_exactly_where_a_double_encode_does(
        self, codec_name, family
    ):
        pipeline = PIPELINES[codec_name]
        codec = pipeline.transport.codec
        payload = PAYLOAD_FAMILIES[family]

        def op(n):
            return _tag(("put", "k", payload(n)))

        # the first payload size that no longer fits, by bisection on
        # the real encodings (fitting is monotone in the size)
        low, high = 0, MAX_FRAME
        assert _exact_fits(codec, [op(low)])
        assert not _exact_fits(codec, [op(high)])
        while high - low > 1:
            mid = (low + high) // 2
            if _exact_fits(codec, [op(mid)]):
                low = mid
            else:
                high = mid
        # what binds is the wire frame: in binary a decree may take all
        # of it but the slack; a JSON frame carries it as base64, a
        # third larger
        size = len(_real_decree([op(low)]))
        room = MAX_FRAME - FRAME_SLACK
        if codec_name == "json":
            room = 3 * room // 4
        assert 0 < room - size < 200
        for n in (0, low // 2, low - 1, low, high, high + 1, MAX_FRAME):
            if n <= low:
                pipeline.ensure_fits(op(n))
            else:
                with pytest.raises(PayloadTooLarge):
                    pipeline.ensure_fits(op(n))

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["json", "binary"]),
        st.lists(wide_payloads, min_size=0, max_size=6),
    )
    def test_decree_bytes_cover_both_exact_encodings(
        self, codec_name, values
    ):
        """The arithmetic of `_fits` is the real frame to the byte, a
        decree is its ops' binary bodies, and it decodes to its batch."""
        pipeline = PIPELINES[codec_name]
        codec = pipeline.transport.codec
        ops = [_tag(("put", "k", v), i) for i, v in enumerate(values)]
        decree = _real_decree(ops)
        size = len(decree)
        assert _real_frame(codec, decree) == (
            pipeline._wire_base + codec.packed_size(size)
        )
        assert size == _DECREE_HEAD + sum(
            len(BINARY_CODEC.encode_body(op)) for op in ops
        )
        # a reader decodes the proposer's batch (compared as bytes:
        # nan != nan)
        assert decree.unpack() == make_batch(tuple(ops))
        assert BINARY_CODEC.encode_body(
            Packed(decree).unpack()
        ) == BINARY_CODEC.encode_body(make_batch(tuple(ops)))

    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_split_decisions_match_a_double_encode(self, codec_name):
        """Batches of large ops around the frame bound: `_fits` answers
        what encoding the whole decree twice would."""
        pipeline = PIPELINES[codec_name]
        codec = pipeline.transport.codec
        answers = set()
        for family in sorted(PAYLOAD_FAMILIES):
            payload = PAYLOAD_FAMILIES[family]
            # a float is nine bytes of a decree, a character one
            unit = 9 if family == "floats" else 1
            for n in (43_000, 86_000, 130_000, 260_000):
                for count in (1, 2, 3, 4, 6, 12):
                    ops = [
                        _tag(("put", f"k{i}", payload(n // unit)), i)
                        for i in range(count)
                    ]
                    fits = pipeline._fits(
                        sum(len(BINARY_CODEC.encode_body(op)) for op in ops)
                    )
                    assert fits == _exact_fits(codec, ops), (family, n, count)
                    answers.add(fits)
        assert answers == {True, False}

    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_the_largest_admitted_decree_rides_every_frame_and_record(
        self, codec_name, tmp_path
    ):
        """The largest decree `_fits` admits fits every frame that
        carries a decree in the transport's codec, slots and ballots as
        wide as an i64 holds, and the WAL journals its sticky acceptance
        and its acceptor triple within a record and replays them."""
        pipeline = PIPELINES[codec_name]
        codec = pipeline.transport.codec
        low, high = 0, MAX_FRAME
        while high - low > 1:
            mid = (low + high) // 2
            if pipeline._fits(mid):
                low = mid
            else:
                high = mid
        decree = Packed(bytes(low + _DECREE_HEAD))
        big = 1 << 62
        client, backup = ("qcli", ("main", big)), ("bcli", ("main", big))
        server, acceptor, coordinator = (
            (role, big, 2) for role in ("qs", "acc", "coord")
        )
        frames = [
            (client, server, ("q-propose", decree)),
            (server, client, ("q-accept", decree)),
            (backup, coordinator, ("request", decree)),
            (coordinator, acceptor, ("accept", big, decree)),
            (acceptor, coordinator, ("accepted", big, decree)),
            (acceptor, backup, ("accepted", big, decree)),
            (acceptor, coordinator, ("promise", big, big, decree)),
            (coordinator, backup, ("decision", decree)),
        ]
        for frame in frames:
            assert len(codec.encode_frame(frame)) <= MAX_FRAME, frame[2][0]
        facts = [("qs", big, decree), ("acc", big, (big, big, decree))]
        wal = WriteAheadLog(str(tmp_path))
        for fact in facts:
            wal.append(fact)
        wal.close()
        with open(tmp_path / "wal.log", "rb") as handle:
            data = handle.read()
        offset = 0
        while offset < len(data):
            (length,) = struct.unpack_from(">I", data, offset)
            assert length <= MAX_RECORD
            offset += 8 + length
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.records == facts
        reopened.close()


# ---------------------------------------------------------------------------
# the gain, pinned: a decree crosses the codec once per hop
# ---------------------------------------------------------------------------


def _is_envelope(value):
    return (
        isinstance(value, tuple)
        and len(value) == 3
        and isinstance(value[0], tuple)
    )


class TestEncodeOnce:
    def test_no_sizing_encode_beyond_one_per_op_and_one_body_per_broadcast(
        self, monkeypatch, tmp_path
    ):
        frames = {"binary": [], "json": []}
        bodies = []
        decodes = []
        for kind in (BinaryCodec, JsonCodec):
            def spy_frame(
                self, value, memo=None, _real=kind.encode_frame
            ):
                frames[self.name].append(value)
                return _real(self, value, memo)

            monkeypatch.setattr(kind, "encode_frame", spy_frame)

        def spy_body(self, value, _real=BinaryCodec.encode_body):
            bodies.append(value)
            return _real(self, value)

        monkeypatch.setattr(BinaryCodec, "encode_body", spy_body)

        def spy_unpack(self, _real=Packed.unpack):
            if self._value is _UNREAD:
                decodes.append(bytes(self))
            return _real(self)

        monkeypatch.setattr(Packed, "unpack", spy_unpack)

        async def scenario():
            cluster = ShardedCluster(
                n_servers=3, codec="binary", wal_root=str(tmp_path)
            )
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            pipeline = SlotPipeline(
                "main", 3, transport, window=4, max_batch=16,
                quorum_timeout=0.5,
            )
            clients = [
                PipelineClient(f"c{i}", pipeline, recorder, op_timeout=5.0)
                for i in range(8)
            ]

            async def drive(client, index):
                for n in range(8):
                    await client.submit(("put", f"k{index}", n))

            await asyncio.gather(
                *(drive(c, i) for i, c in enumerate(clients))
            )
            fault_free = len(decodes)
            # a late reader walks the decided prefix from slot 0
            late = probing_client("late", 3, transport, recorder)
            out = await late.submit(("get", "k0"))
            await cluster.stop()
            return pipeline, late.pipeline, recorder, fault_free, out

        pipeline, reader, recorder, fault_free, out = asyncio.run(scenario())
        assert pipeline.batched_ops == 64 and _check(recorder).ok
        # each op is encoded once, as a body, when it is submitted ...
        ops = [
            v for v in bodies
            if isinstance(v, tuple) and isinstance(v[-1], tuple)
            and v[-1][:1] == ("seq",)
        ]
        assert len(ops) == len(set(ops)) == 64 + 1
        # ... and nothing is encoded to be sized, in either codec
        assert [v for v in frames["binary"] if not _is_envelope(v)] == []
        assert frames["json"] == []
        # every wire frame still comes out of encode_frame ...
        proposals = [
            v for v in frames["binary"]
            if _is_envelope(v) and v[2][0] == "q-propose"
        ]
        # (+1 per pipeline: the frame it sized once, at construction)
        assert len(proposals) == 3 * (pipeline.decrees + reader.decrees) + 2
        # ... but the body of a 3-server broadcast is encoded once
        proposed = [
            v for v in bodies
            if isinstance(v, tuple) and v and v[0] == "q-propose"
        ]
        assert len(proposed) == pipeline.decrees + reader.decrees
        # nobody parsed a decree while the proposer was alone: not the
        # servers, not their WALs, not the proposer settling its own
        assert fault_free == 0
        # the reader lost every decided slot to a decree it did not
        # propose, and decoded each exactly once to fold it
        assert out == ("value", 7)
        assert sorted(decodes) == sorted(
            pipeline.log[slot] for slot in range(pipeline.decrees)
        )
        assert len(set(decodes)) == pipeline.decrees == reader.decrees - 1


# ---------------------------------------------------------------------------
# a decree nobody can fold: typed, and contained
# ---------------------------------------------------------------------------

UNFOLDABLE = {
    "undecodable-bytes": Packed(b"\xff"),
    "packed-non-command": Packed(bytes(BINARY_CODEC.encode_body(("bogus",)))),
    "plain-non-command": ("bogus",),
    # no partition key: the spec raises IndexError, TypeError, ValueError
    "empty-tuple": (),
    "scalar": 7,
    "short-put": ("put",),
}


def _decide_raw(transport, slot, value):
    """Decide ``value`` at ``slot`` as a proposer outside the library
    would: a bare Quorum client, no pipeline, no sizing, no batch."""
    decided = transport.loop.create_future()
    raw = QuorumClient(
        ("qcli", ("raw", slot)),
        servers=[("qs", slot, j) for j in range(3)],
        on_decide=decided.set_result,
        on_switch=decided.set_result,
        timeout=2.0,
    )
    transport.register(raw)
    raw.propose(value)
    return asyncio.wait_for(decided, 5.0)


class TestBadDecree:
    @pytest.mark.parametrize(
        "garbage", UNFOLDABLE.values(), ids=UNFOLDABLE.keys()
    )
    @pytest.mark.parametrize("codec_name", ["json", "binary"])
    def test_an_unfoldable_decree_fails_the_op_and_nothing_else(
        self, codec_name, garbage
    ):
        """The servers echo the bytes they were given; the reader that
        walks onto the slot is the first to parse them.  Its op fails
        with the typed error.  The error must not reach the transport's
        read loop, which would take it for a corrupt peer and hang up
        on a server that did nothing wrong."""

        async def scenario():
            cluster = ShardedCluster(n_servers=3, codec=codec_name)
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            assert await _decide_raw(transport, 0, garbage) == garbage
            writers = {
                name: peer.writer for name, peer in transport._peers.items()
            }
            late = probing_client(
                "late", 3, transport, recorder, quorum_timeout=0.15
            )
            with pytest.raises(BadDecree, match="slot 0"):
                await late.submit(("get", "k"))
            # same connections, still open, and they still carry slots
            assert len(writers) == 3
            for name, peer in transport._peers.items():
                assert peer.writer is writers[name]
                assert not peer.writer.is_closing()
            good = _decree(())
            assert await _decide_raw(transport, 1, good) == good
            await cluster.stop()
            return late, recorder

        errors = []
        loop = asyncio.new_event_loop()
        loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
        try:
            late, recorder = loop.run_until_complete(scenario())
        finally:
            loop.close()
        assert errors == []
        # fate unknown: the invocation stays open, the identity is done
        assert recorder.pending_clients() == ("late",)
        assert late.poisoned and late.results == []
        assert late.pipeline.log[0] == garbage
        assert late.pipeline._applied_upto == 0


# ---------------------------------------------------------------------------
# a log written before decrees were packed is supported input
# ---------------------------------------------------------------------------


class TestOldLogs:
    def test_plain_decrees_replay_are_served_and_apply_next_to_packed_ones(
        self, tmp_path
    ):
        def old(seq, command):
            return command + (("seq", ("old", seq)),)

        fast = [
            make_batch((old(1, ("put", "a", 1)), old(2, ("put", "b", 2)))),
            make_batch(()),
            old(3, ("put", "a", 3)),  # the seed client's unbatched decree
        ]
        # slot 3 went through Backup: the Quorum servers disagreed
        backup, loser = (
            make_batch((old(4, ("put", "b", 4)),)),
            make_batch((old(5, ("put", "b", 5)),)),
        )
        for index in range(3):
            wal = NodeWAL(str(tmp_path / f"node{index}"))
            for slot, value in enumerate(fast):
                wal.record("qs", slot, value)
            wal.record("qs", 3, loser if index == 1 else backup)
            wal.record_acceptor(3, (0, 0, backup))
            if index == 0:
                wal.record_decided(3, backup)
            wal.close()

        async def scenario():
            cluster = ShardedCluster(
                n_servers=3, codec="binary", wal_root=str(tmp_path)
            )
            await cluster.start()
            transport = cluster.client_transport("clients")
            recorder = HistoryRecorder(clock=lambda: transport.now)
            # what the old clients saw, in log order
            for command, previous in (
                (("put", "a", 1), None), (("put", "b", 2), None),
                (("put", "a", 3), 1), (("put", "b", 4), 2),
            ):
                recorder.invoke("old", command)
                recorder.respond("old", command, ("value", previous))
            pipeline = SlotPipeline(
                "main", 3, transport, window=4, max_batch=16,
                quorum_timeout=0.15,
            )
            writers = [
                PipelineClient(f"w{i}", pipeline, recorder, op_timeout=10.0)
                for i in range(4)
            ]
            prober = probing_client(
                "late", 3, transport, recorder, quorum_timeout=0.15,
                op_timeout=10.0,
            )

            async def drive(client, index):
                for n in range(6):
                    await client.submit(("put", "ab"[index % 2], (index, n)))
                    await client.submit(("get", "ab"[n % 2]))

            first, *_ = await asyncio.gather(
                prober.submit(("get", "a")),
                *(drive(c, i) for i, c in enumerate(writers)),
            )
            last = await prober.submit(("get", "b"))
            await cluster.stop()
            return pipeline, prober.pipeline, recorder, first, last

        pipeline, walked, recorder, first, last = asyncio.run(scenario())
        assert recorder.pending_clients() == ()
        assert _check(recorder).ok
        for log in (pipeline.log, walked.log):
            assert [log[slot] for slot in range(3)] == fast
            assert log[3] == backup
            assert all(type(log[slot]) is Packed for slot in log if slot > 3)
        assert len(walked.log) > 4
        assert first[0] == "value" and last[0] == "value"
