"""End-to-end tests of the asyncio TCP runtime (`repro.net`).

Everything here runs real localhost sockets: a
:class:`~repro.net.cluster.ShardedCluster` on ephemeral ports, clients
driving the Quorum/Backup composition over the wire codec, and the
recorded history checked by the same
:func:`~repro.core.fastcheck.check_linearizable` the simulator uses.
Timeouts are kept tight so the whole module stays in CI-smoke range.
"""

import asyncio
import contextlib
import copy
import json
import os
from collections import Counter

import pytest

import repro.net.transport as transport_module
from repro.core.fastcheck import check_linearizable
from repro.mp.backoff import BackoffPolicy
from repro.mp.sim import Process
from repro.net import (
    FrameError,
    LoadReport,
    ShardedCluster,
    probing_client,
    run_loadgen,
)
from repro.net.client import HistoryRecorder, OperationTimeout
from repro.net.codec import BINARY_CODEC, BinaryCodec
from repro.net.faultfs import FaultyFS, tear_tail
from repro.net.netfaults import TransportFaults
from repro.net.node import ReplicaNode
from repro.net.transport import AddressBook, AsyncTransport
from repro.net.wal import NodeWAL, WALFullError, WriteAheadLog
from repro.smr.universal import kv_store_adt

from helpers import run_quiet

FAST_BACKOFF = BackoffPolicy(
    base=0.1, factor=2.0, cap=0.5, jitter=0.25, max_retries=4
)

SILENT = lambda line: None  # noqa: E731


def make_client(cluster, transport, recorder, name="c0", **kwargs):
    """The paper's client: window 1, batch 1, a decided log of its own."""
    kwargs.setdefault("quorum_timeout", 0.15)
    kwargs.setdefault("backoff", FAST_BACKOFF)
    kwargs.setdefault("op_timeout", 3.0)
    return probing_client(
        name, cluster.n_servers, transport, recorder, **kwargs
    )


#: the seed's plane, named: the paper's one-op-per-round client on JSON
#: frames with one fsync per append (what ``run_loadgen`` ran by default
#: before the measured plane became the default)
PAPER_CLIENT = dict(pipeline=False, codec="json")


class TestLoadgen:
    """``run_loadgen`` driving the paper's client: a window-1, batch-1
    pipeline per client, slot contention included."""

    def test_end_to_end_linearizable(self, tmp_path):
        artifact = tmp_path / "run.json"
        report = run_loadgen(
            replicas=3,
            clients=4,
            ops=30,
            seed=0,
            artifact=str(artifact),
            wal_root=str(tmp_path / "wal"),
            emit=SILENT,
            **PAPER_CLIENT,
        )
        assert report.linearizable
        assert report.committed == 30
        assert report.pending == 0
        assert report.fast + report.slow == 30
        assert report.percentile(0.5) is not None
        assert not report.pipelined and report.codec == "json"
        assert (report.window, report.batch) == (1, 1)
        # one op per round, and contended rounds are lost
        assert report.batched_ops == report.decrees >= 30
        assert set(report.endpoint_stats) == {
            "shard0/node0",
            "shard0/node1",
            "shard0/node2",
        }
        payload = json.loads(artifact.read_text())
        assert payload["report"]["verdict"] == "linearizable"
        assert payload["history"]  # raw wire-level events travel along

    def test_kill_replica_backup_path_stays_linearizable(self):
        report = run_loadgen(
            replicas=3,
            clients=4,
            ops=24,
            seed=2,
            kill=1,
            kill_after=0.25,
            emit=SILENT,
            **PAPER_CLIENT,
        )
        assert report.linearizable
        assert report.killed == 1
        assert report.committed == 24
        # With one of three replicas dead, Quorum unanimity is
        # impossible: post-kill slots must decide through Backup.
        assert report.slow > 0


class TestLoadReport:
    #: the artifact schema: every field but the raw latencies, plus the
    #: values derived from them.  Adding a field is fine — add it to
    #: ``load_report_keys`` in tests/golden/net_schedules.json.
    with open(
        os.path.join(os.path.dirname(__file__), "golden", "net_schedules.json"),
        encoding="utf-8",
    ) as _handle:
        KEYS = set(json.load(_handle)["load_report_keys"])

    def report(self, latencies):
        return LoadReport(
            replicas=3, clients=2, ops_requested=4, committed=4, pending=0,
            fast=4, slow=0, duration=2.0, latencies=latencies,
        )

    def test_to_jsonable_key_set_is_pinned(self):
        data = self.report([0.4, 0.1, 0.3, 0.2]).to_jsonable()
        assert set(data) == self.KEYS
        assert data["throughput"] == 2.0
        json.dumps(data)  # and it is JSON all the way down

    def test_percentiles_are_nearest_rank_measured_values(self):
        report = self.report([0.4, 0.1, 0.3, 0.2])
        assert report.percentile(0.50) == 0.2
        assert report.percentile(0.75) == 0.3
        assert report.percentile(0.99) == report.percentile(1.0) == 0.4
        assert report.to_jsonable()["latency_p50"] == 0.2
        assert self.report([]).percentile(0.5) is None

    def test_the_repr_leaves_out_every_latency(self):
        # asyncio.run formats its main task's result on the way out
        report = self.report([0.001] * 100_000)
        report.endpoint_stats = {f"node{i}": {"sent": 1} for i in range(99)}
        assert len(repr(report)) < 2048


class TestClusterAndClients:
    def test_sequential_clients_see_each_other(self):
        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            try:
                # Two transports = two independent client processes with
                # their own local slot caches; linearizability must hold
                # across them (Quorum unanimity makes local caches safe).
                t1 = cluster.client_transport("procA")
                t2 = cluster.client_transport("procB")
                recorder = HistoryRecorder(clock=lambda: t1.now)
                a = make_client(cluster, t1, recorder, name="a")
                b = make_client(cluster, t2, recorder, name="b")
                assert await a.submit(("put", "x", 5)) == ("value", None)
                assert await b.submit(("get", "x")) == ("value", 5)
                assert await b.submit(("put", "x", 6)) == ("value", 5)
                assert await a.submit(("get", "x")) == ("value", 6)
                return recorder.trace()
            finally:
                await cluster.stop()

        trace = asyncio.run(scenario())
        assert check_linearizable(trace, kv_store_adt()).ok

    def test_kill_withdraws_endpoint(self):
        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            try:
                assert cluster.books[0].endpoints() == ("node0", "node1", "node2")
                await cluster.kill(1)
                assert cluster.books[0].endpoints() == ("node0", "node2")
                assert cluster.alive() == [0, 2]
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_unencodable_command_is_refused_at_the_wire(self):
        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            try:
                transport = cluster.client_transport()
                recorder = HistoryRecorder(clock=lambda: transport.now)
                client = make_client(cluster, transport, recorder)
                with pytest.raises(FrameError):
                    await client.submit(("put", "x", object()))
            finally:
                await cluster.stop()

        asyncio.run(scenario())


class TestCrashRecovery:
    def test_kill_restart_recovers_state_and_makes_progress(self, tmp_path):
        """The acceptance scenario: a replica with accepted WAL state is
        killed, restarted from its WAL over real sockets, serves reads
        of the state it recovered, and the cluster reaches fresh
        decisions — the whole history linearizable."""

        async def scenario():
            cluster = ShardedCluster(n_servers=3, wal_root=str(tmp_path))
            await cluster.start()
            try:
                transport = cluster.client_transport("clients")
                recorder = HistoryRecorder(clock=lambda: transport.now)
                a = make_client(cluster, transport, recorder, name="a")
                assert await a.submit(("put", "x", 1)) == ("value", None)
                assert await a.submit(("put", "y", 2)) == ("value", None)
                await cluster.kill(1)
                assert cluster.alive() == [0, 2]
                # With node1 dead this decides through Backup (2/3
                # majority), so node1's WAL never hears about it.
                assert await a.submit(("put", "x", 3)) == ("value", 1)
                (node,) = await cluster.restart(1)
                assert cluster.alive() == [0, 1, 2]
                # The relaunched node replayed real slots from its WAL.
                assert node.fold is not None
                assert node.fold.slots()
                # A fresh client (empty slot cache) replays the whole
                # prefix, mixing recovered state into its quorum rounds.
                b = make_client(cluster, transport, recorder, name="b")
                assert await b.submit(("get", "x")) == ("value", 3)
                assert await b.submit(("get", "y")) == ("value", 2)
                # Fresh decisions after the restart.
                assert await a.submit(("put", "y", 4)) == ("value", 2)
                return recorder
            finally:
                await cluster.stop()

        recorder = asyncio.run(scenario())
        report = check_linearizable(recorder.trace(), kv_store_adt())
        assert report.ok

    def test_restart_of_never_accepted_node_is_clean(self, tmp_path):
        async def scenario():
            cluster = ShardedCluster(n_servers=3, wal_root=str(tmp_path))
            await cluster.start()
            try:
                # Kill before any traffic: the WAL is empty and the
                # restart must come back with nothing to recover.
                await cluster.kill(2)
                (node,) = await cluster.restart(2)
                assert node.fold is not None
                assert node.fold.slots() == []
                transport = cluster.client_transport("clients")
                recorder = HistoryRecorder(clock=lambda: transport.now)
                client = make_client(cluster, transport, recorder)
                assert await client.submit(("put", "x", 1)) == (
                    "value",
                    None,
                )
                assert await client.submit(("get", "x")) == ("value", 1)
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_restarting_a_live_node_is_refused(self, tmp_path):
        async def scenario():
            cluster = ShardedCluster(n_servers=3, wal_root=str(tmp_path))
            await cluster.start()
            try:
                with pytest.raises(RuntimeError, match="still alive"):
                    await cluster.restart(0)
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_a_node_that_cannot_record_its_incarnation_never_serves(
        self, tmp_path
    ):
        async def scenario():
            fs = FaultyFS(seed=0)
            cluster = ShardedCluster(
                n_servers=3, wal_root=str(tmp_path), wal_fs={0: fs}
            )
            await cluster.start()
            try:
                await cluster.kill(0)
                fs.fail_appends(3)
                with pytest.raises(WALFullError):
                    await cluster.restart(0)
                assert cluster.alive() == [1, 2]
                assert cluster.nodes[0].transport.closed
                # retried by hand until the disk has room
                for _ in range(10):
                    with contextlib.suppress(WALFullError):
                        (node,) = await cluster.restart(0)
                        break
                assert cluster.alive() == [0, 1, 2]
                assert fs.stats["enospc"] == 3
                # refused opens were not incarnations; this one is
                assert node.fold.incarnation == 1
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_successor_continues_the_workload(self, tmp_path):
        async def scenario():
            cluster = ShardedCluster(n_servers=3, wal_root=str(tmp_path))
            await cluster.start()
            try:
                transport = cluster.client_transport("clients")
                recorder = HistoryRecorder(clock=lambda: transport.now)
                # A window-1 proposer holds its slot until the decree
                # there settles or gives up, so the abandoned put's
                # Backup budget (~0.85s) must end inside the heir's
                # deadline: the give-up reclaims the slot and the
                # re-proposal registers with the restarted nodes.
                client = make_client(
                    cluster,
                    transport,
                    recorder,
                    op_timeout=0.8,
                    backoff=BackoffPolicy(
                        base=0.1, factor=2.0, cap=0.2, jitter=0.25,
                        max_retries=3,
                    ),
                )
                assert await client.submit(("put", "x", 1)) == (
                    "value",
                    None,
                )
                # Majority down: the next op times out and poisons c0.
                await cluster.kill(1)
                await cluster.kill(2)
                with pytest.raises(OperationTimeout):
                    await client.submit(("put", "x", 2))
                heir = client.successor()
                assert heir.name == "c0@1"
                assert heir.pipeline is client.pipeline  # same decided log
                await cluster.restart(1)
                await cluster.restart(2)
                # The heir keeps the load going; the pending op may or
                # may not have taken effect, so only observe via a get.
                value = await heir.submit(("get", "x"))
                assert value in (("value", 1), ("value", 2))
                assert heir.successor().name == "c0@2"
                return recorder
            finally:
                await cluster.stop()

        recorder = asyncio.run(scenario())
        assert recorder.pending_clients() == ("c0",)
        assert check_linearizable(recorder.trace(), kv_store_adt()).ok


class TestShards:
    """A replica index names that replica in every group."""

    def test_kill_and_restart_act_on_every_group(self, tmp_path):
        async def scenario():
            cluster = ShardedCluster(
                n_shards=2, n_servers=3, wal_root=str(tmp_path)
            )
            await cluster.start()
            try:
                decided = []
                for shard, ops in enumerate((2, 3)):
                    transport = cluster.client_transport("clients", shard)
                    recorder = HistoryRecorder(clock=lambda t=transport: t.now)
                    client = make_client(
                        cluster, transport, recorder, name=f"c{shard}"
                    )
                    for value in range(ops):
                        await client.submit(("put", "k", value))
                    decided.append([r.slot for r in client.results])
                await cluster.kill(1)
                assert cluster.alive() == [0, 2]
                assert [node.transport.closed for node in cluster.nodes] == [
                    False, True, False,
                ] * 2
                for book in cluster.books:
                    assert book.endpoints() == ("node0", "node2")
                fresh = await cluster.restart(1)
                assert cluster.alive() == [0, 1, 2]
                assert fresh == [group[1] for group in cluster.shards]
                # each came back from its own group's directory and log
                for shard, node in enumerate(fresh):
                    assert node.wal.wal.directory == cluster.wal_dir(1, shard)
                    assert node.fold.slots() == decided[shard]
            finally:
                await cluster.stop()

        asyncio.run(scenario())
        assert sorted(os.listdir(tmp_path)) == ["shard0", "shard1"]


class TestPendingOps:
    def test_majority_dead_leaves_op_pending_and_poisons_client(self):
        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            try:
                transport = cluster.client_transport()
                recorder = HistoryRecorder(clock=lambda: transport.now)
                client = make_client(
                    cluster, transport, recorder, op_timeout=1.0
                )
                assert await client.submit(("put", "x", 1)) == (
                    "value",
                    None,
                )
                await cluster.kill(1)
                await cluster.kill(2)
                with pytest.raises(OperationTimeout):
                    await client.submit(("put", "x", 2))
                # Sequential clients must not continue past an op whose
                # fate is unknown.
                assert client.poisoned
                with pytest.raises(RuntimeError, match="poisoned"):
                    await client.submit(("get", "x"))
                return recorder
            finally:
                await cluster.stop()

        recorder = asyncio.run(scenario())
        assert recorder.pending_clients() == ("c0",)
        # The history — committed put, pending put — still checks out:
        # the timed-out op may or may not have taken effect.
        report = check_linearizable(recorder.trace(), kv_store_adt())
        assert report.ok

    def test_partitioned_minority_forces_backup_path(self):
        async def scenario():
            faults = TransportFaults(seed=0)
            cluster = ShardedCluster(n_servers=3, faults=faults)
            await cluster.start()
            try:
                transport = cluster.client_transport("clients")
                # Clients cannot reach node2: Quorum can never collect
                # accepts from all three servers, but the servers still
                # talk to each other, so Backup (majority 2/3) decides.
                # The cut outlasts the test.
                faults.partition("clients", "node2", duration=600.0)
                recorder = HistoryRecorder(clock=lambda: transport.now)
                client = make_client(cluster, transport, recorder)
                results = []
                for value in range(3):
                    results.append(
                        await client.submit(("put", "k", value))
                    )
                assert [r for r in results] == [
                    ("value", None),
                    ("value", 0),
                    ("value", 1),
                ]
                assert all(r.path == "slow" for r in client.results)
                cut = transport.stats.link("clients", "node2")
                assert cut.partitioned > 0
                return recorder
            finally:
                await cluster.stop()

        recorder = asyncio.run(scenario())
        assert check_linearizable(recorder.trace(), kv_store_adt()).ok


def log_kinds(wal_dir):
    """Record kinds in a node's at-rest log (``WriteAheadLog`` adds no
    marker of its own, so reading does not change what is counted)."""
    log = WriteAheadLog(str(wal_dir))
    log.close()
    return Counter(record[0] for record in log.records)


class TestRoleMaterialization:
    """A slot materialises only the roles that are spoken to, and the
    fast path pays nothing for Backup."""

    def test_fast_decrees_cost_one_role_one_record_one_frame(self, tmp_path):
        decrees = 6

        async def scenario():
            cluster = ShardedCluster(n_servers=3, wal_root=str(tmp_path))
            await cluster.start()
            try:
                transport = cluster.client_transport("clients")
                recorder = HistoryRecorder(clock=lambda: transport.now)
                client = make_client(cluster, transport, recorder)
                for value in range(decrees):
                    await client.submit(("put", "k", value))
                assert all(r.path == "fast" for r in client.results)
                await asyncio.sleep(0.05)  # nothing is still in flight
                for node in cluster.nodes:
                    hosted = Counter(pid[0] for pid in node.transport.processes)
                    assert hosted == {"qs": decrees, "ctl": 1}
                    # one q-accept per decree and nothing else
                    assert node.transport.stats.sent == decrees
            finally:
                await cluster.stop()

        asyncio.run(scenario())
        for index in range(3):
            kinds = log_kinds(tmp_path / f"node{index}")
            assert kinds == {"inc": 1, "qs": decrees}

    def test_a_torn_tail_costs_no_acknowledged_acceptance(self, tmp_path):
        # A fast-path log ends with an acknowledged ``qs`` record (it
        # used to end with a Backup promise nobody relied on), so the
        # at-rest tear must be the append in flight, never that record:
        # forgetting it lets a late reader steal a decided slot.
        async def scenario():
            cluster = ShardedCluster(n_servers=3, wal_root=str(tmp_path))
            await cluster.start()
            try:
                transport = cluster.client_transport("clients")
                recorder = HistoryRecorder(clock=lambda: transport.now)
                client = make_client(cluster, transport, recorder)
                for value in range(4):
                    await client.submit(("put", "k", value))
                await cluster.kill(2)
                assert tear_tail(str(tmp_path / "node2" / "wal.log"), cut=3)
                (node,) = await cluster.restart(2)
                assert node.fold.torn_tail
                assert sorted(node.fold.quorum) == [
                    r.slot for r in client.results
                ]
                late = make_client(cluster, transport, recorder, name="late")
                assert await late.submit(("get", "k")) == ("value", 3)
                return recorder
            finally:
                await cluster.stop()

        recorder = asyncio.run(scenario())
        assert check_linearizable(recorder.trace(), kv_store_adt()).ok

    def test_node_zero_claims_ballot_zero_only_on_a_first_open(self, tmp_path):
        async def scenario():
            node = ReplicaNode(0, 3, AddressBook(), wal=NodeWAL(str(tmp_path)))
            first = node._role("coord", 7)
            assert first.has_quorum and first.ballot == 0
            await asyncio.sleep(0.01)
            assert node.transport.stats.sent == 0  # no prepare, and
            assert first._retry_timer is None  # no timer
            await node.stop()
            # the same directory again: a later incarnation of node 0
            node = ReplicaNode(0, 3, AddressBook(), wal=NodeWAL(str(tmp_path)))
            again = node._role("coord", 7)
            assert not again.has_quorum and again.ballot is None
            await asyncio.sleep(0.01)  # the deferred pre-prepare runs
            # it buys its promise the classical way, above ballot 0
            assert (again.round, again.ballot) == (1, 3)
            assert node.transport.stats.sent == 3
            await node.stop()
            # other ranks never owned ballot 0
            node = ReplicaNode(1, 3, AddressBook())
            assert not node._role("coord", 7).has_quorum
            await node.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("first_frame", ["accept", "register-learner"])
    def test_acceptor_materialises_on_its_first_backup_frame(
        self, first_frame
    ):
        async def scenario():
            node = ReplicaNode(2, 3, AddressBook())
            sent = []
            node.transport.send = lambda src, dst, m: sent.append((dst, m))
            acc, learner = ("acc", 4, 2), ("bcli", "x")
            if first_frame == "register-learner":
                node.transport._deliver(
                    learner, ("ctl", 0, 2), ("register-learner", 4, learner)
                )
                assert node.transport.processes[acc].learners == (learner,)
            node.transport._deliver(("coord", 4, 0), acc, ("accept", 0, "v"))
            acceptor = node.transport.processes[acc]
            assert acceptor.accepted_value == "v"
            # the vote goes to the coordinator that asked and to the
            # enlisted client: no other coordinator listens
            listeners = [("coord", 4, 0)]
            if first_frame == "register-learner":
                listeners.append(learner)
            assert sorted(sent) == sorted(
                (dst, ("accepted", 0, "v")) for dst in listeners
            )
            # node 2's coordinator would start nothing: nothing built it
            assert ("coord", 4, 2) not in node.transport.processes
            assert ("qs", 4, 2) not in node.transport.processes
            await node.stop()

        asyncio.run(scenario())

    def test_a_registration_builds_only_the_pre_preparing_coordinator(self):
        async def scenario():
            built = {}
            for index in range(3):
                node = ReplicaNode(index, 3, AddressBook())
                node.transport._deliver(
                    ("bcli", "x"), ("ctl", 0, index),
                    ("register-learner", 4, ("bcli", "x")),
                )
                built[index] = ("coord", 4, index) in node.transport.processes
                await node.stop()
            return built

        assert asyncio.run(scenario()) == {0: True, 1: False, 2: False}

    def test_a_control_frame_naming_no_slot_is_dropped_and_counted(
        self, tmp_path
    ):
        """A control frame passes the rule a frame's address does, so a
        bad slot builds no role and no WAL fact: a register-learner for
        slot "x" used to log ("acc", "x", ...) and stop the next start
        (str and int slots do not sort)."""

        async def scenario():
            wal = NodeWAL(str(tmp_path))
            node = ReplicaNode(0, 3, AddressBook(), wal=wal)
            deliver, stats = node.transport._deliver, node.transport.stats
            learner = ("bcli", "x")
            for bad in (
                ("register-learner", "x", learner),
                ("register-learner", 4),
                ("register-learner", 4, learner, 5),
                ("forget-learner", 4, learner),
                "register-learner",
            ):
                deliver(learner, ("ctl", 0, 0), bad)
            assert stats.dropped_crashed == 5
            deliver(("coord", "x", 0), ("acc", "x", 0), ("prepare", 1))
            assert stats.dropped_crashed == 6
            deliver(("qcli", "y"), ("qs", 1, 0), ("q-propose", "v"))
            await asyncio.sleep(0)
            assert list(node.transport.processes) == [
                ("ctl", 0, 0), ("qs", 1, 0),
            ]
            await node.stop()
            node = ReplicaNode(0, 3, AddressBook(), wal=NodeWAL(str(tmp_path)))
            await node.start()
            assert node.fold.slots() == [1]
            await node.stop()

        asyncio.run(scenario())

    def test_a_role_built_late_restores_the_open_time_fact(self, tmp_path):
        """Roles restore from the WAL's running fold: while other slots'
        roles write to it, a slot whose roles are not built yet keeps
        exactly what the open recovered."""
        wal = NodeWAL(str(tmp_path))
        wal.record("qs", 3, "v")
        wal.record_acceptor(3, (2, 1, "v"))
        wal.record_decided(3, "v")
        wal.close()

        async def scenario():
            reopened = NodeWAL(str(tmp_path))
            opened = copy.deepcopy(reopened.state)
            node = ReplicaNode(1, 3, AddressBook(), wal=reopened)
            assert node.fold is reopened.state
            deliver = node.transport._deliver
            deliver(("qcli", "x"), ("qs", 4, 1), ("q-propose", "w"))
            deliver(("coord", 4, 0), ("acc", 4, 1), ("accept", 0, "w"))
            await asyncio.sleep(0)
            moved = (dict(reopened.state.quorum), reopened.state.acceptors[4])
            qs, acc, coord = (node._role(k, 3) for k in ("qs", "acc", "coord"))
            built = (qs.durable_state(), acc.durable_state(), coord.decision)
            await node.stop()
            return opened, moved, built, coord.round

        opened, moved, built, round_ = asyncio.run(scenario())
        assert moved == ({3: "v", 4: "w"}, (0, 0, "w"))
        assert built == (
            opened.quorum[3], opened.acceptors[3], opened.decided[3]
        ) == ("v", (2, 1, "v"), "v")
        assert round_ >= opened.incarnation == 1

    def test_backup_with_a_dead_replica_decides_over_lazy_roles(self, tmp_path):
        async def scenario():
            cluster = ShardedCluster(n_servers=3, wal_root=str(tmp_path))
            await cluster.start()
            try:
                await cluster.kill(1)
                transport = cluster.client_transport("clients")
                recorder = HistoryRecorder(clock=lambda: transport.now)
                client = make_client(cluster, transport, recorder)
                assert await client.submit(("put", "k", 1)) == ("value", None)
                assert [r.path for r in client.results] == ["slow"]
                slot = client.results[0].slot
                for index in (0, 2):
                    hosted = cluster.nodes[index].transport.processes
                    assert {("qs", slot, index), ("acc", slot, index)} <= set(
                        hosted
                    )
                # ballot 0, held without a phase 1, carried the decree
                coordinator = cluster.nodes[0].transport.processes[
                    ("coord", slot, 0)
                ]
                assert coordinator.decision is not None
                assert coordinator.ballot == 0
            finally:
                await cluster.stop()

        asyncio.run(scenario())
        assert log_kinds(tmp_path / "node0")["acc"] >= 1

    def test_a_degraded_decree_announces_only_to_who_listens(self, tmp_path):
        """Backup's learners are its clients: a vote goes to the enlisted
        client and to the coordinator whose accept it answers, node 1
        builds no coordinator, and node 1's coordinator, asked after a
        restart, learns the decision in phase 1."""

        async def scenario():
            cluster = ShardedCluster(n_servers=3, wal_root=str(tmp_path))
            await cluster.start()
            try:
                await cluster.kill(2)
                sent = []
                for node in cluster.nodes[:2]:
                    def capture(src, dst, message, send=node.transport.send):
                        sent.append((src, dst, message))
                        send(src, dst, message)

                    node.transport.send = capture
                transport = cluster.client_transport("clients")
                recorder = HistoryRecorder(clock=lambda: transport.now)
                client = make_client(cluster, transport, recorder)
                assert await client.submit(("put", "k", 1)) == ("value", None)
                assert [r.path for r in client.results] == ["slow"]
                slot = client.results[0].slot
                decided = client.pipeline.log[slot]
                await asyncio.sleep(0.05)  # nothing is still in flight
                accepts = {
                    (src, dst[2], message[1])
                    for src, dst, message in sent if message[0] == "accept"
                }
                votes = [
                    (src, dst, message)
                    for src, dst, message in sent if message[0] == "accepted"
                ]
                assert votes
                for src, dst, (_, ballot, value) in votes:
                    learners = cluster.nodes[src[2]].transport.processes[
                        src
                    ].learners
                    assert dst in learners or (dst, src[2], ballot) in accepts
                    assert dst[0] != "coord" or dst == ("coord", slot, 0)
                    assert value == decided
                hosted = cluster.nodes[1].transport.processes
                assert ("coord", slot, 1) not in hosted
                await cluster.kill(1)
                # one decision record, on the node that decided
                assert "dec" not in log_kinds(tmp_path / "node1")
                assert log_kinds(tmp_path / "node0")["dec"] == 1
                (node,) = await cluster.restart(1)
                probe = transport.register(_Sink(("pcli", "probe")))
                deadline = transport.now + 3.0
                while not probe.got and transport.now < deadline:
                    # asked first, it runs phase 1 and learns the value
                    # from the promises; asked again, it answers
                    probe.send(("coord", slot, 1), ("request", "other"))
                    await asyncio.sleep(0.05)
                assert probe.got[0] == ("decision", decided)
                assert node.transport.processes[("coord", slot, 1)].ballot > 0
            finally:
                await cluster.stop()

        asyncio.run(scenario())

    def test_restart_of_node_zero_recovers_roles_and_leaves_ballot_zero(
        self, tmp_path
    ):
        async def scenario():
            cluster = ShardedCluster(n_servers=3, wal_root=str(tmp_path))
            await cluster.start()
            try:
                transport = cluster.client_transport("clients")
                recorder = HistoryRecorder(clock=lambda: transport.now)
                client = make_client(cluster, transport, recorder)
                for value in range(3):
                    await client.submit(("put", "k", value))
                await cluster.kill(0)
                (node,) = await cluster.restart(0)
                assert node.fold.incarnation == 1
                # recovery is all three roles of every recovered slot,
                # each restored from its own part of the fold
                slots = node.fold.slots()
                assert slots == [r.slot for r in client.results]
                for slot in slots:
                    hosted = node.transport.processes
                    assert hosted[("qs", slot, 0)].accepted is not None
                    assert ("acc", slot, 0) in hosted
                    assert not hosted[("coord", slot, 0)].has_quorum
                # with node 2 gone every new decree needs Backup, led
                # by the restarted node 0 from a ballot above 0
                await cluster.kill(2)
                for value in range(3, 6):
                    await client.submit(("put", "k", value))
                assert [r.path for r in client.results[3:]] == ["slow"] * 3
                for result in client.results[3:]:
                    coordinator = node.transport.processes[
                        ("coord", result.slot, 0)
                    ]
                    assert coordinator.round >= 1 and coordinator.ballot >= 3
                assert await client.submit(("get", "k")) == ("value", 5)
                return recorder
            finally:
                await cluster.stop()

        recorder = asyncio.run(scenario())
        assert check_linearizable(recorder.trace(), kv_store_adt()).ok


class TestRouteTable:
    """Reply routes are learned per pid and a pipelined client mints a
    pid per decree: the table is bounded, oldest first."""

    def test_table_stays_bounded_and_an_evicted_reply_is_lost(
        self, monkeypatch
    ):
        bound = 8
        monkeypatch.setattr(transport_module, "MAX_ROUTES", bound)

        async def scenario():
            cluster = ShardedCluster(n_servers=3)
            await cluster.start()
            try:
                transport = cluster.client_transport("clients")
                recorder = HistoryRecorder(clock=lambda: transport.now)
                client = make_client(cluster, transport, recorder)
                for value in range(10 * bound):
                    assert await client.submit(("put", "k", value)) == (
                        "value", value - 1 if value else None,
                    )
                assert len({r.slot for r in client.results}) == 10 * bound
                server = cluster.nodes[0].transport
                for node in cluster.nodes:
                    assert 0 < len(node.transport._routes) <= bound
                # the first decree's client pid was forgotten long ago:
                # a late reply to it is a lost frame, counted, not raised
                forgotten = ("qcli", (client.pipeline.name, 0))
                assert forgotten not in server._routes
                lost = server.stats.lost
                server.send(("qs", 0, 0), forgotten, ("q-accept", "late"))
                assert server.stats.lost == lost + 1
                return recorder
            finally:
                await cluster.stop()

        recorder = asyncio.run(scenario())
        assert not recorder.pending_clients()
        assert check_linearizable(recorder.trace(), kv_store_adt()).ok


# ---------------------------------------------------------------------------
# the read side: a frame is dispatched in the callback that received it
# ---------------------------------------------------------------------------


class _Sink(Process):
    """A role that keeps what it is sent; ``fuse`` many of its first
    messages blow up in the handler instead (a bug in a role)."""

    def __init__(self, pid, fuse=0, reply_to=None):
        super().__init__(pid)
        self.got, self.fuse, self.reply_to = [], fuse, reply_to

    def on_message(self, src, message):
        if self.fuse:
            self.fuse -= 1
            raise RuntimeError(f"{self.pid} cannot take {message!r}")
        self.got.append(message)
        if self.reply_to is not None:
            self.send(self.reply_to, ("echo", message))


class TestReadSide:
    SERVER_PID = ("qs", 0, 0)  # resolves statically to node0

    async def _server(self, **sink_kwargs):
        book = AddressBook()
        server = AsyncTransport("node0", book, codec=BINARY_CODEC)
        sink = server.register(_Sink(self.SERVER_PID, **sink_kwargs))
        book.add("node0", *await server.start_server())
        return book, server, sink

    def test_frames_are_dispatched_whole_and_in_order(self):
        """Three frames in one write, then one frame in three writes:
        the decoder is the only buffer between the socket and the role."""

        def frame(n):
            return BINARY_CODEC.encode_frame(
                (("raw", 0), self.SERVER_PID, ("m", n, "x" * 50))
            )

        async def scenario():
            book, server, sink = await self._server()
            _reader, writer = await asyncio.open_connection(
                *book.lookup("node0")
            )
            writer.write(frame(0) + frame(1) + frame(2))
            await writer.drain()
            await asyncio.sleep(0.05)
            first = list(sink.got)
            last = frame(3)
            for part in (last[:3], last[3:40], last[40:]):
                assert [m[1] for m in sink.got] == [0, 1, 2]
                writer.write(part)
                await writer.drain()
                await asyncio.sleep(0.05)
            writer.close()
            await server.close()
            return first, sink.got, server.stats.delivered

        (first, got, delivered), errors = run_quiet(scenario)
        assert errors == []
        assert [m[1] for m in first] == [0, 1, 2]
        assert [m[1] for m in got] == [0, 1, 2, 3] and delivered == 4

    @pytest.mark.parametrize("buffer", [7, transport_module.READ_BUFFER])
    def test_frames_split_across_reads_and_larger_than_the_buffer(
        self, monkeypatch, buffer
    ):
        """Whatever the reads cut, every frame arrives whole: at a
        7-byte buffer every frame spans reads, and one frame is three
        times the real buffer."""
        monkeypatch.setattr(transport_module, "READ_BUFFER", buffer)
        sizes = [0, 50, 3 * transport_module.READ_BUFFER, 5]

        async def scenario():
            book, server, sink = await self._server()
            _reader, writer = await asyncio.open_connection(
                *book.lookup("node0")
            )
            writer.write(b"".join(
                BINARY_CODEC.encode_frame(
                    (("raw", 0), self.SERVER_PID, ("m", n, "x" * size))
                )
                for n, size in enumerate(sizes)
            ))
            await writer.drain()
            for _ in range(500):
                if len(sink.got) == len(sizes):
                    break
                await asyncio.sleep(0.01)
            (connection,) = server._connections
            kept = len(connection.get_protocol().buffer)
            writer.close()
            await server.close()
            return sink.got, kept

        (got, kept), errors = run_quiet(scenario)
        assert errors == []
        assert [(m[1], len(m[2])) for m in got] == list(enumerate(sizes))
        assert kept == buffer

    def test_a_thousand_reads_allocate_no_large_buffer(self):
        """A read lands in the connection's one buffer: no read asks the
        allocator for asyncio's 256 KiB (served by mmap in a fresh
        process), so the traced peak stays far below it above what the
        run keeps (the sink keeps every message)."""
        import tracemalloc

        def frame(n):
            return BINARY_CODEC.encode_frame(
                (("raw", 0), self.SERVER_PID, ("m", n, "x" * 600))
            )

        async def scenario():
            book, server, sink = await self._server()
            _reader, writer = await asyncio.open_connection(
                *book.lookup("node0")
            )

            async def one_read(n):
                writer.write(frame(n))
                while len(sink.got) <= n:
                    await asyncio.sleep(0)

            await one_read(0)  # the buffer is allocated by the first
            tracemalloc.start()
            try:
                for n in range(1, 1001):
                    await one_read(n)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            writer.close()
            await server.close()
            return len(sink.got), peak - current

        (delivered, spike), errors = run_quiet(scenario)
        assert errors == [] and delivered == 1001
        assert spike < 64 * 1024

    def test_a_raising_role_costs_the_listening_end_one_connection(self):
        """Whatever a handler raises that is no ``FrameError`` is a bug,
        not a bad peer: the connection it arrived on is closed, the
        loop's exception handler hears of it exactly once, and the next
        send dials a new connection and is delivered."""

        async def scenario():
            book, server, sink = await self._server(fuse=1)
            client = AsyncTransport("cli", book, codec=BINARY_CODEC)
            client.send(("cli", 0), self.SERVER_PID, "first")
            await asyncio.sleep(0.1)
            routes, pooled = dict(server._routes), client._peers["node0"].writer
            client.send(("cli", 0), self.SERVER_PID, "second")
            await asyncio.sleep(0.1)
            redialled = client._peers["node0"].writer
            await client.close()
            await server.close()
            return sink.got, routes, pooled, redialled

        (got, routes, pooled, redialled), errors = run_quiet(scenario)
        assert len(errors) == 1
        assert isinstance(errors[0]["exception"], RuntimeError)
        # _forget_routes ran on the server, _forget_peer on the client
        # (which saw the hang-up): nothing points at the dead connection
        assert routes == {} and pooled is None
        assert got == ["second"] and redialled is not None

    def test_a_raising_role_costs_the_dialling_end_one_connection(self):
        async def scenario():
            book, server, sink = await self._server(reply_to=("cli", 0))
            client = AsyncTransport("cli", book, codec=BINARY_CODEC)
            mine = client.register(_Sink(("cli", 0), fuse=1))
            mine.send(self.SERVER_PID, "first")  # its echo blows up here
            await asyncio.sleep(0.1)
            routes, pooled = dict(client._routes), client._peers["node0"].writer
            mine.send(self.SERVER_PID, "second")
            await asyncio.sleep(0.1)
            await client.close()
            await server.close()
            return sink.got, mine.got, routes, pooled

        (served, echoed, routes, pooled), errors = run_quiet(scenario)
        assert len(errors) == 1
        assert isinstance(errors[0]["exception"], RuntimeError)
        assert routes == {} and pooled is None
        assert served == ["first", "second"]
        assert echoed == [("echo", "second")]

    def test_bytes_after_close_deliver_nothing(self):
        async def scenario():
            book, server, sink = await self._server()
            _reader, writer = await asyncio.open_connection(
                *book.lookup("node0")
            )
            await asyncio.sleep(0.05)
            (connection,) = server._connections
            protocol = connection.get_protocol()
            frame = BINARY_CODEC.encode_frame(
                (("raw", 0), self.SERVER_PID, "late")
            )
            await server.close()
            # a read that landed before close ran
            protocol.get_buffer(-1)[: len(frame)] = frame
            protocol.buffer_updated(len(frame))
            writer.write(frame)  # and one off the socket
            await asyncio.sleep(0.05)
            hung_up = await _reader.read()
            writer.close()
            return sink.got, server.stats.delivered, hung_up

        (got, delivered, hung_up), errors = run_quiet(scenario)
        assert errors == []
        assert got == [] and delivered == 0 and hung_up == b""

    def test_a_connection_accepted_while_closing_is_hung_up_on(
        self, monkeypatch
    ):
        """``close()`` can run between an accept and its
        ``connection_made``, when the connection is in no table yet.
        Left open, its dialler would keep pouring frames into a dead
        endpoint instead of re-dialling the restarted one."""
        closers = []

        class ClosesAtAccept(transport_module._Connection):
            def __init__(self, owner):
                super().__init__(owner)
                closers.append(asyncio.ensure_future(owner.close()))

        async def scenario():
            book, server, _sink = await self._server()
            address = book.lookup("node0")
            monkeypatch.setattr(
                transport_module, "_Connection", ClosesAtAccept
            )
            reader, writer = await asyncio.open_connection(*address)
            hung_up = await asyncio.wait_for(reader.read(), 2.0)
            writer.close()
            await asyncio.gather(*closers)
            await asyncio.sleep(0)
            return hung_up, server.closed, set(server._connections)

        (hung_up, closed, left), errors = run_quiet(scenario)
        assert errors == []
        assert closed and hung_up == b"" and left == set()


# ---------------------------------------------------------------------------
# one of each: asyncio's timer handles, one resolution per frame
# ---------------------------------------------------------------------------


class TestOneOfEach:
    def test_a_cancelled_timer_never_fires_and_a_fired_one_cancels_harmlessly(
        self,
    ):
        async def scenario():
            transport = AsyncTransport("cli", AddressBook())
            fired = []
            early = transport.call_later(0.01, lambda: fired.append("early"))
            doomed = transport.call_later(0.02, lambda: fired.append("doomed"))
            doomed.cancel()
            await asyncio.sleep(0.05)
            early.cancel()
            await asyncio.sleep(0.01)
            await transport.close()
            return fired, early

        (fired, early), errors = run_quiet(scenario)
        assert errors == [] and fired == ["early"]
        assert isinstance(early, asyncio.TimerHandle)

    def test_a_held_frame_resolves_again_as_it_fires(self):
        """A slow-node hold defers the write, not the lookup: the reply
        route that was live at ``send`` is gone by the time the hold
        ends, so the frame is counted lost, never written."""
        pid = ("cli", 0)

        async def scenario():
            book = AddressBook()
            faults = TransportFaults(seed=0)
            server = AsyncTransport("node0", book, faults=faults)
            server.register(_Sink(TestReadSide.SERVER_PID))
            book.add("node0", *await server.start_server())
            client = AsyncTransport("cli", book)
            mine = client.register(_Sink(pid))
            mine.send(TestReadSide.SERVER_PID, "hello")
            await asyncio.sleep(0.05)
            assert pid in server._routes  # learned from the hello
            faults.slow("node0", 0.1)
            server.send(TestReadSide.SERVER_PID, pid, "held")
            lost = server.stats.lost
            await client.close()
            await asyncio.sleep(0.2)
            stats = (server.stats.lost - lost, server.stats.sent)
            await server.close()
            return mine.got, stats

        (got, (lost, sent)), errors = run_quiet(scenario)
        assert errors == []
        assert got == [] and lost == 1 and sent == 1


# ---------------------------------------------------------------------------
# an unreachable endpoint: announced at once, dialled once per cooldown
# ---------------------------------------------------------------------------


class TestUnreachable:
    SERVER_PID = ("qs", 0, 0)  # resolves statically to node0

    async def _node0(self, book):
        server = AsyncTransport("node0", book, codec=BINARY_CODEC)
        sink = server.register(_Sink(self.SERVER_PID))
        book.add("node0", *await server.start_server())
        return server, sink

    def test_a_killed_node_costs_one_dial_per_cooldown(self):
        """Frames to a killed (unpublished) node are lost without a dial
        each: one dial per cooldown, and the restarted node is reached
        again one cooldown after the last miss."""
        cooldown = transport_module.RECONNECT_COOLDOWN
        span = 2.4 * cooldown

        async def scenario():
            book = AddressBook()
            server, _ = await self._node0(book)
            client = AsyncTransport("cli", book, codec=BINARY_CODEC)
            heard, dials = [], []
            client.unreachable_listeners.append(heard.append)
            connect = client._connect

            def counting(dst_ep, peer):
                dials.append(dst_ep)
                return connect(dst_ep, peer)

            client._connect = counting
            client.send(("cli", 0), self.SERVER_PID, "before")
            await asyncio.sleep(0.05)
            await server.close()
            await asyncio.sleep(0.01)
            killed_at, before = client.now, len(dials)
            while client.now < killed_at + span:
                client.send(("cli", 0), self.SERVER_PID, "lost")
                await asyncio.sleep(0.005)
            redials = len(dials) - before
            server, sink = await self._node0(book)
            await asyncio.sleep(cooldown)
            client.send(("cli", 0), self.SERVER_PID, "after")
            await asyncio.sleep(0.05)
            await client.close()
            await server.close()
            return heard, redials, sink.got

        (heard, redials, got), errors = run_quiet(scenario)
        assert errors == []
        # the FIN, then each failed lookup, announced node0
        assert heard[0] == "node0" and set(heard) == {"node0"}
        assert 1 <= redials <= 3
        assert got == ["after"]

    def test_every_way_of_losing_an_endpoint_announces_it(self):
        """A closed connection, a pooled writer found closing, a refused
        dial: each announces the endpoint once; a transport closing
        itself announces nothing."""

        async def scenario():
            book = AddressBook()
            server, _ = await self._node0(book)
            client = AsyncTransport("cli", book, codec=BINARY_CODEC)
            heard = []
            client.unreachable_listeners.append(heard.append)
            client.send(("cli", 0), self.SERVER_PID, "dial")
            await asyncio.sleep(0.05)
            steps = [list(heard)]
            # the send path finds the pooled writer closing first
            client._peers["node0"].writer.close()
            client.send(("cli", 0), self.SERVER_PID, "lost")
            await asyncio.sleep(0.05)
            steps.append(list(heard))
            # a refused dial: node0's port is published but closed
            address = book.lookup("node0")
            await server.close()
            book.add("node0", *address)
            client._peers["node0"].dead_until = 0.0
            client.send(("cli", 0), self.SERVER_PID, "refused")
            await asyncio.sleep(0.05)
            steps.append(list(heard))
            # a transport closing itself
            server, _ = await self._node0(book)
            client._peers["node0"].dead_until = 0.0
            client.send(("cli", 0), self.SERVER_PID, "redial")
            await asyncio.sleep(0.05)
            await client.close()
            await asyncio.sleep(0.05)
            steps.append(list(heard))
            await server.close()
            return steps

        steps, errors = run_quiet(scenario)
        assert errors == []
        assert steps == [[], ["node0"], ["node0"] * 2, ["node0"] * 2]

    def test_a_frame_to_a_dead_endpoint_is_never_encoded(self):
        """Inside the cooldown a frame to a dead endpoint is counted lost
        before the codec sees it, on the transport and on the link, as
        it was counted after encoding; once the cooldown is over the
        next send is encoded and dials again."""
        cooldown = transport_module.RECONNECT_COOLDOWN

        class Spy(BinaryCodec):
            def __init__(self):
                self.encoded = []

            def encode_frame(self, value, memo=None):
                self.encoded.append(value[2])
                return super().encode_frame(value, memo)

        async def scenario():
            book = AddressBook()  # node0 never published: dials fail
            spy = Spy()
            client = AsyncTransport("cli", book, codec=spy)
            dials = []
            connect = client._connect

            def counting(dst_ep, peer):
                dials.append(dst_ep)
                return connect(dst_ep, peer)

            client._connect = counting
            seen = []

            def look():
                link = client.stats.link("cli", "node0")
                seen.append(
                    (list(spy.encoded), client.stats.lost, link.lost, dials[:])
                )

            client.send(("cli", 0), self.SERVER_PID, "first")
            await asyncio.sleep(0.01)
            look()
            for n in range(5):
                client.send(("cli", 0), self.SERVER_PID, f"dead{n}")
            look()
            await asyncio.sleep(cooldown + 0.02)
            client.send(("cli", 0), self.SERVER_PID, "after")
            await asyncio.sleep(0.01)
            look()
            await client.close()
            return seen

        seen, errors = run_quiet(scenario)
        assert errors == []
        assert seen == [
            (["first"], 1, 1, ["node0"]),
            (["first"], 6, 6, ["node0"]),
            (["first", "after"], 7, 7, ["node0", "node0"]),
        ]

    def test_an_unencodable_frame_raises_before_it_dials(self):
        """The codec refuses the frame before the transport dials for it:
        no connection attempt is left in flight with nothing to carry."""

        async def scenario():
            client = AsyncTransport("cli", AddressBook())
            with pytest.raises(FrameError):
                client.send(("cli", 0), self.SERVER_PID, object())
            tasks = [peer.task for peer in client._peers.values()]
            await client.close()
            return tasks

        tasks, errors = run_quiet(scenario)
        assert errors == []
        assert tasks == [None]
