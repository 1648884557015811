"""`LocalCluster`: an in-process n-replica deployment on localhost TCP.

Each replica is a :class:`~repro.net.node.ReplicaNode` with its own
:class:`~repro.net.transport.AsyncTransport` and listener on an
ephemeral port; all of them (and any client transports handed out by
:meth:`client_transport`) share one :class:`AddressBook`, which is the
cluster's entire static configuration.  Unless told otherwise a cluster
is the measured plane: binary frames and group-committed WALs
(``codec="json"``, ``group_commit=False`` are the seed's, kept as the
instrument of ``bench_throughput.run_seed_config``).

``kill(i)`` closes a node's transport mid-run — listener gone,
connections severed, address withdrawn — which is how the loadgen and
the resilience tests exercise the Backup path over real sockets: with
one of three replicas dead, Quorum can never again collect accepts from
*all* servers, so every affected slot decides through Paxos (majority
2/3 still alive).

With ``wal_root`` set each node persists its durable state to a
:class:`~repro.net.wal.NodeWAL` under ``wal_root/node{i}``, and
``restart(i)`` relaunches a killed node *from that directory*: a fresh
``ReplicaNode`` replays the WAL, rebuilds its per-slot roles with
recovered acceptor triples, sticky Quorum acceptances and decided
values, and rebinds the listener — peers reconnect via the address
book on their next send.  Node indices listed in ``amnesiac`` get no
WAL and restart blank, the deliberate durability bug the net nemesis
campaign must catch (:mod:`repro.faults.netcampaign`).  ``wal_fs``
substitutes a :class:`~repro.net.faultfs.FaultFS` under selected
nodes' WALs — the storage-fault campaigns inject ``ENOSPC`` and torn
writes through it.  A restart whose WAL replay finds provable
corruption propagates :exc:`~repro.net.wal.WALCorruptionError`: the
node fail-stops (stays dead) rather than serve from a corrupt fold.
A disk too full for the WAL's incarnation marker propagates
:exc:`~repro.net.wal.WALFullError` the same way: the node stays dead
(it must not claim ballot 0 on an incarnation it could not record)
until a later ``restart`` finds room.

:class:`Supervisor` automates the relaunch: a watch task polls for dead
nodes and calls ``restart`` on each — unless the index is held via
:meth:`Supervisor.hold`, which is how chaos schedules keep a node down
for a controlled window.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

from .codec import Codec, get_codec
from .faultfs import FaultFS
from .netfaults import TransportFaults
from .node import ReplicaNode
from .transport import AddressBook, AsyncTransport
from .wal import NodeWAL, WALCorruptionError, WALFullError


class LocalCluster:
    """n replica nodes in this process, one ephemeral TCP port each."""

    def __init__(
        self,
        n_servers: int = 3,
        faults: Optional[TransportFaults] = None,
        host: str = "127.0.0.1",
        port_base: Optional[int] = None,
        wal_root: Optional[str] = None,
        amnesiac: Sequence[int] = (),
        wal_fs: Optional[Dict[int, FaultFS]] = None,
        codec: str = "binary",
        group_commit: bool = True,
    ) -> None:
        self.n_servers = n_servers
        self.book = AddressBook()
        self.faults = faults
        self.host = host
        self.port_base = port_base
        self.wal_root = wal_root
        self.amnesiac = frozenset(amnesiac)
        self.wal_fs = wal_fs or {}
        self.codec: Codec = get_codec(codec)
        self.group_commit = group_commit
        self.stopped = False
        self.nodes: List[ReplicaNode] = [
            self._make_node(i) for i in range(n_servers)
        ]
        self._client_transports: List[AsyncTransport] = []

    def _make_node(self, index: int) -> ReplicaNode:
        """Build a node, opening (and replaying) its WAL if configured."""
        wal = None
        if self.wal_root is not None and index not in self.amnesiac:
            wal = NodeWAL(
                os.path.join(self.wal_root, f"node{index}"),
                fs=self.wal_fs.get(index),
                group_commit=self.group_commit,
            )
        return ReplicaNode(
            index,
            self.n_servers,
            self.book,
            faults=self.faults,
            host=self.host,
            port=0 if self.port_base is None else self.port_base + index,
            wal=wal,
            codec=self.codec,
        )

    async def start(self) -> None:
        """Bind every node and publish the cluster in the address book."""
        for node in self.nodes:
            await node.start()

    def client_transport(self, name: str = "client") -> AsyncTransport:
        """A client-side transport wired to this cluster's address book.

        Clients share one transport per process: n pooled connections
        instead of n per client, and learned reply routes serve every
        client pid on it.  The transport is closed by :meth:`stop`.
        """
        transport = AsyncTransport(
            name, self.book, faults=self.faults, codec=self.codec
        )
        self._client_transports.append(transport)
        return transport

    def client_transports(self, name: str = "client") -> List[AsyncTransport]:
        """A one-shard deployment's answer to
        :meth:`ShardedCluster.client_transports`: one transport, named
        ``name`` itself (the endpoint a partition action cuts)."""
        return [self.client_transport(name)]

    async def kill(self, index: int) -> None:
        """Kill replica ``index`` (crash semantics, no clean handover)."""
        await self.nodes[index].stop()

    async def restart(self, index: int) -> ReplicaNode:
        """Relaunch a killed replica from its WAL directory.

        A fresh :class:`ReplicaNode` replays the node's WAL (if the
        cluster has one) and rebuilds every recovered slot's roles
        before the new listener accepts a single frame; an amnesiac
        node comes back blank.  Peers and clients reconnect through the
        shared address book — the transport's per-peer reconnect
        cooldown retries the lookup on the next send.
        """
        old = self.nodes[index]
        if not old.transport.closed:
            raise RuntimeError(f"node{index} is still alive; kill it first")
        node = self._make_node(index)
        self.nodes[index] = node
        await node.start()
        return node

    async def stop(self) -> None:
        """Tear the whole deployment down (idempotent)."""
        self.stopped = True
        for transport in self._client_transports:
            await transport.close()
        for node in self.nodes:
            await node.stop()

    def alive(self) -> List[int]:
        """Indices of the nodes still serving."""
        return [
            node.index for node in self.nodes if not node.transport.closed
        ]


def shard_of(key: object, n_shards: int) -> int:
    """The shard index serving ``key`` — stable across processes.

    Uses crc32 over ``repr(key)`` rather than Python's ``hash`` (which
    is salted per process for strings): clients, the loadgen and the
    checker must all agree on the routing, forever.
    """
    return zlib.crc32(repr(key).encode("utf-8")) % n_shards


class ShardedCluster:
    """N independent replica groups, routed by the partition key.

    Each shard is a full :class:`LocalCluster` — its own address book,
    nodes, WAL directories and consensus state — and serves a disjoint
    subset of keys chosen by :func:`shard_of`.  The routing key is the
    *same* key :class:`~repro.core.adt.PartitionSpec` partitions traces
    by, which is what makes verification compositional: every command
    for a key executes on exactly one shard, so each shard's recorded
    history is a complete history over its key subset, P-compositional
    checking applies shard-locally, and the whole deployment is
    linearizable iff every shard's history is
    (Horn & Kroening's locality argument, see PAPERS.md).
    """

    def __init__(
        self,
        n_shards: int = 2,
        n_servers: int = 3,
        wal_root: Optional[str] = None,
        **cluster_kwargs,
    ) -> None:
        self.n_shards = n_shards
        self.shards: List[LocalCluster] = [
            LocalCluster(
                n_servers=n_servers,
                wal_root=(
                    os.path.join(wal_root, f"shard{s}")
                    if wal_root is not None
                    else None
                ),
                **cluster_kwargs,
            )
            for s in range(n_shards)
        ]

    async def start(self) -> None:
        for shard in self.shards:
            await shard.start()

    async def stop(self) -> None:
        for shard in self.shards:
            await shard.stop()

    def client_transports(self, name: str = "client") -> List[AsyncTransport]:
        """One client transport per shard, in shard order."""
        return [
            shard.client_transport(f"{name}-s{s}")
            for s, shard in enumerate(self.shards)
        ]


class Supervisor:
    """Detects dead nodes and relaunches them from their WAL directories.

    The watch task polls ``cluster.nodes`` every ``poll_interval``
    seconds; a node found dead (and not held) is restarted via
    :meth:`LocalCluster.restart`.
    ``hold(i)``/``release(i)`` exempt an index — chaos schedules hold a
    node before killing it so the down window stays *theirs*, then
    release it (or restart it themselves).  ``restarted`` accumulates
    ``(monotonic_time, index)`` pairs for assertions and reports.
    """

    def __init__(
        self,
        cluster: LocalCluster,
        poll_interval: float = 0.05,
    ) -> None:
        self.cluster = cluster
        self.poll_interval = poll_interval
        self.held: set = set()
        self.restarted: List[Tuple[float, int]] = []
        #: indices whose restart hit provable WAL corruption; the
        #: supervisor holds them (fail-stop) instead of retrying forever
        self.failstopped: List[int] = []
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        """Start the watch task on the running loop."""
        self._task = asyncio.get_running_loop().create_task(self._watch())

    def hold(self, index: int) -> None:
        """Exempt ``index`` from supervision (keep it down)."""
        self.held.add(index)

    def release(self, index: int) -> None:
        """Resume supervising ``index``."""
        self.held.discard(index)

    async def stop(self) -> None:
        """Cancel the watch task (idempotent)."""
        if self._task is None:
            return
        self._task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._task
        self._task = None

    async def _watch(self) -> None:
        loop = asyncio.get_running_loop()
        while not self.cluster.stopped:
            await asyncio.sleep(self.poll_interval)
            now = loop.time()
            for node in list(self.cluster.nodes):
                index = node.index
                if not node.transport.closed:
                    continue
                if index in self.held or self.cluster.stopped:
                    continue
                try:
                    await self.cluster.restart(index)
                except WALCorruptionError:
                    self.failstopped.append(index)
                    self.held.add(index)
                    continue
                except WALFullError:
                    continue  # no room for the marker: retry next poll
                self.restarted.append((now, index))
