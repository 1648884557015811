"""`ShardedCluster`: the in-process deployment on localhost TCP.

A deployment is ``n_shards`` replica groups of ``n_servers`` replicas
each (one group unless told otherwise).  Every replica is a
:class:`~repro.net.node.ReplicaNode` with its own
:class:`~repro.net.transport.AsyncTransport` and listener; a group's
nodes, and the client transports :meth:`client_transport` hands out for
it, share that group's :class:`AddressBook`, which is the group's entire
static configuration.  Groups share nothing else: each serves the keys
:func:`shard_of` routes to it, so each records a complete history over
its key subset, P-compositional checking applies group-locally, and the
whole deployment is linearizable iff every group's history is (Horn &
Kroening's locality argument, see PAPERS.md).  Unless told otherwise a
cluster is the measured plane: binary frames (``codec="json"`` is the
seed's, kept as the instrument of ``bench_throughput.run_seed_config``).

A replica index names that replica in every group: ``kill(i)`` closes
node ``i``'s transport in each — listener gone, connections severed,
address withdrawn — which is how the loadgen and the resilience tests
exercise the Backup path over real sockets: with one of three replicas
dead, Quorum can never again collect accepts from *all* servers, so
every affected slot decides through Paxos (majority 2/3 still alive).

With ``wal_root`` set each node persists its durable state to a
:class:`~repro.net.wal.NodeWAL` under :meth:`wal_dir`, and
``restart(i)`` relaunches a killed node *from that directory*: a fresh
``ReplicaNode`` replays the WAL, rebuilds its per-slot roles with
recovered acceptor triples, sticky Quorum acceptances and decided
values, and rebinds the listener — peers reconnect via the address
book on their next send.  Indices listed in ``amnesiac`` get no WAL and
restart blank, the deliberate durability bug the net nemesis campaign
must catch (:mod:`repro.faults.netcampaign`).  ``wal_fs`` substitutes a
:class:`~repro.net.faultfs.FaultFS` under selected indices' WALs — the
storage-fault campaigns inject ``ENOSPC`` and torn writes through it.
A restart whose WAL replay finds provable corruption propagates
:exc:`~repro.net.wal.WALCorruptionError`: the node fail-stops (stays
dead) rather than serve from a corrupt fold.  A disk too full for the
WAL's incarnation marker propagates :exc:`~repro.net.wal.WALFullError`
the same way: the node stays dead (it must not claim ballot 0 on an
incarnation it could not record) until a later ``restart`` finds room.
"""

from __future__ import annotations

import os
import zlib
from typing import Dict, List, Optional, Sequence

from .codec import Codec, get_codec
from .faultfs import FaultFS
from .netfaults import TransportFaults
from .node import ReplicaNode
from .transport import AddressBook, AsyncTransport
from .wal import NodeWAL


def shard_of(key: object, n_shards: int) -> int:
    """The shard index serving ``key`` — stable across processes.

    Uses crc32 over ``repr(key)`` rather than Python's ``hash`` (which
    is salted per process for strings): clients, the loadgen and the
    checker must all agree on the routing, forever.
    """
    return zlib.crc32(repr(key).encode("utf-8")) % n_shards


class ShardedCluster:
    """``n_shards`` groups of ``n_servers`` nodes in this process, one
    TCP port each (``port_base + shard * n_servers + i``, or ephemeral)."""

    def __init__(
        self,
        n_shards: int = 1,
        n_servers: int = 3,
        faults: Optional[TransportFaults] = None,
        host: str = "127.0.0.1",
        port_base: Optional[int] = None,
        wal_root: Optional[str] = None,
        amnesiac: Sequence[int] = (),
        wal_fs: Optional[Dict[int, FaultFS]] = None,
        codec: str = "binary",
    ) -> None:
        self.n_shards = n_shards
        self.n_servers = n_servers
        self.faults = faults
        self.host = host
        self.port_base = port_base
        self.wal_root = wal_root
        self.amnesiac = frozenset(amnesiac)
        self.wal_fs = wal_fs or {}
        self.codec: Codec = get_codec(codec)
        self.books = [AddressBook() for _ in range(n_shards)]
        self.shards: List[List[ReplicaNode]] = [
            [self._make_node(s, i) for i in range(n_servers)]
            for s in range(n_shards)
        ]
        self._client_transports: List[AsyncTransport] = []

    @property
    def nodes(self) -> List[ReplicaNode]:
        """Every node, shard-major: on one shard ``nodes[i]`` is replica i."""
        return [node for shard in self.shards for node in shard]

    def wal_dir(self, index: int, shard: int = 0) -> str:
        """Where replica ``index`` of ``shard`` keeps its WAL:
        ``wal_root/node{i}`` on one shard, ``wal_root/shard{s}/node{i}``
        on several."""
        assert self.wal_root is not None, "the cluster keeps no WALs"
        root = self.wal_root
        if self.n_shards > 1:
            root = os.path.join(root, f"shard{shard}")
        return os.path.join(root, f"node{index}")

    def _make_node(self, shard: int, index: int) -> ReplicaNode:
        """Build a node, opening (and replaying) its WAL if configured."""
        wal = None
        if self.wal_root is not None and index not in self.amnesiac:
            fs = self.wal_fs.get(index)
            wal = NodeWAL(self.wal_dir(index, shard), fs=fs)
        return ReplicaNode(
            index,
            self.n_servers,
            self.books[shard],
            faults=self.faults,
            host=self.host,
            port=(
                0
                if self.port_base is None
                else self.port_base + shard * self.n_servers + index
            ),
            wal=wal,
            codec=self.codec,
        )

    async def start(self) -> None:
        """Bind every node and publish each group in its address book."""
        for node in self.nodes:
            await node.start()

    def client_transport(
        self, name: str = "client", shard: int = 0
    ) -> AsyncTransport:
        """A client-side transport wired to ``shard``'s address book.

        Clients share one transport per process and group: n pooled
        connections instead of n per client, and learned reply routes
        serve every client pid on it.  The transport is closed by
        :meth:`stop`.
        """
        transport = AsyncTransport(
            name, self.books[shard], faults=self.faults, codec=self.codec
        )
        self._client_transports.append(transport)
        return transport

    async def kill(self, index: int) -> None:
        """Kill replica ``index`` in every group (crash semantics, no
        clean handover)."""
        for shard in self.shards:
            await shard[index].stop()

    async def restart(self, index: int) -> List[ReplicaNode]:
        """Relaunch replica ``index`` from its WAL directory in every
        group where it is down, and return the fresh nodes.

        A fresh :class:`ReplicaNode` replays the node's WAL (if the
        cluster has one) and rebuilds every recovered slot's roles
        before the new listener accepts a single frame; an amnesiac
        node comes back blank.  Peers and clients reconnect through the
        group's address book — the transport's per-peer reconnect
        cooldown retries the lookup on the next send.
        """
        down = [
            s for s, shard in enumerate(self.shards)
            if shard[index].transport.closed
        ]
        if not down:
            raise RuntimeError(f"node{index} is still alive; kill it first")
        fresh = []
        for s in down:
            node = self._make_node(s, index)
            self.shards[s][index] = node
            await node.start()
            fresh.append(node)
        return fresh

    async def stop(self) -> None:
        """Tear the whole deployment down (idempotent)."""
        for transport in self._client_transports:
            await transport.close()
        for node in self.nodes:
            await node.stop()

    def alive(self) -> List[int]:
        """Indices of the replicas serving in every group."""
        return [
            i
            for i in range(self.n_servers)
            if not any(shard[i].transport.closed for shard in self.shards)
        ]
