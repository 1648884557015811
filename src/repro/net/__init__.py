"""`repro.net` — the asyncio TCP substrate for the speculative stack.

The second implementation of the substrate port defined in
:mod:`repro.net.port` (the first is the discrete-event simulator,
:mod:`repro.mp.sim`).  The protocol roles — Quorum servers/clients,
Paxos acceptors/coordinators, the Backup phase — run here *unchanged at
the algorithm level*: they see the same ``send`` / ``set_timer`` /
``on_message`` surface, but messages travel as length-prefixed binary
frames over real localhost TCP sockets and timers are wall-clock
``loop.call_later`` timers.

Modules:

* :mod:`repro.net.codec` — the length-prefixed wire codecs: a
  struct-packed binary format (the default) and tagged JSON, both
  tuple-preserving and selectable per cluster, decoded uniformly via a
  magic-byte dispatch;
* :mod:`repro.net.pipeline` — :class:`~repro.net.pipeline.SlotPipeline`
  and :class:`~repro.net.pipeline.PipelineClient`, the one client
  library: Quorum fast path, Backup switch, safe retry of the same
  ``(client, seq)`` op under :class:`~repro.mp.backoff.BackoffPolicy`,
  hedging; request batching into decree batches, a window of in-flight
  slots, multiplexed logical clients, incremental response derivation.
  The paper's one-op-per-round client is :func:`probing_client`
  (window 1, batch 1, a pipeline of its own);
* :mod:`repro.net.transport` — :class:`~repro.net.transport.AsyncTransport`,
  the port implementation: pid routing, connection pooling, reply
  routes, transport-level fault injection,
  :class:`~repro.mp.sim.NetworkStats`;
* :mod:`repro.net.netfaults` — :class:`~repro.net.netfaults.TransportFaults`,
  the seeded per-frame fault seam the transport consults (loss and
  duplicate bursts, cuts, slow endpoints); like
  :mod:`repro.net.faultfs` under the WAL it is part of the substrate,
  and the nemesis in :mod:`repro.faults` only drives it;
* :mod:`repro.net.node` — :class:`~repro.net.node.ReplicaNode`, one
  server's roles (lazily instantiated per SMR slot) behind a TCP
  listener;
* :mod:`repro.net.cluster` — :class:`ShardedCluster`, the in-process
  deployment (one or more replica groups) with clean shutdown, mid-run
  kill and restart;
* :mod:`repro.net.client` — the wire-level
  :class:`~repro.net.client.HistoryRecorder` and the typed
  fate-unknown failures every client shares;
* :mod:`repro.net.overload` — the typed
  :exc:`~repro.net.overload.Overloaded` rejection and the
  :class:`~repro.net.overload.CircuitBreaker` behind admission control;
* :mod:`repro.net.loadgen` — the closed-loop multi-client load
  generator: latency/throughput accounting and the end-of-run
  :func:`~repro.core.fastcheck.check_linearizable` verdict;
* :mod:`repro.net.wal` — the durable substrate: an append-only,
  checksummed, fsync'd :class:`~repro.net.wal.WriteAheadLog` with
  snapshot compaction, folded per node into a :class:`NodeWAL` so a
  killed replica restarts (:meth:`ShardedCluster.restart`) with its
  acceptor triples, sticky Quorum acceptances and decided log intact.
"""

from .cluster import ShardedCluster
from .codec import FrameError
from .loadgen import LoadReport, run_loadgen
from .pipeline import probing_client
from .wal import NodeWAL

__all__ = [
    "FrameError",
    "LoadReport",
    "NodeWAL",
    "ShardedCluster",
    "probing_client",
    "run_loadgen",
]
