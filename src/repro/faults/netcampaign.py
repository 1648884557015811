"""Nemesis campaigns against the *live* TCP cluster.

PR 1's campaign attacks the simulator; this module drives the same
discipline — seeded declarative fault schedules, every recorded history
checked for linearizability, ddmin shrinking of violating schedules —
against :class:`~repro.net.cluster.LocalCluster` over real sockets,
while closed-loop :func:`~repro.net.pipeline.probing_client` traffic
flows.

The action vocabulary is the crash-recovery one the runtime now
supports: :class:`KillNode`/:class:`RestartNode` pairs (restarts replay
the node's WAL), :class:`NetLossBurst` windows on
:class:`~repro.faults.netfaults.TransportFaults`, and
:class:`NetPartition` cut-then-heal windows between endpoints —
symmetric by default, or one-way with ``one_way=True`` (the asymmetric
link failure; :func:`asymmetric_bridge` composes a ring of them).
Schedules are majority-preserving by default — at most a minority of
replicas is ever down at once, so safety *and* liveness stay checkable.

On top of the crash vocabulary sit the *gray* failures the paper's
fail-stop model cannot express:

* :class:`NetSlowNode` — one replica stays alive and correct but every
  frame touching it is held before the wire (``TransportFaults.slow``);
* :class:`WALTearTail` — kill a node and tear the final bytes off its
  at-rest WAL (crash mid-append); the restart must *tolerate* the tear
  and serve the intact prefix;
* :class:`WALBitFlip` — kill a node and flip one seeded bit inside a
  complete WAL record body; the restart must *fail-stop*
  (:exc:`~repro.net.wal.WALCorruptionError`), counted in
  ``NetRunResult.failstops``, never serving from the corrupt fold;
* :class:`WALNoSpace` — arm injected ``ENOSPC`` on one node's
  :class:`~repro.net.faultfs.FaultyFS` for a bounded run of appends;
  the node backs off and retries instead of crashing or replying
  without durability.

Two design points make violations observable rather than theoretical:

* every client keeps its **own** decided-slot log (a pipeline of its
  own): if amnesia lets consensus fork, two clients hold different
  logs and their recorded responses conflict;
* every :class:`RestartNode` spawns a fresh **late-reader** client that
  probes the log from slot 0 — the reader's quorum round mixes the
  survivors' durable sticky accepts with the restarted node's answers,
  which is exactly where a node that forgot its acceptance can steal a
  settled slot and serve a forked prefix.

The ``amnesiac`` knob disables the WAL on one replica.  With it unset,
a campaign of kills, restarts, loss bursts and partitions must end with
every history linearizable; with it set, the same machinery must
*catch* the durability bug as a checker violation and shrink the fault
schedule — typically down to the kill/restart pair of the amnesiac
node.  That closed loop (mechanism → end-to-end checked guarantee) is
the point of the whole layer.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import tempfile
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..analysis import sanitizer
from ..analysis.sanitizer import InterleaveError, atomic_section
from ..core.adt import counter_adt
from ..mp.backoff import BackoffPolicy
from ..core.fastcheck import check_linearizable
from ..monitor import MonitorTap
from ..net.client import (
    DEFAULT_QUORUM_TIMEOUT,
    HistoryRecorder,
    OperationTimeout,
)
from ..net.cluster import LocalCluster
from ..net.faultfs import FaultyFS, flip_record_body, tear_tail
from ..net.loadgen import DEFAULT_KEYS, _command_stream, budgeted_tap
from ..net.overload import Overloaded
from ..net.pipeline import PipelineClient, SlotPipeline, probing_client
from ..net.wal import WALCorruptionError
from ..smr.sessions import dedup_commands, seq_uid
from ..smr.universal import batch_commands, kv_store_adt
from .netfaults import TransportFaults
from .shrink import shrink_schedule

#: seeded pause between a client's ops (seconds).  Nonzero gaps matter:
#: they open single-client-in-flight windows in which slots decide on
#: the uncontended Quorum fast path, the one code path whose durability
#: rests on the sticky acceptance alone (Backup-decided slots are also
#: protected by the acceptor triple).
OP_GAP = (0.005, 0.045)

#: wall-clock grace beyond the schedule horizon before a run is
#: abandoned as wedged (drivers cancelled, history still checked)
RUN_GRACE = 10.0


# ----------------------------------------------------------------------
# schedule vocabulary
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NetFaultAction:
    """Base class: one live-cluster perturbation at wall-clock ``at``
    seconds after the run starts."""

    at: float

    def describe(self) -> str:
        """One compact token for schedule lines and shrink reports."""
        name = type(self).__name__
        args = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )
        return f"{name}({args})"


@dataclass(frozen=True)
class KillNode(NetFaultAction):
    """Crash replica ``node``: listener closed, connections severed."""

    node: int = 0


@dataclass(frozen=True)
class RestartNode(NetFaultAction):
    """Relaunch replica ``node`` from its WAL directory."""

    node: int = 0


@dataclass(frozen=True)
class NetLossBurst(NetFaultAction):
    """Add i.i.d. frame loss at ``rate`` for ``duration`` seconds."""

    duration: float = 0.5
    rate: float = 0.2


@dataclass(frozen=True)
class NetPartition(NetFaultAction):
    """Cut endpoints ``a``/``b`` for ``duration`` seconds, then heal.

    With ``one_way=True`` only the ``a → b`` direction is cut — the
    asymmetric link failure: ``b`` keeps hearing from ``a`` and replies
    into a void.
    """

    a: str = "clients"
    b: str = "node0"
    duration: float = 0.5
    one_way: bool = False


@dataclass(frozen=True)
class NetDupBurst(NetFaultAction):
    """Deliver frames *twice* i.i.d. at ``rate`` for ``duration``
    seconds (``TransportFaults.burst_duplicate``) — at-least-once
    delivery gone wrong: retransmits after lost acks, a replaying
    middlebox.  Correctness under this action is exactly the
    session-dedup guarantee: a redelivered decree folds once."""

    duration: float = 0.5
    rate: float = 0.2


@dataclass(frozen=True)
class NetSlowNode(NetFaultAction):
    """Make replica ``node`` a slow node for ``duration`` seconds: every
    frame it sends or receives is held ``delay`` seconds before the
    socket.  The node stays alive and correct — just late."""

    node: int = 0
    delay: float = 0.05
    duration: float = 1.0


@dataclass(frozen=True)
class WALTearTail(NetFaultAction):
    """Kill replica ``node`` and tear the last ``cut`` bytes off its
    at-rest WAL — the crash-mid-append torn write.  A later
    :class:`RestartNode` must tolerate the tear: replay truncates the
    incomplete record and serves the intact prefix."""

    node: int = 0
    cut: int = 3


@dataclass(frozen=True)
class WALBitFlip(NetFaultAction):
    """Kill replica ``node`` and flip one seeded bit inside a complete
    record body of its at-rest WAL.  A later :class:`RestartNode` must
    **fail-stop** — the restart raises
    :exc:`~repro.net.wal.WALCorruptionError`, the node stays dead, and
    the run counts a ``failstop`` instead of a restart."""

    node: int = 0


@dataclass(frozen=True)
class WALNoSpace(NetFaultAction):
    """Exhaust replica ``node``'s disk for its next ``count`` WAL
    appends (injected ``ENOSPC`` via :class:`FaultyFS`).  The node must
    back off and retry, never replying before the record is durable."""

    node: int = 0
    count: int = 4


#: every concrete action class, for generation and reports
NET_ACTION_CLASSES = (
    KillNode,
    RestartNode,
    NetLossBurst,
    NetDupBurst,
    NetPartition,
    NetSlowNode,
    WALTearTail,
    WALBitFlip,
    WALNoSpace,
)


def asymmetric_bridge(
    at: float,
    endpoints: Tuple[str, ...] = ("node0", "node1", "node2"),
    duration: float = 0.5,
) -> Tuple[NetPartition, ...]:
    """A ring of one-way cuts: each endpoint cannot send to the next,
    yet every pair stays mutually reachable through the asymmetric
    remainder — the classic gray partition in which no node looks dead
    from everywhere at once."""
    return tuple(
        NetPartition(
            at=at,
            a=endpoints[i],
            b=endpoints[(i + 1) % len(endpoints)],
            duration=duration,
            one_way=True,
        )
        for i in range(len(endpoints))
    )


@dataclass(frozen=True)
class NetSchedule:
    """A seed plus an ordered tuple of live-cluster fault actions.

    The seed drives the workload streams, the transport fault RNG and
    the schedule itself, so the line :meth:`describe` prints is a
    complete reproducer (modulo real-network timing, which is the point
    of running on sockets).
    """

    seed: int
    actions: Tuple[NetFaultAction, ...] = ()
    horizon: float = 4.0
    majority_preserving: bool = True

    def subset(self, keep: Iterable[int]) -> "NetSchedule":
        """The schedule restricted to the action positions in ``keep``
        (the delta-debugging shrinker's hook)."""
        kept = frozenset(keep)
        return NetSchedule(
            seed=self.seed,
            actions=tuple(
                a for i, a in enumerate(self.actions) if i in kept
            ),
            horizon=self.horizon,
            majority_preserving=self.majority_preserving,
        )

    def fault_classes(self) -> Tuple[str, ...]:
        """The sorted, deduplicated action kinds (metric aggregation)."""
        kinds = {type(a).__name__ for a in self.actions}
        return tuple(sorted(kinds)) or ("None",)

    def describe(self) -> str:
        """One replayable line: seed, horizon and every action."""
        inner = "; ".join(a.describe() for a in self.actions) or "no faults"
        return f"seed={self.seed} horizon={self.horizon} [{inner}]"


def random_net_schedule(
    seed: int,
    n_servers: int = 3,
    horizon: float = 4.0,
    max_kills: int = 2,
    max_net_actions: int = 2,
    majority_preserving: bool = True,
    must_restart: Optional[int] = None,
    storage_faults: bool = False,
) -> NetSchedule:
    """Draw a live-cluster fault schedule, deterministically from ``seed``.

    Kills always come paired with a later restart, and pairs are placed
    so at most a minority of replicas is down at any instant (unless
    ``majority_preserving=False``).  ``must_restart`` forces one
    kill/restart pair for that node — the amnesiac-canary campaigns use
    it so the node under suspicion is guaranteed to lose its memory
    mid-run.  Network perturbations draw from loss bursts, partitions
    (sometimes one-way) and slow-node windows.  ``storage_faults=True``
    additionally converts one down-window into a
    :class:`WALTearTail`/:class:`RestartNode` pair, so the recovered
    node replays a torn log under traffic.  Action times land in the
    first part of the horizon so the tail is left for recovery and late
    readers.
    """
    rng = random.Random(f"netcampaign:{seed}")
    minority = max(1, (n_servers - 1) // 2)
    span = max(0.8, min(horizon * 0.5, 2.0))
    actions: List[NetFaultAction] = []
    down: List[Tuple[float, float, int]] = []  # (start, end, node)

    def fits(start: float, end: float, node: int) -> bool:
        overlapping = [
            iv for iv in down if not (iv[1] <= start or iv[0] >= end)
        ]
        if any(iv[2] == node for iv in overlapping):
            return False
        if majority_preserving and len(overlapping) + 1 > minority:
            return False
        return True

    def add_pair(node: int, tear: bool = False) -> bool:
        at = round(rng.uniform(0.2, span), 2)
        duration = round(rng.uniform(0.3, 0.7), 2)
        if not fits(at, at + duration, node):
            return False
        down.append((at, at + duration, node))
        if tear:
            actions.append(
                WALTearTail(at=at, node=node, cut=rng.randrange(1, 8))
            )
        else:
            actions.append(KillNode(at=at, node=node))
        actions.append(RestartNode(at=round(at + duration, 2), node=node))
        return True

    if must_restart is not None:
        while not add_pair(must_restart):
            pass
    if storage_faults:
        while not add_pair(rng.randrange(n_servers), tear=True):
            pass
    for _ in range(rng.randint(0, max_kills)):
        add_pair(rng.randrange(n_servers))

    endpoints = ["clients"] + [f"node{i}" for i in range(n_servers)]
    for _ in range(rng.randint(0, max_net_actions)):
        at = round(rng.uniform(0.1, span), 2)
        kind = rng.random()
        if kind < 0.4:
            actions.append(
                NetLossBurst(
                    at=at,
                    duration=round(rng.uniform(0.2, 0.6), 2),
                    rate=round(rng.uniform(0.05, 0.3), 2),
                )
            )
        elif kind < 0.75:
            a, b = rng.sample(endpoints, 2)
            actions.append(
                NetPartition(
                    at=at,
                    a=a,
                    b=b,
                    duration=round(rng.uniform(0.2, 0.6), 2),
                    one_way=rng.random() < 0.3,
                )
            )
        else:
            actions.append(
                NetSlowNode(
                    at=at,
                    node=rng.randrange(n_servers),
                    delay=round(rng.uniform(0.02, 0.08), 3),
                    duration=round(rng.uniform(0.4, 1.0), 2),
                )
            )

    if not actions:
        actions.append(NetLossBurst(at=0.3, duration=0.4, rate=0.15))
    actions.sort(key=lambda a: a.at)
    return NetSchedule(
        seed=seed,
        actions=tuple(actions),
        horizon=horizon,
        majority_preserving=majority_preserving,
    )


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass
class NetRunResult:
    """One live-cluster run: what happened, and the checker's verdict."""

    schedule: NetSchedule
    verdict: str = "unknown"
    strategy: str = ""
    reason: Optional[str] = None
    committed: int = 0
    pending: int = 0
    successors: int = 0
    kills: int = 0
    restarts: int = 0
    skipped_kills: int = 0
    failstops: int = 0
    late_readers: int = 0
    fast: int = 0
    slow: int = 0
    duration: float = 0.0
    amnesiac: Optional[int] = None
    pipelined: bool = False
    decrees: int = 0
    batched_ops: int = 0
    monitored: bool = False
    monitor_verdict: Optional[str] = None
    monitor_reason: Optional[str] = None
    monitor_events: int = 0
    monitor_witness: Optional[Dict[str, Any]] = None
    #: the run drove the RacySlotPipeline mutant (awaits mid-claim)
    race_mutant: bool = False
    #: the runtime interleaving sanitizer was armed for this run
    sanitized: bool = False
    #: interleavings the sanitizer recorded during the run
    sanitizer_violations: int = 0

    @property
    def ok(self) -> bool:
        return self.verdict == "linearizable"

    @property
    def violation(self) -> bool:
        return self.verdict == "violation"

    @property
    def sanitizer_caught(self) -> bool:
        """True iff the armed sanitizer observed at least one interleave."""
        return self.sanitized and self.sanitizer_violations > 0

    def line(self) -> str:
        """One replayable report line, campaign.py style."""
        tag = "OK " if self.ok else ("BUG" if self.violation else "???")
        extra = f" amnesiac=node{self.amnesiac}" if self.amnesiac is not None else ""
        if self.failstops:
            extra += f" failstops={self.failstops}"
        if self.pipelined:
            extra += (
                f" pipelined decrees={self.decrees}"
                f" batched={self.batched_ops}"
            )
        if self.monitored:
            extra += f" monitor={self.monitor_verdict}"
        if self.race_mutant:
            extra += " race-mutant"
        if self.sanitized:
            extra += f" sanitizer={self.sanitizer_violations}"
        return (
            f"[{tag}] {self.verdict:<13} committed={self.committed:<3} "
            f"pending={self.pending} successors={self.successors} "
            f"kills={self.kills} restarts={self.restarts} "
            f"late={self.late_readers} fast={self.fast} slow={self.slow} "
            f"t={self.duration:.2f}s{extra} :: {self.schedule.describe()}"
        )

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "schedule": self.schedule.describe(),
            "verdict": self.verdict,
            "strategy": self.strategy,
            "reason": self.reason,
            "committed": self.committed,
            "pending": self.pending,
            "successors": self.successors,
            "kills": self.kills,
            "restarts": self.restarts,
            "skipped_kills": self.skipped_kills,
            "failstops": self.failstops,
            "late_readers": self.late_readers,
            "fast": self.fast,
            "slow": self.slow,
            "duration": self.duration,
            "amnesiac": self.amnesiac,
            "pipelined": self.pipelined,
            "decrees": self.decrees,
            "batched_ops": self.batched_ops,
            "monitored": self.monitored,
            "monitor_verdict": self.monitor_verdict,
            "monitor_reason": self.monitor_reason,
            "monitor_events": self.monitor_events,
            "race_mutant": self.race_mutant,
            "sanitized": self.sanitized,
            "sanitizer_violations": self.sanitizer_violations,
        }


@dataclass
class NetViolation:
    """A linearizability violation plus its shrunk reproducer."""

    result: NetRunResult
    shrunk: NetSchedule
    shrunk_reason: Optional[str] = None

    def report(self) -> str:
        lines = [
            "linearizability violation on the live cluster",
            f"  run     : {self.result.line()}",
            f"  reason  : {self.result.reason}",
            f"  shrunk  : {self.shrunk.describe()} "
            f"({len(self.shrunk.actions)}/{len(self.result.schedule.actions)}"
            f" actions)",
        ]
        if self.shrunk_reason:
            lines.append(f"  replayed: {self.shrunk_reason}")
        return "\n".join(lines)


@dataclass
class NetCampaignReport:
    """Aggregate outcome of a live-cluster campaign."""

    runs: List[NetRunResult] = field(default_factory=list)
    violations: List[NetViolation] = field(default_factory=list)

    @property
    def all_linearizable(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        ok = sum(1 for r in self.runs if r.ok)
        inconclusive = sum(
            1 for r in self.runs if not r.ok and not r.violation
        )
        lines = [
            f"net campaign: {len(self.runs)} runs, {ok} linearizable, "
            f"{len(self.violations)} violations, "
            f"{inconclusive} inconclusive",
        ]
        for violation in self.violations:
            lines.append(violation.report())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------


@dataclass
class _RunConfig:
    """Everything about a run that is not the schedule."""

    replicas: int = 3
    clients: int = 3
    ops_per_client: int = 8
    keys: Tuple[str, ...] = DEFAULT_KEYS
    op_timeout: float = 2.0
    quorum_timeout: float = DEFAULT_QUORUM_TIMEOUT
    amnesiac: Optional[int] = None
    wal_fsync: bool = True
    #: drive main traffic through a shared SlotPipeline (batched,
    #: windowed decrees) instead of one probing client per driver.
    #: Late readers always stay on probing clients with private
    #: decided-slot logs — they are the fork detectors.
    pipelined: bool = False
    codec: Optional[str] = None
    window: int = 8
    batch: int = 16
    group_commit: bool = False
    #: run a live StreamingMonitor on the recorded history: the drivers
    #: stop as soon as it flips to violation (fail-fast, mid-run), and
    #: the run result carries the online verdict next to the post-hoc
    #: one.  The amnesiac-canary campaigns assert the two agree.
    monitor: bool = False
    #: substitute :class:`RacySlotPipeline` for the main-traffic
    #: pipeline (implies ``pipelined``): its slot claims suspend
    #: mid-critical-section, the lost-update shape RD08 flags statically
    race_mutant: bool = False
    #: arm the runtime interleaving sanitizer for the run; the result
    #: reports how many interleavings it recorded
    sanitize: bool = False


class RacySlotPipeline(SlotPipeline):
    """A :class:`~repro.net.pipeline.SlotPipeline` with a seeded race.

    Every :meth:`enqueue` spawns a pair of claim tasks that read
    ``_next_slot``, suspend, and write the stale value back — each is a
    no-op alone, but when two interleave (they always do: the pair
    starts in the same loop tick) the write-back rolls back slots the
    real pump claimed meanwhile, so later decrees land on slots already
    in flight.  The claim sits inside the same ``"slot-claim"``
    :func:`~repro.analysis.sanitizer.atomic_section` the real pipeline
    declares, which is the point of the mutant: statically it is an
    RD08 canary (a copy of this shape is linted in the test suite), and
    dynamically the armed sanitizer must record the interleave the
    moment the second task enters the held section.

    This class lives here rather than in :mod:`repro.faults.mutants`
    because it imports :mod:`repro.net`, which would recreate the
    circular package initialization the lazy ``netcampaign`` loader in
    ``faults/__init__`` exists to avoid.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._racy_tasks: List[asyncio.Task] = []

    def enqueue(self, tagged: Tuple) -> asyncio.Future:
        future = super().enqueue(tagged)
        for _ in range(2):
            task = self.transport.loop.create_task(self._racy_claim())
            self._racy_tasks.append(task)
            task.add_done_callback(self._racy_tasks.remove)
        return future

    async def _racy_claim(self) -> None:
        try:
            with atomic_section(self, "slot-claim"):
                claimed = self._next_slot
                await asyncio.sleep(0)  # the interleaving window
                self._next_slot = claimed
        except InterleaveError:
            # Recorded on the sanitizer's violation list; swallowed so
            # the run (and the checker's history) survives the catch.
            pass

    def _claim_slot(self) -> int:
        try:
            return super()._claim_slot()
        except InterleaveError:
            # The pump barged into a claim a racy task left suspended —
            # the violation is recorded; fall back to a bare unguarded
            # bump so the run keeps making progress.
            slot = self._next_slot
            while slot in self.log:
                slot += 1
            self._next_slot = slot + 1
            return slot


async def _run_schedule(
    schedule: NetSchedule, config: _RunConfig
) -> Tuple[NetRunResult, HistoryRecorder]:
    """One live run: cluster up, traffic + nemesis, check, tear down."""
    loop = asyncio.get_running_loop()
    result = NetRunResult(
        schedule=schedule,
        amnesiac=config.amnesiac,
        race_mutant=config.race_mutant,
    )
    majority = config.replicas // 2 + 1
    sanitizer_was_enabled = sanitizer.enabled()
    if config.sanitize:
        # Per-run isolation: violations recorded by this run must not
        # leak into the next schedule's count (or vice versa).
        sanitizer.reset()
        sanitizer.enable()
    with tempfile.TemporaryDirectory(prefix="repro-net-wal-") as wal_root:
        faults = TransportFaults(seed=schedule.seed)
        # Nodes targeted by WALNoSpace get a FaultyFS under their WAL so
        # the nemesis can exhaust the "disk" mid-run; everything else
        # writes through the passthrough seam.
        wal_fs = {
            action.node: FaultyFS(seed=schedule.seed)
            for action in schedule.actions
            if isinstance(action, WALNoSpace)
        }
        cluster = LocalCluster(
            n_servers=config.replicas,
            faults=faults,
            wal_root=wal_root,
            amnesiac=()
            if config.amnesiac is None
            else (config.amnesiac,),
            wal_fsync=config.wal_fsync,
            wal_fs=wal_fs or None,
            codec=config.codec,
            group_commit=config.group_commit,
        )
        await cluster.start()
        transport = cluster.client_transport("clients")
        tap: Optional[MonitorTap] = (
            budgeted_tap(kv_store_adt()) if config.monitor else None
        )
        recorder = HistoryRecorder(
            clock=lambda: transport.now, tap=tap
        )
        all_clients: List[PipelineClient] = []
        late_tasks: List[asyncio.Task] = []
        pipeline: Optional[SlotPipeline] = None
        if config.pipelined or config.race_mutant:
            pipeline_cls = (
                RacySlotPipeline if config.race_mutant else SlotPipeline
            )
            pipeline = pipeline_cls(
                "main",
                config.replicas,
                transport,
                window=config.window,
                max_batch=config.batch,
                quorum_timeout=config.quorum_timeout,
            )

        def make_client(
            name: str, shared: Optional[SlotPipeline] = None
        ) -> PipelineClient:
            # Per-client decided-slot logs unless told to share: a
            # forked consensus must surface as conflicting recorded
            # responses, not be papered over by a shared log.
            if shared is None:
                client = probing_client(
                    name,
                    config.replicas,
                    transport,
                    recorder,
                    quorum_timeout=config.quorum_timeout,
                    op_timeout=config.op_timeout,
                )
            else:
                client = PipelineClient(
                    name, shared, recorder, op_timeout=config.op_timeout
                )
            all_clients.append(client)
            return client

        async def drive(index: int) -> None:
            # main traffic rides the batching pipeline when configured
            client = make_client(f"c{index}", pipeline)
            rng = random.Random(f"netload:{schedule.seed}:{index}")
            stream = _command_stream(rng, config.keys)
            for _ in range(config.ops_per_client):
                if tap is not None and tap.violated:
                    return  # fail-fast: the monitor already has a witness
                await asyncio.sleep(rng.uniform(*OP_GAP))
                command = next(stream)
                try:
                    await client.submit(command)
                    result.committed += 1
                except OperationTimeout:
                    result.successors += 1
                    client = client.successor()
                    all_clients.append(client)

        async def read_back(index: int) -> None:
            # A late reader starts with an empty log and probes from
            # slot 0: its responses replay the whole decided prefix,
            # which is where a recovered-but-amnesiac node forks history.
            client = make_client(f"late{index}")
            for key in config.keys:
                if tap is not None and tap.violated:
                    return
                try:
                    await client.submit(("get", key))
                    result.committed += 1
                except OperationTimeout:
                    result.successors += 1
                    client = client.successor()
                    all_clients.append(client)

        async def kill_guarded(node: int) -> bool:
            """Kill ``node`` unless it is already down or the kill would
            take the majority with it (shrink probes may have dropped a
            partner restart; a wedged run teaches nothing)."""
            alive = cluster.alive()
            if node not in alive:
                return True  # already down: the at-rest mutation may proceed
            if schedule.majority_preserving and len(alive) - 1 < majority:
                result.skipped_kills += 1
                return False
            await cluster.kill(node)
            result.kills += 1
            return True

        async def nemesis() -> None:
            start = loop.time()
            for action in sorted(schedule.actions, key=lambda a: a.at):
                delay = start + action.at - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                if isinstance(action, KillNode):
                    alive = cluster.alive()
                    if action.node not in alive:
                        continue
                    if (
                        schedule.majority_preserving
                        and len(alive) - 1 < majority
                    ):
                        result.skipped_kills += 1
                        continue
                    await cluster.kill(action.node)
                    result.kills += 1
                elif isinstance(action, RestartNode):
                    if action.node in cluster.alive():
                        continue
                    try:
                        await cluster.restart(action.node)
                    except WALCorruptionError:
                        # Provably corrupt stable storage: the node
                        # fail-stops instead of recovering.  It stays
                        # dead for the rest of the run — no late
                        # reader, the survivors carry the majority.
                        result.failstops += 1
                        continue
                    result.restarts += 1
                    result.late_readers += 1
                    late_tasks.append(
                        loop.create_task(read_back(result.late_readers))
                    )
                elif isinstance(action, NetLossBurst):
                    faults.burst_loss(action.rate, action.duration)
                elif isinstance(action, NetDupBurst):
                    faults.burst_duplicate(action.rate, action.duration)
                elif isinstance(action, NetPartition):
                    faults.partition(
                        action.a,
                        action.b,
                        symmetric=not action.one_way,
                        duration=action.duration,
                    )
                elif isinstance(action, NetSlowNode):
                    faults.slow(
                        f"node{action.node}",
                        action.delay,
                        duration=action.duration,
                    )
                elif isinstance(action, WALTearTail):
                    if await kill_guarded(action.node):
                        tear_tail(
                            os.path.join(
                                wal_root, f"node{action.node}", "wal.log"
                            ),
                            cut=action.cut,
                        )
                elif isinstance(action, WALBitFlip):
                    if await kill_guarded(action.node):
                        flip_record_body(
                            os.path.join(
                                wal_root, f"node{action.node}", "wal.log"
                            ),
                            seed=schedule.seed,
                        )
                elif isinstance(action, WALNoSpace):
                    fs = wal_fs.get(action.node)
                    if fs is not None:
                        fs.fail_appends(action.count)

        start = transport.now
        budget = schedule.horizon + config.op_timeout + RUN_GRACE
        tasks = [loop.create_task(nemesis())] + [
            loop.create_task(drive(i)) for i in range(config.clients)
        ]
        try:
            await asyncio.wait_for(
                asyncio.gather(*tasks), timeout=budget
            )
            if late_tasks:
                await asyncio.wait_for(
                    asyncio.gather(*late_tasks), timeout=budget
                )
        except asyncio.TimeoutError:
            for task in tasks + late_tasks:
                task.cancel()
            await asyncio.gather(
                *tasks, *late_tasks, return_exceptions=True
            )
            result.reason = "run exceeded its wall-clock budget"
        result.duration = transport.now - start
        await cluster.stop()
        if tap is not None:
            monitor_report = await tap.close()
            result.monitored = True
            result.monitor_verdict = monitor_report.verdict
            result.monitor_reason = monitor_report.reason
            result.monitor_events = monitor_report.events
            result.monitor_witness = monitor_report.witness

    if pipeline is not None:
        result.pipelined = True
        result.decrees = pipeline.decrees
        result.batched_ops = pipeline.batched_ops
    result.pending = len(recorder.pending_clients())
    ops = [r for c in all_clients for r in c.results]
    result.fast = sum(1 for r in ops if r.path == "fast")
    result.slow = sum(1 for r in ops if r.path == "slow")

    if config.sanitize:
        result.sanitized = True
        result.sanitizer_violations = len(sanitizer.violations())
        if not sanitizer_was_enabled:
            sanitizer.disable()

    check = check_linearizable(recorder.trace(), kv_store_adt())
    result.strategy = check.strategy
    if check.unknown:
        result.verdict = "unknown"
        result.reason = result.reason or check.result.reason
    elif check.ok:
        result.verdict = "linearizable"
    else:
        result.verdict = "violation"
        result.reason = check.result.reason
    return result, recorder


def _write_artifact(
    directory: str, name: str, payload: Dict[str, Any]
) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=repr)
    return path


def run_net_campaign(
    n_schedules: int = 3,
    base_seed: int = 0,
    replicas: int = 3,
    clients: int = 3,
    ops_per_client: int = 8,
    horizon: float = 4.0,
    op_timeout: float = 2.0,
    quorum_timeout: float = DEFAULT_QUORUM_TIMEOUT,
    keys: Tuple[str, ...] = DEFAULT_KEYS,
    amnesiac: Optional[int] = None,
    majority_preserving: bool = True,
    shrink: bool = True,
    schedules: Optional[List[NetSchedule]] = None,
    artifact_dir: Optional[str] = None,
    wal_fsync: bool = True,
    pipelined: bool = False,
    codec: Optional[str] = None,
    window: int = 8,
    batch: int = 16,
    group_commit: bool = False,
    monitor: bool = False,
    race_mutant: bool = False,
    sanitize: bool = False,
    emit=print,
) -> NetCampaignReport:
    """Run seeded chaos campaigns against live localhost clusters.

    Each schedule boots a fresh :class:`LocalCluster` (WAL-backed; the
    ``amnesiac`` replica, if any, gets none), drives closed-loop client
    traffic while the nemesis kills/restarts replicas and perturbs the
    transport, then feeds the recorded wire-level history through
    :func:`~repro.core.fastcheck.check_linearizable`.  A violating
    schedule is delta-debugged to a 1-minimal reproducer by re-running
    the live cluster per probe (``shrink=False`` skips this).  Explicit
    ``schedules`` override generation — the CI canary passes a directed
    kill/restart pair.  With ``artifact_dir`` every run writes its
    history + verdict JSON, and every violation its shrunk schedule.

    ``pipelined=True`` swaps the main traffic onto a shared batching
    :class:`~repro.net.pipeline.SlotPipeline` (``window``/``batch``
    sized; ``codec``/``group_commit`` configure the cluster), which is
    how CI proves group commit and decree batching compose with the
    chaos vocabulary.  Late readers stay on probing clients with
    private decided-slot logs either way — they are the fork
    detectors.

    ``monitor=True`` attaches a live
    :class:`~repro.monitor.StreamingMonitor` to every run's recorder:
    drivers stop the moment it flips to violation (the bug is caught
    *during* the run, not at post-hoc check time), each
    :class:`NetRunResult` carries the online verdict next to the
    post-hoc one, and with ``artifact_dir`` a monitor-caught violation
    writes its shrunken witness as ``net-monitor-witness-{seed}.json``.

    ``race_mutant=True`` swaps the main-traffic pipeline for
    :class:`RacySlotPipeline` (implying ``pipelined``), whose slot
    claims suspend inside their critical section; ``sanitize=True``
    arms the runtime interleaving sanitizer so each result reports the
    interleavings it recorded (``NetRunResult.sanitizer_caught``).  The
    CI canary runs both together and demands a catch — the dynamic
    cross-check of the static RD08 rule.
    """
    config = _RunConfig(
        replicas=replicas,
        clients=clients,
        ops_per_client=ops_per_client,
        keys=keys,
        op_timeout=op_timeout,
        quorum_timeout=quorum_timeout,
        amnesiac=amnesiac,
        wal_fsync=wal_fsync,
        pipelined=pipelined or race_mutant,
        codec=codec,
        window=window,
        batch=batch,
        group_commit=group_commit,
        monitor=monitor,
        race_mutant=race_mutant,
        sanitize=sanitize,
    )
    if schedules is None:
        schedules = [
            random_net_schedule(
                seed=base_seed + k,
                n_servers=replicas,
                horizon=horizon,
                majority_preserving=majority_preserving,
                must_restart=amnesiac,
            )
            for k in range(n_schedules)
        ]
    report = NetCampaignReport()
    for schedule in schedules:
        result, recorder = asyncio.run(_run_schedule(schedule, config))
        report.runs.append(result)
        emit(result.line())
        if artifact_dir:
            _write_artifact(
                artifact_dir,
                f"net-run-{schedule.seed}.json",
                {
                    "report": result.to_jsonable(),
                    "history": recorder.to_jsonable(),
                },
            )
        if artifact_dir and result.monitor_verdict == "violation":
            _write_artifact(
                artifact_dir,
                f"net-monitor-witness-{schedule.seed}.json",
                {
                    "verdict": result.monitor_verdict,
                    "reason": result.monitor_reason,
                    "events": result.monitor_events,
                    "witness": result.monitor_witness,
                    "schedule": schedule.describe(),
                },
            )
        if not result.violation:
            continue

        shrunk, shrunk_reason = schedule, result.reason
        if shrink:
            emit("  shrinking the failing schedule (live re-runs)...")

            def still_fails(candidate: NetSchedule) -> bool:
                probe, _ = asyncio.run(_run_schedule(candidate, config))
                return probe.violation

            shrunk = shrink_schedule(schedule, still_fails)
            replay, _ = asyncio.run(_run_schedule(shrunk, config))
            shrunk_reason = replay.reason
        violation = NetViolation(
            result=result, shrunk=shrunk, shrunk_reason=shrunk_reason
        )
        report.violations.append(violation)
        emit(violation.report())
        if artifact_dir:
            _write_artifact(
                artifact_dir,
                f"net-violation-{schedule.seed}.json",
                {
                    "report": result.to_jsonable(),
                    "shrunk": shrunk.describe(),
                    "shrunk_reason": shrunk_reason,
                },
            )
    return report


# ----------------------------------------------------------------------
# the retry-storm campaign (exactly-once under duplicates and retries)
# ----------------------------------------------------------------------


def retry_storm_schedule(
    seed: int, n_servers: int = 3, horizon: float = 3.0
) -> NetSchedule:
    """A directed schedule that manufactures every duplicate source at
    once: a long duplicate-delivery window (redelivered decrees), loss
    bursts violent enough to force op timeouts → client retries →
    re-proposed decrees, and one kill/restart pair so retried ops also
    fail over to a successor coordinator.  Deterministic in ``seed``.
    """
    rng = random.Random(f"retrystorm:{seed}")
    span = min(horizon * 0.5, 1.6)
    actions: List[NetFaultAction] = [
        # duplicates run through most of the storm window
        NetDupBurst(
            at=0.1,
            duration=round(span + 0.8, 2),
            rate=round(rng.uniform(0.15, 0.3), 2),
        ),
        NetLossBurst(
            at=round(rng.uniform(0.15, 0.35), 2),
            duration=round(rng.uniform(0.4, 0.7), 2),
            rate=round(rng.uniform(0.3, 0.45), 2),
        ),
        NetLossBurst(
            at=round(rng.uniform(0.8, 1.1), 2),
            duration=round(rng.uniform(0.3, 0.5), 2),
            rate=round(rng.uniform(0.25, 0.4), 2),
        ),
    ]
    # a short total blackout of the client endpoint: every in-flight
    # attempt times out, so clients must retry (and the retried op's
    # first decree — already on the replicas — often still decides,
    # manufacturing the duplicate-decree case the session seam folds)
    blackout_at = round(rng.uniform(0.25, 0.5), 2)
    blackout = round(rng.uniform(0.25, 0.4), 2)
    for j in range(n_servers):
        actions.append(
            NetPartition(
                at=blackout_at,
                a="clients",
                b=f"node{j}",
                duration=blackout,
            )
        )
    node = rng.randrange(n_servers)
    kill_at = round(rng.uniform(0.4, 0.8), 2)
    actions.append(KillNode(at=kill_at, node=node))
    actions.append(
        RestartNode(at=round(kill_at + rng.uniform(0.5, 0.9), 2), node=node)
    )
    actions.sort(key=lambda a: a.at)
    return NetSchedule(seed=seed, actions=tuple(actions), horizon=horizon)


@dataclass
class RetryStormResult:
    """One retry-storm run on a replicated counter."""

    schedule: NetSchedule
    dedup: bool = True
    verdict: str = "unknown"
    strategy: str = ""
    reason: Optional[str] = None
    committed: int = 0
    pending: int = 0
    successors: int = 0
    retries: int = 0
    hedges: int = 0
    shed: int = 0
    kills: int = 0
    restarts: int = 0
    #: frames the transport delivered twice
    dup_frames: int = 0
    #: duplicate decree occurrences the session seam folded away
    duplicates_folded: int = 0
    #: the pipeline's applied counter state at the end of the run
    applied_count: int = 0
    #: distinct (session-deduplicated) increments in the decided log
    distinct_incs: int = 0
    #: raw increment occurrences in the decided log (≥ distinct_incs)
    raw_incs: int = 0
    duration: float = 0.0
    monitored: bool = False
    monitor_verdict: Optional[str] = None
    monitor_reason: Optional[str] = None
    monitor_events: int = 0
    monitor_witness: Optional[Dict[str, Any]] = None

    @property
    def exactly_once(self) -> bool:
        """The mechanical witness: the applied counter equals the
        distinct increments decided — every acked increment applied
        exactly once, however many decrees carried it."""
        return self.applied_count == self.distinct_incs

    @property
    def ok(self) -> bool:
        return self.verdict == "linearizable" and self.exactly_once

    @property
    def caught(self) -> bool:
        """Whether the checker (post-hoc or online) flagged this run —
        what the dedup-disabled mutant canary must achieve."""
        return (
            self.verdict == "violation"
            or self.monitor_verdict == "violation"
        )

    def line(self) -> str:
        tag = "OK " if self.ok else ("BUG" if self.caught else "???")
        extra = "" if self.dedup else " MUTANT(dedup-off)"
        if self.monitored:
            extra += f" monitor={self.monitor_verdict}"
        return (
            f"[{tag}] {self.verdict:<13} committed={self.committed:<3} "
            f"pending={self.pending} retries={self.retries} "
            f"hedges={self.hedges} shed={self.shed} "
            f"dup_frames={self.dup_frames} folded={self.duplicates_folded} "
            f"applied={self.applied_count}/{self.distinct_incs}"
            f"(raw {self.raw_incs}) t={self.duration:.2f}s{extra} "
            f":: {self.schedule.describe()}"
        )

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "schedule": self.schedule.describe(),
            "dedup": self.dedup,
            "verdict": self.verdict,
            "strategy": self.strategy,
            "reason": self.reason,
            "committed": self.committed,
            "pending": self.pending,
            "successors": self.successors,
            "retries": self.retries,
            "hedges": self.hedges,
            "shed": self.shed,
            "kills": self.kills,
            "restarts": self.restarts,
            "dup_frames": self.dup_frames,
            "duplicates_folded": self.duplicates_folded,
            "applied_count": self.applied_count,
            "distinct_incs": self.distinct_incs,
            "raw_incs": self.raw_incs,
            "exactly_once": self.exactly_once,
            "duration": self.duration,
            "monitored": self.monitored,
            "monitor_verdict": self.monitor_verdict,
            "monitor_reason": self.monitor_reason,
            "monitor_events": self.monitor_events,
        }


async def _run_retry_storm(
    schedule: NetSchedule,
    replicas: int = 3,
    clients: int = 4,
    ops_per_client: int = 10,
    op_timeout: float = 2.5,
    attempt_timeout: float = 0.3,
    hedge_after: float = 0.2,
    quorum_timeout: float = 0.08,
    dedup: bool = True,
    monitor: bool = True,
) -> RetryStormResult:
    """One retry-storm run: a replicated counter under duplicate
    delivery, forced timeouts with safe retry + hedging, and a
    coordinator kill/restart.  ``dedup=False`` is the mutant."""
    loop = asyncio.get_running_loop()
    result = RetryStormResult(schedule=schedule, dedup=dedup)
    adt = counter_adt()
    majority = replicas // 2 + 1
    with tempfile.TemporaryDirectory(prefix="repro-storm-wal-") as wal_root:
        faults = TransportFaults(seed=schedule.seed)
        cluster = LocalCluster(
            n_servers=replicas, faults=faults, wal_root=wal_root
        )
        await cluster.start()
        transport = cluster.client_transport("clients")
        tap: Optional[MonitorTap] = (
            budgeted_tap(counter_adt()) if monitor else None
        )
        recorder = HistoryRecorder(clock=lambda: transport.now, tap=tap)
        # window sized so retried decrees actually propose while the
        # originals are still in flight (that concurrency is what
        # manufactures the duplicate-decree case the seam must fold)
        pipeline = SlotPipeline(
            "storm",
            replicas,
            transport,
            adt=adt,
            window=4 * clients,
            quorum_timeout=quorum_timeout,
            dedup=dedup,
            # snappy per-slot Backup retries: a slot stuck behind the
            # blackout must decide quickly after the heal, or it
            # head-of-line-blocks every later response past the gap
            backoff=BackoffPolicy(
                base=0.08, factor=2.0, cap=0.5, jitter=0.5, max_retries=14
            ),
        )
        # a deep retry budget: the op deadline is the binding limit,
        # so a storm-tossed op keeps re-proposing until time runs out
        storm_backoff = BackoffPolicy(
            base=0.05, factor=2.0, cap=0.4, jitter=0.5, max_retries=16
        )

        async def drive(index: int) -> None:
            client = PipelineClient(
                f"c{index}",
                pipeline,
                recorder,
                op_timeout=op_timeout,
                attempt_timeout=attempt_timeout,
                hedge_after=hedge_after,
                retry_backoff=storm_backoff,
            )
            rng = random.Random(f"storm:{schedule.seed}:{index}")
            done = 0
            while done < ops_per_client:
                if tap is not None and tap.violated:
                    break
                await asyncio.sleep(rng.uniform(*OP_GAP))
                command = (
                    ("inc", 1) if rng.random() < 0.7 else ("cread",)
                )
                try:
                    await client.submit(command)
                    result.committed += 1
                    done += 1
                except Overloaded:
                    # honestly shed: not recorded, identity intact —
                    # yield and try again later
                    result.shed += 1
                    await asyncio.sleep(0.05)
                except OperationTimeout:
                    result.successors += 1
                    result.retries += client.retries
                    result.hedges += client.hedges
                    client = client.successor()
                    done += 1  # the op is pending, not retriable
            result.retries += client.retries
            result.hedges += client.hedges

        async def nemesis() -> None:
            start = loop.time()
            for action in sorted(schedule.actions, key=lambda a: a.at):
                delay = start + action.at - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                if isinstance(action, NetDupBurst):
                    faults.burst_duplicate(action.rate, action.duration)
                elif isinstance(action, NetLossBurst):
                    faults.burst_loss(action.rate, action.duration)
                elif isinstance(action, NetPartition):
                    faults.partition(
                        action.a,
                        action.b,
                        symmetric=not action.one_way,
                        duration=action.duration,
                    )
                elif isinstance(action, KillNode):
                    alive = cluster.alive()
                    if (
                        action.node in alive
                        and len(alive) - 1 >= majority
                    ):
                        await cluster.kill(action.node)
                        result.kills += 1
                elif isinstance(action, RestartNode):
                    if action.node not in cluster.alive():
                        await cluster.restart(action.node)
                        result.restarts += 1

        start = transport.now
        budget = schedule.horizon + op_timeout + RUN_GRACE
        tasks = [loop.create_task(nemesis())] + [
            loop.create_task(drive(i)) for i in range(clients)
        ]
        try:
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=budget)
        except asyncio.TimeoutError:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            result.reason = "run exceeded its wall-clock budget"
        result.duration = transport.now - start
        await cluster.stop()
        if tap is not None:
            monitor_report = await tap.close()
            result.monitored = True
            result.monitor_verdict = monitor_report.verdict
            result.monitor_reason = monitor_report.reason
            result.monitor_events = monitor_report.events
            result.monitor_witness = monitor_report.witness

    result.pending = len(recorder.pending_clients())
    result.dup_frames = faults.duplicated
    result.duplicates_folded = pipeline.duplicates
    # the mechanical exactly-once witness, straight off the *applied*
    # contiguous decided prefix (slots past a decide gap never folded
    # into the state, so they don't participate)
    decided = [
        c
        for slot in range(pipeline._applied_upto)
        for c in batch_commands(pipeline.log[slot])
    ]
    incs = [c for c in decided if c[:1] == ("inc",)]
    result.raw_incs = len(incs)
    result.distinct_incs = len(
        {seq_uid(c) or id(c) for c in dedup_commands(incs)}
    )
    result.applied_count = pipeline._state

    check = check_linearizable(recorder.trace(), counter_adt())
    result.strategy = check.strategy
    if check.unknown:
        result.verdict = "unknown"
        result.reason = result.reason or check.result.reason
    elif check.ok:
        result.verdict = "linearizable"
    else:
        result.verdict = "violation"
        result.reason = check.result.reason
    return result


def run_retry_storm(
    n_schedules: int = 3,
    base_seed: int = 0,
    replicas: int = 3,
    clients: int = 4,
    ops_per_client: int = 10,
    horizon: float = 3.0,
    op_timeout: float = 2.5,
    attempt_timeout: float = 0.3,
    hedge_after: float = 0.2,
    dedup: bool = True,
    monitor: bool = True,
    artifact_dir: Optional[str] = None,
    emit=print,
) -> List[RetryStormResult]:
    """The exactly-once campaign: seeded retry storms on a counter.

    Each seed boots a live cluster and drives increments/reads through
    a sessioned :class:`SlotPipeline` while the nemesis duplicates
    frames, bursts loss hard enough to force op timeouts (and therefore
    safe retries, hedges and coordinator failover), and kills/restarts
    a replica.  Every run is monitored live (``monitor=True``) and
    checked post-hoc against the counter ADT, and additionally carries
    the mechanical witness ``applied_count == distinct_incs``.

    ``dedup=False`` runs the *mutant*: the session seam disabled, so a
    duplicate decree double-applies — the campaign then exists to prove
    the checker **catches** it (``result.caught``), closing the loop
    from mechanism to end-to-end checked guarantee.
    """
    results: List[RetryStormResult] = []
    for k in range(n_schedules):
        schedule = retry_storm_schedule(
            seed=base_seed + k, n_servers=replicas, horizon=horizon
        )
        result = asyncio.run(
            _run_retry_storm(
                schedule,
                replicas=replicas,
                clients=clients,
                ops_per_client=ops_per_client,
                op_timeout=op_timeout,
                attempt_timeout=attempt_timeout,
                hedge_after=hedge_after,
                dedup=dedup,
                monitor=monitor,
            )
        )
        results.append(result)
        emit(result.line())
        if artifact_dir:
            _write_artifact(
                artifact_dir,
                f"retry-storm-{schedule.seed}.json",
                {"report": result.to_jsonable()},
            )
            if result.monitor_witness is not None:
                _write_artifact(
                    artifact_dir,
                    f"retry-storm-witness-{schedule.seed}.json",
                    {
                        "verdict": result.monitor_verdict,
                        "reason": result.monitor_reason,
                        "witness": result.monitor_witness,
                        "schedule": schedule.describe(),
                    },
                )
    return results
