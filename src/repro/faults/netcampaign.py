"""Nemesis campaigns against the *live* TCP cluster.

PR 1's campaign attacks the simulator; this module drives the same
discipline — seeded declarative fault schedules, every recorded history
checked for linearizability, ddmin shrinking of violating schedules —
against :class:`~repro.net.cluster.ShardedCluster` over real sockets,
while closed-loop :func:`~repro.net.pipeline.probing_client` traffic
flows.

There is one chaos framework, not a second one here: a wire schedule
is a :class:`~repro.faults.nemesis.FaultSchedule`, every wire action is
a :class:`~repro.faults.nemesis.FaultAction` whose ``apply`` coroutine
inflicts it through the primitives of :class:`NetTarget` (the live
cluster's side of the nemesis port), and :meth:`NetTarget.play` is the
one loop that sleeps to ``action.at`` and awaits it.  A new action is
one class.  The simulator arms its actions before the run because
virtual time allows it; that difference lives in the two targets, not
in the schedule.

The action vocabulary is the crash-recovery one the runtime now
supports: :class:`KillNode`/:class:`RestartNode` pairs (restarts replay
the node's WAL), :class:`NetLossBurst` windows on
:class:`~repro.net.netfaults.TransportFaults`, and
:class:`NetPartition` cut-then-heal windows between endpoints —
symmetric by default, or one-way with ``one_way=True`` (the asymmetric
link failure; :func:`asymmetric_bridge` composes a ring of them).
Schedules are majority-preserving — at most a minority of replicas is
ever down at once (the generator places kills so, and the target's one
guarded kill refuses the rest), so safety *and* liveness stay
checkable.

On top of the crash vocabulary sit the *gray* failures the paper's
fail-stop model cannot express:

* :class:`NetSlowNode` — one replica stays alive and correct but every
  frame touching it is held before the wire (``TransportFaults.slow``);
* :class:`WALTearTail` — kill a node and leave a torn record at the
  end of its at-rest WAL (crash mid-append); the restart must
  *tolerate* the tear and serve the intact prefix;
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

A run is :func:`repro.net.loadgen.live_run`, the skeleton the load
generator runs on too: it starts the cluster, opens recorder and tap,
tears everything down in its one ``finally`` and tallies clients,
monitors and the checker into the result.  :func:`_run_schedule`
contributes what is the campaign's own — the :class:`NetTarget`, the
schedule played beside the traffic, the wall-clock budget, the
interleaving sanitizer it arms for every run — and two *workloads*
plug in.  The KV workload is the one above.  The retry storm
(:func:`run_retry_storm`, :func:`retry_storm_schedule`) is the other: a
replicated counter behind a sessioned pipeline, hedging and retrying
clients, and the mechanical witness ``applied_count == distinct_incs``
— with ``dedup=False`` the pipeline is the double-apply mutant
(:class:`~repro.faults.mutants.DoubleApplyPipeline`) and the same
campaign loop must *catch* it.
"""

from __future__ import annotations

import asyncio
import os
import random
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Coroutine, Dict, List, Optional, Tuple

from ..analysis import sanitizer
from ..core.adt import ADT, counter_adt
from ..mp.backoff import BackoffPolicy
from ..net.client import HistoryRecorder
from ..net.cluster import ShardedCluster
from ..net.faultfs import FaultyFS, flip_record_body, tear_tail
from ..net.loadgen import (
    DEFAULT_KEYS,
    LiveRun,
    RunReport,
    _command_stream,
    live_run,
    write_artifact,
)
from ..net.netfaults import TransportFaults
from ..net.overload import Overloaded
from ..net.pipeline import (
    PipelineClient,
    SlotPipeline,
    decided_commands,
    probing_client,
)
from ..net.wal import WALError
from ..smr.sessions import dedup_commands, seq_uid
from ..smr.universal import kv_store_adt
from .mutants import DoubleApplyPipeline, RacySlotPipeline
from .nemesis import FaultAction, FaultSchedule, NemesisTarget
from .shrink import Violation, record_violation

#: replicas per cluster under attack: every campaign, canary and CI
#: step runs three, so one may be down with a majority left
REPLICAS = 3

#: a retry storm's size, the one every caller (CLI, CI, the E14 bench)
#: runs: closed-loop clients on the counter, and the ops each issues
STORM_CLIENTS = 4
STORM_OPS_PER_CLIENT = 12

#: seeded pause between a client's ops (seconds).  Nonzero gaps matter:
#: they open single-client-in-flight windows in which slots decide on
#: the uncontended Quorum fast path, the one code path whose durability
#: rests on the sticky acceptance alone (Backup-decided slots are also
#: protected by the acceptor triple).
OP_GAP = (0.005, 0.045)

#: wall-clock grace beyond the schedule horizon before a run is
#: abandoned as wedged (drivers cancelled, history still checked)
RUN_GRACE = 10.0

#: the shared main-traffic pipeline of a ``pipelined`` KV run
PIPELINE_WINDOW = 8
PIPELINE_BATCH = 16


#: the transport endpoints of a run: its one client transport and
#: every replica — what a :class:`NetPartition` may name
ENDPOINTS = ("clients",) + tuple(f"node{i}" for i in range(REPLICAS))


# ----------------------------------------------------------------------
# the live cluster's side of the nemesis port
# ----------------------------------------------------------------------


class NetTarget(NemesisTarget):
    """The live cluster as the nemesis sees it.

    Owns everything a wire action can touch — the
    :class:`~repro.net.cluster.ShardedCluster`, its
    :class:`~repro.net.netfaults.TransportFaults`, the WAL paths, one
    :class:`~repro.net.faultfs.FaultyFS` per node (a passthrough until
    an action arms it) — and the run's counters.  The
    primitives below are the whole surface the wire vocabulary is
    written against; ``on_restart`` is the traffic's hook (the KV
    workload spawns a late reader there).  Building a target *binds*
    the schedule: one that names a server or endpoint the deployment
    lacks is refused with a ``ValueError`` before anything starts.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        config: "_RunConfig",
        wal_root: str,
        result: "NetRunResult",
    ) -> None:
        self.n_servers = REPLICAS
        self.endpoints = ENDPOINTS
        schedule.check(self)
        self.seed = schedule.seed
        self.result = result
        self.on_restart: Callable[[], None] = lambda: None
        self.faults = TransportFaults(seed=schedule.seed)
        self.wal_fs = {
            i: FaultyFS(seed=schedule.seed) for i in range(REPLICAS)
        }
        self.cluster = ShardedCluster(
            n_servers=REPLICAS,
            faults=self.faults,
            wal_root=wal_root,
            amnesiac=()
            if config.amnesiac is None
            else (config.amnesiac,),
            wal_fs=self.wal_fs,
        )

    async def play(self, schedule: FaultSchedule) -> None:
        """The one loop that runs a schedule live: sleep to each
        action's time, let the action apply itself."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        for action in sorted(schedule.actions, key=lambda a: a.at):
            delay = start + action.at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            await action.apply(self)

    async def kill(self, node: int) -> bool:
        """Kill ``node`` unless the kill would take the majority with it
        (shrink probes may have dropped a partner restart; a wedged run
        teaches nothing).  True iff the node is down afterwards — an
        already-dead node counts, so an at-rest mutation may proceed."""
        alive = self.cluster.alive()
        if node not in alive:
            return True
        if len(alive) - 1 < REPLICAS // 2 + 1:
            self.result.skipped_kills += 1
            return False
        await self.cluster.kill(node)
        self.result.kills += 1
        return True

    async def restart(self, node: int) -> None:
        """Relaunch a dead ``node`` from its WAL directory."""
        if node in self.cluster.alive():
            return
        try:
            await self.cluster.restart(node)
        except WALError:
            # Provably corrupt stable storage, or a disk too full to
            # record the incarnation: the node fail-stops instead of
            # recovering.  It stays dead — no late reader, the
            # survivors carry the majority.
            self.result.failstops += 1
            return
        self.result.restarts += 1
        self.on_restart()

    async def mutate_wal(
        self, node: int, mutate: Callable[..., bool], **how: Any
    ) -> None:
        """Kill ``node`` (guarded) and run an at-rest mutator from
        :mod:`repro.net.faultfs` on its WAL file.  A mutator that found
        nothing to mutate — no file, a log too short — is counted: a
        run must not report a tear that tore nothing."""
        path = os.path.join(self.cluster.wal_dir(node), "wal.log")
        if await self.kill(node) and not mutate(path, **how):
            self.result.storage_noops += 1


# ----------------------------------------------------------------------
# schedule vocabulary
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _OnNode(FaultAction):
    """Shared plumbing for actions aimed at one replica."""

    node: int = 0

    def servers_named(self) -> Tuple[int, ...]:
        return (self.node,)


@dataclass(frozen=True)
class KillNode(_OnNode):
    """Crash replica ``node``: listener closed, connections severed."""

    async def apply(self, target: NetTarget) -> None:
        await target.kill(self.node)


@dataclass(frozen=True)
class RestartNode(_OnNode):
    """Relaunch replica ``node`` from its WAL directory."""

    async def apply(self, target: NetTarget) -> None:
        await target.restart(self.node)


@dataclass(frozen=True)
class NetLossBurst(FaultAction):
    """Add i.i.d. frame loss at ``rate`` for ``duration`` seconds."""

    duration: float = 0.5
    rate: float = 0.2

    async def apply(self, target: NetTarget) -> None:
        target.faults.burst_loss(self.rate, self.duration)


@dataclass(frozen=True)
class NetPartition(FaultAction):
    """Cut endpoints ``a``/``b`` for ``duration`` seconds, then heal.

    With ``one_way=True`` only the ``a → b`` direction is cut — the
    asymmetric link failure: ``b`` keeps hearing from ``a`` and replies
    into a void.
    """

    a: str = "clients"
    b: str = "node0"
    duration: float = 0.5
    one_way: bool = False

    def endpoints_named(self) -> Tuple[str, ...]:
        return (self.a, self.b)

    async def apply(self, target: NetTarget) -> None:
        target.faults.partition(
            self.a,
            self.b,
            symmetric=not self.one_way,
            duration=self.duration,
        )


@dataclass(frozen=True)
class NetDupBurst(FaultAction):
    """Deliver frames *twice* i.i.d. at ``rate`` for ``duration``
    seconds (``TransportFaults.burst_duplicate``) — at-least-once
    delivery gone wrong: retransmits after lost acks, a replaying
    middlebox.  Correctness under this action is exactly the
    session-dedup guarantee: a redelivered decree folds once."""

    duration: float = 0.5
    rate: float = 0.2

    async def apply(self, target: NetTarget) -> None:
        target.faults.burst_duplicate(self.rate, self.duration)


@dataclass(frozen=True)
class NetSlowNode(_OnNode):
    """Make replica ``node`` a slow node for ``duration`` seconds: every
    frame it sends or receives is held ``delay`` seconds before the
    socket.  The node stays alive and correct — just late."""

    delay: float = 0.05
    duration: float = 1.0

    async def apply(self, target: NetTarget) -> None:
        target.faults.slow(
            f"node{self.node}", self.delay, duration=self.duration
        )


@dataclass(frozen=True)
class WALTearTail(_OnNode):
    """Kill replica ``node`` and leave a record torn ``cut`` bytes
    short at the end of its at-rest WAL — the crash-mid-append torn
    write.  A later :class:`RestartNode` must tolerate the tear: replay
    truncates the incomplete record and serves the intact prefix."""

    cut: int = 3

    async def apply(self, target: NetTarget) -> None:
        await target.mutate_wal(self.node, tear_tail, cut=self.cut)


@dataclass(frozen=True)
class WALBitFlip(_OnNode):
    """Kill replica ``node`` and flip one seeded bit inside a complete
    record body of its at-rest WAL.  A later :class:`RestartNode` must
    **fail-stop** — the restart raises
    :exc:`~repro.net.wal.WALCorruptionError`, the node stays dead, and
    the run counts a ``failstop`` instead of a restart."""

    async def apply(self, target: NetTarget) -> None:
        await target.mutate_wal(
            self.node, flip_record_body, seed=target.seed
        )


@dataclass(frozen=True)
class WALNoSpace(_OnNode):
    """Exhaust replica ``node``'s disk for its next ``count`` WAL
    appends (injected ``ENOSPC`` via :class:`FaultyFS`).  The node must
    back off and retry, never replying before the record is durable."""

    count: int = 4

    async def apply(self, target: NetTarget) -> None:
        target.wal_fs[self.node].fail_appends(self.count)


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
    at: float, duration: float = 0.5
) -> Tuple[NetPartition, ...]:
    """A ring of one-way cuts: each replica cannot send to the next,
    yet every pair stays mutually reachable through the asymmetric
    remainder — the classic gray partition in which no node looks dead
    from everywhere at once."""
    endpoints = ENDPOINTS[1:]
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


def random_net_schedule(
    seed: int,
    must_restart: Optional[int] = None,
) -> FaultSchedule:
    """Draw a live-cluster fault schedule, deterministically from ``seed``.

    Up to two kills come paired with a later restart each, and pairs
    are placed so at most a minority of replicas is down at any instant.
    ``must_restart`` forces one kill/restart pair for that node — the
    amnesiac-canary campaigns use it so the node under suspicion is
    guaranteed to lose its memory mid-run.  Network perturbations draw
    from loss bursts, partitions (sometimes one-way) and slow-node
    windows.  Action times land in the first part of the horizon so the
    tail is left for recovery and late readers.
    """
    rng = random.Random(f"netcampaign:{seed}")
    minority = (REPLICAS - 1) // 2
    span = 2.0  # of the 4 s horizon
    actions: List[FaultAction] = []
    down: List[Tuple[float, float, int]] = []  # (start, end, node)

    def fits(start: float, end: float, node: int) -> bool:
        overlapping = [
            iv for iv in down if not (iv[1] <= start or iv[0] >= end)
        ]
        if any(iv[2] == node for iv in overlapping):
            return False
        return len(overlapping) + 1 <= minority

    def add_pair(node: int) -> bool:
        at = round(rng.uniform(0.2, span), 2)
        duration = round(rng.uniform(0.3, 0.7), 2)
        if not fits(at, at + duration, node):
            return False
        down.append((at, at + duration, node))
        actions.append(KillNode(at=at, node=node))
        actions.append(RestartNode(at=round(at + duration, 2), node=node))
        return True

    if must_restart is not None:
        while not add_pair(must_restart):
            pass
    for _ in range(rng.randint(0, 2)):
        add_pair(rng.randrange(REPLICAS))

    for _ in range(rng.randint(0, 2)):
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
            a, b = rng.sample(ENDPOINTS, 2)
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
                    node=rng.randrange(REPLICAS),
                    delay=round(rng.uniform(0.02, 0.08), 3),
                    duration=round(rng.uniform(0.4, 1.0), 2),
                )
            )

    if not actions:
        actions.append(NetLossBurst(at=0.3, duration=0.4, rate=0.15))
    actions.sort(key=lambda a: a.at)
    return FaultSchedule(seed=seed, actions=tuple(actions), horizon=4.0)


def retry_storm_schedule(seed: int) -> FaultSchedule:
    """A directed schedule that manufactures every duplicate source at
    once: a long duplicate-delivery window (redelivered decrees), loss
    bursts violent enough to force op timeouts → client retries →
    re-proposed decrees, and one kill/restart pair so retried ops also
    fail over to a successor coordinator.  Deterministic in ``seed``.
    """
    rng = random.Random(f"retrystorm:{seed}")
    span = 1.5  # of the 3 s horizon
    actions: List[FaultAction] = [
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
    for j in range(REPLICAS):
        actions.append(
            NetPartition(
                at=blackout_at,
                a="clients",
                b=f"node{j}",
                duration=blackout,
            )
        )
    node = rng.randrange(REPLICAS)
    kill_at = round(rng.uniform(0.4, 0.8), 2)
    actions.append(KillNode(at=kill_at, node=node))
    actions.append(
        RestartNode(at=round(kill_at + rng.uniform(0.5, 0.9), 2), node=node)
    )
    actions.sort(key=lambda a: a.at)
    return FaultSchedule(seed=seed, actions=tuple(actions), horizon=3.0)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------


@dataclass(kw_only=True)
class NetRunResult(RunReport):
    """One live-cluster run: what happened, and the checker's verdict."""

    schedule: FaultSchedule
    kills: int = 0
    restarts: int = 0
    skipped_kills: int = 0
    failstops: int = 0
    #: at-rest storage faults that found nothing to mutate (WAL file
    #: missing or too short): the action ran, the fault did not happen
    storage_noops: int = 0
    late_readers: int = 0
    #: frames the transport delivered twice
    dup_frames: int = 0
    #: duplicate decree occurrences the session seam folded away
    duplicates_folded: int = 0
    #: the storm's counter witness: the pipeline's applied counter
    #: state, the distinct (session-deduplicated) increments in the
    #: decided log, and their raw occurrences (≥ distinct_incs)
    applied_count: int = 0
    distinct_incs: int = 0
    raw_incs: int = 0
    amnesiac: Optional[int] = None
    #: False: the session seam was off (the retry storm's mutant)
    dedup: bool = True
    #: the run drove the RacySlotPipeline mutant (awaits mid-claim)
    race_mutant: bool = False
    #: the runtime interleaving sanitizer was armed for this run (every
    #: campaign run arms it; False only on a result built by hand)
    sanitized: bool = False
    #: interleavings the sanitizer recorded during the run
    sanitizer_violations: int = 0

    @property
    def exactly_once(self) -> bool:
        """The mechanical witness: the applied counter equals the
        distinct increments decided — every acked increment applied
        exactly once, however many decrees carried it.  (Trivially true
        of a KV run, which decides no increments.)"""
        return self.applied_count == self.distinct_incs

    @property
    def ok(self) -> bool:
        """Linearizable and exactly-once — and, unless the race mutant
        was driven on purpose, no interleaving recorded: on honest
        traffic every guarded section is synchronous, so a catch is a
        real race even when the history happens to check out."""
        raced = self.sanitizer_violations and not self.race_mutant
        return (
            self.verdict == "linearizable" and self.exactly_once and not raced
        )

    @property
    def violation(self) -> bool:
        return self.verdict == "violation"

    @property
    def caught(self) -> bool:
        """Whether a checker (post-hoc or online) flagged this run —
        what a mutant canary must achieve."""
        return self.violation or self.monitor_verdict == "violation"

    @property
    def sanitizer_caught(self) -> bool:
        """True iff the armed sanitizer observed at least one interleave."""
        return self.sanitized and self.sanitizer_violations > 0

    def line(self) -> str:
        """One replayable report line, campaign.py style."""
        caught = self.caught or self.sanitizer_caught
        tag = "OK " if self.ok else ("BUG" if caught else "???")
        extra = f" amnesiac=node{self.amnesiac}" if self.amnesiac is not None else ""
        if not self.dedup:
            extra += " MUTANT(dedup-off)"
        if self.failstops:
            extra += f" failstops={self.failstops}"
        if self.storage_noops:
            extra += f" storage_noops={self.storage_noops}"
        if self.retries or self.hedges or self.shed or self.dup_frames:
            extra += (
                f" retries={self.retries} hedges={self.hedges}"
                f" shed={self.shed} dup_frames={self.dup_frames}"
                f" folded={self.duplicates_folded}"
            )
        if self.raw_incs or self.applied_count:
            extra += (
                f" applied={self.applied_count}/{self.distinct_incs}"
                f"(raw {self.raw_incs})"
            )
        if self.pipelined:
            extra += (
                f" pipelined decrees={self.decrees}"
                f" batched={self.batched_ops}"
            )
        if self.monitored:
            extra += f" monitor={self.monitor_verdict}"
            if self.monitor_certificate_misses:
                extra += "(searched: certificate miss)"
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
        """The result as a JSON-artifact-friendly dict: every field but
        the monitor's witness (an artifact of its own), the schedule as
        its replayable line, plus the derived witness verdict."""
        data = asdict(self)
        del data["monitor_witness"]
        data.update(
            schedule=self.schedule.describe(),
            exactly_once=self.exactly_once,
        )
        return data


@dataclass
class NetCampaignReport:
    """Aggregate outcome of a live-cluster campaign."""

    runs: List[NetRunResult] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)

    @property
    def all_linearizable(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        ok = sum(1 for r in self.runs if r.ok)
        inconclusive = sum(1 for r in self.runs if r.verdict == "unknown")
        lines = [
            f"net campaign: {len(self.runs)} runs, {ok} linearizable, "
            f"{len(self.violations)} violations, "
            f"{inconclusive} inconclusive",
        ]
        for violation in self.violations:
            lines.append(violation.report())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the runner: the campaign's half of a live run, two workloads
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Workload:
    """The traffic half of a run: what object is replicated, who drives
    it, and what its artifacts are called."""

    adt: Callable[[], ADT]
    #: builds the clients on the run; answers the drivers
    traffic: Callable[[LiveRun, NetTarget, "_RunConfig"], List[Coroutine]]
    op_timeout: float
    #: artifact names: the run, the monitor's witness, a violation
    artifacts: Tuple[str, str, str]
    #: the workload's own post-run observations, folded into the result
    fold: Callable[[LiveRun, NetRunResult], None] = lambda run, result: None


@dataclass
class _RunConfig:
    """Everything about a run that is not the schedule."""

    workload: _Workload
    clients: int = 3
    ops_per_client: int = 8
    amnesiac: Optional[int] = None
    #: drive main traffic through a shared SlotPipeline (batched,
    #: windowed decrees) instead of one probing client per driver.
    #: Late readers always stay on probing clients with private
    #: decided-slot logs — they are the fork detectors.
    pipelined: bool = False
    #: run a live StreamingMonitor on the recorded history: the drivers
    #: stop as soon as it flips to violation (fail-fast, mid-run), and
    #: the run result carries the online verdict next to the post-hoc
    #: one.  The amnesiac-canary campaigns assert the two agree.
    monitor: bool = False
    #: substitute :class:`RacySlotPipeline` for the main-traffic
    #: pipeline (implies ``pipelined``): its slot claims suspend
    #: mid-critical-section, the lost-update shape RD08 flags statically
    race_mutant: bool = False
    #: the storm's session seam; False is its double-apply mutant
    dedup: bool = True


def _kv_traffic(
    run: LiveRun, target: NetTarget, config: _RunConfig
) -> List[Coroutine]:
    """The KV workload: seeded put/get/delete drivers, and a late reader
    per restart."""
    timeout = config.workload.op_timeout
    transport, recorder = run.transports[0], run.recorders[0]
    if config.pipelined:
        pipeline_cls = (
            RacySlotPipeline if config.race_mutant else SlotPipeline
        )
        run.pipelines.append(
            pipeline_cls(
                "main",
                REPLICAS,
                transport,
                window=PIPELINE_WINDOW,
                max_batch=PIPELINE_BATCH,
            )
        )

    def probing(name: str) -> PipelineClient:
        # Per-client decided-slot logs: a forked consensus must surface
        # as conflicting recorded responses, not be papered over by a
        # shared log.
        return run.adopt(
            probing_client(
                name, REPLICAS, transport, recorder, op_timeout=timeout
            )
        )

    async def drive(index: int) -> None:
        # main traffic rides the batching pipeline when configured
        name = f"c{index}"
        client = (
            run.adopt(
                PipelineClient(
                    name, run.pipelines[0], recorder, op_timeout=timeout
                )
            )
            if run.pipelines
            else probing(name)
        )
        rng = random.Random(f"netload:{target.seed}:{index}")
        stream = _command_stream(rng, DEFAULT_KEYS)
        for _ in range(config.ops_per_client):
            if run.violated:
                return
            await asyncio.sleep(rng.uniform(*OP_GAP))
            client = await run.submit(client, next(stream))

    async def read_back(index: int) -> None:
        # A late reader starts with an empty log and probes from
        # slot 0: its responses replay the whole decided prefix,
        # which is where a recovered-but-amnesiac node forks history.
        client = probing(f"late{index}")
        for key in DEFAULT_KEYS:
            if run.violated:
                return
            client = await run.submit(client, ("get", key))

    def spawn_late_reader() -> None:
        target.result.late_readers += 1
        run.spawn(read_back(target.result.late_readers))

    target.on_restart = spawn_late_reader
    return [drive(i) for i in range(config.clients)]


def _storm_traffic(
    run: LiveRun, target: NetTarget, config: _RunConfig
) -> List[Coroutine]:
    """The retry-storm workload: a replicated counter under duplicate
    delivery, forced timeouts with safe retry + hedging, and a
    coordinator kill/restart.  ``config.dedup=False`` is the mutant."""
    # window sized so retried decrees actually propose while the
    # originals are still in flight (that concurrency is what
    # manufactures the duplicate-decree case the seam must fold)
    pipeline_cls = SlotPipeline if config.dedup else DoubleApplyPipeline
    pipeline = pipeline_cls(
        "storm",
        REPLICAS,
        run.transports[0],
        adt=counter_adt(),
        window=4 * config.clients,
        quorum_timeout=0.08,
        # snappy per-slot Backup retries: a slot stuck behind the
        # blackout must decide quickly after the heal, or it
        # head-of-line-blocks every later response past the gap
        backoff=BackoffPolicy(
            base=0.08, factor=2.0, cap=0.5, jitter=0.5, max_retries=14
        ),
    )
    run.pipelines.append(pipeline)
    # a deep retry budget: the op deadline is the binding limit,
    # so a storm-tossed op keeps re-proposing until time runs out
    storm_backoff = BackoffPolicy(
        base=0.05, factor=2.0, cap=0.4, jitter=0.5, max_retries=16
    )

    async def drive(index: int) -> None:
        client = run.adopt(
            PipelineClient(
                f"c{index}",
                pipeline,
                run.recorders[0],
                op_timeout=config.workload.op_timeout,
                attempt_timeout=0.3,
                hedge_after=0.2,
                retry_backoff=storm_backoff,
            )
        )
        rng = random.Random(f"storm:{target.seed}:{index}")
        done = 0
        while done < config.ops_per_client and not run.violated:
            await asyncio.sleep(rng.uniform(*OP_GAP))
            command = ("inc", 1) if rng.random() < 0.7 else ("cread",)
            try:
                client = await run.submit(client, command)
                done += 1  # committed, or pending and not retriable
            except Overloaded:
                # honestly shed: not recorded, identity intact —
                # yield and try again later
                await asyncio.sleep(0.05)

    return [drive(i) for i in range(config.clients)]


def _storm_witness(run: LiveRun, result: NetRunResult) -> None:
    """The mechanical exactly-once witness, straight off the *applied*
    contiguous decided prefix (slots past a decide gap never folded
    into the state, so they don't participate)."""
    (pipeline,) = run.pipelines
    incs = [
        c
        for slot in range(pipeline._applied_upto)
        for c in decided_commands(pipeline.log[slot])
        if c[:1] == ("inc",)
    ]
    result.raw_incs = len(incs)
    result.distinct_incs = len(
        {seq_uid(c) or id(c) for c in dedup_commands(incs)}
    )
    result.applied_count = pipeline._state.get(None, 0)  # the counter's cell


KV_WORKLOAD = _Workload(
    adt=kv_store_adt,
    traffic=_kv_traffic,
    op_timeout=2.0,
    artifacts=("net-run", "net-monitor-witness", "net-violation"),
)

STORM_WORKLOAD = _Workload(
    adt=counter_adt,
    traffic=_storm_traffic,
    op_timeout=2.5,
    artifacts=("retry-storm", "retry-storm-witness", "retry-storm-violation"),
    fold=_storm_witness,
)


async def _run_schedule(
    schedule: FaultSchedule, config: _RunConfig
) -> Tuple[NetRunResult, HistoryRecorder]:
    """One live run: cluster up, traffic + nemesis, tear down, check."""
    workload = config.workload
    result = NetRunResult(
        schedule=schedule,
        amnesiac=config.amnesiac,
        race_mutant=config.race_mutant,
        dedup=config.dedup,
    )
    sanitizer_was_enabled = sanitizer.enabled()
    # Per-run isolation: violations recorded by this run must not leak
    # into the next schedule's count (or vice versa).
    sanitizer.reset()
    sanitizer.enable()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-net-wal-") as wal_root:
            target = NetTarget(schedule, config, wal_root, result)
            async with live_run(
                target.cluster, workload.adt, config.monitor
            ) as run:
                tasks = [
                    run.spawn(work)
                    for work in (
                        target.play(schedule),
                        *workload.traffic(run, target, config),
                    )
                ]
                budget = schedule.horizon + workload.op_timeout + RUN_GRACE
                try:
                    await asyncio.wait_for(
                        asyncio.gather(*tasks), timeout=budget
                    )
                    # spawned mid-run, after the drivers: late readers
                    late = run.tasks[len(tasks):]
                    if late:
                        await asyncio.wait_for(
                            asyncio.gather(*late), timeout=budget
                        )
                except asyncio.TimeoutError:
                    result.reason = "run exceeded its wall-clock budget"
    finally:
        result.sanitized = True
        result.sanitizer_violations = len(sanitizer.violations())
        if not sanitizer_was_enabled:
            sanitizer.disable()

    run.fill(result)
    result.pipelined = bool(run.pipelines)
    result.dup_frames = target.faults.duplicated
    result.duplicates_folded = sum(
        p.duplicates for p in {client.pipeline for client in run.clients}
    )
    workload.fold(run, result)
    return result, run.recorders[0]


def _campaign(
    schedules: List[FaultSchedule],
    config: _RunConfig,
    shrink: bool,
    artifact_dir: Optional[str],
    emit: Callable[[str], None],
) -> NetCampaignReport:
    """The one loop that runs wire schedules: run, report, write the
    artifacts, shrink and replay what violated."""
    run_name, witness_name, violation_name = config.workload.artifacts
    report = NetCampaignReport()

    def rerun(candidate: FaultSchedule) -> NetRunResult:
        return asyncio.run(_run_schedule(candidate, config))[0]

    def save(name: str, seed: int, payload: Dict[str, Any]) -> None:
        if not artifact_dir:
            return
        os.makedirs(artifact_dir, exist_ok=True)
        write_artifact(
            os.path.join(artifact_dir, f"{name}-{seed}.json"), payload
        )

    for schedule in schedules:
        result, recorder = asyncio.run(_run_schedule(schedule, config))
        report.runs.append(result)
        emit(result.line())
        save(
            run_name,
            schedule.seed,
            {
                "adt": config.workload.adt().name,
                "report": result.to_jsonable(),
                "history": recorder.to_jsonable(),
            },
        )
        if result.monitor_verdict == "violation":
            save(
                witness_name,
                schedule.seed,
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
        if shrink:
            emit("  shrinking the failing schedule (live re-runs)...")
        violation = record_violation(report, result, rerun, shrink, emit)
        save(
            violation_name,
            schedule.seed,
            {
                "report": result.to_jsonable(),
                "shrunk": violation.shrunk.describe(),
                "shrunk_reason": violation.shrunk_reason,
            },
        )
    return report


def run_net_campaign(
    n_schedules: int = 3,
    base_seed: int = 0,
    clients: int = 3,
    ops_per_client: int = 8,
    amnesiac: Optional[int] = None,
    shrink: bool = True,
    schedules: Optional[List[FaultSchedule]] = None,
    artifact_dir: Optional[str] = None,
    pipelined: bool = False,
    monitor: bool = False,
    race_mutant: bool = False,
    emit: Callable[[str], None] = print,
) -> NetCampaignReport:
    """Run seeded chaos campaigns against live localhost clusters.

    Each schedule boots a fresh three-replica :class:`ShardedCluster`
    (WAL-backed; the ``amnesiac`` replica, if any, gets none), drives
    closed-loop client traffic while the nemesis kills/restarts
    replicas and perturbs the transport, then feeds the recorded
    wire-level history through
    :func:`~repro.core.fastcheck.check_linearizable`.  A violating
    schedule is delta-debugged to a 1-minimal reproducer by re-running
    the live cluster per probe (``shrink=False`` skips this).  Explicit
    ``schedules`` override generation — the CI canary passes a directed
    kill/restart pair.  With ``artifact_dir`` every run writes its
    history + verdict JSON, and every violation its shrunk schedule.

    The cluster under attack is the default one, the plane the ledger
    measures: binary frames, WALs that sync each record before its
    reply.  ``pipelined=True`` swaps the main traffic onto a shared
    batching :class:`~repro.net.pipeline.SlotPipeline`, which is how CI
    proves decree batching composes with the chaos vocabulary.  Late readers
    stay on probing clients with private decided-slot logs either way —
    they are the fork detectors.

    ``monitor=True`` attaches a live
    :class:`~repro.monitor.StreamingMonitor` to every run's recorder:
    drivers stop the moment it flips to violation (the bug is caught
    *during* the run, not at post-hoc check time), each
    :class:`NetRunResult` carries the online verdict next to the
    post-hoc one, and with ``artifact_dir`` a monitor-caught violation
    writes its shrunken witness as ``net-monitor-witness-{seed}.json``.

    Every run arms the runtime interleaving sanitizer
    (:mod:`repro.analysis.sanitizer`) and reports the interleavings it
    recorded; on honest traffic one makes the run fail
    (``NetRunResult.ok``).  ``race_mutant=True`` swaps the main-traffic
    pipeline for :class:`~repro.faults.mutants.RacySlotPipeline`
    (implying ``pipelined``), whose slot claims suspend inside their
    critical section: the CI canary drives it and demands a catch in
    every run (``NetRunResult.sanitizer_caught``) — the dynamic
    cross-check of the static RD08 rule.
    """
    config = _RunConfig(
        workload=KV_WORKLOAD,
        clients=clients,
        ops_per_client=ops_per_client,
        amnesiac=amnesiac,
        pipelined=pipelined or race_mutant,
        monitor=monitor,
        race_mutant=race_mutant,
    )
    if schedules is None:
        schedules = [
            random_net_schedule(seed=base_seed + k, must_restart=amnesiac)
            for k in range(n_schedules)
        ]
    return _campaign(schedules, config, shrink, artifact_dir, emit)


def run_retry_storm(
    n_schedules: int = 3,
    base_seed: int = 0,
    dedup: bool = True,
    artifact_dir: Optional[str] = None,
    emit: Callable[[str], None] = print,
) -> List[NetRunResult]:
    """The exactly-once campaign: seeded retry storms on a counter.

    A preset over the campaign loop above: each seed's
    :func:`retry_storm_schedule` boots a live cluster and drives
    increments/reads through a sessioned :class:`SlotPipeline` while
    the nemesis duplicates frames, bursts loss hard enough to force op
    timeouts (and therefore safe retries, hedges and coordinator
    failover), and kills/restarts a replica; :data:`STORM_CLIENTS`
    clients issue :data:`STORM_OPS_PER_CLIENT` ops each.  Every run is
    monitored live and checked post-hoc against the counter ADT, and
    additionally carries the mechanical witness ``applied_count ==
    distinct_incs`` (``NetRunResult.exactly_once``).

    ``dedup=False`` runs the *mutant*: a
    :class:`~repro.faults.mutants.DoubleApplyPipeline`, whose applier
    skips the session table, so a duplicate decree double-applies — the
    campaign then exists to prove the checker **catches** it
    (``result.caught``), closing the loop from mechanism to end-to-end
    checked guarantee.  The catch is the
    point, not its smallest schedule: violations are not shrunk.
    """
    config = _RunConfig(
        workload=STORM_WORKLOAD,
        clients=STORM_CLIENTS,
        ops_per_client=STORM_OPS_PER_CLIENT,
        monitor=True,
        dedup=dedup,
    )
    schedules = [
        retry_storm_schedule(seed=base_seed + k) for k in range(n_schedules)
    ]
    return _campaign(schedules, config, False, artifact_dir, emit).runs
