"""Discrete-event simulator for asynchronous message-passing systems.

The substrate beneath the Section 2.1 algorithms.  The paper's system
model is a set of crash-prone processes exchanging messages over an
asynchronous network; the theory quantifies over all schedules, and the
paper's quantitative claims are in *message delays*.  This simulator makes
both measurable:

* virtual time with a deterministic, seeded event queue — identical seeds
  reproduce identical executions;
* unit message delay by default, so elapsed virtual time equals the
  message-delay count the paper reasons with (a random-delay model is
  available for robustness experiments);
* fault injection: message loss, message duplication, process crashes at
  scheduled times, crash-*recovery* with a durable-state hook, partitions
  (symmetric or one-way, against explicit groups or membership
  predicates), and time-varying fault windows (loss bursts, duplication
  storms, delay spikes) driven by the nemesis layer in
  :mod:`repro.faults`.

Nothing here knows about consensus: processes are callback objects wired
through a :class:`Network`.

The :class:`Network` is also the reference implementation of the
**substrate port** (:mod:`repro.net.port`): the protocol roles in
:mod:`repro.mp.quorum`, :mod:`repro.mp.paxos` and :mod:`repro.mp.backup`
reach their substrate only through ``send``, ``call_later`` and ``now``,
so the same unchanged algorithm code runs either here (virtual time,
deterministic) or on the asyncio TCP runtime of :mod:`repro.net`
(wall-clock time, real sockets).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class Simulator:
    """A deterministic discrete-event scheduler with virtual time."""

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._queue: List[_Event] = []
        self._seq = 0
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> _Event:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Returns the event, whose ``cancelled`` flag may be set to revoke
        it (used by timers).
        """
        if delay < 0:
            raise ValueError("delay must be non-negative")
        event = _Event(self.now + delay, self._seq, callback)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return event

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Process events in timestamp order.

        Stops when the queue drains, when virtual time would exceed
        ``until``, or after ``max_events`` callbacks.
        """
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                return
            event = self._queue[0]
            if until is not None and event.time > until:
                return
            heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.now = event.time
            event.callback()
            processed += 1
            self.events_processed += 1


class Timer:
    """A cancellable one-shot timer bound to a simulator."""

    def __init__(self, sim: Simulator, delay: float, callback: Callable[[], None]):
        self._event = sim.schedule(delay, self._fire)
        self._callback = callback
        self.fired = False
        self.cancelled = False

    def _fire(self) -> None:
        if not self.cancelled:
            self.fired = True
            self._callback()

    def cancel(self) -> None:
        """Revoke the timer; the callback will not run."""
        self.cancelled = True
        self._event.cancelled = True


class Process:
    """Base class for simulated processes.

    Subclasses override :meth:`on_message`.  A crashed process silently
    drops incoming messages and stops sending; crashes are injected via
    :meth:`crash` or scheduled through :meth:`Network.crash_at`.

    Crash-*recovery* is also modelled: :meth:`recover` restarts a crashed
    process.  A restart loses all volatile state — timers armed before
    the crash never fire after it (each crash bumps an epoch that stale
    timers check) — except what the process explicitly declares durable.
    Subclasses persist state by overriding :meth:`durable_state`
    (snapshotted at crash time, as if written to stable storage on every
    update) and :meth:`on_recover` (reinitialize volatile state, then
    restore the snapshot).  The default process is diskless: it recovers
    with no memory of its past.
    """

    def __init__(self, pid: Hashable) -> None:
        self.pid = pid
        self.crashed = False
        self.network: Optional["Network"] = None
        self._epoch = 0
        self._durable: Any = None

    def attach(self, network: "Network") -> None:
        """Called by the network when the process is registered."""
        self.network = network

    @property
    def sim(self) -> Simulator:
        """The simulator driving this process's network."""
        return self.network.sim

    def send(self, dst: Hashable, message: Any) -> None:
        """Send a message (dropped if this process has crashed).

        **A message is never mutated after ``send``.**  The simulator
        hands the sender's object to the receiver (and a duplicate, or
        a broadcast, hands one object to several), and the TCP runtime
        reuses the encoded body of a message it sees again, recognised
        by identity.  Protocol messages are tuples of immutable values,
        so the rule costs nothing; a role that must send a list or dict
        it keeps using sends a copy.
        """
        if not self.crashed:
            self.network.send(self.pid, dst, message)

    def broadcast(self, dsts, message: Any) -> None:
        """Send the same message to several destinations."""
        for dst in dsts:
            self.send(dst, message)

    def set_timer(self, delay: float, callback: Callable[[], None]):
        """Start a timer that fires unless the process crashes first.

        A timer armed before a crash stays dead even if the process later
        recovers: it belonged to the lost volatile state.

        Routed through the substrate port (``network.call_later``) so the
        same protocol code runs on the simulator and on the asyncio TCP
        runtime; the returned handle supports ``cancel()``.  The armed
        delay is scaled by the substrate's ``timer_scale`` for this pid,
        which is how the nemesis injects timer-rate drift (a gray
        failure: this process's tick runs fast or slow relative to the
        cluster) without the protocol code knowing.
        """
        epoch = self._epoch

        def guarded() -> None:
            if not self.crashed and self._epoch == epoch:
                callback()

        scale = self.network.timer_scale(self.pid)
        return self.network.call_later(delay * scale, guarded)

    def local_now(self) -> float:
        """This process's *local* clock reading — substrate time plus
        any clock-skew gray failure currently applied to it."""
        return self.network.local_now(self.pid)

    def call_soon(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` asynchronously-soon on the substrate.

        The port-level replacement for ``self.sim.schedule(0.0, ...)``:
        on the simulator it is exactly that; on the asyncio runtime it is
        ``loop.call_soon``-equivalent scheduling.
        """
        self.network.call_later(0.0, callback)

    def crash(self) -> None:
        """Crash: the process neither sends nor receives until recovered.

        The durable snapshot is taken here — equivalently, the process
        wrote it to stable storage on every update and this is what
        survives on disk.
        """
        if self.crashed:
            return
        self.crashed = True
        self._epoch += 1
        self._durable = self.durable_state()

    def recover(self) -> None:
        """Restart a crashed process with only its durable state."""
        if not self.crashed:
            return
        self.crashed = False
        self.on_recover(self._durable)
        self._durable = None

    def durable_state(self) -> Any:
        """Snapshot persisted across a crash-recover cycle.

        Default: ``None`` — the process is diskless and recovers blank.
        """
        return None

    def on_recover(self, durable: Any) -> None:
        """Reinitialize after a restart; ``durable`` is the snapshot
        taken at crash time (``None`` for diskless processes)."""

    def on_message(self, src: Hashable, message: Any) -> None:
        """Handle a delivered message.  Override in subclasses."""
        raise NotImplementedError


@dataclass
class LinkStats:
    """Per-link (src → dst) counters: one row of the link matrix."""

    sent: int = 0
    lost: int = 0
    duplicated: int = 0
    partitioned: int = 0

    @property
    def faulty(self) -> bool:
        """True iff this link saw any fault (loss, duplication, cut)."""
        return bool(self.lost or self.duplicated or self.partitioned)


@dataclass
class NetworkStats:
    """Counters for benchmark reporting.

    Aggregate totals plus a per-link breakdown: ``links`` maps each
    ``(src, dst)`` pid pair that ever sent a message to its
    :class:`LinkStats`, so a campaign report can name the links a fault
    actually hit rather than only the totals.
    """

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    duplicated: int = 0
    dropped_crashed: int = 0
    partitioned: int = 0
    links: Dict[Tuple[Hashable, Hashable], LinkStats] = field(
        default_factory=dict
    )

    def link(self, src: Hashable, dst: Hashable) -> LinkStats:
        """The (lazily created) counters of the ``src → dst`` link."""
        key = (src, dst)
        stats = self.links.get(key)
        if stats is None:
            stats = self.links[key] = LinkStats()
        return stats

    def faulty_links(self):
        """``((src, dst), LinkStats)`` pairs that saw faults, worst first.

        Deterministically ordered: by descending total fault count, then
        by the repr of the link key — so report lines are reproducible.
        """
        hit = [(k, s) for k, s in self.links.items() if s.faulty]
        hit.sort(
            key=lambda kv: (
                -(kv[1].lost + kv[1].duplicated + kv[1].partitioned),
                repr(kv[0]),
            )
        )
        return hit


@dataclass
class _Partition:
    """A temporary cut between two process groups.

    Sides are membership predicates so a cut can be defined by process
    *identity* (e.g. "every role of physical server 2, in any SMR slot,
    including ones registered after the cut begins") rather than by a set
    frozen at schedule time.  ``side_b = None`` means "everyone not in
    side a".  ``symmetric = False`` models a one-way link failure: only
    a→b messages are blocked.
    """

    side_a: Callable[[Hashable], bool]
    side_b: Optional[Callable[[Hashable], bool]]
    start: float
    end: float
    symmetric: bool = True

    def _in_a(self, pid: Hashable) -> bool:
        return self.side_a(pid)

    def _in_b(self, pid: Hashable) -> bool:
        if self.side_b is None:
            return not self.side_a(pid)
        return self.side_b(pid)

    def blocks(self, src, dst, now: float) -> bool:
        if not (self.start <= now < self.end):
            return False
        if self._in_a(src) and self._in_b(dst):
            return True
        return self.symmetric and self._in_b(src) and self._in_a(dst)


@dataclass
class _GrayWindow:
    """A time-bounded per-process gray-failure attribute.

    One record shape serves all three gray failures — a slow-node
    factor, a timer-drift rate, or a clock-skew offset — because each
    is just "``value`` applies to matching pids during [start, end)".
    Like :class:`_Partition`, membership is a predicate evaluated
    lazily, so a window covers roles registered after it was scheduled
    (every SMR slot of a physical server, for instance).
    """

    member: Callable[[Hashable], bool]
    start: float
    end: float
    value: float

    def applies(self, pid: Hashable, now: float) -> bool:
        return self.start <= now < self.end and self.member(pid)


class Network:
    """The asynchronous network connecting processes.

    ``delay`` is either a constant (default 1.0 — one message delay) or a
    callable ``(rng) -> float``.  ``loss_rate`` drops messages i.i.d.;
    ``duplicate_rate`` re-delivers a message a second time after an
    independent delay, modelling at-least-once channels (the paper's new
    linearizability definition explicitly tolerates repeated events).
    """

    def __init__(
        self,
        sim: Simulator,
        delay: Any = 1.0,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
    ) -> None:
        self.sim = sim
        self.delay = delay
        self.loss_rate = loss_rate
        self.duplicate_rate = duplicate_rate
        # Time-varying fault windows (nemesis layer): bursts *add* to the
        # baseline rates so overlapping windows compose; delay spikes
        # *multiply* the sampled delay.
        self.extra_loss = 0.0
        self.extra_duplicate = 0.0
        self.delay_scale = 1.0
        self.processes: Dict[Hashable, Process] = {}
        self.stats = NetworkStats()
        self._partitions: List[_Partition] = []
        # Gray-failure windows (nemesis layer), evaluated lazily per
        # event like partitions: slow-node delay factors, timer-rate
        # drifts, and clock-skew offsets, each scoped to a pid group.
        self._slow: List[_GrayWindow] = []
        self._drifts: List[_GrayWindow] = []
        self._skews: List[_GrayWindow] = []

    def register(self, process: Process) -> Process:
        """Add a process to the network."""
        if process.pid in self.processes:
            raise ValueError(f"duplicate process id {process.pid!r}")
        self.processes[process.pid] = process
        process.attach(self)
        return process

    # -- substrate port (shared with repro.net.transport.AsyncTransport) --

    @property
    def now(self) -> float:
        """The substrate clock: virtual time here, wall-clock on TCP."""
        return self.sim.now

    def call_later(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` after ``delay`` substrate-time units.

        Returns a cancellable timer handle — the port method behind
        :meth:`Process.set_timer` and :meth:`Process.call_soon`.
        """
        return Timer(self.sim, delay, callback)

    def _sample_delay(self) -> float:
        if callable(self.delay):
            return self.delay(self.sim.rng) * self.delay_scale
        return float(self.delay) * self.delay_scale

    @staticmethod
    def _membership(group) -> Callable[[Hashable], bool]:
        if group is None or callable(group):
            return group
        members = frozenset(group)
        return members.__contains__

    def partition(
        self,
        group_a,
        group_b,
        start: float,
        end: float,
        symmetric: bool = True,
    ) -> None:
        """Cut all links between two process groups during [start, end).

        Messages *sent* while the cut is active are dropped (messages
        already in flight when the cut begins still arrive — a partition
        severs links, it does not destroy packets).  The network heals
        automatically at ``end``.

        Each group is a collection of pids or a membership predicate
        ``pid -> bool``; ``group_b = None`` cuts ``group_a`` off from
        everyone else, including processes registered after the cut is
        scheduled.  With ``symmetric=False`` only group-a→group-b
        messages are blocked (a one-way link failure); group-b can still
        reach group-a.
        """
        if end <= start:
            raise ValueError("partition must end after it starts")
        if group_a is None:
            raise ValueError("group_a must name at least one side of the cut")
        self._partitions.append(
            _Partition(
                self._membership(group_a),
                self._membership(group_b),
                start,
                end,
                symmetric,
            )
        )

    def _partitioned(self, src: Hashable, dst: Hashable) -> bool:
        now = self.sim.now
        return any(p.blocks(src, dst, now) for p in self._partitions)

    # -- gray failures: slow nodes, timer drift, clock skew ------------

    def slow_node(self, group, factor: float, start: float, end: float) -> None:
        """Multiply every message delay touching ``group`` by ``factor``
        during [start, end) — the classic gray failure of one replica
        that is alive, correct, and achingly slow.  Overlapping windows
        compose multiplicatively."""
        if end <= start:
            raise ValueError("slow-node window must end after it starts")
        if factor <= 0:
            raise ValueError("slow-node factor must be positive")
        self._slow.append(
            _GrayWindow(self._membership(group), start, end, factor)
        )

    def timer_drift(self, group, rate: float, start: float, end: float) -> None:
        """Stretch (rate > 1) or compress (rate < 1) the timers of
        ``group`` during [start, end): a drifting local tick makes
        retransmit and election timers fire late or early relative to
        the rest of the cluster."""
        if end <= start:
            raise ValueError("timer-drift window must end after it starts")
        if rate <= 0:
            raise ValueError("timer-drift rate must be positive")
        self._drifts.append(
            _GrayWindow(self._membership(group), start, end, rate)
        )

    def clock_skew(self, group, offset: float, start: float, end: float) -> None:
        """Offset the *local* clock reading of ``group`` by ``offset``
        during [start, end).  Delivery order is untouched — skew lies to
        the process about what time it is (:meth:`local_now`), not to
        the scheduler."""
        if end <= start:
            raise ValueError("clock-skew window must end after it starts")
        self._skews.append(
            _GrayWindow(self._membership(group), start, end, offset)
        )

    def slow_factor(self, pid: Hashable) -> float:
        """The composed slow-node delay factor applying to ``pid`` now."""
        if not self._slow:
            return 1.0
        now = self.sim.now
        factor = 1.0
        for window in self._slow:
            if window.applies(pid, now):
                factor *= window.value
        return factor

    def timer_scale(self, pid: Hashable) -> float:
        """The composed timer-rate drift of ``pid`` now (1.0 = honest).

        Part of the substrate port: :meth:`Process.set_timer` multiplies
        every armed delay by this, on whichever substrate hosts it.
        """
        if not self._drifts:
            return 1.0
        now = self.sim.now
        rate = 1.0
        for window in self._drifts:
            if window.applies(pid, now):
                rate *= window.value
        return rate

    def local_now(self, pid: Hashable) -> float:
        """What ``pid``'s wall clock claims: ``now`` plus active skews."""
        now = self.sim.now
        if not self._skews:
            return now
        skewed = now
        for window in self._skews:
            if window.applies(pid, now):
                skewed += window.value
        return skewed

    @property
    def effective_loss_rate(self) -> float:
        """Baseline loss plus any active burst windows, clamped to 1."""
        return min(1.0, self.loss_rate + self.extra_loss)

    @property
    def effective_duplicate_rate(self) -> float:
        """Baseline duplication plus any active storm windows."""
        return min(1.0, self.duplicate_rate + self.extra_duplicate)

    def send(self, src: Hashable, dst: Hashable, message: Any) -> None:
        """Queue a message for asynchronous delivery.

        A send blocked by a cut counts once in ``stats.partitioned`` no
        matter how many scheduled partitions overlap on the same link.
        """
        self.stats.sent += 1
        link = self.stats.link(src, dst)
        link.sent += 1
        if self._partitioned(src, dst):
            self.stats.partitioned += 1
            link.partitioned += 1
            return
        loss = self.effective_loss_rate
        if loss and self.sim.rng.random() < loss:
            self.stats.lost += 1
            link.lost += 1
            return
        self._deliver_later(src, dst, message)
        duplicate = self.effective_duplicate_rate
        if duplicate and self.sim.rng.random() < duplicate:
            self.stats.duplicated += 1
            link.duplicated += 1
            self._deliver_later(src, dst, message)

    def _deliver_later(self, src: Hashable, dst: Hashable, message: Any) -> None:
        delay = self._sample_delay()
        if self._slow:
            # a slow node drags every link it touches: its processing
            # and its NIC are one shared bottleneck, so take the worse
            # of the two endpoints' factors
            delay *= max(self.slow_factor(src), self.slow_factor(dst))

        def deliver() -> None:
            process = self.processes.get(dst)
            if process is None or process.crashed:
                self.stats.dropped_crashed += 1
                return
            self.stats.delivered += 1
            process.on_message(src, message)

        self.sim.schedule(delay, deliver)

    def _registered(self, pid: Hashable, what: str) -> None:
        if pid not in self.processes:
            raise ValueError(
                f"cannot schedule {what} of unregistered process {pid!r}"
            )

    def crash_at(self, pid: Hashable, time: float) -> None:
        """Schedule a crash of process ``pid`` at absolute virtual time.

        ``pid`` must already be registered — a typo fails here, at the
        call site, not later inside an anonymous event callback.
        """
        self._registered(pid, "a crash")
        delay = max(0.0, time - self.sim.now)
        self.sim.schedule(delay, lambda: self.processes[pid].crash())

    def recover_at(self, pid: Hashable, time: float) -> None:
        """Schedule a recovery of process ``pid`` at absolute virtual
        time (a no-op if the process is not crashed when it fires)."""
        self._registered(pid, "a recovery")
        delay = max(0.0, time - self.sim.now)
        self.sim.schedule(delay, lambda: self.processes[pid].recover())
