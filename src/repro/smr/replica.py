"""Speculative State Machine Replication over the composed consensus.

Section 6 motivates the framework with SMR: "The speculative approach to
SMR protocols has been shown to yield some of the most efficient SMR
protocols in practice."  This module builds a multi-slot replicated log
where **each slot is an independent instance of the Section 2 composed
consensus** (Quorum fast path + Paxos backup) — the same
``[quorum(n), backup(n)]`` phase chain (:mod:`repro.mp.phases`), hosted
on the slot's own pids and walked once per decree:

* a client submits a command, proposing it for the first log slot it does
  not know to be decided;
* the slot's consensus instance decides one command (two message delays
  via Quorum when the slot is uncontended and fault-free, via Backup
  otherwise);
* a client whose command lost the slot applies the winner and retries on
  the next slot — so the log has no gaps among slots any client has
  committed past;
* the growing log *is* a universal object (Section 6): responses for an
  arbitrary ADT are derived by applying its output function to the log
  prefix ending at the committed command
  (:class:`repro.smr.universal.UniversalFrontend`).

Per-command metrics (slots attempted, fast/slow path of the deciding
slot, virtual-time latency) feed experiment E9.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from ..core.actions import Invocation, Response
from ..core.adt import ADT
from ..core.traces import Trace
from ..mp.backoff import BackoffPolicy
from ..mp.phases import Phase, backup, host, quorum, walk
from ..mp.sim import Network, Process, Simulator
from .universal import UniversalFrontend


@dataclass
class CommandOutcome:
    """Metrics and result for one submitted command."""

    client: Hashable
    command: Hashable
    start: float
    slot: Optional[int] = None
    commit_time: Optional[float] = None
    attempts: int = 0
    switched_slots: int = 0
    response: Optional[Hashable] = None
    gave_up: bool = False
    give_up_time: Optional[float] = None

    @property
    def latency(self) -> Optional[float]:
        """Virtual-time latency from submission to commit."""
        if self.commit_time is None:
            return None
        return self.commit_time - self.start

    @property
    def path(self) -> str:
        """Fast iff no slot along the way needed the Backup phase."""
        if self.commit_time is None:
            return "gave_up" if self.gave_up else "none"
        return "slow" if self.switched_slots else "fast"


class SpeculativeSMR:
    """A replicated log: one composed-consensus instance per slot."""

    def __init__(
        self,
        n_servers: int = 3,
        seed: int = 0,
        delay: Any = 1.0,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, delay=delay)
        self.n_servers = n_servers
        self.backoff = backoff
        self.crashed_servers: Set[int] = set()
        #: slot -> its phase chain, hosted on the slot's own pids
        self.slots: Dict[int, List[Phase]] = {}
        self.log: Dict[int, Hashable] = {}
        self.outcomes: List[CommandOutcome] = []
        self._uid = 0
        #: which physical server hosts each slot role, every slot so far
        self._server_of: Dict[Hashable, int] = {}
        self.on_commit: Optional[Callable[[CommandOutcome], None]] = None

    def first_live_server(self) -> int:
        """Index of the lowest-ranked non-crashed server."""
        for i in range(self.n_servers):
            if i not in self.crashed_servers:
                return i
        return 0

    def _roles_of(self, index: int) -> List[Process]:
        return [
            self.network.processes[pid]
            for pid, server in self._server_of.items()
            if server == index
        ]

    def crash_server(self, index: int, at: float = 0.0) -> None:
        """Crash a physical server: all its roles in all current and
        future slots."""

        def crash() -> None:
            self.crashed_servers.add(index)
            for role in self._roles_of(index):
                role.crash()

        self.network.call_later(max(0.0, at - self.network.now), crash)

    def recover_server(self, index: int, at: float = 0.0) -> None:
        """Restart a physical server: its roles in every current slot
        recover with their durable state (the acceptors' Paxos triples,
        the quorum servers' sticky acceptances), and slots created from
        now on host live roles again."""

        def recover() -> None:
            self.crashed_servers.discard(index)
            for role in self._roles_of(index):
                role.recover()

        self.network.call_later(max(0.0, at - self.network.now), recover)

    def server_membership(
        self, indices: Iterable[int]
    ) -> Callable[[Hashable], bool]:
        """A pid predicate for "any role of any server in ``indices``",
        in any slot — including slots created after the call, which is
        what lets the nemesis arm a partition before the run."""
        wanted = frozenset(indices)
        return lambda pid: self._server_of.get(pid) in wanted

    def _ensure_slot(self, slot: int) -> List[Phase]:
        """The slot's phase chain — Quorum then Backup, on the slot's
        own pids — hosted on first use.  A crashed physical server
        contributes no live roles to new slots either."""
        if slot not in self.slots:
            phases = self.slots[slot] = [
                quorum(self.n_servers, scope=(slot,)),
                # a slot cannot know which clients will switch into it:
                # each is wired as a learner when it enters
                backup(
                    self.n_servers,
                    expected_clients=0,
                    pre_preparer=self.first_live_server(),
                    scope=(slot,),
                ),
            ]
            servers = host(
                self.network, phases, self.n_servers, self.crashed_servers
            )
            for index, roles in enumerate(servers):
                for role in roles:
                    self._server_of[role.pid] = index
        return self.slots[slot]

    def _decree(
        self,
        slot: int,
        outcome: CommandOutcome,
        settled: Callable[[Hashable], None],
    ) -> None:
        """Propose ``outcome``'s command at ``slot``, through the slot's
        phase chain.

        ``settled(winner)`` fires once the slot is decided — with the
        slot's winner (``log[slot]``), which need not be the command.  If
        Backup exhausts its retry budget the command is marked
        ``gave_up`` instead: the slot is unreachable, and the command
        reports failure rather than hanging silently.
        """
        phases = self._ensure_slot(slot)
        outcome.attempts += 1
        self._uid += 1

        def decided(position: int, winner: Hashable) -> None:
            settled(self.log.setdefault(slot, winner))

        def switched(position: int, switch_value: Hashable) -> None:
            outcome.switched_slots += 1

        def gave_up() -> None:
            outcome.gave_up = True
            outcome.give_up_time = self.network.now

        walk(
            self.network,
            phases,
            self._uid,
            outcome.command,
            self.backoff,
            decided,
            switched,
            gave_up,
        )

    def _commit(self, outcome: CommandOutcome, slot: int) -> None:
        outcome.slot = slot
        outcome.commit_time = self.network.now
        if self.on_commit is not None:
            self.on_commit(outcome)

    def submit(
        self, client: Hashable, command: Hashable, at: float = 0.0
    ) -> CommandOutcome:
        """Schedule ``client`` to replicate ``command`` at time ``at``.

        The client probes one slot at a time.  If a slot stays
        unreachable within the retry budget the command reports
        ``gave_up`` rather than probing further slots against the same
        dead cluster.
        """
        outcome = CommandOutcome(client=client, command=command, start=at)
        self.outcomes.append(outcome)

        def try_slot(slot: int) -> None:
            if slot in self.log:
                # Known decided: skip forward without a consensus round.
                advance(slot, self.log[slot])
                return
            self._decree(slot, outcome, lambda winner: advance(slot, winner))

        def advance(slot: int, winner: Hashable) -> None:
            if outcome.commit_time is not None:
                return
            if winner == command:
                self._commit(outcome, slot)
            else:
                try_slot(slot + 1)

        def start() -> None:
            # Stamp the true start instant: `at` is relative to the call
            # time when submissions happen mid-simulation (e.g. queued
            # client operations of the KV store).
            outcome.start = self.network.now
            try_slot(self._first_open_slot())

        self.network.call_later(at, start)
        return outcome

    def run(self, until: Optional[float] = None, max_events: int = 500000) -> None:
        """Drive the simulation to quiescence (or the given horizon)."""
        self.sim.run(until=until, max_events=max_events)

    def _first_open_slot(self) -> int:
        """The length of the contiguous decided prefix of the log."""
        slot = 0
        while slot in self.log:
            slot += 1
        return slot

    def committed_log(self) -> List[Hashable]:
        """The decided commands of the contiguous log prefix, in order."""
        return [self.log[slot] for slot in range(self._first_open_slot())]


@dataclass
class OperationResult:
    """A completed operation with its derived response."""

    client: Hashable
    command: Tuple
    response: Hashable
    outcome: CommandOutcome


class ReplicatedObject:
    """Any ADT on :class:`SpeculativeSMR`: Section 6's recipe, once.

    Each operation is tagged with a unique sequence number before
    replication, so identical commands from different clients occupy
    distinct log slots; its response strips the tags and applies the
    ADT's output function to the log prefix ending at the committed
    command (:class:`~repro.smr.universal.UniversalFrontend`).  Clients
    are sequential (the paper's client model): an operation scheduled
    while the client's previous one is still in flight is queued and
    starts when the response arrives.  The KV store and the lock service
    are this class with named operations.
    """

    def __init__(self, adt: ADT, smr: SpeculativeSMR) -> None:
        self.smr = smr
        smr.on_commit = self._on_commit
        self.frontend = UniversalFrontend(adt)
        self.results: List[OperationResult] = []
        self._seq = 0
        self._pending: Dict[Tuple, Tuple[Hashable, Tuple]] = {}
        self._events: List[Tuple[str, Hashable, Tuple, Hashable]] = []
        self._busy: Dict[Hashable, bool] = {}
        self._queues: Dict[Hashable, List[Tuple]] = {}

    def invoke(
        self, client: Hashable, command: Tuple, at: float = 0.0
    ) -> None:
        """Schedule ``client`` to issue ``command`` at time ``at``."""

        def arrive() -> None:
            if self._busy.get(client):
                self._queues.setdefault(client, []).append(command)
            else:
                self._start(client, command)

        self.smr.sim.schedule(at, arrive)

    def _start(self, client: Hashable, command: Tuple) -> None:
        self._busy[client] = True
        self._seq += 1
        tagged = command + (("seq", self._seq),)
        self._pending[tagged] = (client, command)
        self._events.append(("inv", client, command, None))
        self.smr.submit(client, tagged, at=0.0)

    def _on_commit(self, outcome: CommandOutcome) -> None:
        client, command = self._pending[outcome.command]
        # The log prefix up to and including the committed slot is the
        # universal-object history; applying the ADT yields the response.
        history = tuple(
            c[:-1]
            for slot, c in sorted(self.smr.log.items())
            if slot <= outcome.slot
        )
        response = self.frontend.respond(history)
        self.results.append(
            OperationResult(client, command, response, outcome)
        )
        self._events.append(("res", client, command, response))
        self._busy[client] = False
        queued = self._queues.get(client)
        if queued:
            self._start(client, queued.pop(0))

    def run(self, until: Optional[float] = None) -> None:
        """Drive the underlying simulation."""
        self.smr.run(until=until)

    def interface_trace(self) -> Trace:
        """The client-level trace of invocations and responses.

        Suitable for checking against ``Lin[adt]``: an object built on a
        linearizable universal object must itself be linearizable.
        """
        return Trace(
            Invocation(client, 1, command)
            if kind == "inv"
            else Response(client, 1, command, response)
            for kind, client, command, response in self._events
        )

    def adt_state(self) -> Hashable:
        """The ADT folded over the committed log prefix.  A verification
        helper: it answers no client, and the simulator's log carries
        every operation once (unique tags, no retry path)."""
        history = tuple(c[:-1] for c in self.smr.committed_log())
        return self.frontend.adt.run(history)[0]  # repro: disable=RD07
