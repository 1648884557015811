"""The composed speculative consensus of Section 2 — Quorum + Backup.

"By combining Quorum and Backup we obtain a system that is optimized for
contention-free and fault-free loads while still remaining correct in all
other conditions under which the Backup is correct."

:class:`PhasedConsensus` is the one simulated deployment: a chain of
speculation phases (:mod:`repro.mp.phases`) hosted on ``n_servers``
physical servers and walked by every client.

* each physical server hosts whatever roles the phases place on it —
  for Quorum + Backup a Quorum server, a Paxos acceptor and a
  (potential) Paxos coordinator — which crash and recover together;
* every interface event is recorded as a phase-tagged action
  (invocations and responses tagged by phase, the switch out of phase
  ``k`` tagged ``k + 1``), so the recorded trace is directly checkable
  against ``SLin`` / ``Lin`` and the invariants I1-I5;
* per-client latency (virtual time = message delays under the default
  unit-delay network) and the taken path (fast/slow) feed the benchmark
  harness;
* the deployment is its own nemesis target: a
  :class:`~repro.faults.nemesis.FaultSchedule` injects into it directly.

:class:`ComposedConsensus` is ``[quorum(n), backup(n)]``.  Two reference
deployments, :class:`QuorumOnly` (``[quorum(n)]``) and
:class:`PaxosOnly` (``[paxos(n)]``), expose each phase in isolation for
the latency baselines of the paper's headline claim (2 vs 3 message
delays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
)

from ..core.actions import sig_phase
from ..core.adt import decide, propose
from ..core.recording import TraceRecorder
from ..core.traces import Trace
from .backoff import BackoffPolicy
from .paxos import PaxosAcceptor, PaxosCoordinator
from .phases import Phase, backup, host, paxos, quorum, walk
from .sim import Network, NetworkStats, Simulator


@dataclass
class ClientOutcome:
    """Per-proposal record used by tests and benchmarks."""

    client: Hashable
    value: Hashable
    start: float
    decided_value: Optional[Hashable] = None
    decide_time: Optional[float] = None
    #: 1-based number of the phase that decided
    decided_phase: Optional[int] = None
    #: one switch value per phase the client left, in order
    switch_values: List[Hashable] = field(default_factory=list)
    #: when the client left its first phase
    switch_time: Optional[float] = None
    gave_up: bool = False
    give_up_time: Optional[float] = None

    @property
    def switched(self) -> bool:
        """Whether the client left its first phase."""
        return bool(self.switch_values)

    @property
    def switch_value(self) -> Optional[Hashable]:
        """The value the client left its first phase with."""
        return self.switch_values[0] if self.switch_values else None

    @property
    def latency(self) -> Optional[float]:
        """Virtual-time latency (= message delays with a unit network)."""
        if self.decide_time is None:
            return None
        return self.decide_time - self.start

    @property
    def path(self) -> str:
        """'fast' (decided in the first phase), 'slow' (in a later one),
        'gave_up' (retry budget exhausted) or 'none' (still pending)."""
        if self.decided_value is None:
            return "gave_up" if self.gave_up else "none"
        return "slow" if self.switched else "fast"


class PhasedConsensus:
    """Consensus deployed as a chain of speculation phases.

    ``phases`` span the phase interval ``(1, len(phases) + 1)``.  Each
    keeps its own server state (separate process ids), exactly as if
    the phases had been deployed independently — the point of
    intra-object composition.  A client switched out of the last phase
    stays undecided (there is nothing left to serve it).

    ``expected_clients`` bounds the number of proposals when a phase
    wires its learners up front (see :func:`~repro.mp.phases.backup`).
    """

    def __init__(
        self,
        phases: Sequence[Phase],
        n_servers: int = 3,
        seed: int = 0,
        delay: Any = 1.0,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        backoff: Optional[BackoffPolicy] = None,
        expected_clients: Optional[int] = None,
    ) -> None:
        self.sim = Simulator(seed=seed)
        self.network = Network(
            self.sim,
            delay=delay,
            loss_rate=loss_rate,
            duplicate_rate=duplicate_rate,
        )
        self.phases = list(phases)
        self.n_servers = n_servers
        self.backoff = backoff
        self.expected_clients = expected_clients
        self.outcomes: Dict[Hashable, ClientOutcome] = {}
        self._proposals = 0
        self.recorder = TraceRecorder(phase_bounds=(1, len(self.phases) + 1))
        #: the roles of each physical server, across all phases
        self.servers = host(self.network, self.phases, n_servers)

    def hosted(self, kind: type) -> list:
        """Every hosted role of class ``kind``, in server order."""
        return [
            role
            for roles in self.servers
            for role in roles
            if isinstance(role, kind)
        ]

    def crash_server(self, index: int, at: float) -> None:
        """Crash every role of physical server ``index`` at ``at``."""
        for role in self.servers[index]:
            self.network.crash_at(role.pid, at)

    def recover_server(self, index: int, at: float) -> None:
        """Restart every role of server ``index`` at ``at``.

        Acceptors and quorum servers come back with their durable
        state; a coordinator restarts blank (diskless).
        """
        for role in self.servers[index]:
            self.network.recover_at(role.pid, at)

    def server_membership(
        self, indices: Iterable[int]
    ) -> Callable[[Hashable], bool]:
        """A pid predicate: any role of any server in ``indices``."""
        pids = frozenset(
            role.pid for i in indices for role in self.servers[i]
        )
        return pids.__contains__

    def propose(
        self, client: Hashable, value: Hashable, at: float = 0.0
    ) -> ClientOutcome:
        """Schedule ``client`` to propose ``value`` at virtual time ``at``."""
        index = self._proposals
        limit = self.expected_clients
        if limit is not None and index >= limit:
            raise ValueError(
                "more proposals than expected_clients; raise the limit"
            )
        self._proposals += 1
        outcome = ClientOutcome(client=client, value=value, start=at)
        self.outcomes[client] = outcome
        input = propose(value)

        def decided(position: int, decision: Hashable) -> None:
            outcome.decided_value = decision
            outcome.decide_time = self.network.now
            outcome.decided_phase = position + 1
            self.recorder.respond(
                client, position + 1, input, decide(decision)
            )

        def switched(position: int, switch_value: Hashable) -> None:
            if not outcome.switch_values:
                outcome.switch_time = self.network.now
            outcome.switch_values.append(switch_value)
            # A switch is one action shared by two phases; out of the
            # last phase it is an abort only, and the invocation closes.
            last = position + 1 == len(self.phases)
            record = self.recorder.switch_out if last else self.recorder.switch
            record(client, position + 2, input, switch_value)

        def gave_up() -> None:
            # Retry budget exhausted: the invocation stays pending in the
            # trace (which linearizability permits) but the outcome says
            # so explicitly instead of hanging silently.
            outcome.gave_up = True
            outcome.give_up_time = self.network.now

        def start() -> None:
            self.recorder.invoke(client, 1, input)
            walk(
                self.network,
                self.phases,
                index,
                value,
                self.backoff,
                decided,
                switched,
                gave_up,
            )

        self.network.call_later(at, start)
        return outcome

    def run(
        self, until: Optional[float] = None, max_events: int = 200000
    ) -> None:
        """Drive the simulation to quiescence (or the given horizon)."""
        self.sim.run(until=until, max_events=max_events)

    def trace(self) -> Trace:
        """The recorded interface trace."""
        return self.recorder.trace()

    def phase_trace(self, m: int, n: int) -> Trace:
        """Projection onto the ``(m, n)`` phase signature."""
        return self.trace().project(sig_phase(m, n).contains)

    def first_phase_trace(self) -> Trace:
        """Projection onto the (1,2) phase: the first phase's own trace."""
        return self.phase_trace(1, 2)

    def second_phase_trace(self) -> Trace:
        """Projection onto the (2,3) phase: the second phase's own trace."""
        return self.phase_trace(2, 3)

    @property
    def stats(self) -> NetworkStats:
        """Network counters (sent/delivered/lost/...)."""
        return self.network.stats


class ComposedConsensus(PhasedConsensus):
    """Quorum composed with Backup: the paper's optimized consensus."""

    def __init__(
        self,
        n_servers: int = 3,
        seed: int = 0,
        delay: Any = 1.0,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        quorum_timeout: float = 6.0,
        expected_clients: int = 8,
        backoff: Optional[BackoffPolicy] = None,
        acceptor_cls: type = PaxosAcceptor,
    ) -> None:
        super().__init__(
            [
                quorum(n_servers, timeout=quorum_timeout),
                backup(n_servers, expected_clients, acceptor_cls=acceptor_cls),
            ],
            n_servers,
            seed,
            delay,
            loss_rate,
            duplicate_rate,
            backoff,
            expected_clients,
        )
        self.coordinators = self.hosted(PaxosCoordinator)


class QuorumOnly(PhasedConsensus):
    """The Quorum phase deployed alone (fast-path baseline).

    Clients that would switch simply report the switch; no Backup runs.
    """

    def __init__(
        self,
        n_servers: int = 3,
        seed: int = 0,
        delay: Any = 1.0,
        loss_rate: float = 0.0,
        quorum_timeout: float = 6.0,
    ) -> None:
        super().__init__(
            [quorum(n_servers, timeout=quorum_timeout)],
            n_servers,
            seed,
            delay,
            loss_rate,
        )
        self.quorum_timeout = quorum_timeout


class PaxosOnly(PhasedConsensus):
    """Plain Paxos consensus (the non-speculative baseline).

    Clients submit proposals directly to the coordinated Paxos; with the
    first coordinator pre-prepared this exhibits the paper's 3-message-
    delay minimum latency.
    """

    def __init__(
        self,
        n_servers: int = 3,
        seed: int = 0,
        delay: Any = 1.0,
        loss_rate: float = 0.0,
        pre_prepare: bool = True,
        expected_clients: int = 8,
    ) -> None:
        super().__init__(
            [paxos(n_servers, expected_clients, pre_prepare)],
            n_servers,
            seed,
            delay,
            loss_rate,
            expected_clients=expected_clients,
        )
        self.acceptors = self.hosted(PaxosAcceptor)
