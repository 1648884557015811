"""Single-decree Paxos — the algorithm behind the Backup phase (§2.1).

The paper uses "Lamport's Paxos algorithm where clients have the role of
proposers and learners, while servers have the role of acceptors".  This
module implements the full protocol:

* **Acceptors** (:class:`PaxosAcceptor`) keep the classical
  ``(promised, accepted_ballot, accepted_value)`` state and answer
  prepare/accept requests; on accepting they notify the registered
  learners directly, which is what gives Paxos its minimum latency of
  **three** message delays (request → accept → accepted) when a
  coordinator already holds a promise quorum.
* **Coordinators** (:class:`PaxosCoordinator`) are server-side proposers
  ranked by id.  Ballot ``b`` belongs to coordinator ``b mod n``.  A
  coordinator runs phase 1 (prepare/promise), picks the value of the
  highest-ballot acceptance reported in its promise quorum (or the first
  client request it queued), and drives phase 2 (accept/accepted).  With
  ``pre_prepare`` a coordinator holds its promise quorum before any
  request arrives — the standard steady-state optimization the paper's
  latency claim refers to.  The owner of ballot 0 holds it for free:
  no acceptor can have voted below the lowest ballot, so phase 1 of
  ballot 0 has nothing to learn and is never run.  Every other ballot
  pre-prepares with a real prepare/promise round.
* **Clients** (:class:`PaxosClient`) submit a value to the coordinator
  they believe is in charge, retrying round-robin on timeout, and decide
  as learners when a majority of acceptors report the same
  ``(ballot, value)`` acceptance (or when told an already-made decision).

Safety (agreement and validity, invariants I4/I5) holds under any number
of client crashes and a minority of server crashes; the test-suite
exercises crash schedules, message loss and duplication.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .backoff import BackoffPolicy, _unit_interval
from .sim import Process, Timer


class PaxosAcceptor(Process):
    """Acceptor role: the only durable memory of the protocol.

    "Durable" is literal: ``(promised, accepted_ballot, accepted_value)``
    survives a crash-recover cycle through the :class:`Process` durable
    hooks, which is exactly the stable-storage write classical Paxos
    requires before an acceptor answers.  An acceptor that *forgets* this
    state on recovery breaks agreement — see
    :class:`repro.faults.mutants.AmnesiacAcceptor`, the intentional bug
    the nemesis campaign exists to catch.
    """

    def __init__(self, pid: Hashable) -> None:
        super().__init__(pid)
        self.promised: int = -1
        self.accepted_ballot: int = -1
        self.accepted_value: Optional[Hashable] = None
        self.learners: Tuple[Hashable, ...] = ()

    def durable_state(self) -> Tuple[int, int, Optional[Hashable]]:
        """The classical acceptor triple, as written to stable storage."""
        return (self.promised, self.accepted_ballot, self.accepted_value)

    def on_recover(self, durable) -> None:
        """Restore the stable-storage triple (learner wiring is config,
        not state, and stays)."""
        self.promised, self.accepted_ballot, self.accepted_value = durable

    def register_learners(self, learners: Sequence[Hashable]) -> None:
        """Set the processes notified on acceptance (clients + servers)."""
        self.learners = tuple(learners)

    def on_message(self, src: Hashable, message: Any) -> None:
        kind = message[0]
        if kind == "prepare":
            _, ballot = message
            if ballot > self.promised:
                self.promised = ballot
                self.send(
                    src,
                    (
                        "promise",
                        ballot,
                        self.accepted_ballot,
                        self.accepted_value,
                    ),
                )
            else:
                self.send(src, ("nack", ballot, self.promised))
        elif kind == "accept":
            _, ballot, value = message
            if ballot >= self.promised:
                self.promised = ballot
                self.accepted_ballot = ballot
                self.accepted_value = value
                announcement = ("accepted", ballot, value)
                for learner in self.learners:
                    self.send(learner, announcement)
                if src not in self.learners:
                    self.send(src, announcement)
            else:
                self.send(src, ("nack", ballot, self.promised))


class PaxosCoordinator(Process):
    """Server-side proposer; ballot ``b`` is owned by coordinator
    ``b mod n_coordinators``."""

    def __init__(
        self,
        pid: Hashable,
        rank: int,
        n_coordinators: int,
        acceptors: Sequence[Hashable],
        pre_prepare: bool = False,
        retry_delay: float = 8.0,
        first_round: int = 0,
    ) -> None:
        super().__init__(pid)
        self.rank = rank
        self.n_coordinators = n_coordinators
        self.acceptors = tuple(acceptors)
        self.retry_delay = retry_delay
        #: A ballot must never carry two values, also across restarts of
        #: its diskless owner.  Re-preparing a ballot is safe (acceptors
        #: that saw it nack, and they intersect every quorum); ballot 0
        #: is claimed below without a prepare, so only a first
        #: incarnation may start at round 0: ``on_recover`` bumps it,
        #: the TCP runtime passes the incarnation its WAL recorded.
        self.round = first_round
        self.ballot: Optional[int] = None
        self.promises: Dict[Hashable, Tuple[int, Optional[Hashable]]] = {}
        self.has_quorum = False
        self.phase2_sent = False
        self.pending_requests: List[Hashable] = []
        self.accepted_votes: Dict[Tuple[int, Hashable], Set[Hashable]] = {}
        self.decision: Optional[Hashable] = None
        self._pre_prepare = pre_prepare
        self._retry_timer: Optional[Timer] = None
        if pre_prepare and self._own_ballot() == 0:
            # Phase 1 of ballot 0 is vacuous (it asks what was accepted
            # below the lowest ballot), so its owner starts with the
            # empty promise quorum in hand: no message, no timer, and no
            # promise record — ``accept(0, v)`` passes ``ballot >=
            # promised`` exactly when no higher ballot was promised.
            self.ballot = 0
            self.has_quorum = True

    def attach(self, network) -> None:  # noqa: D102 - inherited behaviour
        super().attach(network)
        if self._pre_prepare and not self.has_quorum:
            self.call_soon(self._start_pre_prepare)

    def _start_pre_prepare(self) -> None:
        if self.ballot is None:  # else a request got here first
            self.start_prepare()

    def adopt_decision(self, value: Hashable) -> None:
        """Install an externally learned decision.

        Decisions are stable, so adopting one that *was* made is always
        safe: the coordinator answers requests with it and never
        proposes again.  The networked runtime calls this when a
        restarting node replays its WAL's decided log, which both
        spares recovered slots a redundant Paxos round and keeps a
        pre-preparing coordinator from re-proposing on settled slots.
        """
        if self.decision is not None:
            return
        self.decision = value
        self.pending_requests = []
        if self._retry_timer is not None:
            self._retry_timer.cancel()
            self._retry_timer = None

    def on_recover(self, durable) -> None:
        """A coordinator is diskless: a restart clears every in-flight
        proposal attempt.  Queued requests and learned decisions were in
        volatile memory, so they are gone; clients re-drive the protocol
        through their own retries."""
        self.ballot = None
        self.promises = {}
        self.has_quorum = False
        self.phase2_sent = False
        self.pending_requests = []
        self.accepted_votes = {}
        self.decision = None
        self.round += 1
        self._retry_timer = None

    @property
    def majority(self) -> int:
        """Quorum size over the acceptors."""
        return len(self.acceptors) // 2 + 1

    def _own_ballot(self) -> int:
        return self.round * self.n_coordinators + self.rank

    def _arm_retry(self, delay: float, callback: Callable[[], None]) -> None:
        """Keep exactly one outstanding retry timer.

        Stacked timers are a livelock machine: every extra timer fires a
        fresh prepare that invalidates the in-flight promises of the
        previous one, so under a loss burst the retry frequency ratchets
        up until no ballot ever survives a round-trip.
        """
        if self._retry_timer is not None:
            self._retry_timer.cancel()
        self._retry_timer = self.set_timer(delay, callback)

    def start_prepare(self) -> None:
        """Begin phase 1 with a fresh ballot this coordinator owns."""
        if self.crashed or self.decision is not None:
            return
        self.ballot = self._own_ballot()
        self.promises = {}
        self.has_quorum = False
        self.phase2_sent = False
        self.broadcast(self.acceptors, ("prepare", self.ballot))
        self._arm_retry(self.retry_delay, self._maybe_retry)

    def _maybe_retry(self) -> None:
        if (
            self.decision is None
            and self.pending_requests
            and not self.phase2_sent
        ):
            self.round += 1
            self.start_prepare()

    def _maybe_phase2(self) -> None:
        if (
            not self.has_quorum
            or self.phase2_sent
            or self.decision is not None
        ):
            return
        # Pick the value of the highest accepted ballot among promises,
        # falling back to the first queued request.
        best: Tuple[int, Optional[Hashable]] = (-1, None)
        for accepted_ballot, accepted_value in self.promises.values():
            if accepted_ballot > best[0]:
                best = (accepted_ballot, accepted_value)
        if best[1] is not None:
            value = best[1]
        elif self.pending_requests:
            value = self.pending_requests[0]
        else:
            return  # nothing to propose yet; wait for a request
        self.phase2_sent = True
        self.broadcast(self.acceptors, ("accept", self.ballot, value))
        self._arm_retry(self.retry_delay, self._phase2_retry)

    def _phase2_retry(self) -> None:
        if self.decision is None and self.pending_requests:
            self.round += 1
            self.start_prepare()

    def on_message(self, src: Hashable, message: Any) -> None:
        kind = message[0]
        if kind == "request":
            _, value = message
            if self.decision is not None:
                self.send(src, ("decision", self.decision))
                return
            self.pending_requests.append(value)
            if self.ballot is None:
                self.start_prepare()
            else:
                self._maybe_phase2()
        elif kind == "promise":
            _, ballot, accepted_ballot, accepted_value = message
            if ballot != self.ballot:
                return
            self.promises[src] = (accepted_ballot, accepted_value)
            if len(self.promises) >= self.majority:
                self.has_quorum = True
                self._maybe_phase2()
        elif kind == "nack":
            _, ballot, promised = message
            if (
                ballot == self.ballot
                and self.pending_requests
                and self.decision is None
            ):
                # A higher ballot is active; adopt a round beyond it, but
                # re-prepare after a per-coordinator deterministic stagger
                # rather than immediately — two coordinators nacking each
                # other in lock-step otherwise duel forever.
                self.round = max(
                    self.round, promised // self.n_coordinators + 1
                )
                stagger = self.retry_delay * (
                    0.5 + _unit_interval(self.pid, promised)
                )
                self._arm_retry(stagger, self.start_prepare)
        elif kind == "accepted":
            _, ballot, value = message
            votes = self.accepted_votes.setdefault((ballot, value), set())
            votes.add(src)
            if len(votes) >= self.majority and self.decision is None:
                self.decision = value


class PaxosClient(Process):
    """Proposer/learner role played by clients (the paper's casting).

    ``submit(value)`` sends the value to the currently believed
    coordinator and retries round-robin on timeout; ``on_decide`` fires
    exactly once, when a majority of acceptors report the same acceptance
    or a coordinator relays an existing decision.

    Retries are paced by a :class:`~repro.mp.backoff.BackoffPolicy`
    (attempt ``k`` waits ``backoff.delay(k, key=pid)``).  Passing only
    ``retry_delay`` yields the degenerate fixed-delay policy of the seed
    code.  A policy with a finite ``max_retries`` turns an unreachable
    system into an explicit outcome: ``gave_up`` is set and
    ``on_give_up`` (if any) fires exactly once instead of the client
    hanging silently.
    """

    def __init__(
        self,
        pid: Hashable,
        coordinators: Sequence[Hashable],
        n_acceptors: int,
        on_decide: Callable[[Hashable], None],
        retry_delay: float = 10.0,
        backoff: Optional[BackoffPolicy] = None,
        on_give_up: Optional[Callable[[], None]] = None,
    ) -> None:
        super().__init__(pid)
        self.coordinators = tuple(coordinators)
        self.n_acceptors = n_acceptors
        self.on_decide = on_decide
        self.retry_delay = retry_delay
        self.backoff = backoff or BackoffPolicy.fixed(retry_delay)
        self.on_give_up = on_give_up
        self.value: Optional[Hashable] = None
        self.target = 0
        self.attempt = 0
        self.decided = False
        self.gave_up = False
        self.accepted_votes: Dict[Tuple[int, Hashable], Set[Hashable]] = {}
        self.timer: Optional[Timer] = None

    @property
    def majority(self) -> int:
        """Quorum size over the acceptors."""
        return self.n_acceptors // 2 + 1

    def submit(self, value: Hashable) -> None:
        """Propose ``value`` (the switch value, for the Backup phase)."""
        self.value = value
        self._send_request()

    def _send_request(self) -> None:
        if self.decided or self.gave_up or self.crashed:
            return
        self.send(
            self.coordinators[self.target % len(self.coordinators)],
            ("request", self.value),
        )
        self.timer = self.set_timer(
            self.backoff.delay(self.attempt, key=self.pid), self._on_timeout
        )

    def _on_timeout(self) -> None:
        if self.decided or self.gave_up:
            return
        if self.backoff.exhausted(self.attempt):
            self.gave_up = True
            if self.on_give_up is not None:
                self.on_give_up()
            return
        self.attempt += 1
        self.target += 1
        self._send_request()

    def _decide(self, value: Hashable) -> None:
        if self.decided or self.gave_up:
            return
        self.decided = True
        if self.timer is not None:
            self.timer.cancel()
        self.on_decide(value)

    def on_message(self, src: Hashable, message: Any) -> None:
        if self.decided or self.gave_up:
            return
        kind = message[0]
        if kind == "accepted":
            _, ballot, value = message
            votes = self.accepted_votes.setdefault((ballot, value), set())
            votes.add(src)
            if len(votes) >= self.majority:
                self._decide(value)
        elif kind == "decision":
            _, value = message
            self._decide(value)
