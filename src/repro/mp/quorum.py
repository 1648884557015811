"""The Quorum speculation phase (Section 2.1 of the paper).

Quorum decides in **two message delays** when the execution is fault-free
and contention-free, and otherwise switches to the Backup phase.  Quoting
the paper's protocol:

* Upon ``propose(v)``, a client broadcasts its proposal to all server
  processes, stores ``v`` in ``proposal_c`` and starts a local timer.
* A server receiving a proposal answers with an ``accept`` message
  carrying the *first* proposal it ever received (its own acceptance is
  sticky).
* A client that receives two *different* accept messages switches to
  Backup with ``proposal_c``.
* A client that receives the *same* ``accept(v)`` from **all** servers
  decides ``v``.
* When the timer expires the client switches with any accepted value it
  has seen (waiting for at least one accept message if it has none yet).

Quorum is wait-free: a correct client decides or switches at the latest
when its timer expires (plus at most one message delay).  The timer
bounds the wait and never enters safety, so a client told which servers
are *presumed down* switches as the timer would once the rest agree.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Dict, Hashable, Optional, Sequence

from .sim import Process, Timer


class QuorumServer(Process):
    """Server role: accept the first proposal seen, answer consistently.

    The sticky acceptance is durable: a server that crashes and recovers
    still answers with the first proposal it ever accepted.  Quorum's
    safety argument (a decision needs identical accepts from *all*
    servers) assumes exactly this — a server that forgot its acceptance
    could re-accept a different value and let two clients decide
    differently.
    """

    def __init__(self, pid: Hashable) -> None:
        super().__init__(pid)
        self.accepted: Optional[Hashable] = None

    def durable_state(self) -> Optional[Hashable]:
        """The sticky acceptance, as written to stable storage."""
        return self.accepted

    def on_recover(self, durable) -> None:
        """Restore the sticky acceptance after a restart."""
        self.accepted = durable

    def on_message(self, src: Hashable, message: Any) -> None:
        kind = message[0]
        if kind == "q-propose":
            _, value = message
            if self.accepted is None:
                self.accepted = value
            self.send(src, ("q-accept", self.accepted))


class QuorumClient(Process):
    """Client role of the Quorum phase.

    Outcomes are reported through callbacks: ``on_decide(value)`` when all
    servers answered with the same value, ``on_switch(switch_value)`` when
    the client transfers its pending invocation to the Backup phase.
    Exactly one of the two fires per proposal.

    :meth:`presume_down` names a server a switch need not wait for,
    before the proposal or while the round is in flight;
    ``on_accept(server)`` hears every accept, even after the outcome.
    """

    def __init__(
        self,
        pid: Hashable,
        servers: Sequence[Hashable],
        on_decide: Callable[[Hashable], None],
        on_switch: Callable[[Hashable], None],
        timeout: float = 6.0,
        on_accept: Optional[Callable[[Hashable], None]] = None,
    ) -> None:
        super().__init__(pid)
        self.servers = tuple(servers)
        self.on_decide = on_decide
        self.on_switch = on_switch
        self.timeout = timeout
        self.presumed_down: Collection[Hashable] = ()
        self.on_accept = on_accept
        self.proposal: Optional[Hashable] = None
        self.accepts: Dict[Hashable, Hashable] = {}
        self.done = False
        self.timer: Optional[Timer] = None
        #: the timer fired before the outcome
        self.timer_expired = False

    def propose(self, value: Hashable) -> None:
        """Start the phase: broadcast the proposal and arm the timer."""
        if self.proposal is not None:
            raise RuntimeError("QuorumClient handles a single proposal")
        self.proposal = value
        self.broadcast(self.servers, ("q-propose", value))
        self.timer = self.set_timer(self.timeout, self._on_timeout)

    def _finish(self, decide: Optional[Hashable], switch: Optional[Hashable]) -> None:
        if self.done:
            return
        self.done = True
        if self.timer is not None:
            self.timer.cancel()
        if decide is not None:
            self.on_decide(decide)
        else:
            self.on_switch(switch)

    def on_message(self, src: Hashable, message: Any) -> None:
        if message[0] != "q-accept":
            return
        if self.on_accept is not None:
            self.on_accept(src)
        if self.done:
            return
        _, value = message
        self.accepts[src] = value
        seen = set(self.accepts.values())
        if self.timer_expired:
            # The timer fired while no accept message had arrived; the
            # paper has the client wait for at least one accept and switch
            # with its value.
            self._finish(None, value)
            return
        if len(seen) > 1:
            # Two different accept messages: contention — switch with the
            # client's own proposal.
            self._finish(None, self.proposal)
            return
        if len(self.accepts) == len(self.servers):
            # Identical accepts from all servers: decide.
            self._finish(sorted(seen)[0] if len(seen) == 1 else None, None)
        elif self.presumed_down:
            self._switch_without_the_down()

    def presume_down(self, server: Hashable) -> None:
        """Presume ``server`` down from now on, and switch at once if
        every other server has already answered alike."""
        if self.done or server in self.presumed_down:
            return
        self.presumed_down = {*self.presumed_down, server}
        self._switch_without_the_down()

    def _switch_without_the_down(self) -> None:
        # All but the presumed-down answered alike (or none yet: wait):
        # the timer's rule, as a decision makes every server sticky.
        if self.accepts and all(
            server in self.accepts or server in self.presumed_down
            for server in self.servers
        ):
            self._finish(None, next(iter(self.accepts.values())))

    def _on_timeout(self) -> None:
        if self.done:
            return
        self.timer_expired = True
        if self.accepts:
            # Select one accepted value (they are all candidates the
            # Backup phase may safely adopt).
            value = next(iter(self.accepts.values()))
            self._finish(None, value)
        else:
            # No accept has arrived.  The paper's client waits for at
            # least one — switching with a value it has not seen
            # accepted could contradict a unanimous Quorum decision at
            # this instance — but the waiting rule assumes quasi-
            # reliable channels.  On a lossy transport the proposal
            # itself may be gone, and no server will ever answer a
            # message it never received: re-broadcast the proposal
            # (retransmission supplies the reliable-channel assumption)
            # and keep the timer armed.  The next q-accept to arrive
            # completes the switch.
            self.broadcast(self.servers, ("q-propose", self.proposal))
            self.timer = self.set_timer(self.timeout, self._on_timeout)
