"""`ReplicaNode`: one physical server of the networked deployment.

A node hosts, behind a single TCP listener, the three server roles of
every SMR slot — exactly the roles a physical server hosts in
:class:`repro.smr.replica.SpeculativeSMR`:

* a :class:`~repro.mp.quorum.QuorumServer` (sticky acceptance, the fast
  path);
* a :class:`~repro.mp.paxos.PaxosAcceptor` (the Backup phase's durable
  memory);
* a :class:`~repro.mp.paxos.PaxosCoordinator` ranked by node index, with
  node 0 pre-preparing (the steady-state phase-1 optimization behind the
  paper's 3-delay Backup latency).  On node 0's first incarnation that
  costs nothing: the coordinator owns ballot 0, whose phase 1 is
  vacuous.  A restarted node starts its coordinators from a round
  derived from the WAL's incarnation marker and buys its promise with a
  real prepare, because a ballot must never carry two values across
  incarnations of its owner.

Slots are unbounded, so roles are created **lazily and one at a time**:
the transport's miss handler fires on the first frame addressed to a
role that does not exist yet and builds that role only.  A decree that
decides on the fast path therefore costs a node one
:class:`DurableQuorumServer` and nothing else; the acceptor appears
when Backup first speaks to it (a ``prepare`` or ``accept`` frame, or a
``register-learner``), a coordinator when a ``request`` or a vote
reaches it.  A ``register-learner`` also builds node 0's coordinator,
the one that pre-prepares; any other coordinator would start nothing,
and a degraded decree that runs through node 0 builds none elsewhere.
This is the networked analogue of ``SpeculativeSMR._ensure_slot``
(which hosts a slot's whole phase chain at once,
:func:`repro.mp.phases.host`) — except no global coordinator exists;
each node materializes roles independently, driven purely by the
frames that reach it.

With a :class:`~repro.net.wal.NodeWAL` attached the roles become
*durable*: a :class:`_DurableRole` wrapper buffers every outbound
message while a handler runs, appends and fsyncs the role's changed
``durable_state()`` to the WAL, and only then releases the replies —
the classical persist-before-reply rule, so no acknowledgement ever
refers to state that a crash could erase.  On ``start()`` a node
replays its WAL *before* binding the listener: every recovered slot is
materialized, and each role restores its own part of the WAL's running
fold as it is built — acceptor triples and sticky Quorum acceptances
via the roles' ``on_recover`` hooks, decided values with
``PaxosCoordinator.adopt_decision`` — only then can a frame reach the
node.  A role built later finds what recovery held: a slot's entry of
one kind changes only through that slot's role of that kind.  Without
a WAL the node is **amnesiac**: it restarts blank, which is the
intentional safety bug the net nemesis campaign exists to catch
(:mod:`repro.faults.netcampaign`).  Blank includes the incarnation: an
amnesiac node 0 claims ballot 0 on every restart, one more way for
that canary to fork and not a supported configuration.

The per-node control role ``("ctl", 0, index)`` handles the one piece of
wiring that is configuration rather than protocol: Backup clients
register themselves as learners on the slot's acceptor
(``("register-learner", slot, pid)``).  An acceptor announces a vote to
those clients and to the coordinator whose ``accept`` it answers, and
to no other coordinator: the paper's clients are Backup's learners, and
a coordinator asked later about a slot it did not hear decide learns
the value in phase 1, from the promises.  If the acceptor has already
accepted by then, the control role replays the current acceptance to the
late learner — "accepted" announcements are idempotent (learners count
votes in sets), and the replay closes the race between a client's
registration and a coordinator's phase 2 running server-to-server.  A
control frame whose slot could not name a role (:meth:`ReplicaNode.builds`)
is dropped and counted, as a frame to such a pid is.
"""

from __future__ import annotations

import logging
from typing import Any, Hashable, List, Optional, TYPE_CHECKING, Tuple

from ..analysis.sanitizer import atomic_section
from ..mp.backoff import BackoffPolicy
from ..mp.paxos import PaxosAcceptor, PaxosCoordinator
from ..mp.quorum import QuorumServer
from ..mp.sim import Process
from .codec import Codec
from .netfaults import TransportFaults
from .transport import AddressBook, AsyncTransport
from .wal import NodeWAL, RecoveredState, WALError, WALFullError

logger = logging.getLogger(__name__)

#: wall-clock coordinator retry delay (seconds); the sim uses 8 virtual
#: units, here the currency is real time on localhost
COORDINATOR_RETRY_DELAY = 0.5

#: backoff for a WAL append that hit ENOSPC: short first retry (space
#: often frees fast — a compaction elsewhere), bounded budget so a
#: permanently full disk becomes an explicit fail-stop, not a hang
WAL_RETRY_BACKOFF = BackoffPolicy(
    base=0.05, factor=2.0, cap=1.0, jitter=0.25, max_retries=6
)


class _ControlRole(Process):
    """The node's configuration endpoint (learner registration)."""

    def __init__(self, pid: Hashable, node: "ReplicaNode") -> None:
        super().__init__(pid)
        self.node = node

    def on_message(self, src: Hashable, message: Any) -> None:
        node = self.node
        if (
            isinstance(message, tuple)
            and len(message) == 3
            and message[0] == "register-learner"
            # the slot must be one a frame could build a role for
            and node.builds(("acc", message[1], node.index))
        ):
            node.register_learner(message[1], message[2])
        else:
            node.drop(self.pid, message)


class _DurableRole:
    """Mixin enforcing persist-before-reply around ``on_message``.

    While the wrapped handler runs, ``send`` only buffers; afterwards,
    if ``durable_state()`` changed, the new state is appended and
    fsync'd to the WAL, and only then are the buffered frames released,
    on the loop's next tick (:meth:`NodeWAL.record_durable`).  A crash
    inside the handler thus loses the replies but never the state they
    would have promised — exactly the stable storage discipline
    single-decree Paxos and Quorum's sticky acceptance both assume.
    Timer- and config-driven sends outside a handler pass through
    unbuffered.  With ``wal=None`` the wrapper is inert and the role
    behaves like its volatile base class.

    A full disk is survivable: when the append raises
    :exc:`~repro.net.wal.WALFullError` the replies stay buffered and a
    backoff timer (:data:`WAL_RETRY_BACKOFF`) re-attempts the same
    persist; frames arriving while the retry is pending are dropped
    (the client retries — answering them would promise unpersisted
    state).  When the budget is exhausted the role fail-stops the
    node's WAL, which silences every role sharing it; any other failed
    write has fail-stopped it already, and the replies are dropped.
    """

    _wal: Optional[NodeWAL] = None
    _wal_buffer: Optional[List[Tuple[Hashable, Any]]] = None
    _wal_retry: Optional[Tuple[Any, List[Tuple[Hashable, Any]]]] = None

    if TYPE_CHECKING:
        # provided by the concrete role the mixin is combined with
        def durable_state(self) -> Any: ...

        def on_recover(self, state: Any) -> None: ...

    def _wire_wal(self, wal: Optional[NodeWAL], kind: str, slot: int) -> None:
        self._wal = wal
        self._wal_kind = kind
        self._wal_slot = slot
        self._wal_buffer = None
        self._wal_retry = None
        self._wal_attempt = 0
        self._wal_persisted = self.durable_state()

    def restore(self, state: Any) -> None:
        """Apply recovered durable state without re-logging it."""
        self.on_recover(state)
        self._wal_persisted = self.durable_state()

    def answerable(self) -> bool:
        """Whether the role's live state is what its WAL holds, so a
        message about it may leave: a volatile role, or an open WAL with
        no persist parked on a full disk."""
        return self._wal is None or not (
            self._wal.closed or self._wal_retry is not None
        )

    def send(self, dst: Hashable, message: Any) -> None:
        if self._wal_buffer is not None:
            self._wal_buffer.append((dst, message))
        else:
            super().send(dst, message)  # type: ignore[misc]

    # The whole handler is one critical section: buffer, persist,
    # release must not interleave with another task touching this role.
    # The guard costs one flag check unless the sanitizer is armed, as
    # every wire chaos run arms it.
    @atomic_section
    def on_message(self, src: Hashable, message: Any) -> None:
        if self._wal is None:
            super().on_message(src, message)  # type: ignore[misc]
            return
        if not self.answerable():
            # The node is dead (stable storage released by stop() or a
            # fail-stop), or persistence is stalled on a full disk: the
            # frame must be dropped, not answered — crash semantics,
            # and never a promise about unpersisted state.
            return
        self._wal_buffer = []
        state = self._wal_persisted
        try:
            super().on_message(src, message)  # type: ignore[misc]
            state = self.durable_state()
        finally:
            buffered, self._wal_buffer = self._wal_buffer, None
        if state == self._wal_persisted:
            # nothing new to persist; replies promise only already
            # durable state and may leave at once
            self._wal_release(buffered)
            return
        self._wal_persist(state, buffered)

    def _wal_persist(
        self, state: Any, buffered: List[Tuple[Hashable, Any]]
    ) -> None:
        """Log ``state``; ``buffered`` leaves once it is on disk.

        The role's one persist, for a handler and for the ENOSPC retry
        alike.  A full disk parks both; any other failure has closed
        the WAL, and nothing leaves.
        """
        try:
            self._wal.record_durable(
                self._wal_kind,
                self._wal_slot,
                state,
                lambda: self._wal_release(buffered),
            )
        except WALFullError:
            self._wal_park(state, buffered)
            return
        except WALError:
            return
        self._wal_persisted = state
        self._wal_retry = None

    def _wal_release(self, buffered: List[Tuple[Hashable, Any]]) -> None:
        """Let the buffered replies leave (state is durable or unchanged)."""
        for dst, msg in buffered:
            super().send(dst, msg)  # type: ignore[misc]

    # -- ENOSPC backoff-and-retry --------------------------------------

    def _wal_park(
        self, state: Any, buffered: List[Tuple[Hashable, Any]]
    ) -> None:
        """Hold the unpersisted state + replies and arm the next retry,
        or fail-stop the WAL once the backoff budget is spent."""
        if self._wal_retry is None:
            logger.warning(
                "%r: WAL append hit ENOSPC; holding %d replies and retrying",
                self.pid, len(buffered),
            )
            self._wal_attempt = 0
        else:
            self._wal_attempt += 1
            if WAL_RETRY_BACKOFF.exhausted(self._wal_attempt):
                self._wal.fail_stop(
                    f"{self.pid!r} still full after "
                    f"{self._wal_attempt} retries"
                )
                return
        self._wal_retry = (state, buffered)
        self.set_timer(
            WAL_RETRY_BACKOFF.delay(self._wal_attempt, key=str(self.pid)),
            self._wal_retry_tick,
        )

    @atomic_section
    def _wal_retry_tick(self) -> None:
        """Re-attempt the parked persist (a fail-stop cancels it)."""
        if not self._wal.closed:
            self._wal_persist(*self._wal_retry)


class DurableQuorumServer(_DurableRole, QuorumServer):
    """Quorum server whose sticky acceptance survives the process."""

    def __init__(self, pid: Hashable, wal: Optional[NodeWAL] = None) -> None:
        super().__init__(pid)
        self._wire_wal(wal, "qs", pid[1])


class DurableAcceptor(_DurableRole, PaxosAcceptor):
    """Paxos acceptor whose triple is written before any answer."""

    def __init__(self, pid: Hashable, wal: Optional[NodeWAL] = None) -> None:
        super().__init__(pid)
        self._wire_wal(wal, "acc", pid[1])


class RecordingCoordinator(PaxosCoordinator):
    """Coordinator that logs each slot's decision to the WAL.

    The decided log is what makes recovery *cheap*: a restarted node
    answers requests on settled slots from the WAL instead of paying a
    Paxos round per slot.  It is an optimization, not a safety
    requirement — losing it only costs latency, so the decision is
    logged after the fact rather than via persist-before-reply.  Only
    a coordinator that hears the decision logs it — the one whose
    ballot carried it, or one that learned it in a later phase 1 — so
    a slot costs one ``dec`` record, not one per live node.  A closed
    WAL silences it, as it does the node's durable roles.
    """

    def __init__(self, *args, wal=None, slot=None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._wal = wal
        self._slot = slot
        self._decision_logged = False

    def adopt_decision(self, value: Hashable) -> None:
        had = self.decision is not None
        super().adopt_decision(value)
        if not had:
            self._decision_logged = True  # came *from* the WAL

    def send(self, dst: Hashable, message: Any) -> None:
        # a closed WAL (the node stopped or fail-stopped) silences the
        # handlers and the retry timers alike
        if self._wal is None or not self._wal.closed:
            super().send(dst, message)

    def on_message(self, src: Hashable, message: Any) -> None:
        super().on_message(src, message)
        if (
            self._wal is not None
            and not self._wal.closed
            and not self._decision_logged
            and self.decision is not None
        ):
            try:
                self._wal.record_decided(self._slot, self.decision)
            except WALError:
                # full: optimization only, the next message retries;
                # failed: the WAL fail-stopped and gates this role
                return
            self._decision_logged = True


class ReplicaNode:
    """All server roles of one replica, served over one TCP listener."""

    def __init__(
        self,
        index: int,
        n_servers: int,
        book: AddressBook,
        faults: Optional[TransportFaults] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        wal: Optional[NodeWAL] = None,
        codec: Optional[Codec] = None,
    ) -> None:
        self.index = index
        self.n_servers = n_servers
        self.host = host
        self.port = port
        self.wal = wal
        #: the WAL's running fold, roles restore from it as they are
        #: built; blank (incarnation 0) without a WAL
        self.fold: RecoveredState = (
            wal.state if wal is not None else RecoveredState()
        )
        self.transport = AsyncTransport(
            f"node{index}", book, faults, codec=codec
        )
        self.transport.miss_handler = self._on_miss
        self.transport.register(_ControlRole(("ctl", 0, index), self))

    @property
    def endpoint(self) -> str:
        """The node's endpoint name in the address book."""
        return self.transport.endpoint

    async def start(self) -> Tuple[str, int]:
        """Recover from the WAL, then bind and publish the listener.

        Recovery runs strictly before the listener exists: every slot
        the WAL mentions is materialized with its durable state
        restored, so no frame can race a half-recovered node.
        """
        for slot in self.fold.slots():
            self.ensure_slot(slot)
        # self.port stays the port asked for: the bound one is published
        host, port = await self.transport.start_server(self.host, self.port)
        self.transport.book.add(self.endpoint, host, port)
        return host, port

    async def stop(self) -> None:
        """Kill the node: close the listener and sever every connection."""
        await self.transport.close()
        if self.wal is not None:
            self.wal.close()

    # ------------------------------------------------------------------
    # lazy role materialization
    # ------------------------------------------------------------------

    def _role(self, kind: str, slot: int) -> Any:
        """This node's ``kind`` role of ``slot``, built on first use.

        A role restores its own part of the fold as it is built, so it
        does not matter whether recovery or a frame materializes it,
        nor in what order.
        """
        pid = (kind, slot, self.index)
        role = self.transport.processes.get(pid)
        if role is not None:
            return role
        if kind == "qs":
            role = DurableQuorumServer(pid, wal=self.wal)
            sticky = self.fold.quorum.get(slot)
            if sticky is not None:
                role.restore(sticky)
        elif kind == "acc":
            role = DurableAcceptor(pid, wal=self.wal)
            triple = self.fold.acceptors.get(slot)
            if triple is not None:
                role.restore(triple)
        else:
            role = RecordingCoordinator(
                pid,
                rank=self.index,
                n_coordinators=self.n_servers,
                acceptors=[("acc", slot, j) for j in range(self.n_servers)],
                pre_prepare=(self.index == 0),
                retry_delay=COORDINATOR_RETRY_DELAY,
                first_round=self.fold.incarnation,
                wal=self.wal,
                slot=slot,
            )
            decided = self.fold.decided.get(slot)
            if decided is not None:
                role.adopt_decision(decided)
        return self.transport.register(role)

    def ensure_slot(self, slot: int) -> None:
        """Host all three roles of ``slot`` (idempotent): what recovery
        does for every slot the WAL mentions."""
        for kind in ("qs", "acc", "coord"):
            self._role(kind, slot)

    def register_learner(self, slot: int, learner: Hashable) -> None:
        """Add a Backup client as a learner on this slot's acceptor.

        Replays the acceptor's current acceptance to the new learner so a
        registration that loses the race against phase 2 still hears the
        vote (duplicates are harmless: learners count votes in sets) —
        only while that acceptance is what the WAL holds.
        """
        acceptor = self._role("acc", slot)
        if self.index == 0:
            # Backup is starting on this slot: the pre-preparing
            # coordinator starts now (a later incarnation buys its
            # promise; the first owns ballot 0 for free).  Any other
            # coordinator would start nothing, and waits for a request.
            self._role("coord", slot)
        if learner not in acceptor.learners:
            acceptor.register_learners(acceptor.learners + (learner,))
        if acceptor.accepted_ballot >= 0 and acceptor.answerable():
            acceptor.send(
                learner,
                (
                    "accepted",
                    acceptor.accepted_ballot,
                    acceptor.accepted_value,
                ),
            )

    def builds(self, pid: Hashable) -> bool:
        """Whether ``pid`` names a role this node builds on demand:
        ``(kind, slot, index)`` with an int slot.  The one rule for a
        frame that would build a role, by address or by registration;
        a WAL fact keyed by any other slot would stop the next start."""
        return (
            isinstance(pid, tuple)
            and len(pid) == 3
            and pid[0] in ("qs", "acc", "coord")
            and isinstance(pid[1], int)
            and pid[2] == self.index
        )

    def drop(self, dst: Hashable, message: Any) -> None:
        """Count a frame no role of this node may take."""
        logger.debug("node%d dropping %r for %r", self.index, message, dst)
        self.transport.stats.dropped_crashed += 1

    def _on_miss(self, src: Hashable, dst: Hashable, message: Any) -> None:
        """Materialize the role an unknown pid names, then deliver."""
        if not self.builds(dst):
            self.drop(dst, message)
            return
        self.transport.stats.delivered += 1
        self._role(dst[0], dst[1]).on_message(src, message)
