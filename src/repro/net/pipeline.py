"""`SlotPipeline` + `PipelineClient`: the one wire client.

A client replicates KV commands by walking, per log slot, the phase
chain the simulator's SMR layer walks (:func:`repro.mp.phases.walk` over
``[quorum(n), backup(n)]`` on the slot's pids): Quorum first (fast
path, two message delays) and, on a switch, Backup (Paxos, three
delays) with the switch value.  The paper's client does that for one
op per round, probing slots one at a time: :func:`probing_client`, a
pipeline of its own with ``window=1, max_batch=1``.  That caps
throughput at one op per protocol round trip, so the same proposer
scales up for volume while the server roles and the consensus
protocols stay untouched:

* **batching** — queued client ops are coalesced into a single decree
  value ``("batch", (op, ...))`` (:func:`repro.smr.universal.make_batch`),
  so one Quorum/Backup round decides many operations.  On the wire a
  decree is that value as a :class:`~repro.net.codec.Packed`: the bytes
  each op was encoded to when submitted, concatenated.  Servers, their
  WAL and the replies carry them unparsed (consensus only stores,
  compares and echoes); only an applier of someone else's decree
  decodes it, once (:func:`decided_commands`);
* **slot pipelining** — up to ``window`` consecutive slots are kept in
  flight at once instead of probing the next slot only after the
  previous one settled;
* **connection multiplexing** — every logical client shares the one
  transport (one socket per server node); ops are correlated back to
  their callers by their unique ``("seq", (client, seq))`` tags through
  the pipeline's waiter map, the moral equivalent of correlation ids on
  a multiplexed request/response socket;
* **incremental responses** — decided slots are folded into running
  ADT states, one per partition key (O(1) per op whatever the store
  holds), through the session-dedup seam
  (:class:`~repro.smr.sessions.SessionedApplier`) instead of
  re-deriving each response from the whole log prefix.

Safety rests on three arguments, the session rule closing the retry
gap:

* *local decided logs* — a pipeline caches the slots it learned decided
  instead of asking a server-side log.  Safe by Quorum's unanimity
  rule: a fast decision needs identical accepts from *all* servers, so
  every switch value for that slot equals the decided value and Backup
  can only confirm it — whatever a proposer learned a slot decided is
  what the slot decided, forever;
* *exactly-once application* — a retried or hedged op may ride two
  distinct decrees and decide at two slots; the
  :class:`~repro.smr.sessions.SessionedApplier` applies the first
  occurrence in log order and answers every later occurrence with the
  cached reply, so re-proposing a possibly-decided value is *safe* —
  the property speculative linearizability's abort-and-relaunch needs;
* *prefix completeness* — responses are derived only from the applied
  contiguous prefix; a slot is applied only once every lower slot is
  decided, so the derived state reflects exactly the decrees that
  precede it in the log.

Real-time order is preserved: an op invoked after another's response
enters the queue after the first committed, so it lands in a decree at
a strictly higher slot.

Overload degrades honestly instead of buffering without bound: the
intake queue is capped at ``max_queue`` and an op that would overflow
it — or that arrives while the pipeline's circuit breaker is open
after repeated decree give-ups — is rejected with the typed
:exc:`~repro.net.overload.Overloaded` *before* its invocation is
recorded (shed load leaves no trace in the history).

Oversized work never tears a connection (the typed
:exc:`~repro.net.codec.FrameTooLarge` discipline): a batch whose frame
would exceed ``MAX_FRAME`` is split in half and re-tried, and a single
op that cannot fit a frame by itself fails with the per-op
:exc:`PayloadTooLarge` *before* its invocation is recorded.  Sizes are
``len``s: an op's bytes ride its queue entry, and a decree's wire frame
is exact arithmetic on their sum (:meth:`SlotPipeline._fits`).
"""

from __future__ import annotations

import asyncio
import heapq
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from ..analysis.sanitizer import atomic_section
from ..core.adt import ADT
from ..mp.backoff import BackoffPolicy
from ..mp.phases import backup, quorum, walk
from ..smr.sessions import SessionedApplier, untag_command
from ..smr.universal import BATCH_TAG, batch_commands, kv_store_adt, make_batch
from .client import (
    DEFAULT_BACKOFF,
    DEFAULT_QUORUM_TIMEOUT,
    DEFAULT_RETRY_BACKOFF,
    HistoryRecorder,
    OpResult,
    RetriesExhausted,
)
from .codec import BINARY_CODEC, MAX_FRAME, Packed, tuple_body
from .overload import CircuitBreaker, Overloaded
from .transport import AsyncTransport, endpoint_of_pid

#: default number of decrees kept in flight
DEFAULT_WINDOW = 8

#: default max ops coalesced into one decree
DEFAULT_MAX_BATCH = 16

#: admission bound on queued (not yet proposed) ops
DEFAULT_MAX_QUEUE = 1024

#: headroom between a size-checked frame and MAX_FRAME — covers the
#: envelope-shape differences between the sizing envelope and the real
#: frames (phase-2 broadcasts, announcements, wide slot numbers) and
#: WAL records that carry the same value
FRAME_SLACK = 4096

#: a representative frame carrying a decree of no bytes
#: (:meth:`SlotPipeline._fits`): a decree's frame is this plus
#: ``packed_size`` of its bytes
_NO_DECREE = Packed(b"")
_PROPOSAL = (
    ("qcli", ("probe", 0, 0)), ("qs", 0, 0), ("q-propose", _NO_DECREE)
)


class PayloadTooLarge(Exception):
    """A single operation cannot fit one wire frame even unbatched.

    Raised to the submitting caller *before* its invocation is recorded
    or any byte leaves the process — a per-op error, never a torn
    connection and never a poisoned client.
    """


class BadDecree(Exception):
    """A decided slot holds what no applier can fold: bytes that do not
    decode, or a value that is no command of the ADT.

    The log cannot be applied past it, so every op waiting on the
    pipeline fails with this (invocation left pending, client poisoned);
    connections and slots in flight are untouched.
    """


class _Entry:
    """One queued op: its tagged command and the bytes of its binary
    body, the caller's future, and the decree-level metrics accumulated
    on its way to a commit."""

    __slots__ = ("tagged", "body", "future", "attempts", "switched")

    def __init__(
        self, tagged: Tuple, body: bytes, future: asyncio.Future
    ) -> None:
        self.tagged = tagged
        self.body = body
        self.future = future
        self.attempts = 0
        self.switched = 0


_BATCH_TAG = bytes(BINARY_CODEC.encode_body(BATCH_TAG))


def _decree(group: Sequence[_Entry]) -> Packed:
    """The decree of ``group``'s ops: their :func:`make_batch`, packed by
    concatenating the bytes each op was encoded to when submitted, with
    the batch attached so that its proposer never decodes it."""
    return Packed(
        tuple_body((_BATCH_TAG, tuple_body([e.body for e in group]))),
        make_batch(tuple(e.tagged for e in group)),
    )


#: bytes of a decree besides its ops' own
_DECREE_HEAD = len(_decree(()))


def decided_commands(value: Hashable) -> Tuple:
    """The commands a decided slot carries: a decree off the wire is
    packed and decoded here on first use (:exc:`~repro.net.codec.FrameError`
    if it cannot be); a log from before decrees were packed holds plain
    values, which apply next to packed ones."""
    return batch_commands(value.unpack() if type(value) is Packed else value)


#: what the watchdog resolves the future of a slow attempt with: it
#: wakes the submitter and decides nothing, since everything that
#: answers, fails or requeues an entry skips a future already done
_SLOW = object()


class SlotPipeline:
    """A windowed, batching proposer shared by many logical clients.

    One pipeline drives one replica group (one cluster / shard).  Ops
    enter via :meth:`enqueue`; the pump drains the queue into decree
    batches, keeps up to ``window`` slots in flight, and resolves each
    op's future with its derived response once the op's slot joins the
    applied contiguous prefix.
    """

    def __init__(
        self,
        name: str,
        n_servers: int,
        transport: AsyncTransport,
        adt: Optional[ADT] = None,
        window: int = DEFAULT_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        quorum_timeout: float = DEFAULT_QUORUM_TIMEOUT,
        backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        self.name = name
        self.n_servers = n_servers
        self.transport = transport
        self.adt = adt if adt is not None else kv_store_adt()
        self.window = window
        self.max_batch = max_batch
        self.quorum_timeout = quorum_timeout
        # own copy: policy objects are never shared between proposers
        self.backoff = replace(backoff) if backoff else replace(DEFAULT_BACKOFF)
        self.max_queue = DEFAULT_MAX_QUEUE
        #: the session-dedup seam every decided command folds through
        self.applier = SessionedApplier(self.adt)
        #: breaker over this replica group: decree give-ups open it,
        #: settles close it; while open, admission sheds
        self.breaker = CircuitBreaker(clock=lambda: self.transport.now)
        #: slot → decided value (this proposer's decided-log cache;
        #: safe by Quorum unanimity, see the module docstring)
        self.log: Dict[int, Hashable] = {}
        self.queue: Deque[_Entry] = deque()
        #: slot → the entries riding the decree in flight there
        self.in_flight: Dict[int, List[_Entry]] = {}
        #: tagged command → entry, the multiplexing correlation map.
        #: A retry/hedge re-enqueue of the same tagged op *supersedes*
        #: the older entry here; resolution is keyed by the tag, so the
        #: live waiter is answered whichever copy of the decree decides
        #: first.
        self._waiters: Dict[Tuple, _Entry] = {}
        self._next_slot = 0
        #: abandoned slots returned to the claimable pool (min-heap):
        #: a decree give-up must not leave a permanently-undecided hole
        #: that head-of-line-blocks the apply prefix forever
        self._free_slots: List[int] = []
        self._applied_upto = 0
        #: partition key → the ADT's state after that key's ops (_fold)
        self._state: Dict[Hashable, Hashable] = {}
        spec = self.adt.partition
        self._key_of = spec.key_of if spec else lambda command: None
        #: the clients' recorder, if its tap is to hear every slot folded
        self.tapped: Optional[HistoryRecorder] = None
        #: decrees proposed / ops they carried (observability)
        self.decrees = 0
        self.batched_ops = 0
        self.splits = 0
        #: ops rejected up front by admission control
        self.shed = 0
        #: abandoned slots re-claimed for a fresh decree (observability)
        self.reclaimed = 0
        #: indices of the servers whose connection closed or a round's
        #: timer fired without, each until it answers again
        self.presumed_down: Set[int] = set()
        self._server_index = {
            endpoint_of_pid(("qs", 0, j)): j for j in range(n_servers)
        }
        transport.unreachable_listeners.append(self._unreachable)
        self._pump_scheduled = False
        #: wire bytes of the frame around a decree, its own excluded
        self._wire_base = len(
            transport.codec.encode_frame(_PROPOSAL)
        ) - transport.codec.packed_size(0)

    @property
    def duplicates(self) -> int:
        """Duplicate decree occurrences the session seam suppressed."""
        return self.applier.duplicates

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------

    def _fits(self, size: int) -> bool:
        """Whether a decree of ops taking ``size`` bytes together fits
        one wire frame.

        The size is exact and nothing is encoded: the frame that carries
        the decree to a Quorum server.  Every other frame that carries
        it differs by envelope only, within :data:`FRAME_SLACK`, and the
        WAL journals it as a binary record, smaller than the frame.
        """
        size += _DECREE_HEAD
        return (
            self._wire_base
            + self.transport.codec.packed_size(size)
            + FRAME_SLACK
            <= MAX_FRAME
        )

    def ensure_fits(self, tagged: Tuple) -> bytes:
        """The bytes of ``tagged``, or :exc:`PayloadTooLarge` if it
        cannot frame even as a decree of one.

        Callers run this *before* recording the invocation: an
        unframeable op must fail per-op with the history and the client
        untouched, and nothing of it may ever be queued or sent.  This
        is the one place an op is encoded on the client side: every
        :meth:`enqueue` of the op, retries and hedges too, takes the
        bytes returned here, and its decree is those bytes.
        """
        body = BINARY_CODEC.encode_body(tagged)
        if not self._fits(len(body)):
            raise PayloadTooLarge(
                f"operation {tagged[:-1]!r} cannot fit one wire frame "
                f"(MAX_FRAME={MAX_FRAME})"
            )
        return body

    def admit(self) -> None:
        """Admission control: raise :exc:`Overloaded` instead of queueing.

        Called by submitting clients *before* recording the invocation
        (shed load leaves no history).  Retry and hedge re-enqueues of
        an already-admitted op bypass this — shedding a retry would
        turn backpressure into a fate-unknown failure.
        """
        if not self.breaker.allow():
            self.shed += 1
            raise Overloaded(
                f"pipeline {self.name!r}: circuit open after "
                f"{self.breaker.trips} trip(s) on this replica group"
            )
        if len(self.queue) >= self.max_queue:
            self.shed += 1
            raise Overloaded(
                f"pipeline {self.name!r}: admission queue full "
                f"({self.max_queue} ops waiting)"
            )

    def enqueue(self, tagged: Tuple, body: bytes) -> asyncio.Future:
        """Queue one tagged op, ``body`` the bytes :meth:`ensure_fits`
        returned for it; the future resolves with its response.

        Re-enqueueing the same tagged op (a retry or hedge) is safe:
        the new entry supersedes the old in the waiter map, a still
        queued older copy is dropped by the pump, and duplicate decrees
        fold once through the session seam.
        """
        future: asyncio.Future = self.transport.loop.create_future()
        entry = _Entry(tagged, body, future)
        self.queue.append(entry)
        self._waiters[tagged] = entry
        # defer the pump one loop tick: every op enqueued in this tick
        # (all the concurrent clients' submits) coalesces into the same
        # decree batch instead of going out one decree per op
        if not self._pump_scheduled:
            self._pump_scheduled = True
            self.transport.loop.call_soon(self._scheduled_pump)
        return future

    # ------------------------------------------------------------------
    # the pump
    # ------------------------------------------------------------------

    def _claim_slot(self) -> int:
        # The claim is an atomic section: read of _next_slot and the
        # write-back must not be separated by a suspension, or two
        # proposers claim the same slot (the runtime sanitizer, armed in
        # every wire chaos run, enforces this; statically it is RD08's).
        with atomic_section(self, "slot-claim"):
            # reclaimed (abandoned) slots first: the lowest undecided
            # slot gates the apply prefix, so filling holes beats
            # extending the log.  A pooled slot may have been decided
            # meanwhile by someone else's decree — skip those.
            while self._free_slots:
                slot = heapq.heappop(self._free_slots)
                if slot not in self.log and slot not in self.in_flight:
                    return slot
            slot = self._next_slot
            while slot in self.log:
                slot += 1
            self._next_slot = slot + 1
            return slot

    def _scheduled_pump(self) -> None:
        self._pump_scheduled = False
        self._pump()

    def _pump(self) -> None:
        while len(self.in_flight) < self.window and self.queue:
            group: List[_Entry] = []
            while self.queue and len(group) < self.max_batch:
                entry = self.queue.popleft()
                if self._waiters.get(entry.tagged) is not entry:
                    # superseded by a retry/hedge re-enqueue of the
                    # same op: the newer entry will carry it
                    continue
                group.append(entry)
            if not group:
                continue
            while len(group) > 1 and not self._fits(
                sum(len(entry.body) for entry in group)
            ):
                # split-and-retry: halve until the batch frames; the
                # cut tail rejoins the queue head.  Terminates because
                # a singleton always fits (ensure_fits checked it).
                self.splits += 1
                half = (len(group) + 1) // 2
                self.queue.extendleft(reversed(group[half:]))
                group = group[:half]
            value = _decree(group)
            self.decrees += 1
            self.batched_ops += len(group)
            for entry in group:
                entry.attempts += 1
            self._propose(self._claim_slot(), value, group)
        # no queued work to ride a reclaimed slot: fill the hole with
        # an empty decree anyway, or ops already decided *above* it
        # would wait on the gap forever
        while (
            self._free_slots
            and not self.queue
            and len(self.in_flight) < self.window
        ):
            slot = heapq.heappop(self._free_slots)
            if slot in self.log or slot in self.in_flight:
                continue
            self.decrees += 1
            self._propose(slot, _decree(()), [])

    def _propose(
        self, slot: int, value: Hashable, group: List[_Entry]
    ) -> None:
        # the slot's phase chain on the slot's pids, walked as the SMR
        # layer walks it; what only the wire needs rides the builders
        self.in_flight[slot] = group
        sub = (self.name, slot)
        down = self.presumed_down
        phases = [
            quorum(
                self.n_servers, timeout=self.quorum_timeout, scope=(slot,),
                # an answer, even after the switch, ends the presumption
                down=down, on_accept=lambda server: down.discard(server[2]),
            ),
            backup(
                self.n_servers, expected_clients=0, scope=(slot,),
                down=down, enlist=lambda pid: self._enlist(slot, pid),
                pacing=self.backoff,
            ),
        ]
        live = [True]

        def ends_round() -> Optional[List[_Entry]]:
            # the first outcome drops the roles of the walk and takes the
            # slot out of flight: what rode there, or None after that
            if not live[0]:
                return None
            live[0] = False
            for phase in phases:
                self.transport.unregister((phase.client, sub))
            return self.in_flight.pop(slot, [])

        def decided(position: int, winner: Hashable) -> None:
            riders = ends_round()
            if riders is None:
                return
            self.breaker.record_success()
            if slot not in self.log:
                # our own object where we won: it holds the batch
                self.log[slot] = value if winner == value else winner
            if self.log[slot] != value:
                # lost the slot: the winner is someone else's decree;
                # our ops rejoin at the head (their invocations are the
                # oldest) and the pump reproposes at a fresh slot
                self.queue.extendleft(reversed(riders))
            self._apply_ready()
            self._pump()

        def switched(position: int, switch_value: Hashable) -> None:
            # looked up, not closed over: that would make a reference
            # cycle of every round, left to the garbage collector
            left = self.transport.processes[(phases[position].client, sub)]
            if left.timer_expired:
                # who missed the deadline is presumed down from now on
                down.update(
                    server[2] for server in left.servers
                    if server not in left.accepts
                )
            for entry in group:
                entry.switched += 1

        def gave_up() -> None:
            # The decree may still decide here later, but re-proposing
            # its ops is safe (duplicates fold once through the session
            # seam), and an undecided hole would block every response
            # above it forever: reclaim the slot, requeue at the head
            # the ops still waited on, and feed the breaker.
            riders = ends_round()
            if riders is None:
                return
            self.breaker.record_failure()
            self.reclaimed += 1
            heapq.heappush(self._free_slots, slot)
            self.queue.extendleft(reversed([
                entry for entry in riders
                if self._waiters.get(entry.tagged) is entry
                and not entry.future.done()
            ]))
            self._pump()

        walk(
            self.transport, phases, sub, value, None,
            decided, switched, gave_up,
        )

    def _enlist(self, slot: int, pid: Hashable) -> None:
        # a Backup client learns from every node's acceptor of the slot
        for j in range(self.n_servers):
            self.transport.send(
                pid, ("ctl", 0, j), ("register-learner", slot, pid)
            )

    def _unreachable(self, endpoint: str) -> None:
        """The transport lost ``endpoint``: if it is one of this group's
        servers, presume it down, and let every round in flight switch
        without it (never decide: the hint may be wrong)."""
        j = self._server_index.get(endpoint)
        if j is None:
            return
        self.presumed_down.add(j)
        for slot in list(self.in_flight):
            quorum = self.transport.processes.get(("qcli", (self.name, slot)))
            if quorum is not None:
                quorum.presume_down(("qs", slot, j))

    # ------------------------------------------------------------------
    # applying the decided prefix
    # ------------------------------------------------------------------

    def _apply_ready(self) -> None:
        """Fold newly contiguous decided slots into the running state
        through the session seam, resolving the futures of ops this
        pipeline owns.  A duplicate occurrence (retried/hedged op whose
        earlier decree also decided) leaves the state unchanged and
        answers its waiter — if one is still live — with the cached
        reply its first occurrence produced.

        A slot that cannot be folded stops the prefix and fails every
        waiter with :exc:`BadDecree`.  Raised from here, under the
        transport's read side, a :exc:`~repro.net.codec.FrameError`
        would cost a server that only echoed bytes its connection."""
        try:
            while self._applied_upto in self.log:
                commands = decided_commands(self.log[self._applied_upto])
                if self.tapped is not None:
                    # before any future below resolves: inv < lin < res
                    self.tapped.decided(self._applied_upto, commands)
                for command in commands:
                    output = self._fold(command)
                    entry = self._waiters.pop(command, None)
                    if entry is not None and not entry.future.done():
                        entry.future.set_result(
                            (output, self._applied_upto,
                             entry.attempts, entry.switched)
                        )
                self._applied_upto += 1
        except ValueError as exc:
            # undecodable bytes (FrameError) or no input of the ADT
            error = BadDecree(f"slot {self._applied_upto}: {exc}")
            for entry in self._waiters.values():
                if not entry.future.done():
                    entry.future.set_exception(error)
            self._waiters.clear()

    def _fold(self, command: Hashable) -> Hashable:
        """Apply one decided command in its key's cell: its reply, the
        whole store's by the :class:`~repro.core.adt.PartitionSpec`
        claim.  A command with no key is a :exc:`ValueError`."""
        try:
            key = self._key_of(untag_command(command))
            state = self._state.get(key, self.adt.initial_state)
        except Exception as exc:  # a spec may raise anything off its shape
            raise ValueError(f"{command!r} has no partition key") from exc
        self._state[key], output, _fresh = self.applier.apply(state, command)
        return output


class PipelineClient:
    """One sequential logical client multiplexed onto a pipeline.

    Closed loop, Jepsen recording discipline: invoke before any effect
    is possible, respond only with a derived response.  An attempt that
    times out or whose decree is abandoned is *safely re-submitted*
    with the same ``(client, seq)`` tag (duplicates fold once through
    the pipeline's session seam), paced by a per-client
    ``retry_backoff`` copy, with an optional hedged duplicate enqueue
    after ``hedge_after`` seconds.  All attempts are one invocation;
    only when the total ``op_timeout`` deadline or the retry budget is
    spent does the op fail with
    :exc:`~repro.net.client.RetriesExhausted`, leaving the invocation
    pending and the identity poisoned.

    An op is one future and one wake-up: :meth:`submit` awaits the
    future :meth:`SlotPipeline.enqueue` returned and nothing else.  The
    attempt, hedge and op deadlines are kept by one watchdog timer per
    client, which wakes a slow submitter by resolving that future with
    a sentinel (never a decision).  Cancelling a submitter cancels its
    future: the invocation stays pending, the decree still decides and
    folds, and the decree's other ops are answered.
    """

    def __init__(
        self,
        name: str,
        pipeline: SlotPipeline,
        recorder: HistoryRecorder,
        op_timeout: float = 5.0,
        attempt_timeout: Optional[float] = None,
        hedge_after: Optional[float] = None,
        retry_backoff: Optional[BackoffPolicy] = None,
    ) -> None:
        self.name = name
        self.pipeline = pipeline
        self.recorder = recorder
        if recorder.tap is not None:
            pipeline.tapped = recorder
        self.op_timeout = op_timeout
        self.attempt_timeout = (
            attempt_timeout
            if attempt_timeout is not None
            else max(op_timeout / 4.0, 2.0 * pipeline.quorum_timeout)
        )
        self.hedge_after = hedge_after
        # own copy, never the module template: policy state must not
        # couple clients
        self.retry_backoff = (
            replace(retry_backoff)
            if retry_backoff
            else replace(DEFAULT_RETRY_BACKOFF)
        )
        self.poisoned = False
        self.results: List[OpResult] = []
        #: attempt-level re-submissions / hedged duplicate enqueues
        self.retries = 0
        self.hedges = 0
        self._seq = 0
        self._incarnation = 0
        #: the watchdog's one timer, and the wait it guards: the future
        #: :meth:`submit` awaits and when to wake it undecided
        self._timer: Optional[asyncio.TimerHandle] = None
        self._wait: Tuple[asyncio.Future, float]

    def successor(self) -> "PipelineClient":
        """A fresh client identity continuing this client's workload.

        An op whose retries are exhausted poisons a client id forever —
        the invocation stays pending and a sequential client must not
        issue another op under the same id.  Jepsen's discipline is to
        keep the *load* going anyway: mint a new id (``c3`` → ``c3@1``
        → ``c3@2`` …) on the same pipeline and recorder, so the
        workload continues through a fault window while the old id's
        pending op stays in the history for the checker to account for.
        """
        root = self.name.split("@", 1)[0]
        heir = PipelineClient(
            f"{root}@{self._incarnation + 1}",
            self.pipeline,
            self.recorder,
            op_timeout=self.op_timeout,
            attempt_timeout=self.attempt_timeout,
            hedge_after=self.hedge_after,
            retry_backoff=self.retry_backoff,
        )
        heir._incarnation = self._incarnation + 1
        return heir

    def _retire(self) -> None:
        # fate unknown: the op may still decide and take effect, so the
        # invocation stays pending and the identity is done
        self.poisoned = True

    def _arm(self, wake: float) -> None:
        if self._timer is not None:
            self._timer.cancel()
        self._timer = self.pipeline.transport.loop.call_at(wake, self._watch)

    def _watch(self) -> None:
        """The watchdog fired: wake the submitter whose time has come,
        or re-arm for the wait in progress, or (nobody waiting) stop."""
        armed_for, self._timer = self._timer.when(), None
        future, wake = self._wait
        if future.done():
            return
        if wake > armed_for:
            self._arm(wake)
        else:
            future.set_result(_SLOW)

    async def submit(self, command: Tuple) -> Hashable:
        """Replicate one KV command; return its derived response.

        Raises :exc:`PayloadTooLarge` for an unframeable op and
        :exc:`~repro.net.overload.Overloaded` when admission sheds it —
        both per-op, pre-invocation, non-poisoning — and
        :exc:`~repro.net.client.RetriesExhausted` when every attempt
        within the deadline failed, or :exc:`BadDecree` when the log can
        no longer be applied (op left pending, client poisoned).
        """
        if self.poisoned:
            raise RuntimeError(
                f"client {self.name!r} is poisoned by an op whose fate "
                f"is unknown (retries exhausted)"
            )
        self._seq += 1
        tagged = command + (("seq", (self.name, self._seq)),)
        # oversize and admission pre-checks first (per-op failures with
        # the history and the client untouched), then record the
        # invocation, then hand the op to the pipeline.  The invocation
        # MUST be recorded before the op is queued anywhere: once
        # enqueued it can decide and take effect even if this task dies
        # — a submitter cancelled mid-flight must leave a *pending*
        # invocation in the history, never an effect with no invocation.
        body = self.pipeline.ensure_fits(tagged)
        self.pipeline.admit()
        start = self.pipeline.transport.now
        deadline = start + self.op_timeout
        self.recorder.invoke(self.name, command)
        # Only the newest entry of a tagged op is ever resolved (enqueue
        # supersedes the older one in the waiter map), so the op has one
        # live future at a time and awaiting it is the whole wait.
        future = self.pipeline.enqueue(tagged, body)
        # when the attempt in flight (or the pause after it) is over,
        # and when to launch the one hedge (never = at the deadline)
        retry_at = start + self.attempt_timeout
        hedge_at = deadline
        if self.hedge_after is not None:
            hedge_at = start + self.hedge_after
        round_no, pausing = 0, False
        while True:
            # the timer moves only to wake earlier than it is armed for:
            # a healthy op arms and cancels none
            wake = min(retry_at, hedge_at, deadline)
            self._wait = (future, wake)
            if self._timer is None or wake < self._timer.when():
                self._arm(wake)
            try:
                outcome = await future
            except BadDecree:
                self._retire()
                raise
            if outcome is not _SLOW:
                break
            if wake >= deadline:
                self._retire()
                raise RetriesExhausted(
                    f"{self.name}: {command!r} still undecided after "
                    f"{self.op_timeout}s across {round_no + 1} attempt(s)"
                )
            if wake >= hedge_at:
                # the op looks slow: launch one duplicate enqueue;
                # whichever decree decides first answers, the other
                # folds as a duplicate
                hedge_at = deadline
                self.hedges += 1
                future = self.pipeline.enqueue(tagged, body)
            elif pausing:
                # the pause is over: re-submit the same tagged op
                pausing = False
                retry_at = self.pipeline.transport.now + self.attempt_timeout
                future = self.pipeline.enqueue(tagged, body)
            elif self.retry_backoff.exhausted(round_no):
                self._retire()
                raise RetriesExhausted(
                    f"{self.name}: {command!r} still undecided after "
                    f"{round_no + 1} attempt(s); retry budget spent"
                )
            else:
                # the attempt timed out: pause, then retry.  The pause
                # listens: the entry in flight gets a live future again,
                # so a decree that decides meanwhile answers the op and
                # no second one is proposed
                round_no += 1
                self.retries += 1
                pausing = True
                hedge_at = deadline  # a hedge rides the first attempt only
                retry_at = wake + self.retry_backoff.delay(
                    round_no, key=(self.name, self._seq)
                )
                future = self.pipeline.transport.loop.create_future()
                entry = self.pipeline._waiters.get(tagged)
                if entry is not None:
                    entry.future = future
        output, slot, attempts, switched = outcome
        self.recorder.respond(self.name, command, output)
        self.results.append(
            OpResult(
                client=self.name,
                command=command,
                response=output,
                slot=slot,
                latency=self.pipeline.transport.now - start,
                attempts=attempts,
                switched_slots=switched,
            )
        )
        return output


def probing_client(
    name: str,
    n_servers: int,
    transport: AsyncTransport,
    recorder: HistoryRecorder,
    quorum_timeout: float = DEFAULT_QUORUM_TIMEOUT,
    backoff: Optional[BackoffPolicy] = None,
    **client_kwargs,
) -> PipelineClient:
    """The paper's client: one op per consensus round, slots probed one
    at a time, over a pipeline (and so a decided-slot log) of its own.

    A fresh one proposes at slot 0 and walks the decided prefix, so its
    first response replays everything the cluster ever decided — which
    makes late readers fork detectors in the chaos campaigns.
    ``client_kwargs`` go to :class:`PipelineClient`.
    """
    pipeline = SlotPipeline(
        name,
        n_servers,
        transport,
        window=1,
        max_batch=1,
        quorum_timeout=quorum_timeout,
        backoff=backoff,
    )
    return PipelineClient(name, pipeline, recorder, **client_kwargs)
