"""`StreamingMonitor`: the online linearizability verdict for one stream.

The monitor consumes invocation/response events *as they happen* and
maintains, at every instant, a three-way verdict on the history so far:

* ``ok`` — every prefix admits a linearization;
* ``violation`` — some prefix does not (and, by prefix closure of
  linearizability, no extension ever will — which is what makes
  fail-fast sound: the run can stop the moment the verdict flips);
* ``unknown`` — a search or routing budget was exceeded and the monitor
  degraded rather than guessed.

It is also the engine behind the post-hoc verdict:
:func:`repro.core.fastcheck.check_linearizable` feeds a finished trace
through this class, so the two cannot drift apart — what they are
checked against is the classical checker, a brute-force Herlihy-Wing
and the paper's definition (``tests/oracle.py``); no recorded history
is decided by that definition.  The post-hoc caller adds one thing,
the recorded response of every operation (``observe``'s ``answer``);
a live monitor has no future to be told.  What it can be told is the
past: built with the recorder's ``history``, it checks the decided log
as a certificate (``lin`` events, :meth:`StreamingMonitor.feed`) in
O(1) per event, which can only say ``ok``, and becomes the searching
engine at the first *miss* (docs/MONITORING.md §7).  A finished
history is its own, checked by the same code in response order
(:func:`decide`).

* **Global well-formedness** is tracked at the monitor level — one open
  invocation per client, response input equal to the invocation input
  (Definition 14).  Projections cannot police this (a client with two
  pending invocations on different keys looks fine per key).
* **Globally invalid inputs** (``adt.is_input`` false on the raw
  payload) are a violation at the event that carries them, matching the
  reference search's invalid-input rejection — this check runs
  *before* key routing, because an invalid payload is typically also
  unroutable.
* **Per-key frontiers** (:class:`~repro.monitor.frontier.KeyFrontier`)
  do the incremental search, one per partition key via
  :meth:`repro.core.adt.PartitionSpec.route`; without a partition spec a
  single frontier, key None, watches everything.
* **Routing failures on globally-valid events** degrade the verdict to
  ``unknown`` and set :attr:`StreamingMonitor.unroutable`.  Online that
  is all that can be said — the prefix has been garbage collected; a
  finished history (:meth:`StreamingMonitor.tell`) is searched again
  whole, as the one partition an object without a spec is.  ``unknown``
  never masks a violation: violation dominates.

Composition across shards (one monitor per shard in the pipelined data
plane) is :func:`compose_verdicts` — the same conjunction `loadgen`
applies to post-hoc per-shard verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Optional,
    Sequence,
    Tuple,
)

from ..core.actions import Invocation, Response
from ..core.adt import ADT, PartitionSpec
from ..core.linearizability import NEVER_ANSWERED
from ..core.traces import Trace
from ..smr.sessions import seq_uid
from .frontier import VIOLATION, KeyFrontier, RetainedGauge

OK = "ok"

#: partition key of an open operation whose invocation did not route
UNROUTABLE = ("unroutable",)

#: the output of an open operation no ``lin`` event has reached yet
_UNCLAIMED = object()


def _one_partition(adt: ADT) -> PartitionSpec:
    """``adt`` as its own one partition, key None: it routes every
    payload, and the component is the whole object."""
    return PartitionSpec(
        key_of=lambda payload: None, component=lambda key: adt
    )


def event_action(event: Tuple) -> Any:
    """The action an ``inv`` / ``res`` event records (phase 1, as the
    recorder's own ``trace()`` tags it)."""
    kind, client, command, response = event[:4]
    if kind == "inv":
        return Invocation(client, 1, command)
    return Response(client, 1, command, response)


@dataclass
class MonitorReport:
    """A snapshot of the streaming verdict and the monitor's economics."""

    verdict: str
    reason: Optional[str] = None
    events: int = 0
    ops: int = 0
    frontiers: int = 0
    #: events currently held across all witness windows
    retained: int = 0
    #: high-water mark of retained events — the GC bound
    peak_retained: int = 0
    #: events garbage-collected at quiescent points (or truncated)
    gc_drops: int = 0
    violation_key: Optional[Hashable] = None
    witness: Optional[Dict[str, Any]] = None
    #: 1 once the certificate missed (searched since), and what missed
    certificate_misses: int = 0
    miss_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.verdict == OK

    @property
    def unknown(self) -> bool:
        """A budget was spent or an event did not route: no verdict."""
        return self.verdict == "unknown"

    def __bool__(self) -> bool:
        raise TypeError(
            "a verdict is ok, violation or unknown: read .ok or .verdict"
        )

    def summary(self) -> str:
        line = (
            f"monitor: {self.verdict} after {self.events} events "
            f"({self.ops} ops, {self.frontiers} frontier(s); "
            f"peak retained {self.peak_retained}, gc'd {self.gc_drops})"
        )
        if self.reason:
            line += f" -- {self.reason}"
        if self.certificate_misses:
            line += f" [certificate missed, searched: {self.miss_reason}]"
        return line


class StreamingMonitor:
    """Online linearizability monitoring of one event stream."""

    def __init__(
        self,
        adt: ADT,
        node_limit: Optional[int] = None,
        config_limit: Optional[int] = None,
        history: Optional[list] = None,
    ) -> None:
        self.adt = adt
        self.node_limit = node_limit
        self.config_limit = config_limit
        #: an object without a spec is its own one partition, key None
        self._start(adt.partition or _one_partition(adt))
        #: the recorder's own list: with it :meth:`feed` checks certificates
        #: and reads it only after a miss; without, this is the frontier engine
        self._history = history
        self.certificate_misses = 0
        self.miss_reason: Optional[str] = None
        #: client -> [command, key, projected input, output or _UNCLAIMED,
        #: key's cell] open; client -> last linearized seq; key -> [plain
        #: transition, state, events]; key -> events a finished history had
        self._claims: Dict[Hashable, list] = {}
        self._linearized: Dict[Hashable, int] = {}
        self._cells: Dict[Hashable, list] = {}
        self._counts: Dict[Hashable, int] = {}
        self._next_slot = self._released = 0

    def _start(self, spec: PartitionSpec) -> None:
        """An empty search over ``spec``'s partitions."""
        self.spec = spec
        self.gauge = RetainedGauge()
        self.frontiers: Dict[Hashable, KeyFrontier] = {}
        #: client -> (raw input, op id, partition key, projected input)
        #: of its open invocation; key ``UNROUTABLE`` = not being checked
        self._open: Dict[Hashable, Tuple[Any, int, Hashable, Any]] = {}
        self._op_counter = 0
        self.events = 0
        self.status = OK
        self.reason: Optional[str] = None
        self.degraded = False
        #: a globally valid event did not fit the partition spec: a
        #: finished history is searched again as one partition
        self.unroutable = False
        self.violation_key: Optional[Hashable] = None
        self.witness: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------

    def feed(self, *events: Tuple) -> None:
        """Consume raw `HistoryRecorder` event tuples, in order: one, or
        the tap's drain batch.

        An event is ``(kind, client, command, response, at)`` exactly as
        the recorder appends (and streams through its tap), or the tap's
        third kind, ``("lin", slot, commands)``: a decided slot some
        pipeline folded, which only the certificate reads.
        """
        if self._history is not None:
            missed = self._fold(events, finished=False)
            if missed is None:
                return
            self._fall_back(missed[1])
            events = events[missed[0]:]
        for event in events:
            if event[0] != "lin":
                self.observe(event_action(event))

    def _fold(
        self, events: Sequence[Any], finished: bool
    ) -> Optional[Tuple[int, str]]:
        """The certificate: None if ``events`` check, else the index of
        the first that does not and why (a *miss*: no proof of anything).

        Each key's component folds its operations where they linearize:
        at their responses in a ``finished`` history (response order
        respects real time; dropping what never answered is a legal
        completion), else where ``lin`` events name them, once each,
        between invocation and response.  If every response equals the
        fold's output, that is a linearization, whoever chose the order.
        ``events`` are recorder tuples, or a finished history's actions;
        cells step plain transitions (docs/MONITORING.md §7)."""
        claims, linearized, cells = self._claims, self._linearized, self._cells
        is_input, spec = self.adt._is_input, self.spec
        key_of, project_input = spec.key_of, spec.project_input
        project, component = spec.project_output, spec.component
        ops, peak, lins, miss = self._op_counter, self.gauge.peak, 0, None
        consumed = self.events
        try:
            for event in events:
                cls = type(event)
                if cls is Invocation or cls is Response:
                    invoked = cls is Invocation
                    client, command = event.client, event.input
                elif cls is not tuple:
                    miss = f"{event!r} is no interface action"
                    break
                elif event[0] != "lin" or finished:
                    invoked, client, command = event[0] == "inv", event[1], event[2]
                else:
                    _, slot, commands = event
                    if slot == self._next_slot:
                        self._next_slot += 1
                    elif slot < self._next_slot:
                        commands = ()  # a pipeline of its own, folding again
                    else:
                        miss = f"slot {slot} folded before slot {self._next_slot}"
                        break
                    for tagged in commands:
                        uid = seq_uid(tagged)
                        if uid is None:
                            miss = f"slot {slot}: {tagged!r} has no session tag"
                            break
                        client, seq = uid
                        if seq <= linearized.get(client, 0):
                            continue  # a duplicate: the seam skips it
                        claim = claims.get(client)
                        if claim is None or claim[0] != tagged[:-1]:
                            miss = f"slot {slot}: {tagged!r} is no open operation"
                            break
                        if claim[3] is not _UNCLAIMED:
                            miss = f"slot {slot}: {tagged!r} is linearized twice"
                            break
                        linearized[client] = seq
                        cell = claim[4]
                        cell[1], claim[3] = cell[0](cell[1], claim[2])
                    else:
                        lins += 1
                        continue
                    break
                claim = claims.get(client)
                if invoked:
                    if claim is not None or not is_input(command):
                        miss = f"{client!r} invokes {command!r}: open, or no input"
                        break
                    key = key_of(command)
                    projected = project_input(key, command)
                    cell = cells.get(key)
                    if cell is None:
                        part = component(key)
                        cell = cells[key] = [part._transition, part.initial_state, 0]
                    cell[2] += 2
                    claims[client] = [command, key, projected, _UNCLAIMED, cell]
                    ops += 1
                    if len(claims) > peak:
                        peak = len(claims)
                    continue
                if claim is None or claim[0] != command:
                    miss = f"{client!r} has no open {command!r} to answer"
                    break
                if finished:  # response order linearizes it here
                    cell = claim[4]
                    cell[1], claim[3] = cell[0](cell[1], claim[2])
                elif claim[3] is _UNCLAIMED:
                    miss = f"{client!r}'s {command!r} answered, never linearized"
                    break
                response = event[3] if cls is tuple else event.output
                if project(claim[1], response) != claim[3]:
                    miss = f"{client!r}: {response!r}, the log says {claim[3]!r}"
                    break
                del claims[client]
            else:
                if finished:
                    for claim in claims.values():
                        claim[4][2] -= 1  # pending: no response
                    self._counts = {k: cell[2] for k, cell in cells.items()}
                return None
        except Exception as exc:  # ill-formed event, or the spec raised
            miss = f"{type(exc).__name__}: {exc}"
        else:
            if finished:
                miss = f"index {ops + ops - len(claims)}: {miss}"
        finally:
            # every invocation is an event, and so is each closed one's
            # response; the open ones are what the window retains
            self._op_counter, self.gauge.peak = ops, peak
            self.gauge.value = len(claims)
            self._released = 2 * (ops - len(claims))
            self.events = ops + ops - len(claims)
        # the index of the event that missed: those consumed before it
        return self.events - consumed + lins, miss

    def _fall_back(self, miss: str) -> None:
        """Become the frontier engine, replaying the prefix consumed so
        far (the recorder's list may run ahead of the drain) with each
        answered invocation foretold its response and each open one
        nothing: it may yet answer.  Not seeded from the fold: two
        concurrent puts leave two reachable states, the fold knows one."""
        actions = [event_action(e) for e in self._history[: self.events]]
        self._history = None
        self.certificate_misses += 1
        self.miss_reason = miss
        self._claims, self._linearized, self._cells = {}, {}, {}
        self.events = self._op_counter = self._released = self.gauge.value = 0
        self.tell(actions, unanswered=None)

    def tell(
        self, actions: Sequence[Any], unanswered: Any = NEVER_ANSWERED
    ) -> None:
        """Search a history held whole, each invocation told its future:
        the :class:`Response` answering it later in ``actions``, else
        ``unanswered`` (:data:`NEVER_ANSWERED` when finished, None for a
        live prefix whose open operations may yet answer), paired only
        as a well-formed history pairs them.  A finished history that
        meets an event the partition spec cannot route is searched again
        whole, as one partition: P-compositionality holds for every
        partition, the trivial one too."""
        answers: Dict[int, Any] = {}
        open_at: Dict[Hashable, int] = {}
        for index, action in enumerate(actions):
            if isinstance(action, Invocation):
                open_at[action.client] = index
                answers[index] = unanswered
            elif isinstance(action, Response):
                asked = open_at.pop(action.client, None)
                if asked is not None and actions[asked].input == action.input:
                    answers[asked] = action
        for index, action in enumerate(actions):
            self.observe(action, answers.get(index))
            if self.unroutable and unanswered is NEVER_ANSWERED:
                self._start(_one_partition(self.adt))  # routes everything
                self.tell(actions)
                return

    def observe(self, action: Any, answer: Any = None) -> None:
        """Consume one interface action (Invocation or Response).

        ``answer`` is for the caller that holds the finished history
        (:func:`repro.core.fastcheck.check_linearizable`): with an
        invocation it passes the :class:`Response` that answers it later
        in the trace, or :data:`NEVER_ANSWERED`, and the frontier stops
        speculating on outputs the history already refutes.  Verdicts do
        not depend on it; an online caller has nothing to pass.
        """
        index = self.events
        self.events += 1
        if self.status == VIOLATION:
            return
        if isinstance(action, Invocation):
            self._observe_invocation(action, index, answer)
        elif isinstance(action, Response):
            self._observe_response(action, index)
        else:
            # anything else (switch actions, garbage) is ill-formed at
            # the interface; the reference search rejects it the same way
            self._fail("trace is not well-formed")

    def _observe_invocation(
        self, action: Invocation, index: int, answer: Any
    ) -> None:
        client, payload = action.client, action.input
        if client in self._open:
            self._fail("trace is not well-formed")
            return
        if not self.adt.is_input(payload):
            self._fail(f"invalid ADT input at index {index}")
            return
        op_id = self._op_counter
        self._op_counter += 1
        try:
            key, projected_input = self.spec.route(payload)
            if answer is not None and answer is not NEVER_ANSWERED:
                answer = self.spec.project_output(key, answer.output)
        except Exception:
            self._unroutable(index)
            self._open[client] = (payload, op_id, UNROUTABLE, None)
            return
        self._open[client] = (payload, op_id, key, projected_input)
        frontier = self._frontier(key)
        frontier.invoke(op_id, client, projected_input)
        if answer is not None:
            frontier.foretell(op_id, answer)

    def _observe_response(self, action: Response, index: int) -> None:
        client = action.client
        opened = self._open.get(client)
        if opened is None or opened[0] != action.input:
            self._fail("trace is not well-formed")
            return
        # same input as the invocation: valid, and routed where it was
        del self._open[client]
        _, op_id, key, projected_input = opened
        if key is UNROUTABLE:
            return  # already degraded at the invocation
        try:
            output = self.spec.project_output(key, action.output)
        except Exception:
            self._unroutable(index)
            self.frontiers[key].forget(
                op_id,
                "a response on this partition could not be "
                "projected; verdict unknown",
            )
            return
        frontier = self.frontiers[key]
        frontier.respond(op_id, client, projected_input, output)
        if frontier.status == VIOLATION:
            self._fail(
                self._of_partition(key, frontier.reason), key, frontier.witness
            )
        elif frontier.degraded and not self.degraded:
            self._degrade(self._of_partition(key, frontier.reason))

    # ------------------------------------------------------------------
    # verdict
    # ------------------------------------------------------------------

    @property
    def verdict(self) -> str:
        if self.status == VIOLATION:
            return "violation"
        if self.degraded:
            return "unknown"
        return OK

    @property
    def violated(self) -> bool:
        return self.status == VIOLATION

    def report(self) -> MonitorReport:
        return MonitorReport(
            verdict=self.verdict,
            reason=self.reason,
            events=self.events,
            ops=self._op_counter,
            frontiers=len(self.frontiers),
            retained=self.gauge.value,
            peak_retained=self.gauge.peak,
            gc_drops=self._released
            + sum(f.gc_drops for f in self.frontiers.values()),
            violation_key=self.violation_key,
            witness=self.witness,
            certificate_misses=self.certificate_misses,
            miss_reason=self.miss_reason,
        )

    def parts(self) -> Tuple[Tuple[Hashable, int], ...]:
        """``(key, events)`` per partition, sorted by ``repr(key)``: what
        a certified finished history counted, else each frontier's."""
        counts = self._counts or {
            key: frontier.events for key, frontier in self.frontiers.items()
        }
        return tuple(sorted(counts.items(), key=lambda item: repr(item[0])))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _frontier(self, key: Optional[Hashable]) -> KeyFrontier:
        frontier = self.frontiers.get(key)
        if frontier is None:
            frontier = KeyFrontier(
                key,
                self.spec.component(key),
                node_limit=self.node_limit,
                config_limit=self.config_limit,
                gauge=self.gauge,
            )
            self.frontiers[key] = frontier
        return frontier

    def _of_partition(self, key: Hashable, reason: Optional[str]) -> str:
        if self.spec is not self.adt.partition:
            return reason  # one partition: the whole object
        return f"partition {key!r}: {reason}"

    def _unroutable(self, index: int) -> None:
        self.unroutable = True
        self._degrade(
            f"event at index {index} does not fit the partition spec; "
            f"verdict unknown"
        )

    def _degrade(self, reason: str) -> None:
        if self.status == VIOLATION:
            return
        if not self.degraded:
            self.degraded = True
            self.reason = reason

    def _fail(
        self,
        reason: str,
        key: Optional[Hashable] = None,
        witness: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.status = VIOLATION
        self.reason = reason
        self.violation_key = key
        self.witness = witness


def watch_trace(
    trace: Trace,
    adt: ADT,
    node_limit: Optional[int] = None,
    config_limit: Optional[int] = None,
) -> MonitorReport:
    """Run the streaming monitor over a finished trace, event by event.

    The online engine on a recorded trace: told nothing about the
    future, it must still say what
    :func:`repro.core.fastcheck.check_linearizable` (told everything)
    says on the same trace, or a typed ``unknown``.
    """
    monitor = StreamingMonitor(
        adt, node_limit=node_limit, config_limit=config_limit
    )
    for action in trace:
        monitor.observe(action)
    return monitor.report()


def decide(
    actions: Sequence[Any],
    adt: ADT,
    node_limit: Optional[int] = None,
    config_limit: Optional[int] = None,
) -> StreamingMonitor:
    """The monitor that decided the finished history ``actions``
    (interface actions, or the recorder's event tuples): certified in
    response order, else searched (docs/MONITORING.md §7).

    A miss proves nothing: a fresh monitor searches, told the recorded
    responses (:meth:`StreamingMonitor.tell`), and its report carries the
    miss.  Every verdict but ``ok``, and every budget spent, is the
    search's; a ``config_limit`` under 2 fits no step, so it is a miss:
    a fold step holds the state it replaced and its successor, as a
    search step holds the frontier it replaced and its own.
    """
    budget = dict(node_limit=node_limit, config_limit=config_limit)
    monitor = StreamingMonitor(adt, **budget)
    if config_limit is not None and config_limit < 2:
        miss = f"one step outgrows {config_limit} configuration(s)"
    else:
        missed = monitor._fold(actions, finished=True)
        if missed is None:
            return monitor
        miss = missed[1]
    monitor = StreamingMonitor(adt, **budget)
    monitor.certificate_misses, monitor.miss_reason = 1, miss
    monitor.tell([event_action(e) if type(e) is tuple else e for e in actions])
    return monitor


def compose_verdicts(reports: Iterable[Any]) -> Tuple[str, Optional[str]]:
    """Conjoin per-shard verdicts: violation > unknown > ok.

    ``reports`` say ``verdict`` and ``reason``: a :class:`MonitorReport`
    (live, or post hoc from
    :func:`~repro.core.fastcheck.check_linearizable`), a wire run's shard
    and a simulator run alike.
    """
    verdict: str = OK
    reason: Optional[str] = None
    for item in reports:
        if item.verdict == "violation":
            return "violation", item.reason
        if item.verdict == "unknown" and verdict == OK:
            verdict, reason = "unknown", item.reason
    return verdict, reason
