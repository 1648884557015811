"""What every wire client shares: history recording, results, timeouts.

The client itself lives in :mod:`repro.net.pipeline`: a
:class:`~repro.net.pipeline.PipelineClient` over a
:class:`~repro.net.pipeline.SlotPipeline`.  The paper's client — one
composed Quorum→Backup consensus per log slot, one op per round, the
response derived from the decided prefix — is that same pair built with
``window=1, max_batch=1`` and a pipeline of its own
(:func:`~repro.net.pipeline.probing_client`).

This module holds the parts that do not depend on the proposer:

* :class:`HistoryRecorder` — the Jepsen-style wire-level history.  One
  op is one invocation and at most one response; a timed-out op leaves
  its invocation **pending** (linearizability permits that — the op may
  or may not have taken effect);
* :class:`OpResult` — one committed op with the metrics benchmarks read;
* :exc:`OperationTimeout` / :exc:`RetriesExhausted` — the typed
  fate-unknown failure that poisons a client identity;
* the wall-clock timer and backoff *templates* clients copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Tuple

from ..core.actions import Invocation, Response
from ..core.traces import Trace
from ..mp.backoff import BackoffPolicy

#: wall-clock Quorum timer (seconds): generous vs localhost RTTs, small
#: vs the op timeout, so a contended slot switches to Backup quickly
DEFAULT_QUORUM_TIMEOUT = 0.15

#: wall-clock retry pacing for the Backup phase.  A module-level
#: *template*: clients copy it (``dataclasses.replace``) instead of
#: sharing the instance, so policy state added later can never couple
#: unrelated clients.
DEFAULT_BACKOFF = BackoffPolicy(
    base=0.2, factor=2.0, cap=2.0, jitter=0.5, max_retries=8
)

#: pacing for op-level re-submission after an attempt timeout: short
#: base (the attempt itself already waited), deterministic jitter to
#: de-synchronize retry storms, small budget — the op deadline is the
#: real bound
DEFAULT_RETRY_BACKOFF = BackoffPolicy(
    base=0.05, factor=2.0, cap=0.5, jitter=0.5, max_retries=3
)


class OperationTimeout(Exception):
    """An operation exceeded its time budget; its fate is unknown."""


class RetriesExhausted(OperationTimeout):
    """Safe retry gave up: every attempt within the op deadline and the
    retry budget timed out.  The op's fate is unknown — the invocation
    stays pending and the identity is poisoned (continue through
    :meth:`~repro.net.pipeline.PipelineClient.successor`).  A typed
    subclass of :exc:`OperationTimeout` so existing fate-unknown
    handling applies.
    """


@dataclass
class OpResult:
    """One committed operation, with the metrics the benchmarks read."""

    client: Hashable
    command: Tuple
    response: Hashable
    slot: int
    latency: float
    attempts: int
    switched_slots: int

    @property
    def path(self) -> str:
        """'fast' iff every slot on the way decided in Quorum."""
        return "slow" if self.switched_slots else "fast"


class HistoryRecorder:
    """Wire-level history: what clients observed, when they observed it.

    Events append in wall-clock order (the asyncio loop is single
    threaded, so append order *is* real-time order).  ``trace()`` yields
    the phase-1 interface trace — untagged KV commands — that
    :func:`repro.core.fastcheck.check_linearizable` consumes; a timed
    out operation contributes an invocation with no response.  Retried
    and hedged attempts are *transport*-level events, not history
    events: one op is one invocation and at most one response, however
    many times its decree rode the wire.

    Every event is also streamed to ``tap`` (a callable of one event),
    which is how the online monitor observes the run: the tap is called
    synchronously with each raw ``(kind, client, command, response,
    at)`` tuple *after* it is appended, so it sees exactly the history
    the post-hoc checker will see, in the same order (see
    :class:`repro.monitor.MonitorTap`).  The tap alone also hears, in
    the same FIFO, every decided slot a pipeline of this recorder's
    clients folds (:meth:`decided`): no part of the history.
    """

    def __init__(self, clock) -> None:
        self._clock = clock
        self.tap = None
        self.events: List[Tuple[str, Hashable, Tuple, Any, float]] = []

    def invoke(self, client: Hashable, command: Tuple) -> None:
        """Record an invocation at the current wall-clock instant."""
        event = ("inv", client, command, None, self._clock())
        self.events.append(event)
        if self.tap is not None:
            self.tap(event)

    def respond(self, client: Hashable, command: Tuple, response: Any) -> None:
        """Record the matching response."""
        event = ("res", client, command, response, self._clock())
        self.events.append(event)
        if self.tap is not None:
            self.tap(event)

    def decided(self, slot: int, commands: Tuple) -> None:
        """A pipeline folds ``slot``: tell the tap, record nothing."""
        self.tap(("lin", slot, commands))

    def trace(self) -> Trace:
        """The recorded history as a checkable interface trace."""
        actions = []
        for kind, client, command, response, _ in self.events:
            if kind == "inv":
                actions.append(Invocation(client, 1, command))
            else:
                actions.append(Response(client, 1, command, response))
        return Trace(actions)

    def pending_clients(self) -> Tuple[Hashable, ...]:
        """Clients whose last recorded event is an unanswered invocation."""
        open_invocations: Dict[Hashable, int] = {}
        for kind, client, _, _, _ in self.events:
            if kind == "inv":
                open_invocations[client] = open_invocations.get(client, 0) + 1
            else:
                open_invocations[client] -= 1
        return tuple(
            sorted((c for c, n in open_invocations.items() if n), key=repr)
        )

    def to_jsonable(self) -> List[Dict[str, Any]]:
        """The raw events in a JSON-artifact-friendly shape."""
        return [
            {
                "kind": kind,
                "client": client,
                "command": list(command),
                "response": list(response) if response is not None else None,
                "at": at,
            }
            for kind, client, command, response, at in self.events
        ]
