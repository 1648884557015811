"""Overload robustness: typed load shedding and circuit breaking.

A production client stack degrades in one of three honest ways, never
by unbounded buffering or a silently dying identity:

* **admission control** — the pipeline's intake queue is bounded; an op
  that would overflow it is rejected with :exc:`Overloaded` *before*
  its invocation is recorded (shed load leaves no trace in the
  history, so the checker never has to explain an op the system
  refused to attempt);
* **circuit breaking** — repeated decree give-ups against an endpoint
  open a :class:`CircuitBreaker`; while open, work against that
  endpoint is shed instead of queued behind a black hole.  After
  :data:`DEFAULT_RESET_AFTER` seconds the breaker goes half-open and admits one probe; a success
  closes it, a failure re-opens it;
* **typed retry exhaustion** — a retried op that still cannot commit
  fails with :exc:`~repro.net.client.RetriesExhausted`, distinct from
  a shed op: its fate is unknown, its invocation stays pending.

The shapes here are deliberately tiny and synchronous (the asyncio
loop is single-threaded); policy lives in the caller —
:class:`~repro.net.pipeline.SlotPipeline` guards admission with one
breaker per replica group.
"""

from __future__ import annotations

from typing import Callable

#: consecutive failures that open a breaker
DEFAULT_FAILURE_THRESHOLD = 4

#: seconds an open breaker waits before admitting a half-open probe
DEFAULT_RESET_AFTER = 1.0


class Overloaded(Exception):
    """The system refused this op up front (queue full / circuit open).

    Raised *before* the invocation is recorded or any byte leaves the
    process: the history is untouched, the client identity stays
    usable, and the caller may retry later at its own pace — honest
    load shedding, not a fate-unknown timeout.
    """


class CircuitBreaker:
    """A closed / open / half-open breaker over consecutive failures.

    ``record_failure`` / ``record_success`` feed it outcomes;
    ``allow()`` answers whether the next attempt may proceed.  It opens
    after :data:`DEFAULT_FAILURE_THRESHOLD` failures in a row.  While
    open, ``allow`` is False until :data:`DEFAULT_RESET_AFTER` seconds
    elapsed since opening; then exactly one caller is admitted
    (half-open probe) and its outcome decides: success closes the
    breaker, failure re-opens it for another such cooldown.
    """

    __slots__ = (
        "clock",
        "failures",
        "opened_at",
        "_probing",
        "trips",
    )

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.failures = 0
        self.opened_at: float = -1.0
        self._probing = False
        #: times the breaker opened (observability)
        self.trips = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        if self.opened_at < 0:
            return "closed"
        if self._probing:
            return "half-open"
        if self.clock() - self.opened_at >= DEFAULT_RESET_AFTER:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May the next attempt proceed?  (Claims the half-open probe.)"""
        if self.opened_at < 0:
            return True
        if self._probing:
            # one probe at a time; everyone else stays shed until it
            # reports back
            return False
        if self.clock() - self.opened_at >= DEFAULT_RESET_AFTER:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        """An attempt succeeded: close the breaker, clear the history."""
        self.failures = 0
        self.opened_at = -1.0
        self._probing = False

    def record_failure(self) -> None:
        """An attempt failed: count it; at the threshold, open."""
        if self._probing:
            # the half-open probe failed: straight back to open, with a
            # fresh cooldown
            self._probing = False
            self.opened_at = self.clock()
            self.trips += 1
            return
        self.failures += 1
        if self.opened_at < 0 and self.failures >= DEFAULT_FAILURE_THRESHOLD:
            self.opened_at = self.clock()
            self.trips += 1
