"""Per-key streaming frontiers: the monitor's unit of incremental search.

A :class:`KeyFrontier` tracks one partition (or the whole object, for
ADTs without a :class:`~repro.core.adt.PartitionSpec`) of a live stream
of invocation/response events.  Its state is a *frontier* — the set of
:data:`~repro.core.linearizability.FrontierConfig` configurations that
are consistent with every event seen so far — advanced by
:func:`~repro.core.linearizability.frontier_step` at each response.
The decided prefix is folded into each configuration's ADT state, so
the frontier never looks back at old events: memory is

    O(|frontier| + open operations + witness window)

independent of stream length.  That is the GC invariant the monitor's
bounded-memory claim rests on (``BENCH_monitor`` measures it).

Three outcomes per key:

* **watching** — the frontier is non-empty; every prefix so far is
  linearizable.
* **violation** — the frontier emptied at some response: no
  linearization of the open window explains the observed output.  The
  frontier then shrinks the *witness window* (the events since the last
  quiescent point) with a ddmin pass — dropping whole operations while
  the replay from the quiescent snapshot still empties the frontier —
  and reports the minimal witness.  Removing complete operations from a
  history preserves linearizability, so a still-failing subset is a
  genuine smaller counterexample.
* **unknown** — a per-event node budget or the configuration budget
  (the frontier a step replaces plus its successor: what the step holds
  at once) was exceeded.  The frontier degrades instead of thrashing: it
  keeps tracking open/closed operations (so well-formedness is still
  policed upstream), and the key's final verdict stays ``unknown`` — a
  gap went unchecked.

Quiescence — no open operations — is when the frontier garbage-collects:
the surviving configurations become the new replay base and the witness
window is cleared.  If the window outgrows :data:`WITNESS_LIMIT` before a
quiescent point, the oldest events are dropped and the window is marked
truncated; a truncated window skips the ddmin pass (its replay base is
stale) and is reported raw.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Hashable, List, Optional

from ..core.adt import ADT
from ..core.linearizability import (
    FrontierBudgetExceeded,
    FrontierConfig,
    frontier_step,
    initial_frontier,
)
from ..ddmin import ProbeBudgetExceeded, ddmin

WATCHING = "watching"
VIOLATION = "violation"
UNKNOWN = "unknown"

#: cap on the witness window (events retained per key between
#: quiescent points); beyond it the window truncates oldest-first
WITNESS_LIMIT = 512

#: probe budget for the ddmin witness shrink
DEFAULT_SHRINK_PROBES = 256


class RetainedGauge:
    """Shared counter of retained events, with a high-water mark.

    One gauge is shared by every frontier of a monitor so
    ``peak`` measures the *total* memory high-water mark, not a per-key
    one — the number the GC-bound benchmark asserts against.
    """

    __slots__ = ("value", "peak")

    def __init__(self) -> None:
        self.value = 0
        self.peak = 0

    def add(self, n: int = 1) -> None:
        self.value += n
        if self.value > self.peak:
            self.peak = self.value

    def sub(self, n: int = 1) -> None:
        self.value -= n


def ddmin_ops(
    candidates: List[Hashable],
    fails: Callable[[List[Hashable]], bool],
    max_probes: int = DEFAULT_SHRINK_PROBES,
) -> List[Hashable]:
    """Minimize a list of removable items while ``fails`` stays true.

    :func:`repro.ddmin.ddmin` over ``candidates`` (the always-kept
    failing operation is *not* among them; ``fails`` adds it back
    internally), except that a witness is best-effort: when the probe
    budget runs out the smallest failing subset found so far is the
    answer, not an error.
    """
    try:
        return ddmin(candidates, fails, max_probes)
    except ProbeBudgetExceeded as exceeded:
        return exceeded.best


class KeyFrontier:
    """The incremental linearizability check for one partition key."""

    def __init__(
        self,
        key: Hashable,
        adt: ADT,
        node_limit: Optional[int] = None,
        config_limit: Optional[int] = None,
        gauge: Optional[RetainedGauge] = None,
    ) -> None:
        self.key = key
        self.adt = adt
        self.node_limit = node_limit
        self.config_limit = config_limit
        self.gauge = gauge if gauge is not None else RetainedGauge()
        self.configs: FrozenSet[FrontierConfig] = initial_frontier(adt)
        #: replay base: the frontier at the last quiescent point
        self.base: FrozenSet[FrontierConfig] = self.configs
        self.open_inputs: Dict[Hashable, Any] = {}
        #: what a post-hoc caller foretold: open op -> its recorded output
        self.recorded: Dict[Hashable, Any] = {}
        #: events since the last quiescent point, for witness replay
        self.window: List[tuple] = []
        self.truncated = False
        self.status = WATCHING
        self.reason: Optional[str] = None
        #: sticky: once a budget blew, the final verdict stays unknown
        self.degraded = False
        self.gc_drops = 0
        self.events = 0
        self.witness: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------

    def invoke(self, op_id: Hashable, client: Hashable, payload: Any) -> None:
        """An operation opened: it may linearize at any later response."""
        self.events += 1
        if self.status == VIOLATION:
            return
        self._retain(("inv", op_id, client, payload))
        self.open_inputs[op_id] = payload

    def foretell(self, op_id: Hashable, output: Any) -> None:
        """A post-hoc caller read ahead: open operation ``op_id`` is
        answered ``output`` later in the recorded history (or is
        :data:`~repro.core.linearizability.NEVER_ANSWERED`), so
        :func:`frontier_step` need not speculate otherwise.  An online
        caller cannot know and never calls this."""
        self.recorded[op_id] = output

    def respond(
        self, op_id: Hashable, client: Hashable, payload: Any, output: Any
    ) -> None:
        """An operation closed: advance the frontier past its response."""
        self.events += 1
        if self.status == VIOLATION:
            return
        self._retain(("res", op_id, client, payload, output))
        if op_id not in self.open_inputs:
            # unreachable behind the monitor's well-formedness gate;
            # defensively a violation, never a crash
            self._fail(f"response for unknown operation {op_id!r}")
            return
        self.recorded.pop(op_id, None)
        if self.status == UNKNOWN:
            del self.open_inputs[op_id]
            return
        try:
            survivors = frontier_step(
                self.adt.step,
                self.configs,
                self.open_inputs,
                op_id,
                output,
                node_limit=self.node_limit,
                recorded=self.recorded,
            )
        except FrontierBudgetExceeded as exc:
            del self.open_inputs[op_id]
            self._degrade(f"{exc}; verdict unknown")
            return
        del self.open_inputs[op_id]
        if not survivors:
            self._fail(
                f"frontier emptied: no linearization of the open window "
                f"explains {client!r}'s {payload!r} -> {output!r}"
            )
            return
        # the budget bounds what this step held at once: the frontier it
        # replaced plus its successor
        if (
            self.config_limit is not None
            and len(self.configs) + len(survivors) > self.config_limit
        ):
            self._degrade(
                f"frontier grew past the {self.config_limit}-configuration "
                f"budget; verdict unknown"
            )
            return
        self.configs = survivors
        self._maybe_quiesce()

    def forget(self, op_id: Hashable, reason: str) -> None:
        """Drop an open operation without checking it (and degrade).

        Used when a response cannot be projected into this key's
        alphabet: a live monitor cannot search the history again as one
        partition mid-stream (the prefix is garbage-collected), so the
        honest verdict is *unknown*, not a guess.
        """
        self.events += 1
        self.open_inputs.pop(op_id, None)
        self.recorded.pop(op_id, None)
        if self.status != VIOLATION:
            self._degrade(reason)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _retain(self, event: tuple) -> None:
        self.window.append(event)
        self.gauge.add(1)
        if len(self.window) > WITNESS_LIMIT:
            drop = len(self.window) - WITNESS_LIMIT
            del self.window[:drop]
            self.gauge.sub(drop)
            self.gc_drops += drop
            self.truncated = True

    def _clear_window(self) -> None:
        self.gc_drops += len(self.window)
        self.gauge.sub(len(self.window))
        self.window.clear()
        self.truncated = False

    def _maybe_quiesce(self) -> None:
        if not self.open_inputs:
            self.base = self.configs
            self._clear_window()

    def _degrade(self, reason: str) -> None:
        if self.status != WATCHING:
            return
        self.status = UNKNOWN
        self.degraded = True
        if self.reason is None:
            self.reason = reason
        self.configs = frozenset()
        # the window cannot witness anything across an unchecked gap
        self._clear_window()

    def _fail(self, reason: str) -> None:
        self.status = VIOLATION
        self.reason = reason
        self.witness = self._shrink_witness()

    # ------------------------------------------------------------------
    # witness extraction
    # ------------------------------------------------------------------

    @staticmethod
    def _jsonable(event: tuple) -> Dict[str, Any]:
        payload = {
            "kind": event[0],
            "op": event[1],
            "client": event[2],
            "input": event[3],
        }
        if event[0] == "res":
            payload["output"] = event[4]
        return payload

    def _replay_fails(self, kept: frozenset) -> bool:
        """Does the window restricted to ``kept`` ops still violate?"""
        configs = self.base
        open_inputs: Dict[Hashable, Any] = {}
        for event in self.window:
            if event[1] not in kept:
                continue
            if event[0] == "inv":
                open_inputs[event[1]] = event[3]
                continue
            if event[1] not in open_inputs:
                return False
            try:
                configs = frontier_step(
                    self.adt.step,
                    configs,
                    open_inputs,
                    event[1],
                    event[4],
                    node_limit=self.node_limit,
                )
            except FrontierBudgetExceeded:
                return False
            del open_inputs[event[1]]
            if not configs:
                return True
        return False

    def _shrink_witness(self) -> Dict[str, Any]:
        window = list(self.window)
        if self.truncated or not window:
            return {
                "partition": self.key,
                "truncated": True,
                "shrunk": False,
                "events": [self._jsonable(e) for e in window],
            }
        ordered_ops: List[Hashable] = []
        seen = set()
        for event in window:
            if event[1] not in seen:
                seen.add(event[1])
                ordered_ops.append(event[1])
        failing_op = window[-1][1]
        removable = [op for op in ordered_ops if op != failing_op]
        kept = ddmin_ops(
            removable,
            lambda subset: self._replay_fails(frozenset(subset) | {failing_op}),
        )
        final = frozenset(kept) | {failing_op}
        return {
            "partition": self.key,
            "truncated": False,
            "shrunk": len(final) < len(ordered_ops),
            "events": [
                self._jsonable(e) for e in window if e[1] in final
            ],
        }
