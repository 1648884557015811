"""Fast-path linearizability checking via P-compositionality.

The monolithic search in :mod:`repro.core.linearizability` is NP-hard in
the trace length.  But linearizability is *local* (Herlihy–Wing, §4.3 of
the paper; ``test_locality.py``): a trace over a system of independent
objects is linearizable iff each per-object projection is linearizable.
Horn & Kroening's *P-compositionality* generalizes the observation to
any partition of the operations such that outputs depend only on the
sub-history sharing the partition key — e.g. the keys of a map.  The
pay-off is drastic: one search over ``n`` interleaved operations becomes
``k`` independent searches over ``n/k`` operations each, turning an
exponential into a sum of much smaller exponentials.

An ADT opts in by carrying a :class:`~repro.core.adt.PartitionSpec`
(products built by :func:`~repro.core.adt.product_adt` and the replicated
KV-store ADT do); one without a spec is its own one partition.  Either
way the trace is decided by the one engine that decides wire histories,
:class:`~repro.monitor.streaming.StreamingMonitor` — global
well-formedness, invalid-input rejection, key routing, one
:class:`~repro.monitor.frontier.KeyFrontier` per key, typed ``unknown``
— fed the finished trace event by event.  After the split a partition
is a single-object history, which the frontier decides in time bounded
by the concurrent window, not by the length.

What a post-hoc caller adds is the future:
:func:`~repro.monitor.streaming.foretold` pairs every invocation with
the response the history holds for it, so
:func:`~repro.core.linearizability.frontier_step` never creates a
speculative linearization that the operation's own recorded response
refutes.  It would be killed at that response anyway, so verdicts are
the online monitor's; only the work differs (ten puts pending on one
key: 986,410 configurations at the first response online, one told).

The monolithic search (:func:`~repro.core.linearizability.linearize`,
the paper's Defs 5-15) decides only what the engine cannot: traces with
a globally valid event the spec cannot route.  It is not the decider of
an ADT without a spec, because the paper's definition is coarser than
Herlihy-Wing when an input repeats: it matches responses to inputs, not
to operations, and on an order-sensitive object (a queue) accepts
histories that no legal sequential history explains
(``tests/test_fastcheck.py::TestRepeatedInputs``).

Soundness of the split is exactly the locality theorem: real-time order
between same-key operations is preserved by projection (projection keeps
relative order), and per-key witnesses merge into a global witness
because distinct keys never constrain each other — the trace is a trace
of the product of the components, and the product of linearizable parts
is linearizable.  Well-formedness is the one thing projections cannot
police (a client with two pending invocations on different keys is
ill-formed globally while every projection looks fine), which is why the
engine tracks it across keys.  The equivalence with the monolithic
verdict is tested over random multi-object trace families in
``tests/test_fastcheck.py``, including a non-local mutant ADT that must
force the fallback, and against every other decider in
``tests/oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from ..monitor.streaming import StreamingMonitor, foretold
from .adt import ADT
from .linearizability import LinearizationResult, linearize
from .traces import Trace

MONOLITHIC = "monolithic"
COMPOSITIONAL = "compositional"


@dataclass(frozen=True)
class CheckReport:
    """Verdict plus how it was obtained.

    ``strategy`` is :data:`COMPOSITIONAL` when the streaming engine
    decided (an ADT without a spec being one partition, key ``None``),
    :data:`MONOLITHIC` otherwise.  ``parts`` lists
    ``(key, action_count)`` per partition the engine opened (empty for
    monolithic runs; the engine stops counting at a violation).  A
    compositional success carries no linearization witness
    (``witness is None``) — the frontier folds the decided prefix into
    its states instead of keeping it; the verdict and ``unknown`` flag
    are authoritative.
    """

    result: LinearizationResult
    strategy: str
    parts: Tuple[Tuple[Hashable, int], ...] = ()

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def unknown(self) -> bool:
        return self.result.unknown

    @property
    def verdict(self) -> str:
        """``ok`` / ``violation`` / ``unknown``, the monitor's three."""
        if self.result.unknown:
            return "unknown"
        return "ok" if self.result.ok else "violation"

    @property
    def reason(self) -> Optional[str]:
        return self.result.reason or None

    def __bool__(self) -> bool:
        return self.result.ok


def _stream(
    trace: Trace,
    adt: ADT,
    node_limit: Optional[int],
    state_limit: Optional[int],
) -> Optional[CheckReport]:
    """Decide ``trace`` with the streaming engine, told the future.

    None when some globally valid event does not fit the partition spec:
    the engine cannot decide that (online it degrades to ``unknown``),
    but this caller still holds the whole trace.
    """
    monitor = StreamingMonitor(
        adt, node_limit=node_limit, config_limit=state_limit
    )
    for action, answer in foretold(trace):
        monitor.observe(action, answer)
        if monitor.unroutable:
            return None
    report = monitor.report()
    return CheckReport(
        result=LinearizationResult(
            report.ok,
            reason=report.reason or "",
            unknown=report.verdict == "unknown",
        ),
        strategy=COMPOSITIONAL,
        parts=tuple(
            (frontier.key, frontier.events)
            for frontier in sorted(
                monitor.frontiers.values(), key=lambda f: repr(f.key)
            )
        ),
    )


def check_linearizable(
    trace: Trace,
    adt: ADT,
    node_limit: Optional[int] = None,
    state_limit: Optional[int] = None,
) -> CheckReport:
    """Linearizability with the P-compositional fast path.

    The trace runs through
    :class:`~repro.monitor.streaming.StreamingMonitor`, the one engine
    that decides wire histories: ``node_limit`` bounds the search at one
    response and ``state_limit`` the configurations one partition's
    frontier holds at once.  Any failing partition fails the trace (with
    the offending key in the reason); if none fails but one spent a
    budget, the verdict is ``unknown`` and the reason names the
    partition.  A trace that does not fit the ADT's partition spec is
    decided by the monolithic search.
    """
    report = _stream(trace, adt, node_limit, state_limit)
    if report is not None:
        return report
    return CheckReport(
        result=linearize(
            trace, adt, node_limit=node_limit, state_limit=state_limit
        ),
        strategy=MONOLITHIC,
    )


def is_linearizable_fast(
    trace: Trace,
    adt: ADT,
    node_limit: Optional[int] = None,
    state_limit: Optional[int] = None,
) -> bool:
    """Boolean convenience wrapper around :func:`check_linearizable`."""
    return check_linearizable(
        trace, adt, node_limit=node_limit, state_limit=state_limit
    ).result.ok
