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
KV-store ADT do); one without a spec is its own one partition.

A finished trace is first its own certificate
(:func:`~repro.monitor.streaming.decide`, docs/MONITORING.md §7): each
key folded in response order, pending operations dropped.  That order
respects real time, so a fold that reproduces every recorded output
proves ``ok`` in one pass; every history the pipelined data plane
records does.  A miss proves nothing, and the one engine that decides
wire histories, :class:`~repro.monitor.streaming.StreamingMonitor`
(well-formedness, invalid inputs, key routing, a frontier per key,
typed ``unknown``), searches the trace told each recorded response
(:meth:`~repro.monitor.streaming.StreamingMonitor.tell`), so
:func:`~repro.core.linearizability.frontier_step` never speculates what
that response refutes (ten puts pending on one key: 986,410
configurations at the first response untold, one told).  Every verdict
but ``ok``, and every budget spent, is the search's.

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

from ..monitor.streaming import StreamingMonitor, decide
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


def _compositional(monitor: StreamingMonitor) -> Optional[CheckReport]:
    """What ``monitor``, having decided a whole trace, says of it: None
    when a globally valid event did not fit the partition spec (online
    that is ``unknown``; this caller still holds the whole trace)."""
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
        parts=monitor.parts(),
    )


def _stream(
    trace: Trace,
    adt: ADT,
    node_limit: Optional[int],
    state_limit: Optional[int],
) -> Optional[CheckReport]:
    """Decide ``trace`` with the streaming engine, told the future: the
    search alone, with no certificate before it."""
    monitor = StreamingMonitor(
        adt, node_limit=node_limit, config_limit=state_limit
    )
    monitor.tell(trace)
    return _compositional(monitor)


def check_linearizable(
    trace: Trace,
    adt: ADT,
    node_limit: Optional[int] = None,
    state_limit: Optional[int] = None,
) -> CheckReport:
    """Linearizability with the P-compositional fast path.

    The trace runs through :func:`~repro.monitor.streaming.decide`:
    response order certifies it, or the one engine that decides wire
    histories searches it: ``node_limit`` bounds the search at one
    response and ``state_limit`` the configurations one partition's
    frontier holds at once.  Any failing partition fails the trace (with
    the offending key in the reason); if none fails but one spent a
    budget, the verdict is ``unknown`` and the reason names the
    partition.  A trace that does not fit the ADT's partition spec is
    decided by the monolithic search.
    """
    report = _compositional(decide(trace, adt, node_limit, state_limit))
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
